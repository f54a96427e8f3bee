//! Tokens of the GTLC surface syntax.
//!
//! Tokens are `Copy`: an identifier borrows its text from the source
//! it was lexed from, so lexing allocates nothing per token and the
//! parser copies tokens instead of cloning them.

use std::fmt;

use crate::diagnostics::Span;

/// A lexical token, borrowing identifiers from the source `'src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'src> {
    /// An integer literal.
    Int(i64),
    /// An identifier, as a slice of the source.
    Ident(&'src str),
    /// `fun`
    Fun,
    /// `let`
    Let,
    /// `letrec`
    Letrec,
    /// `in`
    In,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `true`
    True,
    /// `false`
    False,
    /// `not`
    Not,
    /// `and`
    And,
    /// `or`
    Or,
    /// `quot`
    Quot,
    /// `rem`
    Rem,
    /// `Int` (type)
    TyInt,
    /// `Bool` (type)
    TyBool,
    /// `?` (the dynamic type)
    Question,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `:`
    Colon,
    /// `=>`
    FatArrow,
    /// `->`
    Arrow,
    /// `=`
    Equals,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `<`
    Less,
    /// `<=`
    LessEq,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(n) => write!(f, "{n}"),
            TokenKind::Ident(s) => f.write_str(s),
            TokenKind::Fun => f.write_str("fun"),
            TokenKind::Let => f.write_str("let"),
            TokenKind::Letrec => f.write_str("letrec"),
            TokenKind::In => f.write_str("in"),
            TokenKind::If => f.write_str("if"),
            TokenKind::Then => f.write_str("then"),
            TokenKind::Else => f.write_str("else"),
            TokenKind::True => f.write_str("true"),
            TokenKind::False => f.write_str("false"),
            TokenKind::Not => f.write_str("not"),
            TokenKind::And => f.write_str("and"),
            TokenKind::Or => f.write_str("or"),
            TokenKind::Quot => f.write_str("quot"),
            TokenKind::Rem => f.write_str("rem"),
            TokenKind::TyInt => f.write_str("Int"),
            TokenKind::TyBool => f.write_str("Bool"),
            TokenKind::Question => f.write_str("?"),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Colon => f.write_str(":"),
            TokenKind::FatArrow => f.write_str("=>"),
            TokenKind::Arrow => f.write_str("->"),
            TokenKind::Equals => f.write_str("="),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Less => f.write_str("<"),
            TokenKind::LessEq => f.write_str("<="),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    /// What was lexed.
    pub kind: TokenKind<'src>,
    /// Where it was lexed.
    pub span: Span,
}
