//! Hand-written lexer for the GTLC surface syntax.
//!
//! Comments run from `--` to the end of the line. Identifiers are
//! ASCII `[a-zA-Z_][a-zA-Z0-9_']*`; keywords are carved out of the
//! identifier space. The lexer dispatches on bytes and allocates only
//! the token vector: an identifier token borrows its text from the
//! source (see [`crate::token`]).

use crate::diagnostics::{Diagnostic, Span};
use crate::token::{Token, TokenKind};

/// Lexes a source string into tokens (ending with an `Eof` token).
///
/// # Errors
///
/// Returns a [`Diagnostic`] on unrecognised characters or malformed
/// integer literals.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, Diagnostic> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let next = bytes.get(i + 1).copied();
        let (kind, len) = match b {
            _ if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            // Comments: -- to end of line.
            b'-' if next == Some(b'-') => {
                i = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'0'..=b'9' => {
                let len = span_of(&bytes[i..], |c| c.is_ascii_digit());
                let digits = &bytes[i..i + len];
                let value = digits.iter().try_fold(0i64, |n, &d| {
                    n.checked_mul(10)?.checked_add(i64::from(d - b'0'))
                });
                let Some(value) = value else {
                    return Err(Diagnostic::new(
                        format!("integer literal `{}` is out of range", &source[i..i + len]),
                        Span::new(start, i + len),
                    ));
                };
                (TokenKind::Int(value), len)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let len = span_of(&bytes[i..], |c| {
                    c.is_ascii_alphanumeric() || c == b'_' || c == b'\''
                });
                (keyword_or_ident(&source[i..i + len]), len)
            }
            b'?' => (TokenKind::Question, 1),
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b':' => (TokenKind::Colon, 1),
            b'+' => (TokenKind::Plus, 1),
            b'*' => (TokenKind::Star, 1),
            b'=' if next == Some(b'>') => (TokenKind::FatArrow, 2),
            b'=' => (TokenKind::Equals, 1),
            b'-' if next == Some(b'>') => (TokenKind::Arrow, 2),
            b'-' => (TokenKind::Minus, 1),
            b'<' if next == Some(b'=') => (TokenKind::LessEq, 2),
            b'<' => (TokenKind::Less, 1),
            _ => {
                // `i` is always on a character boundary: only ASCII
                // bytes and whole comment lines are skipped.
                let c = source[i..].chars().next().expect("not at end of input");
                return Err(Diagnostic::new(
                    format!("unrecognised character `{c}`"),
                    Span::new(start, start + c.len_utf8()),
                ));
            }
        };
        i += len;
        tokens.push(Token {
            kind,
            span: Span::new(start, i),
        });
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::point(source.len()),
    });
    Ok(tokens)
}

/// The length of the longest prefix of `bytes` whose bytes satisfy
/// `pred`.
fn span_of(bytes: &[u8], pred: impl Fn(u8) -> bool) -> usize {
    bytes.iter().position(|&c| !pred(c)).unwrap_or(bytes.len())
}

/// The keyword spelled `text`, or an identifier borrowing it.
fn keyword_or_ident(text: &str) -> TokenKind<'_> {
    match text {
        "fun" => TokenKind::Fun,
        "let" => TokenKind::Let,
        "letrec" => TokenKind::Letrec,
        "in" => TokenKind::In,
        "if" => TokenKind::If,
        "then" => TokenKind::Then,
        "else" => TokenKind::Else,
        "true" => TokenKind::True,
        "false" => TokenKind::False,
        "not" => TokenKind::Not,
        "and" => TokenKind::And,
        "or" => TokenKind::Or,
        "quot" => TokenKind::Quot,
        "rem" => TokenKind::Rem,
        "Int" => TokenKind::TyInt,
        "Bool" => TokenKind::TyBool,
        _ => TokenKind::Ident(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_lambda() {
        assert_eq!(
            kinds("fun (x : Int) => x + 1"),
            vec![
                TokenKind::Fun,
                TokenKind::LParen,
                TokenKind::Ident("x"),
                TokenKind::Colon,
                TokenKind::TyInt,
                TokenKind::RParen,
                TokenKind::FatArrow,
                TokenKind::Ident("x"),
                TokenKind::Plus,
                TokenKind::Int(1),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn distinguishes_arrows() {
        assert_eq!(
            kinds("-> => - ="),
            vec![
                TokenKind::Arrow,
                TokenKind::FatArrow,
                TokenKind::Minus,
                TokenKind::Equals,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 -- the loneliest number\n2"),
            vec![TokenKind::Int(1), TokenKind::Int(2), TokenKind::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <="),
            vec![TokenKind::Less, TokenKind::LessEq, TokenKind::Eof]
        );
    }

    #[test]
    fn primes_in_identifiers() {
        assert_eq!(
            kinds("even'"),
            vec![TokenKind::Ident("even'"), TokenKind::Eof]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("1 # 2").is_err());
    }

    #[test]
    fn rejects_huge_literals() {
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn names_non_ascii_characters_whole() {
        for (src, c, span) in [
            ("\u{2192}", '\u{2192}', Span::new(0, 3)),
            ("x \u{e9}", '\u{e9}', Span::new(2, 4)),
            ("1 + \u{1f600}", '\u{1f600}', Span::new(4, 8)),
            (
                "-- \u{3bb} in a comment\n\u{3bb}",
                '\u{3bb}',
                Span::new(19, 21),
            ),
        ] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.message, format!("unrecognised character `{c}`"));
            assert_eq!(err.span, span, "on {src:?}");
        }
    }

    #[test]
    fn spans_are_accurate() {
        let toks = lex("let x = 10").unwrap();
        assert_eq!(toks[3].span, Span::new(8, 10));
    }
}
