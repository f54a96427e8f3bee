//! Recursive-descent parser for the GTLC surface syntax.
//!
//! ```text
//! expr     := lambda | let | letrec | if | binary
//! lambda   := "fun" (ident | "(" ident ":" type ")") "=>" expr
//! let      := "let" ident (":" type)? "=" expr "in" expr
//! letrec   := "letrec" ident "(" ident ":" type ")" ":" type "=" expr "in" expr
//! if       := "if" expr "then" expr "else" expr
//! binary   := unary (binop unary)*
//! unary    := "not" unary | "-" unary | app
//! app      := atom atom*
//! atom     := int | "true" | "false" | ident | "(" expr (":" type)? ")"
//! type     := tyatom ("->" type)?
//! tyatom   := "Int" | "Bool" | "?" | "(" type ")"
//! ```
//!
//! Binary operators are parsed by one precedence-climbing loop over
//! one table (`binary_op`), loosest first: `or`, `and`, the
//! comparisons `=` `<` `<=`, `+` `-`, then `*` `quot` `rem`. Every
//! level associates to the left except the comparisons, which do not
//! associate (`a = b = c` is a syntax error at the second `=`).
//!
//! Tokens are `Copy` and borrow identifiers from the source, so the
//! parser copies tokens and allocates only the tree it builds.

use bc_syntax::{BaseType, Op, Type, TypeArena, TypeId};

use crate::ast::{Expr, ExprI, ExprKind};
use crate::diagnostics::{Diagnostic, Span};
use crate::token::{Token, TokenKind};

/// How the parser builds type annotations: either as `Rc<Type>` trees
/// (the classic path) or by interning directly into a [`TypeArena`]
/// (the interning path — the annotation never exists as a tree).
trait TyBuild {
    /// The annotation representation.
    type Ty;
    /// The base type `Int` / `Bool`.
    fn base(&mut self, b: BaseType) -> Self::Ty;
    /// The dynamic type `?`.
    fn dynamic(&mut self) -> Self::Ty;
    /// The function type `dom -> cod`.
    fn fun(&mut self, dom: Self::Ty, cod: Self::Ty) -> Self::Ty;
}

/// Tree-building annotations.
struct TreeTy;

impl TyBuild for TreeTy {
    type Ty = Type;
    fn base(&mut self, b: BaseType) -> Type {
        b.ty()
    }
    fn dynamic(&mut self) -> Type {
        Type::DYN
    }
    fn fun(&mut self, dom: Type, cod: Type) -> Type {
        Type::fun(dom, cod)
    }
}

/// Intern-at-parse annotations: types are built bottom-up as arena
/// ids, so a warm arena hands back existing ids and allocates nothing.
struct ArenaTy<'t>(&'t mut TypeArena);

impl TyBuild for ArenaTy<'_> {
    type Ty = TypeId;
    fn base(&mut self, b: BaseType) -> TypeId {
        self.0.base(b)
    }
    fn dynamic(&mut self) -> TypeId {
        self.0.dyn_ty()
    }
    fn fun(&mut self, dom: TypeId, cod: TypeId) -> TypeId {
        self.0.fun(dom, cod)
    }
}

/// Parses a token stream (as produced by [`crate::lexer::lex`]) into
/// an expression.
///
/// # Errors
///
/// Returns a [`Diagnostic`] at the first syntax error.
pub fn parse(tokens: &[Token<'_>]) -> Result<Expr, Diagnostic> {
    Parser::run(tokens, TreeTy)
}

/// Parses a token stream with type annotations interned directly into
/// `types`: the same grammar as [`parse`], but no `Rc<Type>` spine is
/// ever built — each annotation is hash-consed bottom-up, so parsing
/// structurally similar source against a warm arena allocates no type
/// nodes at all.
///
/// # Errors
///
/// Returns a [`Diagnostic`] at the first syntax error — identical to
/// the one [`parse`] produces.
pub fn parse_in(tokens: &[Token<'_>], types: &mut TypeArena) -> Result<ExprI, Diagnostic> {
    Parser::run(tokens, ArenaTy(types))
}

/// The precedence of the comparisons, the one non-associative level.
const CMP: u8 = 3;

/// The binary operator `kind` spells and its precedence (higher binds
/// tighter), or `None` if `kind` is not a binary operator.
fn binary_op(kind: TokenKind<'_>) -> Option<(Op, u8)> {
    Some(match kind {
        TokenKind::Or => (Op::Or, 1),
        TokenKind::And => (Op::And, 2),
        TokenKind::Equals => (Op::Eq, CMP),
        TokenKind::Less => (Op::Lt, CMP),
        TokenKind::LessEq => (Op::Leq, CMP),
        TokenKind::Plus => (Op::Add, 4),
        TokenKind::Minus => (Op::Sub, 4),
        TokenKind::Star => (Op::Mul, 5),
        TokenKind::Quot => (Op::Quot, 5),
        TokenKind::Rem => (Op::Rem, 5),
        _ => return None,
    })
}

/// A cursor over a token stream that ends with `Eof`. `pos` never
/// moves past the last token, so `peek` always has one to copy.
struct Parser<'t, 'src, B> {
    tokens: &'t [Token<'src>],
    pos: usize,
    ty_build: B,
}

impl<'src, B: TyBuild> Parser<'_, 'src, B> {
    fn run(tokens: &[Token<'src>], ty_build: B) -> Result<Expr<B::Ty>, Diagnostic> {
        let mut p = Parser {
            tokens,
            pos: 0,
            ty_build,
        };
        let e = p.expr()?;
        p.expect(TokenKind::Eof, "expected end of input")?;
        Ok(e)
    }

    fn peek(&self) -> Token<'src> {
        self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token<'src> {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        let found = self.peek().kind == kind;
        if found {
            self.bump();
        }
        found
    }

    /// A diagnostic at the next token: `message`, then what was found
    /// there.
    #[cold]
    fn error(&self, message: &str) -> Diagnostic {
        let t = self.peek();
        Diagnostic::new(format!("{message}, found `{}`", t.kind), t.span)
    }

    /// Consumes a `kind` token and returns its span.
    fn expect(&mut self, kind: TokenKind<'_>, message: &str) -> Result<Span, Diagnostic> {
        if self.peek().kind == kind {
            Ok(self.bump().span)
        } else {
            Err(self.error(message))
        }
    }

    fn ident(&mut self, message: &str) -> Result<String, Diagnostic> {
        match self.peek().kind {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name.to_owned())
            }
            _ => Err(self.error(message)),
        }
    }

    fn expr(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        match self.peek().kind {
            TokenKind::Fun => self.lambda(),
            TokenKind::Let => self.let_(),
            TokenKind::Letrec => self.letrec(),
            TokenKind::If => self.if_(),
            _ => self.binary(1),
        }
    }

    fn lambda(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.bump().span;
        let (param, ty) = if self.eat(TokenKind::LParen) {
            let name = self.ident("expected a parameter name")?;
            self.expect(TokenKind::Colon, "expected `:` after parameter name")?;
            let ty = self.ty()?;
            self.expect(TokenKind::RParen, "expected `)` after parameter type")?;
            (name, ty)
        } else {
            // Unannotated parameter: dynamically typed.
            let name = self.ident("expected a parameter")?;
            (name, self.ty_build.dynamic())
        };
        self.expect(TokenKind::FatArrow, "expected `=>` after parameter")?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(Expr::new(
            ExprKind::Lam {
                param,
                ty,
                body: Box::new(body),
            },
            span,
        ))
    }

    fn let_(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.bump().span;
        let name = self.ident("expected a name after `let`")?;
        let ty = if self.eat(TokenKind::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        self.expect(TokenKind::Equals, "expected `=` in let binding")?;
        let bound = self.expr()?;
        self.expect(TokenKind::In, "expected `in` after let binding")?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(Expr::new(
            ExprKind::Let {
                name,
                ty,
                bound: Box::new(bound),
                body: Box::new(body),
            },
            span,
        ))
    }

    fn letrec(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.bump().span;
        let name = self.ident("expected a function name after `letrec`")?;
        self.expect(TokenKind::LParen, "expected `(` after function name")?;
        let param = self.ident("expected a parameter name")?;
        self.expect(TokenKind::Colon, "expected `:` after parameter name")?;
        let param_ty = self.ty()?;
        self.expect(TokenKind::RParen, "expected `)` after parameter type")?;
        self.expect(TokenKind::Colon, "expected `:` before the result type")?;
        let result_ty = self.ty()?;
        self.expect(TokenKind::Equals, "expected `=` in letrec binding")?;
        let fun_body = self.expr()?;
        self.expect(TokenKind::In, "expected `in` after letrec binding")?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(Expr::new(
            ExprKind::Letrec {
                name,
                param,
                param_ty,
                result_ty,
                fun_body: Box::new(fun_body),
                body: Box::new(body),
            },
            span,
        ))
    }

    fn if_(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let start = self.bump().span;
        let cond = self.expr()?;
        self.expect(TokenKind::Then, "expected `then`")?;
        let then_ = self.expr()?;
        self.expect(TokenKind::Else, "expected `else`")?;
        let else_ = self.expr()?;
        let span = start.merge(else_.span);
        Ok(Expr::new(
            ExprKind::If(Box::new(cond), Box::new(then_), Box::new(else_)),
            span,
        ))
    }

    /// Precedence climbing: parses operators of precedence at least
    /// `min`. The right operand of an operator of precedence `p` takes
    /// only operators tighter than `p`, which makes every level left
    /// associative; after a comparison the loop also stops at the next
    /// comparison, which leaves it for the caller to reject.
    fn binary(&mut self, min: u8) -> Result<Expr<B::Ty>, Diagnostic> {
        let mut lhs = self.unary()?;
        let mut limit = u8::MAX;
        while let Some((op, prec)) = binary_op(self.peek().kind) {
            if prec < min || prec >= limit {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Prim(op, vec![lhs, rhs]), span);
            limit = if prec == CMP { CMP } else { prec + 1 };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let op = match self.peek().kind {
            TokenKind::Not => Op::Not,
            TokenKind::Minus => Op::Neg,
            _ => return self.app(),
        };
        let start = self.bump().span;
        let e = self.unary()?;
        let span = start.merge(e.span);
        Ok(Expr::new(ExprKind::Prim(op, vec![e]), span))
    }

    fn app(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let mut fun = self.atom()?;
        while matches!(
            self.peek().kind,
            TokenKind::Int(_)
                | TokenKind::Ident(_)
                | TokenKind::True
                | TokenKind::False
                | TokenKind::LParen
        ) {
            let arg = self.atom()?;
            let span = fun.span.merge(arg.span);
            fun = Expr::new(ExprKind::App(Box::new(fun), Box::new(arg)), span);
        }
        Ok(fun)
    }

    fn atom(&mut self) -> Result<Expr<B::Ty>, Diagnostic> {
        let open = self.peek().span;
        let kind = match self.peek().kind {
            TokenKind::Int(n) => ExprKind::Int(n),
            TokenKind::True => ExprKind::Bool(true),
            TokenKind::False => ExprKind::Bool(false),
            TokenKind::Ident(name) => ExprKind::Var(name.to_owned()),
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                let (kind, message) = if self.eat(TokenKind::Colon) {
                    let ty = self.ty()?;
                    let kind = ExprKind::Ascribe(Box::new(inner), ty);
                    (kind, "expected `)` after ascription")
                } else {
                    (inner.kind, "expected `)`")
                };
                let close = self.expect(TokenKind::RParen, message)?;
                return Ok(Expr::new(kind, open.merge(close)));
            }
            _ => return Err(self.error("expected an expression")),
        };
        self.bump();
        Ok(Expr::new(kind, open))
    }

    fn ty(&mut self) -> Result<B::Ty, Diagnostic> {
        let lhs = self.ty_atom()?;
        if !self.eat(TokenKind::Arrow) {
            return Ok(lhs);
        }
        let rhs = self.ty()?;
        Ok(self.ty_build.fun(lhs, rhs))
    }

    fn ty_atom(&mut self) -> Result<B::Ty, Diagnostic> {
        let ty = match self.peek().kind {
            TokenKind::TyInt => self.ty_build.base(BaseType::Int),
            TokenKind::TyBool => self.ty_build.base(BaseType::Bool),
            TokenKind::Question => self.ty_build.dynamic(),
            TokenKind::LParen => {
                self.bump();
                let t = self.ty()?;
                self.expect(TokenKind::RParen, "expected `)` in type")?;
                return Ok(t);
            }
            _ => return Err(self.error("expected a type")),
        };
        self.bump();
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_str(src: &str) -> Expr {
        parse(&lex(src).unwrap()).unwrap_or_else(|e| panic!("parse error: {}", e.render(src)))
    }

    #[test]
    fn application_is_left_associative() {
        let e = parse_str("f x y");
        match e.kind {
            ExprKind::App(fx, y) => {
                assert!(matches!(y.kind, ExprKind::Var(ref n) if n == "y"));
                assert!(matches!(fx.kind, ExprKind::App(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_str("1 + 2 * 3");
        match e.kind {
            ExprKind::Prim(Op::Add, args) => {
                assert!(matches!(args[1].kind, ExprKind::Prim(Op::Mul, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrow_types_are_right_associative() {
        let e = parse_str("fun (f : Int -> Int -> Bool) => f");
        match e.kind {
            ExprKind::Lam { ty, .. } => {
                assert_eq!(ty, Type::fun(Type::INT, Type::fun(Type::INT, Type::BOOL)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unannotated_parameters_are_dynamic() {
        let e = parse_str("fun x => x");
        match e.kind {
            ExprKind::Lam { ty, .. } => assert_eq!(ty, Type::DYN),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ascription() {
        let e = parse_str("(1 : ?)");
        assert!(matches!(e.kind, ExprKind::Ascribe(_, Type::Dyn)));
    }

    #[test]
    fn letrec_form() {
        let e = parse_str("letrec f (n : Int) : Int = f (n - 1) in f 3");
        assert!(matches!(e.kind, ExprKind::Letrec { .. }));
    }

    #[test]
    fn comparison_is_non_associative() {
        assert!(parse(&lex("1 < 2 < 3").unwrap()).is_err());
    }

    #[test]
    fn unary_minus_and_not() {
        let e = parse_str("not (- 1 < 2)");
        assert!(matches!(e.kind, ExprKind::Prim(Op::Not, _)));
    }

    #[test]
    fn error_mentions_the_found_token() {
        let err = parse(&lex("if 1 els 2").unwrap()).unwrap_err();
        assert!(err.message.contains("expected `then`"), "{}", err.message);
    }

    #[test]
    fn if_and_or_nest() {
        let e = parse_str("if true and false or true then 1 else 2");
        assert!(matches!(e.kind, ExprKind::If(_, _, _)));
    }
}
