//! Golden front-end test: the exact tokens, trees and diagnostics of
//! the GTLC lexer and parser, pinned as text.
//!
//! Three tables:
//!
//! * token kinds and spans for sources that cover every token kind,
//!   comments, primes in identifiers, and the two-character symbols;
//! * the tree both [`parse`] and [`parse_in`] build for precedence and
//!   associativity cases, printed as s-expressions with spans;
//! * the exact [`Diagnostic`] (message and span) both parse paths
//!   report for malformed sources.
//!
//! The tables were recorded from the five-level recursive-descent
//! parser, so any rewrite of the lexer or the parser must reproduce
//! them byte for byte. All sources are ASCII.

use bc_gtlc::ast::{Expr, ExprKind};
use bc_gtlc::lexer::lex;
use bc_gtlc::parser::{parse, parse_in};
use bc_gtlc::Diagnostic;
use bc_syntax::TypeArena;

/// Renders every token as `Kind start..end`.
fn tokens(src: &str) -> Vec<String> {
    lex(src)
        .unwrap_or_else(|d| panic!("{src:?} failed to lex: {d:?}"))
        .iter()
        .map(|t| format!("{:?} {}..{}", t.kind, t.span.start, t.span.end))
        .collect()
}

/// Renders a tree as an s-expression, every node suffixed with its
/// span; `ty` prints an annotation.
fn show<T>(e: &Expr<T>, ty: &dyn Fn(&T) -> String) -> String {
    let node = match &e.kind {
        ExprKind::Int(n) => n.to_string(),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Var(x) => x.clone(),
        ExprKind::Lam { param, ty: t, body } => {
            format!("(fun {param}:{} {})", ty(t), show(body, ty))
        }
        ExprKind::App(f, a) => format!("(app {} {})", show(f, ty), show(a, ty)),
        ExprKind::Prim(op, args) => {
            let args: Vec<String> = args.iter().map(|a| show(a, ty)).collect();
            format!("({op} {})", args.join(" "))
        }
        ExprKind::If(c, t, f) => {
            format!("(if {} {} {})", show(c, ty), show(t, ty), show(f, ty))
        }
        ExprKind::Let {
            name,
            ty: t,
            bound,
            body,
        } => {
            let t = t
                .as_ref()
                .map_or_else(String::new, |t| format!(":{}", ty(t)));
            format!("(let {name}{t} {} {})", show(bound, ty), show(body, ty))
        }
        ExprKind::Letrec {
            name,
            param,
            param_ty,
            result_ty,
            fun_body,
            body,
        } => format!(
            "(letrec {name} {param}:{}:{} {} {})",
            ty(param_ty),
            ty(result_ty),
            show(fun_body, ty),
            show(body, ty)
        ),
        ExprKind::Ascribe(inner, t) => format!("(: {} {})", show(inner, ty), ty(t)),
    };
    format!("{node}@{}..{}", e.span.start, e.span.end)
}

/// Parses `src` on both paths and returns the tree path's rendering,
/// after checking the interning path renders identically.
fn tree(src: &str) -> String {
    let toks = lex(src).unwrap_or_else(|d| panic!("{src:?} failed to lex: {d:?}"));
    let tree = parse(&toks).unwrap_or_else(|d| panic!("{src:?} failed to parse: {d:?}"));
    let mut types = TypeArena::new();
    let interned = parse_in(&toks, &mut types).expect("parse_in agrees with parse");
    let shown = show(&tree, &|t| format!("[{t}]"));
    let shown_in = show(&interned, &|&t| format!("[{}]", types.resolve(t)));
    assert_eq!(shown_in, shown, "parse_in disagrees with parse on {src:?}");
    shown
}

/// The diagnostic both parse paths report for `src`, after checking
/// they agree.
fn diagnostic(src: &str) -> Diagnostic {
    let tree = lex(src).and_then(|t| parse(&t).map(drop));
    let mut types = TypeArena::new();
    let interned = lex(src).and_then(|t| parse_in(&t, &mut types).map(drop));
    assert_eq!(tree, interned, "parse and parse_in disagree on {src:?}");
    tree.expect_err(src)
}

#[test]
fn token_kinds_and_spans() {
    let cases: &[(&str, &[&str])] = &[
        (
            "fun let letrec in if then else true false not and or quot rem Int Bool",
            &[
                "Fun 0..3",
                "Let 4..7",
                "Letrec 8..14",
                "In 15..17",
                "If 18..20",
                "Then 21..25",
                "Else 26..30",
                "True 31..35",
                "False 36..41",
                "Not 42..45",
                "And 46..49",
                "Or 50..52",
                "Quot 53..57",
                "Rem 58..61",
                "TyInt 62..65",
                "TyBool 66..70",
                "Eof 70..70",
            ],
        ),
        (
            "? ( ) : => -> = + - * < <=",
            &[
                "Question 0..1",
                "LParen 2..3",
                "RParen 4..5",
                "Colon 6..7",
                "FatArrow 8..10",
                "Arrow 11..13",
                "Equals 14..15",
                "Plus 16..17",
                "Minus 18..19",
                "Star 20..21",
                "Less 22..23",
                "LessEq 24..26",
                "Eof 26..26",
            ],
        ),
        (
            "0 42 9223372036854775807 007",
            &[
                "Int(0) 0..1",
                "Int(42) 2..4",
                "Int(9223372036854775807) 5..24",
                "Int(7) 25..28",
                "Eof 28..28",
            ],
        ),
        (
            "x _ _x'1 even' Int' letrec' fun_ x1y",
            &[
                "Ident(\"x\") 0..1",
                "Ident(\"_\") 2..3",
                "Ident(\"_x'1\") 4..8",
                "Ident(\"even'\") 9..14",
                "Ident(\"Int'\") 15..19",
                "Ident(\"letrec'\") 20..27",
                "Ident(\"fun_\") 28..32",
                "Ident(\"x1y\") 33..36",
                "Eof 36..36",
            ],
        ),
        (
            "1 -- a comment\n2 --trailing",
            &["Int(1) 0..1", "Int(2) 15..16", "Eof 27..27"],
        ),
        (
            "a-->b\nc",
            &["Ident(\"a\") 0..1", "Ident(\"c\") 6..7", "Eof 7..7"],
        ),
        (
            "x-1 =>= <== ->- ",
            &[
                "Ident(\"x\") 0..1",
                "Minus 1..2",
                "Int(1) 2..3",
                "FatArrow 4..6",
                "Equals 6..7",
                "LessEq 8..10",
                "Equals 10..11",
                "Arrow 12..14",
                "Minus 14..15",
                "Eof 16..16",
            ],
        ),
        (
            "\t(f\r\nx)",
            &[
                "LParen 1..2",
                "Ident(\"f\") 2..3",
                "Ident(\"x\") 5..6",
                "RParen 6..7",
                "Eof 7..7",
            ],
        ),
        ("", &["Eof 0..0"]),
        ("   -- only a comment", &["Eof 20..20"]),
    ];
    for (src, expected) in cases {
        assert_eq!(tokens(src), *expected, "on {src:?}");
    }
}

#[test]
fn precedence_and_associativity() {
    let cases: &[(&str, &str)] = &[
        ("a - b - c", "(- (- a@0..1 b@4..5)@0..5 c@8..9)@0..9"),
        ("a = b and c < d or e", "(or (and (= a@0..1 b@4..5)@0..5 (< c@10..11 d@14..15)@10..15)@0..15 e@19..20)@0..20"),
        ("not x and y", "(and (not x@4..5)@0..5 y@10..11)@0..11"),
        ("- - 1", "(neg (neg 1@4..5)@2..5)@0..5"),
        ("f x y + 1 * g z", "(+ (app (app f@0..1 x@2..3)@0..3 y@4..5)@0..5 (* 1@8..9 (app g@12..13 z@14..15)@12..15)@8..15)@0..15"),
        ("1 + (x : ?) quot 2", "(+ 1@0..1 (quot (: x@5..6 [?])@4..11 2@17..18)@4..18)@0..18"),
        ("a or b or c", "(or (or a@0..1 b@5..6)@0..6 c@10..11)@0..11"),
        ("a and b and c", "(and (and a@0..1 b@6..7)@0..7 c@12..13)@0..13"),
        ("a * b rem c quot d", "(quot (rem (* a@0..1 b@4..5)@0..5 c@10..11)@0..11 d@17..18)@0..18"),
        ("-a * b", "(* (neg a@1..2)@0..2 b@5..6)@0..6"),
        ("not a = b", "(= (not a@4..5)@0..5 b@8..9)@0..9"),
        ("a + b < c * d", "(< (+ a@0..1 b@4..5)@0..5 (* c@8..9 d@12..13)@8..13)@0..13"),
        ("(a < b) < c", "(< (< a@1..2 b@5..6)@0..7 c@10..11)@0..11"),
        ("((a))", "a@0..5"),
        ("if a then b else c + 1", "(if a@3..4 b@10..11 (+ c@17..18 1@21..22)@17..22)@0..22"),
        ("fun (f : Int -> ? -> Bool) => f x", "(fun f:[Int -> ? -> Bool] (app f@30..31 x@32..33)@30..33)@0..33"),
        ("let x : (Int -> Int) -> Bool = y in x", "(let x:[(Int -> Int) -> Bool] y@31..32 x@36..37)@0..37"),
        ("letrec f (n : Int) : Int = f n in f 1", "(letrec f n:[Int]:[Int] (app f@27..28 n@29..30)@27..30 (app f@34..35 1@36..37)@34..37)@0..37"),
        ("fun x => let y = x in y", "(fun x:[?] (let y x@17..18 y@22..23)@9..23)@0..23"),
        ("(f : ? -> ?) 1 - 2 <= 3 or false", "(or (<= (- (app (: f@1..2 [? -> ?])@0..12 1@13..14)@0..14 2@17..18)@0..18 3@22..23)@0..23 false@27..32)@0..32"),
        ("true and not false", "(and true@0..4 (not false@13..18)@9..18)@0..18"),
    ];
    for (src, expected) in cases {
        assert_eq!(tree(src), *expected, "on {src:?}");
    }
}

#[test]
fn malformed_sources_report_exact_diagnostics() {
    let cases: &[(&str, &str, (usize, usize))] = &[
        ("a = b = c", "expected end of input, found `=`", (6, 7)),
        ("a < b <= c", "expected end of input, found `<=`", (6, 8)),
        (
            "a and b = c = d",
            "expected end of input, found `=`",
            (12, 13),
        ),
        (
            "a or b < c <= d",
            "expected end of input, found `<=`",
            (11, 13),
        ),
        (
            "99999999999999999999",
            "integer literal `99999999999999999999` is out of range",
            (0, 20),
        ),
        ("1 # 2", "unrecognised character `#`", (2, 3)),
        ("#", "unrecognised character `#`", (0, 1)),
        ("a <=> b", "unrecognised character `>`", (4, 5)),
        ("1 +", "expected an expression, found `<eof>`", (3, 3)),
        ("()", "expected an expression, found `)`", (1, 2)),
        ("(1", "expected `)`, found `<eof>`", (2, 2)),
        (
            "(1 : Int",
            "expected `)` after ascription, found `<eof>`",
            (8, 8),
        ),
        (
            "let x = 1",
            "expected `in` after let binding, found `<eof>`",
            (9, 9),
        ),
        (
            "let x = 1 x",
            "expected `in` after let binding, found `<eof>`",
            (11, 11),
        ),
        ("if x 1 else 2", "expected `then`, found `else`", (7, 11)),
        ("if x then 1", "expected `else`, found `<eof>`", (11, 11)),
        ("if x then 1 2", "expected `else`, found `<eof>`", (13, 13)),
        (
            "fun x x",
            "expected `=>` after parameter, found `x`",
            (6, 7),
        ),
        (
            "fun (x Int) => x",
            "expected `:` after parameter name, found `Int`",
            (7, 10),
        ),
        ("(1 : Int ->)", "expected a type, found `)`", (11, 12)),
        ("1 2 )", "expected end of input, found `)`", (4, 5)),
        ("", "expected an expression, found `<eof>`", (0, 0)),
        (
            "-- nothing here",
            "expected an expression, found `<eof>`",
            (15, 15),
        ),
        (
            "letrec f (x : Int) : Int = x",
            "expected `in` after letrec binding, found `<eof>`",
            (28, 28),
        ),
        (
            "letrec f x",
            "expected `(` after function name, found `x`",
            (9, 10),
        ),
        (
            "let = 1 in 2",
            "expected a name after `let`, found `=`",
            (4, 5),
        ),
        ("fun (x : ) => x", "expected a type, found `)`", (9, 10)),
        (
            "letrec f (x : Int) = x in f",
            "expected `:` before the result type, found `=`",
            (19, 20),
        ),
        ("not", "expected an expression, found `<eof>`", (3, 3)),
        ("1 + * 2", "expected an expression, found `*`", (4, 5)),
        ("let x : = 1 in x", "expected a type, found `=`", (8, 9)),
        ("fun => 1", "expected a parameter, found `=>`", (4, 6)),
        ("1 < 2 = 3", "expected end of input, found `=`", (6, 7)),
        ("in", "expected an expression, found `in`", (0, 2)),
        (
            "(1 : (Int -> Bool)",
            "expected `)` after ascription, found `<eof>`",
            (18, 18),
        ),
        (
            "letrec (x : Int) : Int = x in 1",
            "expected a function name after `letrec`, found `(`",
            (7, 8),
        ),
        (
            "letrec f (x : Int : Int = x in f",
            "expected `)` after parameter type, found `:`",
            (18, 19),
        ),
        (
            "fun (1 : Int) => 1",
            "expected a parameter name, found `1`",
            (5, 6),
        ),
        ("a or", "expected an expression, found `<eof>`", (4, 4)),
        (
            "a and b or",
            "expected an expression, found `<eof>`",
            (10, 10),
        ),
        ("- ", "expected an expression, found `<eof>`", (2, 2)),
        ("if then", "expected an expression, found `then`", (3, 7)),
        ("x : Int", "expected end of input, found `:`", (2, 3)),
        (
            "1 + fun x => x",
            "expected an expression, found `fun`",
            (4, 7),
        ),
        ("f fun x => x", "expected end of input, found `fun`", (2, 5)),
        (
            "a < b + c * d = e",
            "expected end of input, found `=`",
            (14, 15),
        ),
        ("(1 : Int -> )", "expected a type, found `)`", (12, 13)),
    ];
    assert!(cases.len() >= 20);
    for &(src, message, (start, end)) in cases {
        let d = diagnostic(src);
        assert_eq!(
            (d.message.as_str(), d.span.start, d.span.end),
            (message, start, end),
            "on {src:?}"
        );
    }
}
