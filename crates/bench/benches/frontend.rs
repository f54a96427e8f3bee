//! The front-end benchmark: typechecking and elaboration on interned
//! types versus the tree oracles.
//!
//! Two questions, matching the two wins of the interned front end:
//!
//! * **Warm-session amortisation** — `elaborate_batch16` typechecks
//!   and elaborates a 16-program batch of structurally similar
//!   boundary loops: `compiled_warm` runs the compiled front end
//!   (`elaborate_compiled` over pre-parsed `ExprI`s) with one arena
//!   threaded through the whole batch (programs 2..16 intern nothing
//!   and answer every consistency question from the memo tables), and
//!   `tree` is the tree elaborator baseline.
//! * **Checker throughput on large types** — `typecheck_calls` checks
//!   the call-heavy program (one annotation of size 2⁹, 64 call
//!   sites) with the tree λB checker versus the interned checker
//!   against a warm arena: the tree checker re-walks the domain type
//!   at every site, the interned checker answers each with an O(1) id
//!   equality. `elaborate_tower` asks the harder question — the full
//!   elaboration pass on the wrapper tower, where annotations dominate.
//!   Its `interned_warm` row measures the **compiled** front end
//!   (`elaborate_compiled` over a pre-parsed `ExprI`): annotations are
//!   interned once at parse time, so warm elaboration never re-walks
//!   an annotation tree.
//! * **Lexing and parsing** — `lex_parse` lexes and parses the
//!   wrapper tower and the call-heavy program: `tree` with [`parse`]
//!   (annotations as `Rc<Type>` trees), `interned` with [`parse_in`]
//!   against a warm arena, which is what `Session::compile` runs.

use bc_bench::frontend_workload::{BATCH, CALLS, CALL_DEPTH, TOWER};
use bc_bench::{
    boundary_source, call_heavy_source, parse_source, parse_source_in, wrapper_tower_source,
};
use bc_gtlc::lexer::lex;
use bc_gtlc::parser::{parse, parse_in};
use bc_gtlc::{elaborate, elaborate_compiled};
use bc_lambda_b::typing::{type_of, type_of_interned};
use bc_syntax::TypeArena;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_frontend(c: &mut Criterion) {
    let exprs: Vec<_> = (0..BATCH as i64)
        .map(|i| parse_source(&boundary_source(32 + i)))
        .collect();
    let tower = parse_source(&wrapper_tower_source(TOWER));
    let calls = parse_source(&call_heavy_source(CALL_DEPTH, CALLS));
    let calls_b = elaborate(&calls).expect("call tower elaborates").term;

    let mut group = c.benchmark_group("frontend");
    group.sample_size(20);

    group.bench_function("elaborate_batch16/tree", |b| {
        b.iter(|| {
            for e in &exprs {
                black_box(elaborate(black_box(e)).expect("elaborates"));
            }
        })
    });
    group.bench_function("typecheck_calls/tree", |b| {
        b.iter(|| black_box(type_of(black_box(&calls_b)).expect("well typed")))
    });
    group.bench_function("typecheck_calls/interned_warm", |b| {
        let mut types = TypeArena::new();
        let _ = type_of_interned(&calls_b, &mut types);
        b.iter(|| black_box(type_of_interned(black_box(&calls_b), &mut types).expect("well typed")))
    });

    group.bench_function("elaborate_tower/tree", |b| {
        b.iter(|| black_box(elaborate(black_box(&tower)).expect("elaborates")))
    });
    // The compiled front end: the tower is parsed once into an
    // `ExprI` (annotations interned at parse time), so the timed
    // region is pure elaboration on `TypeId`s — no annotation tree is
    // walked, matching what `Session::compile` actually runs.
    group.bench_function("elaborate_tower/interned_warm", |b| {
        let mut types = TypeArena::new();
        let tower_i = parse_source_in(&wrapper_tower_source(TOWER), &mut types);
        let _ = elaborate_compiled(&tower_i, &mut types);
        b.iter(|| {
            black_box(elaborate_compiled(black_box(&tower_i), &mut types).expect("elaborates"))
        })
    });
    // The same compiled pass on the 16-program batch, against the
    // `elaborate_batch16/tree` row above.
    group.bench_function("elaborate_batch16/compiled_warm", |b| {
        let mut types = TypeArena::new();
        let exprs_i: Vec<_> = (0..BATCH as i64)
            .map(|i| parse_source_in(&boundary_source(32 + i), &mut types))
            .collect();
        for e in &exprs_i {
            let _ = elaborate_compiled(e, &mut types).expect("elaborates");
        }
        b.iter(|| {
            for e in &exprs_i {
                black_box(elaborate_compiled(black_box(e), &mut types).expect("elaborates"));
            }
        })
    });

    let sources = [
        wrapper_tower_source(TOWER),
        call_heavy_source(CALL_DEPTH, CALLS),
    ];
    group.bench_function("lex_parse/tree", |b| {
        b.iter(|| {
            for s in &sources {
                let tokens = lex(black_box(s)).expect("lexes");
                black_box(parse(&tokens).expect("parses"));
            }
        })
    });
    group.bench_function("lex_parse/interned", |b| {
        let mut types = TypeArena::new();
        b.iter(|| {
            for s in &sources {
                let tokens = lex(black_box(s)).expect("lexes");
                black_box(parse_in(&tokens, &mut types).expect("parses"));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_frontend);
criterion_main!(benches);
