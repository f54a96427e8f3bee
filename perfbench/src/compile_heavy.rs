//! `compile_heavy`: source to verdict in one long-lived session.
//!
//! One caller drives one `Session` with no base. Each op compiles a
//! source and runs it on the λS machine. Sources cycle through a
//! seeded corpus of annotation-heavy programs (call-heavy types,
//! wrapper towers, phase casts), and every fourth op instead carries a
//! fresh type the session has never interned, so arena writes stay a
//! steady share beside hits. Every program runs in under 100 steps:
//! the front end and lowering dominate each op.

use std::time::{Duration, Instant};

use blame_coercion::core::arena::{CoercionArena, ComposeCache};
use blame_coercion::gtlc::{elaborate_compiled, lexer, parser};
use blame_coercion::lambda_c::CArena;
use blame_coercion::machine::cek_s;
use blame_coercion::syntax::TypeArena;
use blame_coercion::translate::{term_b_to_c_compiled, term_c_to_s_from_compiled, CNormalizer};
use blame_coercion::{Engine, Session, SessionStats};

use crate::gen::{self, Case};
use crate::report::{ratio, Metrics};
use crate::stats;
use crate::trace::Tracer;
use crate::{closed_loop, LoopResult, Traced};

/// Ops over which the traced run takes its exact counts.
pub const COUNT_WINDOW: u64 = 4000;
/// The replay's front-end and lowering spans, each with the metric
/// reporting its mean time.
const STAGES: [(&str, &str); 5] = [
    ("gtlc.lex", "gtlc.lex_us"),
    ("gtlc.parse", "gtlc.parse_us"),
    ("gtlc.elaborate", "gtlc.elaborate_us"),
    ("translate.b_to_c", "translate.b_to_c_us"),
    ("translate.c_to_s", "translate.c_to_s_us"),
];
/// The session's spans, each with the metric reporting its mean time.
const SESSION_SPANS: [(&str, &str); 2] = [
    ("session.compile", "session.compile_us"),
    ("session.run", "session.run_us"),
];
/// Ops after which the untraced loop reads the peak resident set.
pub const RSS_AT_OPS: u64 = 48_000;
/// Ops whose full spans the trace file keeps.
const KEEP_OPS: u64 = 2000;

/// A warm session and the corpus it serves.
pub struct State {
    session: Session,
    corpus: Vec<Case>,
}

/// Builds the session and warms it by compiling and running the corpus
/// once.
///
/// # Panics
///
/// Panics if a corpus source fails to compile, which is a bug in the
/// generator.
pub fn setup(seed: u64) -> State {
    let session = Session::new();
    let corpus = gen::compile_corpus(seed);
    for case in &corpus {
        let program = session
            .compile(&case.source)
            .unwrap_or_else(|d| panic!("corpus source fails to compile: {}", d.message));
        let _ = session.run(&program, Engine::MachineS);
    }
    State { session, corpus }
}

/// The source of op `i`: every fourth op a fresh type, the rest the
/// corpus in order.
fn case(state: &State, i: u64) -> Case {
    if i % 4 == 3 {
        gen::fresh_cast(i / 4, (i % 97) as i64 + 1)
    } else {
        state.corpus[((i - i / 4) % state.corpus.len() as u64) as usize].clone()
    }
}

/// Ops per pass over the corpus, fresh ops included.
fn period(state: &State) -> usize {
    state.corpus.len() * 4 / 3
}

/// Compiles and runs one case through the session.
fn session_op(session: &Session, case: &Case) -> Result<blame_coercion::RunReport, String> {
    let program = session
        .compile(&case.source)
        .map_err(|d| format!("compile error: {}", d.message))?;
    let result = session.run(&program, Engine::MachineS);
    gen::check_run(case.expect, &result, session.default_fuel(), true)?;
    result.map_err(|e| e.to_string())
}

/// The untraced loop.
///
/// The session grows with every fresh type, so the peak resident set is
/// read after a fixed [`RSS_AT_OPS`] ops rather than at the end of the
/// window: a faster build must not read as a bigger one.
pub fn measure(state: &mut State, seconds: f64) -> LoopResult {
    let mut rss = None;
    let mut result = closed_loop(seconds, period(state), |i| {
        if i == RSS_AT_OPS {
            rss = stats::peak_rss_mb();
        }
        let case = case(state, i);
        let start = Instant::now();
        let result = session_op(&state.session, &case);
        (start.elapsed(), result.map(drop))
    });
    result.peak_rss_mb = rss;
    result
}

/// The benchmark's own copy of the session's state, driven stage by
/// stage through the layer crates in the order `Session::compile` and
/// its lowering call them, so each stage can carry its own span.
struct Stages {
    types: TypeArena,
    carena: CArena,
    normalizer: CNormalizer,
    arena: CoercionArena,
    cache: ComposeCache,
}

impl Stages {
    fn new() -> Stages {
        Stages {
            types: TypeArena::new(),
            carena: CArena::new(),
            normalizer: CNormalizer::new(),
            arena: CoercionArena::new(),
            cache: ComposeCache::new(),
        }
    }

    /// Compiles and runs `case` stage by stage under spans, returning
    /// the token count and machine steps.
    fn replay(&mut self, case: &Case, fuel: u64, tr: &mut Tracer) -> Result<(usize, u64), String> {
        let tokens = tr
            .span("gtlc.lex", || lexer::lex(&case.source))
            .map_err(|d| d.message)?;
        let expr = tr
            .span("gtlc.parse", || parser::parse_in(&tokens, &mut self.types))
            .map_err(|d| d.message)?;
        let program = tr
            .span("gtlc.elaborate", || {
                elaborate_compiled(&expr, &mut self.types)
            })
            .map_err(|d| d.message)?;
        let c = tr.span("translate.b_to_c", || {
            term_b_to_c_compiled(&program.term, &mut self.carena, &mut self.types)
        });
        let s = tr.span("translate.c_to_s", || {
            term_c_to_s_from_compiled(
                &c,
                &self.carena,
                &mut self.normalizer,
                &mut self.arena,
                &mut self.cache,
                &self.types,
            )
        });
        let run = tr.span("machine.machine_s", || {
            cek_s::run_compiled_in(&s, &mut self.arena, &mut self.cache, fuel)
        });
        gen::check_machine(case.expect, &run, fuel)?;
        Ok((tokens.len(), run.metrics.steps))
    }
}

/// The traced loop: each op runs through the session under
/// `session.compile` / `session.run` spans (whose stages the session
/// hides), then replays stage by stage on [`Stages`] under one span per
/// layer call. The replay sees the same sources in the same order as
/// the session, so it interns and memoizes the same work.
pub fn traced(state: &mut State, seconds: f64) -> Traced {
    let mut tr = Tracer::new(KEEP_OPS);
    let mut stages = Stages::new();
    // Warm the replay's arenas as set-up warmed the session's.
    let fuel = state.session.default_fuel();
    for case in &state.corpus {
        let _ = stages.replay(case, fuel, &mut Tracer::new(0));
    }
    let before = state.session.stats();
    let mut window_end: Option<SessionStats> = None;
    let (mut tokens, mut steps, mut window_steps, mut peak_frames) = (0u64, 0u64, 0u64, 0usize);
    let result = closed_loop(seconds, period(state), |i| {
        if i == COUNT_WINDOW {
            window_end = Some(state.session.stats());
        }
        let case = case(state, i);
        tr.set_op(i);
        tr.begin("bench.op");
        tr.begin("session.compile");
        let program = state.session.compile(&case.source);
        tr.end();
        tr.begin("session.run");
        let run = program
            .as_ref()
            .map(|p| state.session.run(p, Engine::MachineS));
        tr.end();
        let latency = Duration::from_nanos(tr.end());
        let verdict = match &run {
            Ok(r) => gen::check_run(case.expect, r, fuel, true),
            Err(d) => Err(format!("compile error: {}", d.message)),
        };
        if let Ok(Ok(r)) = &run {
            if i < COUNT_WINDOW {
                window_steps += r.steps;
                peak_frames = peak_frames.max(r.metrics.as_ref().map_or(0, |m| m.peak_cast_frames));
            }
        }
        tr.begin("bench.replay");
        let replay = stages.replay(&case, fuel, &mut tr);
        tr.end();
        let verdict = verdict.and(replay.map(|(t, s)| {
            tokens += t as u64;
            steps += s;
        }));
        (latency, verdict)
    });
    let after = state.session.stats();
    let window = window_end.unwrap_or(after);
    let ops = result.attempted as f64;
    let window_ops = result.attempted.min(COUNT_WINDOW) as f64;
    let mean_us = |name: &str| {
        let t = tr.total(name);
        ratio(t.total_ns as f64, t.count as f64) / 1e3
    };
    let mut m = Metrics::new();
    for (span, metric) in STAGES.iter().chain(&SESSION_SPANS) {
        m.insert(metric, mean_us(span));
    }
    m.insert("gtlc.tokens_per_op", ratio(tokens as f64, ops));
    m.insert(
        "gtlc.type_nodes_new_per_op",
        ratio((window.type_nodes - before.type_nodes) as f64, window_ops),
    );
    let norm_hits = after.normalizer.hits - before.normalizer.hits;
    let norm_misses = after.normalizer.misses - before.normalizer.misses;
    m.insert(
        "translate.normalizer_hit_ratio",
        ratio(norm_hits as f64, (norm_hits + norm_misses) as f64),
    );
    let hits = after.compose.hits - before.compose.hits;
    let misses = after.compose.misses - before.compose.misses;
    m.insert(
        "core.compose_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.insert(
        "core.compose_misses_per_op",
        ratio(
            (window.compose.misses - before.compose.misses) as f64,
            window_ops,
        ),
    );
    m.insert(
        "core.coercion_nodes_new_per_op",
        ratio(
            (window.coercions.nodes - before.coercions.nodes) as f64,
            window_ops,
        ),
    );
    let machine = tr.total("machine.machine_s");
    m.insert(
        "machine.machine_s.ns_per_step",
        ratio(machine.total_ns as f64, steps as f64),
    );
    m.insert(
        "machine.machine_s.steps_per_op",
        ratio(window_steps as f64, window_ops),
    );
    m.insert("machine.machine_s.peak_cast_frames", peak_frames as f64);
    // The session's own work: its spans minus the stages it hides.
    let staged: u64 = STAGES
        .iter()
        .map(|(span, _)| tr.total(span).total_ns)
        .sum::<u64>()
        + machine.total_ns;
    let session_ns: u64 = SESSION_SPANS
        .iter()
        .map(|(span, _)| tr.total(span).total_ns)
        .sum();
    m.insert(
        "session.self_us",
        ratio(session_ns as f64 - staged as f64, ops) / 1e3,
    );
    m.insert(
        "session.tree_builds",
        (after.tree_builds - before.tree_builds) as f64,
    );
    m.insert("trace.count_window_ops", window_ops);
    Traced {
        result,
        metrics: m,
        tracer: tr,
    }
}
