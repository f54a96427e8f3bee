//! `run_heavy`: long machine runs of programs compiled in set-up.
//!
//! Set-up compiles four shapes at seeded loop bounds in the low
//! thousands — the boundary loop, the static loop, even/odd and the
//! iterated `twice` combinator — and warms each on the λS machine.
//! Each op is one `Session::run` of a seeded pick on a seeded rotation
//! of the four servable engines, so the machines, where the paper's
//! space claim lives, carry the load and the front end does no work.

use std::time::{Duration, Instant};

use blame_coercion::{Engine, Program, RunError, RunReport, Session};

use crate::gen::{self, Case, Rng};
use crate::report::{ratio, Metrics};
use crate::trace::Tracer;
use crate::{closed_loop, LoopResult, Traced};

/// Loop bounds per shape.
const BOUNDS: u64 = 8;
/// Ops over which the traced run takes its exact counts.
pub const COUNT_WINDOW: u64 = 400;
/// Ops whose full spans the trace file keeps.
const KEEP_OPS: u64 = 2000;

/// A servable engine with its span and metric names, its rotation
/// weight, and whether it runs the programs at a third of their loop
/// bounds.
pub struct EngineSpec {
    engine: Engine,
    span: &'static str,
    ns_per_step: &'static str,
    steps_per_op: &'static str,
    weight: u64,
    short: bool,
}

/// The four servable engines. The λS small-step runs the programs at a
/// third of their loop bounds, since it takes several times longer per
/// iteration than the machines, so every op lasts a few milliseconds.
/// The λS machine is the fastest per step, so it gets the most ops: it
/// carries about half the machine time.
pub const ENGINES: [EngineSpec; 4] = [
    EngineSpec {
        engine: Engine::MachineS,
        span: "machine.machine_s",
        ns_per_step: "machine.machine_s.ns_per_step",
        steps_per_op: "machine.machine_s.steps_per_op",
        weight: 7,
        short: false,
    },
    EngineSpec {
        engine: Engine::MachineB,
        span: "machine.machine_b",
        ns_per_step: "machine.machine_b.ns_per_step",
        steps_per_op: "machine.machine_b.steps_per_op",
        weight: 2,
        short: false,
    },
    EngineSpec {
        engine: Engine::MachineC,
        span: "machine.machine_c",
        ns_per_step: "machine.machine_c.ns_per_step",
        steps_per_op: "machine.machine_c.steps_per_op",
        weight: 2,
        short: false,
    },
    EngineSpec {
        engine: Engine::LambdaS,
        span: "machine.lambda_s",
        ns_per_step: "machine.lambda_s.ns_per_step",
        steps_per_op: "machine.lambda_s.steps_per_op",
        weight: 2,
        short: true,
    },
];

/// The session and its compiled programs: the full-length ones, then
/// the same ones at a third of their loop bounds.
pub struct State {
    session: Session,
    programs: Vec<(Program, Case)>,
    seed: u64,
}

/// The workload's programs for `seed`: the full-length ones, then the
/// same shapes and constants at a third of their loop bounds.
pub fn cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 2);
    let boundary = gen::spread(&mut rng, 1000, 4000, BOUNDS);
    let fixed = gen::spread(&mut rng, 1000, 4000, BOUNDS);
    let parity = gen::spread(&mut rng, 2000, 8000, BOUNDS);
    let twice: Vec<(u64, u64)> = gen::spread(&mut rng, 250, 1000, BOUNDS)
        .into_iter()
        .map(|n| (rng.range(1, 9), n))
        .collect();
    let mut cases = Vec::new();
    for divisor in [1, 3] {
        cases.extend(boundary.iter().map(|n| gen::boundary_loop(n / divisor)));
        cases.extend(fixed.iter().map(|n| gen::static_loop(n / divisor)));
        // Alternate parities, so every seed has as many `false` as
        // `true` verdicts.
        cases.extend(
            parity
                .iter()
                .enumerate()
                .map(|(j, n)| gen::even_odd(n / divisor / 2 * 2 + j as u64 % 2)),
        );
        cases.extend(twice.iter().map(|&(k, n)| gen::twice_loop(k, n / divisor)));
    }
    cases
}

/// Compiles the programs and runs each once on the λS machine.
///
/// # Panics
///
/// Panics if a program fails to compile, which is a bug in the
/// generator.
pub fn setup(seed: u64) -> State {
    let session = Session::new();
    let programs = cases(seed)
        .into_iter()
        .map(|case| {
            let program = session
                .compile(&case.source)
                .unwrap_or_else(|d| panic!("program fails to compile: {}", d.message));
            let _ = session.run(&program, Engine::MachineS);
            (program, case)
        })
        .collect();
    State {
        session,
        programs,
        seed,
    }
}

/// The op schedule: a deck holding every program once per unit of
/// engine weight, reshuffled each pass, so every pass runs the same
/// mix in a seeded order.
struct Schedule {
    rng: Rng,
    deck: Vec<(usize, usize)>,
    next: usize,
}

impl Schedule {
    fn new(seed: u64, programs: usize) -> Schedule {
        let full = programs / 2;
        let mut deck = Vec::new();
        for p in 0..full {
            for (e, spec) in ENGINES.iter().enumerate() {
                let program = if spec.short { full + p } else { p };
                deck.extend((0..spec.weight).map(|_| (program, e)));
            }
        }
        Schedule {
            rng: Rng::new(seed, 3),
            next: deck.len(),
            deck,
        }
    }

    /// The next (program, engine) pair.
    fn next(&mut self) -> (usize, usize) {
        if self.next == self.deck.len() {
            gen::shuffle(&mut self.deck, &mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        self.deck[self.next - 1]
    }
}

fn verdict(
    state: &State,
    case: &Case,
    engine: usize,
    r: &Result<RunReport, RunError>,
) -> Result<(), String> {
    gen::check_run(
        case.expect,
        r,
        state.session.default_fuel(),
        ENGINES[engine].engine == Engine::MachineS,
    )
    .map_err(|why| format!("{} on {}: {why}", ENGINES[engine].span, case.source))
}

/// The untraced loop.
pub fn measure(state: &mut State, seconds: f64) -> LoopResult {
    let mut schedule = Schedule::new(state.seed, state.programs.len());
    closed_loop(seconds, schedule.deck.len(), |_| {
        let (p, e) = schedule.next();
        let (program, case) = &state.programs[p];
        let start = Instant::now();
        let r = state.session.run(program, ENGINES[e].engine);
        let latency = start.elapsed();
        (latency, verdict(state, case, e, &r))
    })
}

/// The traced loop: each op's `Session::run` under a `session.run`
/// span, with the engine's own execution time (the report's `elapsed`)
/// as its `machine.<engine>` child.
pub fn traced(state: &mut State, seconds: f64) -> Traced {
    let mut tr = Tracer::new(KEEP_OPS);
    let mut schedule = Schedule::new(state.seed, state.programs.len());
    let period = schedule.deck.len();
    let before = state.session.stats();
    let mut window_end = None;
    let mut exec_ns = [0u64; 4];
    let mut steps = [0u64; 4];
    let mut window_steps = [0u64; 4];
    let mut window_runs = [0u64; 4];
    let mut peak_frames = 0usize;
    let mut tree_builds = 0u64;
    let result = closed_loop(seconds, period, |i| {
        if i == COUNT_WINDOW {
            window_end = Some(state.session.stats());
        }
        let (p, e) = schedule.next();
        let (program, case) = &state.programs[p];
        let engine = ENGINES[e].engine;
        let compiled_engine = matches!(engine, Engine::MachineS | Engine::LambdaS);
        let builds = compiled_engine.then(|| state.session.stats().tree_builds);
        tr.set_op(i);
        tr.begin("bench.op");
        tr.begin("session.run");
        let r = state.session.run(program, engine);
        if let Ok(report) = &r {
            let ns = report.elapsed.as_nanos() as u64;
            tr.child(ENGINES[e].span, ns);
            exec_ns[e] += ns;
            steps[e] += report.steps;
            if i < COUNT_WINDOW {
                window_steps[e] += report.steps;
                window_runs[e] += 1;
                if engine == Engine::MachineS {
                    let frames = report.metrics.as_ref().map_or(0, |m| m.peak_cast_frames);
                    peak_frames = peak_frames.max(frames);
                }
            }
        }
        tr.end();
        let latency = Duration::from_nanos(tr.end());
        if let Some(b) = builds {
            tree_builds += state.session.stats().tree_builds - b;
        }
        (latency, verdict(state, case, e, &r))
    });
    let after = state.session.stats();
    let window = window_end.unwrap_or(after);
    let window_ops = result.attempted.min(COUNT_WINDOW) as f64;
    let mut m = Metrics::new();
    for (e, spec) in ENGINES.iter().enumerate() {
        m.insert(spec.ns_per_step, ratio(exec_ns[e] as f64, steps[e] as f64));
        m.insert(
            spec.steps_per_op,
            ratio(window_steps[e] as f64, window_runs[e] as f64),
        );
    }
    m.insert("machine.machine_s.peak_cast_frames", peak_frames as f64);
    let run = tr.total("session.run");
    let machine: u64 = ENGINES.iter().map(|s| tr.total(s.span).total_ns).sum();
    m.insert(
        "session.run_us",
        ratio(run.total_ns as f64, run.count as f64) / 1e3,
    );
    m.insert(
        "session.self_us",
        ratio(run.total_ns as f64 - machine as f64, run.count as f64) / 1e3,
    );
    m.insert("session.tree_builds", tree_builds as f64);
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
    m.insert(
        "gtlc.type_nodes_new_per_op",
        ratio((window.type_nodes - before.type_nodes) as f64, window_ops),
    );
    m.insert("trace.count_window_ops", window_ops);
    Traced {
        result,
        metrics: m,
        tracer: tr,
    }
}
