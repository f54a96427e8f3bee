//! Checks that make the benchmark's counts citable and its inputs
//! comparable across seeds. Run with `cargo test --release`: the
//! exact-count check needs each traced loop to reach its count window
//! within two seconds.

use std::collections::BTreeMap;

use blame_coercion::{Engine, Session};
use perfbench::gen::{self, Expect, CAST_FRAME_BOUND};
use perfbench::{run, Workload};

/// The counts the traced run reports over its fixed count window.
const EXACT: [&str; 10] = [
    "gtlc.type_nodes_new_per_op",
    "core.coercion_nodes_new_per_op",
    "core.compose_misses_per_op",
    "machine.machine_s.steps_per_op",
    "machine.machine_b.steps_per_op",
    "machine.machine_c.steps_per_op",
    "machine.lambda_s.steps_per_op",
    "machine.machine_s.peak_cast_frames",
    "session.tree_builds",
    "trace.count_window_ops",
];

fn counts(workload: Workload, seed: u64) -> BTreeMap<&'static str, f64> {
    let outcome = run(workload, seed, 4.0, true);
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    EXACT.iter().map(|&m| (m, outcome.metrics[m])).collect()
}

#[test]
fn counts_repeat_exactly_on_one_seed() {
    for (workload, window) in [
        (
            Workload::CompileHeavy,
            perfbench::compile_heavy::COUNT_WINDOW,
        ),
        (Workload::RunHeavy, perfbench::run_heavy::COUNT_WINDOW),
    ] {
        let first = counts(workload, 7);
        assert_eq!(
            first["trace.count_window_ops"], window as f64,
            "{workload:?} did not reach its count window; run with --release"
        );
        assert_eq!(first, counts(workload, 7), "{workload:?}");
    }
}

/// The λS machine's coercion-frame peak must not grow with the number
/// of boundary crossings: the same program at loop bounds three orders
/// of magnitude apart peaks at the same count, within the bound.
#[test]
fn cast_frames_do_not_grow_with_the_loop_bound() {
    let shapes: [fn(u64) -> gen::Case; 4] =
        [gen::boundary_loop, gen::static_loop, gen::even_odd, |n| {
            gen::twice_loop(3, n)
        }];
    let session = Session::new();
    for shape in shapes {
        let peaks: Vec<usize> = [8, 8000]
            .into_iter()
            .map(|n| {
                let case = shape(n);
                let program = session.compile(&case.source).expect("compiles");
                let report = session.run(&program, Engine::MachineS).expect("terminates");
                report.metrics.expect("machine run").peak_cast_frames
            })
            .collect();
        assert_eq!(peaks[0], peaks[1], "{}", shape(8).source);
        assert!(peaks[0] <= CAST_FRAME_BOUND);
    }
}

/// How many inputs expect each kind of verdict.
fn mix(expects: impl IntoIterator<Item = Expect>) -> BTreeMap<String, usize> {
    let mut mix = BTreeMap::new();
    for e in expects {
        let kind = match e {
            Expect::Bool(b) => format!("Bool({b})"),
            Expect::Int(_) => "Int".to_owned(),
            other => format!("{other:?}"),
        };
        *mix.entry(kind).or_insert(0) += 1;
    }
    mix
}

/// A held-out seed must exercise the same verdicts in the same
/// proportions, so a claim made on one seed can be checked on another.
#[test]
fn a_second_seed_gives_the_same_verdict_mix() {
    let corpus = |seed| mix(gen::compile_corpus(seed).into_iter().map(|c| c.expect));
    assert_eq!(corpus(1), corpus(2));
    let programs = |seed| {
        mix(perfbench::run_heavy::cases(seed)
            .into_iter()
            .map(|c| c.expect))
    };
    assert_eq!(programs(1), programs(2));
    let traffic = |seed| {
        let sources = bc_testkit::sources::mixed(seed, 600)
            .into_iter()
            .chain(bc_testkit::sources::drifting(seed, 200, 50));
        mix(sources.map(|s| gen::expect_testkit(&s).expect("known shape")))
    };
    assert_eq!(traffic(1), traffic(2));
}
