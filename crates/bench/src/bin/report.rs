//! Regenerates the measurement tables recorded in EXPERIMENTS.md, and
//! emits the machine-readable `BENCH_10.json` (per-bench medians,
//! including the end-to-end compile+run, pool-throughput, drift,
//! promotion-cost, tier-overhead, scheduler-fairness, and
//! observability-overhead numbers) alongside the human output. CI
//! diffs the two highest-numbered checked-in `BENCH_*.json` files
//! with the `bench_diff` binary and fails on >25% regression of any
//! shared timing key.
//!
//! ```sh
//! cargo run -p bc-bench --bin report --release
//! ```
//!
//! Naming tables runs only those, in the order of the full run, and
//! writes no JSON (a subset would overwrite the BENCH file with a
//! partial key set):
//!
//! ```sh
//! cargo run --release -p bc-bench --bin report -- e29 e23
//! ```

use std::sync::Arc;
use std::time::Instant;

use bc_baselines::{naive, threesome};
use bc_bench::{
    boundary_source, call_heavy_source, composable_batch, parse_source, parse_source_in,
    wrapper_tower_source,
};
use bc_core::compose::compose;
use bc_core::{CoercionArena, CompileCtx, ComposeCache};
use bc_gtlc::{elaborate, elaborate_compiled};
use bc_lambda_b::programs;
use bc_lambda_b::typing::{type_of, type_of_interned};
use bc_machine::{cek_b, cek_c, cek_s};
use bc_syntax::TypeArena;
use bc_testkit::sources;
use bc_translate::bisim::{aligned_cs, lockstep_bc};
use bc_translate::{term_b_to_c, term_c_to_s};
use blame_coercion::{Engine, PromotionPolicy, Session, SessionPool};

/// Collected `(key, value)` measurements for the JSON report.
type Metrics = Vec<(String, f64)>;

/// An experiment table: prints itself and pushes its BENCH keys.
type Table = fn(&mut Metrics);

/// Every table, by its name on the command line, in run order.
const TABLES: [(&str, Table); 14] = [
    ("e15", space_table),
    ("e16", compose_table),
    ("e10", steps_table),
    ("e11", height_table),
    ("e21", frontend_table),
    ("e22", capacity_table),
    ("e20", end_to_end_table),
    ("e25", compile_run_table),
    ("e23", pool_table),
    ("e26", drift_table),
    ("e28", promotion_cost_table),
    ("e27", fairness_table),
    ("e24", tier_table),
    ("e29", obs_table),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    if let Some(unknown) = names.iter().find(|n| TABLES.iter().all(|(t, _)| t != n)) {
        let known: Vec<&str> = TABLES.iter().map(|(t, _)| *t).collect();
        eprintln!("unknown table `{unknown}`; tables: {}", known.join(" "));
        std::process::exit(2);
    }
    let mut metrics = Metrics::new();
    for (name, table) in TABLES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            table(&mut metrics);
        }
    }
    if names.is_empty() {
        write_json("BENCH_10.json", &metrics);
    }
}

/// Median wall-clock of `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Writes the collected medians as a flat JSON object (hand-rolled:
/// the container is offline, so no serde).
fn write_json(path: &str, metrics: &Metrics) {
    let mut out = String::from("{\n");
    for (i, (key, value)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("  \"{key}\": {value:.1}{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::write(path, out).expect("write bench json");
    println!("wrote {path}");
}

/// E25: the whole pipeline per verdict — `Session::compile` (lex,
/// parse-and-intern, elaborate to the compiled λB IR, lower to the
/// compiled λS IR) *plus* the run, source to verdict. `cold` builds a
/// fresh session per iteration and pays the interning bill; `warm`
/// recompiles a structurally similar source (different loop bound)
/// into one warm session — the allocation-free path: zero type or
/// coercion interns, zero `|·|CS` normalisations, zero `Rc` term
/// trees, verified by the session's own counters after timing.
fn compile_run_table(metrics: &mut Metrics) {
    println!("## E25 — end-to-end compile+run (source → verdict, n = 64)");
    println!();
    println!("| engine | cold session | warm session |");
    println!("|--------|--------------|--------------|");
    const REPS: usize = 21;
    for (slug, engine) in [
        ("machine_s", Engine::MachineS),
        ("lambda_s", Engine::LambdaS),
    ] {
        let cold = median_ns(REPS, || {
            let session = Session::builder().default_fuel(u64::MAX).build();
            let program = session.compile(&boundary_source(64)).expect("compiles");
            std::hint::black_box(session.run(&program, engine).expect("terminates"));
        });
        let session = Session::builder().default_fuel(u64::MAX).build();
        let seed = session.compile(&boundary_source(64)).expect("compiles");
        session.run(&seed, engine).expect("terminates");
        let warm_stats = session.stats();
        let mut bound = 64i64;
        let warm = median_ns(REPS, || {
            bound = 57 + (bound + 1) % 16; // similar shape, fresh constant
            let program = session.compile(&boundary_source(bound)).expect("compiles");
            std::hint::black_box(session.run(&program, engine).expect("terminates"));
        });
        let after = session.stats();
        assert_eq!(after.tree_builds, 0, "warm path built a term tree");
        assert_eq!(
            after.coercions.nodes, warm_stats.coercions.nodes,
            "warm path interned coercions"
        );
        assert_eq!(
            after.type_nodes, warm_stats.type_nodes,
            "warm path interned types"
        );
        println!("| {engine} | {:.1} µs | {:.1} µs |", cold / 1e3, warm / 1e3);
        metrics.push((format!("compile_run/{slug}/cold_ns"), cold));
        metrics.push((format!("compile_run/{slug}/warm_ns"), warm));
    }
    println!();
}

/// E23: `SessionPool` throughput on the 256-program mixed workload —
/// worker-count series over one warmed frozen base, plus the
/// cold-vs-warmed pool lifecycle. The worker series only shows
/// wall-clock speedup when the machine has cores to give
/// (`pool/available_parallelism` is recorded so the series is
/// interpretable: on a 1-core container the workers time-slice and
/// the 4-worker row measures queueing overhead, not parallelism).
fn pool_table(metrics: &mut Metrics) {
    println!("## E23 — SessionPool throughput (256-program mixed workload)");
    println!();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available parallelism: {cores} core(s)");
    println!();
    metrics.push(("pool/available_parallelism".into(), cores as f64));
    let batch = sources::mixed(42, 256);
    const FUEL: u64 = 5_000;

    println!("| workers | batch ms | jobs/s |");
    println!("|---------|----------|--------|");
    let mut worker_medians = Vec::new();
    for workers in [1usize, 2, 4] {
        let pool = SessionPool::builder()
            .workers(workers)
            .default_fuel(FUEL)
            .warmup(sources::shapes())
            .build()
            .expect("warmup compiles");
        let median = median_ns(9, || {
            let handles: Vec<_> = batch
                .iter()
                .map(|s| pool.submit(s.as_str(), Engine::MachineS))
                .collect();
            for handle in handles {
                let _ = std::hint::black_box(handle.wait());
            }
        });
        println!(
            "| {workers} | {:.1} | {:.0} |",
            median / 1e6,
            batch.len() as f64 / (median / 1e9)
        );
        metrics.push((format!("pool/mixed256/workers{workers}_ns"), median));
        worker_medians.push((workers, median));
        let stats = pool.shutdown();
        assert_eq!(stats.local_coercion_nodes(), 0, "warmed pool re-interned");
    }
    if let (Some((_, t1)), Some((_, t4))) = (worker_medians.first(), worker_medians.last()) {
        println!();
        println!("speedup 4 workers over 1: {:.2}×", t1 / t4);
        metrics.push(("pool/mixed256/speedup_4_over_1".into(), t1 / t4));
    }

    // The warmed lifecycle warms on the *actual* 64-job sources
    // (deduplicated), so every submission auto-upgrades to a
    // pre-compiled job: workers never lex, parse, or elaborate —
    // warmup's compile work is what serves the batch. (Warming on
    // `sources::shapes()` alone shares arenas but still re-parsed
    // every job, which is how the warmed lifecycle used to come out
    // *slower* than cold.)
    let mut warmup_sources: Vec<String> = batch.iter().take(64).cloned().collect();
    warmup_sources.sort();
    warmup_sources.dedup();
    let run_lifecycle = |warmed: bool| -> f64 {
        let t0 = Instant::now();
        let mut builder = SessionPool::builder().workers(4).default_fuel(FUEL);
        if warmed {
            builder = builder.warmup(warmup_sources.iter().cloned());
        }
        let pool = builder.build().expect("builds");
        for handle in pool.submit_batch(batch.iter().take(64).map(String::as_str), Engine::MachineS)
        {
            let _ = std::hint::black_box(handle.wait());
        }
        t0.elapsed().as_nanos() as f64
    };
    // Paired reps: each rep times one cold and one warmed lifecycle
    // back-to-back (alternating order) and contributes their ratio, so
    // machine drift between measurements lands on both sides of every
    // pair instead of splitting cleanly between a cold block and a
    // warmed block — the estimator E29 uses, for the same reason.
    let mut colds = Vec::new();
    let mut warmeds = Vec::new();
    let mut lifecycle_ratios = Vec::new();
    for rep in 0..13 {
        let (cold, warmed) = if rep % 2 == 0 {
            let cold = run_lifecycle(false);
            (cold, run_lifecycle(true))
        } else {
            let warmed = run_lifecycle(true);
            (run_lifecycle(false), warmed)
        };
        colds.push(cold);
        warmeds.push(warmed);
        lifecycle_ratios.push(warmed / cold);
    }
    let cold = median_of(colds);
    let warmed = median_of(warmeds);
    let lifecycle_ratio = median_of(lifecycle_ratios);
    println!();
    println!(
        "pool lifecycle (build + 64 jobs + shutdown): cold {:.1} ms, warmed {:.1} ms \
         (paired warmed/cold ratio {lifecycle_ratio:.2})",
        cold / 1e6,
        warmed / 1e6
    );
    // Parity within noise is the bar, not strict dominance: the batch
    // is run-dominated (5 000 fuel per job), so the warmed savings —
    // no per-worker front end, no re-lowering, shared base — show up
    // as warmed ≈ cold instead of the former +13% inversion. The 10%
    // band trips on systematic regressions (warmup burning job fuel
    // at build, workers re-lowering compiled jobs) without flaking on
    // scheduler jitter; `tests/pool.rs` carries the same guard.
    assert!(
        lifecycle_ratio <= 1.10,
        "regression: the warmed pool lifecycle (median {warmed:.0} ns) must not be slower than \
         cold (median {cold:.0} ns, paired ratio {lifecycle_ratio:.2}) — compiled jobs skip the \
         whole front end"
    );
    metrics.push(("pool/lifecycle64/cold_ns".into(), cold));
    metrics.push(("pool/lifecycle64/warmed_ns".into(), warmed));
    println!();
}

/// E29: what always-on observability costs the serving path. Two
/// warmed 4-worker pools serve the identical 256-job mixed batch —
/// one fully instrumented (outcome counters, latency and queue-wait
/// histograms, audit ring), one built with `no_observability()` — with
/// reps interleaved so clock drift and scheduler noise land on both
/// sides equally. The job path only ever touches wait-free cells
/// (counter/histogram `fetch_add`s) plus the audit ring's short push
/// mutex, so the budget is tight: the in-table assert fails the run if
/// instrumented serving costs more than 2% over bare.
///
/// The overhead estimator is the median of per-rep *paired* ratios
/// over *fresh pool pairs*: each rep builds a new instrumented and a
/// new bare pool (alternating construction order), warms both, then
/// times the two batches back-to-back inside one ~25 ms window.
/// Pairing cancels machine drift (frequency scaling, neighbours on a
/// shared container); rebuilding per rep turns pool-instance luck —
/// thread placement and allocator layout bias a single long-lived
/// pool's serving rate by up to ±14% on this container, in either
/// direction — into zero-median noise across reps. The median over
/// 31 independent pairs is what the gate judges. The pools are sized
/// to the machine (workers = available cores, capped at 4):
/// oversubscribing a small container buries the per-job signal in
/// cross-thread context-switch churn that belongs to the OS, not the
/// instruments.
fn obs_table(metrics: &mut Metrics) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    println!("## E29 — observability overhead (256-job mixed batch, {workers} worker(s))");
    println!();
    let batch = sources::mixed(42, 256);
    const FUEL: u64 = 5_000;
    const REPS: usize = 41;
    let build = |instrumented: bool| {
        let mut builder = SessionPool::builder()
            .workers(workers)
            .default_fuel(FUEL)
            .warmup(sources::shapes());
        if !instrumented {
            builder = builder.no_observability();
        }
        builder.build().expect("warmup compiles")
    };
    let serve = |pool: &SessionPool| {
        let handles: Vec<_> = batch
            .iter()
            .map(|s| pool.submit(s.as_str(), Engine::MachineS))
            .collect();
        for handle in handles {
            let _ = std::hint::black_box(handle.wait());
        }
    };
    let mut instrumented_ns: Vec<f64> = Vec::with_capacity(REPS);
    let mut bare_ns: Vec<f64> = Vec::with_capacity(REPS);
    let mut ratios: Vec<f64> = Vec::with_capacity(REPS);
    let mut audited = 0u64;
    let mut total_jobs = 0u64;
    for rep in 0..REPS {
        // Fresh instance pair, alternating construction order.
        let (instrumented, bare) = if rep % 2 == 0 {
            (build(true), build(false))
        } else {
            let bare = build(false);
            (build(true), bare)
        };
        // One unmeasured pass each to warm caches and worker threads,
        // then the timed back-to-back pair.
        serve(&instrumented);
        serve(&bare);
        let t0 = Instant::now();
        serve(&instrumented);
        let inst_rep = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        serve(&bare);
        let bare_rep = t0.elapsed().as_nanos() as f64;
        instrumented_ns.push(inst_rep);
        bare_ns.push(bare_rep);
        ratios.push(inst_rep / bare_rep);
        // Each instance audited everything it served: one latency
        // sample per job, exactly.
        let latency_count = instrumented
            .metrics_text()
            .lines()
            .find_map(|l| l.strip_prefix("bc_job_latency_ns_count "))
            .expect("exposition has the latency count")
            .parse::<u64>()
            .expect("count is numeric");
        assert_eq!(
            latency_count,
            2 * batch.len() as u64,
            "every job lands in the histogram"
        );
        // Drain the audit stream after the timed region — the cadence
        // a deployed consumer imposes — so the ring serves its
        // never-full push path rather than the perpetual drop-oldest
        // path no real drain cadence produces.
        audited += instrumented.audit_records().len() as u64;
        total_jobs += 2 * batch.len() as u64;
        assert_eq!(instrumented.audit_dropped(), 0, "ring kept every record");
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let inst = median(&mut instrumented_ns);
    let base = median(&mut bare_ns);
    let overhead_pct = (median(&mut ratios) - 1.0) * 100.0;
    println!("| pool | batch ms | jobs/s | overhead |");
    println!("|------|----------|--------|----------|");
    println!(
        "| instrumented | {:.1} | {:.0} | {overhead_pct:+.2}% |",
        inst / 1e6,
        batch.len() as f64 / (inst / 1e9),
    );
    println!(
        "| no_observability | {:.1} | {:.0} | — |",
        base / 1e6,
        batch.len() as f64 / (base / 1e9),
    );
    println!();

    // The instrumented pools really did audit everything they served:
    // one audit record per job across every instance, nothing lost.
    assert_eq!(
        audited, total_jobs,
        "drained records account for every job served"
    );
    assert!(
        overhead_pct <= 2.0,
        "observability must cost ≤2% on the serving path: instrumented {inst:.0} ns \
         vs bare {base:.0} ns, paired-ratio median {overhead_pct:+.2}%"
    );
    metrics.push(("obs/mixed256/instrumented_ns".into(), inst));
    metrics.push(("obs/mixed256/bare_ns".into(), base));
    metrics.push(("obs/mixed256/overhead_pct".into(), overhead_pct));
    println!(
        "instrumentation overhead on the serving path: {overhead_pct:+.2}% \
         (≤2% asserted; {total_jobs} audited jobs across {REPS} instance pairs, 0 lost)"
    );
    println!();
}

/// E26: the drifting workload — what live base promotion buys. The
/// same 256-program drifting batch (the hot type rotates every 64
/// jobs; see `bc_testkit::sources::drifting`) through a warmed
/// 4-worker pool with promotion disabled versus enabled. The frozen
/// pool re-interns every rotation's nodes once per worker, forever;
/// the promoting pool hot-swaps the drifted overlay in as a new base
/// epoch and returns to pure base hits. Latency quantifies what the
/// freeze+republish costs; the overlay-node column is the memory the
/// epochs reclaim (the hard assertion on it lives in `tests/pool.rs`,
/// on counters, where scheduling noise can't touch it).
fn drift_table(metrics: &mut Metrics) {
    println!("## E26 — drifting workload: frozen base vs live promotion (256 jobs, rotate 64)");
    println!();
    const FUEL: u64 = 5_000;
    let batch = sources::drifting(7, 256, 64);
    println!("| pool | batch ms | jobs/s | overlay nodes interned | steals | promotions |");
    println!("|------|----------|--------|------------------------|--------|------------|");
    let mut overlays = Vec::new();
    for (name, promoting) in [("frozen", false), ("promoting", true)] {
        // Each rep is a full lifecycle: promotion permanently mutates
        // the pool's base, so a reused pool would only hot-swap on
        // the first rep.
        let mut last_stats = None;
        let median = median_ns(9, || {
            let builder = SessionPool::builder()
                .workers(4)
                .default_fuel(FUEL)
                .warmup(sources::shapes());
            let builder = if promoting {
                // Tighter than the production default so every 64-job
                // rotation promotes within the 256-job batch.
                builder.promotion(PromotionPolicy {
                    min_local_nodes: 8,
                    min_miss_rate: 0.0,
                    min_interval_jobs: 16,
                })
            } else {
                builder.no_promotion()
            };
            let pool = builder.build().expect("warmup compiles");
            for handle in pool.submit_batch(batch.iter().map(String::as_str), Engine::MachineS) {
                let _ = std::hint::black_box(handle.wait());
            }
            last_stats = Some(pool.shutdown());
        });
        let stats = last_stats.expect("at least one rep ran");
        let overlay = stats.local_coercion_nodes() + stats.local_type_nodes();
        println!(
            "| {name} | {:.1} | {:.0} | {overlay} | {} | {} |",
            median / 1e6,
            batch.len() as f64 / (median / 1e9),
            stats.steals(),
            stats.promotions,
        );
        metrics.push((format!("pool/drift256/{name}_ns"), median));
        metrics.push((
            format!("pool/drift256/{name}_overlay_nodes"),
            overlay as f64,
        ));
        metrics.push((
            format!("pool/drift256/{name}_steals"),
            stats.steals() as f64,
        ));
        overlays.push(overlay);
    }
    assert!(
        overlays[1] < overlays[0],
        "promotion must cut total overlay interning: promoting {} vs frozen {}",
        overlays[1],
        overlays[0]
    );
    println!();
}

/// A type distinct per `i` (the tower's leaf sequence spells `i` in
/// binary), so compiling `drift_source(i)` over disjoint index ranges
/// interns genuinely new type *and* coercion nodes — unlike
/// `sources::drifting`, whose phase type cycles after 64 phases. E28
/// uses it to grow bases of arbitrary size and to keep every
/// measured append honest (fresh rows, not dedup hits).
fn nested_type(i: usize) -> String {
    let mut ty = String::from("Int");
    let mut n = i + 2;
    while n > 0 {
        let leaf = if n & 1 == 0 { "Int" } else { "Bool" };
        ty = format!("{leaf} -> ({ty})");
        n >>= 1;
    }
    ty
}

/// A dynamic value projected into `nested_type(i)`: one coercion
/// spine plus one type tower per distinct `i`.
fn drift_source(i: usize) -> String {
    format!(
        "let f = ((fun x => x) : ?) in let g = (f : {}) in 1",
        nested_type(i)
    )
}

/// Median of raw nanosecond samples.
fn median_of(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// E28: what the append-only slab base buys promotion — the cost of
/// freezing a fixed-size overlay over bases of growing size, slab
/// append ([`Session::freeze`]) versus detached rebuild
/// ([`Session::freeze_detached`], the old clone-on-promote
/// semantics). Each rep compiles a *distinct* overlay (disjoint
/// `drift_source` index ranges) so every append pushes real rows;
/// the overlay is identical across base scales so the append column
/// isolates base-size dependence. The in-table asserts are the
/// tentpole acceptance criterion: append stays flat (< 1.5×) from 1×
/// to 64× base while the clone grows ≥ 8×.
fn promotion_cost_table(metrics: &mut Metrics) {
    println!("## E28 — promotion cost by base size: slab append vs detached clone");
    println!();
    const BASE_UNIT: usize = 64; // base programs at 1× scale
    const OVERLAY: usize = 16; // overlay programs per promotion
    const REPS: usize = 15;
    println!("| base scale | base nodes (coercion + type) | append µs | detached clone µs |");
    println!("|------------|------------------------------|-----------|-------------------|");
    let mut appends = Vec::new();
    let mut clones = Vec::new();
    for (label, scale) in [("1x", 1usize), ("8x", 8), ("64x", 64)] {
        let warm = Session::builder().default_fuel(u64::MAX).build();
        for i in 0..scale * BASE_UNIT {
            let _ = warm
                .compile(&drift_source(i))
                .expect("base source compiles");
        }
        let base = warm.freeze();
        let base_nodes = base.coercion_nodes() + base.type_nodes();
        let mut append_ns = Vec::new();
        let mut clone_ns = Vec::new();
        for rep in 0..REPS {
            let session = Session::builder()
                .default_fuel(u64::MAX)
                .base(Arc::clone(&base))
                .build();
            for i in 0..OVERLAY {
                let source = drift_source(1_000_000 + rep * OVERLAY + i);
                let _ = session.compile(&source).expect("overlay source compiles");
            }
            let t0 = Instant::now();
            let appended = std::hint::black_box(session.freeze());
            append_ns.push(t0.elapsed().as_nanos() as f64);
            let t1 = Instant::now();
            let detached = std::hint::black_box(session.freeze_detached());
            clone_ns.push(t1.elapsed().as_nanos() as f64);
            assert!(
                appended.extends(&base),
                "an append-freeze must extend its base"
            );
            // Rep 0 is the only rep whose slab holds exactly base +
            // this overlay; later reps' appended views also publish
            // the earlier reps' rows (they sit below the new
            // watermark), so only the first freeze pair is
            // content-identical. `tests/epoch.rs` asserts the full
            // equivalence on single-lineage chains.
            if rep == 0 {
                assert_eq!(
                    detached.coercion_nodes() + detached.type_nodes(),
                    appended.coercion_nodes() + appended.type_nodes(),
                    "append and detached freezes must agree on content"
                );
            }
        }
        let append = median_of(append_ns);
        let clone = median_of(clone_ns);
        println!(
            "| {label} | {base_nodes} | {:.1} | {:.1} |",
            append / 1e3,
            clone / 1e3
        );
        metrics.push((format!("promote/base{label}/nodes"), base_nodes as f64));
        metrics.push((format!("promote/base{label}/append_ns"), append));
        metrics.push((format!("promote/base{label}/clone_ns"), clone));
        appends.push(append);
        clones.push(clone);
    }
    println!();
    // The tentpole criterion, asserted where the numbers are made:
    // promotion cost is O(overlay) under append — flat as the base
    // grows 64× — while the old clone semantics scale with the base.
    assert!(
        appends[2] < appends[0] * 1.5,
        "append-promotion must stay flat in base size: 1x {:.0} ns vs 64x {:.0} ns",
        appends[0],
        appends[2]
    );
    assert!(
        clones[2] >= clones[0] * 8.0,
        "clone-promotion must scale with base size (or the append column is measuring nothing): \
         1x {:.0} ns vs 64x {:.0} ns",
        clones[0],
        clones[2]
    );
    println!(
        "append 64x/1x: {:.2}×; clone 64x/1x: {:.2}×",
        appends[2] / appends[0],
        clones[2] / clones[0]
    );
    println!();
}

/// E27: scheduler fairness — what preemptive timeslicing buys the
/// convergent jobs that share a worker with divergent spinners. A
/// single-worker pool serves a 64-job batch whose first 0/1/4 jobs
/// are million-step spinners (submitted *ahead* of everything else,
/// so head-of-line blocking is maximal), sliced (the default
/// `SliceBudget`) versus unsliced (`no_slicing()`). The columns are
/// the p50/p99 submit-to-completion latency of the *convergent* jobs
/// only: unsliced, each spinner runs its full fuel before the next
/// job starts, so every convergent p-level inherits the spinners'
/// whole runtime; sliced, a spinner costs its neighbours one
/// round-robin slice per turn. `tests/sched.rs` asserts the ordering
/// property exactly (every convergent job beats every spinner); this
/// table prices it.
///
/// Each percentile is computed *per rep* and the table reports the
/// median across reps: these sub-millisecond latencies sit below one
/// OS timeslice on a shared container, so a pooled percentile lets a
/// single preempted rep own the tail — the rep that caught a
/// container hiccup would price the hiccup, not the scheduler.
fn fairness_table(metrics: &mut Metrics) {
    println!(
        "## E27 — scheduler fairness: convergent-job latency beside spinners (1 worker, 64 jobs)"
    );
    println!();
    const SPIN_FUEL: u64 = 1_000_000;
    const SPINNER: &str = "letrec spin (n : Int) : Int = spin (n + 1) in spin 0";
    const REPS: usize = 7;
    // Convergent companions: the mixed workload minus its divergent
    // shape (which would just be more spinners).
    let convergent: Vec<String> = sources::mixed(5, 96)
        .into_iter()
        .filter(|s| !s.contains("letrec spin"))
        .take(60)
        .collect();
    println!("| spinners | mode | p50 ms | p99 ms |");
    println!("|----------|------|--------|--------|");
    let mut p99s = std::collections::HashMap::new();
    for spinners in [0usize, 1, 4] {
        for (mode, sliced) in [("sliced", true), ("unsliced", false)] {
            let mut rep_p50s: Vec<f64> = Vec::new();
            let mut rep_p99s: Vec<f64> = Vec::new();
            for _ in 0..REPS {
                let builder = SessionPool::builder()
                    .workers(1)
                    .default_fuel(5_000)
                    .warmup(sources::shapes());
                let builder = if sliced {
                    builder
                } else {
                    builder.no_slicing()
                };
                let pool = builder.build().expect("warmup compiles");
                let mut handles = Vec::new();
                for _ in 0..spinners {
                    handles.push(pool.submit_with_fuel(SPINNER, Engine::MachineS, SPIN_FUEL));
                }
                let done = Arc::new(std::sync::Mutex::new(Vec::new()));
                for source in &convergent {
                    let handle = pool.submit(source.as_str(), Engine::MachineS);
                    let submitted = Instant::now();
                    let done = Arc::clone(&done);
                    handle.on_ready(move |_| {
                        done.lock()
                            .expect("latency log")
                            .push(submitted.elapsed().as_nanos() as f64);
                    });
                    handles.push(handle);
                }
                for handle in handles {
                    let _ = std::hint::black_box(handle.wait());
                }
                let mut rep: Vec<f64> = done.lock().expect("latency log").clone();
                rep.sort_by(f64::total_cmp);
                rep_p50s.push(rep[rep.len() / 2]);
                rep_p99s.push(rep[(rep.len() * 99 / 100).min(rep.len() - 1)]);
            }
            rep_p50s.sort_by(f64::total_cmp);
            rep_p99s.sort_by(f64::total_cmp);
            let p50 = rep_p50s[REPS / 2];
            let p99 = rep_p99s[REPS / 2];
            println!(
                "| {spinners} | {mode} | {:.2} | {:.2} |",
                p50 / 1e6,
                p99 / 1e6
            );
            metrics.push((format!("sched/fairness/spin{spinners}_{mode}_p50_ns"), p50));
            metrics.push((format!("sched/fairness/spin{spinners}_{mode}_p99_ns"), p99));
            p99s.insert((spinners, mode), p99);
        }
    }
    // The load-bearing comparison: with spinners in front, slicing
    // must beat head-of-line blocking outright — unsliced p99 carries
    // at least one full million-step spinner run.
    for spinners in [1usize, 4] {
        assert!(
            p99s[&(spinners, "sliced")] < p99s[&(spinners, "unsliced")],
            "timeslicing must cut convergent p99 under {spinners} spinner(s): sliced {:.0} ns \
             vs unsliced {:.0} ns",
            p99s[&(spinners, "sliced")],
            p99s[&(spinners, "unsliced")]
        );
    }
    println!();
}

/// E24: the single-thread cost of the tiered (overlay-over-base)
/// lookup versus a flat arena — what the sharding layer charges one
/// core for the privilege of sharing.
fn tier_table(metrics: &mut Metrics) {
    println!("## E24 — tiered-lookup overhead on one core (overlay vs flat)");
    println!();
    const REPS: usize = 41;

    // Front end: the compiled elaborator (what `Session::compile`
    // runs) on the warm 16-program batch, parsed once with `parse_in`,
    // against a flat warm arena versus an overlay over its frozen
    // snapshot. Every annotation id is below the frozen length, so the
    // same `ExprI`s are valid in both arenas.
    let mut flat_types = TypeArena::new();
    let exprs: Vec<_> = (0..bc_bench::frontend_workload::BATCH as i64)
        .map(|i| parse_source_in(&boundary_source(32 + i), &mut flat_types))
        .collect();
    for e in &exprs {
        let _ = elaborate_compiled(e, &mut flat_types).expect("elaborates");
    }
    let base = Arc::new(flat_types.freeze());
    let mut overlay_types = TypeArena::with_base(base, 1 << 16);
    let flat = median_ns(REPS, || {
        for e in &exprs {
            std::hint::black_box(elaborate_compiled(e, &mut flat_types).expect("elaborates"));
        }
    });
    let overlay = median_ns(REPS, || {
        for e in &exprs {
            std::hint::black_box(elaborate_compiled(e, &mut overlay_types).expect("elaborates"));
        }
    });

    // Machine: the 512-crossing boundary loop on a flat warm arena
    // versus an overlay+frozen-pair-table pair.
    let tree = term_c_to_s(&term_b_to_c(&programs::boundary_loop(512)));
    let mut ctx = CompileCtx::new();
    let compiled = ctx.compile(&tree);
    cek_s::run_compiled_in(&compiled, &mut ctx.arena, &mut ctx.cache, u64::MAX);
    let machine_flat = median_ns(15, || {
        std::hint::black_box(cek_s::run_compiled_in(
            &compiled,
            &mut ctx.arena,
            &mut ctx.cache,
            u64::MAX,
        ));
    });
    let cbase = Arc::new(ctx.arena.freeze(&ctx.cache));
    let mut overlay_arena = CoercionArena::with_base(Arc::clone(&cbase));
    let mut overlay_cache = ComposeCache::with_base(cbase, 1 << 16);
    let machine_overlay = median_ns(15, || {
        std::hint::black_box(cek_s::run_compiled_in(
            &compiled,
            &mut overlay_arena,
            &mut overlay_cache,
            u64::MAX,
        ));
    });

    println!("| workload | flat warm | overlay over frozen base | overhead |");
    println!("|----------|-----------|--------------------------|----------|");
    println!(
        "| elaborate 16-program batch | {:.1} µs | {:.1} µs | {:+.1}% |",
        flat / 1e3,
        overlay / 1e3,
        (overlay / flat - 1.0) * 100.0
    );
    println!(
        "| boundary loop n=512 (λS machine, compiled) | {:.1} µs | {:.1} µs | {:+.1}% |",
        machine_flat / 1e3,
        machine_overlay / 1e3,
        (machine_overlay / machine_flat - 1.0) * 100.0
    );
    println!();
    metrics.push(("tier/elaborate_batch16/flat_ns".into(), flat));
    metrics.push(("tier/elaborate_batch16/overlay_ns".into(), overlay));
    metrics.push(("tier/boundary512/flat_ns".into(), machine_flat));
    metrics.push(("tier/boundary512/overlay_ns".into(), machine_overlay));
}

/// E15: the space series — peak cast/coercion frames versus n.
fn space_table(_: &mut Metrics) {
    println!("## E15 — machine space on even/odd across a typed/untyped boundary");
    println!();
    println!("| n | λB peak cast frames | λC peak coercion frames | λS peak coercion frames | λS peak coercion size |");
    println!("|---|---------------------|--------------------------|--------------------------|------------------------|");
    for n in [4i64, 16, 64, 256, 1024, 4096] {
        let b = programs::even_odd_mixed(n);
        let c = term_b_to_c(&b);
        let s = term_c_to_s(&c);
        let rb = cek_b::run(&b, u64::MAX);
        let rc = cek_c::run(&c, u64::MAX);
        let rs = cek_s::run(&s, u64::MAX);
        assert_eq!(rb.outcome.to_observation(), rs.outcome.to_observation());
        println!(
            "| {n} | {} | {} | {} | {} |",
            rb.metrics.peak_cast_frames,
            rc.metrics.peak_cast_frames,
            rs.metrics.peak_cast_frames,
            rs.metrics.peak_cast_size
        );
    }
    println!();
}

/// E16: composition throughput, λS `#` vs threesome meet vs naive
/// rewriting, by coercion height.
fn compose_table(metrics: &mut Metrics) {
    println!("## E16 — composition microbenchmark (64 pairs, ns/pair)");
    println!();
    println!("| height | λS `s # t` | threesome `Q ∘ P` | naive rewriting |");
    println!("|--------|------------|--------------------|------------------|");
    for height in [1usize, 2, 3, 4, 5] {
        let pairs = composable_batch(42, height, 64);
        let labeled: Vec<_> = pairs
            .iter()
            .map(|(s, t)| (threesome::from_space(s), threesome::from_space(t)))
            .collect();
        let seqs: Vec<_> = pairs
            .iter()
            .map(|(s, t)| s.to_coercion().seq(t.to_coercion()))
            .collect();
        // Best of several independent blocks (same total work as one
        // long block): container noise is strictly additive and an OS
        // preemption (1–4 ms) dwarfs a sub-µs composition, so the
        // minimum block survives a noisy neighbour that would poison
        // a single continuous measurement.
        let best_block = |f: &mut dyn FnMut()| -> u128 {
            const BLOCKS: usize = 5;
            const REPS: usize = 400;
            (0..BLOCKS)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..REPS {
                        f();
                    }
                    t0.elapsed().as_nanos() / (REPS * pairs.len()) as u128
                })
                .min()
                .expect("at least one block")
        };
        let sharp = best_block(&mut || {
            for (s, t) in &pairs {
                std::hint::black_box(compose(s, t));
            }
        });
        let meet = best_block(&mut || {
            for (p, q) in &labeled {
                std::hint::black_box(threesome::compose_labeled(q, p));
            }
        });
        let rewriting = best_block(&mut || {
            for c in &seqs {
                std::hint::black_box(naive::normalize(c));
            }
        });

        println!("| {height} | {sharp} | {meet} | {rewriting} |");
        metrics.push((format!("compose/height{height}/sharp_ns"), sharp as f64));
        metrics.push((format!("compose/height{height}/threesome_ns"), meet as f64));
        metrics.push((format!("compose/height{height}/naive_ns"), rewriting as f64));
    }
    println!();
}

/// The front-end series: typecheck+elaborate on interned types versus
/// the tree oracles (the `frontend` criterion bench's workloads, as
/// medians for BENCH_4.json).
fn frontend_table(metrics: &mut Metrics) {
    println!("## E21 — front end on interned types (medians)");
    println!();
    use bc_bench::frontend_workload::{BATCH, CALLS, CALL_DEPTH, TOWER};
    let exprs: Vec<_> = (0..BATCH as i64)
        .map(|i| parse_source(&boundary_source(32 + i)))
        .collect();
    let tower = parse_source(&wrapper_tower_source(TOWER));
    let calls = parse_source(&call_heavy_source(CALL_DEPTH, CALLS));
    let calls_b = elaborate(&calls).expect("elaborates").term;
    const REPS: usize = 41;

    let tree = median_ns(REPS, || {
        for e in &exprs {
            std::hint::black_box(elaborate(e).expect("elaborates"));
        }
    });
    // The compiled front end on the same batch: sources pre-parsed
    // into `ExprI` (annotations interned at parse time), the timed
    // region is pure elaboration on ids — the path `Session::compile`
    // actually runs.
    let mut compiled_types = TypeArena::new();
    let exprs_i: Vec<_> = (0..BATCH as i64)
        .map(|i| parse_source_in(&boundary_source(32 + i), &mut compiled_types))
        .collect();
    for e in &exprs_i {
        let _ = elaborate_compiled(e, &mut compiled_types).expect("elaborates");
    }
    let compiled_warm = median_ns(REPS, || {
        for e in &exprs_i {
            std::hint::black_box(elaborate_compiled(e, &mut compiled_types).expect("elaborates"));
        }
    });
    let check_tree = median_ns(REPS, || {
        std::hint::black_box(type_of(&calls_b).expect("well typed"));
    });
    let mut check_types = TypeArena::new();
    let _ = type_of_interned(&calls_b, &mut check_types);
    let check_interned = median_ns(REPS, || {
        std::hint::black_box(type_of_interned(&calls_b, &mut check_types).expect("well typed"));
    });
    // The tower's interned row runs the compiled front end: `parse_in`
    // interns each annotation once, and warm `elaborate_compiled`
    // never walks one.
    let mut tower_types = TypeArena::new();
    let tower_i = parse_source_in(&wrapper_tower_source(TOWER), &mut tower_types);
    let _ = elaborate_compiled(&tower_i, &mut tower_types);
    let tower_tree = median_ns(REPS, || {
        std::hint::black_box(elaborate(&tower).expect("elaborates"));
    });
    let tower_interned = median_ns(REPS, || {
        std::hint::black_box(elaborate_compiled(&tower_i, &mut tower_types).expect("elaborates"));
    });

    println!("| workload | tree | interned warm |");
    println!("|----------|------|---------------|");
    println!(
        "| elaborate 16-program batch (compiled) | {:.1} µs | {:.1} µs |",
        tree / 1e3,
        compiled_warm / 1e3
    );
    println!(
        "| typecheck call-heavy (2⁹-node annotation, 64 sites) | {:.1} µs | {:.1} µs |",
        check_tree / 1e3,
        check_interned / 1e3
    );
    println!(
        "| elaborate wrapper tower (annotation-dominated, compiled) | {:.1} µs | {:.1} µs |",
        tower_tree / 1e3,
        tower_interned / 1e3
    );
    println!();
    metrics.push(("frontend/elaborate_batch16/tree_ns".into(), tree));
    metrics.push((
        "frontend/elaborate_batch16/compiled_warm_ns".into(),
        compiled_warm,
    ));
    metrics.push(("frontend/typecheck_calls/tree_ns".into(), check_tree));
    metrics.push((
        "frontend/typecheck_calls/interned_warm_ns".into(),
        check_interned,
    ));
    metrics.push(("frontend/elaborate_tower/tree_ns".into(), tower_tree));
    metrics.push((
        "frontend/elaborate_tower/interned_warm_ns".into(),
        tower_interned,
    ));
}

/// The cache working sets the bench workloads actually reach — the
/// data behind the `SessionBuilder` capacity defaults.
fn capacity_table(metrics: &mut Metrics) {
    println!("## E22 — session cache working sets on the bench workloads");
    println!();
    println!("| workload | compose pairs | type nodes | verdicts | compose hit rate | verdict hit rate |");
    println!("|----------|---------------|------------|----------|------------------|------------------|");
    let workloads: Vec<(&str, Vec<String>)> = vec![
        (
            "boundary batch (16 × loop 512)",
            (0..16).map(|i| boundary_source(512 + i)).collect(),
        ),
        (
            "wrapper towers (depth 8..12)",
            (8..=12).map(wrapper_tower_source).collect(),
        ),
        (
            "call-heavy (depth 8, 64 sites)",
            vec![call_heavy_source(
                bc_bench::frontend_workload::CALL_DEPTH,
                bc_bench::frontend_workload::CALLS,
            )],
        ),
    ];
    for (name, sources) in workloads {
        let session = Session::builder().default_fuel(u64::MAX).build();
        let programs = session
            .compile_batch(sources.iter().map(String::as_str))
            .expect("compiles");
        for program in &programs {
            session.run(program, Engine::MachineS).expect("terminates");
        }
        let stats = session.stats();
        let compose_rate =
            stats.compose.hits as f64 / (stats.compose.hits + stats.compose.misses).max(1) as f64;
        let verdict_rate = stats.type_queries.hits as f64
            / (stats.type_queries.hits + stats.type_queries.misses).max(1) as f64;
        println!(
            "| {name} | {} | {} | {} | {:.3} | {:.3} |",
            stats.compose_pairs,
            stats.type_nodes,
            stats.type_memo_pairs,
            compose_rate,
            verdict_rate
        );
        let slug = name.split_whitespace().next().expect("name");
        metrics.push((
            format!("capacity/{slug}/compose_pairs"),
            stats.compose_pairs as f64,
        ));
        metrics.push((
            format!("capacity/{slug}/type_nodes"),
            stats.type_nodes as f64,
        ));
        metrics.push((
            format!("capacity/{slug}/verdicts"),
            stats.type_memo_pairs as f64,
        ));
    }
    println!();
}

/// E10/E19: step counts — λB:λC is exactly 1:1 (lockstep), λC:λS is
/// within a constant factor.
fn steps_table(_: &mut Metrics) {
    println!("## E10/E19 — step counts per workload (lockstep and alignment)");
    println!();
    println!("| workload | λB steps | λC steps | λS steps | λB:λC | λC:λS |");
    println!("|----------|----------|----------|----------|-------|-------|");
    for (name, m) in [
        ("boundary_loop(64)", programs::boundary_loop(64)),
        ("even_odd_mixed(33)", programs::even_odd_mixed(33)),
        ("even_typed(64)", programs::even_typed(64)),
        ("even_untyped(16)", programs::even_untyped(16)),
        ("wrapped_identity(16)", programs::wrapped_identity(16)),
    ] {
        let lock = lockstep_bc(&m, 10_000_000).expect("lockstep");
        let mc = term_b_to_c(&m);
        let align = aligned_cs(&mc, 10_000_000).expect("aligned");
        println!(
            "| {name} | {} | {} | {} | 1.00 | {:.2} |",
            lock.steps,
            align.steps_c,
            align.steps_s,
            align.steps_c as f64 / align.steps_s as f64
        );
    }
    println!();
}

/// E11: observed height/size bounds under composition.
fn height_table(_: &mut Metrics) {
    println!("## E11 — height preservation and size bounds under `#`");
    println!();
    println!("| height bound | pairs | max ‖s#t‖ | max size(s#t) | 3·(2^h − 1) |");
    println!("|--------------|-------|------------|----------------|--------------|");
    for height in [2usize, 3, 4, 5, 6] {
        let pairs = composable_batch(7, height, 256);
        let mut max_h = 0usize;
        let mut max_size = 0usize;
        let mut input_h = 0usize;
        for (s, t) in &pairs {
            let st = compose(s, t);
            max_h = max_h.max(st.height());
            max_size = max_size.max(st.size());
            input_h = input_h.max(s.height().max(t.height()));
        }
        assert!(max_h <= input_h, "height grew!");
        println!(
            "| {input_h} | {} | {max_h} | {max_size} | {} |",
            pairs.len(),
            3 * (2usize.pow(input_h as u32) - 1)
        );
    }
    println!();
}

/// E20: end-to-end wall-clock per engine on the compiled boundary
/// loop.
fn end_to_end_table(metrics: &mut Metrics) {
    println!("## E20 — end-to-end pipeline (compiled boundary loop, n = 512)");
    println!();
    let source = boundary_source(512);
    let session = Session::builder().default_fuel(u64::MAX).build();
    let compiled = session.compile(&source).expect("compiles");
    println!("| engine | steps | peak frames | peak coercion frames | µs |");
    println!("|--------|-------|-------------|----------------------|-----|");
    for (slug, engine) in [
        ("machine_b", Engine::MachineB),
        ("machine_c", Engine::MachineC),
        ("machine_s", Engine::MachineS),
    ] {
        let median = median_ns(15, || {
            std::hint::black_box(session.run(&compiled, engine).expect("terminates"));
        });
        let report = session.run(&compiled, engine).expect("terminates");
        let machine = report.metrics.expect("machine engines report metrics");
        println!(
            "| {engine} | {} | {} | {} | {:.0} |",
            report.steps,
            machine.peak_frames,
            machine.peak_cast_frames,
            median / 1e3
        );
        metrics.push((format!("end_to_end/{slug}_ns"), median));
    }
    println!();
}
