//! The repository benchmark: three workloads driven through the public
//! API, each op's verdict checked against a hand-derived expectation.
//!
//! * `compile_heavy` — source to verdict in one long-lived session:
//!   the front end (`gtlc`) and lowering (`translate`) dominate.
//! * `run_heavy` — long machine runs of programs compiled in set-up:
//!   the engines (`machine`) dominate.
//! * `serve_mixed` — a closed loop of callers against a
//!   `SessionPool`: `pool`, `sched` and `obs` carry the load.
//!
//! An untraced run reports the end-to-end metrics
//! ([`report::END_TO_END`]); a traced run repeats the workload with
//! spans around every call into a layer and reports the per-layer
//! metrics ([`report::PER_LAYER`]). See `README.md` beside this crate.

pub mod compile_heavy;
pub mod gen;
pub mod report;
pub mod run_heavy;
pub mod serve_mixed;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

use report::Metrics;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Front end and lowering.
    CompileHeavy,
    /// Machines.
    RunHeavy,
    /// Pool, scheduler and observability.
    ServeMixed,
}

impl Workload {
    /// Every workload, in command-line order.
    pub const ALL: [Workload; 3] = [
        Workload::CompileHeavy,
        Workload::RunHeavy,
        Workload::ServeMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileHeavy => "compile_heavy",
            Workload::RunHeavy => "run_heavy",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The most slices a run's end-to-end timings are taken over.
pub const SLICES: usize = 20;

/// Which quantile of the slices the end-to-end timings report, counted
/// from the fast end. Interference from other tenants of a shared host
/// only ever slows a slice down, so the fast quartile tracks the
/// program's own speed more steadily than the median does.
pub const QUIET: f64 = 0.25;

/// Times of set-up repeated in one run; the median is reported.
pub const SETUP_REPEATS: usize = 21;

/// What one measured loop saw.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Ops issued.
    pub attempted: u64,
    /// Ops whose verdict was wrong or that failed outright.
    pub failed: u64,
    /// The measured window.
    pub window: Duration,
    /// Ops after which the workload's input mix repeats.
    pub period: usize,
    /// Per-op latency in µs, one sample per op, in completion order.
    pub latencies_us: Vec<f64>,
    /// When each op completed, in seconds from the loop's start.
    pub done_at_s: Vec<f64>,
    /// Whether each op's verdict was correct.
    pub ok: Vec<bool>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// The peak resident set, when the workload reads it at a fixed
    /// point rather than at the end of the loop.
    pub peak_rss_mb: Option<f64>,
}

impl LoopResult {
    /// An empty result for a `window`-long loop over inputs that
    /// repeat every `period` ops.
    pub fn new(window: Duration, period: usize) -> LoopResult {
        LoopResult {
            window,
            period: period.max(1),
            ..LoopResult::default()
        }
    }

    /// Records one op that completed `at` into the loop.
    pub fn record(&mut self, latency: Duration, verdict: Result<(), String>, at: Duration) {
        self.attempted += 1;
        self.latencies_us.push(latency.as_secs_f64() * 1e6);
        self.done_at_s.push(at.as_secs_f64());
        self.ok.push(verdict.is_ok());
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// The end-to-end metrics this loop yields, besides set-up time and
    /// memory.
    ///
    /// Each is taken per slice of consecutive ops and reported at the
    /// [`QUIET`] quantile across slices, so a burst of interference
    /// from outside the process moves it only when it covers most of
    /// the run. A slice is a whole number of input periods, so every
    /// slice runs the same mix, and there are at most [`SLICES`] of
    /// them; a p99 slice is a whole number of those holding at least
    /// 1000 ops, so that its p99 has ten samples beyond it. Throughput
    /// counts the correct ops of each slice that completed inside the
    /// window over the time the slice took.
    pub fn end_to_end(&self, metrics: &mut Metrics) {
        let in_window = self
            .done_at_s
            .iter()
            .take_while(|&&t| t < self.window.as_secs_f64())
            .count();
        let slice = self.period * (in_window / (SLICES * self.period)).max(1);
        let mut rates = Vec::new();
        let mut start = 0.0;
        for (ok, at) in self.ok[..in_window]
            .chunks_exact(slice)
            .zip(self.done_at_s[..in_window].chunks_exact(slice))
        {
            let end = at[slice - 1];
            rates.push(ok.iter().filter(|&&o| o).count() as f64 / (end - start));
            start = end;
        }
        if rates.is_empty() {
            let ok = self.ok[..in_window].iter().filter(|&&o| o).count();
            rates.push(ok as f64 / self.window.as_secs_f64());
        }
        metrics.insert("throughput_ops_s", stats::quantile(&mut rates, 1.0 - QUIET));
        metrics.insert(
            "latency_p50_us",
            stats::sliced(&self.latencies_us, slice, 0.5, QUIET),
        );
        metrics.insert(
            "latency_p99_us",
            stats::sliced(
                &self.latencies_us,
                slice * 1000usize.div_ceil(slice),
                0.99,
                QUIET,
            ),
        );
        metrics.insert(
            "ok_ratio",
            1.0 - report::ratio(self.failed as f64, self.attempted as f64),
        );
    }
}

/// A single-caller closed loop over inputs that repeat every `period`
/// ops: calls `op(i)` for i = 0, 1, … until `seconds` have passed.
/// `op` returns its own latency, so input generation and verdict
/// checks stay outside the timed interval.
pub fn closed_loop(
    seconds: f64,
    period: usize,
    mut op: impl FnMut(u64) -> (Duration, Result<(), String>),
) -> LoopResult {
    let mut result = LoopResult::new(Duration::from_secs_f64(seconds), period);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < result.window {
        let (latency, verdict) = op(i);
        result.record(latency, verdict, start.elapsed());
        i += 1;
    }
    result
}

/// Runs `setup` [`SETUP_REPEATS`] times, returning the median time in
/// seconds and the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance before timing the next build.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        stats::median(&mut times),
        last.expect("SETUP_REPEATS is positive"),
    )
}

/// What a traced run reports beside the untraced loop it repeats.
#[derive(Debug)]
pub struct Traced {
    /// The traced loop's ops and latencies.
    pub result: LoopResult,
    /// The per-layer metrics (tracing overhead excluded).
    pub metrics: Metrics,
    /// The spans recorded.
    pub tracer: trace::Tracer,
}

/// One benchmark invocation's outcome.
#[derive(Debug)]
pub struct Outcome {
    /// Ops issued over every loop run.
    pub attempted: u64,
    /// Ops that failed over every loop run.
    pub failed: u64,
    /// Failure descriptions (the first few).
    pub failures: Vec<String>,
    /// The metrics for the result line.
    pub metrics: Metrics,
    /// Latency samples behind the reported percentiles.
    pub samples: usize,
    /// The spans, for a traced run.
    pub tracer: Option<trace::Tracer>,
}

/// Runs `workload` for `seconds` on inputs made from `seed`. Untraced,
/// the outcome carries the end-to-end metrics; traced, it runs the
/// untraced loop and then a traced one for half the time each, and
/// carries the per-layer metrics with the tracing overhead between the
/// two.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let seconds = if traced { seconds / 2.0 } else { seconds };
    let (setup_s, untraced) = match workload {
        Workload::CompileHeavy => {
            let (s, mut state) = timed_setup(|| compile_heavy::setup(seed));
            (s, compile_heavy::measure(&mut state, seconds))
        }
        Workload::RunHeavy => {
            let (s, mut state) = timed_setup(|| run_heavy::setup(seed));
            (s, run_heavy::measure(&mut state, seconds))
        }
        Workload::ServeMixed => {
            let traffic = serve_mixed::Traffic::new(seed);
            let (s, state) = timed_setup(serve_mixed::setup);
            (s, serve_mixed::measure(&state, &traffic, seconds))
        }
    };
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut failures = untraced.failures.clone();
    let mut metrics = Metrics::new();
    if !traced {
        untraced.end_to_end(&mut metrics);
        metrics.insert("setup_s", setup_s);
        let rss = untraced.peak_rss_mb.or_else(stats::peak_rss_mb);
        metrics.insert("peak_rss_mb", rss.unwrap_or(0.0));
        return Outcome {
            attempted,
            failed,
            failures,
            metrics,
            samples: untraced.latencies_us.len(),
            tracer: None,
        };
    }
    let t = match workload {
        Workload::CompileHeavy => compile_heavy::traced(&mut compile_heavy::setup(seed), seconds),
        Workload::RunHeavy => run_heavy::traced(&mut run_heavy::setup(seed), seconds),
        Workload::ServeMixed => serve_mixed::traced(
            &serve_mixed::setup(),
            &serve_mixed::Traffic::new(seed),
            seconds,
        ),
    };
    attempted += t.result.attempted;
    failed += t.result.failed;
    failures.extend(t.result.failures.iter().cloned());
    metrics = t.metrics;
    for (name, _) in report::PER_LAYER {
        metrics.entry(name).or_insert(0.0);
    }
    let base = stats::median(&mut untraced.latencies_us.clone());
    let with_spans = stats::median(&mut t.result.latencies_us.clone());
    metrics.insert(
        "trace.overhead_pct",
        100.0 * (report::ratio(with_spans, base) - 1.0),
    );
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        samples: t.result.latencies_us.len(),
        tracer: Some(t.tracer),
    }
}
