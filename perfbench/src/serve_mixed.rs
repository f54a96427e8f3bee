//! `serve_mixed`: a closed loop of in-process callers against a
//! `SessionPool`.
//!
//! The pool has one worker per available core and is warmed on
//! `bc_testkit::sources::shapes()`. One submitting thread keeps
//! [`WINDOW`] jobs outstanding; each job waits on its `JobHandle`, so
//! a slow pool receives less load. A closed loop because the repository
//! has no network front end — its callers are in-process and wait for
//! replies — and because an open loop at a fixed rate gave p99
//! latencies that varied several-fold between identical runs on a
//! two-core machine.
//!
//! Traffic is three parts `sources::mixed` — which includes
//! fuel-capped spinners, so slicing and preemption do work — and one
//! part `sources::drifting`, whose hot types rotate so that promotion
//! appends to the base every few seconds. Every job carries a client
//! fuel bound and a deadline that acts as the latency limit, and the
//! submitting thread scrapes `metrics_text()` and drains the audit
//! stream on a fixed interval, as an operator would.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bc_testkit::sources;
use blame_coercion::{AuditOutcome, AuditRecord, Deadline, Engine, PoolStats, SessionPool};

use crate::gen::{self, Expect};
use crate::report::{ratio, Metrics};
use crate::stats;
use crate::trace::Tracer;
use crate::{LoopResult, Traced};

/// Jobs kept outstanding by the submitting thread.
pub const WINDOW: usize = 8;
/// The client fuel bound on every job; spinners stop at exactly it.
pub const FUEL: u64 = 20_000;
/// The per-job deadline: the latency limit. A job that fails counts
/// as having taken at least this long.
pub const LIMIT: Duration = Duration::from_millis(250);
/// How often the submitting thread scrapes the exposition.
pub const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// Drifting jobs per hot-type phase.
pub const ROTATE_EVERY: usize = 1000;
/// Jobs after which the mix of shapes repeats: every fourth job
/// drifting, and the rest cycling through the six mixed shapes.
const PERIOD: usize = 24;
/// Hot-type phases generated.
const PHASES: usize = 32;
/// How long the drain after the window waits for a straggler before
/// declaring it lost.
const DRAIN_GUARD: Duration = Duration::from_secs(30);
/// Distinct `mixed` sources (they repeat; only their constants vary).
const MIXED: usize = 4096;
/// Jobs whose submit spans the trace file keeps.
const KEEP_OPS: u64 = 2000;

/// A source with its expected verdict (`None`: the oracle does not
/// know the shape, and the job counts as failed).
type Job = (String, Option<Expect>);

/// The generated traffic.
pub struct Traffic {
    mixed: Vec<Job>,
    drifting: Vec<Job>,
}

impl Traffic {
    /// The traffic for `seed`. Drifting phases repeat after
    /// [`PHASES`] rotations, beyond any run's length.
    pub fn new(seed: u64) -> Traffic {
        let with_expect = |s: String| {
            let e = gen::expect_testkit(&s);
            (s, e)
        };
        Traffic {
            mixed: sources::mixed(seed, MIXED)
                .into_iter()
                .map(with_expect)
                .collect(),
            drifting: sources::drifting(seed, PHASES * ROTATE_EVERY, ROTATE_EVERY)
                .into_iter()
                .map(with_expect)
                .collect(),
        }
    }

    /// Job `i`: every fourth drifting, the rest mixed.
    fn job(&self, i: u64) -> &Job {
        let i = i as usize;
        if i % 4 == 3 {
            &self.drifting[(i / 4) % self.drifting.len()]
        } else {
            &self.mixed[(i - i / 4) % self.mixed.len()]
        }
    }
}

/// Builds the pool: one worker per available core, warmed on the
/// testkit's shapes.
///
/// # Panics
///
/// Panics if a warmup source fails to compile.
pub fn setup() -> SessionPool {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    SessionPool::builder()
        .workers(workers)
        .warmup(sources::shapes())
        .build()
        .expect("the testkit shapes compile")
}

/// One resolved job, sent from its `on_ready` callback.
struct Done {
    at: Instant,
    latency: Duration,
    verdict: Result<(), String>,
}

/// What the submitting thread saw besides the jobs.
#[derive(Default)]
struct Sidecar {
    scrape_us: Vec<f64>,
    audit: Vec<AuditRecord>,
}

/// The closed loop. Keeps [`WINDOW`] jobs outstanding for `seconds`,
/// scraping every [`SCRAPE_EVERY`], then waits for the stragglers.
///
/// Completions arrive on a channel from each job's `on_ready`
/// callback, which fires inline, inside `on_ready` itself, when the job
/// has already resolved (a rejection resolves during submission), so
/// the loop never waits on a completion that has already happened.
fn drive(
    pool: &SessionPool,
    traffic: &Traffic,
    seconds: f64,
    keep_audit: bool,
    mut tr: Option<&mut Tracer>,
) -> (LoopResult, Sidecar) {
    let (tx, rx) = mpsc::channel::<Done>();
    let window = Duration::from_secs_f64(seconds);
    let mut result = LoopResult::new(window, PERIOD);
    let mut side = Sidecar::default();
    // Discard records from before the window.
    let _ = pool.audit_records();
    let start = Instant::now();
    let mut next_scrape = start + SCRAPE_EVERY;
    let (mut outstanding, mut submitted) = (0usize, 0u64);
    loop {
        let open = start.elapsed() < window;
        if open {
            while outstanding < WINDOW {
                let (source, expect) = traffic.job(submitted);
                let expect = *expect;
                let tx = tx.clone();
                if let Some(tr) = tr.as_deref_mut() {
                    tr.set_op(submitted);
                    tr.begin("pool.submit");
                }
                let submitted_at = Instant::now();
                let handle = pool.submit_with_options(
                    source.as_str(),
                    Engine::MachineS,
                    Some(FUEL),
                    Some(Deadline::after(LIMIT)),
                );
                if let Some(tr) = tr.as_deref_mut() {
                    tr.end();
                }
                handle.on_ready(move |r| {
                    let at = Instant::now();
                    let verdict = match expect {
                        Some(e) => gen::check_job(e, r, FUEL),
                        None => Err("no expected verdict for this source".to_owned()),
                    };
                    let _ = tx.send(Done {
                        at,
                        latency: at - submitted_at,
                        verdict,
                    });
                });
                outstanding += 1;
                submitted += 1;
            }
        } else if outstanding == 0 {
            break;
        }
        let wait = if open {
            next_scrape.saturating_duration_since(Instant::now())
        } else {
            DRAIN_GUARD
        };
        match rx.recv_timeout(wait) {
            Ok(done) => {
                outstanding -= 1;
                let latency = if done.verdict.is_ok() {
                    done.latency
                } else {
                    done.latency.max(LIMIT)
                };
                result.record(latency, done.verdict, done.at - start);
            }
            Err(_) if !open => {
                for _ in 0..outstanding {
                    result.record(
                        DRAIN_GUARD,
                        Err("job never resolved".to_owned()),
                        start.elapsed(),
                    );
                }
                break;
            }
            Err(_) => {}
        }
        if open && Instant::now() >= next_scrape {
            next_scrape += SCRAPE_EVERY;
            scrape(pool, keep_audit, &mut side, tr.as_deref_mut());
        }
    }
    scrape(pool, keep_audit, &mut side, tr);
    (result, side)
}

/// One operator scrape: the exposition, then the audit drain.
fn scrape(pool: &SessionPool, keep_audit: bool, side: &mut Sidecar, mut tr: Option<&mut Tracer>) {
    if let Some(tr) = tr.as_deref_mut() {
        tr.begin("obs.scrape");
    }
    let start = Instant::now();
    let text = pool.metrics_text();
    side.scrape_us.push(start.elapsed().as_secs_f64() * 1e6);
    std::hint::black_box(text);
    if let Some(tr) = tr.as_deref_mut() {
        tr.end();
        tr.begin("obs.audit_drain");
    }
    let records = pool.audit_records();
    if let Some(tr) = tr {
        tr.end();
    }
    if keep_audit {
        side.audit.extend(records);
    }
}

/// The untraced loop.
pub fn measure(pool: &SessionPool, traffic: &Traffic, seconds: f64) -> LoopResult {
    drive(pool, traffic, seconds, false, None).0
}

/// The traced loop: spans around the submitting thread's calls into
/// the pool, per-job queue wait and service time from the audit
/// records, and `PoolStats` deltas across the window.
pub fn traced(pool: &SessionPool, traffic: &Traffic, seconds: f64) -> Traced {
    let mut tr = Tracer::new(KEEP_OPS);
    let s0 = pool.stats();
    let (result, side) = drive(pool, traffic, seconds, true, Some(&mut tr));
    let s1 = pool.stats();
    let mut m = pool_metrics(&s0, &s1);
    let mut queue_wait_us = Vec::new();
    let (mut steps, mut runs, mut peak, mut compiled, mut rejected) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in &side.audit {
        if r.outcome == AuditOutcome::Rejected {
            rejected += 1;
            continue;
        }
        queue_wait_us.push(r.queue_wait_ns as f64 / 1e3);
        let service = r.latency_ns.saturating_sub(r.queue_wait_ns);
        tr.add("pool.queue_wait", r.queue_wait_ns, r.queue_wait_ns);
        tr.add("sched.service", service, service);
        steps += r.steps;
        runs += 1;
        peak = peak.max(r.peak_cast_frames);
        compiled += u64::from(r.compiled);
    }
    let audited = side.audit.len() as f64;
    m.insert("pool.queue_wait_us.p50", stats::median(&mut queue_wait_us));
    m.insert(
        "pool.queue_wait_us.p99",
        stats::quantile(&mut queue_wait_us, 0.99),
    );
    m.insert("pool.compiled_share", ratio(compiled as f64, audited));
    m.insert("sched.rejected", rejected as f64);
    m.insert(
        "machine.machine_s.steps_per_op",
        ratio(steps as f64, runs as f64),
    );
    m.insert("machine.machine_s.peak_cast_frames", peak as f64);
    let mut scrape = side.scrape_us;
    m.insert("obs.scrape_us", stats::median(&mut scrape));
    m.insert("obs.audit_dropped", pool.audit_dropped() as f64);
    Traced {
        result,
        metrics: m,
        tracer: tr,
    }
}

/// Pool and scheduler metrics from two `PoolStats` snapshots.
fn pool_metrics(s0: &PoolStats, s1: &PoolStats) -> Metrics {
    let jobs = (s1.jobs() - s0.jobs()) as f64;
    let per_job = |a: u64, b: u64| ratio((b - a) as f64, jobs);
    let sum = |s: &PoolStats, f: fn(&blame_coercion::WorkerStats) -> u64| -> u64 {
        s.workers.iter().map(f).sum()
    };
    let promotions = s1.promotions - s0.promotions;
    let mut m = Metrics::new();
    m.insert("pool.steals_per_job", per_job(s0.steals(), s1.steals()));
    m.insert(
        "pool.coercion_base_hit_rate",
        ratio(
            (s1.coercion_base_hits() - s0.coercion_base_hits()) as f64,
            (s1.coercion_probes() - s0.coercion_probes()) as f64,
        ),
    );
    m.insert(
        "pool.compose_base_hit_rate",
        ratio(
            (sum(s1, |w| w.compose_base_hits()) - sum(s0, |w| w.compose_base_hits())) as f64,
            (sum(s1, |w| w.compose_probes()) - sum(s0, |w| w.compose_probes())) as f64,
        ),
    );
    m.insert("pool.promotions", promotions as f64);
    m.insert(
        "pool.promotion_us",
        ratio(
            (s1.promotion_ns - s0.promotion_ns) as f64,
            promotions as f64,
        ) / 1e3,
    );
    m.insert("pool.respawns", (s1.respawns - s0.respawns) as f64);
    m.insert("sched.slices_per_job", per_job(s0.slices(), s1.slices()));
    m.insert(
        "sched.preemptions_per_job",
        per_job(s0.preemptions(), s1.preemptions()),
    );
    m.insert(
        "sched.deadline_misses",
        (s1.deadline_misses() - s0.deadline_misses()) as f64,
    );
    m.insert(
        "gtlc.type_nodes_new_per_op",
        per_job(s0.local_type_nodes(), s1.local_type_nodes()),
    );
    m.insert(
        "core.coercion_nodes_new_per_op",
        per_job(s0.local_coercion_nodes(), s1.local_coercion_nodes()),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool with no room rejects every job during submission, so
    /// every `on_ready` fires inline; the loop must still count each
    /// completion and end.
    #[test]
    fn closed_loop_ends_when_every_job_resolves_synchronously() {
        let pool = SessionPool::builder()
            .workers(1)
            .queue_capacity(0)
            .build()
            .expect("an empty warmup builds");
        let (result, _) = drive(&pool, &Traffic::new(1), 0.2, false, None);
        assert!(result.attempted > 0);
        assert_eq!(result.failed, result.attempted);
        assert!(
            result.failures.iter().all(|f| f.contains("rejected")),
            "{:?}",
            result.failures
        );
    }
}
