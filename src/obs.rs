//! The pool's counters and its observability bundle.
//!
//! [`PoolCounters`] is the only store of every count the
//! [`SessionPool`](crate::SessionPool) keeps: per-worker cells for
//! resolutions by outcome, steals, slices, preemptions and retired
//! sessions, plus pool-wide promotions, respawns and the promotion-cost
//! histogram. Each worker writes only its own cells, with wait-free
//! `fetch_add`s. [`PoolStats`] is a typed read of these cells, and the
//! exposition renders the same cells (summed over workers at render
//! time), so the two views agree by construction. The counters exist
//! in every pool, because they are `PoolStats`.
//!
//! [`PoolObs`] is what [`SessionPoolBuilder::no_observability`] turns
//! off: the latency and queue-wait histograms, the bounded
//! [`AuditSink`] the workers emit per-job records into, and the
//! [`Registry`] that renders everything. Gauges (queue depths, epoch,
//! base hit rates) are *polled*: they are refreshed from a
//! [`PoolStats`] snapshot at render time rather than written on the
//! job path, so a gauge read costs serving nothing.
//!
//! [`SessionPoolBuilder::no_observability`]:
//! crate::SessionPoolBuilder::no_observability

use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::Duration;

use bc_obs::{AuditOutcome, AuditRecord, AuditSink, Counter, Gauge, Histogram, Registry};

use crate::pool::PoolStats;

/// Default retention of the audit ring (records, not bytes): deep
/// enough that a drain cadence of "every few thousand jobs" loses
/// nothing, small enough (~a few hundred KiB of flat records) to be
/// an always-on default.
pub(crate) const DEFAULT_AUDIT_CAPACITY: usize = 8192;

/// Saturating nanosecond conversion (a `Duration` past `u64::MAX`
/// nanoseconds is ~585 years; clamping is academic but total).
pub(crate) fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One worker's counters. The worker is the only writer, except for
/// the `Rejected` outcome, which the submitting thread bumps on the
/// worker it refused.
#[derive(Debug, Default)]
pub(crate) struct WorkerCells {
    /// Resolutions by outcome, indexed by [`AuditOutcome::index`].
    outcomes: [Arc<Counter>; AuditOutcome::ALL.len()],
    pub(crate) steals: Arc<Counter>,
    pub(crate) slices: Arc<Counter>,
    pub(crate) preemptions: Arc<Counter>,
    pub(crate) sessions_retired: Arc<Counter>,
    /// Jobs parked in the worker's run queue (a gauge).
    pub(crate) parked_depth: AtomicUsize,
    /// Whether the worker's thread exited after a panic and no
    /// replacement has started yet.
    pub(crate) dead: AtomicBool,
}

impl WorkerCells {
    /// The cell counting resolutions with `outcome`.
    pub(crate) fn outcome(&self, outcome: AuditOutcome) -> &Arc<Counter> {
        &self.outcomes[outcome.index()]
    }
}

/// Every count the pool keeps, each in exactly one cell.
#[derive(Debug)]
pub(crate) struct PoolCounters {
    pub(crate) workers: Vec<WorkerCells>,
    pub(crate) promotions: Arc<Counter>,
    pub(crate) respawns: Arc<Counter>,
    /// Wall-clock cost of each promotion (freeze-append, validation,
    /// publish), nanoseconds.
    pub(crate) promotion_ns: Arc<Histogram>,
}

impl PoolCounters {
    pub(crate) fn new(workers: usize) -> PoolCounters {
        PoolCounters {
            workers: (0..workers).map(|_| WorkerCells::default()).collect(),
            promotions: Arc::default(),
            respawns: Arc::default(),
            promotion_ns: Arc::default(),
        }
    }

    /// One cell from every worker: the cells one series sums.
    fn per_worker(&self, cell: impl Fn(&WorkerCells) -> &Arc<Counter>) -> Vec<Arc<Counter>> {
        self.workers.iter().map(|w| Arc::clone(cell(w))).collect()
    }
}

/// The registry, the job histograms, the polled gauges and the audit
/// sink. Counter series are the [`PoolCounters`] cells, attached;
/// nothing here stores a count of its own.
#[derive(Debug)]
pub(crate) struct PoolObs {
    registry: Registry,
    /// End-to-end latency (submission → resolution), nanoseconds.
    latency: Arc<Histogram>,
    /// Time queued before a worker first claimed the job,
    /// nanoseconds.
    pub(crate) queue_wait: Arc<Histogram>,
    epoch: Arc<Gauge>,
    workers: Arc<Gauge>,
    base_hit_rate: Arc<Gauge>,
    compose_base_hit_rate: Arc<Gauge>,
    queue_depth: Vec<Arc<Gauge>>,
    parked_depth: Vec<Arc<Gauge>>,
    sink: AuditSink,
}

impl PoolObs {
    pub(crate) fn new(counters: &PoolCounters, audit_capacity: usize) -> PoolObs {
        let registry = Registry::new();
        for outcome in AuditOutcome::ALL {
            registry.attach_counter(
                "bc_jobs_total",
                "Jobs resolved, by outcome.",
                &[("outcome", outcome.as_str())],
                &counters.per_worker(|w| w.outcome(outcome)),
            );
        }
        let sink = AuditSink::new(audit_capacity);
        for (name, help, cells) in [
            (
                "bc_slices_total",
                "Scheduling turns executed (one job, up to one slice budget of steps).",
                counters.per_worker(|w| &w.slices),
            ),
            (
                "bc_preemptions_total",
                "Slices that ended with the job parked rather than finished.",
                counters.per_worker(|w| &w.preemptions),
            ),
            (
                "bc_steals_total",
                "Jobs claimed from a sibling worker's queue.",
                counters.per_worker(|w| &w.steals),
            ),
            (
                "bc_promotions_total",
                "Overlay-to-base promotions published.",
                vec![Arc::clone(&counters.promotions)],
            ),
            (
                "bc_respawns_total",
                "Workers respawned after a caught serve panic.",
                vec![Arc::clone(&counters.respawns)],
            ),
            (
                "bc_sessions_retired_total",
                "Worker sessions retired (epoch adoptions + panic recoveries).",
                counters.per_worker(|w| &w.sessions_retired),
            ),
            (
                "bc_audit_dropped_total",
                "Audit records evicted from the ring without being drained.",
                vec![sink.dropped_cell()],
            ),
        ] {
            registry.attach_counter(name, help, &[], &cells);
        }
        let latency = registry.histogram(
            "bc_job_latency_ns",
            "End-to-end job latency (submission to resolution), nanoseconds.",
            &[],
        );
        let queue_wait = registry.histogram(
            "bc_job_queue_wait_ns",
            "Time a job waited in a queue before a worker claimed it, nanoseconds.",
            &[],
        );
        registry.attach_histogram(
            "bc_promotion_ns",
            "Wall-clock cost of each promotion (freeze, validate, publish), nanoseconds.",
            &[],
            &counters.promotion_ns,
        );
        let epoch = registry.gauge("bc_epoch", "Current base epoch (1 = warmup).", &[]);
        let workers_gauge = registry.gauge("bc_workers", "Worker threads.", &[]);
        let base_hit_rate = registry.gauge(
            "bc_coercion_base_hit_rate",
            "Fraction of coercion-intern probes answered by the frozen base, \
             cumulative across epochs.",
            &[],
        );
        let compose_base_hit_rate = registry.gauge(
            "bc_compose_base_hit_rate",
            "Fraction of compositions answered by a frozen pair table, \
             cumulative across epochs.",
            &[],
        );
        let per_worker_gauge = |name: &str, help: &str| -> Vec<Arc<Gauge>> {
            (0..counters.workers.len())
                .map(|i| registry.gauge(name, help, &[("worker", &i.to_string())]))
                .collect()
        };
        let queue_depth = per_worker_gauge(
            "bc_queue_depth",
            "Jobs waiting in this worker's intake queue.",
        );
        let parked_depth = per_worker_gauge(
            "bc_parked_depth",
            "Jobs parked mid-run in this worker's run queue.",
        );
        PoolObs {
            registry,
            latency,
            queue_wait,
            epoch,
            workers: workers_gauge,
            base_hit_rate,
            compose_base_hit_rate,
            queue_depth,
            parked_depth,
            sink,
        }
    }

    /// Records one job resolution: the latency histogram (every
    /// resolved job lands here exactly once, so its `_count` equals
    /// jobs resolved) and one audit record. Wait-free except for the
    /// audit ring's push mutex.
    pub(crate) fn resolved(&self, record: AuditRecord) {
        self.latency.record(record.latency_ns);
        self.sink.emit(record);
    }

    /// The audit stream.
    pub(crate) fn sink(&self) -> &AuditSink {
        &self.sink
    }

    /// Refreshes the polled gauges from a stats snapshot, then renders
    /// the full text exposition.
    pub(crate) fn render(&self, stats: &PoolStats) -> String {
        self.epoch.set(stats.epoch as f64);
        self.workers.set(stats.workers.len() as f64);
        self.base_hit_rate.set(stats.coercion_base_hit_rate());
        self.compose_base_hit_rate
            .set(stats.compose_base_hit_rate());
        for (gauge, w) in self.queue_depth.iter().zip(&stats.workers) {
            gauge.set(w.queue_depth as f64);
        }
        for (gauge, w) in self.parked_depth.iter().zip(&stats.workers) {
            gauge.set(w.parked_depth as f64);
        }
        self.registry.render()
    }
}
