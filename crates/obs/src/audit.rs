//! The structured audit stream: one machine-parseable record per
//! resolved job, through a bounded ring that never blocks the
//! emitting (hot) path on a slow consumer.
//!
//! # Overload contract
//!
//! [`AuditSink::emit`] takes the ring's mutex for a push — never for
//! I/O — so an emitter waits at most for another push or for a drain's
//! O(1) buffer swap. When the ring is full the *oldest* record is
//! evicted (the live window tracks current traffic) and
//! [`AuditSink::dropped`] counts it; the accounting is deterministic:
//!
//! ```text
//! emitted() == len() + drained records + dropped()
//! ```
//!
//! holds at every quiescent point, exactly (asserted in
//! `tests/obs.rs`).

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::Counter;

/// How a job resolved, collapsed to the audit vocabulary (success is
/// one outcome; each failure mode is its own, because the analytics
/// fold breaks failures down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditOutcome {
    /// The program evaluated to a value (constant, function, or
    /// injection).
    Value,
    /// The program allocated blame to a cast — the paper's payload;
    /// [`AuditRecord::blame_label`] and [`AuditRecord::cast_site`]
    /// carry the label.
    Blame,
    /// The fuel bound was reached.
    FuelExhausted,
    /// A loaded term lied about its type.
    IllTyped,
    /// The source failed to lex, parse, or gradually type check.
    CompileError,
    /// The wall-clock deadline passed before the job finished.
    DeadlineExceeded,
    /// The submitter canceled the job.
    Canceled,
    /// The serving worker panicked mid-job (and respawned).
    WorkerPanicked,
    /// Backpressure refused the submission before it entered a queue.
    Rejected,
}

impl AuditOutcome {
    /// Every outcome, in a fixed order (registration order for the
    /// per-outcome counters).
    pub const ALL: [AuditOutcome; 9] = [
        AuditOutcome::Value,
        AuditOutcome::Blame,
        AuditOutcome::FuelExhausted,
        AuditOutcome::IllTyped,
        AuditOutcome::CompileError,
        AuditOutcome::DeadlineExceeded,
        AuditOutcome::Canceled,
        AuditOutcome::WorkerPanicked,
        AuditOutcome::Rejected,
    ];

    /// The snake-case wire name (metric label value and JSON field).
    pub fn as_str(self) -> &'static str {
        match self {
            AuditOutcome::Value => "value",
            AuditOutcome::Blame => "blame",
            AuditOutcome::FuelExhausted => "fuel_exhausted",
            AuditOutcome::IllTyped => "ill_typed",
            AuditOutcome::CompileError => "compile_error",
            AuditOutcome::DeadlineExceeded => "deadline_exceeded",
            AuditOutcome::Canceled => "canceled",
            AuditOutcome::WorkerPanicked => "worker_panicked",
            AuditOutcome::Rejected => "rejected",
        }
    }

    /// The position of this outcome in [`AuditOutcome::ALL`] (which
    /// lists the variants in declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for AuditOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One resolved job, flattened to `Send + 'static` scalars and
/// strings — no arena ids, no term trees, nothing session-bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Global emission sequence number (gaps mean dropped records).
    pub seq: u64,
    /// Worker that resolved the job.
    pub worker: usize,
    /// Base epoch the worker served under.
    pub epoch: u64,
    /// Engine slug (`"MachineS"`, `"LambdaS"`, …). A static string:
    /// the engine set is closed, so the per-job record costs no
    /// allocation here.
    pub engine: &'static str,
    /// How the job resolved.
    pub outcome: AuditOutcome,
    /// The blamed label's display form (e.g. `"p1"` or `"¬p1"`), when
    /// the outcome is [`AuditOutcome::Blame`].
    pub blame_label: Option<String>,
    /// The blamed cast site: the label's allocation id, stable across
    /// workers because labels are minted per-compile in source order —
    /// structurally identical sources agree on it everywhere.
    pub cast_site: Option<u32>,
    /// Machine/reduction steps actually executed.
    pub steps: u64,
    /// Peak continuation frames (machine engines; 0 otherwise).
    pub peak_frames: u64,
    /// Peak *cast* frames — the λB/λC space-leak signal the paper's
    /// λS design eliminates (machine engines; 0 otherwise).
    pub peak_cast_frames: u64,
    /// Whether the job travelled pre-compiled (no parse on the
    /// worker).
    pub compiled: bool,
    /// Wall-clock nanoseconds from submission to resolution.
    pub latency_ns: u64,
    /// Wall-clock nanoseconds the job waited before a worker first
    /// picked it up (0 for rejections).
    pub queue_wait_ns: u64,
    /// The source's digit-stripped shape key (see
    /// [`crate::shape_key`]): one key per structural family.
    pub shape: String,
}

/// Minimal JSON string escaping (quote, backslash, control chars).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl AuditRecord {
    /// The record as one JSON object (no trailing newline) — the line
    /// format [`AuditSink::drain_to`] writes. Hand-rolled: the build
    /// is offline, and the schema is flat scalars.
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"seq\":{},\"worker\":{},\"epoch\":{},\"engine\":\"{}\",\"outcome\":\"{}\"",
            self.seq,
            self.worker,
            self.epoch,
            escape_json(self.engine),
            self.outcome
        );
        if let Some(label) = &self.blame_label {
            let _ = write!(out, ",\"blame_label\":\"{}\"", escape_json(label));
        }
        if let Some(site) = self.cast_site {
            let _ = write!(out, ",\"cast_site\":{site}");
        }
        let _ = write!(
            out,
            ",\"steps\":{},\"peak_frames\":{},\"peak_cast_frames\":{},\"compiled\":{},\
             \"latency_ns\":{},\"queue_wait_ns\":{},\"shape\":\"{}\"}}",
            self.steps,
            self.peak_frames,
            self.peak_cast_frames,
            self.compiled,
            self.latency_ns,
            self.queue_wait_ns,
            escape_json(&self.shape)
        );
        out
    }
}

/// The bounded audit ring. See the [module docs](self) for the
/// overload contract.
#[derive(Debug)]
pub struct AuditSink {
    ring: Mutex<VecDeque<AuditRecord>>,
    capacity: usize,
    seq: AtomicU64,
    /// The drop count is itself a [`Counter`] so it can be registered
    /// in a [`crate::Registry`] (via [`Registry::attach_counter`]) and
    /// rendered alongside the metrics it explains.
    ///
    /// [`Registry::attach_counter`]: crate::Registry::attach_counter
    dropped: Arc<Counter>,
}

impl AuditSink {
    /// A sink retaining at most `capacity` undrained records
    /// (`capacity` is clamped to ≥ 1).
    pub fn new(capacity: usize) -> AuditSink {
        AuditSink {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: Arc::new(Counter::new()),
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Emits one record, stamping its sequence number. Never blocks on
    /// a consumer: a full ring evicts its oldest record (counted in
    /// [`AuditSink::dropped`]) and the push proceeds.
    pub fn emit(&self, mut record: AuditRecord) {
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.inc();
        }
        ring.push_back(record);
    }

    /// Records emitted so far (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Records evicted without being drained.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The drop count's live [`Counter`] cell, for registering the
    /// sink's loss accounting in a [`crate::Registry`].
    pub fn dropped_cell(&self) -> Arc<Counter> {
        Arc::clone(&self.dropped)
    }

    /// Undrained records currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every buffered record (oldest first), leaving the ring
    /// empty. O(1) under the lock — the buffer is swapped out whole.
    pub fn drain(&self) -> Vec<AuditRecord> {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *ring).into()
    }

    /// Drains into `out` as JSON lines (one [`AuditRecord::to_json`]
    /// per line), returning how many records were written. The I/O
    /// happens *after* the buffer swap — a slow writer never holds the
    /// ring's lock, so emitters never wait on it.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error; records already taken from the
    /// ring are lost with it (the audit stream is lossy by contract —
    /// prefer an infallible writer for exact capture).
    pub fn drain_to(&self, out: &mut dyn Write) -> io::Result<usize> {
        let records = self.drain();
        for record in &records {
            writeln!(out, "{}", record.to_json())?;
        }
        Ok(records.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(shape: &str) -> AuditRecord {
        AuditRecord {
            seq: 0,
            worker: 0,
            epoch: 1,
            engine: "MachineS",
            outcome: AuditOutcome::Value,
            blame_label: None,
            cast_site: None,
            steps: 10,
            peak_frames: 2,
            peak_cast_frames: 0,
            compiled: true,
            latency_ns: 1_000,
            queue_wait_ns: 100,
            shape: shape.to_owned(),
        }
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_exactly() {
        let sink = AuditSink::new(3);
        for i in 0..10 {
            sink.emit(record(&format!("shape-{i}")));
        }
        assert_eq!(sink.emitted(), 10);
        assert_eq!(sink.dropped(), 7);
        let kept = sink.drain();
        assert_eq!(kept.len(), 3);
        // The live window is the newest records, with their original
        // sequence numbers intact.
        assert_eq!(
            kept.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        // Draining resets the window but not the accounting.
        sink.emit(record("after"));
        assert_eq!(sink.emitted(), 11);
        assert_eq!(sink.dropped(), 7);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn json_lines_are_flat_and_escaped() {
        let sink = AuditSink::new(8);
        let mut r = record("let f = fun x => x + \"q\" in f");
        r.outcome = AuditOutcome::Blame;
        r.blame_label = Some("¬p1".to_owned());
        r.cast_site = Some(1);
        sink.emit(r);
        let mut buf = Vec::new();
        assert_eq!(sink.drain_to(&mut buf).expect("vec writes"), 1);
        let line = String::from_utf8(buf).expect("utf8");
        assert!(line.ends_with('\n'));
        assert!(line.contains("\"outcome\":\"blame\""));
        assert!(line.contains("\"blame_label\":\"¬p1\""));
        assert!(line.contains("\"cast_site\":1"));
        assert!(line.contains("\\\"q\\\""));
        assert_eq!(sink.len(), 0);
    }
}
