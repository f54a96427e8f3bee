//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! op share the op's id. Every span feeds per-name totals (count, time,
//! self time = time minus the time its child spans cover). The full
//! spans of the first [`Tracer::new`]`(keep_ops)` ops are also kept in
//! memory and written out as JSON lines when the run ends, so the
//! trace file stays bounded however long the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    op: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has begun but not ended.
#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    kept: Option<usize>,
}

/// Per-name span totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans ended.
    pub count: u64,
    /// Summed span time.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    keep_ops: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// A recorder keeping the full spans of ops `0..keep_ops`.
    pub fn new(keep_ops: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            keep_ops,
            open: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Sets the op id later spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start = Instant::now();
        let kept = (self.op < self.keep_ops).then(|| {
            self.spans.push(Span {
                op: self.op,
                name,
                parent: self.open.last().and_then(|o| o.kept),
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span, returning its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn end(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.open.pop().expect("end() without a matching begin()");
        let ns = (end - open.start).as_nanos() as u64;
        self.add(open.name, ns, ns.saturating_sub(open.child_ns));
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
        if let Some(i) = open.kept {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Counts `ns` as a leaf child of the innermost open span — for a
    /// stage whose time the system measures and reports itself.
    pub fn child(&mut self, name: &'static str, ns: u64) {
        self.add(name, ns, ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
    }

    /// Adds one span's time to the totals without recording it — for
    /// spans reconstructed from timings the system reports itself.
    pub fn add(&mut self, name: &'static str, total_ns: u64, self_ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += total_ns;
        t.self_ns += self_ns;
    }

    /// Every span name's totals.
    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    /// The totals for one span name.
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time summed per layer: the span-name prefix before the
    /// first `.`.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (name, t) in &self.totals {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_insert(0) += t.self_ns;
        }
        layers
    }

    /// Writes the kept spans to `path`, one JSON object a line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(1);
        t.begin("a.outer");
        t.span("b.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.end();
        let inner = t.total("b.inner");
        let a = t.total("a.outer");
        assert_eq!(a.total_ns, outer);
        assert_eq!(a.self_ns, outer - inner.total_ns);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(t.layer_self_ns().len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
