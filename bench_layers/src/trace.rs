//! In-memory spans recorded around the calls into each layer's public functions.
//!
//! A span is `{id, parent, op_id, layer, name, start_ns, end_ns}`; spans of one
//! operation share `op_id`. Spans stay in memory while the workload runs and are
//! written out as JSON lines when it ends. A span's self time is its duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is `0` for a root span (ids start at 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based, unique within one tracer.
    pub id: u32,
    /// Id of the span that caused this one, or 0.
    pub parent: u32,
    /// The operation the span belongs to.
    pub op_id: u32,
    /// The repo module the call went into.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Records spans for one thread of the benchmark. A tracer that is off records
/// nothing and reads no clock, so untraced and traced phases share their code.
pub struct Tracer {
    /// The phase is traced; `None` for a tracer that never records.
    epoch: Option<Instant>,
    /// Spans are being recorded right now (see [`Tracer::record`]).
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    /// A recording tracer measuring from `epoch`; threads of one run share the epoch.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer::for_phase(Some(epoch))
    }

    /// A tracer that never records.
    pub fn off() -> Tracer {
        Tracer::for_phase(None)
    }

    /// The tracer of one thread of a phase: recording from the phase's epoch
    /// when the phase is traced, off otherwise.
    pub fn for_phase(epoch: Option<Instant>) -> Tracer {
        Tracer {
            epoch,
            recording: epoch.is_some(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Switch recording on or off between operations of a traced phase (a
    /// tracer that is off stays off). Returns whether spans are recorded now.
    pub fn record(&mut self, on: bool) -> bool {
        assert!(self.open.is_empty(), "spans still open");
        self.recording = on && self.epoch.is_some();
        self.recording
    }

    /// Start the next operation: spans opened from now on carry a new `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        let Some(epoch) = self.epoch.filter(|_| self.recording) else {
            return;
        };
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op_id: self.op_id,
            layer,
            name,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let Some(epoch) = self.epoch.filter(|_| self.recording) else {
            return;
        };
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize - 1].end_ns = epoch.elapsed().as_nanos() as u64;
    }

    /// Take the recorded spans out, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time in nanoseconds per layer: every span's duration minus its direct
/// children's durations, summed by the span's layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for span in spans {
        child_ns[span.parent as usize] += span.end_ns - span.start_ns;
    }
    let mut by_layer = BTreeMap::new();
    for span in spans {
        let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[span.id as usize]);
        *by_layer.entry(span.layer).or_insert(0) += own;
    }
    by_layer
}

/// Total duration in nanoseconds and number of the spans named `layer`/`name`.
pub fn total_ns(spans: &[Span], layer: &str, name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
}

/// Spans written per thread; a traced run of millions of microsecond
/// transactions records more than is worth keeping on disk.
const MAX_WRITTEN_PER_THREAD: usize = 100_000;

/// Write spans as JSON lines, the first [`MAX_WRITTEN_PER_THREAD`] of every
/// thread. Threads' span lists are written one after the other; `thread` tells
/// them apart, ids are unique within a thread.
pub fn write_jsonl(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for s in spans.iter().take(MAX_WRITTEN_PER_THREAD) {
            writeln!(
                out,
                "{{\"thread\": {thread}, \"id\": {}, \"parent\": {}, \"op_id\": {}, \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op_id, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            layer,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // exec.scan [0,100) { blockstore [10,40), datablocks [40,90) { dbsimd [50,60) } }
        let spans = vec![
            span(1, 0, "exec.scan", 0, 100),
            span(2, 1, "storage.blockstore", 10, 40),
            span(3, 1, "datablocks", 40, 90),
            span(4, 3, "dbsimd", 50, 60),
        ];
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["exec.scan"], 20);
        assert_eq!(by_layer["storage.blockstore"], 30);
        assert_eq!(by_layer["datablocks"], 40);
        assert_eq!(by_layer["dbsimd"], 10);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_numbers_spans() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.next_op();
        tracer.enter("a", "outer");
        tracer.enter("b", "inner");
        tracer.exit();
        tracer.exit();
        tracer.next_op();
        tracer.enter("a", "outer");
        tracer.exit();
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].id, spans[0].parent, spans[0].op_id), (1, 0, 1));
        assert_eq!((spans[1].id, spans[1].parent, spans[1].op_id), (2, 1, 1));
        assert_eq!((spans[2].id, spans[2].parent, spans[2].op_id), (3, 0, 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(total_ns(&spans, "a", "outer").1, 2);
    }

    #[test]
    fn a_tracer_that_is_off_or_paused_records_nothing() {
        let mut tracer = Tracer::off();
        assert!(!tracer.record(true));
        tracer.enter("a", "x");
        tracer.exit();
        assert!(tracer.take().is_empty());

        let mut tracer = Tracer::new(Instant::now());
        assert!(!tracer.record(false));
        tracer.enter("a", "x");
        tracer.exit();
        assert!(tracer.record(true));
        tracer.enter("a", "y");
        tracer.exit();
        let spans = tracer.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "y");
    }
}
