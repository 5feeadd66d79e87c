//! The benchmark's own span recorder: spans are opened and closed from the
//! benchmark's files, around the calls into each layer, kept in memory and
//! written out once at exit. Every traced operation is re-issued on one
//! thread, so a stack of open spans gives each span its parent.

use adagp_obs::TraceEvents;
use serde::Value;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in the recorder.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation (batch, cell or
    /// request).
    pub op: u64,
    /// What was called.
    pub name: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span recorder. A disabled recorder takes no timestamps, so
/// the untraced arm of a traced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation identifier stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            layer,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as a Chrome-trace file (`chrome://tracing`,
    /// Perfetto); each event's `args` carry id, parent, op, layer and
    /// self time.
    pub fn write(&self, path: &Path, title: &str) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut events = TraceEvents::new();
        events.process_name(1, title);
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            events.complete(
                1,
                1,
                s.name,
                s.layer,
                Value::Float(s.start_ns as f64 / 1e3),
                Value::Float(s.dur_ns() as f64 / 1e3),
                Some(Value::object(vec![
                    ("id", Value::UInt(s.id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("op", Value::UInt(s.op)),
                    ("layer", Value::String(s.layer.to_string())),
                    ("self_us", Value::Float(self_ns as f64 / 1e3)),
                ])),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, events.finish("ms", Vec::new()))
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover. Children of one parent never overlap here (one
/// thread, stack discipline), so the covered part is the sum of their
/// durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name: "x",
            layer: "bench",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let mut tr = Tracer::new(true);
        tr.set_op(3);
        let outer = tr.begin("core", "batch");
        tr.span("nn", "forward", || std::hint::black_box(1 + 1));
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tr.durations_ms("forward").len(), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.begin("core", "batch");
        tr.end(o);
        assert!(tr.spans().is_empty());
    }
}
