//! Chrome-trace JSON export: load a simulated batch into
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The emitted file uses the Trace Event Format's JSON-object form:
//! complete (`"ph": "X"`) events carry each task span, thread-name
//! metadata labels one lane per resource, and counter (`"ph": "C"`)
//! events plot the buffer-occupancy curve. Timestamps are microseconds in
//! the format; the exporter writes **1 cycle = 1 µs**, so the viewer's
//! time axis reads directly in cycles.
//!
//! Event assembly goes through [`adagp_obs::trace::TraceEvents`], the
//! same builder the measured (pid 2) exporter uses — the two trace
//! families share one field layout by construction.

use crate::engine::SimResult;
use adagp_obs::trace::TraceEvents;
use serde::Value;
use std::path::Path;

/// Process id used for compute lanes in the exported trace.
const PID: u64 = 1;

/// Renders a simulation as a Chrome-trace JSON string.
pub fn chrome_trace(result: &SimResult, title: &str) -> String {
    let mut t = TraceEvents::new();
    t.process_name(PID, title);
    let graph = &result.tasks;
    for (tid, r) in graph.resources().iter().enumerate() {
        t.thread_name(PID, tid as u64, &r.name);
    }
    for span in &result.spans {
        let Some(tid) = graph.resource(span.task) else {
            continue; // synchronization nodes are not drawn
        };
        let mut args = vec![("task", Value::UInt(span.task as u64))];
        if let Some(layer) = graph.layer(span.task) {
            args.push(("layer", Value::UInt(layer as u64)));
        }
        t.complete(
            PID,
            tid as u64,
            &graph.label(span.task),
            graph.kind(span.task).name(),
            Value::UInt(span.start),
            Value::UInt(span.end - span.start),
            Some(Value::object(args)),
        );
    }
    for &(cycle, words) in &result.buffer_curve {
        t.counter(
            PID,
            "buffer occupancy",
            Value::UInt(cycle),
            Value::object(vec![("words", Value::Int(words))]),
        );
    }
    t.finish("ns", vec![])
}

/// Writes the Chrome trace of `result` to `path`.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_chrome_trace(path: &Path, result: &SimResult, title: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(result, title))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimBuilder, TaskKind, TaskSpec};

    fn tiny_result() -> SimResult {
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe-array", 1);
        let t0 = TaskSpec {
            label: "fwd l0".into(),
            kind: TaskKind::Forward,
            layer: Some(0),
            resource: Some(pe),
            duration: 10,
            deps: vec![],
            buffer_delta: 64,
        };
        let a = b.add_task(t0);
        b.add_task(TaskSpec::join("end", vec![a]));
        b.simulate()
    }

    #[test]
    fn trace_is_valid_json_with_expected_events() {
        let text = chrome_trace(&tiny_result(), "unit test");
        let v = serde::json::parse_value(&text).expect("valid JSON");
        let Value::Object(fields) = v else {
            panic!("trace root must be an object")
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents present");
        let Value::Array(events) = events else {
            panic!("traceEvents must be an array")
        };
        // process_name + thread_name + 1 span (join skipped) + 1 counter.
        assert_eq!(events.len(), 4);
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ph\": \"C\""));
        assert!(text.contains("fwd l0"));
        assert!(!text.contains("\"join"), "joins are not drawn");
    }

    #[test]
    fn cycle_timestamps_survive_the_round_trip() {
        let text = chrome_trace(&tiny_result(), "t");
        assert!(text.contains("\"ts\": 0"));
        assert!(text.contains("\"dur\": 10"));
    }
}
