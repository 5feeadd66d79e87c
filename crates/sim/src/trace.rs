//! Chrome-trace JSON export: load a simulated batch into
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The emitted file uses the Trace Event Format's JSON-object form:
//! complete (`"ph": "X"`) events carry each task span, thread-name
//! metadata labels one lane per resource port, and counter (`"ph": "C"`)
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

/// The lanes of every resource port: port 0 of resource `r` is lane `r`,
/// and the further ports of multi-port resources are numbered after the
/// last resource, so a trace of one-port resources keeps one lane per
/// resource, numbered as the resources are.
fn port_lanes(result: &SimResult) -> Vec<Vec<u64>> {
    let resources = result.tasks.resources();
    let mut next = resources.len() as u64..;
    (0..resources.len() as u64)
        .zip(resources)
        .map(|(r, spec)| {
            std::iter::once(r)
                .chain(next.by_ref().take(spec.capacity as usize - 1))
                .collect()
        })
        .collect()
}

/// The lane each span is drawn on, indexed like `result.spans` (`None`
/// for resourceless tasks). Spans are sorted by start, and the engine
/// never runs more tasks on a resource than it has ports, so each task
/// takes the lowest port free at its start and no two spans of one port
/// partially overlap. Only a zero-length span can find every port busy
/// (the engine admitted and finished it before a same-cycle span that
/// sorts ahead of it); a point nests in any span, so it takes port 0.
fn span_lanes(result: &SimResult, lanes: &[Vec<u64>]) -> Vec<Option<u64>> {
    let graph = &result.tasks;
    // Per resource, the end cycle of each port's latest span.
    let mut free_at: Vec<Vec<u64>> = lanes.iter().map(|l| vec![0; l.len()]).collect();
    result
        .spans
        .iter()
        .map(|span| {
            let r = graph.resource(span.task)?;
            let port = free_at[r]
                .iter()
                .position(|&end| end <= span.start)
                .unwrap_or(0);
            free_at[r][port] = free_at[r][port].max(span.end);
            Some(lanes[r][port])
        })
        .collect()
}

/// Renders a simulation as a Chrome-trace JSON string.
pub fn chrome_trace(result: &SimResult, title: &str) -> String {
    let mut t = TraceEvents::new();
    t.process_name(PID, title);
    let graph = &result.tasks;
    let lanes = port_lanes(result);
    for (r, ports) in graph.resources().iter().zip(&lanes) {
        if let [tid] = ports[..] {
            t.thread_name(PID, tid, &r.name);
        } else {
            for (port, &tid) in ports.iter().enumerate() {
                t.thread_name(PID, tid, &format!("{} port {port}", r.name));
            }
        }
    }
    for (span, tid) in result.spans.iter().zip(span_lanes(result, &lanes)) {
        let Some(tid) = tid else {
            continue; // synchronization nodes are not drawn
        };
        let mut args = vec![("task", Value::UInt(span.task as u64))];
        if let Some(layer) = graph.layer(span.task) {
            args.push(("layer", Value::UInt(layer as u64)));
        }
        t.complete(
            PID,
            tid,
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
    fn multi_port_tasks_get_one_nested_lane_per_port() {
        // On a 2-port resource `a` and `b` start together; `c` takes the
        // port `a` frees and outlives `b`, so on a shared lane it would
        // partially overlap `b`.
        let mut b = SimBuilder::new();
        let dram = b.add_resource("dram", 2);
        let pe = b.add_resource("pe-array", 1);
        let task = |label: &str, resource, duration| TaskSpec {
            label: label.into(),
            kind: TaskKind::Forward,
            layer: None,
            resource: Some(resource),
            duration,
            deps: vec![],
            buffer_delta: 0,
        };
        for (label, duration) in [("a", 10), ("b", 30), ("c", 30)] {
            b.add_task(task(label, dram, duration));
        }
        b.add_task(task("p", pe, 7));
        let text = chrome_trace(&b.simulate(), "ports");
        let stats = adagp_obs::validate_chrome_trace(&text).expect("ports nest");
        assert_eq!(stats.lanes, 3);
        let root = serde::json::parse_value(&text).unwrap();
        let Ok(Value::Array(events)) = root.field("traceEvents") else {
            panic!("traceEvents must be an array")
        };
        // The lane of the span labelled `name`, or of the lane named
        // `name` (a thread-name event carries it in `args`).
        let tid_of = |name: &str| {
            let named = |v: &Value| v.field("name").ok().and_then(Value::as_str) == Some(name);
            let ev = events
                .iter()
                .find(|ev| named(ev) || ev.field("args").is_ok_and(named))
                .expect("event present");
            ev.field("tid").ok().and_then(Value::as_u64).unwrap()
        };
        // Port 0 keeps the resource's lane; port 1 comes after the last
        // resource's.
        assert_eq!(tid_of("dram port 0"), 0);
        assert_eq!(tid_of("pe-array"), 1);
        assert_eq!(tid_of("dram port 1"), 2);
        assert_eq!(["a", "b", "c", "p"].map(tid_of), [0, 2, 0, 1]);
    }

    #[test]
    fn a_zero_length_span_nests_on_a_busy_port() {
        // `z` waits behind `x` and runs in cycle 5 just before `y`, which
        // sorts ahead of it: `y` holds the only port when `z` is placed.
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe-array", 1);
        let task = |duration, deps| TaskSpec {
            label: "t".into(),
            kind: TaskKind::Forward,
            layer: None,
            resource: Some(pe),
            duration,
            deps,
            buffer_delta: 0,
        };
        let x = b.add_task(task(5, vec![]));
        let y = b.add_task(task(5, vec![x]));
        let z = b.add_task(task(0, vec![]));
        let result = b.simulate();
        assert_eq!((result.start_of[y], result.start_of[z]), (5, 5));
        let text = chrome_trace(&result, "zero");
        adagp_obs::validate_chrome_trace(&text).expect("a point nests");
    }

    #[test]
    fn cycle_timestamps_survive_the_round_trip() {
        let text = chrome_trace(&tiny_result(), "t");
        assert!(text.contains("\"ts\": 0"));
        assert!(text.contains("\"dur\": 10"));
    }
}
