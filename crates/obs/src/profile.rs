//! Span-tree profile aggregation: the layer that *consumes* the
//! recorder's raw span buffers.
//!
//! [`build_profile`] folds a [`TraceSnapshot`] into one caller→callee
//! tree per lane: spans on a lane nest by interval containment (the
//! recorder's per-thread buffers are properly nested by construction —
//! the same contract [`crate::trace::validate_chrome_trace`] checks), so
//! a single sorted sweep with a stack recovers the call structure, and
//! same-named calls under the same parent merge into one node carrying a
//! call count, **total** time (span extent) and **self** time (extent
//! minus children).
//!
//! Two renderers get the tree out:
//!
//! * [`Profile::collapsed`] — the collapsed-stack text form
//!   (`lane;frame;frame value` lines, one per node, value = self µs) that
//!   `flamegraph.pl`, speedscope and Perfetto's "import collapsed" all
//!   eat directly;
//! * [`Profile::to_json`] — a schema-tagged JSON tree (via the vendored
//!   `serde`) served live by `adagp-serve`'s `GET /profile` endpoint.
//!
//! [`validate_profile`] machine-checks either machine-readable form
//! (JSON tree or collapsed stacks) and enforces the structural
//! invariants downstream tooling relies on: every node has `calls ≥ 1`,
//! `self_us ≤ total_us`, and its children's totals sum to at most its
//! own — the quickstart smoke test and the `serve` CLI tests run
//! exactly this on the collapsed dump and on `/profile`.
//!
//! ## Units and rounding
//!
//! Aggregation is exact in nanoseconds; the renderers floor to
//! microseconds per node. Flooring preserves both invariants
//! (`Σ floor(xᵢ) ≤ floor(Σ xᵢ)`), so a rendered tree always validates.
//!
//! ## Env gating
//!
//! `ADAGP_PROFILE=<path>` mirrors `ADAGP_TRACE`: [`profile_guard_from_env`]
//! enables span recording and writes the collapsed-stack dump to
//! `<path>` when the guard drops (i.e. at exit). Both guards can be held
//! at once — one run then leaves a timeline *and* a flamegraph behind.

use crate::recorder::{self, TraceSnapshot};
use serde::Value;
use std::path::{Path, PathBuf};

/// Environment variable naming the collapsed-stack dump path.
pub const PROFILE_ENV: &str = "ADAGP_PROFILE";

/// Schema tag on the JSON tree form.
pub const PROFILE_SCHEMA: &str = "adagp-profile-v1";

/// One merged call-tree node: every span named `name` recorded under the
/// same caller path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span display name.
    pub name: String,
    /// Spans merged into this node.
    pub calls: u64,
    /// Summed span extents, nanoseconds (children included).
    pub total_ns: u64,
    /// Callees, in first-call order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Summed totals of the direct children, nanoseconds.
    pub fn child_total_ns(&self) -> u64 {
        self.children.iter().map(|c| c.total_ns).sum()
    }

    /// Time spent in this node itself (total minus children),
    /// nanoseconds. The sweep clamps children into their parent's
    /// extent, so this never underflows on well-formed input; the
    /// saturation is belt-and-braces.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_total_ns())
    }

    /// Total time, floored to microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_ns / 1_000
    }

    /// Self time, floored to microseconds.
    pub fn self_us(&self) -> u64 {
        self.self_ns() / 1_000
    }

    /// Nodes in this subtree (this one included).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(ProfileNode::node_count)
            .sum::<usize>()
    }
}

/// One lane's (thread's) call tree plus its rollup numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneProfile {
    /// Lane display name (the recording thread's name).
    pub name: String,
    /// Spans this lane contributed.
    pub spans: u64,
    /// Spans the lane dropped on overflow.
    pub dropped: u64,
    /// Top-level call-tree nodes.
    pub roots: Vec<ProfileNode>,
}

impl LaneProfile {
    /// The lane's busy time: summed root totals, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Nodes in the lane's tree.
    pub fn node_count(&self) -> usize {
        self.roots.iter().map(ProfileNode::node_count).sum()
    }
}

/// A full aggregated profile: one call tree per lane.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    /// Per-lane trees, in lane-registration order (empty lanes omitted).
    pub lanes: Vec<LaneProfile>,
}

// Sweep bookkeeping: one open tree position while scanning a lane.
struct OpenFrame {
    node: usize,
    /// Clamped end of this instance (children may not outlive it).
    end_ns: u64,
    /// End of the last child admitted under this instance (children may
    /// not overlap each other).
    cursor_ns: u64,
}

// Arena node under construction (indices avoid parent borrows).
struct BuildNode {
    name: String,
    calls: u64,
    total_ns: u64,
    children: Vec<usize>,
}

fn freeze(arena: &[BuildNode], idx: usize) -> ProfileNode {
    let n = &arena[idx];
    ProfileNode {
        name: n.name.clone(),
        calls: n.calls,
        total_ns: n.total_ns,
        children: n.children.iter().map(|&c| freeze(arena, c)).collect(),
    }
}

/// Folds a recorder snapshot into per-lane caller→callee trees.
///
/// Spans are sorted by (start ascending, end descending) and swept with
/// a stack, so interval containment becomes parent→child structure and
/// same-named spans under one parent merge. Ill-formed input (partial
/// overlaps, which the recorder never produces on one lane) degrades
/// gracefully: an overlapping span is clamped into the time its parent
/// has left, keeping every invariant the validator checks.
pub fn build_profile(snap: &TraceSnapshot) -> Profile {
    let mut lanes = Vec::new();
    for lane in &snap.lanes {
        if lane.spans.is_empty() && lane.dropped == 0 {
            continue;
        }
        // Index spans and sort: start ascending, end descending, record
        // order as the tiebreak (a parent published after its child —
        // completion order — still sweeps first at equal extents).
        let mut order: Vec<usize> = (0..lane.spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&lane.spans[a], &lane.spans[b]);
            sa.start_ns
                .cmp(&sb.start_ns)
                .then(sb.end_ns.cmp(&sa.end_ns))
                .then(a.cmp(&b))
        });

        let mut arena: Vec<BuildNode> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        let mut stack: Vec<OpenFrame> = Vec::new();
        // The virtual lane root: unbounded extent, its own child cursor.
        let mut root_cursor = 0u64;
        for &i in &order {
            let span = &lane.spans[i];
            while stack.last().is_some_and(|top| top.end_ns <= span.start_ns) {
                stack.pop();
            }
            let (parent_end, parent_cursor) = match stack.last() {
                Some(top) => (top.end_ns, top.cursor_ns),
                None => (u64::MAX, root_cursor),
            };
            // Clamp into the parent's remaining extent: a no-op for
            // well-nested input, a safe degradation otherwise.
            let start = span.start_ns.max(parent_cursor);
            let end = span.end_ns.min(parent_end).max(start);
            let dur = end - start;
            match stack.last_mut() {
                Some(top) => top.cursor_ns = top.cursor_ns.max(end),
                None => root_cursor = root_cursor.max(end),
            }
            let siblings = match stack.last() {
                Some(top) => &arena[top.node].children,
                None => &roots,
            };
            let node = match siblings
                .iter()
                .copied()
                .find(|&c| arena[c].name == span.name)
            {
                Some(existing) => {
                    arena[existing].calls += 1;
                    arena[existing].total_ns += dur;
                    existing
                }
                None => {
                    arena.push(BuildNode {
                        name: span.name.clone(),
                        calls: 1,
                        total_ns: dur,
                        children: Vec::new(),
                    });
                    let fresh = arena.len() - 1;
                    match stack.last() {
                        Some(top) => arena[top.node].children.push(fresh),
                        None => roots.push(fresh),
                    }
                    fresh
                }
            };
            stack.push(OpenFrame {
                node,
                end_ns: end,
                cursor_ns: start,
            });
        }
        lanes.push(LaneProfile {
            name: lane.name.clone(),
            spans: lane.spans.len() as u64,
            dropped: lane.dropped,
            roots: roots.iter().map(|&r| freeze(&arena, r)).collect(),
        });
    }
    Profile { lanes }
}

impl Profile {
    /// Spans across every lane.
    pub fn span_count(&self) -> u64 {
        self.lanes.iter().map(|l| l.spans).sum()
    }

    /// Tree nodes across every lane.
    pub fn node_count(&self) -> usize {
        self.lanes.iter().map(LaneProfile::node_count).sum()
    }

    /// Dropped spans across every lane.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// The collapsed-stack text form: one `lane;frame;…;frame value`
    /// line per tree node, value = the node's **self** time in floored
    /// microseconds. Frames are sanitized (spaces → `_`, `;` → `:`) so
    /// the single-space stack/value split every flamegraph tool performs
    /// stays unambiguous.
    pub fn collapsed(&self) -> String {
        fn frame(name: &str) -> String {
            name.replace(' ', "_").replace(';', ":")
        }
        fn walk(out: &mut String, prefix: &str, node: &ProfileNode) {
            let path = format!("{prefix};{}", frame(&node.name));
            out.push_str(&format!("{path} {}\n", node.self_us()));
            for c in &node.children {
                walk(out, &path, c);
            }
        }
        let mut out = String::new();
        for lane in &self.lanes {
            let lane_frame = frame(&lane.name);
            for root in &lane.roots {
                walk(&mut out, &lane_frame, root);
            }
        }
        out
    }

    /// The JSON tree form (`adagp-profile-v1`): what `GET /profile`
    /// serves and [`validate_profile`] checks.
    pub fn to_json(&self, title: &str) -> String {
        fn node_value(n: &ProfileNode) -> Value {
            Value::object(vec![
                ("name", Value::String(n.name.clone())),
                ("calls", Value::UInt(n.calls)),
                ("total_us", Value::UInt(n.total_us())),
                ("self_us", Value::UInt(n.self_us())),
                (
                    "children",
                    Value::Array(n.children.iter().map(node_value).collect()),
                ),
            ])
        }
        let lanes: Vec<Value> = self
            .lanes
            .iter()
            .map(|l| {
                Value::object(vec![
                    ("name", Value::String(l.name.clone())),
                    ("spans", Value::UInt(l.spans)),
                    ("dropped", Value::UInt(l.dropped)),
                    ("total_us", Value::UInt(l.total_ns() / 1_000)),
                    (
                        "children",
                        Value::Array(l.roots.iter().map(node_value).collect()),
                    ),
                ])
            })
            .collect();
        let root = Value::object(vec![
            ("schema", Value::String(PROFILE_SCHEMA.to_string())),
            ("title", Value::String(title.to_string())),
            ("spans", Value::UInt(self.span_count())),
            ("nodes", Value::UInt(self.node_count() as u64)),
            ("dropped", Value::UInt(self.dropped())),
            ("lanes", Value::Array(lanes)),
        ]);
        let mut out = serde::json::to_string_pretty(&root);
        out.push('\n');
        out
    }
}

/// Shape statistics [`validate_profile`] extracts from a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStats {
    /// Lanes carrying at least one node.
    pub lanes: usize,
    /// Tree nodes (JSON form) or stack lines (collapsed form).
    pub nodes: usize,
    /// Summed root totals (JSON form) or summed line values (collapsed
    /// form), microseconds.
    pub total_us: u64,
}

/// Validates either machine-readable profile form, auto-detected: text
/// starting with `{` is checked as the `adagp-profile-v1` JSON tree
/// (every node: `calls ≥ 1`, `self_us ≤ total_us`, children's totals
/// sum to at most the parent's), anything else as collapsed stacks
/// (every line: a `;`-joined stack of non-empty frames, one space, an
/// unsigned integer value).
///
/// Emptiness is legal here — a disabled recorder yields a valid empty
/// profile. Callers that need substance (the CI scrape, the load test)
/// additionally require `nodes > 0`.
///
/// # Errors
///
/// Returns a description of the first malformed or inconsistent entry.
pub fn validate_profile(text: &str) -> Result<ProfileStats, String> {
    if text.trim_start().starts_with('{') {
        validate_profile_json(text)
    } else {
        validate_collapsed(text)
    }
}

fn validate_profile_json(text: &str) -> Result<ProfileStats, String> {
    let root = serde::json::parse_value(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = root
        .field("schema")
        .ok()
        .and_then(Value::as_str)
        .ok_or("profile without a schema tag")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!("schema `{schema}` is not `{PROFILE_SCHEMA}`"));
    }
    let Value::Array(lanes) = root.field("lanes").map_err(|e| e.message().to_string())? else {
        return Err("`lanes` is not an array".to_string());
    };

    fn check_node(v: &Value, path: &str) -> Result<(usize, u64), String> {
        let name = v
            .field("name")
            .ok()
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: node without a name"))?;
        let path = format!("{path};{name}");
        let num = |k: &str| {
            v.field(k)
                .ok()
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{path}: missing or non-integer `{k}`"))
        };
        let (calls, total_us, self_us) = (num("calls")?, num("total_us")?, num("self_us")?);
        if calls == 0 {
            return Err(format!("{path}: calls is 0"));
        }
        if self_us > total_us {
            return Err(format!(
                "{path}: self_us {self_us} exceeds total_us {total_us}"
            ));
        }
        let Value::Array(children) = v
            .field("children")
            .map_err(|_| format!("{path}: missing `children`"))?
        else {
            return Err(format!("{path}: `children` is not an array"));
        };
        let mut nodes = 1usize;
        let mut child_total = 0u64;
        for c in children {
            let (n, t) = check_node(c, &path)?;
            nodes += n;
            child_total += t;
        }
        if child_total > total_us {
            return Err(format!(
                "{path}: children total {child_total}us exceeds parent total {total_us}us"
            ));
        }
        Ok((nodes, total_us))
    }

    let mut stats = ProfileStats {
        lanes: 0,
        nodes: 0,
        total_us: 0,
    };
    for lane in lanes {
        let lane_name = lane
            .field("name")
            .ok()
            .and_then(Value::as_str)
            .ok_or("lane without a name")?;
        let Value::Array(children) = lane
            .field("children")
            .map_err(|_| format!("lane {lane_name}: missing `children`"))?
        else {
            return Err(format!("lane {lane_name}: `children` is not an array"));
        };
        let mut lane_nodes = 0usize;
        for c in children {
            let (n, t) = check_node(c, lane_name)?;
            lane_nodes += n;
            stats.total_us += t;
        }
        if lane_nodes > 0 {
            stats.lanes += 1;
        }
        stats.nodes += lane_nodes;
    }
    Ok(stats)
}

fn validate_collapsed(text: &str) -> Result<ProfileStats, String> {
    let mut stats = ProfileStats {
        lanes: 0,
        nodes: 0,
        total_us: 0,
    };
    let mut lanes: Vec<&str> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no stack/value separator in `{line}`"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: non-integer value in `{line}`"))?;
        if stack.split(';').any(|frame| frame.is_empty()) {
            return Err(format!("line {lineno}: empty frame in stack `{stack}`"));
        }
        let lane = stack.split(';').next().expect("non-empty split");
        if !lanes.contains(&lane) {
            lanes.push(lane);
        }
        stats.nodes += 1;
        stats.total_us += value;
    }
    stats.lanes = lanes.len();
    Ok(stats)
}

/// Enables recording and writes the collapsed-stack dump on drop — the
/// `ADAGP_PROFILE` contract. Returned by [`profile_guard_from_env`];
/// hold it for the lifetime of `main`.
#[derive(Debug)]
pub struct ProfileGuard {
    path: PathBuf,
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        match write_collapsed(&self.path) {
            Ok(()) => eprintln!("collapsed-stack profile written to {}", self.path.display()),
            Err(e) => eprintln!("profile dump to {} failed: {e}", self.path.display()),
        }
    }
}

/// Snapshots the recorder, aggregates, and writes the collapsed-stack
/// dump to `path`.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_collapsed(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, build_profile(&recorder::snapshot()).collapsed())
}

/// If `ADAGP_PROFILE=<path>` is set, enables span recording and returns
/// a guard that dumps the collapsed-stack profile to `<path>` when
/// dropped. Composes with [`crate::trace::trace_guard_from_env`] — hold
/// both to get a timeline and a flamegraph from one run.
pub fn profile_guard_from_env() -> Option<ProfileGuard> {
    let path = std::env::var_os(PROFILE_ENV)?;
    if path.is_empty() {
        return None;
    }
    recorder::set_enabled(true);
    Some(ProfileGuard {
        path: PathBuf::from(path),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{LaneSnapshot, SpanRecord};

    fn rec(name: &str, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "test",
            start_ns: start_us * 1_000,
            end_ns: end_us * 1_000,
        }
    }

    fn snap(lanes: Vec<(&str, Vec<SpanRecord>)>) -> TraceSnapshot {
        TraceSnapshot {
            lanes: lanes
                .into_iter()
                .map(|(name, spans)| LaneSnapshot {
                    name: name.into(),
                    spans,
                    dropped: 0,
                })
                .collect(),
        }
    }

    /// epoch(10..40) { step(12..20) { inner(13..15) } step(22..30) } and
    /// a disjoint tail(50..60); `step` merges to calls=2.
    fn sample() -> TraceSnapshot {
        snap(vec![(
            "main",
            vec![
                // Recorder order is completion order: children first.
                rec("inner", 13, 15),
                rec("step", 12, 20),
                rec("step", 22, 30),
                rec("epoch", 10, 40),
                rec("tail", 50, 60),
            ],
        )])
    }

    #[test]
    fn nesting_merging_and_self_times() {
        let p = build_profile(&sample());
        assert_eq!(p.lanes.len(), 1);
        assert_eq!(p.span_count(), 5);
        let roots = &p.lanes[0].roots;
        assert_eq!(roots.len(), 2, "epoch and tail are top-level");
        let epoch = &roots[0];
        assert_eq!(epoch.name, "epoch");
        assert_eq!((epoch.calls, epoch.total_us()), (1, 30));
        assert_eq!(epoch.children.len(), 1, "two step calls merged");
        let step = &epoch.children[0];
        assert_eq!(
            (step.name.as_str(), step.calls, step.total_us()),
            ("step", 2, 16)
        );
        assert_eq!(step.children[0].name, "inner");
        assert_eq!(step.self_us(), 16 - 2);
        assert_eq!(epoch.self_us(), 30 - 16);
        assert_eq!(roots[1].name, "tail");
        assert_eq!(p.lanes[0].total_ns(), (30 + 10) * 1_000);
    }

    #[test]
    fn collapsed_form_validates_and_sums_to_busy_time() {
        let p = build_profile(&sample());
        let collapsed = p.collapsed();
        assert!(
            collapsed.contains("main;epoch;step;inner 2\n"),
            "{collapsed}"
        );
        assert!(collapsed.contains("main;epoch 14\n"), "{collapsed}");
        assert!(collapsed.contains("main;tail 10\n"), "{collapsed}");
        let stats = validate_profile(&collapsed).expect("collapsed dump validates");
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.lanes, 1);
        assert_eq!(stats.total_us, 40);
    }

    #[test]
    fn collapsed_frames_are_sanitized() {
        let p = build_profile(&snap(vec![(
            "serve worker 0",
            vec![rec("GET /metrics", 0, 5), rec("cell a;b", 10, 12)],
        )]));
        let collapsed = p.collapsed();
        assert!(
            collapsed.contains("serve_worker_0;GET_/metrics 5\n"),
            "{collapsed}"
        );
        assert!(
            collapsed.contains("serve_worker_0;cell_a:b 2\n"),
            "{collapsed}"
        );
        validate_profile(&collapsed).expect("sanitized frames validate");
    }

    #[test]
    fn json_form_round_trips_through_the_validator() {
        let p = build_profile(&sample());
        let json = p.to_json("unit");
        let stats = validate_profile(&json).expect("json tree validates");
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.lanes, 1);
        assert_eq!(stats.total_us, 40, "root totals: epoch 30 + tail 10");
        assert!(json.contains("\"schema\": \"adagp-profile-v1\""));
    }

    #[test]
    fn multi_lane_profiles_keep_lanes_separate() {
        let p = build_profile(&snap(vec![
            ("a", vec![rec("work", 0, 10)]),
            ("b", vec![rec("work", 0, 20)]),
            ("idle", vec![]),
        ]));
        assert_eq!(p.lanes.len(), 2, "empty lanes are omitted");
        let stats = validate_profile(&p.to_json("t")).unwrap();
        assert_eq!(stats.lanes, 2);
    }

    #[test]
    fn ill_formed_overlap_degrades_to_a_valid_tree() {
        // b partially overlaps a — impossible from one recording thread,
        // but the builder must stay consistent anyway.
        let p = build_profile(&snap(vec![(
            "main",
            vec![rec("a", 0, 10), rec("b", 5, 15)],
        )]));
        validate_profile(&p.to_json("t")).expect("clamped tree still validates");
        validate_profile(&p.collapsed()).expect("clamped collapsed still validates");
        // b starts inside a, so the sweep adopts it as a child clamped to
        // a's extent: the tree stays consistent, the overhang is dropped.
        let a = &p.lanes[0].roots[0];
        assert_eq!((a.name.as_str(), a.total_us()), ("a", 10));
        assert_eq!(a.children[0].total_us(), 5, "b clamped into a's extent");
    }

    #[test]
    fn validator_rejects_inconsistent_trees() {
        let bad_self = r#"{"schema": "adagp-profile-v1", "lanes": [
            {"name": "l", "children": [
                {"name": "x", "calls": 1, "total_us": 5, "self_us": 9, "children": []}
            ]}
        ]}"#;
        assert!(validate_profile(bad_self).unwrap_err().contains("self_us"));
        let bad_children = r#"{"schema": "adagp-profile-v1", "lanes": [
            {"name": "l", "children": [
                {"name": "x", "calls": 1, "total_us": 5, "self_us": 0, "children": [
                    {"name": "y", "calls": 1, "total_us": 4, "self_us": 4, "children": []},
                    {"name": "z", "calls": 1, "total_us": 4, "self_us": 4, "children": []}
                ]}
            ]}
        ]}"#;
        assert!(validate_profile(bad_children)
            .unwrap_err()
            .contains("children total"));
        let zero_calls = r#"{"schema": "adagp-profile-v1", "lanes": [
            {"name": "l", "children": [
                {"name": "x", "calls": 0, "total_us": 5, "self_us": 5, "children": []}
            ]}
        ]}"#;
        assert!(validate_profile(zero_calls).unwrap_err().contains("calls"));
        assert!(validate_profile("{}").is_err());
        assert!(validate_profile("stack with no value\n").is_err());
        assert!(validate_profile(";empty;frame 3\n").is_err());
    }

    #[test]
    fn empty_profiles_are_valid_but_empty() {
        let p = build_profile(&TraceSnapshot::default());
        let stats = validate_profile(&p.to_json("t")).unwrap();
        assert_eq!((stats.lanes, stats.nodes, stats.total_us), (0, 0, 0));
        assert_eq!(validate_profile("").unwrap().nodes, 0);
    }
}
