//! The discrete-event core: a compiled task graph, a virtual clock and an
//! event heap — *compile once, replay many*.
//!
//! A simulation is a DAG of tasks. Each task has a fixed cycle duration,
//! an optional resource it occupies for that duration, and a list of
//! dependencies. [`SimBuilder`] accumulates resources and tasks and
//! compiles them into a [`TaskGraph`]: struct-of-arrays columns (kind,
//! layer, resource, duration, buffer delta), dependencies and dependents
//! in CSR form, and labels rendered on demand from a static prefix plus
//! the layer-label table instead of one `String` per task. The topology
//! of a compiled graph never changes; durations may be rewritten between
//! runs ([`TaskGraph::set_duration`] — the batch workloads re-time their
//! DRAM tasks per bandwidth), so one build serves any number of runs.
//!
//! One event loop runs a graph, over per-thread scratch (indegrees,
//! capacities, FIFO queues, heap) that is reset, not reallocated, per
//! run. The loop is generic over what it records:
//!
//! * [`TaskGraph::run`] records nothing and returns the [`RunStats`]
//!   (makespan, buffer peak) — the replay the roofline knee search and
//!   the sweep's cell evaluation call dozens of times per graph;
//! * [`TaskGraph::simulate`] records the full [`SimResult`] trace: one
//!   [`Span`] per task, ready cycles, admission causes and the
//!   buffer-occupancy curve fed by each task's `buffer_delta`.
//!
//! [`SimBuilder::simulate`] is the one-shot entry (compile + traced run)
//! for hand-built graphs of owned [`TaskSpec`]s.
//!
//! [`TaskGraph::longest_path`] is a lower bound on a run's makespan that
//! runs no loop: the longest dependency chain at the current durations,
//! with every resource ignored. No task starts before its dependencies
//! end, so the bound holds for every graph, bandwidth, port count and
//! buffer; it is one reverse pass over the CSR, a few times cheaper than
//! a replay, and the roofline knee search simulates only where it is
//! within tolerance. It is *not* the zero-slack chain
//! [`crate::report::critical_path`] extracts from a traced run: that
//! chain follows resource admissions as well as dependencies and sums to
//! the makespan itself, while this bound falls short of the makespan
//! wherever tasks queue for a resource.
//!
//! The loop advances the clock from completion event to completion
//! event; a task starts as soon as all of its dependencies have completed
//! *and* its resource has a free unit of capacity. Everything is
//! deterministic:
//!
//! * completion events are ordered by `(time, task id)` — equal-time
//!   completions are processed in task-id order;
//! * tasks that become ready are appended to their resource's FIFO wait
//!   queue in task-id order, and admitted strictly FIFO; a completing
//!   task releases its capacity before its dependents are enqueued;
//! * a run is single-threaded — callers may run many simulations in
//!   parallel (the sweep runner does), but one simulation never races,
//!   and no state survives in the scratch from one run to the next.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Index of a resource registered with [`SimBuilder::add_resource`].
pub type ResourceId = usize;
/// Index of a task registered with [`SimBuilder::add_task`].
pub type TaskId = usize;

/// Column encoding of "no resource" / "no layer".
const NONE: u32 = u32::MAX;

/// What kind of work a task models — the category shown in the Gantt
/// timeline and the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Original-model forward pass of one layer.
    Forward,
    /// Backward data-gradient pass of one layer.
    BackwardData,
    /// Backward weight-gradient pass of one layer.
    BackwardWeight,
    /// Predictor forward (gradient prediction), latency α.
    PredictorFill,
    /// Predictor training step, latency 2α.
    PredictorUpdate,
    /// Off-chip weight streaming for one layer.
    WeightLoad,
    /// Excess DRAM traffic a too-small on-chip buffer forces for one
    /// layer (operand re-reads beyond the ideal single pass).
    Spill,
    /// ADA-GP-LOW's per-layer predictor weight reload on the shared array.
    PredictorReload,
    /// Zero-or-more-cycle synchronization node (no resource).
    Join,
}

impl TaskKind {
    /// Short label used in trace categories and reports.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Forward => "fwd",
            TaskKind::BackwardData => "bwd-data",
            TaskKind::BackwardWeight => "bwd-weight",
            TaskKind::PredictorFill => "pred-fill",
            TaskKind::PredictorUpdate => "pred-update",
            TaskKind::WeightLoad => "weight-load",
            TaskKind::Spill => "spill",
            TaskKind::PredictorReload => "pred-reload",
            TaskKind::Join => "join",
        }
    }
}

/// A resource with a name and a capacity (how many tasks may occupy it
/// simultaneously — the PE array has capacity 1, a multi-ported buffer
/// or a DRAM channel could have more).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSpec {
    /// Display name (becomes a timeline lane).
    pub name: String,
    /// Simultaneous occupants.
    pub capacity: u32,
}

/// One node of a hand-built simulation DAG, in owned form (the input of
/// [`SimBuilder::add_task`]).
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Display label, e.g. `fwd conv3`.
    pub label: String,
    /// Work category.
    pub kind: TaskKind,
    /// Layer index this task belongs to (`None` for synthetic nodes).
    pub layer: Option<usize>,
    /// Resource occupied while running; `None` runs without occupying
    /// anything (synchronization nodes).
    pub resource: Option<ResourceId>,
    /// Cycles the task takes.
    pub duration: u64,
    /// Tasks that must complete before this one may start.
    pub deps: Vec<TaskId>,
    /// Signed change to the tracked buffer occupancy (words), applied at
    /// the task's completion time.
    pub buffer_delta: i64,
}

impl TaskSpec {
    /// A resourceless zero-duration synchronization node.
    pub fn join(label: impl Into<String>, deps: Vec<TaskId>) -> Self {
        TaskSpec {
            label: label.into(),
            kind: TaskKind::Join,
            layer: None,
            resource: None,
            duration: 0,
            deps,
            buffer_delta: 0,
        }
    }
}

/// One per-layer task in allocation-free form (the input of
/// [`SimBuilder::add_layer_task`]): its label is rendered on demand as
/// `"{prefix} {layer label}{suffix}"` from the builder's layer-label
/// table.
#[derive(Debug, Clone, Copy)]
pub struct LayerTask {
    /// Work category.
    pub kind: TaskKind,
    /// Layer index — also the label-table row.
    pub layer: usize,
    /// Label text before the layer label.
    pub prefix: &'static str,
    /// Label text after the layer label (usually empty).
    pub suffix: &'static str,
    /// Resource occupied while running.
    pub resource: Option<ResourceId>,
    /// Cycles the task takes.
    pub duration: u64,
    /// Signed buffer-occupancy change applied at completion (words).
    pub buffer_delta: i64,
}

/// How a task's display label is rendered.
#[derive(Debug, Clone, Copy)]
enum Label {
    /// Verbatim row of the graph's custom-label table.
    Custom(u32),
    /// `"{prefix} {layer label}{suffix}"`.
    Layer {
        prefix: &'static str,
        suffix: &'static str,
    },
}

/// One task as [`SimBuilder`] keeps it, until compiling splits the rows
/// into the graph's columns.
#[derive(Debug, Clone, Copy)]
struct Row {
    kind: TaskKind,
    label: Label,
    /// Layer index ([`NONE`] for synthetic nodes).
    layer: u32,
    /// Resource ([`NONE`] for resourceless tasks).
    resource: u32,
    duration: u64,
    buffer_delta: i64,
    /// End of the task's dependencies in the builder's `deps`.
    deps_end: u32,
}

/// A compiled simulation DAG: task columns plus CSR adjacency. Built by
/// [`SimBuilder::compile`]; run with [`TaskGraph::run`] (untraced) or
/// [`TaskGraph::simulate`] (traced).
#[derive(Debug, Clone)]
pub struct TaskGraph {
    resources: Vec<ResourceSpec>,
    layer_labels: Arc<[Arc<str>]>,
    custom_labels: Vec<String>,
    kind: Vec<TaskKind>,
    label: Vec<Label>,
    /// Layer index per task ([`NONE`] for synthetic nodes).
    layer: Vec<u32>,
    /// Resource per task ([`NONE`] for resourceless tasks).
    resource: Vec<u32>,
    duration: Vec<u64>,
    buffer_delta: Vec<i64>,
    /// Task `t` depends on `deps[dep_start[t]..dep_start[t + 1]]`.
    dep_start: Vec<u32>,
    deps: Vec<u32>,
    /// Task `t` unblocks `succ[succ_start[t]..succ_start[t + 1]]`, in
    /// task-id order.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
}

/// Accumulates resources and tasks, then compiles or runs the graph.
#[derive(Debug)]
pub struct SimBuilder {
    resources: Vec<ResourceSpec>,
    layer_labels: Arc<[Arc<str>]>,
    custom_labels: Vec<String>,
    /// One row per task, in id order.
    rows: Vec<Row>,
    /// Every task's dependencies, concatenated in task order.
    deps: Vec<u32>,
}

impl Default for SimBuilder {
    fn default() -> Self {
        Self::with_layer_labels(Arc::default())
    }
}

/// One executed task: where and when it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The task that ran.
    pub task: TaskId,
    /// Start cycle.
    pub start: u64,
    /// End cycle (`start + duration`).
    pub end: u64,
}

/// What an untraced run reports. (Per-resource busy cycles are not here:
/// every task runs exactly once, so they are a column sum of the graph —
/// [`TaskGraph::busy`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Cycle at which the last task completed.
    pub makespan: u64,
    /// Peak buffer occupancy in words.
    pub buffer_peak: i64,
}

/// The completed traced simulation: makespan, the full span trace,
/// per-resource busy cycles and the buffer-occupancy curve.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Cycle at which the last task completed.
    pub makespan: u64,
    /// One span per task, sorted by `(start, task)`.
    pub spans: Vec<Span>,
    /// The graph that ran: task columns (for labeling spans) and
    /// resource specs (for labeling lanes).
    pub tasks: TaskGraph,
    /// Busy cycles per resource (sum of resident span durations).
    pub busy: Vec<u64>,
    /// Buffer occupancy after each change, as `(cycle, words)` steps.
    pub buffer_curve: Vec<(u64, i64)>,
    /// Peak buffer occupancy in words.
    pub buffer_peak: i64,
    /// Cycle each task started, indexed by task id.
    pub start_of: Vec<u64>,
    /// Cycle each task became ready (its last dependency completed; 0
    /// for dependency-free tasks), indexed by task id. A task's start
    /// minus its ready cycle is its admission-queueing slack.
    pub ready_of: Vec<u64>,
    /// For each task that waited in a resource FIFO: the task whose
    /// completion freed the capacity it was admitted on (that task's
    /// end cycle equals this task's start cycle, exactly). `None` for
    /// tasks admitted at their ready cycle and for resourceless tasks.
    pub unblocked_by: Vec<Option<TaskId>>,
}

impl SimResult {
    /// Fraction of `makespan × capacity` the resource spent busy.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.busy[r] as f64 / (self.makespan as f64 * self.tasks.resources[r].capacity as f64)
    }

    /// The span of a task (panics if the task id is out of range).
    pub fn span_of(&self, task: TaskId) -> Span {
        let start = self.start_of[task];
        Span {
            task,
            start,
            end: start + self.tasks.duration[task],
        }
    }
}

impl SimBuilder {
    /// A fresh, empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh simulation whose [`LayerTask`]s take their labels from
    /// `layer_labels` (shared, so several graphs over one model clone no
    /// strings).
    pub fn with_layer_labels(layer_labels: Arc<[Arc<str>]>) -> Self {
        SimBuilder {
            resources: Vec::new(),
            layer_labels,
            custom_labels: Vec::new(),
            rows: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Empties the builder for a new graph over `layer_labels`, keeping
    /// the capacity of its rows: a builder reused this way grows only for
    /// a graph larger than every one before it.
    pub(crate) fn reset(&mut self, layer_labels: Arc<[Arc<str>]>) {
        self.resources.clear();
        self.layer_labels = layer_labels;
        self.custom_labels.clear();
        self.rows.clear();
        self.deps.clear();
    }

    /// Registers a resource and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: u32) -> ResourceId {
        assert!(capacity > 0, "resource capacity must be positive");
        self.resources.push(ResourceSpec {
            name: name.into(),
            capacity,
        });
        self.resources.len() - 1
    }

    /// Registers a task and returns its id. Dependencies must refer to
    /// already-registered tasks, which makes cycles unrepresentable.
    ///
    /// # Panics
    ///
    /// Panics on a forward dependency or an unknown resource id.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        let label = Label::Custom(self.custom_labels.len() as u32);
        self.custom_labels.push(spec.label);
        self.push(
            spec.kind,
            label,
            spec.layer,
            spec.resource,
            (spec.duration, spec.buffer_delta),
            spec.deps,
        )
    }

    /// Registers a per-layer task without allocating (see [`LayerTask`]).
    ///
    /// # Panics
    ///
    /// Panics on a forward dependency, an unknown resource id, or a layer
    /// index outside the builder's label table.
    pub fn add_layer_task(
        &mut self,
        task: LayerTask,
        deps: impl IntoIterator<Item = TaskId>,
    ) -> TaskId {
        assert!(
            task.layer < self.layer_labels.len(),
            "layer {} has no label",
            task.layer
        );
        self.push(
            task.kind,
            Label::Layer {
                prefix: task.prefix,
                suffix: task.suffix,
            },
            Some(task.layer),
            task.resource,
            (task.duration, task.buffer_delta),
            deps,
        )
    }

    fn push(
        &mut self,
        kind: TaskKind,
        label: Label,
        layer: Option<usize>,
        resource: Option<ResourceId>,
        (duration, buffer_delta): (u64, i64),
        deps: impl IntoIterator<Item = TaskId>,
    ) -> TaskId {
        let id = self.rows.len();
        assert!(id < NONE as usize, "too many tasks");
        for d in deps {
            assert!(d < id, "task {id} depends on not-yet-registered task {d}");
            self.deps.push(d as u32);
        }
        if let Some(r) = resource {
            assert!(r < self.resources.len(), "task {id} uses unknown resource");
        }
        self.rows.push(Row {
            kind,
            label,
            layer: layer.map_or(NONE, |l| l as u32),
            resource: resource.map_or(NONE, |r| r as u32),
            duration,
            buffer_delta,
            deps_end: self.deps.len() as u32,
        });
        id
    }

    /// Compiles the accumulated tasks into a replayable [`TaskGraph`].
    pub fn compile(mut self) -> TaskGraph {
        self.take_compiled()
    }

    /// Compiles the accumulated tasks into a [`TaskGraph`], each column
    /// allocated once at its final length, and leaves the builder empty
    /// but for its capacity ([`SimBuilder::reset`] starts the next graph).
    pub(crate) fn take_compiled(&mut self) -> TaskGraph {
        let rows = &self.rows;
        let n = rows.len();
        let column = |f: fn(&Row) -> u32| rows.iter().map(f).collect::<Vec<u32>>();
        let dep_start: Vec<u32> = std::iter::once(0)
            .chain(rows.iter().map(|r| r.deps_end))
            .collect();
        // Counting sort of the dependency edges by source: dependents of
        // each task end up in task-id order, which is the order the loop
        // enqueues them in. `start[d]` is first each source's count, then
        // its write cursor, which ends at the next source's first slot;
        // shifting those ends up one place gives the starts.
        let mut start = vec![0u32; n + 1];
        for &d in &self.deps {
            start[d as usize] += 1;
        }
        let mut sum = 0;
        for s in &mut start[..n] {
            (*s, sum) = (sum, sum + *s);
        }
        let mut succ = vec![0u32; self.deps.len()];
        for t in 0..n {
            for &d in &self.deps[dep_start[t] as usize..dep_start[t + 1] as usize] {
                succ[start[d as usize] as usize] = t as u32;
                start[d as usize] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        TaskGraph {
            kind: rows.iter().map(|r| r.kind).collect(),
            label: rows.iter().map(|r| r.label).collect(),
            layer: column(|r| r.layer),
            resource: column(|r| r.resource),
            duration: rows.iter().map(|r| r.duration).collect(),
            buffer_delta: rows.iter().map(|r| r.buffer_delta).collect(),
            dep_start,
            deps: self.deps.to_vec(),
            succ_start: start,
            succ,
            resources: std::mem::take(&mut self.resources),
            layer_labels: std::mem::take(&mut self.layer_labels),
            custom_labels: std::mem::take(&mut self.custom_labels),
        }
    }

    /// Compiles the graph, runs it to completion and returns the trace.
    ///
    /// # Panics
    ///
    /// Panics if any task never becomes runnable (impossible for graphs
    /// built through [`SimBuilder::add_task`], which forbids cycles).
    pub fn simulate(self) -> SimResult {
        self.compile().simulate()
    }
}

/// Reusable engine state of one thread: reset at the start of every run,
/// so nothing leaks from one run into the next.
#[derive(Default)]
struct Scratch {
    indegree: Vec<u32>,
    available: Vec<u32>,
    queues: Vec<VecDeque<u32>>,
    /// Min-heap of completion events ordered by (time, task id).
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per task, the longest chain from its start to the end of the graph
    /// ([`TaskGraph::longest_path`]).
    tail: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// What the event loop reports as it goes. The untraced run records
/// nothing; the traced run records everything a [`SimResult`] holds.
trait Recorder {
    /// `task`'s last dependency completed at `clock`.
    fn ready(&mut self, _task: usize, _clock: u64) {}
    /// `task` started at `clock`; `cause` is the task whose completion
    /// is being processed (`None` during the t = 0 seeding).
    fn start(&mut self, _task: usize, _clock: u64, _cause: Option<TaskId>) {}
    /// The buffer occupancy changed to `words` at `clock`.
    fn buffer(&mut self, _clock: u64, _words: i64) {}
}

struct Untraced;

impl Recorder for Untraced {}

struct Traced {
    start_of: Vec<u64>,
    ready_of: Vec<u64>,
    unblocked_by: Vec<Option<TaskId>>,
    buffer_curve: Vec<(u64, i64)>,
}

impl Recorder for Traced {
    fn ready(&mut self, task: usize, clock: u64) {
        self.ready_of[task] = clock;
    }

    fn start(&mut self, task: usize, clock: u64, cause: Option<TaskId>) {
        self.start_of[task] = clock;
        // A task admitted later than its ready cycle waited for capacity:
        // the completion being processed freed it, so `cause`'s end cycle
        // equals this start cycle exactly.
        if clock > self.ready_of[task] {
            self.unblocked_by[task] = cause;
        }
    }

    fn buffer(&mut self, clock: u64, words: i64) {
        self.buffer_curve.push((clock, words));
    }
}

/// One run in flight: the graph, the thread's scratch and the recorder.
struct Run<'a, R> {
    g: &'a TaskGraph,
    st: &'a mut Scratch,
    rec: &'a mut R,
}

impl<R: Recorder> Run<'_, R> {
    /// Admits a ready task: resourceless ones start immediately, the rest
    /// join their resource's FIFO queue.
    fn enqueue(&mut self, id: u32, clock: u64, cause: Option<TaskId>) {
        let task = id as usize;
        self.rec.ready(task, clock);
        match self.g.resource[task] {
            NONE => {
                self.rec.start(task, clock, cause);
                self.st
                    .heap
                    .push(Reverse((clock + self.g.duration[task], id)));
            }
            // A free port with nobody queued ahead: admitted at once.
            r if self.st.available[r as usize] > 0 && self.st.queues[r as usize].is_empty() => {
                self.st.available[r as usize] -= 1;
                self.rec.start(task, clock, cause);
                self.st
                    .heap
                    .push(Reverse((clock + self.g.duration[task], id)));
            }
            r => {
                self.st.queues[r as usize].push_back(id);
                self.drain(r as usize, clock, cause);
            }
        }
    }

    /// Starts queued tasks on `r` while capacity remains.
    fn drain(&mut self, r: usize, clock: u64, cause: Option<TaskId>) {
        while self.st.available[r] > 0 {
            let Some(id) = self.st.queues[r].pop_front() else {
                break;
            };
            self.st.available[r] -= 1;
            self.rec.start(id as usize, clock, cause);
            self.st
                .heap
                .push(Reverse((clock + self.g.duration[id as usize], id)));
        }
    }
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// The resource specs, indexed by [`ResourceId`].
    pub fn resources(&self) -> &[ResourceSpec] {
        &self.resources
    }

    /// Work category of `task`.
    pub fn kind(&self, task: TaskId) -> TaskKind {
        self.kind[task]
    }

    /// Layer index `task` belongs to (`None` for synthetic nodes).
    pub fn layer(&self, task: TaskId) -> Option<usize> {
        Some(self.layer[task])
            .filter(|&l| l != NONE)
            .map(|l| l as usize)
    }

    /// Resource `task` occupies while running.
    pub fn resource(&self, task: TaskId) -> Option<ResourceId> {
        Some(self.resource[task])
            .filter(|&r| r != NONE)
            .map(|r| r as usize)
    }

    /// Cycles `task` takes.
    pub fn duration(&self, task: TaskId) -> u64 {
        self.duration[task]
    }

    /// Re-times `task`. The topology is fixed at compile time; durations
    /// are the one thing a replay may change.
    pub fn set_duration(&mut self, task: TaskId, cycles: u64) {
        self.duration[task] = cycles;
    }

    /// Signed buffer-occupancy change `task` applies at completion.
    pub fn buffer_delta(&self, task: TaskId) -> i64 {
        self.buffer_delta[task]
    }

    /// The tasks `task` waits on, in registration order.
    pub fn deps(&self, task: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.deps[self.dep_start[task] as usize..self.dep_start[task + 1] as usize]
            .iter()
            .map(|&d| d as usize)
    }

    /// Display label of `task`, e.g. `fwd conv3`, rendered on demand.
    pub fn label(&self, task: TaskId) -> String {
        match self.label[task] {
            Label::Custom(i) => self.custom_labels[i as usize].clone(),
            Label::Layer { prefix, suffix } => format!(
                "{prefix} {}{suffix}",
                self.layer_labels[self.layer[task] as usize]
            ),
        }
    }

    /// Busy cycles per resource: the summed durations of the tasks that
    /// occupy it (every task runs exactly once, so this needs no run).
    pub fn busy(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.resources.len()];
        for (&r, &d) in self.resource.iter().zip(&self.duration) {
            if r != NONE {
                busy[r as usize] += d;
            }
        }
        busy
    }

    /// The longest dependency chain at the current durations, resources
    /// ignored: a lower bound on [`TaskGraph::run`]'s makespan that needs
    /// no event loop (module doc). Task ids are a topological order, so
    /// one pass in decreasing id order sees every dependent before the
    /// tasks it waits on.
    pub fn longest_path(&self) -> u64 {
        SCRATCH.with_borrow_mut(|st| {
            let tail = &mut st.tail;
            tail.clear();
            tail.resize(self.len(), 0);
            let mut longest = 0;
            for t in (0..self.len()).rev() {
                let after = self.succ[self.succ_start[t] as usize..self.succ_start[t + 1] as usize]
                    .iter()
                    .map(|&s| tail[s as usize])
                    .max()
                    .unwrap_or(0);
                tail[t] = self.duration[t] + after;
                longest = longest.max(tail[t]);
            }
            longest
        })
    }

    /// Runs the graph to completion without recording a trace.
    ///
    /// # Panics
    ///
    /// Panics if any task never becomes runnable (impossible for graphs
    /// built through [`SimBuilder`], which forbids cycles).
    pub fn run(&self) -> RunStats {
        self.execute(&mut Untraced)
    }

    /// Runs the graph to completion and returns the full trace.
    ///
    /// # Panics
    ///
    /// As [`TaskGraph::run`].
    pub fn simulate(self) -> SimResult {
        let n = self.len();
        let mut trace = Traced {
            start_of: vec![0; n],
            ready_of: vec![0; n],
            unblocked_by: vec![None; n],
            buffer_curve: Vec::new(),
        };
        let stats = self.execute(&mut trace);
        let mut result = SimResult {
            makespan: stats.makespan,
            spans: Vec::new(),
            busy: self.busy(),
            tasks: self,
            buffer_curve: trace.buffer_curve,
            buffer_peak: stats.buffer_peak,
            start_of: trace.start_of,
            ready_of: trace.ready_of,
            unblocked_by: trace.unblocked_by,
        };
        result.spans = (0..n).map(|t| result.span_of(t)).collect();
        result.spans.sort_unstable_by_key(|s| (s.start, s.task));
        result
    }

    /// The event loop — the only one; `rec` decides what is kept.
    fn execute<R: Recorder>(&self, rec: &mut R) -> RunStats {
        SCRATCH.with_borrow_mut(|st| {
            let n = self.len();
            st.indegree.clear();
            st.indegree
                .extend(self.dep_start.windows(2).map(|w| w[1] - w[0]));
            st.available.clear();
            st.available
                .extend(self.resources.iter().map(|r| r.capacity));
            st.queues.iter_mut().for_each(VecDeque::clear);
            st.queues.resize_with(self.resources.len(), VecDeque::new);
            st.heap.clear();

            let mut run = Run { g: self, st, rec };
            let mut occupancy: i64 = 0;
            let mut peak: i64 = 0;
            let mut clock: u64 = 0;
            let mut completed = 0usize;

            for id in 0..n {
                if run.st.indegree[id] == 0 {
                    run.enqueue(id as u32, clock, None);
                }
            }
            while let Some(Reverse((end, id))) = run.st.heap.pop() {
                let task = id as usize;
                clock = end;
                completed += 1;
                // Release the capacity before enqueueing dependents, so a
                // dependent on the same resource is admitted at once.
                let freed = self.resource[task];
                if freed != NONE {
                    run.st.available[freed as usize] += 1;
                }
                if self.buffer_delta[task] != 0 {
                    occupancy += self.buffer_delta[task];
                    peak = peak.max(occupancy);
                    run.rec.buffer(clock, occupancy);
                }
                for i in self.succ_start[task]..self.succ_start[task + 1] {
                    let dep = self.succ[i as usize];
                    run.st.indegree[dep as usize] -= 1;
                    if run.st.indegree[dep as usize] == 0 {
                        run.enqueue(dep, clock, Some(task));
                    }
                }
                if freed != NONE {
                    run.drain(freed as usize, clock, Some(task));
                }
            }

            assert_eq!(
                completed,
                n,
                "simulation stalled: {} of {n} tasks never ran",
                n - completed
            );
            RunStats {
                makespan: clock,
                buffer_peak: peak,
            }
        })
    }
}

#[cfg(test)]
impl TaskGraph {
    /// Each column's name, length and capacity.
    pub(crate) fn column_sizes(&self) -> [(&'static str, usize, usize); 10] {
        let size = |name, len, capacity| (name, len, capacity);
        [
            size("kind", self.kind.len(), self.kind.capacity()),
            size("label", self.label.len(), self.label.capacity()),
            size("layer", self.layer.len(), self.layer.capacity()),
            size("resource", self.resource.len(), self.resource.capacity()),
            size("duration", self.duration.len(), self.duration.capacity()),
            size(
                "buffer_delta",
                self.buffer_delta.len(),
                self.buffer_delta.capacity(),
            ),
            size("dep_start", self.dep_start.len(), self.dep_start.capacity()),
            size("deps", self.deps.len(), self.deps.capacity()),
            size(
                "succ_start",
                self.succ_start.len(),
                self.succ_start.capacity(),
            ),
            size("succ", self.succ.len(), self.succ.capacity()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(resource: Option<ResourceId>, duration: u64, deps: Vec<TaskId>) -> TaskSpec {
        TaskSpec {
            label: "t".into(),
            kind: TaskKind::Forward,
            layer: None,
            resource,
            duration,
            deps,
            buffer_delta: 0,
        }
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let t0 = b.add_task(task(Some(pe), 10, vec![]));
        let t1 = b.add_task(task(Some(pe), 20, vec![t0]));
        let t2 = b.add_task(task(Some(pe), 5, vec![t1]));
        let r = b.simulate();
        assert_eq!(r.makespan, 35);
        assert_eq!(r.span_of(t2).start, 30);
        assert_eq!(r.utilization(pe), 1.0);
    }

    #[test]
    fn independent_resources_overlap() {
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let pred = b.add_resource("pred", 1);
        let a = b.add_task(task(Some(pe), 100, vec![]));
        let p = b.add_task(task(Some(pred), 30, vec![]));
        let r = b.simulate();
        assert_eq!(r.makespan, 100);
        assert_eq!(r.span_of(p).start, 0);
        assert_eq!(r.span_of(a).end, 100);
        assert!((r.utilization(pred) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn capacity_one_serializes_ready_tasks_in_id_order() {
        // Both ready at t=0 on one resource: lower id runs first, always.
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let a = b.add_task(task(Some(pe), 7, vec![]));
        let c = b.add_task(task(Some(pe), 3, vec![]));
        let r = b.simulate();
        assert_eq!(
            r.span_of(a),
            Span {
                task: a,
                start: 0,
                end: 7
            }
        );
        assert_eq!(
            r.span_of(c),
            Span {
                task: c,
                start: 7,
                end: 10
            }
        );
    }

    #[test]
    fn equal_time_completions_resolve_in_task_id_order() {
        // Two tasks complete at t=10; both unblock one successor each on
        // the same capacity-1 resource. The successor of the lower-id
        // predecessor is enqueued first.
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let aux = b.add_resource("aux", 2);
        let a = b.add_task(task(Some(aux), 10, vec![]));
        let c = b.add_task(task(Some(aux), 10, vec![]));
        let sa = b.add_task(task(Some(pe), 4, vec![a]));
        let sc = b.add_task(task(Some(pe), 4, vec![c]));
        let r = b.simulate();
        assert_eq!(r.span_of(sa).start, 10);
        assert_eq!(r.span_of(sc).start, 14);
    }

    #[test]
    fn capacity_two_admits_two() {
        let mut b = SimBuilder::new();
        let ports = b.add_resource("ports", 2);
        let ids: Vec<_> = (0..4)
            .map(|_| b.add_task(task(Some(ports), 10, vec![])))
            .collect();
        let r = b.simulate();
        assert_eq!(r.makespan, 20);
        assert_eq!(r.span_of(ids[0]).start, 0);
        assert_eq!(r.span_of(ids[1]).start, 0);
        assert_eq!(r.span_of(ids[2]).start, 10);
        assert_eq!(r.utilization(ports), 1.0);
    }

    #[test]
    fn join_nodes_cost_nothing_and_gate() {
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let pred = b.add_resource("pred", 1);
        let a = b.add_task(task(Some(pe), 10, vec![]));
        let p = b.add_task(task(Some(pred), 25, vec![]));
        let j = b.add_task(TaskSpec::join("barrier", vec![a, p]));
        let after = b.add_task(task(Some(pe), 5, vec![j]));
        let r = b.simulate();
        assert_eq!(r.span_of(j).start, 25);
        assert_eq!(r.span_of(j).end, 25);
        assert_eq!(r.span_of(after).start, 25);
        assert_eq!(r.makespan, 30);
    }

    #[test]
    fn buffer_curve_tracks_deltas_and_peak() {
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let mut alloc = task(Some(pe), 10, vec![]);
        alloc.buffer_delta = 100;
        let a = b.add_task(alloc);
        let mut alloc2 = task(Some(pe), 10, vec![a]);
        alloc2.buffer_delta = 50;
        let a2 = b.add_task(alloc2);
        let mut free = task(Some(pe), 10, vec![a2]);
        free.buffer_delta = -150;
        b.add_task(free);
        let r = b.simulate();
        assert_eq!(r.buffer_peak, 150);
        assert_eq!(r.buffer_curve, vec![(10, 100), (20, 150), (30, 0)]);
    }

    #[test]
    fn ready_and_unblocked_by_attribute_fifo_waits() {
        // a occupies pe [0,7); c is ready at 0 but waits for a's slot.
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let a = b.add_task(task(Some(pe), 7, vec![]));
        let c = b.add_task(task(Some(pe), 3, vec![]));
        let r = b.simulate();
        assert_eq!(r.ready_of[a], 0);
        assert_eq!(r.ready_of[c], 0);
        assert_eq!(r.unblocked_by[a], None);
        assert_eq!(r.unblocked_by[c], Some(a));
        assert_eq!(r.span_of(a).end, r.span_of(c).start);
        // c sat in pe's FIFO from ready to start.
        assert_eq!(r.span_of(c).start - r.ready_of[c], 7);
    }

    #[test]
    fn unobstructed_tasks_start_at_their_ready_cycle() {
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let pred = b.add_resource("pred", 1);
        let a = b.add_task(task(Some(pe), 10, vec![]));
        let p = b.add_task(task(Some(pred), 5, vec![a]));
        let j = b.add_task(TaskSpec::join("sync", vec![p]));
        let r = b.simulate();
        // p became ready when its dependency a finished, and started then.
        assert_eq!(r.ready_of[p], 10);
        assert_eq!(r.span_of(p).start, 10);
        assert_eq!(r.unblocked_by[p], None);
        // The resourceless join never queues, so it never blames anyone.
        assert_eq!(r.ready_of[j], 15);
        assert_eq!(r.unblocked_by[j], None);
    }

    #[test]
    fn unblocked_by_names_the_freeing_task_not_the_readying_dep() {
        // w becomes ready when d completes at t=5, but pe is held by the
        // long task a until t=20: the admission blames a, not d.
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        let aux = b.add_resource("aux", 1);
        let a = b.add_task(task(Some(pe), 20, vec![]));
        let d = b.add_task(task(Some(aux), 5, vec![]));
        let w = b.add_task(task(Some(pe), 3, vec![d]));
        let r = b.simulate();
        assert_eq!(r.ready_of[w], 5);
        assert_eq!(r.span_of(w).start, 20);
        assert_eq!(r.unblocked_by[w], Some(a));
        assert_eq!(r.span_of(a).end, r.span_of(w).start);
    }

    #[test]
    fn layer_tasks_render_labels_on_demand_and_share_the_table() {
        let labels: Arc<[Arc<str>]> = vec!["conv1".into(), "fc".into()].into();
        let mut b = SimBuilder::with_layer_labels(labels);
        let pe = b.add_resource("pe", 1);
        let row = |layer, prefix, suffix| LayerTask {
            kind: TaskKind::Forward,
            layer,
            prefix,
            suffix,
            resource: Some(pe),
            duration: 5,
            buffer_delta: 0,
        };
        let a = b.add_layer_task(row(0, "fwd", ""), None);
        let c = b.add_layer_task(row(1, "pred-fill", " (out)"), [a]);
        let j = b.add_task(TaskSpec::join("end", vec![a, c]));
        let g = b.compile();
        assert_eq!(g.len(), 3);
        assert_eq!(g.label(a), "fwd conv1");
        assert_eq!(g.label(c), "pred-fill fc (out)");
        assert_eq!(g.label(j), "end");
        assert_eq!(
            (g.layer(a), g.layer(c), g.layer(j)),
            (Some(0), Some(1), None)
        );
        assert_eq!((g.resource(c), g.resource(j)), (Some(pe), None));
        assert_eq!(g.deps(j).collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(g.busy(), vec![10]);
    }

    #[test]
    fn a_compiled_graph_replays_after_retiming_like_a_fresh_build() {
        // pe: a → c; aux: d gates c too. Re-time d and the replayed run —
        // untraced and traced — must match a graph built with that
        // duration, with nothing left over from the runs in between.
        let build = |d_cycles| {
            let mut b = SimBuilder::new();
            let pe = b.add_resource("pe", 1);
            let aux = b.add_resource("aux", 1);
            let a = b.add_task(task(Some(pe), 10, vec![]));
            let mut dt = task(Some(aux), d_cycles, vec![]);
            dt.buffer_delta = 7;
            let d = b.add_task(dt);
            b.add_task(task(Some(pe), 4, vec![a, d]));
            (b.compile(), d)
        };
        let (mut g, d) = build(3);
        assert_eq!(g.run().makespan, 14);
        for cycles in [30, 3, 0, 12] {
            g.set_duration(d, cycles);
            let (fresh, _) = build(cycles);
            assert_eq!(g.run(), fresh.run(), "d = {cycles}");
            let (replayed, fresh) = (g.clone().simulate(), fresh.simulate());
            assert_eq!(replayed.makespan, 10u64.max(cycles) + 4);
            assert_eq!(replayed.spans, fresh.spans);
            assert_eq!(replayed.ready_of, fresh.ready_of);
            assert_eq!(replayed.unblocked_by, fresh.unblocked_by);
            assert_eq!(replayed.buffer_curve, fresh.buffer_curve);
            assert_eq!(replayed.busy, fresh.busy);
        }
    }

    #[test]
    fn longest_path_of_a_resource_free_chain_is_its_makespan() {
        // No task occupies a resource, so none queues: the bound is exact.
        let mut b = SimBuilder::new();
        let a = b.add_task(task(None, 10, vec![]));
        let c = b.add_task(task(None, 4, vec![]));
        let d = b.add_task(task(None, 20, vec![a]));
        b.add_task(task(None, 5, vec![d, c]));
        let g = b.compile();
        assert_eq!(g.longest_path(), 35);
        assert_eq!(g.longest_path(), g.run().makespan);
    }

    #[test]
    fn longest_path_ignores_a_shared_resource() {
        // Two independent tasks on one capacity-1 resource: the run
        // serializes them (10 cycles), the bound does not (7).
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        b.add_task(task(Some(pe), 7, vec![]));
        b.add_task(task(Some(pe), 3, vec![]));
        let g = b.compile();
        assert_eq!(g.run().makespan, 10);
        assert_eq!(g.longest_path(), 7);
        assert!(g.longest_path() < g.run().makespan);
        assert_eq!(SimBuilder::new().compile().longest_path(), 0);
    }

    #[test]
    #[should_panic(expected = "not-yet-registered")]
    fn forward_deps_are_rejected() {
        let mut b = SimBuilder::new();
        let pe = b.add_resource("pe", 1);
        b.add_task(task(Some(pe), 1, vec![3]));
    }
}
