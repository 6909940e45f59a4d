//! Event-driven task-graph scheduler.
//!
//! Training schedules are expressed as DAGs of [`TaskSpec`]s, each bound to a
//! named resource (a GPU stream, a CPU worker pool, one direction of a link).
//! The [`Simulator`] executes the DAG with an event-driven list scheduler:
//! a task starts as soon as all its dependencies have finished *and* its
//! resource is free; resources execute one task at a time, in the order tasks
//! become ready (ties broken by insertion order, so runs are deterministic).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::error::SimError;
use crate::telemetry::MetricsRecorder;
use crate::time::SimTime;
use crate::trace::{Interval, Trace};

/// Opaque identifier of a simulated resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// Index of this resource in registration order (its trace row / tid).
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs the id of the resource registered at index `i` (the
    /// inverse of [`ResourceId::index`]). Ids for indices that were never
    /// registered are harmless: every accessor treats them as unknown.
    pub fn from_index(i: usize) -> Self {
        ResourceId(i)
    }
}

/// Opaque identifier of a scheduled task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Index of this task in submission order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs the id of the task submitted at index `i` (the inverse
    /// of [`TaskId::index`]). Ids for indices that were never submitted are
    /// harmless: every accessor treats them as unknown.
    pub fn from_index(i: usize) -> Self {
        TaskId(i)
    }
}

/// The broad category of work a task represents, used for trace analysis
/// (e.g. "how much of the GPU timeline is data movement?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TaskKind {
    /// Numeric computation (forward, backward, optimizer step).
    Compute,
    /// Data movement over a link.
    Transfer,
    /// Type casting / format conversion.
    Cast,
    /// Collective communication (all-gather, reduce-scatter, ...).
    Collective,
    /// Synchronization / bookkeeping with negligible cost of its own.
    Sync,
}

/// Every [`TaskKind`], indexed by discriminant.
pub(crate) const TASK_KINDS: [TaskKind; 5] = [
    TaskKind::Compute,
    TaskKind::Transfer,
    TaskKind::Cast,
    TaskKind::Collective,
    TaskKind::Sync,
];

impl TaskKind {
    /// Stable lower-case name used in traces, snapshots and diffs.
    pub const fn name(self) -> &'static str {
        match self {
            TaskKind::Compute => "compute",
            TaskKind::Transfer => "transfer",
            TaskKind::Cast => "cast",
            TaskKind::Collective => "collective",
            TaskKind::Sync => "sync",
        }
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Semantic role of a task, beyond its [`TaskKind`], used by the stall
/// attribution in [`crate::analysis`]: idle time bound by a tagged task is
/// charged to the matching stall class (optimizer-exposed,
/// capacity-evicted) instead of the generic waiting-on-* classes.
///
/// Schedule builders opt in with [`TaskSpec::tagged`]; untagged tasks
/// classify by kind alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum TaskTag {
    /// No special role (the default).
    #[default]
    Generic,
    /// An optimizer step (CPU or GPU): idle time waiting on it is the
    /// paper's "exposed optimizer" stall.
    OptimizerStep,
    /// A transfer that exists only because state could not stay resident
    /// (weight streaming, NVMe spill/fill, offloaded optimizer-state
    /// fetch): idle time waiting on it is a capacity-eviction stall.
    Eviction,
}

impl TaskTag {
    /// Stable kebab-case name used in diffs and run alignment.
    pub const fn name(self) -> &'static str {
        match self {
            TaskTag::Generic => "generic",
            TaskTag::OptimizerStep => "optimizer-step",
            TaskTag::Eviction => "eviction",
        }
    }
}

impl fmt::Display for TaskTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The node a resource name belongs to under the
/// [`Simulator::add_node_resource`] naming scheme: `node<N>/<name>` maps to
/// `N`, anything else (including every bare pre-fleet name) to node 0.
pub fn node_of_resource(name: &str) -> u32 {
    name.strip_prefix("node")
        .and_then(|rest| rest.split_once('/'))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or(0)
}

/// A task's trace label: a base name plus an optional index.
///
/// An indexed label renders as `base[index]`, but only when a [`Trace`] is
/// built. A graph that is only scored ([`Simulator::run_end_times`]) never
/// renders it, so building it allocates no label string when the base is
/// `'static`.
#[derive(Debug, Clone, Default)]
pub struct TaskLabel {
    base: Cow<'static, str>,
    index: Option<u64>,
}

impl TaskLabel {
    /// The label `base[index]`.
    pub fn indexed(base: impl Into<Cow<'static, str>>, index: impl Into<u64>) -> Self {
        TaskLabel {
            base: base.into(),
            index: Some(index.into()),
        }
    }

    /// The rendered label, built without the formatting machinery: one
    /// allocation of the exact capacity.
    pub(crate) fn render(&self) -> String {
        let mut digits = [0u8; 20];
        let index = self.index.map(|i| decimal(i, &mut digits));
        let extra = index.map_or(0, |d| d.len() + 2);
        let mut s = String::with_capacity(self.base.len() + extra);
        s.push_str(&self.base);
        if let Some(d) = index {
            s.push('[');
            s.push_str(d);
            s.push(']');
        }
        s
    }
}

/// `n` in decimal, written into the tail of `buf` (20 bytes hold any
/// `u64`).
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

impl fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&'static str> for TaskLabel {
    fn from(base: &'static str) -> Self {
        TaskLabel {
            base: Cow::Borrowed(base),
            index: None,
        }
    }
}

impl From<String> for TaskLabel {
    fn from(base: String) -> Self {
        TaskLabel {
            base: Cow::Owned(base),
            index: None,
        }
    }
}

/// How many dependencies a [`TaskSpec`] stores inline, with no heap
/// allocation. A larger fan-in spills the whole list to the heap.
pub const INLINE_DEPS: usize = 4;

/// A task's dependency list: up to [`INLINE_DEPS`] ids inline, the rest
/// of a larger fan-in on the heap. Building a graph whose tasks wait on at
/// most that many others allocates nothing per task.
#[derive(Clone)]
enum Deps {
    Inline { len: u8, ids: [TaskId; INLINE_DEPS] },
    Spilled(Vec<TaskId>),
}

impl Deps {
    const EMPTY: Deps = Deps::Inline {
        len: 0,
        ids: [TaskId(0); INLINE_DEPS],
    };

    fn push(&mut self, dep: TaskId) {
        match self {
            Deps::Inline { len, ids } if usize::from(*len) < INLINE_DEPS => {
                ids[usize::from(*len)] = dep;
                *len += 1;
            }
            Deps::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_DEPS);
                spilled.extend_from_slice(ids);
                spilled.push(dep);
                *self = Deps::Spilled(spilled);
            }
            Deps::Spilled(v) => v.push(dep),
        }
    }

    fn as_slice(&self) -> &[TaskId] {
        match self {
            Deps::Inline { len, ids } => &ids[..usize::from(*len)],
            Deps::Spilled(v) => v,
        }
    }
}

impl fmt::Debug for Deps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Specification of one task in the graph.
///
/// Build with the kind-specific constructors and chain [`TaskSpec::after`] /
/// [`TaskSpec::with_label`]:
///
/// ```
/// use superchip_sim::prelude::*;
/// let mut sim = Simulator::new();
/// let gpu = sim.add_resource("gpu");
/// let t = sim
///     .add_task(TaskSpec::compute(gpu, SimTime::from_millis(3.0)).with_label("fwd"))
///     .unwrap();
/// let _ = sim
///     .add_task(TaskSpec::compute(gpu, SimTime::from_millis(6.0)).with_label("bwd").after(t))
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct TaskSpec {
    resource: ResourceId,
    duration: SimTime,
    deps: Deps,
    label: TaskLabel,
    kind: TaskKind,
    tag: TaskTag,
    /// Earliest time the task may start regardless of dependencies.
    not_before: SimTime,
}

impl TaskSpec {
    /// Creates a task of the given kind.
    pub fn new(resource: ResourceId, kind: TaskKind, duration: SimTime) -> Self {
        TaskSpec {
            resource,
            duration,
            deps: Deps::EMPTY,
            label: TaskLabel::default(),
            kind,
            tag: TaskTag::Generic,
            not_before: SimTime::ZERO,
        }
    }

    /// Creates a compute task.
    pub fn compute(resource: ResourceId, duration: SimTime) -> Self {
        Self::new(resource, TaskKind::Compute, duration)
    }

    /// Creates a data-transfer task.
    pub fn transfer(resource: ResourceId, duration: SimTime) -> Self {
        Self::new(resource, TaskKind::Transfer, duration)
    }

    /// Creates a type-casting task.
    pub fn cast(resource: ResourceId, duration: SimTime) -> Self {
        Self::new(resource, TaskKind::Cast, duration)
    }

    /// Creates a collective-communication task.
    pub fn collective(resource: ResourceId, duration: SimTime) -> Self {
        Self::new(resource, TaskKind::Collective, duration)
    }

    /// Creates a zero-or-tiny-duration synchronization task.
    pub fn sync(resource: ResourceId) -> Self {
        Self::new(resource, TaskKind::Sync, SimTime::ZERO)
    }

    /// Adds a dependency: this task may not start before `dep` finishes.
    #[must_use]
    pub fn after(mut self, dep: TaskId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Adds several dependencies at once.
    #[must_use]
    pub fn after_all<I: IntoIterator<Item = TaskId>>(mut self, deps: I) -> Self {
        for dep in deps {
            self.deps.push(dep);
        }
        self
    }

    /// Sets a human-readable label shown in traces.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<TaskLabel>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the label `base[index]`, rendered only when a trace is built
    /// (see [`TaskLabel`]).
    #[must_use]
    pub fn with_indexed_label(self, base: &'static str, index: impl Into<u64>) -> Self {
        self.with_label(TaskLabel::indexed(base, index))
    }

    /// Constrains the task to start no earlier than `t`.
    #[must_use]
    pub fn not_before(mut self, t: SimTime) -> Self {
        self.not_before = t;
        self
    }

    /// Marks the semantic role of this task for stall attribution (see
    /// [`TaskTag`]).
    #[must_use]
    pub fn tagged(mut self, tag: TaskTag) -> Self {
        self.tag = tag;
        self
    }
}

/// Every task's dependencies in one flat list, indexed by task submission
/// order: task `t` waits for `ids[start[t]..start[t + 1]]`. The simulator
/// appends to it on submission and a [`Trace`] keeps a copy, so neither
/// holds a list per task.
#[derive(Debug, Clone)]
pub(crate) struct DepLists {
    ids: Vec<TaskId>,
    /// Offsets into `ids`, one per task plus the end.
    start: Vec<usize>,
}

impl Default for DepLists {
    fn default() -> Self {
        DepLists {
            ids: Vec::new(),
            start: vec![0],
        }
    }
}

impl DepLists {
    /// Appends the next task's dependencies.
    fn push(&mut self, deps: &[TaskId]) {
        self.ids.extend_from_slice(deps);
        self.start.push(self.ids.len());
    }

    /// The dependencies of task `t`, or `None` past the last task.
    pub(crate) fn get(&self, t: usize) -> Option<&[TaskId]> {
        let end = *self.start.get(t.checked_add(1)?)?;
        Some(&self.ids[self.start[t]..end])
    }

    /// The dependencies of task `t`.
    ///
    /// # Panics
    /// If `t` is past the last task.
    fn of(&self, t: usize) -> &[TaskId] {
        &self.ids[self.start[t]..self.start[t + 1]]
    }
}

/// A submitted task: the fields the scheduler reads. Its label and its
/// dependencies are stored apart, in [`Simulator`]'s `labels` and `deps`.
#[derive(Debug, Clone, Copy)]
struct Task {
    resource: ResourceId,
    duration: SimTime,
    not_before: SimTime,
    kind: TaskKind,
    tag: TaskTag,
}

/// Deterministic discrete-event simulator executing a task DAG on resources.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Default)]
pub struct Simulator {
    resources: Vec<String>,
    tasks: Vec<Task>,
    /// Task labels, indexed like `tasks`; rendered only into a [`Trace`].
    labels: Vec<TaskLabel>,
    deps: DepLists,
}

impl Simulator {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource (a serial execution timeline) under `name`.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(name.into());
        ResourceId(self.resources.len() - 1)
    }

    /// Registers a resource in node `node`'s namespace: node 0 keeps the
    /// bare `name` (so single-node schedules are indistinguishable from the
    /// pre-fleet layout, byte for byte), while nodes 1+ get a
    /// `node<N>/<name>` prefix. This is how per-node resource namespaces
    /// share one simulator without colliding.
    pub fn add_node_resource(&mut self, node: u32, name: impl Into<String>) -> ResourceId {
        let name = name.into();
        if node == 0 {
            self.add_resource(name)
        } else {
            self.add_resource(format!("node{node}/{name}"))
        }
    }

    /// Returns the name a resource was registered under.
    pub fn resource_name(&self, id: ResourceId) -> Option<&str> {
        self.resources.get(id.0).map(String::as_str)
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Submits a task to the graph.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownResource`] if the task's resource was never
    /// registered, or [`SimError::UnknownTask`] if a dependency refers to a
    /// task that has not been submitted (dependencies must be submitted
    /// first, which also guarantees the graph is acyclic).
    pub fn add_task(&mut self, spec: TaskSpec) -> Result<TaskId, SimError> {
        if spec.resource.0 >= self.resources.len() {
            return Err(SimError::UnknownResource(spec.resource));
        }
        let id = TaskId(self.tasks.len());
        let deps = spec.deps.as_slice();
        if let Some(&dep) = deps.iter().find(|d| d.0 >= id.0) {
            return Err(SimError::UnknownTask(dep));
        }
        self.deps.push(deps);
        self.tasks.push(Task {
            resource: spec.resource,
            duration: spec.duration,
            not_before: spec.not_before,
            kind: spec.kind,
            tag: spec.tag,
        });
        self.labels.push(spec.label);
        Ok(id)
    }

    /// Executes the task graph and returns the resulting trace.
    ///
    /// The schedule is a deterministic list schedule: among ready tasks
    /// contending for the same resource, the one that became ready earliest
    /// runs first (ties broken by submission order). The graph is left
    /// untouched, so it can be run again.
    ///
    /// # Errors
    /// Returns [`SimError::DependencyCycle`] if some tasks can never become
    /// ready. (This is defensive: `add_task` already prevents forward
    /// references, so a cycle cannot normally be constructed.)
    pub fn run(&self) -> Result<Trace, SimError> {
        let mut spans = vec![(SimTime::ZERO, SimTime::ZERO); self.tasks.len()];
        self.schedule(|id, _, start, end| spans[id.0] = (start, end))?;
        Ok(self.trace(spans))
    }

    /// Executes the task graph like [`Simulator::run`] while feeding
    /// telemetry into `rec`.
    ///
    /// The resulting trace is identical to an uninstrumented run. Recorded:
    ///
    /// * `tasks.<kind>` counters (executed task count per [`TaskKind`]),
    /// * `queue-wait:<resource>` tracks (µs a transfer/collective task spent
    ///   waiting for its resource after its dependencies finished — the
    ///   link-contention queueing delay),
    /// * `busy-us:<resource>` and `makespan-us` gauges.
    ///
    /// # Errors
    /// Same failure modes as [`Simulator::run`].
    pub fn run_instrumented(&self, rec: &mut MetricsRecorder) -> Result<Trace, SimError> {
        let queue_tracks: Vec<String> = self
            .resources
            .iter()
            .map(|name| format!("queue-wait:{name}"))
            .collect();
        let mut per_kind = [0u64; TASK_KINDS.len()];
        let mut spans = vec![(SimTime::ZERO, SimTime::ZERO); self.tasks.len()];
        self.schedule(|id, ready_at, start, end| {
            spans[id.0] = (start, end);
            let spec = &self.tasks[id.0];
            per_kind[spec.kind as usize] += 1;
            if matches!(spec.kind, TaskKind::Transfer | TaskKind::Collective) {
                rec.sample(
                    &queue_tracks[spec.resource.0],
                    "us",
                    start,
                    start.saturating_sub(ready_at).as_micros(),
                );
            }
        })?;
        for (kind, &count) in TASK_KINDS.iter().zip(&per_kind) {
            if count > 0 {
                rec.add(&format!("tasks.{kind}"), count);
            }
        }

        let trace = self.trace(spans);
        let mut busy = vec![SimTime::ZERO; self.resources.len()];
        for iv in trace.intervals() {
            busy[iv.resource.0] += iv.duration();
        }
        for (name, b) in self.resources.iter().zip(&busy) {
            rec.set_gauge(&format!("busy-us:{name}"), b.as_micros());
        }
        rec.set_gauge("makespan-us", trace.makespan().as_micros());
        Ok(trace)
    }

    /// Executes the task graph like [`Simulator::run`] but returns only
    /// each task's end time, indexed by submission order: no intervals,
    /// labels or trace are built. The times are bit-identical to the
    /// interval ends of [`Simulator::run`].
    ///
    /// # Errors
    /// Same failure modes as [`Simulator::run`].
    pub fn run_end_times(&self) -> Result<Vec<SimTime>, SimError> {
        let mut ends = vec![SimTime::ZERO; self.tasks.len()];
        self.schedule(|id, _, _, end| ends[id.0] = end)?;
        Ok(ends)
    }

    /// A lower bound on `target`'s end time in any run of this graph, from
    /// the graph alone, in O(tasks + edges); `None` if `target` was never
    /// submitted. It is the largest of:
    ///
    /// * the longest dependency chain ending at `target`, counting each
    ///   task's `not_before` release time;
    /// * for each resource and each suffix (in submission order) of
    ///   `target`'s ancestors on it: the earliest possible start among
    ///   them, plus their total duration (the resource runs them one at a
    ///   time), plus the shortest of their longest chains on to `target`'s
    ///   end. The whole set is one suffix; later suffixes drop the work
    ///   that can run early, before a late-released group.
    ///
    /// Tasks that are not ancestors of `target` can only delay it, so they
    /// are ignored.
    pub fn end_lower_bound(&self, target: TaskId) -> Option<SimTime> {
        let tasks = self.tasks.get(..=target.0)?;
        // Earliest start of every task: its longest release-aware chain.
        let mut head: Vec<SimTime> = Vec::with_capacity(tasks.len());
        for (i, t) in tasks.iter().enumerate() {
            let h = self
                .deps
                .of(i)
                .iter()
                .fold(t.not_before, |h, d| h.max(head[d.0] + tasks[d.0].duration));
            head.push(h);
        }
        // Longest chain from each ancestor's end to `target`'s end (`None`
        // for tasks that are not ancestors), filled in reverse submission
        // order, which is reverse topological order.
        let mut tail: Vec<Option<SimTime>> = vec![None; tasks.len()];
        tail[target.0] = Some(SimTime::ZERO);
        let mut bound = head[target.0] + tasks[target.0].duration;
        // Per resource, over its ancestors submitted at or after the
        // current task: (earliest head, total work, shortest tail).
        let mut suffix: Vec<Option<(SimTime, SimTime, SimTime)>> = vec![None; self.resources.len()];
        for (i, t) in tasks.iter().enumerate().rev() {
            let Some(ti) = tail[i] else { continue };
            let through = ti + t.duration;
            for d in self.deps.of(i) {
                tail[d.0] = Some(tail[d.0].map_or(through, |x| x.max(through)));
            }
            if i != target.0 {
                let r = &mut suffix[t.resource.0];
                let (h, w, tl) = match *r {
                    None => (head[i], t.duration, ti),
                    Some((h, w, tl)) => (h.min(head[i]), w + t.duration, tl.min(ti)),
                };
                *r = Some((h, w, tl));
                bound = bound.max(h + w + tl);
            }
        }
        Some(bound)
    }

    /// The list scheduler behind every run: pops ready tasks in
    /// `(ready_at, id)` order, starts each when its resource frees, and
    /// calls `visit(id, ready_at, start, end)` once per task in execution
    /// order.
    fn schedule<F>(&self, mut visit: F) -> Result<(), SimError>
    where
        F: FnMut(TaskId, SimTime, SimTime, SimTime),
    {
        let n = self.tasks.len();
        let (first_dependent, dependents) = self.dependents();
        let mut pending: Vec<usize> = self.deps.start.windows(2).map(|w| w[1] - w[0]).collect();
        let mut ready_at: Vec<SimTime> = self.tasks.iter().map(|t| t.not_before).collect();
        // Ready queue: (ready_at, task id), minimum first.
        let mut ready: BinaryHeap<Reverse<(SimTime, TaskId)>> = (0..n)
            .filter(|&i| pending[i] == 0)
            .map(|i| Reverse((ready_at[i], TaskId(i))))
            .collect();
        let mut resource_free = vec![SimTime::ZERO; self.resources.len()];
        let mut done = 0usize;

        while let Some(Reverse((at, id))) = ready.pop() {
            let task = &self.tasks[id.0];
            let resource = task.resource.0;
            let start = at.max(resource_free[resource]);
            let end = start + task.duration;
            resource_free[resource] = end;
            visit(id, at, start, end);
            done += 1;

            for &dep in &dependents[first_dependent[id.0]..first_dependent[id.0 + 1]] {
                let d = dep.0;
                ready_at[d] = ready_at[d].max(end);
                pending[d] -= 1;
                if pending[d] == 0 {
                    ready.push(Reverse((ready_at[d], dep)));
                }
            }
        }

        if done != n {
            return Err(SimError::DependencyCycle {
                unscheduled: n - done,
            });
        }
        Ok(())
    }

    /// The reverse edges of the graph in compressed form: the tasks that
    /// depend on task `i` (once per listed dependency, in submission
    /// order) are `dependents[first[i]..first[i + 1]]`. Built per run from
    /// the submitted dependency lists, so submission allocates no
    /// per-task dependents list.
    fn dependents(&self) -> (Vec<usize>, Vec<TaskId>) {
        let mut first = vec![0usize; self.tasks.len() + 1];
        for dep in &self.deps.ids {
            first[dep.0 + 1] += 1;
        }
        for i in 1..first.len() {
            first[i] += first[i - 1];
        }
        let mut next = first.clone();
        let mut dependents = vec![TaskId(0); first[self.tasks.len()]];
        for i in 0..self.tasks.len() {
            for dep in self.deps.of(i) {
                dependents[next[dep.0]] = TaskId(i);
                next[dep.0] += 1;
            }
        }
        (first, dependents)
    }

    /// Materializes the trace of a run from each task's `(start, end)`,
    /// rendering the labels. Interval `i` is task `i`.
    fn trace(&self, spans: Vec<(SimTime, SimTime)>) -> Trace {
        let intervals = self
            .tasks
            .iter()
            .zip(&self.labels)
            .zip(spans)
            .enumerate()
            .map(|(i, ((t, label), (start, end)))| Interval {
                task: TaskId(i),
                resource: t.resource,
                kind: t.kind,
                tag: t.tag,
                label: label.render(),
                start,
                end,
            })
            .collect();
        let not_before = self.tasks.iter().map(|t| t.not_before).collect();
        Trace::new(
            self.resources.clone(),
            intervals,
            self.deps.clone(),
            not_before,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn single_task_runs_at_zero() {
        let mut sim = Simulator::new();
        let r = sim.add_resource("gpu");
        let t = sim.add_task(TaskSpec::compute(r, ms(5.0))).unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.start_time(t).unwrap(), SimTime::ZERO);
        assert_eq!(trace.end_time(t).unwrap(), ms(5.0));
        assert_eq!(trace.makespan(), ms(5.0));
    }

    #[test]
    fn dependency_serializes_across_resources() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let link = sim.add_resource("link");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(2.0))).unwrap();
        let b = sim
            .add_task(TaskSpec::transfer(link, ms(3.0)).after(a))
            .unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.start_time(b).unwrap(), ms(2.0));
        assert_eq!(trace.makespan(), ms(5.0));
    }

    #[test]
    fn independent_tasks_overlap_on_distinct_resources() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(4.0))).unwrap();
        let b = sim.add_task(TaskSpec::compute(cpu, ms(4.0))).unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.start_time(a).unwrap(), SimTime::ZERO);
        assert_eq!(trace.start_time(b).unwrap(), SimTime::ZERO);
        assert_eq!(trace.makespan(), ms(4.0));
    }

    #[test]
    fn same_resource_serializes() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(4.0))).unwrap();
        let b = sim.add_task(TaskSpec::compute(gpu, ms(4.0))).unwrap();
        let trace = sim.run().unwrap();
        let (s1, s2) = (trace.start_time(a).unwrap(), trace.start_time(b).unwrap());
        assert!(s1 == SimTime::ZERO && s2 == ms(4.0));
        assert_eq!(trace.makespan(), ms(8.0));
    }

    #[test]
    fn not_before_delays_start() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let t = sim
            .add_task(TaskSpec::compute(gpu, ms(1.0)).not_before(ms(10.0)))
            .unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.start_time(t).unwrap(), ms(10.0));
    }

    #[test]
    fn fan_in_waits_for_all_deps() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        let link = sim.add_resource("link");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(2.0))).unwrap();
        let b = sim.add_task(TaskSpec::compute(cpu, ms(7.0))).unwrap();
        let c = sim
            .add_task(TaskSpec::transfer(link, ms(1.0)).after(a).after(b))
            .unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.start_time(c).unwrap(), ms(7.0));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut sim = Simulator::new();
        let err = sim
            .add_task(TaskSpec::compute(ResourceId(42), ms(1.0)))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownResource(_)));
    }

    #[test]
    fn forward_dependency_rejected() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let err = sim
            .add_task(TaskSpec::compute(gpu, ms(1.0)).after(TaskId(7)))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownTask(_)));
    }

    #[test]
    fn ready_order_is_fifo_among_ties() {
        // Two tasks ready at t=0 on the same resource: submission order wins.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let first = sim
            .add_task(TaskSpec::compute(gpu, ms(1.0)).with_label("first"))
            .unwrap();
        let second = sim
            .add_task(TaskSpec::compute(gpu, ms(1.0)).with_label("second"))
            .unwrap();
        let trace = sim.run().unwrap();
        assert!(trace.start_time(first).unwrap() < trace.start_time(second).unwrap());
    }

    #[test]
    fn diamond_dag_schedules_correctly() {
        // a -> (b, c) -> d ; b and c on different resources overlap.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(1.0))).unwrap();
        let b = sim
            .add_task(TaskSpec::compute(gpu, ms(5.0)).after(a))
            .unwrap();
        let c = sim
            .add_task(TaskSpec::compute(cpu, ms(3.0)).after(a))
            .unwrap();
        let d = sim.add_task(TaskSpec::sync(gpu).after(b).after(c)).unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.end_time(d).unwrap(), ms(6.0));
        assert_eq!(trace.makespan(), ms(6.0));
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_records() {
        use crate::telemetry::MetricsRecorder;
        let build = |sim: &mut Simulator| {
            let gpu = sim.add_resource("gpu");
            let link = sim.add_resource("link");
            let a = sim.add_task(TaskSpec::compute(gpu, ms(2.0))).unwrap();
            let b = sim
                .add_task(TaskSpec::transfer(link, ms(3.0)).after(a))
                .unwrap();
            // Second transfer queued behind the first: 2 ms of queueing.
            sim.add_task(TaskSpec::transfer(link, ms(1.0)).after(a))
                .unwrap();
            (a, b)
        };
        let mut plain = Simulator::new();
        build(&mut plain);
        let reference = plain.run().unwrap();

        let mut sim = Simulator::new();
        build(&mut sim);
        let mut rec = MetricsRecorder::new();
        let trace = sim.run_instrumented(&mut rec).unwrap();

        assert_eq!(trace.makespan(), reference.makespan());
        assert_eq!(rec.counter("tasks.compute"), 1);
        assert_eq!(rec.counter("tasks.transfer"), 2);
        let waits = rec.track("queue-wait:link").unwrap();
        assert_eq!(waits.samples.len(), 2);
        assert_eq!(waits.samples[0].1, 0.0); // first transfer starts immediately
        assert!((waits.samples[1].1 - 3000.0).abs() < 1e-9); // queued behind it
        assert_eq!(rec.gauge("busy-us:gpu"), Some(2000.0));
        assert_eq!(rec.gauge("makespan-us"), Some(6000.0));
    }

    #[test]
    fn end_lower_bound_counts_serial_resource_work() {
        // a and b are independent on one resource, c waits for both on
        // another: the longest chain is 4 + 1, but the shared resource
        // runs a and b back to back, so c cannot end before 4 + 3 + 1.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let link = sim.add_resource("link");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(4.0))).unwrap();
        let b = sim.add_task(TaskSpec::compute(gpu, ms(3.0))).unwrap();
        let c = sim
            .add_task(TaskSpec::transfer(link, ms(1.0)).after(a).after(b))
            .unwrap();
        assert_eq!(sim.end_lower_bound(c), Some(ms(4.0) + ms(3.0) + ms(1.0)));
        assert_eq!(sim.end_lower_bound(c), Some(sim.run().unwrap().makespan()));
        assert_eq!(sim.end_lower_bound(TaskId(3)), None);
    }

    #[test]
    fn end_lower_bound_drops_work_that_runs_before_a_late_group() {
        // a runs early on the gpu; b1 and b2 wait for a 10 ms transfer.
        // Chain: 10 + 5; all gpu ancestors: 0 + 11; the late pair alone:
        // 10 + 5 + 5, which is the real end.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let link = sim.add_resource("link");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(1.0))).unwrap();
        let x = sim.add_task(TaskSpec::transfer(link, ms(10.0))).unwrap();
        let b1 = sim
            .add_task(TaskSpec::compute(gpu, ms(5.0)).after(x))
            .unwrap();
        let b2 = sim
            .add_task(TaskSpec::compute(gpu, ms(5.0)).after(x))
            .unwrap();
        let end = sim
            .add_task(TaskSpec::sync(link).after(a).after(b1).after(b2))
            .unwrap();
        assert_eq!(
            sim.end_lower_bound(end),
            Some(ms(10.0) + (ms(5.0) + ms(5.0)))
        );
        assert_eq!(
            sim.end_lower_bound(end),
            Some(sim.run().unwrap().makespan())
        );
    }

    #[test]
    fn kind_display() {
        assert_eq!(TaskKind::Compute.to_string(), "compute");
        assert_eq!(TaskKind::Collective.to_string(), "collective");
    }

    #[test]
    fn node_of_resource_inverts_the_naming_scheme() {
        assert_eq!(node_of_resource("gpu"), 0);
        assert_eq!(node_of_resource("node1/gpu"), 1);
        assert_eq!(node_of_resource("node12/c2c-d2h"), 12);
        // Not the scheme: falls back to node 0.
        assert_eq!(node_of_resource("nodegpu"), 0);
        assert_eq!(node_of_resource("nodex/gpu"), 0);
        assert_eq!(node_of_resource("node3"), 0);
    }

    #[test]
    fn node_resources_namespace_by_node() {
        let mut sim = Simulator::new();
        let g0 = sim.add_node_resource(0, "gpu");
        let g1 = sim.add_node_resource(1, "gpu");
        let g2 = sim.add_node_resource(2, "gpu");
        // Node 0 keeps the bare name — bit-identical to pre-fleet layouts.
        assert_eq!(sim.resource_name(g0), Some("gpu"));
        assert_eq!(sim.resource_name(g1), Some("node1/gpu"));
        assert_eq!(sim.resource_name(g2), Some("node2/gpu"));
        assert_eq!(sim.resource_count(), 3);
    }
}
