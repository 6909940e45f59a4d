//! Post-hoc critical-path and stall analysis of executed traces.
//!
//! The paper's evaluation is an *attribution* story: every speedup is
//! explained by showing where GPU idle time goes (PCIe/C2C transfers, CPU
//! optimizer steps, synchronization bubbles) and which technique removes
//! each stall class. This module reconstructs that story from a finished
//! [`Trace`]:
//!
//! * **Critical path** — the longest chain of task durations through the
//!   executed DAG, where edges are the submitted dependencies *plus* the
//!   serialization order on each resource. Its length bounds the makespan
//!   from below; per-task slack says how much any task could stretch
//!   without lengthening that chain.
//! * **Stall attribution** — every idle microsecond of every resource is
//!   charged to exactly one [`StallClass`] by walking the *binding chain*:
//!   the task that eventually ran was bound by some predecessor, which was
//!   bound by another, and so on; each link's execution window classifies
//!   the idle time it covers. Class durations sum exactly (in the
//!   integer-microsecond ledger of [`Trace::idle_us`]) to the resource's
//!   idle time.
//! * **Bottleneck ranking** — resources ordered by their share of the
//!   critical path, each with a what-if headroom estimate: the speedup
//!   bound if that resource ran 2× faster, from a critical-path recompute
//!   with its durations halved (schedule shape held fixed).
//!
//! All arithmetic is on integer microseconds
//! ([`SimTime::as_micros_rounded`](crate::time::SimTime::as_micros_rounded),
//! the same quantization every export uses), so reports are byte-stable and
//! the attribution invariants hold exactly, not within epsilon.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

use crate::engine::{ResourceId, TaskId, TaskKind, TaskTag};
use crate::telemetry::{write_meta, JsonWriter, Layout};
use crate::trace::{Interval, Trace};

/// Schema identifier stamped into [`AnalysisReport::to_json`] output.
pub const ANALYSIS_SCHEMA: &str = "superoffload.analysis/v1";

/// Closed taxonomy of idle time. Every idle microsecond of every resource
/// falls into exactly one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallClass {
    /// Bound by a data movement task in flight — a transfer, cast, or
    /// collective. Collective wait is the "communication-exposed" time the
    /// scale sweep reports per node count.
    WaitingOnTransfer,
    /// Bound by compute on another resource (a synchronization bubble).
    WaitingOnDependency,
    /// Bound by a transfer that exists only because state could not stay
    /// resident (tagged [`TaskTag::Eviction`]).
    CapacityEvicted,
    /// Bound by an optimizer step (tagged [`TaskTag::OptimizerStep`]) —
    /// the paper's "exposed optimizer" stall.
    OptimizerExposed,
    /// Before the causal chain begins (release-time waits, time zero) or
    /// after the resource's last task (drain to makespan).
    StartupDrain,
}

/// All stall classes, in the fixed order reports list them.
pub const STALL_CLASSES: [StallClass; 5] = [
    StallClass::WaitingOnTransfer,
    StallClass::WaitingOnDependency,
    StallClass::CapacityEvicted,
    StallClass::OptimizerExposed,
    StallClass::StartupDrain,
];

impl StallClass {
    /// Stable kebab-case name used in JSON output and tables.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::WaitingOnTransfer => "waiting-on-transfer",
            StallClass::WaitingOnDependency => "waiting-on-dependency",
            StallClass::CapacityEvicted => "capacity-evicted",
            StallClass::OptimizerExposed => "optimizer-exposed",
            StallClass::StartupDrain => "startup-drain",
        }
    }
}

impl fmt::Display for StallClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One task on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// The task.
    pub task: TaskId,
    /// Resource it ran on.
    pub resource: ResourceId,
    /// Task kind.
    pub kind: TaskKind,
    /// Task label.
    pub label: String,
    /// Start, integer microseconds.
    pub start_us: u64,
    /// Duration, integer microseconds.
    pub dur_us: u64,
}

/// Stall attribution for one resource: its idle time partitioned into the
/// five [`StallClass`]es.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceStalls {
    /// Resource name.
    pub name: String,
    /// Busy microseconds ([`Trace::busy_us`]).
    pub busy_us: u64,
    /// Idle microseconds ([`Trace::idle_us`]); always equals the sum of
    /// `by_class`.
    pub idle_us: u64,
    /// Idle microseconds per class, in [`STALL_CLASSES`] order.
    pub by_class: [u64; 5],
}

impl ResourceStalls {
    /// Idle microseconds charged to `class`.
    pub fn class_us(&self, class: StallClass) -> u64 {
        self.by_class[STALL_CLASSES.iter().position(|&c| c == class).unwrap()]
    }
}

/// One entry of the bottleneck ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// Resource name.
    pub resource: String,
    /// Microseconds of critical-path time spent on this resource.
    pub critical_path_us: u64,
    /// `critical_path_us` as a fraction of the critical-path length.
    pub cp_share: f64,
    /// Total busy microseconds of the resource.
    pub busy_us: u64,
    /// Upper bound on end-to-end speedup if this resource ran 2× faster:
    /// `makespan / critical-path-with-halved-durations`. The bound assumes
    /// the schedule shape is fixed and everything off the new critical
    /// path compresses perfectly — real speedup will be lower.
    pub speedup_bound: f64,
}

/// The structured result of analyzing one trace.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Makespan in integer microseconds.
    pub makespan_us: u64,
    /// Critical-path length (sum of durations along the longest chain).
    /// Invariants: `cp_len_us <= makespan_us` and `cp_len_us >=
    /// busy_us(r)` for every resource `r`.
    pub cp_len_us: u64,
    /// The critical path, in execution order.
    pub critical_path: Vec<CriticalStep>,
    /// Per-task slack in microseconds, indexed by task submission order:
    /// how much the task could stretch without lengthening the critical
    /// path. Zero for every critical-path task.
    pub slack_us: Vec<u64>,
    /// Stall attribution per resource, in registration order.
    pub stalls: Vec<ResourceStalls>,
    /// Resources ranked by critical-path share (largest first), with
    /// what-if headroom estimates. Only resources that appear on the
    /// critical path are listed.
    pub bottlenecks: Vec<Bottleneck>,
}

/// Per-task scheduling facts the analyzer derives once and reuses.
struct Graph<'a> {
    trace: &'a Trace,
    /// Interval of each task, indexed by task id.
    ivs: Vec<&'a Interval>,
    /// Previous task in serialization order on the same resource.
    resource_pred: Vec<Option<TaskId>>,
    /// Sorted interval lists per resource (by start, end, task id).
    by_resource: Vec<Vec<&'a Interval>>,
}

impl<'a> Graph<'a> {
    fn new(trace: &'a Trace) -> Self {
        let n = trace.intervals().len();
        let mut ivs: Vec<Option<&Interval>> = vec![None; n];
        for iv in trace.intervals() {
            ivs[iv.task.index()] = Some(iv);
        }
        let ivs: Vec<&Interval> = ivs.into_iter().map(Option::unwrap).collect();

        let mut by_resource: Vec<Vec<&Interval>> = vec![Vec::new(); trace.resource_names().len()];
        for iv in trace.intervals() {
            by_resource[iv.resource.index()].push(iv);
        }
        let mut resource_pred = vec![None; n];
        for row in &mut by_resource {
            row.sort_by(|a, b| {
                (a.start, a.end, a.task)
                    .partial_cmp(&(b.start, b.end, b.task))
                    .unwrap()
            });
            for pair in row.windows(2) {
                resource_pred[pair[1].task.index()] = Some(pair[0].task);
            }
        }
        Graph {
            trace,
            ivs,
            resource_pred,
            by_resource,
        }
    }

    /// All predecessors of `t`: submitted dependencies plus the previous
    /// task on the same resource.
    fn preds(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.trace
            .deps_of(t)
            .iter()
            .copied()
            .chain(self.resource_pred[t.index()])
    }

    /// The predecessor whose completion bound `t`'s start time (its end
    /// equals `t`'s start bit-exactly — the engine copies these values),
    /// or `None` when `t` started at its release time (or time zero).
    ///
    /// Ties are broken deterministically: highest task id wins, with
    /// dependency edges preferred over the resource-serialization edge.
    fn binding_pred(&self, t: TaskId) -> Option<TaskId> {
        let start = self.ivs[t.index()].start;
        let mut best: Option<TaskId> = None;
        // Resource edge first so an equal-id... ids are unique; scan deps
        // last so they win ties in `>=` below.
        for p in self.resource_pred[t.index()]
            .into_iter()
            .chain(self.trace.deps_of(t).iter().copied())
        {
            if self.ivs[p.index()].end == start && best.is_none_or(|b| p >= b) {
                best = Some(p);
            }
        }
        best
    }
}

/// Classifies the stall caused by waiting on `iv`, or `None` for a
/// zero-duration synchronization task (the walk chases through those to
/// the real cause).
fn class_of(iv: &Interval) -> Option<StallClass> {
    if iv.kind == TaskKind::Sync && iv.duration_us() == 0 {
        return None;
    }
    Some(match iv.tag {
        TaskTag::OptimizerStep => StallClass::OptimizerExposed,
        TaskTag::Eviction => StallClass::CapacityEvicted,
        TaskTag::Generic => match iv.kind {
            TaskKind::Transfer | TaskKind::Cast | TaskKind::Collective => {
                StallClass::WaitingOnTransfer
            }
            _ => StallClass::WaitingOnDependency,
        },
    })
}

/// Longest path (sum of `dur_us`) ending at each task, over dependency +
/// resource-serialization edges, with optional duration scaling for the
/// what-if recompute. `halved` selects a resource whose durations count
/// half.
fn longest_path(g: &Graph<'_>, order: &[TaskId], halved: Option<ResourceId>) -> Vec<u64> {
    let dur = |t: TaskId| -> u64 {
        let iv = g.ivs[t.index()];
        let d = iv.duration_us();
        if Some(iv.resource) == halved {
            d / 2
        } else {
            d
        }
    };
    let mut up = vec![0u64; g.ivs.len()];
    for &t in order {
        let base = g.preds(t).map(|p| up[p.index()]).max().unwrap_or(0);
        up[t.index()] = base + dur(t);
    }
    up
}

/// Analyzes an executed trace: critical path, per-task slack, stall
/// attribution, and bottleneck ranking. Deterministic — identical traces
/// produce identical reports.
pub fn analyze(trace: &Trace) -> AnalysisReport {
    let g = Graph::new(trace);
    let n = g.ivs.len();
    let makespan_us = trace.makespan_us();

    // Topological order: every edge (dependency or resource serialization)
    // goes from an earlier (start, end, id) triple to a later one, except
    // that a dependency's endpoints can share all three... they cannot:
    // ids are unique, and dependency edges always point id-upward while
    // resource edges follow the sorted serialization order. Sorting by
    // (start, end, id) with the resource rows' own order spliced in is
    // fragile, so use an explicit Kahn pass instead.
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for iv in trace.intervals() {
        let t = iv.task;
        for p in g.preds(t) {
            succs[p.index()].push(t);
            indegree[t.index()] += 1;
        }
    }
    let mut order: Vec<TaskId> = Vec::with_capacity(n);
    let mut queue: Vec<TaskId> = (0..n)
        .map(TaskId::from_index)
        .filter(|t| indegree[t.index()] == 0)
        .collect();
    while let Some(t) = queue.pop() {
        order.push(t);
        for &s in &succs[t.index()] {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "executed trace cannot contain a cycle");

    // --- Critical path and slack -----------------------------------------
    let up = longest_path(&g, &order, None);
    let mut down = vec![0u64; n];
    for &t in order.iter().rev() {
        let base = succs[t.index()]
            .iter()
            .map(|s| down[s.index()])
            .max()
            .unwrap_or(0);
        down[t.index()] = base + g.ivs[t.index()].duration_us();
    }
    let cp_len_us = up.iter().copied().max().unwrap_or(0);
    let slack_us: Vec<u64> = (0..n)
        .map(|i| cp_len_us - (up[i] + down[i] - g.ivs[i].duration_us()))
        .collect();

    // Backtrack one longest chain: end at the smallest-id maximal task,
    // then repeatedly step to a predecessor that realizes the remainder.
    let mut critical_path = Vec::new();
    if n > 0 {
        let mut cur = (0..n)
            .map(TaskId::from_index)
            .min_by_key(|t| (std::cmp::Reverse(up[t.index()]), *t))
            .unwrap();
        loop {
            let iv = g.ivs[cur.index()];
            critical_path.push(CriticalStep {
                task: cur,
                resource: iv.resource,
                kind: iv.kind,
                label: iv.label.clone(),
                start_us: iv.start.as_micros_rounded(),
                dur_us: iv.duration_us(),
            });
            let remainder = up[cur.index()] - iv.duration_us();
            if remainder == 0 {
                break;
            }
            cur = g
                .preds(cur)
                .filter(|p| up[p.index()] == remainder)
                .min()
                .expect("longest-path remainder is realized by some predecessor");
        }
        critical_path.reverse();
    }

    // --- Stall attribution ------------------------------------------------
    let mut stalls = Vec::with_capacity(trace.resource_names().len());
    for (ridx, name) in trace.resource_names().iter().enumerate() {
        let rid = ResourceId::from_index(ridx);
        let mut by_class = [0u64; 5];
        let mut charge = |class: StallClass, us: u64| {
            by_class[STALL_CLASSES.iter().position(|&c| c == class).unwrap()] += us;
        };

        // Walk the binding chain backwards from `task`, charging the idle
        // window [gap_start_us, gap_end_us) segment by segment.
        let mut attribute = |task: TaskId, gap_start_us: u64, gap_end_us: u64| {
            let mut seg_end_us = gap_end_us;
            let mut cur = task;
            loop {
                let Some(p) = g.binding_pred(cur) else {
                    // Started at its release time (or time zero): the
                    // remaining window has no in-trace cause.
                    charge(StallClass::StartupDrain, seg_end_us - gap_start_us);
                    return;
                };
                let p_iv = g.ivs[p.index()];
                let p_start_us = p_iv.start.as_micros_rounded();
                if let Some(class) = class_of(p_iv) {
                    let lo = p_start_us.max(gap_start_us).min(seg_end_us);
                    charge(class, seg_end_us - lo);
                    seg_end_us = lo;
                }
                if p_start_us <= gap_start_us {
                    // p (and through it, the rest of the chain) covers the
                    // remainder of the window.
                    charge(
                        class_of(p_iv).unwrap_or(StallClass::WaitingOnDependency),
                        seg_end_us - gap_start_us,
                    );
                    return;
                }
                seg_end_us = seg_end_us.min(p_start_us);
                cur = p;
            }
        };

        let row = &g.by_resource[ridx];
        let mut run_end_us = 0u64;
        for iv in row {
            let start_us = iv.start.as_micros_rounded();
            if start_us > run_end_us {
                attribute(iv.task, run_end_us, start_us);
            }
            run_end_us = run_end_us.max(iv.end.as_micros_rounded());
        }
        if makespan_us > run_end_us {
            charge(StallClass::StartupDrain, makespan_us - run_end_us);
        }

        stalls.push(ResourceStalls {
            name: name.clone(),
            busy_us: trace.busy_us(rid),
            idle_us: trace.idle_us(rid),
            by_class,
        });
    }

    // --- Bottleneck ranking with what-if headroom -------------------------
    let mut cp_by_resource = vec![0u64; trace.resource_names().len()];
    for step in &critical_path {
        cp_by_resource[step.resource.index()] += step.dur_us;
    }
    let mut ranked: Vec<usize> = (0..cp_by_resource.len())
        .filter(|&r| cp_by_resource[r] > 0)
        .collect();
    ranked.sort_by_key(|&r| (std::cmp::Reverse(cp_by_resource[r]), r));
    let bottlenecks = ranked
        .into_iter()
        .take(5)
        .map(|r| {
            let rid = ResourceId::from_index(r);
            let halved = longest_path(&g, &order, Some(rid));
            let new_cp = halved.iter().copied().max().unwrap_or(0);
            Bottleneck {
                resource: trace.resource_names()[r].clone(),
                critical_path_us: cp_by_resource[r],
                cp_share: if cp_len_us > 0 {
                    cp_by_resource[r] as f64 / cp_len_us as f64
                } else {
                    0.0
                },
                busy_us: trace.busy_us(rid),
                speedup_bound: if new_cp > 0 {
                    makespan_us as f64 / new_cp as f64
                } else {
                    1.0
                },
            }
        })
        .collect();

    AnalysisReport {
        makespan_us,
        cp_len_us,
        critical_path,
        slack_us,
        stalls,
        bottlenecks,
    }
}

impl AnalysisReport {
    /// Total idle microseconds across all resources.
    pub fn total_idle_us(&self) -> u64 {
        self.stalls.iter().map(|s| s.idle_us).sum()
    }

    /// Total idle microseconds per class across all resources, in
    /// [`STALL_CLASSES`] order.
    pub fn totals_by_class(&self) -> [u64; 5] {
        let mut totals = [0u64; 5];
        for s in &self.stalls {
            for (t, v) in totals.iter_mut().zip(&s.by_class) {
                *t += v;
            }
        }
        totals
    }

    /// The longest critical-path steps (duration-descending, then start,
    /// then task id), for compact reporting.
    pub fn top_steps(&self, k: usize) -> Vec<&CriticalStep> {
        let mut steps: Vec<&CriticalStep> = self.critical_path.iter().collect();
        steps.sort_by_key(|s| (std::cmp::Reverse(s.dur_us), s.start_us, s.task));
        steps.truncate(k);
        steps
    }

    /// Serializes the report as a deterministic, versioned JSON object
    /// (schema [`ANALYSIS_SCHEMA`]). `meta` entries identify the run, as
    /// in [`crate::telemetry::MetricsRecorder::snapshot_json`].
    ///
    /// The critical path is summarized (length, per-resource and per-kind
    /// totals, the 32 longest steps); full per-task slack is reduced to
    /// counts so snapshots stay diff- and gate-friendly.
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut by_res: BTreeMap<&str, u64> = BTreeMap::new();
        let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.critical_path {
            *by_res
                .entry(&self.stalls[s.resource.index()].name)
                .or_insert(0) += s.dur_us;
            *by_kind.entry(s.kind.to_string()).or_insert(0) += s.dur_us;
        }
        let frac = if self.makespan_us > 0 {
            self.cp_len_us as f64 / self.makespan_us as f64
        } else {
            0.0
        };
        JsonWriter::with_capacity(4096 + 160 * self.stalls.len()).document(Layout::Block, |doc| {
            doc.str("schema", ANALYSIS_SCHEMA);
            write_meta(doc, meta);
            doc.num("makespan_us", self.makespan_us);
            doc.object("critical_path", Layout::Block, |cp| {
                cp.num("length_us", self.cp_len_us)
                    .num("tasks", self.critical_path.len())
                    .num("makespan_fraction", frac)
                    .object("by_resource_us", Layout::Packed, |o| {
                        for (k, v) in &by_res {
                            o.num(k, *v);
                        }
                    })
                    .object("by_kind_us", Layout::Packed, |o| {
                        for (k, v) in &by_kind {
                            o.num(k, *v);
                        }
                    })
                    .array("top_steps", Layout::Block, |a| {
                        for s in self.top_steps(32) {
                            a.object(Layout::Inline, |o| {
                                o.num("task", s.task.index())
                                    .str("resource", &self.stalls[s.resource.index()].name)
                                    .str("kind", s.kind.name())
                                    .str("label", &s.label)
                                    .num("start_us", s.start_us)
                                    .num("dur_us", s.dur_us);
                            });
                        }
                    });
            });
            // Slack summary.
            doc.object("slack", Layout::Inline, |o| {
                o.num("tasks", self.slack_us.len())
                    .num(
                        "zero_slack_tasks",
                        self.slack_us.iter().filter(|&&s| s == 0).count(),
                    )
                    .num("total_slack_us", self.slack_us.iter().sum::<u64>());
            });
            doc.object("stalls", Layout::Block, |st| {
                st.num("total_idle_us", self.total_idle_us())
                    .object("by_class_us", Layout::Packed, |o| {
                        for (class, total) in STALL_CLASSES.iter().zip(self.totals_by_class()) {
                            o.num(class.name(), total);
                        }
                    })
                    .array("resources", Layout::Block, |a| {
                        for s in &self.stalls {
                            a.object(Layout::Inline, |o| {
                                o.str("name", &s.name)
                                    .num("busy_us", s.busy_us)
                                    .num("idle_us", s.idle_us)
                                    .object("classes", Layout::Packed, |c| {
                                        for (class, v) in STALL_CLASSES.iter().zip(&s.by_class) {
                                            c.num(class.name(), *v);
                                        }
                                    });
                            });
                        }
                    });
            });
            doc.array("bottlenecks", Layout::Block, |a| {
                for b in &self.bottlenecks {
                    a.object(Layout::Inline, |o| {
                        o.str("resource", &b.resource)
                            .num("critical_path_us", b.critical_path_us)
                            .num("cp_share", b.cp_share)
                            .num("busy_us", b.busy_us)
                            .num("speedup_bound", b.speedup_bound);
                    });
                }
            });
        })
    }

    /// Renders a human-readable summary table.
    pub fn render_table(&self) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "makespan {:.3} ms, critical path {:.3} ms ({:.1}% of makespan, {} tasks)",
            ms(self.makespan_us),
            ms(self.cp_len_us),
            if self.makespan_us > 0 {
                100.0 * self.cp_len_us as f64 / self.makespan_us as f64
            } else {
                0.0
            },
            self.critical_path.len(),
        );
        let _ = writeln!(
            out,
            "\n{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "resource", "busy ms", "idle ms", "xfer ms", "dep ms", "evict ms", "opt ms", "edge ms"
        );
        for s in &self.stalls {
            let _ = writeln!(
                out,
                "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                s.name,
                ms(s.busy_us),
                ms(s.idle_us),
                ms(s.by_class[0]),
                ms(s.by_class[1]),
                ms(s.by_class[2]),
                ms(s.by_class[3]),
                ms(s.by_class[4]),
            );
        }
        let _ = writeln!(
            out,
            "\n{:<12} {:>10} {:>9} {:>14}",
            "bottleneck", "cp ms", "share", "2x speedup <="
        );
        for b in &self.bottlenecks {
            let _ = writeln!(
                out,
                "{:<12} {:>10.3} {:>8.1}% {:>13.2}x",
                b.resource,
                ms(b.critical_path_us),
                b.cp_share * 100.0,
                b.speedup_bound,
            );
        }
        let _ = writeln!(out, "\ntop critical-path steps:");
        for s in self.top_steps(8) {
            let _ = writeln!(
                out,
                "  {:<24} {:<10} {:>10.3} ms at {:>10.3} ms",
                if s.label.is_empty() {
                    "(task)"
                } else {
                    &s.label
                },
                self.stalls[s.resource.index()].name,
                ms(s.dur_us),
                ms(s.start_us),
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Run diffing: causal comparison of two executed traces.
// ---------------------------------------------------------------------------

/// Stable identity of a task across two runs of the same (or a related)
/// workload. Tasks are aligned by where they ran (the resource name, which
/// encodes the node under the fleet naming scheme), what role they played
/// (tag + label), and *which* repetition they were (occurrence index in
/// start order on that resource) — never by [`TaskId`], which is a
/// submission-order artifact that reshuffles freely between systems.
///
/// The resource name and label borrow from the [`Trace`] the key indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskKey<'a> {
    /// Resource name the task ran on (e.g. `node1/gpu`).
    pub resource: &'a str,
    /// Stable tag name ([`TaskTag::name`]).
    pub tag: &'static str,
    /// Task label as submitted.
    pub label: &'a str,
    /// Zero-based repetition index among tasks with the same
    /// (resource, tag, label) triple, counted in start order.
    pub occurrence: u32,
}

impl fmt::Display for TaskKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}#{}",
            self.resource,
            self.tag,
            if self.label.is_empty() {
                "(task)"
            } else {
                self.label
            },
            self.occurrence
        )
    }
}

/// Duration delta of one aligned task. `None` on a side means the task has
/// no counterpart in that run (it entered or left the schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDelta<'a> {
    /// Alignment key.
    pub key: TaskKey<'a>,
    /// Task kind name (from run B when present, else run A).
    pub kind: &'static str,
    /// Duration in run A, µs; `None` if absent there.
    pub dur_a_us: Option<u64>,
    /// Duration in run B, µs; `None` if absent there.
    pub dur_b_us: Option<u64>,
    /// Signed delta: `dur_b - dur_a` with absent sides counted as zero.
    pub delta_us: i64,
}

/// Per-resource busy/idle/stall-class deltas between two runs. For a
/// resource present in only one run, the missing side is synthesized as
/// fully idle for that run's makespan with all idle charged to
/// [`StallClass::StartupDrain`] — so the conservation invariant below
/// holds for *every* resource, not just shared ones.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDelta {
    /// Resource name.
    pub name: String,
    /// Busy µs in run A / run B.
    pub busy_a_us: u64,
    /// Busy µs in run B.
    pub busy_b_us: u64,
    /// Idle µs in run A.
    pub idle_a_us: u64,
    /// Idle µs in run B.
    pub idle_b_us: u64,
    /// `busy_b - busy_a`. Always equals `task_delta_us` bit-exactly.
    pub busy_delta_us: i64,
    /// `idle_b - idle_a`. Always equals the sum of `by_class_delta_us`.
    pub idle_delta_us: i64,
    /// Signed idle delta per stall class, in [`STALL_CLASSES`] order.
    pub by_class_delta_us: [i64; 5],
    /// Sum of aligned-task duration deltas on this resource.
    pub task_delta_us: i64,
}

impl ResourceDelta {
    /// `busy_delta_us + idle_delta_us` — equals the makespan delta for
    /// every resource (each run's busy + idle partitions its makespan).
    pub fn total_delta_us(&self) -> i64 {
        self.busy_delta_us + self.idle_delta_us
    }
}

/// How one critical-path edge changed between the two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeChange {
    /// On run B's critical path but not run A's.
    Entered,
    /// On run A's critical path but not run B's.
    Left,
    /// On both, with a longer duration in run B.
    Grew,
    /// On both, with a shorter duration in run B.
    Shrank,
    /// On both, same duration.
    Unchanged,
}

impl EdgeChange {
    /// Stable kebab-case name used in JSON output and tables.
    pub fn name(self) -> &'static str {
        match self {
            EdgeChange::Entered => "entered",
            EdgeChange::Left => "left",
            EdgeChange::Grew => "grew",
            EdgeChange::Shrank => "shrank",
            EdgeChange::Unchanged => "unchanged",
        }
    }
}

impl fmt::Display for EdgeChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One edge of the critical-path churn table.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalEdgeDiff<'a> {
    /// Alignment key of the step.
    pub key: TaskKey<'a>,
    /// Task kind name.
    pub kind: &'static str,
    /// Change class.
    pub change: EdgeChange,
    /// Critical-path duration in run A, if the step was on A's path.
    pub dur_a_us: Option<u64>,
    /// Critical-path duration in run B, if the step is on B's path.
    pub dur_b_us: Option<u64>,
    /// Signed duration delta with absent sides counted as zero.
    pub delta_us: i64,
}

/// The structured result of diffing two analyzed traces.
///
/// Conservation invariant (checked by `debug_assert!` and property
/// tests): for **every** resource,
/// `task_delta_us + Σ by_class_delta_us == makespan_delta_us`,
/// because each run partitions each resource's makespan bit-exactly into
/// busy time (the sum of its task durations) and classed idle time.
///
/// Task keys borrow from the two diffed traces.
#[derive(Debug, Clone)]
pub struct AnalysisDiff<'a> {
    /// Makespan of run A, µs.
    pub makespan_a_us: u64,
    /// Makespan of run B, µs.
    pub makespan_b_us: u64,
    /// `makespan_b - makespan_a`.
    pub makespan_delta_us: i64,
    /// Critical-path length of run A, µs.
    pub cp_len_a_us: u64,
    /// Critical-path length of run B, µs.
    pub cp_len_b_us: u64,
    /// Per-resource deltas, ordered by resource name.
    pub resources: Vec<ResourceDelta>,
    /// All aligned-task deltas (including zero ones), ordered by key.
    pub tasks: Vec<TaskDelta<'a>>,
    /// Critical-path churn: run B's path in order, then steps that left
    /// (run A's path only) in run A order.
    pub critical_path: Vec<CriticalEdgeDiff<'a>>,
    /// Run A's bottleneck ranking (what-if §9 bounds).
    pub bottlenecks_a: Vec<Bottleneck>,
    /// Run B's bottleneck ranking (what-if §9 bounds).
    pub bottlenecks_b: Vec<Bottleneck>,
}

impl<'a> AnalysisDiff<'a> {
    /// True when the two runs are bit-identical under alignment: zero
    /// makespan delta and zero delta on every task, resource, and stall
    /// class, with no critical-path churn.
    pub fn is_zero(&self) -> bool {
        self.makespan_delta_us == 0
            && self.cp_len_a_us == self.cp_len_b_us
            && self
                .tasks
                .iter()
                .all(|t| t.delta_us == 0 && t.dur_a_us.is_some() && t.dur_b_us.is_some())
            && self.resources.iter().all(|r| {
                r.busy_delta_us == 0
                    && r.idle_delta_us == 0
                    && r.by_class_delta_us.iter().all(|&d| d == 0)
            })
            && self
                .critical_path
                .iter()
                .all(|e| e.change == EdgeChange::Unchanged)
    }

    /// The `k` largest task contributors to the makespan delta, ranked by
    /// absolute delta (ties broken by key). Zero-delta tasks are skipped.
    pub fn top_contributors(&self, k: usize) -> Vec<&TaskDelta<'a>> {
        let mut v: Vec<&TaskDelta<'a>> = self.tasks.iter().filter(|t| t.delta_us != 0).collect();
        v.sort_by(|a, b| {
            b.delta_us
                .unsigned_abs()
                .cmp(&a.delta_us.unsigned_abs())
                .then_with(|| a.key.cmp(&b.key))
        });
        v.truncate(k);
        v
    }

    /// Renders a human-readable diff summary table.
    pub fn render_table(&self, label_a: &str, label_b: &str) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let dms = |us: i64| us as f64 / 1e3;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "makespan {:.3} ms ({label_a}) -> {:.3} ms ({label_b}): {:+.3} ms",
            ms(self.makespan_a_us),
            ms(self.makespan_b_us),
            dms(self.makespan_delta_us),
        );
        let _ = writeln!(
            out,
            "critical path {:.3} ms -> {:.3} ms",
            ms(self.cp_len_a_us),
            ms(self.cp_len_b_us),
        );
        let _ = writeln!(
            out,
            "\n{:<16} {:>11} {:>11} {:>11} {:>11}",
            "resource", "busy Δms", "idle Δms", "task Δms", "total Δms"
        );
        for r in &self.resources {
            let _ = writeln!(
                out,
                "{:<16} {:>+11.3} {:>+11.3} {:>+11.3} {:>+11.3}",
                r.name,
                dms(r.busy_delta_us),
                dms(r.idle_delta_us),
                dms(r.task_delta_us),
                dms(r.total_delta_us()),
            );
        }
        let mut by_class = [0i64; 5];
        for r in &self.resources {
            for (t, v) in by_class.iter_mut().zip(&r.by_class_delta_us) {
                *t += v;
            }
        }
        let _ = writeln!(out, "\nstall-class Δ (all resources):");
        for (class, v) in STALL_CLASSES.iter().zip(by_class) {
            let _ = writeln!(out, "  {:<22} {:>+11.3} ms", class.name(), dms(v));
        }
        let churned: Vec<&CriticalEdgeDiff<'a>> = self
            .critical_path
            .iter()
            .filter(|e| e.change != EdgeChange::Unchanged)
            .collect();
        let _ = writeln!(
            out,
            "\ncritical-path churn: {} of {} edges changed",
            churned.len(),
            self.critical_path.len()
        );
        for e in churned.iter().take(8) {
            let _ = writeln!(
                out,
                "  {:<9} {:<40} {:>+10.3} ms",
                e.change.name(),
                e.key.to_string(),
                dms(e.delta_us),
            );
        }
        let _ = writeln!(out, "\ntop contributors to the makespan delta:");
        for t in self.top_contributors(8) {
            let _ = writeln!(
                out,
                "  {:<40} {:>+10.3} ms  ({} -> {})",
                t.key.to_string(),
                dms(t.delta_us),
                t.dur_a_us.map_or("absent".to_string(), |d| format!("{d}")),
                t.dur_b_us.map_or("absent".to_string(), |d| format!("{d}")),
            );
        }
        if let Some(b) = self.bottlenecks_b.first() {
            let _ = writeln!(
                out,
                "\nwhat-if ({label_b}): 2x faster {} would bound speedup at {:.2}x",
                b.resource, b.speedup_bound
            );
        }
        out
    }
}

/// One task of a trace under its alignment key.
#[derive(Clone, Copy)]
struct AlignedTask<'a> {
    key: TaskKey<'a>,
    kind: &'static str,
    dur_us: u64,
}

/// Aligns every task of `trace` to a [`TaskKey`]. Returns the key of each
/// task (indexed by task id) and the tasks sorted strictly by key.
fn index_tasks(trace: &Trace) -> (Vec<TaskKey<'_>>, Vec<AlignedTask<'_>>) {
    let names = trace.resource_names();
    // Rows are in start order, so a stable sort on (resource, tag, label,
    // row) lines up each triple's tasks in start order: the occurrence
    // index is the rank within that run.
    let mut grouped: Vec<(&str, &'static str, &str, usize, &Interval)> = trace
        .rows()
        .into_iter()
        .enumerate()
        .flat_map(|(r, row)| {
            row.into_iter()
                .map(move |iv| (names[r].as_str(), iv.tag.name(), iv.label.as_str(), r, iv))
        })
        .collect();
    grouped.sort_by_key(|&(resource, tag, label, r, _)| (resource, tag, label, r));
    let mut keys = vec![None; trace.intervals().len()];
    let mut tasks = Vec::with_capacity(grouped.len());
    let mut occurrence = 0;
    for (i, &(resource, tag, label, r, iv)) in grouped.iter().enumerate() {
        let same_run = i > 0 && {
            let (pr, pt, pl, prow, _) = grouped[i - 1];
            (pr, pt, pl, prow) == (resource, tag, label, r)
        };
        occurrence = if same_run { occurrence + 1 } else { 0 };
        let key = TaskKey {
            resource,
            tag,
            label,
            occurrence,
        };
        keys[iv.task.index()] = Some(key);
        tasks.push(AlignedTask {
            key,
            kind: iv.kind.name(),
            dur_us: iv.duration_us(),
        });
    }
    // Resources that share a name yield equal keys: the later resource's
    // task wins, as it would in a map keyed by `TaskKey`. The sort is a
    // linear pass when names are unique.
    tasks.sort_by_key(|t| t.key);
    tasks.dedup_by(|later, kept| {
        let same = later.key == kept.key;
        if same {
            *kept = *later;
        }
        same
    });
    let keys = keys
        .into_iter()
        .map(|k| k.expect("every task has exactly one interval"))
        .collect();
    (keys, tasks)
}

/// A report's stall rows by resource name (a later duplicate name wins).
fn stalls_by_name(report: &AnalysisReport) -> BTreeMap<&str, &ResourceStalls> {
    report.stalls.iter().map(|s| (s.name.as_str(), s)).collect()
}

/// Diffs two executed traces causally: aligned per-task duration deltas,
/// per-resource busy/idle/stall-class deltas, and critical-path churn.
/// Deterministic — identical trace pairs produce identical diffs — and
/// conservation-exact: for every resource, the task delta plus the
/// stall-class deltas sum bit-exactly to the makespan delta.
pub fn diff_analyses<'a>(trace_a: &'a Trace, trace_b: &'a Trace) -> AnalysisDiff<'a> {
    let report_a = analyze(trace_a);
    let report_b = analyze(trace_b);
    let makespan_a_us = report_a.makespan_us;
    let makespan_b_us = report_b.makespan_us;
    let makespan_delta_us = makespan_b_us as i64 - makespan_a_us as i64;

    // --- Task alignment ---------------------------------------------------
    let (keys_a, tasks_a) = index_tasks(trace_a);
    let (keys_b, tasks_b) = index_tasks(trace_b);
    let mut tasks = Vec::with_capacity(tasks_a.len().max(tasks_b.len()));
    let mut task_delta_by_resource: BTreeMap<&str, i64> = BTreeMap::new();
    // Merge-walk both sorted task lists so the union stays in key order.
    let (mut i, mut j) = (0, 0);
    while i < tasks_a.len() || j < tasks_b.len() {
        let order = match (tasks_a.get(i), tasks_b.get(j)) {
            (Some(a), Some(b)) => a.key.cmp(&b.key),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        let a = (order != Ordering::Greater).then(|| tasks_a[i]);
        let b = (order != Ordering::Less).then(|| tasks_b[j]);
        i += usize::from(a.is_some());
        j += usize::from(b.is_some());
        let t = b.or(a).expect("the merge takes at least one side");
        let dur_a_us = a.map(|t| t.dur_us);
        let dur_b_us = b.map(|t| t.dur_us);
        let delta_us = dur_b_us.unwrap_or(0) as i64 - dur_a_us.unwrap_or(0) as i64;
        *task_delta_by_resource.entry(t.key.resource).or_insert(0) += delta_us;
        tasks.push(TaskDelta {
            key: t.key,
            kind: t.kind,
            dur_a_us,
            dur_b_us,
            delta_us,
        });
    }

    // --- Per-resource deltas ----------------------------------------------
    let stalls_a = stalls_by_name(&report_a);
    let stalls_b = stalls_by_name(&report_b);
    // A resource missing from a run is fully idle for that run's makespan,
    // all of it startup/drain: no task ever bound it.
    let synthesized = |makespan_us: u64| ResourceStalls {
        name: String::new(),
        busy_us: 0,
        idle_us: makespan_us,
        by_class: [0, 0, 0, 0, makespan_us],
    };
    let (missing_a, missing_b) = (synthesized(makespan_a_us), synthesized(makespan_b_us));
    let names: BTreeSet<&str> = stalls_a.keys().chain(stalls_b.keys()).copied().collect();
    let mut resources = Vec::with_capacity(names.len());
    for name in names {
        let sa = stalls_a.get(name).copied().unwrap_or(&missing_a);
        let sb = stalls_b.get(name).copied().unwrap_or(&missing_b);
        let mut by_class_delta_us = [0i64; 5];
        for (d, (a, b)) in by_class_delta_us
            .iter_mut()
            .zip(sa.by_class.iter().zip(&sb.by_class))
        {
            *d = *b as i64 - *a as i64;
        }
        let delta = ResourceDelta {
            name: name.to_string(),
            busy_a_us: sa.busy_us,
            busy_b_us: sb.busy_us,
            idle_a_us: sa.idle_us,
            idle_b_us: sb.idle_us,
            busy_delta_us: sb.busy_us as i64 - sa.busy_us as i64,
            idle_delta_us: sb.idle_us as i64 - sa.idle_us as i64,
            by_class_delta_us,
            task_delta_us: task_delta_by_resource.get(name).copied().unwrap_or(0),
        };
        debug_assert_eq!(
            delta.task_delta_us, delta.busy_delta_us,
            "aligned task deltas must reproduce the busy delta on {name}"
        );
        debug_assert_eq!(
            delta.by_class_delta_us.iter().sum::<i64>(),
            delta.idle_delta_us,
            "stall-class deltas must partition the idle delta on {name}"
        );
        debug_assert_eq!(
            delta.total_delta_us(),
            makespan_delta_us,
            "busy + idle deltas must reproduce the makespan delta on {name}"
        );
        resources.push(delta);
    }

    // --- Critical-path churn ----------------------------------------------
    let cp_durs = |report: &AnalysisReport, keys: &[TaskKey<'a>]| -> BTreeMap<TaskKey<'a>, u64> {
        report
            .critical_path
            .iter()
            .map(|s| (keys[s.task.index()], s.dur_us))
            .collect()
    };
    let cp_a = cp_durs(&report_a, &keys_a);
    let cp_b = cp_durs(&report_b, &keys_b);
    let mut critical_path = Vec::new();
    for step in &report_b.critical_path {
        let key = keys_b[step.task.index()];
        let dur_b = step.dur_us;
        let (change, dur_a_us) = match cp_a.get(&key) {
            None => (EdgeChange::Entered, None),
            Some(&dur_a) if dur_b > dur_a => (EdgeChange::Grew, Some(dur_a)),
            Some(&dur_a) if dur_b < dur_a => (EdgeChange::Shrank, Some(dur_a)),
            Some(&dur_a) => (EdgeChange::Unchanged, Some(dur_a)),
        };
        critical_path.push(CriticalEdgeDiff {
            key,
            kind: step.kind.name(),
            change,
            dur_a_us,
            dur_b_us: Some(dur_b),
            delta_us: dur_b as i64 - dur_a_us.unwrap_or(0) as i64,
        });
    }
    for step in &report_a.critical_path {
        let key = keys_a[step.task.index()];
        if cp_b.contains_key(&key) {
            continue;
        }
        critical_path.push(CriticalEdgeDiff {
            key,
            kind: step.kind.name(),
            change: EdgeChange::Left,
            dur_a_us: Some(step.dur_us),
            dur_b_us: None,
            delta_us: -(step.dur_us as i64),
        });
    }

    AnalysisDiff {
        makespan_a_us,
        makespan_b_us,
        makespan_delta_us,
        cp_len_a_us: report_a.cp_len_us,
        cp_len_b_us: report_b.cp_len_us,
        resources,
        tasks,
        critical_path,
        bottlenecks_a: report_a.bottlenecks,
        bottlenecks_b: report_b.bottlenecks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulator, TaskSpec};
    use crate::time::SimTime;

    fn ms(x: f64) -> SimTime {
        SimTime::from_millis(x)
    }

    /// gpu: bwd(4ms) ......... fwd(2ms)
    /// cpu: ........ step(3ms) .........
    /// The GPU idles 3 ms waiting on the (tagged) optimizer step.
    fn optimizer_exposed_trace() -> Trace {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        let bwd = sim
            .add_task(TaskSpec::compute(gpu, ms(4.0)).with_label("bwd"))
            .unwrap();
        let step = sim
            .add_task(
                TaskSpec::compute(cpu, ms(3.0))
                    .with_label("step")
                    .tagged(TaskTag::OptimizerStep)
                    .after(bwd),
            )
            .unwrap();
        sim.add_task(
            TaskSpec::compute(gpu, ms(2.0))
                .with_label("fwd")
                .after(step),
        )
        .unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn critical_path_is_the_full_chain() {
        let report = analyze(&optimizer_exposed_trace());
        assert_eq!(report.makespan_us, 9_000);
        assert_eq!(report.cp_len_us, 9_000);
        let labels: Vec<&str> = report
            .critical_path
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(labels, vec!["bwd", "step", "fwd"]);
        assert!(report.slack_us.iter().all(|&s| s == 0));
    }

    #[test]
    fn gpu_idle_charged_to_exposed_optimizer() {
        let report = analyze(&optimizer_exposed_trace());
        let gpu = &report.stalls[0];
        assert_eq!(gpu.idle_us, 3_000);
        assert_eq!(gpu.class_us(StallClass::OptimizerExposed), 3_000);
        let cpu = &report.stalls[1];
        assert_eq!(cpu.idle_us, 6_000);
        // 4 ms waiting for bwd, 2 ms drain after its last task.
        assert_eq!(cpu.class_us(StallClass::WaitingOnDependency), 4_000);
        assert_eq!(cpu.class_us(StallClass::StartupDrain), 2_000);
    }

    #[test]
    fn stall_classes_partition_idle_exactly() {
        let trace = optimizer_exposed_trace();
        let report = analyze(&trace);
        for (ridx, s) in report.stalls.iter().enumerate() {
            let sum: u64 = s.by_class.iter().sum();
            assert_eq!(sum, s.idle_us);
            assert_eq!(s.idle_us, trace.idle_us(ResourceId::from_index(ridx)));
        }
    }

    #[test]
    fn transfer_stall_classified_and_chased_through_sync() {
        // gpu: a(2ms) ................. c
        // link: ...... x(3ms, evict) ....
        // gate: sync after x; c waits on gate.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let link = sim.add_resource("link");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(2.0))).unwrap();
        let x = sim
            .add_task(
                TaskSpec::transfer(link, ms(3.0))
                    .tagged(TaskTag::Eviction)
                    .after(a),
            )
            .unwrap();
        let gate = sim.add_task(TaskSpec::sync(gpu).after(x)).unwrap();
        sim.add_task(TaskSpec::compute(gpu, ms(1.0)).after(gate))
            .unwrap();
        let report = analyze(&sim.run().unwrap());
        let gpu_stalls = &report.stalls[0];
        assert_eq!(gpu_stalls.idle_us, 3_000);
        // The sync gate is chased through to the tagged eviction transfer.
        assert_eq!(gpu_stalls.class_us(StallClass::CapacityEvicted), 3_000);
    }

    #[test]
    fn cp_invariants_hold() {
        let trace = optimizer_exposed_trace();
        let report = analyze(&trace);
        assert!(report.cp_len_us <= report.makespan_us);
        for ridx in 0..trace.resource_names().len() {
            assert!(report.cp_len_us >= trace.busy_us(ResourceId::from_index(ridx)));
        }
    }

    #[test]
    fn bottlenecks_ranked_with_headroom() {
        let report = analyze(&optimizer_exposed_trace());
        assert_eq!(report.bottlenecks[0].resource, "gpu");
        assert_eq!(report.bottlenecks[0].critical_path_us, 6_000);
        // Halving gpu time: cp = 2 + 3 + 1 = 6 ms; bound = 9/6.
        assert!((report.bottlenecks[0].speedup_bound - 1.5).abs() < 1e-12);
        let cpu = &report.bottlenecks[1];
        assert_eq!(cpu.resource, "cpu");
        // Halving cpu: cp = 4 + 1.5 + 2 = 7.5 ms; bound = 9/7.5 = 1.2.
        assert!((cpu.speedup_bound - 1.2).abs() < 1e-12);
    }

    #[test]
    fn slack_nonzero_off_critical_path() {
        // Two parallel chains: long (6ms) and short (1ms) joined by a gate.
        let mut sim = Simulator::new();
        let a = sim.add_resource("a");
        let b = sim.add_resource("b");
        let long = sim.add_task(TaskSpec::compute(a, ms(6.0))).unwrap();
        let short = sim.add_task(TaskSpec::compute(b, ms(1.0))).unwrap();
        sim.add_task(TaskSpec::sync(a).after(long).after(short))
            .unwrap();
        let report = analyze(&sim.run().unwrap());
        assert_eq!(report.slack_us[long.index()], 0);
        assert_eq!(report.slack_us[short.index()], 5_000);
    }

    #[test]
    fn startup_and_drain_attributed() {
        // One task released late on an otherwise empty resource pair.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        sim.add_resource("idle");
        sim.add_task(TaskSpec::compute(gpu, ms(1.0)).not_before(ms(2.0)))
            .unwrap();
        let report = analyze(&sim.run().unwrap());
        assert_eq!(report.stalls[0].class_us(StallClass::StartupDrain), 2_000);
        assert_eq!(report.stalls[1].class_us(StallClass::StartupDrain), 3_000);
        assert_eq!(report.makespan_us, 3_000);
        assert_eq!(report.cp_len_us, 1_000);
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let mut sim = Simulator::new();
        sim.add_resource("gpu");
        let report = analyze(&sim.run().unwrap());
        assert_eq!(report.makespan_us, 0);
        assert_eq!(report.cp_len_us, 0);
        assert!(report.critical_path.is_empty());
        assert!(report.bottlenecks.is_empty());
        crate::telemetry::validate_json(&report.to_json(&[])).unwrap();
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let trace = optimizer_exposed_trace();
        let a = analyze(&trace).to_json(&[("system", "demo".to_string())]);
        let b = analyze(&trace).to_json(&[("system", "demo".to_string())]);
        assert_eq!(a, b);
        crate::telemetry::validate_json(&a).unwrap();
        assert!(a.contains(ANALYSIS_SCHEMA));
        assert!(a.contains("\"optimizer-exposed\": 3000"));
        assert!(a.contains("\"by_resource_us\""));
    }

    #[test]
    fn table_renders_key_lines() {
        let s = analyze(&optimizer_exposed_trace()).render_table();
        assert!(s.contains("critical path"));
        assert!(s.contains("bottleneck"));
        assert!(s.contains("gpu"));
    }

    /// Like [`optimizer_exposed_trace`] but with a slower optimizer step,
    /// so the makespan grows by exactly the step's growth.
    fn slower_step_trace(step_ms: f64) -> Trace {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        let bwd = sim
            .add_task(TaskSpec::compute(gpu, ms(4.0)).with_label("bwd"))
            .unwrap();
        let step = sim
            .add_task(
                TaskSpec::compute(cpu, ms(step_ms))
                    .with_label("step")
                    .tagged(TaskTag::OptimizerStep)
                    .after(bwd),
            )
            .unwrap();
        sim.add_task(
            TaskSpec::compute(gpu, ms(2.0))
                .with_label("fwd")
                .after(step),
        )
        .unwrap();
        sim.run().unwrap()
    }

    fn assert_conserved(diff: &AnalysisDiff) {
        for r in &diff.resources {
            assert_eq!(
                r.task_delta_us, r.busy_delta_us,
                "task vs busy on {}",
                r.name
            );
            assert_eq!(
                r.by_class_delta_us.iter().sum::<i64>(),
                r.idle_delta_us,
                "class partition on {}",
                r.name
            );
            assert_eq!(
                r.total_delta_us(),
                diff.makespan_delta_us,
                "conservation on {}",
                r.name
            );
        }
    }

    #[test]
    fn identical_traces_diff_to_zero() {
        let (a, b) = (optimizer_exposed_trace(), optimizer_exposed_trace());
        let diff = diff_analyses(&a, &b);
        assert!(diff.is_zero());
        assert_eq!(diff.makespan_delta_us, 0);
        assert!(diff.tasks.iter().all(|t| t.delta_us == 0));
        assert!(diff
            .critical_path
            .iter()
            .all(|e| e.change == EdgeChange::Unchanged));
        assert!(diff.top_contributors(8).is_empty());
        assert_conserved(&diff);
    }

    #[test]
    fn slower_optimizer_attributed_exactly() {
        let (a, b) = (slower_step_trace(3.0), slower_step_trace(5.0));
        let diff = diff_analyses(&a, &b);
        assert!(!diff.is_zero());
        assert_eq!(diff.makespan_delta_us, 2_000);
        assert_conserved(&diff);
        // The one grown task is the top contributor.
        let top = diff.top_contributors(8);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].key.label, "step");
        assert_eq!(top[0].delta_us, 2_000);
        // cpu absorbs the busy delta; gpu absorbs it as optimizer-exposed idle.
        let gpu = diff.resources.iter().find(|r| r.name == "gpu").unwrap();
        assert_eq!(gpu.busy_delta_us, 0);
        assert_eq!(gpu.by_class_delta_us[3], 2_000); // optimizer-exposed
        let cpu = diff.resources.iter().find(|r| r.name == "cpu").unwrap();
        assert_eq!(cpu.busy_delta_us, 2_000);
        // The grown step is flagged on the critical path.
        let step = diff
            .critical_path
            .iter()
            .find(|e| e.key.label == "step")
            .unwrap();
        assert_eq!(step.change, EdgeChange::Grew);
        assert_eq!(step.delta_us, 2_000);
    }

    #[test]
    fn disjoint_resources_synthesize_conserved_sides() {
        let mut sim_a = Simulator::new();
        let gpu = sim_a.add_resource("gpu");
        sim_a
            .add_task(TaskSpec::compute(gpu, ms(2.0)).with_label("x"))
            .unwrap();
        let trace_a = sim_a.run().unwrap();

        let mut sim_b = Simulator::new();
        let tpu = sim_b.add_resource("tpu");
        sim_b
            .add_task(TaskSpec::compute(tpu, ms(5.0)).with_label("y"))
            .unwrap();
        let trace_b = sim_b.run().unwrap();

        let diff = diff_analyses(&trace_a, &trace_b);
        assert_eq!(diff.makespan_delta_us, 3_000);
        assert_conserved(&diff);
        // Both sides are present as resources, each conserving the delta.
        assert_eq!(diff.resources.len(), 2);
        // gpu lost its task; tpu gained one.
        let x = diff.tasks.iter().find(|t| t.key.label == "x").unwrap();
        assert_eq!(
            (x.dur_a_us, x.dur_b_us, x.delta_us),
            (Some(2_000), None, -2_000)
        );
        let y = diff.tasks.iter().find(|t| t.key.label == "y").unwrap();
        assert_eq!(
            (y.dur_a_us, y.dur_b_us, y.delta_us),
            (None, Some(5_000), 5_000)
        );
        // Critical-path churn: y entered, x left.
        let changes: Vec<(&str, EdgeChange)> = diff
            .critical_path
            .iter()
            .map(|e| (e.key.label, e.change))
            .collect();
        assert_eq!(
            changes,
            vec![("y", EdgeChange::Entered), ("x", EdgeChange::Left)]
        );
    }

    #[test]
    fn occurrence_index_aligns_repeated_labels() {
        let repeated = |durs: [f64; 3]| {
            let mut sim = Simulator::new();
            let gpu = sim.add_resource("gpu");
            let mut prev = None;
            for d in durs {
                let mut spec = TaskSpec::compute(gpu, ms(d)).with_label("layer");
                if let Some(p) = prev {
                    spec = spec.after(p);
                }
                prev = Some(sim.add_task(spec).unwrap());
            }
            sim.run().unwrap()
        };
        let (a, b) = (repeated([1.0, 2.0, 3.0]), repeated([1.0, 4.0, 3.0]));
        let diff = diff_analyses(&a, &b);
        assert_conserved(&diff);
        assert_eq!(diff.makespan_delta_us, 2_000);
        let moved: Vec<&TaskDelta> = diff.tasks.iter().filter(|t| t.delta_us != 0).collect();
        assert_eq!(moved.len(), 1);
        // Only the middle occurrence moved.
        assert_eq!(moved[0].key.occurrence, 1);
        assert_eq!(moved[0].delta_us, 2_000);
    }

    #[test]
    fn resources_sharing_a_name_keep_the_later_task() {
        let mut sim = Simulator::new();
        for d in [1.0, 2.0] {
            let gpu = sim.add_resource("gpu");
            sim.add_task(TaskSpec::compute(gpu, ms(d)).with_label("x"))
                .unwrap();
        }
        let trace = sim.run().unwrap();
        let diff = diff_analyses(&trace, &trace);
        let durs: Vec<_> = diff
            .tasks
            .iter()
            .map(|t| (t.dur_a_us, t.dur_b_us))
            .collect();
        assert_eq!(durs, vec![(Some(2_000), Some(2_000))]);
    }

    #[test]
    fn diff_table_renders_key_lines() {
        let (a, b) = (slower_step_trace(3.0), slower_step_trace(5.0));
        let diff = diff_analyses(&a, &b);
        let s = diff.render_table("base", "cand");
        assert!(s.contains("makespan"));
        assert!(s.contains("critical-path churn"));
        assert!(s.contains("top contributors"));
        assert!(s.contains("optimizer-exposed"));
    }
}
