//! Execution traces and utilization statistics.

use std::fmt;

use crate::engine::{DepLists, ResourceId, TaskId, TaskKind, TaskTag, TASK_KINDS};
use crate::time::SimTime;

/// One executed task occurrence on a resource timeline.
#[derive(Debug, Clone)]
pub struct Interval {
    /// The task this interval belongs to.
    pub task: TaskId,
    /// Resource the task ran on.
    pub resource: ResourceId,
    /// Category of the work.
    pub kind: TaskKind,
    /// Semantic role for stall attribution.
    pub tag: TaskTag,
    /// Human-readable label.
    pub label: String,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Interval {
    /// Duration of the interval.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }

    /// Duration in integer microseconds, the exact-arithmetic ledger used
    /// by trace exports and [`crate::analysis`].
    pub fn duration_us(&self) -> u64 {
        self.end
            .as_micros_rounded()
            .saturating_sub(self.start.as_micros_rounded())
    }
}

/// Busy/idle statistics for one resource over the trace horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceStats {
    /// Resource name.
    pub name: String,
    /// Total busy time.
    pub busy: SimTime,
    /// Idle time within `[0, makespan]`.
    pub idle: SimTime,
    /// Busy fraction of the makespan, in `[0, 1]`.
    pub utilization: f64,
    /// Busy time broken down by the task kinds that ran on the resource,
    /// longest first; equal times keep [`TaskKind`] declaration order.
    pub busy_by_kind: Vec<(TaskKind, SimTime)>,
}

impl ResourceStats {
    /// Idle fraction of the makespan, in `[0, 1]`.
    pub fn idle_fraction(&self) -> f64 {
        1.0 - self.utilization
    }
}

/// The complete record of one simulation run.
///
/// Every per-task table is indexed by task submission order: interval `i`
/// belongs to task `i`, so a task's interval is found by index, not looked
/// up.
#[derive(Debug, Clone)]
pub struct Trace {
    resource_names: Vec<String>,
    intervals: Vec<Interval>,
    makespan: SimTime,
    /// Dependency edges of the executed DAG, as submitted.
    deps: DepLists,
    /// Per-task `not_before` release times.
    not_before: Vec<SimTime>,
}

impl Trace {
    pub(crate) fn new(
        resource_names: Vec<String>,
        intervals: Vec<Interval>,
        deps: DepLists,
        not_before: Vec<SimTime>,
    ) -> Self {
        debug_assert!(intervals
            .iter()
            .enumerate()
            .all(|(i, iv)| iv.task.index() == i));
        let makespan = intervals
            .iter()
            .map(|i| i.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        Trace {
            resource_names,
            intervals,
            makespan,
            deps,
            not_before,
        }
    }

    /// Total simulated time from zero to the last task completion.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Makespan in integer microseconds (the units of all exports).
    pub fn makespan_us(&self) -> u64 {
        self.makespan.as_micros_rounded()
    }

    /// Dependency edges of `task` as submitted to the simulator, or an
    /// empty slice for an unknown task.
    pub fn deps_of(&self, task: TaskId) -> &[TaskId] {
        self.deps.get(task.index()).unwrap_or(&[])
    }

    /// The `not_before` release time `task` was submitted with.
    pub fn release_time(&self, task: TaskId) -> SimTime {
        self.not_before
            .get(task.index())
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Busy time of a resource in integer microseconds: the sum of its
    /// intervals' [`Interval::duration_us`]. Exact (no float rounding), so
    /// `makespan_us - busy_us` partitions cleanly into stall classes.
    pub fn busy_us(&self, resource: ResourceId) -> u64 {
        self.intervals
            .iter()
            .filter(|i| i.resource == resource)
            .map(Interval::duration_us)
            .sum()
    }

    /// Idle time of a resource within `[0, makespan]`, in integer
    /// microseconds — the simulator's reported idle ledger that
    /// [`crate::analysis`] attributes stall-by-stall.
    pub fn idle_us(&self, resource: ResourceId) -> u64 {
        self.makespan_us().saturating_sub(self.busy_us(resource))
    }

    /// Names of all resources, in registration order (row order for
    /// timeline exports).
    pub fn resource_names(&self) -> &[String] {
        &self.resource_names
    }

    /// Start time of a task, if it was part of this run.
    pub fn start_time(&self, task: TaskId) -> Option<SimTime> {
        self.interval(task).map(|i| i.start)
    }

    /// End time of a task, if it was part of this run.
    pub fn end_time(&self, task: TaskId) -> Option<SimTime> {
        self.interval(task).map(|i| i.end)
    }

    /// The executed interval of a task, if it was part of this run.
    pub fn interval(&self, task: TaskId) -> Option<&Interval> {
        self.intervals.get(task.index())
    }

    /// All executed intervals, in submission order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Intervals that ran on `resource`, sorted by start time.
    pub fn intervals_on(&self, resource: ResourceId) -> Vec<&Interval> {
        let mut v: Vec<&Interval> = self
            .intervals
            .iter()
            .filter(|i| i.resource == resource)
            .collect();
        v.sort_by_key(|i| i.start);
        v
    }

    /// Every resource's intervals, indexed by resource and sorted by start
    /// time, in one pass over the trace. Row `r` equals
    /// [`Trace::intervals_on`]`(r)`, ties included: both keep submission
    /// order among intervals that start together.
    pub fn rows(&self) -> Vec<Vec<&Interval>> {
        let mut rows: Vec<Vec<&Interval>> = vec![Vec::new(); self.resource_names.len()];
        for iv in &self.intervals {
            rows[iv.resource.index()].push(iv);
        }
        for row in &mut rows {
            row.sort_by_key(|i| i.start);
        }
        rows
    }

    /// Busy/idle statistics for one resource.
    ///
    /// Idle time is measured against the *global* makespan, which matches how
    /// the paper reports GPU idle time per training iteration (Fig. 4).
    pub fn resource_stats(&self, resource: ResourceId) -> ResourceStats {
        let name = self
            .resource_names
            .get(resource.0)
            .cloned()
            .unwrap_or_else(|| format!("resource{}", resource.0));
        let mut busy = SimTime::ZERO;
        // Per kind, indexed like `TASK_KINDS`: `None` until a task of that
        // kind runs here.
        let mut by_kind: [Option<SimTime>; TASK_KINDS.len()] = [None; TASK_KINDS.len()];
        for i in self.intervals.iter().filter(|i| i.resource == resource) {
            busy += i.duration();
            let k = &mut by_kind[i.kind as usize];
            *k = Some(k.unwrap_or(SimTime::ZERO) + i.duration());
        }
        let idle = self.makespan.saturating_sub(busy);
        let utilization = if self.makespan > SimTime::ZERO {
            busy / self.makespan
        } else {
            0.0
        };
        let mut busy_by_kind: Vec<(TaskKind, SimTime)> = TASK_KINDS
            .into_iter()
            .zip(by_kind)
            .filter_map(|(kind, t)| Some((kind, t?)))
            .collect();
        // Stable: equal busy times keep `TASK_KINDS` order.
        busy_by_kind.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
        ResourceStats {
            name,
            busy,
            idle,
            utilization,
            busy_by_kind,
        }
    }

    /// Statistics for every resource, in registration order.
    pub fn all_stats(&self) -> Vec<ResourceStats> {
        (0..self.resource_names.len())
            .map(|i| self.resource_stats(ResourceId(i)))
            .collect()
    }

    /// Renders an ASCII Gantt chart of the trace, `width` columns wide.
    ///
    /// Intended for examples and debugging; each resource gets one row, with
    /// `#` marking busy periods and `.` idle periods.
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(10);
        let mut out = String::new();
        let span = self.makespan.as_secs().max(f64::MIN_POSITIVE);
        let name_w = self
            .resource_names
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(8);
        for (ridx, name) in self.resource_names.iter().enumerate() {
            let mut row = vec!['.'; width];
            for i in self
                .intervals
                .iter()
                .filter(|i| i.resource == ResourceId(ridx))
            {
                let a = ((i.start.as_secs() / span) * width as f64).floor() as usize;
                let b = ((i.end.as_secs() / span) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = '#';
                }
            }
            let bar: String = row.into_iter().collect();
            out.push_str(&format!("{name:<name_w$} |{bar}|\n"));
        }
        out.push_str(&format!(
            "{:<name_w$} 0{}{}\n",
            "",
            " ".repeat(width.saturating_sub(1)),
            self.makespan
        ));
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} tasks, makespan {}",
            self.intervals.len(),
            self.makespan
        )?;
        for stats in self.all_stats() {
            writeln!(
                f,
                "  {:<12} busy {} idle {} util {:.1}%",
                stats.name,
                stats.busy,
                stats.idle,
                stats.utilization * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulator, TaskSpec};

    fn ms(x: f64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn sample_trace() -> (Trace, TaskId, TaskId) {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        let a = sim
            .add_task(TaskSpec::compute(gpu, ms(4.0)).with_label("bwd"))
            .unwrap();
        let b = sim
            .add_task(TaskSpec::compute(cpu, ms(2.0)).with_label("step").after(a))
            .unwrap();
        (sim.run().unwrap(), a, b)
    }

    #[test]
    fn utilization_accounts_for_idle() {
        let (trace, _, _) = sample_trace();
        let gpu = trace.resource_stats(ResourceId(0));
        let cpu = trace.resource_stats(ResourceId(1));
        assert_eq!(trace.makespan(), ms(6.0));
        assert!((gpu.utilization - 4.0 / 6.0).abs() < 1e-12);
        assert!((cpu.utilization - 2.0 / 6.0).abs() < 1e-12);
        assert!((cpu.idle_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(gpu.busy, ms(4.0));
        assert_eq!(cpu.idle, ms(4.0));
    }

    #[test]
    fn busy_by_kind_partitions_busy_time() {
        let (trace, _, _) = sample_trace();
        let gpu = trace.resource_stats(ResourceId(0));
        let total: SimTime = gpu.busy_by_kind.iter().map(|(_, t)| *t).sum();
        assert_eq!(total, gpu.busy);
    }

    #[test]
    fn busy_by_kind_breaks_ties_in_kind_order() {
        // A transfer and a compute task of equal length, submitted
        // transfer first, plus a longer cast and a zero-length sync.
        let mut sim = Simulator::new();
        let r = sim.add_resource("mixed");
        sim.add_task(TaskSpec::transfer(r, ms(2.0))).unwrap();
        sim.add_task(TaskSpec::sync(r)).unwrap();
        sim.add_task(TaskSpec::compute(r, ms(2.0))).unwrap();
        sim.add_task(TaskSpec::cast(r, ms(3.0))).unwrap();
        let stats = sim.run().unwrap().resource_stats(r);
        assert_eq!(
            stats.busy_by_kind,
            vec![
                (TaskKind::Cast, ms(3.0)),
                (TaskKind::Compute, ms(2.0)),
                (TaskKind::Transfer, ms(2.0)),
                (TaskKind::Sync, SimTime::ZERO),
            ]
        );
    }

    #[test]
    fn intervals_on_sorted_by_start() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let a = sim.add_task(TaskSpec::compute(gpu, ms(1.0))).unwrap();
        let _b = sim
            .add_task(TaskSpec::compute(gpu, ms(1.0)).after(a))
            .unwrap();
        let trace = sim.run().unwrap();
        let ivs = trace.intervals_on(gpu);
        assert_eq!(ivs.len(), 2);
        assert!(ivs[0].start <= ivs[1].start);
    }

    #[test]
    fn rows_match_intervals_on_including_ties() {
        // Zero-duration syncs start together on one resource: the tie
        // order must be submission order in both views.
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let cpu = sim.add_resource("cpu");
        sim.add_resource("idle");
        let a = sim.add_task(TaskSpec::compute(cpu, ms(2.0))).unwrap();
        for _ in 0..3 {
            sim.add_task(TaskSpec::sync(gpu).after(a)).unwrap();
        }
        sim.add_task(TaskSpec::compute(gpu, ms(1.0))).unwrap();
        let trace = sim.run().unwrap();
        let rows = trace.rows();
        assert_eq!(rows.len(), 3);
        for (r, row) in rows.iter().enumerate() {
            let tasks = |ivs: &[&Interval]| ivs.iter().map(|i| i.task).collect::<Vec<_>>();
            assert_eq!(tasks(row), tasks(&trace.intervals_on(ResourceId(r))));
        }
        assert!(rows[2].is_empty());
    }

    #[test]
    fn ascii_render_has_one_row_per_resource() {
        let (trace, _, _) = sample_trace();
        let art = trace.render_ascii(40);
        assert_eq!(art.lines().count(), 3); // 2 resources + axis
        assert!(art.contains("gpu"));
        assert!(art.contains('#'));
    }

    #[test]
    fn display_mentions_makespan() {
        let (trace, _, _) = sample_trace();
        let s = trace.to_string();
        assert!(s.contains("makespan"));
        assert!(s.contains("gpu"));
    }

    #[test]
    fn empty_trace_makespan_zero() {
        let mut sim = Simulator::new();
        sim.add_resource("gpu");
        let trace = sim.run().unwrap();
        assert_eq!(trace.makespan(), SimTime::ZERO);
        assert_eq!(trace.resource_stats(ResourceId(0)).utilization, 0.0);
    }
}
