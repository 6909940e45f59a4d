//! The common result type every schedule simulation produces, plus the
//! machine-readable run profile that bundles it with a trace and telemetry.

use std::fmt;

use llm_model::workload::ExecutionPlan;
use superchip_sim::analysis::{analyze, AnalysisReport};
use superchip_sim::chrome_trace::to_chrome_trace_with_counters;
use superchip_sim::telemetry::MetricsRecorder;
use superchip_sim::{SimTime, TaskKind, Trace};

use crate::engine::StvStats;
use crate::trainer::{JournalSummary, StepJournal};

/// Outcome of simulating a training system on a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// System name ("superoffload", "zero-offload", ...).
    pub system: String,
    /// The execution plan chosen by the system's planner, if feasible.
    pub plan: Option<ExecutionPlan>,
    /// Steady-state time per optimizer step.
    pub iter_time: SimTime,
    /// Effective throughput in TFLOPS per GPU (recomputation excluded).
    pub tflops: f64,
    /// Model FLOPs Utilization per GPU, in `[0, 1]`.
    pub mfu: f64,
    /// GPU busy fraction over the steady-state iteration.
    pub gpu_util: f64,
    /// CPU busy fraction over the steady-state iteration.
    pub cpu_util: f64,
    /// Memory-pool high-water marks `(pool name, peak bytes)` observed over
    /// the run, in pool registration order (empty when the builder tracks no
    /// pools).
    pub peaks: Vec<(String, u64)>,
    /// Numeric-plane STV counters, when the report describes a real
    /// training run (folded in via [`crate::trainer::Trainer::fold_into`]).
    pub stv: Option<StvStats>,
}

impl TrainReport {
    /// An out-of-memory (infeasible) report.
    pub fn oom(system: impl Into<String>) -> Self {
        TrainReport {
            system: system.into(),
            plan: None,
            iter_time: SimTime::ZERO,
            tflops: 0.0,
            mfu: 0.0,
            gpu_util: 0.0,
            cpu_util: 0.0,
            peaks: Vec::new(),
            stv: None,
        }
    }

    /// Whether the workload fit.
    pub fn feasible(&self) -> bool {
        self.plan.is_some()
    }

    /// Peak bytes of the named memory pool, if it was tracked.
    pub fn peak_bytes(&self, pool: &str) -> Option<u64> {
        self.peaks
            .iter()
            .find(|(name, _)| name == pool)
            .map(|&(_, bytes)| bytes)
    }
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.feasible() {
            return write!(f, "{}: OOM", self.system);
        }
        write!(
            f,
            "{}: {:.1} TFLOPS ({} per iter, MFU {:.1}%, gpu {:.0}% cpu {:.0}%)",
            self.system,
            self.tflops,
            self.iter_time,
            self.mfu * 100.0,
            self.gpu_util * 100.0,
            self.cpu_util * 100.0
        )
    }
}

/// Schema identifier stamped into [`RunProfile::snapshot_json`] output (as
/// the `kind` meta entry, alongside the recorder's own schema tag).
pub const PROFILE_KIND: &str = "run-profile/v1";

/// A feasible simulation run bundled with everything observability needs:
/// the report, the execution trace, and the telemetry recorded during it.
///
/// Produced by [`crate::system::ScheduleCtx::finish_profiled`] (full
/// instrumentation: memory-pool occupancy, per-transfer bandwidth, queueing
/// delay) or derived after the fact with [`RunProfile::from_trace`] (trace-
/// level telemetry only).
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// The steady-state report.
    pub report: TrainReport,
    /// The execution trace of the run.
    pub trace: Trace,
    /// Telemetry recorded during (or derived from) the run.
    pub metrics: MetricsRecorder,
    /// Numeric-plane step-journal aggregate, when a real training run was
    /// journaled alongside the simulation (attach via
    /// [`RunProfile::attach_journal`]). Joins the two planes in one
    /// snapshot.
    pub journal: Option<JournalSummary>,
}

impl RunProfile {
    /// Derives trace-level telemetry from a finished run: `tasks.<kind>`
    /// counters, `busy-us:`/`util:` gauges per resource, and
    /// `peak-bytes:<pool>` gauges from the report's peaks. The 0/1 busy
    /// signal of each transfer resource is not a metric: the Chrome export
    /// derives it from the trace (see [`RunProfile::chrome_trace_json`]).
    ///
    /// This is the fallback for systems whose builders do not thread a
    /// recorder through the simulation.
    pub fn from_trace(report: TrainReport, trace: Trace) -> Self {
        let mut metrics = MetricsRecorder::new();
        let names = trace.resource_names().to_vec();
        let mut busy = vec![SimTime::ZERO; names.len()];
        // Tasks per kind, so each `tasks.<kind>` key is built once.
        let mut per_kind: Vec<(TaskKind, u64)> = Vec::new();
        for iv in trace.intervals() {
            match per_kind.iter_mut().find(|(k, _)| *k == iv.kind) {
                Some((_, n)) => *n += 1,
                None => per_kind.push((iv.kind, 1)),
            }
            busy[iv.resource.index()] += iv.duration();
        }
        for (kind, n) in per_kind {
            metrics.add(&format!("tasks.{kind}"), n);
        }
        let makespan = trace.makespan();
        for (name, b) in names.iter().zip(&busy) {
            metrics.set_gauge(&format!("busy-us:{name}"), b.as_micros());
            let util = if makespan > SimTime::ZERO {
                *b / makespan
            } else {
                0.0
            };
            metrics.set_gauge(&format!("util:{name}"), util);
        }
        metrics.set_gauge("makespan-us", makespan.as_micros());
        for (pool, bytes) in &report.peaks {
            metrics.set_gauge(&format!("peak-bytes:{pool}"), *bytes as f64);
        }
        RunProfile {
            report,
            trace,
            metrics,
            journal: None,
        }
    }

    /// Attaches a numeric-plane step journal's deterministic aggregate and
    /// per-step loss/grad-norm tracks to this profile, so
    /// [`RunProfile::snapshot_json`] carries both planes.
    pub fn attach_journal(&mut self, journal: &StepJournal) {
        self.journal = Some(journal.summary());
        journal.record_into(&mut self.metrics);
    }

    /// The Perfetto-loadable Chrome trace of this run: `"ph":"X"` slices for
    /// every task, an `occupancy:<name>` 0/1 busy track for every resource
    /// that ran a transfer or collective, and `"ph":"C"` counter tracks for
    /// every telemetry track.
    pub fn chrome_trace_json(&self) -> String {
        to_chrome_trace_with_counters(&self.trace, &self.metrics)
    }

    /// Runs the critical-path / stall-attribution analyzer over this run's
    /// trace (see [`superchip_sim::analysis`]).
    pub fn analyze(&self) -> AnalysisReport {
        analyze(&self.trace)
    }

    /// The versioned `superoffload.analysis/v1` JSON snapshot of
    /// [`RunProfile::analyze`], stamped with this run's system name and
    /// feasibility. Deterministic: simulated time only, never wall-clock.
    pub fn analysis_json(&self) -> String {
        self.analyze().to_json(&[
            ("system", self.report.system.clone()),
            ("feasible", self.report.feasible().to_string()),
        ])
    }

    /// The versioned, deterministic metrics snapshot of this run: the
    /// recorder's counters/gauges/tracks plus `report.*` summary gauges.
    ///
    /// Byte-identical across repeated identical runs — simulated time only,
    /// never wall-clock.
    pub fn snapshot_json(&self) -> String {
        let mut metrics = self.metrics.clone();
        metrics.set_gauge("report.iter-time-us", self.report.iter_time.as_micros());
        metrics.set_gauge("report.tflops", self.report.tflops);
        metrics.set_gauge("report.mfu", self.report.mfu);
        metrics.set_gauge("report.gpu-util", self.report.gpu_util);
        metrics.set_gauge("report.cpu-util", self.report.cpu_util);
        for (pool, bytes) in &self.report.peaks {
            metrics.set_gauge(&format!("peak-bytes:{pool}"), *bytes as f64);
        }
        if let Some(stv) = self.report.stv {
            metrics.add("stv.steps", stv.steps);
            metrics.add("stv.skipped", stv.skipped);
            metrics.add("stv.clip-rollbacks", stv.clip_rollbacks);
        }
        metrics.snapshot_json(&[
            ("kind", PROFILE_KIND.to_string()),
            ("system", self.report.system.clone()),
            ("feasible", self.report.feasible().to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superchip_sim::telemetry::validate_json;
    use superchip_sim::{Simulator, TaskSpec};

    #[test]
    fn display_covers_both_outcomes() {
        let oom = TrainReport::oom("ddp");
        assert_eq!(oom.to_string(), "ddp: OOM");
        let ok = TrainReport {
            system: "superoffload".into(),
            plan: Some(llm_model::workload::ExecutionPlan {
                micro_batch: 8,
                accum_steps: 1,
                checkpointing: false,
                activation_bytes: 0,
            }),
            iter_time: SimTime::from_secs(2.0),
            tflops: 242.6,
            mfu: 0.49,
            gpu_util: 1.0,
            cpu_util: 0.58,
            peaks: vec![("hbm".to_string(), 7 << 30)],
            stv: None,
        };
        let s = ok.to_string();
        assert!(s.contains("242.6") && s.contains("49.0%"));
        assert_eq!(ok.peak_bytes("hbm"), Some(7 << 30));
        assert_eq!(ok.peak_bytes("ddr"), None);
    }

    #[test]
    fn oom_report_is_infeasible() {
        let r = TrainReport::oom("ddp");
        assert!(!r.feasible());
        assert_eq!(r.system, "ddp");
        assert_eq!(r.tflops, 0.0);
        assert!(r.peaks.is_empty());
    }

    fn tiny_trace() -> Trace {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu");
        let link = sim.add_resource("link");
        let a = sim
            .add_task(TaskSpec::compute(gpu, SimTime::from_millis(2.0)).with_label("bwd"))
            .unwrap();
        sim.add_task(
            TaskSpec::transfer(link, SimTime::from_millis(1.0))
                .with_label("swap")
                .after(a),
        )
        .unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn from_trace_derives_counters_and_activity() {
        let mut report = TrainReport::oom("demo");
        report.peaks = vec![("hbm".to_string(), 42)];
        let profile = RunProfile::from_trace(report, tiny_trace());
        assert_eq!(profile.metrics.counter("tasks.compute"), 1);
        assert_eq!(profile.metrics.counter("tasks.transfer"), 1);
        assert_eq!(profile.metrics.gauge("busy-us:gpu"), Some(2000.0));
        assert_eq!(profile.metrics.gauge("peak-bytes:hbm"), Some(42.0));
        // The link's busy signal lives in the Chrome export only.
        assert!(profile.metrics.track("active:link").is_none());
        let json = profile.chrome_trace_json();
        let busy: Vec<&str> = json
            .lines()
            .filter(|l| l.contains(r#""name":"occupancy:link","ph":"C""#))
            .collect();
        assert_eq!(busy.len(), 2, "{json}");
        assert!(busy[0].contains(r#""ts":2000"#) && busy[0].contains(r#"{"busy":1}"#));
        assert!(busy[1].contains(r#""ts":3000"#) && busy[1].contains(r#"{"busy":0}"#));
        assert!(!json.contains("occupancy:gpu"));
    }

    #[test]
    fn profile_outputs_are_valid_json() {
        let profile = RunProfile::from_trace(TrainReport::oom("demo"), tiny_trace());
        let trace_json = profile.chrome_trace_json();
        let snap = profile.snapshot_json();
        validate_json(&trace_json).unwrap();
        validate_json(&snap).unwrap();
        assert!(trace_json.contains(r#""ph":"X""#));
        assert!(trace_json.contains(r#""ph":"C""#));
        assert!(snap.contains("run-profile/v1"));
        assert!(snap.contains("report.tflops"));
    }

    #[test]
    fn stv_counters_fold_into_snapshot() {
        let mut report = TrainReport::oom("trainer");
        report.stv = Some(StvStats {
            steps: 9,
            skipped: 2,
            clip_rollbacks: 1,
        });
        let profile = RunProfile::from_trace(report, tiny_trace());
        let snap = profile.snapshot_json();
        assert!(snap.contains("\"stv.steps\": 9"));
        assert!(snap.contains("\"stv.skipped\": 2"));
        assert!(snap.contains("\"stv.clip-rollbacks\": 1"));
    }
}
