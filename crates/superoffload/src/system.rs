//! The schedule framework: a uniform interface over every training system.
//!
//! Each comparison system of the paper's evaluation (§5.1, Fig. 10–13) is a
//! schedule builder that turns a `(cluster, ranks, workload)` triple into a
//! task graph on the discrete-event simulator. This module captures what
//! they share so that adding a tenth system is a single-file change:
//!
//! - [`OffloadSystem`] — the trait every system implements: a name plus
//!   `simulate_traced`, returning either a feasible `(TrainReport, Trace)`
//!   or a structured [`Infeasible`] reason (instead of an opaque "OOM").
//! - [`Infeasible`] — the typed infeasibility taxonomy shared by every
//!   builder's capacity planner, batch splitter, and simulator run.
//! - [`SystemRegistry`] — name → boxed system, so experiment drivers
//!   iterate systems instead of hand-listing them.
//! - [`ScheduleCtx`] / [`IterationBuilder`] — the shared toolkit: standard
//!   resource registration, per-micro-step forward tasks, bucketized
//!   backward chunks with fractional timing, collective wrappers, iteration
//!   gates, and report finalization.
//! - [`Capacity`] and [`split_batch`] — the capacity checks and batch
//!   division every builder performs before constructing its graph.
//!
//! Constructing an infeasible [`TrainReport`] is confined to this module
//! (the blanket [`OffloadSystem::simulate`] adapter); schedule builders
//! themselves only ever return typed errors.

use std::fmt;

use llm_model::workload::{ExecutionPlan, Workload};
use superchip_sim::collective::CollectiveCost;
use superchip_sim::prelude::*;

use crate::bucket::BucketPlan;
use crate::report::{RunProfile, TrainReport};
use crate::schedule::{
    finalize_report, simulate_single_chip_profiled, simulate_single_chip_traced,
    SuperOffloadOptions, CPU_USABLE, GPU_USABLE,
};
use crate::zero_dp;

/// Why a workload cannot run on a system, in machine-readable form.
///
/// Every schedule builder reports its capacity-planning and simulation
/// failures through this enum, so experiment drivers (e.g. the Fig. 13
/// capacity table) can explain *why* a cell is infeasible.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Infeasible {
    /// Resident GPU bytes exceed the usable GPU memory.
    GpuCapacity {
        /// Bytes the plan must keep GPU-resident.
        needed: u64,
        /// Usable GPU capacity in bytes.
        cap: u64,
    },
    /// Resident CPU bytes exceed the usable CPU (host) memory.
    CpuCapacity {
        /// Bytes the plan must keep CPU-resident.
        needed: u64,
        /// Usable CPU capacity in bytes.
        cap: u64,
    },
    /// Offloaded state exceeds the NVMe tier's capacity.
    NvmeCapacity {
        /// Bytes the plan must spill to NVMe.
        needed: u64,
        /// NVMe capacity in bytes.
        cap: u64,
    },
    /// The global batch does not divide across the data-parallel ranks.
    BatchNotDivisible {
        /// Global batch size requested.
        global_batch: u32,
        /// Data-parallel ranks it must divide across.
        ranks: u32,
    },
    /// No micro-batch/accumulation/checkpointing combination fits the
    /// activation budget.
    NoExecutionPlan {
        /// Activation budget (bytes) the planner had to work with.
        activation_budget: u64,
    },
    /// The requested parallelism degree is invalid for the cluster or model
    /// (e.g. more pipeline stages than layers).
    Parallelism(String),
    /// A collective must span more ranks than the inter-node fabric
    /// connects, so its traffic has no link to run over (reported by
    /// [`crate::fleet::NodeLease::collective`] instead of panicking in
    /// `ClusterSpec::collective_link`).
    FabricCapacity {
        /// Ranks the collective must span.
        ranks: u32,
        /// GPU endpoints the fleet's fabric actually connects.
        fleet_gpus: u32,
    },
    /// Fewer than the two iterations a steady-state measurement spans
    /// (the first-to-last iteration gate delta) were requested.
    TooFewIterations {
        /// Iterations requested.
        iterations: u32,
    },
    /// The task-graph simulation itself failed.
    Sim(SimError),
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
        match self {
            Infeasible::GpuCapacity { needed, cap } => write!(
                f,
                "GPU capacity: needs {:.1} GiB resident, {:.1} GiB usable",
                gib(*needed),
                gib(*cap)
            ),
            Infeasible::CpuCapacity { needed, cap } => write!(
                f,
                "CPU capacity: needs {:.1} GiB resident, {:.1} GiB usable",
                gib(*needed),
                gib(*cap)
            ),
            Infeasible::NvmeCapacity { needed, cap } => write!(
                f,
                "NVMe capacity: needs {:.1} GiB, {:.1} GiB available",
                gib(*needed),
                gib(*cap)
            ),
            Infeasible::BatchNotDivisible {
                global_batch,
                ranks,
            } => write!(
                f,
                "global batch {global_batch} does not divide across {ranks} ranks"
            ),
            Infeasible::NoExecutionPlan { activation_budget } => write!(
                f,
                "no execution plan fits the {:.1} GiB activation budget",
                gib(*activation_budget)
            ),
            Infeasible::Parallelism(why) => write!(f, "invalid parallelism: {why}"),
            Infeasible::FabricCapacity { ranks, fleet_gpus } => write!(
                f,
                "collective spans {ranks} ranks but the fabric connects only \
                 {fleet_gpus} GPU endpoints"
            ),
            Infeasible::TooFewIterations { iterations } => write!(
                f,
                "{iterations} iteration(s) requested; a steady-state measurement needs at least 2"
            ),
            Infeasible::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl From<SimError> for Infeasible {
    fn from(e: SimError) -> Self {
        Infeasible::Sim(e)
    }
}

/// A training system that can be simulated on a cluster.
///
/// Implementations build a per-iteration task graph (usually via
/// [`ScheduleCtx`]) and report steady-state throughput. The blanket
/// [`simulate`](OffloadSystem::simulate) adapter collapses the typed error
/// into the legacy infeasible [`TrainReport`] for display-oriented callers.
pub trait OffloadSystem {
    /// Stable system name ("superoffload", "zero-offload", ...).
    fn name(&self) -> &str;

    /// Simulates `ranks` ranks of `cluster` training `workload`, returning
    /// the steady-state report and the execution trace, or a structured
    /// reason the workload cannot run.
    fn simulate_traced(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<(TrainReport, Trace), Infeasible>;

    /// Like [`simulate_traced`](OffloadSystem::simulate_traced), but
    /// collapses any [`Infeasible`] into `TrainReport::oom` and drops the
    /// trace.
    fn simulate(&self, cluster: &ClusterSpec, ranks: u32, workload: &Workload) -> TrainReport {
        match self.simulate_traced(cluster, ranks, workload) {
            Ok((report, _trace)) => report,
            Err(_) => TrainReport::oom(self.name()),
        }
    }

    /// Simulates like [`simulate_traced`](OffloadSystem::simulate_traced)
    /// but returns the full [`RunProfile`]: report, trace, and telemetry.
    ///
    /// The default derives trace-level telemetry after the fact
    /// ([`RunProfile::from_trace`]); systems whose builders thread a
    /// recorder through the run (e.g. SuperOffload's single-chip schedule)
    /// override this to return the richer in-run metrics.
    fn simulate_profiled(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<RunProfile, Infeasible> {
        self.simulate_traced(cluster, ranks, workload)
            .map(|(report, trace)| RunProfile::from_trace(report, trace))
    }
}

/// Name-indexed collection of boxed [`OffloadSystem`]s, preserving
/// registration order (experiment tables print in this order).
#[derive(Default)]
pub struct SystemRegistry {
    systems: Vec<Box<dyn OffloadSystem>>,
}

impl fmt::Debug for SystemRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemRegistry")
            .field("systems", &self.names())
            .finish()
    }
}

impl SystemRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SystemRegistry::default()
    }

    /// Adds a system. Panics if the name is already registered (names are
    /// the lookup key).
    pub fn register(&mut self, system: impl OffloadSystem + 'static) {
        assert!(
            self.get(system.name()).is_none(),
            "system `{}` registered twice",
            system.name()
        );
        self.systems.push(Box::new(system));
    }

    /// Looks a system up by name.
    pub fn get(&self, name: &str) -> Option<&dyn OffloadSystem> {
        self.systems
            .iter()
            .find(|s| s.name() == name)
            .map(|s| s.as_ref())
    }

    /// Like [`get`](SystemRegistry::get), panicking with a helpful message
    /// when the name is unknown.
    pub fn expect(&self, name: &str) -> &dyn OffloadSystem {
        self.get(name).unwrap_or_else(|| {
            panic!(
                "system `{name}` not registered (have: {})",
                self.names().join(", ")
            )
        })
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.systems.iter().map(|s| s.name()).collect()
    }

    /// Iterates systems in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn OffloadSystem> {
        self.systems.iter().map(|s| s.as_ref())
    }

    /// Number of registered systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }
}

/// Usable memory capacities of one Superchip, after reserving the framework
/// and OS shares ([`GPU_USABLE`], [`CPU_USABLE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capacity {
    /// Usable GPU bytes.
    pub gpu: u64,
    /// Usable CPU bytes.
    pub cpu: u64,
}

impl Capacity {
    /// Usable capacities of `chip`.
    pub fn of(chip: &ChipSpec) -> Self {
        Capacity {
            gpu: (chip.gpu.mem_bytes as f64 * GPU_USABLE) as u64,
            cpu: (chip.cpu.mem_bytes as f64 * CPU_USABLE) as u64,
        }
    }

    /// Checks that `needed` GPU-resident bytes fit.
    pub fn fit_gpu(&self, needed: u64) -> Result<(), Infeasible> {
        if needed > self.gpu {
            Err(Infeasible::GpuCapacity {
                needed,
                cap: self.gpu,
            })
        } else {
            Ok(())
        }
    }

    /// Checks that `needed` CPU-resident bytes fit.
    pub fn fit_cpu(&self, needed: u64) -> Result<(), Infeasible> {
        if needed > self.cpu {
            Err(Infeasible::CpuCapacity {
                needed,
                cap: self.cpu,
            })
        } else {
            Ok(())
        }
    }

    /// Picks the best execution plan for `workload` with `gpu_resident`
    /// bytes already committed on the GPU (the remainder is the activation
    /// budget).
    pub fn plan(
        &self,
        workload: &Workload,
        gpu_resident: u64,
    ) -> Result<ExecutionPlan, Infeasible> {
        self.fit_gpu(gpu_resident)?;
        let budget = self.gpu - gpu_resident;
        ExecutionPlan::best(workload, budget).ok_or(Infeasible::NoExecutionPlan {
            activation_budget: budget,
        })
    }
}

/// Collapses a traced result into the legacy report form, turning any
/// [`Infeasible`] into `TrainReport::oom(system)`.
///
/// This adapter (and [`OffloadSystem::simulate`]) are the only places an
/// infeasible report is constructed; schedule builders return typed errors.
pub fn collapse(result: Result<(TrainReport, Trace), Infeasible>, system: &str) -> TrainReport {
    match result {
        Ok((report, _trace)) => report,
        Err(_) => TrainReport::oom(system),
    }
}

/// Splits a global-batch workload evenly across `ranks` data-parallel
/// ranks, or reports [`Infeasible::BatchNotDivisible`].
pub fn split_batch(workload: &Workload, ranks: u32) -> Result<Workload, Infeasible> {
    if ranks == 0 || !workload.global_batch.is_multiple_of(ranks) {
        return Err(Infeasible::BatchNotDivisible {
            global_batch: workload.global_batch,
            ranks,
        });
    }
    Ok(Workload::new(
        workload.config.clone(),
        workload.global_batch / ranks,
        workload.seq,
    ))
}

/// Resource names every [`ScheduleCtx::standard`] context registers, in
/// registration (tid) order — pass to
/// [`superchip_sim::chrome_trace::to_chrome_trace`].
pub const STANDARD_RESOURCES: [&str; 5] = ["gpu", "cpu", "c2c-d2h", "c2c-h2d", "fabric"];

/// A memory pool registered for post-run occupancy replay.
#[derive(Debug)]
struct PlannedPool {
    name: String,
    capacity: u64,
    /// Statically-resident bytes, allocated at time zero.
    base: u64,
}

/// A dynamic allocation whose lifetime is bracketed by task completions.
#[derive(Debug)]
struct TrackedAlloc {
    pool: usize,
    bytes: u64,
    /// The allocation materializes when this task completes.
    alloc_after: TaskId,
    /// Freed when this task completes (`None` = held until the end).
    free_after: Option<TaskId>,
}

/// A transfer task annotated with the link and payload that shaped it.
#[derive(Debug)]
struct TrackedTransfer {
    task: TaskId,
    link: Link,
    bytes: u64,
}

/// A simulator pre-wired with the standard Superchip resources, plus the
/// shared task-graph motifs of the schedule builders.
#[derive(Debug)]
pub struct ScheduleCtx {
    /// The underlying simulator (builders add custom tasks directly).
    pub sim: Simulator,
    /// GPU compute stream.
    pub gpu: ResourceId,
    /// CPU optimizer stream.
    pub cpu: ResourceId,
    /// Device-to-host C2C channel.
    pub d2h: ResourceId,
    /// Host-to-device C2C channel.
    pub h2d: ResourceId,
    /// Inter-node fabric (collectives).
    pub net: ResourceId,
    pools: Vec<PlannedPool>,
    allocs: Vec<TrackedAlloc>,
    xfers: Vec<TrackedTransfer>,
}

impl ScheduleCtx {
    /// A fresh context with the five [`STANDARD_RESOURCES`] registered in
    /// node 0's (bare-name) namespace.
    pub fn standard() -> Self {
        ScheduleCtx::for_node(0)
    }

    /// A fresh context whose five [`STANDARD_RESOURCES`] live in node
    /// `node`'s namespace. Node 0 keeps the bare names, so single-node
    /// schedules produce byte-identical traces and reports to the
    /// pre-fleet layout; nodes 1+ get `node<N>/`-prefixed resources.
    pub fn for_node(node: u32) -> Self {
        let mut sim = Simulator::new();
        let gpu = sim.add_node_resource(node, STANDARD_RESOURCES[0]);
        let cpu = sim.add_node_resource(node, STANDARD_RESOURCES[1]);
        let d2h = sim.add_node_resource(node, STANDARD_RESOURCES[2]);
        let h2d = sim.add_node_resource(node, STANDARD_RESOURCES[3]);
        let net = sim.add_node_resource(node, STANDARD_RESOURCES[4]);
        ScheduleCtx {
            sim,
            gpu,
            cpu,
            d2h,
            h2d,
            net,
            pools: Vec::new(),
            allocs: Vec::new(),
            xfers: Vec::new(),
        }
    }

    /// Registers a memory pool for occupancy telemetry: `base` bytes are
    /// allocated at time zero, and [`track_alloc`](ScheduleCtx::track_alloc)
    /// adds dynamic allocations on top. Returns a handle for `track_alloc`.
    pub fn add_pool(&mut self, name: impl Into<String>, capacity: u64, base: u64) -> usize {
        self.pools.push(PlannedPool {
            name: name.into(),
            capacity,
            base,
        });
        self.pools.len() - 1
    }

    /// Registers the two standard pools of a Superchip — `hbm` (GPU) and
    /// `ddr` (CPU) — with the builder's planned resident bytes as base
    /// occupancy. Returns `(hbm, ddr)` handles.
    pub fn plan_residency(
        &mut self,
        chip: &ChipSpec,
        gpu_resident: u64,
        cpu_resident: u64,
    ) -> (usize, usize) {
        let hbm = self.add_pool("hbm", chip.gpu.mem_bytes, gpu_resident);
        let ddr = self.add_pool("ddr", chip.cpu.mem_bytes, cpu_resident);
        (hbm, ddr)
    }

    /// Tracks a dynamic allocation in `pool`: `bytes` materialize when
    /// `alloc_after` completes and are freed when `free_after` completes
    /// (or held until the end of the run when `None`).
    pub fn track_alloc(
        &mut self,
        pool: usize,
        bytes: u64,
        alloc_after: TaskId,
        free_after: Option<TaskId>,
    ) {
        self.allocs.push(TrackedAlloc {
            pool,
            bytes,
            alloc_after,
            free_after,
        });
    }

    /// Annotates transfer task `task` with the link it crosses and its
    /// payload, so [`finish_profiled`](ScheduleCtx::finish_profiled) can
    /// report per-transfer effective bandwidth.
    pub fn track_transfer(&mut self, task: TaskId, link: &Link, bytes: u64) {
        self.xfers.push(TrackedTransfer {
            task,
            link: *link,
            bytes,
        });
    }

    /// Registers an extra, system-specific resource (e.g. `nvme`,
    /// `cpu-validator`).
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.sim.add_resource(name)
    }

    /// Adds one micro-step's forward pass on the GPU.
    pub fn forward(
        &mut self,
        time: SimTime,
        deps: impl IntoIterator<Item = TaskId>,
    ) -> Result<TaskId, SimError> {
        self.sim.add_task(
            TaskSpec::compute(self.gpu, time)
                .with_label("fwd")
                .after_all(deps),
        )
    }

    /// Adds the bucketized backward pass of one micro-step: one GPU chunk
    /// per bucket, timed as the bucket's fraction of `bwd_per_micro` (plus
    /// `overhead`), chained after `start` (and `extra_dep`, if any).
    ///
    /// `on_chunk(ctx, bucket, elems, chunk)` runs after each chunk so the
    /// builder can attach gradient movement; the returned id is the last
    /// chunk (the end of this micro-step's backward).
    pub fn backward_chunks<F>(
        &mut self,
        buckets: &BucketPlan,
        bwd_per_micro: SimTime,
        overhead: SimTime,
        start: TaskId,
        extra_dep: Option<TaskId>,
        mut on_chunk: F,
    ) -> Result<TaskId, SimError>
    where
        F: FnMut(&mut Self, u32, u64, TaskId) -> Result<(), SimError>,
    {
        let total = buckets.total_elems;
        let mut prev = start;
        for bi in 0..buckets.num_buckets {
            let elems = buckets.bucket_elems(bi);
            let frac = elems as f64 / total as f64;
            let mut spec = TaskSpec::compute(self.gpu, bwd_per_micro * frac + overhead)
                .with_indexed_label("bwd", bi)
                .after(prev);
            if let Some(d) = extra_dep {
                spec = spec.after(d);
            }
            let chunk = self.sim.add_task(spec)?;
            prev = chunk;
            on_chunk(self, bi, elems, chunk)?;
        }
        Ok(prev)
    }

    /// Adds a reduce-scatter collective on the fabric.
    pub fn reduce_scatter(
        &mut self,
        coll: &CollectiveCost,
        bytes: u64,
        overhead: SimTime,
        label: impl Into<TaskLabel>,
        after: TaskId,
    ) -> Result<TaskId, SimError> {
        self.sim.add_task(
            TaskSpec::collective(self.net, coll.reduce_scatter(bytes) + overhead)
                .with_label(label)
                .after(after),
        )
    }

    /// Adds an all-gather collective on the fabric.
    pub fn all_gather(
        &mut self,
        coll: &CollectiveCost,
        bytes_per_rank: u64,
        overhead: SimTime,
        label: impl Into<TaskLabel>,
        after: TaskId,
    ) -> Result<TaskId, SimError> {
        self.sim.add_task(
            TaskSpec::collective(self.net, coll.all_gather(bytes_per_rank) + overhead)
                .with_label(label)
                .after(after),
        )
    }

    /// Adds an all-reduce collective on the fabric.
    pub fn all_reduce(
        &mut self,
        coll: &CollectiveCost,
        bytes: u64,
        overhead: SimTime,
        label: impl Into<TaskLabel>,
        after: TaskId,
    ) -> Result<TaskId, SimError> {
        self.sim.add_task(
            TaskSpec::collective(self.net, coll.all_reduce(bytes) + overhead)
                .with_label(label)
                .after(after),
        )
    }

    /// Runs the simulation and extracts the steady-state report between the
    /// first and last iteration gates (see [`finalize_report`]).
    pub fn finish(
        self,
        system: &str,
        gates: &[TaskId],
        effective_flops: f64,
        chip: &ChipSpec,
        plan: ExecutionPlan,
    ) -> Result<(TrainReport, Trace), Infeasible> {
        self.finish_profiled(system, gates, effective_flops, chip, plan)
            .map(|p| (p.report, p.trace))
    }

    /// Like [`finish`](ScheduleCtx::finish), but returns the full
    /// [`RunProfile`] with in-run telemetry:
    ///
    /// - scheduler counters and queue-wait samples from the instrumented
    ///   simulator run,
    /// - per-transfer effective bandwidth (`bw:`/`bytes:`/`transfers:`
    ///   tracks) for every [`track_transfer`](ScheduleCtx::track_transfer)ed
    ///   task,
    /// - memory occupancy timelines (`mem:`/`peak-bytes:` per pool) replayed
    ///   from [`track_alloc`](ScheduleCtx::track_alloc) against the executed
    ///   schedule, with the resulting high-water marks folded into
    ///   `report.peaks`.
    ///
    /// Allocations that would not fit their pool during replay are dropped
    /// and counted under `telemetry.dropped-allocs` rather than failing the
    /// run (the capacity planner, not telemetry, owns OOM decisions).
    ///
    /// # Errors
    /// [`Infeasible::TooFewIterations`] with fewer than two `gates`, or
    /// [`Infeasible::Sim`] if the simulation fails.
    pub fn finish_profiled(
        self,
        system: &str,
        gates: &[TaskId],
        effective_flops: f64,
        chip: &ChipSpec,
        plan: ExecutionPlan,
    ) -> Result<RunProfile, Infeasible> {
        if gates.len() < 2 {
            return Err(Infeasible::TooFewIterations {
                iterations: gates.len() as u32,
            });
        }
        let mut metrics = MetricsRecorder::new();
        let trace = self.sim.run_instrumented(&mut metrics)?;

        for t in &self.xfers {
            if let Some(iv) = trace.interval(t.task) {
                let track = trace.resource_names()[iv.resource.index()].clone();
                t.link
                    .record_transfer(&mut metrics, &track, iv.start, iv.end, t.bytes);
            }
        }

        let mut peaks: Vec<(String, u64)> = Vec::new();
        let mut dropped = 0u64;
        let mut applied = vec![false; self.allocs.len()];
        for (pi, planned) in self.pools.iter().enumerate() {
            let mut pool = MemoryPool::new(&planned.name, planned.capacity);
            if planned.base > 0 && pool.allocate_at(planned.base, SimTime::ZERO).is_err() {
                dropped += 1;
            }
            // Replay events in executed order; frees sort before allocs at
            // the same instant so back-to-back buffers don't double-count.
            let mut events: Vec<(SimTime, u8, usize)> = Vec::new();
            for (ai, a) in self.allocs.iter().enumerate() {
                if a.pool != pi {
                    continue;
                }
                let at = trace.end_time(a.alloc_after).unwrap_or(SimTime::ZERO);
                events.push((at, 1, ai));
                if let Some(f) = a.free_after {
                    let ft = trace.end_time(f).unwrap_or(at).max(at);
                    events.push((ft, 0, ai));
                }
            }
            events.sort_by_key(|&(ts, kind, ai)| (ts.as_micros_rounded(), kind, ai));
            for (ts, kind, ai) in events {
                let bytes = self.allocs[ai].bytes;
                if kind == 1 {
                    if pool.allocate_at(bytes, ts).is_ok() {
                        applied[ai] = true;
                    } else {
                        dropped += 1;
                    }
                } else if applied[ai] {
                    let _ = pool.free_at(bytes, ts);
                }
            }
            pool.record_into(&mut metrics);
            peaks.push((planned.name.clone(), pool.peak()));
        }
        if dropped > 0 {
            metrics.add("telemetry.dropped-allocs", dropped);
        }

        let report = finalize_report(
            system,
            &trace,
            gates,
            self.gpu,
            self.cpu,
            effective_flops,
            chip,
            plan,
            peaks,
        );
        Ok(RunProfile {
            report,
            trace,
            metrics,
            journal: None,
        })
    }
}

/// Tracks per-iteration sync gates: each iteration's tasks depend on the
/// previous gate, and the gate sequence delimits the steady-state window.
#[derive(Debug, Default)]
pub struct IterationBuilder {
    gates: Vec<TaskId>,
}

impl IterationBuilder {
    /// A builder with no iterations closed yet.
    pub fn new() -> Self {
        IterationBuilder::default()
    }

    /// The gate of the previously closed iteration, if any.
    pub fn prev_gate(&self) -> Option<TaskId> {
        self.gates.last().copied()
    }

    /// Dependencies the first task(s) of the next iteration should carry
    /// (empty for the first iteration, the previous gate afterwards).
    pub fn start_deps(&self) -> Vec<TaskId> {
        self.prev_gate().into_iter().collect()
    }

    /// Closes the current iteration with a sync gate on the GPU depending
    /// on `deps`.
    pub fn close(
        &mut self,
        ctx: &mut ScheduleCtx,
        deps: impl IntoIterator<Item = TaskId>,
    ) -> Result<TaskId, SimError> {
        let gate = ctx.sim.add_task(
            TaskSpec::sync(ctx.gpu)
                .with_label("iter-gate")
                .after_all(deps),
        )?;
        self.gates.push(gate);
        Ok(gate)
    }

    /// All gates closed so far, in order (pass to [`ScheduleCtx::finish`]).
    pub fn gates(&self) -> &[TaskId] {
        &self.gates
    }
}

/// SuperOffload as an [`OffloadSystem`]: dispatches to the single-chip
/// schedule for one rank and to the ZeRO-DP integration for more.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuperOffload {
    /// Schedule options (ablation toggles, bucket size, iterations).
    pub opts: SuperOffloadOptions,
}

impl SuperOffload {
    /// SuperOffload with explicit options.
    pub fn with_opts(opts: SuperOffloadOptions) -> Self {
        SuperOffload { opts }
    }
}

impl OffloadSystem for SuperOffload {
    fn name(&self) -> &str {
        "superoffload"
    }

    fn simulate_traced(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<(TrainReport, Trace), Infeasible> {
        if ranks <= 1 {
            simulate_single_chip_traced(&cluster.node.chip, workload, &self.opts)
        } else {
            zero_dp::simulate_cluster_traced(cluster, ranks, workload, &self.opts)
        }
    }

    fn simulate_profiled(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<RunProfile, Infeasible> {
        if ranks <= 1 {
            simulate_single_chip_profiled(&cluster.node.chip, workload, &self.opts)
        } else {
            zero_dp::simulate_cluster_traced(cluster, ranks, workload, &self.opts)
                .map(|(report, trace)| RunProfile::from_trace(report, trace))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::ModelConfig;
    use superchip_sim::presets;

    fn wl(name: &str, batch: u32) -> Workload {
        Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048)
    }

    #[test]
    fn infeasible_displays_are_informative() {
        let g = Infeasible::GpuCapacity {
            needed: 100 << 30,
            cap: 90 << 30,
        };
        assert!(g.to_string().contains("100.0 GiB"));
        let b = Infeasible::BatchNotDivisible {
            global_batch: 7,
            ranks: 4,
        };
        assert!(b.to_string().contains("7"));
        assert!(b.to_string().contains("4 ranks"));
        let p = Infeasible::NoExecutionPlan {
            activation_budget: 1 << 30,
        };
        assert!(p.to_string().contains("activation budget"));
        let fc = Infeasible::FabricCapacity {
            ranks: 16,
            fleet_gpus: 4,
        };
        let msg = fc.to_string();
        assert!(msg.contains("16 ranks"), "got: {msg}");
        assert!(msg.contains("4 GPU endpoints"), "got: {msg}");
    }

    #[test]
    fn capacity_checks_produce_typed_errors() {
        let chip = presets::gh200_chip();
        let cap = Capacity::of(&chip);
        assert!(cap.fit_gpu(0).is_ok());
        assert!(matches!(
            cap.fit_gpu(u64::MAX),
            Err(Infeasible::GpuCapacity { .. })
        ));
        assert!(matches!(
            cap.fit_cpu(u64::MAX),
            Err(Infeasible::CpuCapacity { .. })
        ));
        assert!(matches!(
            cap.plan(&wl("5B", 8), u64::MAX - 1),
            Err(Infeasible::GpuCapacity { .. })
        ));
    }

    #[test]
    fn split_batch_divides_or_explains() {
        let w = wl("5B", 8);
        let per_rank = split_batch(&w, 4).unwrap();
        assert_eq!(per_rank.global_batch, 2);
        assert!(matches!(
            split_batch(&w, 3),
            Err(Infeasible::BatchNotDivisible {
                global_batch: 8,
                ranks: 3
            })
        ));
    }

    #[test]
    fn registry_lookup_and_order() {
        let mut reg = SystemRegistry::new();
        reg.register(SuperOffload::default());
        assert_eq!(reg.names(), vec!["superoffload"]);
        assert_eq!(reg.len(), 1);
        assert!(reg.get("superoffload").is_some());
        assert!(reg.get("nope").is_none());
        let cluster = superchip_sim::presets::gh200_nvl2_cluster(1);
        let r = reg
            .expect("superoffload")
            .simulate(&cluster, 1, &wl("5B", 8));
        assert!(r.feasible());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = SystemRegistry::new();
        reg.register(SuperOffload::default());
        reg.register(SuperOffload::default());
    }

    #[test]
    fn superoffload_system_matches_free_function() {
        let cluster = presets::gh200_nvl2_cluster(1);
        let w = wl("5B", 8);
        let via_trait = SuperOffload::default().simulate(&cluster, 1, &w);
        let direct = crate::schedule::simulate_single_chip(
            &cluster.node.chip,
            &w,
            &SuperOffloadOptions::default(),
        );
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn trait_errors_surface_structured_reasons() {
        let cluster = presets::gh200_nvl2_cluster(1);
        let err = SuperOffload::default()
            .simulate_traced(&cluster, 1, &wl("200B", 8))
            .unwrap_err();
        assert!(
            matches!(
                err,
                Infeasible::GpuCapacity { .. } | Infeasible::CpuCapacity { .. }
            ),
            "unexpected reason: {err}"
        );
    }
}
