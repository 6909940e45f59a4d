//! The SuperOffload single-Superchip training schedule (§4.1–§4.6 combined).
//!
//! Builds the per-iteration task graph on the discrete-event simulator:
//! forward/backward on the GPU, bucketized gradient swap-out, CPU optimizer
//! steps (GraceAdam), parameter swap-in, with every §4 technique as a
//! toggle so the Table 2 ablation falls out of the same builder:
//!
//! - **STV** (§4.4): optimizer steps launch per-bucket as gradients arrive,
//!   overlapping the remaining backward; validation runs on spare cores off
//!   the critical path. Without it (STE), a global norm/NaN sync gates every
//!   step.
//! - **SAC** (§4.5): casts on the GPU and moves FP32 over the pinned path;
//!   without it, FP16 moves through a pageable staging buffer and casts on
//!   the CPU.
//! - **Bucketization repartitioning** (§4.3): the last `n` buckets' optimizer
//!   state stays on the GPU; without it everything steps on the CPU.
//! - **GraceAdam** (§4.6): the CPU step runs at GraceAdam speed; without it,
//!   at CPU-Adam speed.

use llm_model::flops::{tflops, TrainingFlops};
use llm_model::memory::ModelStateMemory;
use llm_model::workload::{ExecutionPlan, Workload};
use superchip_sim::prelude::*;

use crate::bucket::{min_retained, BucketPlan, DEFAULT_BUCKET_BYTES};
use crate::casting::CastPlacement;
use crate::costs::{
    gpu_optimizer_time, pipeline_step_time, ComputeTimes, OptimizerImpl, OP_OVERHEAD_TUNED,
};
use crate::fleet::NodeLease;
use crate::policy::{choose_policy, WeightPolicy};
use crate::report::{RunProfile, TrainReport};
use crate::system::{Infeasible, IterationBuilder, ScheduleCtx};

/// Fraction of GPU memory usable for model data (the rest is CUDA context,
/// fragmentation, and framework workspace).
pub const GPU_USABLE: f64 = 0.92;

/// Fraction of CPU memory usable for offloaded state (the rest is OS,
/// runtime, and pinned staging pools).
pub const CPU_USABLE: f64 = 0.85;

/// Dense-math peak as a fraction of the headline (sparsity-assisted) FLOPS
/// figure; MFU is conventionally reported against the dense peak.
pub const DENSE_PEAK_FRACTION: f64 = 0.5;

/// Configuration of the SuperOffload schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperOffloadOptions {
    /// Transfer bucket size in bytes (FP32 gradient bytes). Default 64 MiB.
    pub bucket_bytes: u64,
    /// Buckets whose optimizer state stays on the GPU; `None` = automatic:
    /// a bounded search over [`retention_candidates`] (the closed-form
    /// seed, its neighbours and coarse fractions of the bucket count).
    /// Each candidate gets an upper bound on its steady-state TFLOPS from
    /// a one-iteration graph; only those whose bound can beat the best
    /// score so far are scored from an end-times-only run, and only the
    /// winner is profiled (DESIGN.md §16, §18).
    pub retained_buckets: Option<u32>,
    /// CPU optimizer implementation.
    pub optimizer: OptimizerImpl,
    /// Cast placement; `None` = automatic per-chip choice.
    pub cast: Option<CastPlacement>,
    /// Speculation-then-validation on (vs synchronize-then-execute).
    pub use_stv: bool,
    /// Bucketization repartitioning on (retained buckets allowed).
    pub use_repartition: bool,
    /// Weight placement; `None` = adaptive.
    pub weight_policy: Option<WeightPolicy>,
    /// Iterations to simulate (steady state needs ≥ 3; fewer than 2 is
    /// [`Infeasible::TooFewIterations`]).
    pub iterations: u32,
    /// Per-operation framework overhead in seconds.
    pub op_overhead_secs: f64,
}

impl Default for SuperOffloadOptions {
    fn default() -> Self {
        SuperOffloadOptions {
            bucket_bytes: DEFAULT_BUCKET_BYTES,
            retained_buckets: None,
            optimizer: OptimizerImpl::GraceAdam,
            cast: None,
            use_stv: true,
            use_repartition: true,
            weight_policy: None,
            iterations: 4,
            op_overhead_secs: OP_OVERHEAD_TUNED,
        }
    }
}

impl SuperOffloadOptions {
    /// The Table 2 ablation constructor: each flag enables one technique.
    pub fn ablation(grace_adam: bool, sac: bool, stv: bool, repartition: bool) -> Self {
        SuperOffloadOptions {
            optimizer: if grace_adam {
                OptimizerImpl::GraceAdam
            } else {
                OptimizerImpl::CpuAdam
            },
            cast: Some(if sac {
                CastPlacement::GpuCastMoveFp32
            } else {
                CastPlacement::CpuCastMoveFp16Pageable
            }),
            use_stv: stv,
            use_repartition: repartition,
            ..SuperOffloadOptions::default()
        }
    }
}

/// Simulates SuperOffload on a single Superchip.
///
/// Returns [`TrainReport::oom`] when the workload does not fit under any
/// execution plan; [`simulate_single_chip_traced`] reports the structured
/// reason instead.
pub fn simulate_single_chip(
    chip: &ChipSpec,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> TrainReport {
    crate::system::collapse(
        simulate_single_chip_traced(chip, workload, opts),
        "superoffload",
    )
}

/// Resource names of the single-chip schedule, in registration (tid) order —
/// pass to [`superchip_sim::chrome_trace::to_chrome_trace`].
pub const SINGLE_CHIP_RESOURCES: [&str; 6] = [
    "gpu",
    "cpu",
    "c2c-d2h",
    "c2c-h2d",
    "fabric",
    "cpu-validator",
];

/// Like [`simulate_single_chip`], additionally returning the execution
/// trace of the winning configuration for timeline inspection (ASCII Gantt
/// or Chrome-trace export), or the structured [`Infeasible`] reason when no
/// configuration fits.
pub fn simulate_single_chip_traced(
    chip: &ChipSpec,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> Result<(TrainReport, Trace), Infeasible> {
    simulate_single_chip_profiled(chip, workload, opts).map(|p| (p.report, p.trace))
}

/// Like [`simulate_single_chip_traced`], returning the full [`RunProfile`]
/// of the winning configuration: report, trace, and the telemetry recorded
/// during the run (memory-pool occupancy, per-transfer bandwidth, queueing
/// delay, scheduler counters).
///
/// With automatic retention the §4.3 search admits every
/// [`retention_candidates`] entry on its capacity checks and an upper
/// bound on its steady-state TFLOPS, taken from a one-iteration graph
/// ([`Simulator::end_lower_bound`]). It then fully builds and scores, from
/// an uninstrumented end-times run, only the candidates whose bound can
/// still beat the best score so far ([`select_retention`]), and profiles
/// only the winner (DESIGN.md §18). The result is byte-identical to
/// profiling every candidate and keeping the first best one.
///
/// # Errors
/// [`Infeasible::TooFewIterations`] when `opts.iterations < 2`; otherwise
/// the capacity or plan verdict of the smallest candidate retention when
/// none fits.
pub fn simulate_single_chip_profiled(
    chip: &ChipSpec,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> Result<RunProfile, Infeasible> {
    if opts.iterations < 2 {
        return Err(Infeasible::TooFewIterations {
            iterations: opts.iterations,
        });
    }
    if opts.retained_buckets.is_some() {
        return build_fixed(chip, workload, opts)?.finish_profiled(chip);
    }
    let cast = chosen_cast(chip, opts);
    let fixed = |n| SuperOffloadOptions {
        retained_buckets: Some(n),
        cast: Some(cast),
        ..*opts
    };
    let candidates = retention_candidates(chip, workload, opts);
    if let [only] = candidates[..] {
        return build_fixed(chip, workload, &fixed(only))?.finish_profiled(chip);
    }

    // Failures are kept for the smallest failing retention only, which is
    // what an infeasible grid reports.
    let mut first_err: Option<(u32, Infeasible)> = None;
    let mut fail = |n: u32, e: Infeasible| {
        if first_err.as_ref().is_none_or(|&(m, _)| n < m) {
            first_err = Some((n, e));
        }
    };
    let mut admitted = Vec::with_capacity(candidates.len());
    for n in candidates {
        match admit_fixed(chip, workload, &fixed(n)) {
            Ok(bound) => admitted.push((n, bound)),
            Err(e) => fail(n, e),
        }
    }
    let winner = select_retention(admitted, |n| {
        match build_fixed(chip, workload, &fixed(n)).and_then(|s| Ok((s.score()?, s))) {
            Ok(scored) => Some(scored),
            Err(e) => {
                fail(n, e);
                None
            }
        }
    });
    match winner {
        Some((_, _, schedule)) => schedule.finish_profiled(chip),
        None => Err(first_err.expect("infeasible grid records an error").1),
    }
}

/// Admission of one fixed-retention configuration (`opts.retained_buckets`,
/// `None` meaning none retained): its capacity and plan checks, and an
/// upper bound on its steady-state TFLOPS, taken from the same schedule
/// built for one iteration (`opts.iterations` is ignored). The bound is at
/// least the score of any run of `opts` × (1 − [`BOUND_SLACK`]).
///
/// # Errors
/// The configuration's capacity or plan verdict.
pub fn admit_fixed(
    chip: &ChipSpec,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> Result<f64, Infeasible> {
    let one = SuperOffloadOptions {
        iterations: 1,
        ..*opts
    };
    Ok(build_fixed(chip, workload, &one)?.tflops_bound())
}

/// Relative slack of the bound test in [`select_retention`]. A bound and a
/// score of the same schedule are the same times summed in different
/// orders, so they can differ by f64 rounding, far below this.
pub const BOUND_SLACK: f64 = 1e-9;

/// The winner of the §4.3 retention search: the highest score, and on
/// equal scores the smallest retention `n`, exactly as a scan in ascending
/// `n` that keeps the first maximum.
///
/// `admitted` lists each candidate's `(n, bound)`, where `bound` is at
/// least the candidate's score × (1 − [`BOUND_SLACK`]). Candidates are
/// visited by descending bound (ties: smaller `n` first), and `score(n)`
/// is called only while a bound reaches the best score so far × (1 −
/// [`BOUND_SLACK`]); every later candidate is pruned unscored. `score`
/// returns the candidate's score with a payload kept for the winner, or
/// `None` if it failed. Returns `(n, score, payload)`, or `None` when no
/// scored candidate succeeded.
pub fn select_retention<T>(
    mut admitted: Vec<(u32, f64)>,
    mut score: impl FnMut(u32) -> Option<(f64, T)>,
) -> Option<(u32, f64, T)> {
    admitted.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut best: Option<(u32, f64, T)> = None;
    for (n, bound) in admitted {
        if best
            .as_ref()
            .is_some_and(|&(_, s, _)| bound < s * (1.0 - BOUND_SLACK))
        {
            break;
        }
        if let Some((s, payload)) = score(n) {
            if best
                .as_ref()
                .is_none_or(|&(m, b, _)| s > b || (s == b && n < m))
            {
                best = Some((n, s, payload));
            }
        }
    }
    best
}

/// The §4.3 grid the automatic retention search admits, ascending and
/// deduplicated: the closed-form seed (Eq. 4-5), its neighbourhood, and
/// coarse fractions of the bucket count; just `[0]` without
/// bucketization repartitioning. `opts.retained_buckets` is ignored.
pub fn retention_candidates(
    chip: &ChipSpec,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> Vec<u32> {
    if !opts.use_repartition {
        return vec![0];
    }
    let params = workload.config.param_count();
    let bwd_per_elem = chip
        .gpu
        .time_for_flops(4.0 * workload.global_batch as f64 * workload.seq as f64);
    let seed = min_retained(
        chip,
        params,
        opts.bucket_bytes,
        chosen_cast(chip, opts),
        opts.optimizer,
        bwd_per_elem,
    );
    let max_buckets = BucketPlan::new(params, opts.bucket_bytes, 0).num_buckets;
    // Grad-accumulation and pipeline sweeps can push the CPU past the
    // backward time, where far more retention pays off than Eq. 4-5 alone
    // suggests; the coarse fractions cover that regime.
    let mut candidates = vec![
        0,
        seed.saturating_sub(2),
        seed.saturating_sub(1),
        seed,
        seed + 1,
        seed + 2,
        seed * 2,
        max_buckets / 16,
        max_buckets / 8,
        max_buckets / 4,
        3 * max_buckets / 8,
        max_buckets / 2,
    ];
    candidates.retain(|&n| n <= max_buckets);
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// The cast placement `opts` asks for, or the per-chip automatic choice.
fn chosen_cast(chip: &ChipSpec, opts: &SuperOffloadOptions) -> CastPlacement {
    opts.cast
        .unwrap_or_else(|| CastPlacement::choose(chip, opts.bucket_bytes / 4))
}

/// A built, not yet run, fixed-retention schedule.
struct FixedSchedule {
    ctx: ScheduleCtx,
    gates: Vec<TaskId>,
    effective_flops: f64,
    plan: ExecutionPlan,
}

impl FixedSchedule {
    /// Steady-state TFLOPS from an uninstrumented end-times run: the same
    /// f64 operations as [`finalize_report`], so bit-identical to the
    /// profiled report's `tflops`.
    fn score(&self) -> Result<f64, Infeasible> {
        let ends = self.ctx.sim.run_end_times()?;
        let end = |g: TaskId| ends[g.index()];
        let iter_time = steady_iter_time(&self.gates, end);
        Ok(tflops(self.effective_flops, iter_time.as_secs()))
    }

    /// An upper bound on the steady-state TFLOPS of this configuration,
    /// from its last gate's [`Simulator::end_lower_bound`]: every
    /// iteration of a longer run starts after the previous gate (through
    /// [`IterationBuilder::start_deps`]) and repeats this graph, so each
    /// steady iteration lasts at least the bound. The STV validators are
    /// not ancestors of a gate and drop out.
    fn tflops_bound(&self) -> f64 {
        let gate = *self.gates.last().expect("a built schedule has a gate");
        let end = self
            .ctx
            .sim
            .end_lower_bound(gate)
            .expect("the gate is a submitted task");
        tflops(self.effective_flops, end.as_secs())
    }

    /// Runs the schedule instrumented and builds its full profile.
    fn finish_profiled(self, chip: &ChipSpec) -> Result<RunProfile, Infeasible> {
        self.ctx.finish_profiled(
            "superoffload",
            &self.gates,
            self.effective_flops,
            chip,
            self.plan,
        )
    }
}

/// Capacity checks and the task graph of one fixed-retention configuration.
fn build_fixed(
    chip: &ChipSpec,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> Result<FixedSchedule, Infeasible> {
    let params = workload.config.param_count();
    let states = ModelStateMemory::for_params(params);
    let cast = chosen_cast(chip, opts);
    let retained = if opts.use_repartition {
        opts.retained_buckets.unwrap_or(0)
    } else {
        0
    };
    let plan_buckets = BucketPlan::new(params, opts.bucket_bytes, retained);

    // --- Memory planning -------------------------------------------------
    let lease = NodeLease::solo(chip);
    let cap = lease.capacity();

    // Staging: double-buffered gradient-out and param-in buckets (FP32).
    let staging = 4 * opts.bucket_bytes;
    let reserved = plan_buckets.retained_gpu_bytes() + staging;

    let weight_policy = opts
        .weight_policy
        .unwrap_or_else(|| choose_policy(chip, workload, reserved));
    let resident_weights = (states.fp16_params as f64 * weight_policy.resident_fraction()) as u64;

    let gpu_resident = resident_weights + reserved;
    cap.fit_gpu(gpu_resident)?;

    // CPU holds FP32 master + moments for CPU buckets, plus the streamed
    // FP16 weights when flowing, plus pinned transfer pools.
    let cpu_bucket_elems: u64 = params - plan_buckets.retained_elems();
    let streamed_weights = (states.fp16_params as f64 * weight_policy.streamed_fraction()) as u64;
    let cpu_resident = 12 * cpu_bucket_elems + streamed_weights + staging;
    cap.fit_cpu(cpu_resident)?;

    let plan = cap.plan(workload, gpu_resident)?;

    // --- Cost inputs ------------------------------------------------------
    let flops = TrainingFlops::for_iteration(
        &workload.config,
        workload.global_batch,
        workload.seq,
        plan.checkpointing,
    );
    let compute = ComputeTimes::new(&chip.gpu, &flops, plan.micro_steps());
    let overhead = SimTime::from_secs(opts.op_overhead_secs);

    // --- Task graph -------------------------------------------------------
    let mut ctx = lease.ctx();
    let cpu_val = ctx.add_resource(SINGLE_CHIP_RESOURCES[5]);
    let (hbm, ddr) = ctx.plan_residency(chip, gpu_resident, cpu_resident);

    let micro = plan.micro_steps();

    // Weight streaming per pass (flow policy): bytes over h2d per micro-step.
    let streamed_frac = weight_policy.streamed_fraction();
    let stream_bytes_per_pass = (states.fp16_params as f64 * streamed_frac) as u64;

    let mut iters = IterationBuilder::new();
    for _iter in 0..opts.iterations {
        let mut iter_end_deps: Vec<TaskId> = Vec::new();
        let mut last_bwd_chunk: Option<TaskId> = None;
        let mut grad_arrivals: Vec<(u32, TaskId)> = Vec::new();

        for m in 0..micro {
            // Forward (with optional weight streaming fetch).
            let mut fwd_dep: Vec<TaskId> = iters.start_deps();
            if let Some(prev) = last_bwd_chunk {
                fwd_dep.push(prev);
            }
            if stream_bytes_per_pass > 0 {
                let fetch = ctx.sim.add_task(
                    TaskSpec::transfer(
                        ctx.h2d,
                        chip.c2c.transfer_time(stream_bytes_per_pass) + overhead,
                    )
                    .with_label("weight-fetch-fwd")
                    .tagged(TaskTag::Eviction)
                    .after_all(fwd_dep.iter().copied()),
                )?;
                ctx.track_transfer(fetch, &chip.c2c, stream_bytes_per_pass);
                fwd_dep.push(fetch);
            }
            let fwd = ctx.forward(compute.fwd_per_micro + overhead, fwd_dep)?;

            // Backward, chunked by bucket (grads appear bucket by bucket,
            // in reverse parameter order).
            let mut bwd_fetch: Option<TaskId> = None;
            if stream_bytes_per_pass > 0 {
                let fetch = ctx.sim.add_task(
                    TaskSpec::transfer(
                        ctx.h2d,
                        chip.c2c.transfer_time(stream_bytes_per_pass) + overhead,
                    )
                    .with_label("weight-fetch-bwd")
                    .tagged(TaskTag::Eviction)
                    .after(fwd),
                )?;
                ctx.track_transfer(fetch, &chip.c2c, stream_bytes_per_pass);
                bwd_fetch = Some(fetch);
            }
            let last = ctx.backward_chunks(
                &plan_buckets,
                compute.bwd_per_micro,
                overhead,
                fwd,
                bwd_fetch,
                |ctx, bi, elems, chunk| {
                    // Gradient swap-out for CPU buckets, every micro-step
                    // (accumulation happens CPU-side in FP32).
                    if !plan_buckets.is_retained(bi) {
                        let xfer_time = match cast {
                            CastPlacement::GpuCastMoveFp32 => {
                                // Cast on GPU, then pinned FP32 move.
                                let c = ctx.sim.add_task(
                                    TaskSpec::cast(
                                        ctx.gpu,
                                        SimTime::from_secs(
                                            (elems * 6) as f64 / chip.gpu.mem_bandwidth,
                                        ) + overhead,
                                    )
                                    .with_indexed_label("cast-gpu", bi)
                                    .after(chunk),
                                )?;
                                (chip.c2c.transfer_time(4 * elems), c)
                            }
                            CastPlacement::CpuCastMoveFp16Pageable => {
                                (chip.c2c.transfer_time_pageable(2 * elems), chunk)
                            }
                            CastPlacement::CpuCastMoveFp16Fused => {
                                (chip.c2c.transfer_time(2 * elems), chunk)
                            }
                        };
                        let mut xfer = ctx.sim.add_task(
                            TaskSpec::transfer(ctx.d2h, xfer_time.0 + overhead)
                                .with_indexed_label("grad-out", bi)
                                .after(xfer_time.1),
                        )?;
                        let grad_bytes = match cast {
                            CastPlacement::GpuCastMoveFp32 => 4 * elems,
                            _ => 2 * elems,
                        };
                        ctx.track_transfer(xfer, &chip.c2c, grad_bytes);
                        if cast == CastPlacement::CpuCastMoveFp16Pageable {
                            xfer = ctx.sim.add_task(
                                TaskSpec::cast(
                                    ctx.cpu,
                                    SimTime::from_secs((elems * 6) as f64 / chip.cpu.mem_bandwidth)
                                        + overhead,
                                )
                                .with_indexed_label("cast-cpu", bi)
                                .after(xfer),
                            )?;
                        }
                        if m + 1 < micro {
                            // Accumulate into FP32 CPU gradients.
                            let acc = ctx.sim.add_task(
                                TaskSpec::compute(
                                    ctx.cpu,
                                    SimTime::from_secs(
                                        (elems * 12) as f64 / chip.cpu.mem_bandwidth,
                                    ) + overhead,
                                )
                                .with_indexed_label("grad-accum", bi)
                                .after(xfer),
                            )?;
                            // FP32 staging buffer lives from arrival to accum.
                            ctx.track_alloc(ddr, 4 * elems, xfer, Some(acc));
                            iter_end_deps.push(acc);
                        } else {
                            grad_arrivals.push((bi, xfer));
                        }
                    } else if m + 1 == micro {
                        grad_arrivals.push((bi, chunk));
                    }
                    Ok(())
                },
            )?;
            // Activations of this micro-step occupy HBM from the end of
            // forward until the last backward chunk releases them.
            if plan.activation_bytes > 0 {
                ctx.track_alloc(hbm, plan.activation_bytes, fwd, Some(last));
            }
            last_bwd_chunk = Some(last);
        }

        // --- Optimizer phase -----------------------------------------
        // STE: a global norm/NaN synchronization gates every step.
        let norm_sync = if opts.use_stv {
            None
        } else {
            let all: Vec<TaskId> = grad_arrivals.iter().map(|&(_, t)| t).collect();
            Some(
                ctx.sim.add_task(
                    TaskSpec::compute(
                        ctx.cpu,
                        SimTime::from_secs((4 * params) as f64 / chip.cpu.mem_bandwidth) + overhead,
                    )
                    .with_label("global-norm-sync")
                    .after_all(all),
                )?,
            )
        };

        for &(bi, arrival) in &grad_arrivals {
            let elems = plan_buckets.bucket_elems(bi);
            if plan_buckets.is_retained(bi) {
                // GPU-resident optimizer step.
                let mut spec =
                    TaskSpec::compute(ctx.gpu, gpu_optimizer_time(&chip.gpu, elems) + overhead)
                        .with_indexed_label("step-gpu", bi)
                        .tagged(TaskTag::OptimizerStep)
                        .after(arrival);
                if let Some(ns) = norm_sync {
                    spec = spec.after(ns);
                }
                let step = ctx.sim.add_task(spec)?;
                iter_end_deps.push(step);
            } else {
                // CPU optimizer step (+ fused cast overhead if any).
                let step_time = pipeline_step_time(opts.optimizer, &chip.cpu, elems)
                    + cast.fused_optimizer_overhead(chip, elems);
                let mut spec = TaskSpec::compute(ctx.cpu, step_time + overhead)
                    .with_indexed_label("step-cpu", bi)
                    .tagged(TaskTag::OptimizerStep)
                    .after(arrival);
                if let Some(ns) = norm_sync {
                    spec = spec.after(ns);
                }
                let step = ctx.sim.add_task(spec)?;
                // FP32 gradient staging held until the optimizer consumes it.
                ctx.track_alloc(ddr, 4 * elems, arrival, Some(step));

                // STV: background validation on spare cores, off the
                // critical path (scans the bucket's gradients).
                if opts.use_stv {
                    ctx.sim.add_task(
                        TaskSpec::compute(
                            cpu_val,
                            SimTime::from_secs(
                                (4 * elems) as f64 / (chip.cpu.mem_bandwidth * 0.25),
                            ),
                        )
                        .with_indexed_label("validate", bi)
                        .after(arrival),
                    )?;
                }

                // Parameter swap-in.
                let (ret_time, ret_dep) = match cast {
                    CastPlacement::GpuCastMoveFp32 => (chip.c2c.transfer_time(4 * elems), step),
                    CastPlacement::CpuCastMoveFp16Pageable => {
                        let c = ctx.sim.add_task(
                            TaskSpec::cast(
                                ctx.cpu,
                                SimTime::from_secs((elems * 6) as f64 / chip.cpu.mem_bandwidth)
                                    + overhead,
                            )
                            .with_indexed_label("cast-param", bi)
                            .after(step),
                        )?;
                        (chip.c2c.transfer_time_pageable(2 * elems), c)
                    }
                    CastPlacement::CpuCastMoveFp16Fused => {
                        (chip.c2c.transfer_time(2 * elems), step)
                    }
                };
                let ret = ctx.sim.add_task(
                    TaskSpec::transfer(ctx.h2d, ret_time + overhead)
                        .with_indexed_label("param-in", bi)
                        .after(ret_dep),
                )?;
                let param_bytes = match cast {
                    CastPlacement::GpuCastMoveFp32 => 4 * elems,
                    _ => 2 * elems,
                };
                ctx.track_transfer(ret, &chip.c2c, param_bytes);
                if cast == CastPlacement::GpuCastMoveFp32 {
                    let c = ctx.sim.add_task(
                        TaskSpec::cast(
                            ctx.gpu,
                            SimTime::from_secs((elems * 6) as f64 / chip.gpu.mem_bandwidth)
                                + overhead,
                        )
                        .with_indexed_label("cast-param-gpu", bi)
                        .after(ret),
                    )?;
                    iter_end_deps.push(c);
                } else {
                    iter_end_deps.push(ret);
                }
            }
        }

        iters.close(&mut ctx, iter_end_deps)?;
    }

    Ok(FixedSchedule {
        ctx,
        gates: iters.gates().to_vec(),
        effective_flops: flops.effective(),
        plan,
    })
}

/// Steady-state iteration time: the span between the first and last
/// iteration gates' end times over the iterations it covers.
///
/// # Panics
/// Panics if fewer than two gates are supplied.
fn steady_iter_time(gates: &[TaskId], end: impl Fn(TaskId) -> SimTime) -> SimTime {
    assert!(gates.len() >= 2, "need >= 2 iterations for steady state");
    let first = end(gates[0]);
    let last = end(*gates.last().expect("nonempty"));
    (last - first) / (gates.len() - 1) as f64
}

/// Extracts a steady-state [`TrainReport`] from a multi-iteration trace
/// (shared with the multi-chip and baseline builders).
///
/// # Panics
/// Panics if fewer than two iteration gates are supplied (steady state
/// requires at least one full iteration delta).
#[allow(clippy::too_many_arguments)]
pub fn finalize_report(
    system: &str,
    trace: &Trace,
    gates: &[TaskId],
    gpu: superchip_sim::engine::ResourceId,
    cpu: superchip_sim::engine::ResourceId,
    effective_flops: f64,
    chip: &ChipSpec,
    plan: ExecutionPlan,
    peaks: Vec<(String, u64)>,
) -> TrainReport {
    let end = |g: TaskId| trace.end_time(g).expect("gate executed");
    let iter_time = steady_iter_time(gates, end);
    let first = end(gates[0]);
    let last = end(*gates.last().expect("nonempty"));
    let span = last - first;

    // Busy time inside the steady-state window.
    let busy_in_window = |r| -> SimTime {
        trace
            .intervals_on(r)
            .into_iter()
            .map(|iv| {
                let s = iv.start.max(first);
                let e = iv.end.min(last);
                e.saturating_sub(s)
            })
            .sum()
    };
    let gpu_busy = busy_in_window(gpu);
    let cpu_busy = busy_in_window(cpu);

    let t = tflops(effective_flops, iter_time.as_secs());
    TrainReport {
        system: system.to_string(),
        plan: Some(plan),
        iter_time,
        tflops: t,
        mfu: effective_flops / (iter_time.as_secs() * chip.gpu.peak_flops * DENSE_PEAK_FRACTION),
        gpu_util: if span > SimTime::ZERO {
            gpu_busy / span
        } else {
            0.0
        },
        cpu_util: if span > SimTime::ZERO {
            cpu_busy / span
        } else {
            0.0
        },
        peaks,
        stv: None,
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
    fn five_b_is_feasible_and_fast() {
        let chip = presets::gh200_chip();
        let r = simulate_single_chip(&chip, &wl("5B", 8), &SuperOffloadOptions::default());
        assert!(r.feasible());
        assert!(r.tflops > 100.0, "tflops {}", r.tflops);
        assert!(r.gpu_util > 0.7, "gpu util {}", r.gpu_util);
    }

    #[test]
    fn ablation_is_monotone() {
        // Table 2: each enabled technique should not hurt throughput.
        let chip = presets::gh200_chip();
        let w = wl("5B", 8);
        let rows = [
            SuperOffloadOptions::ablation(false, false, false, false),
            SuperOffloadOptions::ablation(true, false, false, false),
            SuperOffloadOptions::ablation(true, true, false, false),
            SuperOffloadOptions::ablation(true, true, true, false),
            SuperOffloadOptions::ablation(true, true, true, true),
        ];
        let mut prev = 0.0;
        for (i, opts) in rows.iter().enumerate() {
            let r = simulate_single_chip(&chip, &w, opts);
            assert!(r.feasible(), "row {i} OOM");
            assert!(
                r.tflops >= prev * 0.98,
                "row {i} regressed: {} < {prev}",
                r.tflops
            );
            prev = r.tflops;
        }
    }

    #[test]
    fn stv_is_the_largest_single_win() {
        let chip = presets::gh200_chip();
        let w = wl("5B", 8);
        let without = simulate_single_chip(
            &chip,
            &w,
            &SuperOffloadOptions::ablation(true, true, false, false),
        );
        let with = simulate_single_chip(
            &chip,
            &w,
            &SuperOffloadOptions::ablation(true, true, true, false),
        );
        let gain = with.tflops / without.tflops;
        assert!(gain > 1.2, "STV gain only {gain}");
    }

    #[test]
    fn large_model_uses_flow_and_fits() {
        let chip = presets::gh200_chip();
        let r = simulate_single_chip(&chip, &wl("25B", 8), &SuperOffloadOptions::default());
        assert!(
            r.feasible(),
            "25B should fit on one GH200 with SuperOffload"
        );
    }

    #[test]
    fn absurd_model_ooms() {
        let chip = presets::gh200_chip();
        let r = simulate_single_chip(&chip, &wl("200B", 8), &SuperOffloadOptions::default());
        assert!(!r.feasible());
    }

    #[test]
    fn gpu_utilization_near_full_with_all_techniques() {
        // Fig. 15: SuperOffload achieves near-complete GPU utilization.
        let chip = presets::gh200_chip();
        let r = simulate_single_chip(&chip, &wl("5B", 8), &SuperOffloadOptions::default());
        assert!(r.gpu_util > 0.85, "gpu util {}", r.gpu_util);
    }

    #[test]
    fn ste_leaves_gpu_idle() {
        // Fig. 4: without STV/repartitioning the GPU idles 40–50%.
        let chip = presets::gh200_chip();
        let r = simulate_single_chip(
            &chip,
            &wl("5B", 8),
            &SuperOffloadOptions::ablation(false, false, false, false),
        );
        assert!(
            r.gpu_util < 0.75,
            "STE should leave substantial idle, util {}",
            r.gpu_util
        );
    }

    #[test]
    fn repartitioning_pays_off_when_cpu_exceeds_backward() {
        // The §4.3 regime: with the slower CPU-Adam pipeline the CPU phase
        // outlasts backward, so retaining trailing buckets on the GPU trims
        // the exposed tail even under STV.
        let chip = presets::gh200_chip();
        let w = wl("5B", 8);
        let without = simulate_single_chip(
            &chip,
            &w,
            &SuperOffloadOptions::ablation(false, true, true, false),
        );
        let with = simulate_single_chip(
            &chip,
            &w,
            &SuperOffloadOptions::ablation(false, true, true, true),
        );
        assert!(without.feasible() && with.feasible());
        let gain = with.tflops / without.tflops;
        assert!(gain > 1.02, "repartitioning gain only {gain:.3}x");
    }

    #[test]
    fn tiny_bucket_hurts_throughput() {
        // Fig. 7 consequence: 1 MiB buckets underutilize the C2C link.
        let chip = presets::gh200_chip();
        let w = wl("5B", 8);
        let big = simulate_single_chip(&chip, &w, &SuperOffloadOptions::default());
        let small = simulate_single_chip(
            &chip,
            &w,
            &SuperOffloadOptions {
                bucket_bytes: superchip_sim::MIB,
                ..SuperOffloadOptions::default()
            },
        );
        assert!(
            small.tflops < big.tflops,
            "{} !< {}",
            small.tflops,
            big.tflops
        );
    }

    #[test]
    fn deterministic_reports() {
        let chip = presets::gh200_chip();
        let a = simulate_single_chip(&chip, &wl("5B", 8), &SuperOffloadOptions::default());
        let b = simulate_single_chip(&chip, &wl("5B", 8), &SuperOffloadOptions::default());
        assert_eq!(a, b);
    }
}
