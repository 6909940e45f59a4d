//! Multi-Superchip SuperOffload: ZeRO-DP integration (§4.7).
//!
//! Model states are partitioned before offloading: each rank offloads only
//! its own 1/N slice of gradients and optimizer state to its *local* Grace
//! CPU (NUMA-bound), so total GPU↔CPU volume stays constant while CPU
//! throughput scales with ranks. Weight placement is adaptive, like the
//! single-chip policy:
//!
//! - **Replicated weights** when the FP16 parameters fit on every GPU ("the
//!   partitioned weights, as well as the last few buckets from adaptive
//!   offloading, remain on the GPUs"): no per-pass all-gathers; gradients
//!   reduce-scatter per bucket overlapping backward, updated parameter
//!   slices all-gather per bucket overlapping the rest of backward, and the
//!   last buckets stay on the GPU entirely (all-reduced and stepped there).
//! - **ZeRO-3 sharding** for models too large to replicate: weights
//!   all-gather per pass, everything else as above.

use llm_model::flops::TrainingFlops;
use llm_model::memory::ModelStateMemory;
use llm_model::workload::Workload;
use superchip_sim::prelude::*;

use crate::bucket::BucketPlan;
use crate::casting::CastPlacement;
use crate::costs::{gpu_optimizer_time, pipeline_step_time, ComputeTimes};
use crate::fleet::FleetCtx;
use crate::report::TrainReport;
use crate::schedule::SuperOffloadOptions;
use crate::system::{split_batch, Infeasible, IterationBuilder};

/// Simulates SuperOffload + ZeRO-DP across `ranks` Superchips of `cluster`.
///
/// `workload.global_batch` is the global batch; it is divided evenly across
/// ranks (must divide). The report is per-GPU (as in Fig. 11). Returns
/// [`TrainReport::oom`] on any infeasibility (including a `ranks` span the
/// fabric cannot connect); [`simulate_cluster_traced`] reports the
/// structured reason instead.
pub fn simulate_cluster(
    cluster: &ClusterSpec,
    ranks: u32,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> TrainReport {
    crate::system::collapse(
        simulate_cluster_traced(cluster, ranks, workload, opts),
        "superoffload",
    )
}

/// Like [`simulate_cluster`], additionally returning the execution trace,
/// or the structured [`Infeasible`] reason (capacity, fabric span, batch
/// divisibility, no execution plan) when the workload cannot run.
pub fn simulate_cluster_traced(
    cluster: &ClusterSpec,
    ranks: u32,
    workload: &Workload,
    opts: &SuperOffloadOptions,
) -> Result<(TrainReport, Trace), Infeasible> {
    let system = "superoffload";
    let lease = FleetCtx::new(cluster).lease(0)?;
    let chip = lease.chip();
    let coll = lease.collective(ranks)?;
    let params = workload.config.param_count();
    let states = ModelStateMemory::for_params(params);
    let shard_elems = params / ranks as u64;

    // Per-rank workload.
    let rank_wl = split_batch(workload, ranks)?;
    let rank_batch = rank_wl.global_batch;

    // --- Memory planning (per rank) --------------------------------------
    let cap = lease.capacity();

    let cast = opts
        .cast
        .unwrap_or_else(|| CastPlacement::choose(chip, opts.bucket_bytes / 4));
    let retained = if opts.use_repartition {
        opts.retained_buckets.unwrap_or(2)
    } else {
        0
    };
    // Buckets partition the FULL parameter space (backward produces full
    // gradients on every rank); each rank owns a 1/ranks slice of every
    // bucket after the reduce-scatter.
    let buckets = BucketPlan::new(params, opts.bucket_bytes, retained);
    let slice = |elems: u64| (elems / ranks as u64).max(1);

    // Weight placement: replicate when FP16 parameters fit every GPU,
    // otherwise fall back to ZeRO-3 sharding with per-pass all-gathers.
    let staging = 4 * opts.bucket_bytes;
    let gather_window = (states.fp16_params / workload.config.layers.max(1) as u64) * 4;
    let min_act =
        llm_model::memory::ActivationMemory::checkpointed(&workload.config, 1, workload.seq).bytes;
    let replicated_resident = states.fp16_params + staging + buckets.retained_gpu_bytes() + min_act;
    let replicated = replicated_resident <= cap.gpu;
    let gpu_resident = if replicated {
        replicated_resident - min_act
    } else {
        states.fp16_params / ranks as u64
            + gather_window
            + staging
            + buckets.retained_gpu_bytes() / ranks as u64
    };
    cap.fit_gpu(gpu_resident)?;
    // CPU: FP32 master + moments for this rank's slice of the CPU buckets.
    let cpu_resident = 12 * (params - buckets.retained_elems()) / ranks as u64 + staging;
    cap.fit_cpu(cpu_resident)?;
    let plan = cap.plan(&rank_wl, gpu_resident)?;

    // --- Cost inputs (per rank) ------------------------------------------
    let flops = TrainingFlops::for_iteration(
        &workload.config,
        rank_batch,
        workload.seq,
        plan.checkpointing,
    );
    let compute = ComputeTimes::new(&chip.gpu, &flops, plan.micro_steps());
    let overhead = SimTime::from_secs(opts.op_overhead_secs);

    // Sharded mode only: all-gather FP16 params for forward and backward.
    let allgather = coll.all_gather(states.fp16_params / ranks as u64);

    // --- Task graph (rank-0 perspective; ranks are symmetric) ------------
    let mut ctx = lease.ctx();
    ctx.plan_residency(chip, gpu_resident + plan.activation_bytes, cpu_resident);

    let micro = plan.micro_steps();

    let mut iters = IterationBuilder::new();
    for _ in 0..opts.iterations {
        let mut iter_end: Vec<TaskId> = Vec::new();
        let mut last_task: Option<TaskId> = None;
        let mut arrivals: Vec<(u32, TaskId)> = Vec::new();

        for m in 0..micro {
            let mut deps: Vec<TaskId> = iters.start_deps();
            if let Some(t) = last_task {
                deps.push(t);
            }
            let fwd_dep = if replicated {
                deps
            } else {
                // Sharded mode: all-gather weights for the forward pass.
                vec![ctx.sim.add_task(
                    TaskSpec::collective(ctx.net, allgather + overhead)
                        .with_label("allgather-fwd")
                        .after_all(deps),
                )?]
            };
            let fwd = ctx.forward(compute.fwd_per_micro + overhead, fwd_dep)?;
            let bwd_start = if replicated {
                fwd
            } else {
                // Sharded mode: gather again for backward.
                ctx.sim.add_task(
                    TaskSpec::collective(ctx.net, allgather + overhead)
                        .with_label("allgather-bwd")
                        .after(fwd),
                )?
            };

            let last = ctx.backward_chunks(
                &buckets,
                compute.bwd_per_micro,
                overhead,
                bwd_start,
                None,
                |ctx, bi, elems, chunk| {
                    // Reduce gradients across ranks: retained buckets are
                    // all-reduced in replicated mode (every rank steps them
                    // on the GPU); everything else reduce-scatters so each
                    // rank ends with its 1/ranks slice.
                    let rs = if replicated && buckets.is_retained(bi) && ranks > 1 {
                        ctx.all_reduce(
                            &coll,
                            2 * elems,
                            overhead,
                            TaskLabel::indexed("allreduce", bi),
                            chunk,
                        )?
                    } else if ranks > 1 {
                        ctx.reduce_scatter(
                            &coll,
                            2 * elems,
                            overhead,
                            TaskLabel::indexed("reduce-scatter", bi),
                            chunk,
                        )?
                    } else {
                        chunk
                    };

                    if m + 1 == micro {
                        if buckets.is_retained(bi) {
                            arrivals.push((bi, rs));
                        } else {
                            // Swap this rank's slice out to the local CPU.
                            let xfer = ctx.sim.add_task(
                                TaskSpec::transfer(
                                    ctx.d2h,
                                    cast.one_way_time(chip, slice(elems)) + overhead,
                                )
                                .with_indexed_label("grad-out", bi)
                                .after(rs),
                            )?;
                            arrivals.push((bi, xfer));
                        }
                    } else {
                        iter_end.push(rs);
                    }
                    Ok(())
                },
            )?;
            last_task = Some(last);
        }

        // Optimizer phase on shard (STV: per-bucket, no global sync).
        let norm_sync = if opts.use_stv {
            None
        } else {
            let all: Vec<TaskId> = arrivals.iter().map(|&(_, t)| t).collect();
            Some(
                ctx.sim.add_task(
                    TaskSpec::compute(
                        ctx.cpu,
                        SimTime::from_secs((4 * shard_elems) as f64 / chip.cpu.mem_bandwidth)
                            + overhead,
                    )
                    .with_label("global-norm-sync")
                    .after_all(all),
                )?,
            )
        };
        for &(bi, arrival) in &arrivals {
            let full = buckets.bucket_elems(bi);
            let elems = slice(full);
            if buckets.is_retained(bi) {
                // Retained buckets: every rank steps the full bucket on
                // its GPU (all-reduced gradients when replicated; the
                // reduce-scatter result otherwise).
                let step_elems = if replicated { full } else { elems };
                let mut spec = TaskSpec::compute(
                    ctx.gpu,
                    gpu_optimizer_time(&chip.gpu, step_elems) + overhead,
                )
                .with_indexed_label("step-gpu", bi)
                .tagged(TaskTag::OptimizerStep)
                .after(arrival);
                if let Some(ns) = norm_sync {
                    spec = spec.after(ns);
                }
                iter_end.push(ctx.sim.add_task(spec)?);
            } else {
                let mut spec = TaskSpec::compute(
                    ctx.cpu,
                    pipeline_step_time(opts.optimizer, &chip.cpu, elems)
                        + cast.fused_optimizer_overhead(chip, elems)
                        + overhead,
                )
                .with_indexed_label("step-cpu", bi)
                .tagged(TaskTag::OptimizerStep)
                .after(arrival);
                if let Some(ns) = norm_sync {
                    spec = spec.after(ns);
                }
                let step = ctx.sim.add_task(spec)?;
                let ret = ctx.sim.add_task(
                    TaskSpec::transfer(ctx.h2d, cast.one_way_time(chip, elems) + overhead)
                        .with_indexed_label("param-in", bi)
                        .after(step),
                )?;
                if replicated && ranks > 1 {
                    // All-gather the updated FP16 slices of this bucket
                    // back to every rank, overlapping later buckets.
                    let ag = ctx.all_gather(
                        &coll,
                        2 * full / ranks as u64,
                        overhead,
                        TaskLabel::indexed("param-allgather", bi),
                        ret,
                    )?;
                    iter_end.push(ag);
                } else {
                    iter_end.push(ret);
                }
            }
        }

        iters.close(&mut ctx, iter_end)?;
    }

    // Per-GPU effective FLOPs: this rank's share.
    let gates = iters.gates().to_vec();
    ctx.finish(system, &gates, flops.effective(), chip, plan)
}

/// Largest Appendix-A model SuperOffload can train on `ranks` Superchips
/// (used by Fig. 13). Scans the Appendix-A ladder from the top.
pub fn max_trainable_model(
    cluster: &ClusterSpec,
    ranks: u32,
    batch: u32,
    seq: u64,
    opts: &SuperOffloadOptions,
) -> Option<llm_model::ModelConfig> {
    let mut best = None;
    for cfg in llm_model::ModelConfig::appendix_a() {
        let wl = Workload::new(cfg.clone(), batch, seq);
        let report = if ranks == 1 {
            crate::schedule::simulate_single_chip(&cluster.node.chip, &wl, opts)
        } else {
            simulate_cluster(cluster, ranks, &wl, opts)
        };
        if report.feasible()
            && best
                .as_ref()
                .map(|b: &llm_model::ModelConfig| cfg.param_count() > b.param_count())
                .unwrap_or(true)
        {
            best = Some(cfg);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::ModelConfig;
    use superchip_sim::presets;

    fn cluster(nodes: u32) -> ClusterSpec {
        presets::gh200_nvl2_cluster(nodes)
    }

    fn wl(name: &str, batch: u32) -> Workload {
        Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048)
    }

    #[test]
    fn four_rank_10b_feasible() {
        let r = simulate_cluster(
            &cluster(2),
            4,
            &wl("10B", 16),
            &SuperOffloadOptions::default(),
        );
        assert!(r.feasible());
        assert!(r.tflops > 50.0, "tflops {}", r.tflops);
    }

    #[test]
    fn fifty_b_fits_on_four_ranks() {
        // §1: "SuperOffload enables LLM training with 50B parameters using
        // only four Superchips".
        let r = simulate_cluster(
            &cluster(2),
            4,
            &wl("50B", 16),
            &SuperOffloadOptions::default(),
        );
        assert!(r.feasible(), "50B should fit on 4 Superchips");
    }

    #[test]
    fn two_hundred_b_fits_on_sixteen_ranks() {
        // §5.2: "efficiently training 200B models on 16 GPUs".
        let r = simulate_cluster(
            &cluster(8),
            16,
            &wl("200B", 128),
            &SuperOffloadOptions::default(),
        );
        assert!(r.feasible(), "200B should fit on 16 Superchips");
    }

    #[test]
    fn more_ranks_enable_bigger_models() {
        let opts = SuperOffloadOptions::default();
        let m4 = max_trainable_model(&cluster(2), 4, 16, 2048, &opts).unwrap();
        let m16 = max_trainable_model(&cluster(8), 16, 128, 2048, &opts).unwrap();
        assert!(m16.param_count() >= m4.param_count());
        assert!(m4.param_count() >= ModelConfig::by_name("50B").unwrap().param_count());
    }

    #[test]
    fn batch_must_divide() {
        let err = simulate_cluster_traced(
            &cluster(2),
            4,
            &wl("10B", 7),
            &SuperOffloadOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            Infeasible::BatchNotDivisible {
                global_batch: 7,
                ranks: 4
            }
        );
        // The legacy wrapper collapses the structured reason into OOM form.
        let report = simulate_cluster(
            &cluster(2),
            4,
            &wl("10B", 7),
            &SuperOffloadOptions::default(),
        );
        assert!(!report.feasible());
    }

    #[test]
    fn deterministic() {
        let a = simulate_cluster(
            &cluster(2),
            4,
            &wl("10B", 16),
            &SuperOffloadOptions::default(),
        );
        let b = simulate_cluster(
            &cluster(2),
            4,
            &wl("10B", 16),
            &SuperOffloadOptions::default(),
        );
        assert_eq!(a, b);
    }
}
