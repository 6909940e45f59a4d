//! Megatron-LM tensor model parallelism.
//!
//! Linear layers are column/row-split across `mp` GPUs; each transformer
//! block incurs two all-reduces in forward and two in backward, mostly on
//! the critical path. Model states shrink as 16Ψ/mp but activations are
//! only partially sharded. As in the paper (§5.2), the MP degree is chosen
//! per workload for best performance.

use llm_model::flops::TrainingFlops;
use llm_model::memory::ModelStateMemory;
use llm_model::workload::{ExecutionPlan, Workload};
use superchip_sim::prelude::*;

use superoffload::costs::{gpu_optimizer_time, ComputeTimes, OP_OVERHEAD_TUNED};
use superoffload::fleet::FleetCtx;
use superoffload::report::TrainReport;
use superoffload::system::{collapse, split_batch, Infeasible, IterationBuilder, OffloadSystem};

use crate::common::ITERATIONS;

/// Fraction of activations that remain unsharded under tensor parallelism
/// (LayerNorms, dropouts, residuals).
const UNSHARDED_ACT_FRACTION: f64 = 0.15;

/// Megatron tensor parallelism (best MP degree per workload) as an
/// [`OffloadSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Megatron;

impl OffloadSystem for Megatron {
    fn name(&self) -> &str {
        "megatron"
    }

    fn simulate_traced(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<(TrainReport, Trace), Infeasible> {
        simulate_traced(cluster, ranks, workload)
    }
}

/// Simulates Megatron with an explicit MP degree (`mp` must divide `ranks`;
/// the remaining `ranks / mp` ways are data parallelism).
pub fn simulate_with_mp(
    cluster: &ClusterSpec,
    ranks: u32,
    mp: u32,
    workload: &Workload,
) -> TrainReport {
    collapse(
        simulate_with_mp_traced(cluster, ranks, mp, workload),
        "megatron",
    )
}

/// Like [`simulate_with_mp`], additionally returning the execution trace,
/// or the structured [`Infeasible`] reason when the workload cannot run.
pub fn simulate_with_mp_traced(
    cluster: &ClusterSpec,
    ranks: u32,
    mp: u32,
    workload: &Workload,
) -> Result<(TrainReport, Trace), Infeasible> {
    assert!(mp >= 1 && ranks.is_multiple_of(mp), "mp must divide ranks");
    let system = "megatron";
    let lease = FleetCtx::new(cluster).lease(0)?;
    let chip = lease.chip();
    let dp = ranks / mp;
    let params = workload.config.param_count();
    let states = ModelStateMemory::for_params(params);
    let mp_coll = lease.collective(mp)?;
    let dp_coll = lease.collective_spanning(ranks, dp)?;

    let rank_wl = split_batch(workload, dp)?;
    let rank_batch = rank_wl.global_batch;

    let cap = lease.capacity();
    let gpu_resident = states.total() / mp as u64;
    cap.fit_gpu(gpu_resident)?;
    // Activation budget: sharded by mp except the unsharded fraction.
    let act_scale = (1.0 - UNSHARDED_ACT_FRACTION) / mp as f64 + UNSHARDED_ACT_FRACTION;
    let budget = ((cap.gpu - gpu_resident) as f64 / act_scale) as u64;
    let plan = ExecutionPlan::best(&rank_wl, budget).ok_or(Infeasible::NoExecutionPlan {
        activation_budget: budget,
    })?;

    let flops = TrainingFlops::for_iteration(
        &workload.config,
        rank_batch,
        workload.seq,
        plan.checkpointing,
    );
    // Per-GPU compute: 1/mp of the rank's FLOPs.
    let per_gpu = TrainingFlops {
        forward: flops.forward / mp as f64,
        backward: flops.backward / mp as f64,
        recompute: flops.recompute / mp as f64,
    };
    let compute = ComputeTimes::new(&chip.gpu, &per_gpu, plan.micro_steps());
    let overhead = SimTime::from_secs(OP_OVERHEAD_TUNED);

    // TP all-reduces: 4 per layer per micro-step, each over the micro-batch
    // activations (tokens · hidden · 2 bytes).
    let micro_tokens = (rank_batch / plan.micro_steps()).max(1) as u64 * workload.seq;
    let ar_bytes = 2 * micro_tokens * workload.config.hidden as u64;
    let tp_comm_per_micro = if mp > 1 {
        mp_coll.all_reduce(ar_bytes) * (4 * workload.config.layers) as f64
    } else {
        SimTime::ZERO
    };

    let mut ctx = lease.ctx();
    ctx.plan_residency(chip, gpu_resident + plan.activation_bytes, 0);
    let mut iters = IterationBuilder::new();
    for _ in 0..ITERATIONS {
        let mut last: Option<TaskId> = None;
        for _m in 0..plan.micro_steps() {
            let deps: Vec<TaskId> = iters.start_deps().into_iter().chain(last).collect();
            // Alternate compute and blocking TP all-reduces in four
            // segments per pass (Megatron's collectives sit on the
            // critical path).
            let segments = 4u32;
            let mut prev: Option<TaskId> = None;
            for s in 0..segments {
                let mut spec = TaskSpec::compute(
                    ctx.gpu,
                    (compute.fwd_per_micro + compute.bwd_per_micro) / segments as f64 + overhead,
                )
                .with_indexed_label("compute", s)
                .after_all(deps.iter().copied());
                if let Some(p) = prev {
                    spec = spec.after(p);
                }
                let c = ctx.sim.add_task(spec)?;
                if mp > 1 {
                    let ar = ctx.sim.add_task(
                        TaskSpec::collective(
                            ctx.net,
                            tp_comm_per_micro / segments as f64 + overhead,
                        )
                        .with_indexed_label("tp-allreduce", s)
                        .after(c),
                    )?;
                    prev = Some(ar);
                } else {
                    prev = Some(c);
                }
            }
            last = prev;
        }
        // DP gradient all-reduce over the shard (2Ψ/mp bytes).
        let mut step_dep = last.expect("at least one micro-step");
        if dp > 1 {
            step_dep = ctx.sim.add_task(
                TaskSpec::collective(
                    ctx.net,
                    dp_coll.all_reduce(states.fp16_grads / mp as u64) + overhead,
                )
                .with_label("dp-allreduce")
                .after(step_dep),
            )?;
        }
        let step = ctx.sim.add_task(
            TaskSpec::compute(
                ctx.gpu,
                gpu_optimizer_time(&chip.gpu, params / mp as u64) + overhead,
            )
            .with_label("step-gpu")
            .tagged(TaskTag::OptimizerStep)
            .after(step_dep),
        )?;
        iters.close(&mut ctx, [step])?;
    }

    let gates = iters.gates().to_vec();
    ctx.finish(system, &gates, per_gpu.effective(), chip, plan)
}

/// Simulates Megatron with the best MP degree among divisors of `ranks`
/// (the paper's methodology: "we use a MP degree that gives the best
/// performance").
pub fn simulate(cluster: &ClusterSpec, ranks: u32, workload: &Workload) -> TrainReport {
    collapse(simulate_traced(cluster, ranks, workload), "megatron")
}

/// Like [`simulate`], additionally returning the execution trace of the
/// best MP degree, or — when no degree is feasible — the structured
/// [`Infeasible`] reason from the first degree tried (mp = 1).
pub fn simulate_traced(
    cluster: &ClusterSpec,
    ranks: u32,
    workload: &Workload,
) -> Result<(TrainReport, Trace), Infeasible> {
    let mut best: Option<(TrainReport, Trace)> = None;
    let mut first_err: Option<Infeasible> = None;
    for mp in (1..=ranks).filter(|m| ranks.is_multiple_of(*m)) {
        match simulate_with_mp_traced(cluster, ranks, mp, workload) {
            Ok((r, t)) => {
                if best.as_ref().is_none_or(|(b, _)| r.tflops > b.tflops) {
                    best = Some((r, t));
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    best.ok_or_else(|| first_err.expect("at least mp = 1 is tried"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::single_chip_cluster;
    use llm_model::ModelConfig;
    use superchip_sim::presets;

    fn wl(name: &str, batch: u32) -> Workload {
        Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048)
    }

    #[test]
    fn single_gpu_equals_mp1() {
        let c = single_chip_cluster(&presets::gh200_chip());
        let r = simulate(&c, 1, &wl("3B", 8));
        assert!(r.feasible());
    }

    #[test]
    fn mp_extends_model_scale() {
        let c = presets::gh200_nvl2_cluster(2);
        // 15B needs aggregated memory: infeasible on 1 GPU, feasible at mp 4.
        assert!(!simulate_with_mp(&c, 4, 1, &wl("15B", 16)).feasible());
        assert!(simulate_with_mp(&c, 4, 4, &wl("15B", 16)).feasible());
    }

    #[test]
    fn infeasible_mp1_reports_gpu_capacity() {
        let c = presets::gh200_nvl2_cluster(2);
        let err = simulate_with_mp_traced(&c, 4, 1, &wl("15B", 16)).unwrap_err();
        assert!(
            matches!(err, Infeasible::GpuCapacity { .. }),
            "expected GpuCapacity, got {err}"
        );
    }

    #[test]
    fn best_mp_beats_or_ties_forced_mp() {
        let c = presets::gh200_nvl2_cluster(2);
        let best = simulate(&c, 4, &wl("10B", 16));
        let forced = simulate_with_mp(&c, 4, 4, &wl("10B", 16));
        assert!(best.tflops >= forced.tflops * 0.999);
    }

    #[test]
    fn tp_allreduces_cost_throughput() {
        // Same model on 1 GPU vs mp=2 within a node: per-GPU throughput
        // should drop under TP.
        let single = single_chip_cluster(&presets::gh200_chip());
        let multi = presets::gh200_nvl2_cluster(1);
        let one = simulate(&single, 1, &wl("3B", 8));
        let two = simulate_with_mp(&multi, 2, 2, &wl("3B", 8));
        assert!(two.feasible());
        assert!(two.tflops < one.tflops);
    }

    #[test]
    #[should_panic(expected = "mp must divide")]
    fn bad_mp_rejected() {
        let c = presets::gh200_nvl2_cluster(2);
        let _ = simulate_with_mp(&c, 4, 3, &wl("5B", 8));
    }
}
