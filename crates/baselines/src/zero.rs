//! ZeRO-2 and ZeRO-3 sharded data parallelism (GPU-only).
//!
//! ZeRO-2 shards gradients and optimizer states but replicates FP16
//! parameters; ZeRO-3 shards parameters too, at the cost of all-gathering
//! them for every forward and backward pass.

use llm_model::flops::TrainingFlops;
use llm_model::memory::ModelStateMemory;
use llm_model::workload::Workload;
use superchip_sim::prelude::*;

use superoffload::bucket::BucketPlan;
use superoffload::costs::{gpu_optimizer_time, ComputeTimes, OP_OVERHEAD_TUNED};
use superoffload::fleet::FleetCtx;
use superoffload::report::TrainReport;
use superoffload::system::{collapse, split_batch, Infeasible, IterationBuilder, OffloadSystem};

use crate::common::ITERATIONS;

/// Which ZeRO stage to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroStage {
    /// Gradients + optimizer states sharded.
    Two,
    /// Parameters sharded as well.
    Three,
}

impl ZeroStage {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ZeroStage::Two => "zero-2",
            ZeroStage::Three => "zero-3",
        }
    }
}

/// DeepSpeed's default reduce bucket size.
const ZERO_BUCKET_BYTES: u64 = 200 * 1000 * 1000;

/// ZeRO-2 or ZeRO-3 as an [`OffloadSystem`].
#[derive(Debug, Clone, Copy)]
pub struct Zero {
    /// Which ZeRO stage this system simulates.
    pub stage: ZeroStage,
}

impl OffloadSystem for Zero {
    fn name(&self) -> &str {
        self.stage.name()
    }

    fn simulate_traced(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<(TrainReport, Trace), Infeasible> {
        simulate_traced(cluster, ranks, workload, self.stage)
    }
}

/// Simulates ZeRO-2/3 on `ranks` GPUs.
pub fn simulate(
    cluster: &ClusterSpec,
    ranks: u32,
    workload: &Workload,
    stage: ZeroStage,
) -> TrainReport {
    collapse(
        simulate_traced(cluster, ranks, workload, stage),
        stage.name(),
    )
}

/// Like [`simulate`], additionally returning the execution trace, or the
/// structured [`Infeasible`] reason when the workload cannot run.
pub fn simulate_traced(
    cluster: &ClusterSpec,
    ranks: u32,
    workload: &Workload,
    stage: ZeroStage,
) -> Result<(TrainReport, Trace), Infeasible> {
    let system = stage.name();
    let lease = FleetCtx::new(cluster).lease(0)?;
    let chip = lease.chip();
    let coll = lease.collective(ranks)?;
    let params = workload.config.param_count();
    let states = ModelStateMemory::for_params(params);

    let rank_wl = split_batch(workload, ranks)?;
    let rank_batch = rank_wl.global_batch;

    let cap = lease.capacity();
    let n = ranks as u64;
    let gpu_resident = match stage {
        // Full FP16 params + full FP16 gradients (held until the reduction
        // drains) + sharded optimizer states.
        ZeroStage::Two => {
            states.fp16_params
                + states.fp16_grads
                + 2 * ZERO_BUCKET_BYTES
                + states.optimizer_states() / n
        }
        // Everything sharded + a gathered working window.
        ZeroStage::Three => {
            let window = (states.fp16_params / workload.config.layers.max(1) as u64) * 4;
            states.total() / n + window + 2 * ZERO_BUCKET_BYTES
        }
    };
    let plan = cap.plan(&rank_wl, gpu_resident)?;

    let flops = TrainingFlops::for_iteration(
        &workload.config,
        rank_batch,
        workload.seq,
        plan.checkpointing,
    );
    let compute = ComputeTimes::new(&chip.gpu, &flops, plan.micro_steps());
    let overhead = SimTime::from_secs(OP_OVERHEAD_TUNED);
    let buckets = BucketPlan::new(params, ZERO_BUCKET_BYTES, 0);
    let allgather = coll.all_gather(states.fp16_params / n.max(1));

    let mut ctx = lease.ctx();
    ctx.plan_residency(chip, gpu_resident + plan.activation_bytes, 0);
    let mut iters = IterationBuilder::new();
    for _ in 0..ITERATIONS {
        let mut iter_end: Vec<TaskId> = Vec::new();
        let mut last: Option<TaskId> = None;
        for m in 0..plan.micro_steps() {
            let mut deps: Vec<TaskId> = iters.start_deps().into_iter().chain(last).collect();
            if stage == ZeroStage::Three && ranks > 1 {
                let ag = ctx.sim.add_task(
                    TaskSpec::collective(ctx.net, allgather + overhead)
                        .with_label("allgather-fwd")
                        .after_all(deps.iter().copied()),
                )?;
                deps = vec![ag];
            }
            let fwd = ctx.forward(compute.fwd_per_micro + overhead, deps)?;
            let mut bwd_start = fwd;
            if stage == ZeroStage::Three && ranks > 1 {
                bwd_start = ctx.sim.add_task(
                    TaskSpec::collective(ctx.net, allgather + overhead)
                        .with_label("allgather-bwd")
                        .after(fwd),
                )?;
            }
            let prev_chunk = ctx.backward_chunks(
                &buckets,
                compute.bwd_per_micro,
                overhead,
                bwd_start,
                None,
                |ctx, bi, elems, chunk| {
                    if ranks > 1 && m + 1 == plan.micro_steps() {
                        let rs = ctx.reduce_scatter(
                            &coll,
                            2 * elems,
                            overhead,
                            TaskLabel::indexed("reduce-scatter", bi),
                            chunk,
                        )?;
                        iter_end.push(rs);
                    }
                    Ok(())
                },
            )?;
            last = Some(prev_chunk);
        }
        // Sharded GPU optimizer step.
        let step = ctx.sim.add_task(
            TaskSpec::compute(
                ctx.gpu,
                gpu_optimizer_time(&chip.gpu, params / n) + overhead,
            )
            .with_label("step-gpu")
            .tagged(TaskTag::OptimizerStep)
            .after_all(iter_end.iter().copied().chain(last)),
        )?;
        // ZeRO-2: all-gather updated FP16 params back to every rank.
        let gate_dep = if stage == ZeroStage::Two && ranks > 1 {
            ctx.sim.add_task(
                TaskSpec::collective(ctx.net, allgather + overhead)
                    .with_label("allgather-params")
                    .after(step),
            )?
        } else {
            step
        };
        iters.close(&mut ctx, [gate_dep])?;
    }

    let gates = iters.gates().to_vec();
    ctx.finish(system, &gates, flops.effective(), chip, plan)
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
    fn single_gpu_caps_match_ddp_scale() {
        // §5.2: Megatron and ZeRO-2/3 "do not enable training larger models
        // on a single GPU compared to PyTorch DDP".
        let c = single_chip_cluster(&presets::gh200_chip());
        assert!(simulate(&c, 1, &wl("3B", 8), ZeroStage::Two).feasible());
        assert!(!simulate(&c, 1, &wl("6B", 8), ZeroStage::Two).feasible());
        assert!(!simulate(&c, 1, &wl("6B", 8), ZeroStage::Three).feasible());
    }

    #[test]
    fn zero3_scales_further_than_zero2() {
        let c = presets::gh200_nvl2_cluster(8);
        // ZeRO-2 replicates FP16 params: bounded regardless of rank count.
        assert!(!simulate(&c, 16, &wl("25B", 128), ZeroStage::Two).feasible());
        assert!(simulate(&c, 16, &wl("25B", 128), ZeroStage::Three).feasible());
    }

    #[test]
    fn zero3_pays_allgather_throughput_tax() {
        let c = presets::gh200_nvl2_cluster(2);
        let z2 = simulate(&c, 4, &wl("10B", 16), ZeroStage::Two);
        let z3 = simulate(&c, 4, &wl("10B", 16), ZeroStage::Three);
        assert!(z2.feasible() && z3.feasible());
        assert!(
            z3.tflops <= z2.tflops * 1.05,
            "zero-3 {} should not beat zero-2 {} materially",
            z3.tflops,
            z2.tflops
        );
    }

    #[test]
    fn stage_names() {
        assert_eq!(ZeroStage::Two.name(), "zero-2");
        assert_eq!(ZeroStage::Three.name(), "zero-3");
    }
}
