//! PyTorch DistributedDataParallel: replicated model states, GPU-only.
//!
//! Every rank holds the full 16Ψ of model states plus an all-reduce bucket
//! buffer; gradients all-reduce across ranks overlapping backward; the
//! optimizer runs on the GPU. Memory-bound by replication: the largest
//! trainable model is whatever fits 16Ψ + activations on one GPU (Fig. 13).

use llm_model::flops::TrainingFlops;
use llm_model::workload::Workload;
use superchip_sim::prelude::*;

use llm_model::memory::ModelStateMemory;
use superoffload::bucket::BucketPlan;
use superoffload::costs::{gpu_optimizer_time, ComputeTimes, OP_OVERHEAD_TUNED};
use superoffload::fleet::FleetCtx;
use superoffload::report::TrainReport;
use superoffload::system::{collapse, split_batch, Infeasible, IterationBuilder, OffloadSystem};

use crate::common::ITERATIONS;

/// DDP's default all-reduce bucket: 25 MB.
pub const DDP_BUCKET_BYTES: u64 = 25 * 1000 * 1000;

/// PyTorch DistributedDataParallel as an [`OffloadSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Ddp;

impl OffloadSystem for Ddp {
    fn name(&self) -> &str {
        "pytorch-ddp"
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

/// Simulates PyTorch DDP on `ranks` GPUs of `cluster`.
pub fn simulate(cluster: &ClusterSpec, ranks: u32, workload: &Workload) -> TrainReport {
    collapse(simulate_traced(cluster, ranks, workload), "pytorch-ddp")
}

/// Like [`simulate`], additionally returning the execution trace, or the
/// structured [`Infeasible`] reason when the workload cannot run.
pub fn simulate_traced(
    cluster: &ClusterSpec,
    ranks: u32,
    workload: &Workload,
) -> Result<(TrainReport, Trace), Infeasible> {
    let system = "pytorch-ddp";
    let lease = FleetCtx::new(cluster).lease(0)?;
    let chip = lease.chip();
    let coll = lease.collective(ranks)?;
    let params = workload.config.param_count();
    let states = ModelStateMemory::for_params(params);

    let rank_wl = split_batch(workload, ranks)?;
    let rank_batch = rank_wl.global_batch;

    // PyTorch AMP keeps FP32 parameters and FP32 gradients (autocast only
    // casts compute), so replicated residency is 4Ψ + 4Ψ + 8Ψ Adam + 2Ψ
    // FP16 autocast copies + 2Ψ flat all-reduce buffer = 20Ψ — which is
    // what caps DDP near 3.5–4B on 96 GB (Fig. 13).
    let cap = lease.capacity();
    let params_bytes = states.fp32_params; // 4Ψ
    let gpu_resident = params_bytes + params_bytes + states.optimizer_states() - states.fp32_params
        + states.fp16_params
        + states.fp16_grads
        + 2 * DDP_BUCKET_BYTES;
    let plan = cap.plan(&rank_wl, gpu_resident)?;

    let flops = TrainingFlops::for_iteration(
        &workload.config,
        rank_batch,
        workload.seq,
        plan.checkpointing,
    );
    let compute = ComputeTimes::new(&chip.gpu, &flops, plan.micro_steps());
    let overhead = SimTime::from_secs(OP_OVERHEAD_TUNED);
    let buckets = BucketPlan::new(params, DDP_BUCKET_BYTES, 0);

    let mut ctx = lease.ctx();
    ctx.plan_residency(chip, gpu_resident + plan.activation_bytes, 0);
    let mut iters = IterationBuilder::new();
    for _ in 0..ITERATIONS {
        let mut iter_end: Vec<TaskId> = Vec::new();
        let mut last: Option<TaskId> = None;
        for m in 0..plan.micro_steps() {
            let mut deps: Vec<TaskId> = iters.start_deps();
            if let Some(t) = last {
                deps.push(t);
            }
            let fwd = ctx.forward(compute.fwd_per_micro + overhead, deps)?;
            // Backward chunked by all-reduce bucket; the all-reduce of
            // bucket i overlaps the backward of bucket i+1 (DDP's
            // gradient hook design) — only on the last micro-step.
            let prev_chunk = ctx.backward_chunks(
                &buckets,
                compute.bwd_per_micro,
                overhead,
                fwd,
                None,
                |ctx, bi, elems, chunk| {
                    if ranks > 1 && m + 1 == plan.micro_steps() {
                        let ar = ctx.all_reduce(
                            &coll,
                            2 * elems,
                            overhead,
                            TaskLabel::indexed("allreduce", bi),
                            chunk,
                        )?;
                        iter_end.push(ar);
                    }
                    Ok(())
                },
            )?;
            last = Some(prev_chunk);
        }
        // GPU optimizer over the full replicated state.
        let step = ctx.sim.add_task(
            TaskSpec::compute(ctx.gpu, gpu_optimizer_time(&chip.gpu, params) + overhead)
                .with_label("step-gpu")
                .tagged(TaskTag::OptimizerStep)
                .after_all(iter_end.iter().copied().chain(last)),
        )?;
        iters.close(&mut ctx, [step])?;
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
    fn small_model_runs_fast() {
        let c = single_chip_cluster(&presets::gh200_chip());
        let r = simulate(&c, 1, &wl("3B", 8));
        assert!(r.feasible());
        assert!(r.tflops > 100.0, "tflops {}", r.tflops);
    }

    #[test]
    fn replication_caps_model_size_around_4b() {
        // Fig. 13: DDP tops out near 3.5B on a 96 GB GPU.
        let c = single_chip_cluster(&presets::gh200_chip());
        assert!(simulate(&c, 1, &wl("3B", 8)).feasible());
        assert!(!simulate(&c, 1, &wl("5B", 8)).feasible());
        assert!(!simulate(&c, 1, &wl("10B", 8)).feasible());
    }

    #[test]
    fn more_ranks_do_not_increase_model_scale() {
        let c = presets::gh200_nvl2_cluster(2);
        assert!(!simulate(&c, 4, &wl("5B", 8)).feasible());
    }

    #[test]
    fn allreduce_costs_throughput_on_slow_fabric() {
        let single = single_chip_cluster(&presets::gh200_chip());
        let multi = presets::gh200_nvl2_cluster(2);
        let one = simulate(&single, 1, &wl("3B", 8));
        let four = simulate(&multi, 4, &wl("3B", 32));
        assert!(four.feasible());
        assert!(
            four.tflops < one.tflops,
            "cross-node all-reduce should cost throughput: {} !< {}",
            four.tflops,
            one.tflops
        );
    }
}
