//! Deep-Optimizer-States (Middleware '24), as described in the paper's
//! related work (§2.2): "extends ZeRO-Offload by fetching optimizer states
//! from CPU to GPU and updating parameters in parallel across both devices,
//! thus reducing optimizer step time in the critical path".
//!
//! The schedule keeps ZeRO-Offload's placement (FP16 weights on GPU,
//! optimizer states on CPU, STE synchronization) but splits each optimizer
//! step: a fraction of the parameters' states are fetched to the GPU,
//! stepped there at HBM speed, and written back, concurrently with the CPU
//! stepping the remainder. The split is chosen so both sides finish
//! together.

use llm_model::flops::TrainingFlops;
use llm_model::memory::ModelStateMemory;
use llm_model::workload::Workload;
use superchip_sim::prelude::*;

use superoffload::bucket::BucketPlan;
use superoffload::casting::CastPlacement;
use superoffload::costs::{
    gpu_optimizer_time, pipeline_step_time, ComputeTimes, OptimizerImpl, OP_OVERHEAD_FRAMEWORK,
};
use superoffload::fleet::FleetCtx;
use superoffload::report::TrainReport;
use superoffload::system::{split_batch, Infeasible, IterationBuilder, OffloadSystem};

use crate::common::ITERATIONS;

/// Gradient/optimizer bucket size (matches the ZeRO-Offload baseline).
const BUCKET_BYTES: u64 = 32 * 1000 * 1000;

/// Optimizer-state bytes per parameter fetched for a GPU-side step
/// (master + momentum + variance).
const OPT_STATE_BYTES: u64 = 12;

/// Chooses the GPU's share of the optimizer step so the interleaved CPU and
/// GPU halves finish together: solve
/// `f · (fetch + step_gpu + writeback) per param = (1-f) · step_cpu per param`.
pub fn gpu_share(chip: &ChipSpec) -> f64 {
    // Per-parameter costs (seconds).
    let cpu = pipeline_step_time(OptimizerImpl::CpuAdam, &chip.cpu, 1_000_000_000).as_secs() / 1e9;
    let gpu_step = gpu_optimizer_time(&chip.gpu, 1_000_000_000).as_secs() / 1e9;
    let wire = 2.0 * OPT_STATE_BYTES as f64 / chip.c2c.peak_bandwidth();
    let gpu = gpu_step + wire;
    cpu / (cpu + gpu)
}

/// Deep-Optimizer-States as an [`OffloadSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DeepOptimizerStates;

impl OffloadSystem for DeepOptimizerStates {
    fn name(&self) -> &str {
        "deep-optimizer-states"
    }

    /// Simulates Deep-Optimizer-States on `ranks` GPUs.
    fn simulate_traced(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<(TrainReport, Trace), Infeasible> {
        let lease = FleetCtx::new(cluster).lease(0)?;
        lease.check_span(ranks)?;
        let chip = lease.chip();
        let params = workload.config.param_count();
        let states = ModelStateMemory::for_params(params);
        let n = ranks as u64;

        let rank_wl = split_batch(workload, ranks)?;
        let rank_batch = rank_wl.global_batch;

        // Same GPU replication as ZeRO-Offload, plus a staging window for the
        // optimizer states of the buckets being stepped on the GPU.
        let cap = lease.capacity();
        let staging = 4 * BUCKET_BYTES * OPT_STATE_BYTES / 4;
        let gpu_resident = states.fp16_params + states.fp16_grads + states.fp16_grads / n + staging;
        cap.fit_gpu(gpu_resident)?;
        let cpu_resident = states.optimizer_states() / n + 2 * BUCKET_BYTES;
        cap.fit_cpu(cpu_resident)?;
        let plan = cap.plan(&rank_wl, gpu_resident)?;

        let flops = TrainingFlops::for_iteration(
            &workload.config,
            rank_batch,
            workload.seq,
            plan.checkpointing,
        );
        let compute = ComputeTimes::new(&chip.gpu, &flops, plan.micro_steps());
        let overhead = SimTime::from_secs(OP_OVERHEAD_FRAMEWORK);
        let buckets = BucketPlan::new(params, BUCKET_BYTES, 0);
        let cast = CastPlacement::CpuCastMoveFp16Pageable;
        let shard = |elems: u64| (elems / n).max(1);
        let share = gpu_share(chip);

        let mut ctx = lease.ctx();
        ctx.plan_residency(chip, gpu_resident + plan.activation_bytes, cpu_resident);
        let mut iters = IterationBuilder::new();
        for _ in 0..ITERATIONS {
            let mut last: Option<TaskId> = None;
            let mut arrivals: Vec<(u32, TaskId)> = Vec::new();
            for m in 0..plan.micro_steps() {
                let deps: Vec<TaskId> = iters.start_deps().into_iter().chain(last).collect();
                let fwd = ctx.forward(compute.fwd_per_micro + overhead, deps)?;
                let prev_chunk = ctx.backward_chunks(
                    &buckets,
                    compute.bwd_per_micro,
                    overhead,
                    fwd,
                    None,
                    |ctx, bi, elems, chunk| {
                        if m + 1 == plan.micro_steps() {
                            let xfer = ctx.sim.add_task(
                                TaskSpec::transfer(
                                    ctx.d2h,
                                    cast.one_way_time(chip, shard(elems)) + overhead,
                                )
                                .with_indexed_label("grad-out", bi)
                                .after(chunk),
                            )?;
                            arrivals.push((bi, xfer));
                        }
                        Ok(())
                    },
                )?;
                last = Some(prev_chunk);
            }

            // STE global sync, as in ZeRO-Offload.
            let all: Vec<TaskId> = arrivals.iter().map(|&(_, t)| t).collect();
            let norm_sync = ctx.sim.add_task(
                TaskSpec::compute(
                    ctx.cpu,
                    SimTime::from_secs((4 * shard(params)) as f64 / chip.cpu.mem_bandwidth)
                        + overhead,
                )
                .with_label("global-norm-sync")
                .after_all(all),
            )?;

            // Interleaved optimizer: per bucket, the GPU takes `share` of the
            // elements (fetch states -> step -> write back) while the CPU
            // steps the rest.
            let mut iter_end: Vec<TaskId> = Vec::new();
            for &(bi, _) in &arrivals {
                let elems = shard(buckets.bucket_elems(bi));
                let gpu_elems = (elems as f64 * share) as u64;
                let cpu_elems = elems - gpu_elems;

                if gpu_elems > 0 {
                    let fetch = ctx.sim.add_task(
                        TaskSpec::transfer(
                            ctx.h2d,
                            chip.c2c.transfer_time(gpu_elems * OPT_STATE_BYTES) + overhead,
                        )
                        .with_indexed_label("opt-fetch", bi)
                        .tagged(TaskTag::Eviction)
                        .after(norm_sync),
                    )?;
                    let step = ctx.sim.add_task(
                        TaskSpec::compute(
                            ctx.gpu,
                            gpu_optimizer_time(&chip.gpu, gpu_elems) + overhead,
                        )
                        .with_indexed_label("step-gpu", bi)
                        .tagged(TaskTag::OptimizerStep)
                        .after(fetch),
                    )?;
                    let writeback = ctx.sim.add_task(
                        TaskSpec::transfer(
                            ctx.d2h,
                            chip.c2c.transfer_time(gpu_elems * OPT_STATE_BYTES) + overhead,
                        )
                        .with_indexed_label("opt-writeback", bi)
                        .tagged(TaskTag::Eviction)
                        .after(step),
                    )?;
                    iter_end.push(writeback);
                }
                if cpu_elems > 0 {
                    let step = ctx.sim.add_task(
                        TaskSpec::compute(
                            ctx.cpu,
                            pipeline_step_time(OptimizerImpl::CpuAdam, &chip.cpu, cpu_elems)
                                + overhead,
                        )
                        .with_indexed_label("step-cpu", bi)
                        .tagged(TaskTag::OptimizerStep)
                        .after(norm_sync),
                    )?;
                    let ret = ctx.sim.add_task(
                        TaskSpec::transfer(ctx.h2d, cast.one_way_time(chip, cpu_elems) + overhead)
                            .with_indexed_label("param-in", bi)
                            .after(step),
                    )?;
                    iter_end.push(ret);
                }
            }
            iters.close(&mut ctx, iter_end)?;
        }

        let gates = iters.gates().to_vec();
        ctx.finish(self.name(), &gates, flops.effective(), chip, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::ModelConfig;
    use superchip_sim::presets;
    use superoffload::system::SuperOffload;

    fn wl(name: &str, batch: u32) -> Workload {
        Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048)
    }

    #[test]
    fn gpu_share_is_a_meaningful_split() {
        let share = gpu_share(&presets::gh200_chip());
        assert!(
            (0.5..0.99).contains(&share),
            "GPU should take the larger share on a Superchip: {share}"
        );
        // On a PCIe machine the wire cost pushes work back to the CPU.
        let pcie = gpu_share(&presets::dgx2_chip());
        assert!(
            pcie < share,
            "PCIe share {pcie} should be below C2C share {share}"
        );
    }

    #[test]
    fn faster_than_zero_offload_slower_than_superoffload() {
        // The paper's positioning: Deep-Optimizer-States reduces optimizer
        // time in the critical path (beats ZeRO-Offload) but keeps the STE
        // synchronization (loses to SuperOffload).
        let cluster = single_chip_cluster(&presets::gh200_chip());
        let w = wl("5B", 8);
        let dos = DeepOptimizerStates.simulate(&cluster, 1, &w);
        let zo = crate::zero_offload::ZeroOffload.simulate(&cluster, 1, &w);
        let so = SuperOffload::default().simulate(&cluster, 1, &w);
        assert!(dos.feasible());
        assert!(
            dos.tflops > zo.tflops * 1.1,
            "DOS {:.1} should beat ZeRO-Offload {:.1}",
            dos.tflops,
            zo.tflops
        );
        assert!(
            dos.tflops < so.tflops,
            "DOS {:.1} should not beat SuperOffload {:.1}",
            dos.tflops,
            so.tflops
        );
    }

    #[test]
    fn same_capacity_class_as_zero_offload() {
        let cluster = single_chip_cluster(&presets::gh200_chip());
        assert!(DeepOptimizerStates
            .simulate(&cluster, 1, &wl("13B", 8))
            .feasible());
        assert!(!DeepOptimizerStates
            .simulate(&cluster, 1, &wl("20B", 8))
            .feasible());
    }
}
