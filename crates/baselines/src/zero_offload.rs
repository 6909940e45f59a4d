//! ZeRO-Offload: ZeRO-2 plus a synchronous CPU optimizer.
//!
//! The PCIe-era design the paper revisits (§3): FP16 weights stationary on
//! the GPU, gradients bucketized to the CPU during backward, optimizer
//! states and the Adam step on the CPU, updated FP16 parameters returned
//! before the next forward. Three structural costs show up on a Superchip:
//!
//! 1. **STE**: the CPU waits for *all* gradients (global norm / NaN check)
//!    before any optimizer work starts (Fig. 3).
//! 2. The next forward waits for *all* updated parameters to return.
//! 3. Casting on the CPU with FP16 moves uses the pageable staging path.

use llm_model::flops::TrainingFlops;
use llm_model::memory::ModelStateMemory;
use llm_model::workload::Workload;
use superchip_sim::prelude::*;

use superoffload::bucket::BucketPlan;
use superoffload::casting::CastPlacement;
use superoffload::costs::{pipeline_step_time, ComputeTimes, OptimizerImpl, OP_OVERHEAD_FRAMEWORK};
use superoffload::fleet::FleetCtx;
use superoffload::report::TrainReport;
use superoffload::system::{split_batch, Infeasible, IterationBuilder, OffloadSystem};

use crate::common::ITERATIONS;

/// ZeRO-Offload's gradient bucket (DeepSpeed default ~2 × 10^8 elements is
/// far larger than C2C-optimal; the effective transfer unit after slicing is
/// modest — we use 32 MB).
const OFFLOAD_BUCKET_BYTES: u64 = 32 * 1000 * 1000;

/// ZeRO-Offload as an [`OffloadSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroOffload;

impl OffloadSystem for ZeroOffload {
    fn name(&self) -> &str {
        "zero-offload"
    }

    /// Simulates ZeRO-Offload on `ranks` GPUs (ZeRO-2 sharding across ranks,
    /// each rank offloading its shard's optimizer to its local CPU).
    fn simulate_traced(
        &self,
        cluster: &ClusterSpec,
        ranks: u32,
        workload: &Workload,
    ) -> Result<(TrainReport, Trace), Infeasible> {
        let lease = FleetCtx::new(cluster).lease(0)?;
        let chip = lease.chip();
        let coll = lease.collective(ranks)?;
        let params = workload.config.param_count();
        let states = ModelStateMemory::for_params(params);
        let n = ranks as u64;

        let rank_wl = split_batch(workload, ranks)?;
        let rank_batch = rank_wl.global_batch;

        let cap = lease.capacity();
        // Full FP16 params + full FP16 grads + the contiguous reduce buffer
        // (partitioned across ranks) — the 6Ψ replication that caps
        // ZeRO-Offload near 13-15B on 96 GB regardless of rank count.
        let gpu_resident = states.fp16_params
            + states.fp16_grads
            + states.fp16_grads / n
            + 2 * OFFLOAD_BUCKET_BYTES;
        cap.fit_gpu(gpu_resident)?;
        let cpu_resident = states.optimizer_states() / n + 2 * OFFLOAD_BUCKET_BYTES;
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
        let buckets = BucketPlan::new(params, OFFLOAD_BUCKET_BYTES, 0);
        // The conventional design the paper measures (§4.5): FP16 moves that
        // stage through an unpinned temporary buffer before the CPU-side cast.
        let cast = CastPlacement::CpuCastMoveFp16Pageable;
        let shard = |elems: u64| (elems / n).max(1);

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
                            let mut dep = chunk;
                            if ranks > 1 {
                                dep = ctx.reduce_scatter(
                                    &coll,
                                    2 * elems,
                                    overhead,
                                    TaskLabel::indexed("reduce-scatter", bi),
                                    chunk,
                                )?;
                            }
                            let xfer = ctx.sim.add_task(
                                TaskSpec::transfer(
                                    ctx.d2h,
                                    cast.one_way_time(chip, shard(elems)) + overhead,
                                )
                                .with_indexed_label("grad-out", bi)
                                .after(dep),
                            )?;
                            arrivals.push((bi, xfer));
                        }
                        Ok(())
                    },
                )?;
                last = Some(prev_chunk);
            }

            // STE: global gradient norm + NaN/Inf check over the full shard
            // before any optimizer step may start (Fig. 3's gray block).
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

            let mut iter_end: Vec<TaskId> = Vec::new();
            for &(bi, _) in &arrivals {
                let elems = shard(buckets.bucket_elems(bi));
                let step = ctx.sim.add_task(
                    TaskSpec::compute(
                        ctx.cpu,
                        pipeline_step_time(OptimizerImpl::CpuAdam, &chip.cpu, elems)
                            + cast.fused_optimizer_overhead(chip, elems)
                            + overhead,
                    )
                    .with_indexed_label("step-cpu", bi)
                    .tagged(TaskTag::OptimizerStep)
                    .after(norm_sync),
                )?;
                let ret = ctx.sim.add_task(
                    TaskSpec::transfer(ctx.h2d, cast.one_way_time(chip, elems) + overhead)
                        .with_indexed_label("param-in", bi)
                        .after(step),
                )?;
                iter_end.push(ret);
            }
            // ZeRO-2: all-gather updated params across ranks.
            let gate_dep: Vec<TaskId> = if ranks > 1 {
                vec![ctx.sim.add_task(
                    TaskSpec::collective(
                        ctx.net,
                        coll.all_gather(states.fp16_params / n) + overhead,
                    )
                    .with_label("allgather-params")
                    .after_all(iter_end),
                )?]
            } else {
                iter_end
            };
            iters.close(&mut ctx, gate_dep)?;
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
    fn offloading_extends_scale_past_ddp() {
        let c = single_chip_cluster(&presets::gh200_chip());
        // Fig. 13: ZeRO-Offload handles ~15B on one 96 GB GPU.
        assert!(ZeroOffload.simulate(&c, 1, &wl("13B", 8)).feasible());
        assert!(!ZeroOffload.simulate(&c, 1, &wl("20B", 8)).feasible());
    }

    #[test]
    fn replicated_params_cap_scale_even_with_more_ranks() {
        // Fig. 13: ZeRO-Offload is bounded (~20B) regardless of rank count
        // because every GPU holds the full FP16 copy.
        let c = presets::gh200_nvl2_cluster(8);
        assert!(!ZeroOffload.simulate(&c, 16, &wl("25B", 128)).feasible());
    }

    #[test]
    fn gpu_idles_heavily() {
        // Fig. 4: 40–50% GPU idle per iteration.
        let c = single_chip_cluster(&presets::gh200_chip());
        let r = ZeroOffload.simulate(&c, 1, &wl("13B", 8));
        assert!(r.feasible());
        assert!(
            r.gpu_util < 0.75,
            "ZeRO-Offload should idle the GPU, util {}",
            r.gpu_util
        );
    }

    #[test]
    fn superoffload_is_about_twice_as_fast() {
        // Fig. 10: SuperOffload ≈ 2× (up to 2.5×) over ZeRO-Offload.
        let c = single_chip_cluster(&presets::gh200_chip());
        let w = wl("5B", 8);
        let zo = ZeroOffload.simulate(&c, 1, &w);
        let so = SuperOffload::default().simulate(&c, 1, &w);
        assert!(zo.feasible() && so.feasible());
        let speedup = so.tflops / zo.tflops;
        assert!(
            (1.5..3.5).contains(&speedup),
            "speedup {speedup} (so {} vs zo {})",
            so.tflops,
            zo.tflops
        );
    }
}
