//! PyTorch FSDP with CPU offloading.
//!
//! FSDP wraps the model into per-layer units; with `cpu_offload=True` each
//! unit's parameters live on the CPU and are copied in for forward and
//! backward, gradients are copied out, and the optimizer step runs with the
//! framework-native CPU Adam, unit by unit, **synchronously** — no
//! compute/transfer overlap, no fused optimizer, no pinned fast path. This
//! is the configuration the paper measures at under 15 TFLOPS (§5.2).

use llm_model::flops::TrainingFlops;
use llm_model::memory::ModelStateMemory;
use llm_model::workload::Workload;
use superchip_sim::prelude::*;

use superoffload::casting::CastPlacement;
use superoffload::costs::{ComputeTimes, OptimizerImpl, OP_OVERHEAD_FRAMEWORK};
use superoffload::fleet::FleetCtx;
use superoffload::report::TrainReport;
use superoffload::system::{collapse, split_batch, Infeasible, IterationBuilder, OffloadSystem};

use crate::common::ITERATIONS;

/// PyTorch FSDP with CPU offloading as an [`OffloadSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FsdpOffload;

impl OffloadSystem for FsdpOffload {
    fn name(&self) -> &str {
        "fsdp-offload"
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

/// Simulates FSDP-CPU-Offload on `ranks` GPUs.
pub fn simulate(cluster: &ClusterSpec, ranks: u32, workload: &Workload) -> TrainReport {
    collapse(simulate_traced(cluster, ranks, workload), "fsdp-offload")
}

/// Like [`simulate`], additionally returning the execution trace, or the
/// structured [`Infeasible`] reason when the workload cannot run.
pub fn simulate_traced(
    cluster: &ClusterSpec,
    ranks: u32,
    workload: &Workload,
) -> Result<(TrainReport, Trace), Infeasible> {
    let system = "fsdp-offload";
    let lease = FleetCtx::new(cluster).lease(0)?;
    let chip = lease.chip();
    let coll = lease.collective(ranks)?;
    let params = workload.config.param_count();
    let states = ModelStateMemory::for_params(params);
    let n = ranks as u64;
    let layers = workload.config.layers.max(1);

    let rank_wl = split_batch(workload, ranks)?;
    let rank_batch = rank_wl.global_batch;

    let cap = lease.capacity();
    // GPU: two units' parameters at a time (current + prefetch).
    let unit_params = params / layers as u64;
    let gpu_resident = 2 * 2 * unit_params * 2;
    cap.fit_gpu(gpu_resident)?;
    let cpu_resident = (states.total()) / n;
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
    // Everything moves through pageable host memory (FSDP CPU offload does
    // not pin its parameter storage).
    let cast = CastPlacement::CpuCastMoveFp16Pageable;
    let shard = |elems: u64| (elems / n).max(1);

    let mut ctx = lease.ctx();
    ctx.plan_residency(chip, gpu_resident + plan.activation_bytes, cpu_resident);
    let mut iters = IterationBuilder::new();
    for _ in 0..ITERATIONS {
        let mut chain: Option<TaskId> = iters.prev_gate();
        for m in 0..plan.micro_steps() {
            // Per-unit synchronous pipeline: fetch -> compute -> (bwd:
            // grad out). No overlap: each step waits for the previous.
            for l in 0..layers {
                let fetch = ctx.sim.add_task(
                    TaskSpec::transfer(
                        ctx.h2d,
                        chip.c2c.transfer_time_pageable(2 * unit_params) + overhead,
                    )
                    .with_indexed_label("unit-fetch-fwd", l)
                    .tagged(TaskTag::Eviction)
                    .after_all(chain),
                )?;
                let fwd = ctx.sim.add_task(
                    TaskSpec::compute(ctx.gpu, compute.fwd_per_micro / layers as f64 + overhead)
                        .with_indexed_label("unit-fwd", l)
                        .after(fetch),
                )?;
                chain = Some(fwd);
            }
            for l in (0..layers).rev() {
                let fetch = ctx.sim.add_task(
                    TaskSpec::transfer(
                        ctx.h2d,
                        chip.c2c.transfer_time_pageable(2 * unit_params) + overhead,
                    )
                    .with_indexed_label("unit-fetch-bwd", l)
                    .tagged(TaskTag::Eviction)
                    .after_all(chain),
                )?;
                let bwd = ctx.sim.add_task(
                    TaskSpec::compute(ctx.gpu, compute.bwd_per_micro / layers as f64 + overhead)
                        .with_indexed_label("unit-bwd", l)
                        .after(fetch),
                )?;
                let mut dep = bwd;
                if ranks > 1 && m + 1 == plan.micro_steps() {
                    dep = ctx.reduce_scatter(
                        &coll,
                        2 * unit_params,
                        overhead,
                        TaskLabel::indexed("unit-reduce", l),
                        bwd,
                    )?;
                }
                let out = ctx.sim.add_task(
                    TaskSpec::transfer(
                        ctx.d2h,
                        cast.one_way_time(chip, shard(unit_params)) + overhead,
                    )
                    .with_indexed_label("unit-grad-out", l)
                    .after(dep),
                )?;
                chain = Some(out);
            }
        }
        // Optimizer: framework-native CPU Adam, one unit at a time on a
        // single thread, fully serialized behind the backward pass.
        for l in 0..layers {
            let step = ctx.sim.add_task(
                TaskSpec::compute(
                    ctx.cpu,
                    OptimizerImpl::PtCpuSingleThread.step_time(&chip.cpu, shard(unit_params))
                        + overhead,
                )
                .with_indexed_label("unit-step", l)
                .tagged(TaskTag::OptimizerStep)
                .after_all(chain),
            )?;
            chain = Some(step);
        }
        iters.close(&mut ctx, chain)?;
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
    fn fits_large_models_but_is_very_slow() {
        // Fig. 10: FSDP-Offload consistently under ~15 TFLOPS.
        let c = single_chip_cluster(&presets::gh200_chip());
        for name in ["5B", "13B"] {
            let r = simulate(&c, 1, &wl(name, 8));
            assert!(r.feasible(), "{name} should fit");
            assert!(
                r.tflops < 30.0,
                "{name}: expected very low TFLOPS, got {}",
                r.tflops
            );
        }
    }

    #[test]
    fn slowest_of_all_offloaders() {
        let c = single_chip_cluster(&presets::gh200_chip());
        let w = wl("5B", 8);
        let fsdp = simulate(&c, 1, &w);
        let zi = crate::zero_infinity::simulate(&c, 1, &w);
        let zo = crate::zero_offload::simulate(&c, 1, &w);
        assert!(fsdp.tflops < zi.tflops);
        assert!(fsdp.tflops < zo.tflops);
    }

    #[test]
    fn gpu_mostly_idle() {
        let c = single_chip_cluster(&presets::gh200_chip());
        let r = simulate(&c, 1, &wl("5B", 8));
        assert!(r.gpu_util < 0.5, "util {}", r.gpu_util);
    }
}
