//! SuperOffload-Ulysses: long-sequence training (§4.7, Fig. 12).
//!
//! Ulysses sequence parallelism partitions the input along the sequence
//! dimension across `ranks` GPUs and exchanges attention inputs/outputs with
//! all-to-all collectives. Its ceiling is GPU memory: model states are fixed
//! (2Ψ + 2Ψ + 12Ψ sharded or not), so activation space runs out as sequences
//! grow. SuperOffload-Ulysses applies the weight-flow policy — optimizer
//! state and most weights live in CPU memory — freeing the GPU for
//! activations and reaching ~8× longer sequences.

use llm_model::flops::TrainingFlops;
use llm_model::memory::ModelStateMemory;
use llm_model::workload::Workload;
use llm_model::ModelConfig;
use superchip_sim::prelude::*;

use crate::casting::CastPlacement;
use crate::costs::{pipeline_step_time, ComputeTimes, OptimizerImpl};
use crate::fleet::FleetCtx;
use crate::report::TrainReport;
use crate::schedule::SuperOffloadOptions;
use crate::system::{Infeasible, IterationBuilder};

/// Which long-sequence system to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceSystem {
    /// Vanilla DeepSpeed-Ulysses (model states on GPU, ZeRO-3 sharded).
    Ulysses,
    /// Ulysses + SuperOffload weight-flow offloading.
    SuperOffloadUlysses,
}

impl SequenceSystem {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SequenceSystem::Ulysses => "ulysses",
            SequenceSystem::SuperOffloadUlysses => "superoffload-ulysses",
        }
    }
}

/// Simulates one training iteration of `system` on `ranks` Superchips with
/// total sequence length `seq` (micro-batch of one sequence, as in the
/// paper's long-context experiments). Returns the report and execution
/// trace, or the structured [`Infeasible`] reason when the sequence cannot
/// run.
pub fn simulate_ulysses_traced(
    cluster: &ClusterSpec,
    ranks: u32,
    config: &ModelConfig,
    seq: u64,
    system: SequenceSystem,
    opts: &SuperOffloadOptions,
) -> Result<(TrainReport, Trace), Infeasible> {
    let lease = FleetCtx::new(cluster).lease(0)?;
    let chip = lease.chip();
    let coll = lease.collective(ranks)?;
    let params = config.param_count();
    let states = ModelStateMemory::for_params(params);

    // Each rank holds seq/ranks tokens.
    let local_seq = (seq / ranks as u64).max(1);
    let local_wl = Workload::new(config.clone(), 1, local_seq);

    // --- Memory ------------------------------------------------------------
    let cap = lease.capacity();
    let staging = 4 * opts.bucket_bytes;

    let (gpu_resident, cpu_resident) = match system {
        SequenceSystem::Ulysses => {
            // DeepSpeed-Ulysses runs with ZeRO-1/2: FP16 parameters and
            // gradients replicated on every GPU ("the fixed GPU memory
            // consumption of model states"), optimizer state sharded.
            let resident =
                states.fp16_params + states.fp16_grads + states.optimizer_states() / ranks as u64;
            (resident, 0u64)
        }
        SequenceSystem::SuperOffloadUlysses => {
            // Weight-flow: one layer-group of FP16 weights resident at a
            // time; everything else on the CPU.
            let window = (states.fp16_params / config.layers.max(1) as u64) * 4;
            let cpu = 12 * params / ranks as u64 + states.fp16_params + staging;
            (window + staging, cpu)
        }
    };
    cap.fit_gpu(gpu_resident)?;
    cap.fit_cpu(cpu_resident)?;
    let plan = cap.plan(&local_wl, gpu_resident)?;

    // --- Costs --------------------------------------------------------------
    // Per-rank compute: full model FLOPs over the local tokens, with the
    // attention term using the *global* sequence (each token attends to the
    // whole prefix).
    let flops_global = TrainingFlops::for_iteration(config, 1, seq, plan.checkpointing);
    let per_rank = TrainingFlops {
        forward: flops_global.forward / ranks as f64,
        backward: flops_global.backward / ranks as f64,
        recompute: flops_global.recompute / ranks as f64,
    };
    let compute = ComputeTimes::new(&chip.gpu, &per_rank, 1);
    let overhead = SimTime::from_secs(opts.op_overhead_secs);

    // Ulysses all-to-all: Q, K, V out and O back per layer, fwd and bwd:
    // 8 all-to-alls of local_seq · hidden · 2 bytes per layer.
    let a2a_bytes = 2 * local_seq * config.hidden as u64;
    let a2a_per_layer = coll.all_to_all(a2a_bytes) * 8.0;
    let comm_total = a2a_per_layer * config.layers as f64;

    // Weight streaming (SuperOffload-Ulysses): 2Ψ per pass, twice.
    let stream_bytes = match system {
        SequenceSystem::Ulysses => 0,
        SequenceSystem::SuperOffloadUlysses => states.fp16_params,
    };

    // Optimizer: Ulysses steps sharded states on GPU; SuperOffload-Ulysses
    // steps on the CPU (overlapped via STV).
    let shard = params / ranks as u64;

    // --- Graph ---------------------------------------------------------------
    let mut ctx = lease.ctx();
    ctx.plan_residency(chip, gpu_resident + plan.activation_bytes, cpu_resident);

    let mut iters = IterationBuilder::new();
    for _ in 0..opts.iterations {
        let deps: Vec<TaskId> = iters.start_deps();
        let mut fwd_deps = deps.clone();
        if stream_bytes > 0 {
            let fetch = ctx.sim.add_task(
                TaskSpec::transfer(ctx.h2d, chip.c2c.transfer_time(stream_bytes) + overhead)
                    .with_label("weight-fetch-fwd")
                    .tagged(TaskTag::Eviction)
                    .after_all(deps.iter().copied()),
            )?;
            fwd_deps.push(fetch);
        }
        // Attention all-to-alls overlap layer compute only partially;
        // model as alternating compute/comm halves: comm serializes on
        // the fabric, compute on the GPU, linked per layer pair.
        let half_layers = 2u32;
        let fwd_chunk = compute.fwd_per_micro / half_layers as f64;
        let comm_chunk = comm_total / (2.0 * half_layers as f64); // fwd half of comm
        let mut prev = None;
        for i in 0..half_layers {
            let mut spec = TaskSpec::compute(ctx.gpu, fwd_chunk + overhead)
                .with_indexed_label("fwd", i)
                .after_all(fwd_deps.iter().copied());
            if let Some(p) = prev {
                spec = spec.after(p);
            }
            let c = ctx.sim.add_task(spec)?;
            let a2a = ctx.sim.add_task(
                TaskSpec::collective(ctx.net, comm_chunk + overhead)
                    .with_indexed_label("all2all-fwd", i)
                    .after(c),
            )?;
            prev = Some(a2a);
        }
        let mut bwd_deps: Vec<TaskId> = prev.into_iter().collect();
        if stream_bytes > 0 {
            let fetch = ctx.sim.add_task(
                TaskSpec::transfer(ctx.h2d, chip.c2c.transfer_time(stream_bytes) + overhead)
                    .with_label("weight-fetch-bwd")
                    .tagged(TaskTag::Eviction)
                    .after_all(bwd_deps.iter().copied()),
            )?;
            bwd_deps.push(fetch);
        }
        let bwd_chunk = compute.bwd_per_micro / half_layers as f64;
        for i in 0..half_layers {
            let mut spec = TaskSpec::compute(ctx.gpu, bwd_chunk + overhead)
                .with_indexed_label("bwd", i)
                .after_all(bwd_deps.iter().copied());
            if let Some(p) = prev {
                spec = spec.after(p);
            }
            let c = ctx.sim.add_task(spec)?;
            let a2a = ctx.sim.add_task(
                TaskSpec::collective(ctx.net, comm_chunk + overhead)
                    .with_indexed_label("all2all-bwd", i)
                    .after(c),
            )?;
            prev = Some(a2a);
        }
        let bwd_done = prev.expect("at least one layer half");

        // Gradient reduce-scatter across the SP group (gradients are
        // summed over sequence shards).
        let rs = ctx.reduce_scatter(
            &coll,
            states.fp16_grads,
            overhead,
            "grad-reduce-scatter",
            bwd_done,
        )?;

        let gate_dep = match system {
            SequenceSystem::Ulysses => {
                // GPU-resident sharded optimizer step.
                ctx.sim.add_task(
                    TaskSpec::compute(
                        ctx.gpu,
                        crate::costs::gpu_optimizer_time(&chip.gpu, shard) + overhead,
                    )
                    .with_label("step-gpu")
                    .tagged(TaskTag::OptimizerStep)
                    .after(rs),
                )?
            }
            SequenceSystem::SuperOffloadUlysses => {
                let out = ctx.sim.add_task(
                    TaskSpec::transfer(
                        ctx.d2h,
                        CastPlacement::GpuCastMoveFp32.one_way_time(chip, shard) + overhead,
                    )
                    .with_label("grad-out")
                    .after(rs),
                )?;
                let step = ctx.sim.add_task(
                    TaskSpec::compute(
                        ctx.cpu,
                        pipeline_step_time(OptimizerImpl::GraceAdam, &chip.cpu, shard) + overhead,
                    )
                    .with_label("step-cpu")
                    .tagged(TaskTag::OptimizerStep)
                    .after(out),
                )?;
                ctx.sim.add_task(
                    TaskSpec::transfer(
                        ctx.h2d,
                        CastPlacement::GpuCastMoveFp32.one_way_time(chip, shard) + overhead,
                    )
                    .with_label("param-in")
                    .after(step),
                )?
            }
        };

        iters.close(&mut ctx, [gate_dep])?;
    }

    let gates = iters.gates().to_vec();
    ctx.finish(system.name(), &gates, per_rank.effective(), chip, plan)
}

/// Largest power-of-two sequence length (in multiples of 1024) `system` can
/// train, up to `ceiling` tokens.
pub fn max_sequence_length(
    cluster: &ClusterSpec,
    ranks: u32,
    config: &ModelConfig,
    system: SequenceSystem,
    ceiling: u64,
    opts: &SuperOffloadOptions,
) -> Option<u64> {
    let mut best = None;
    let mut seq = 1024u64;
    while seq <= ceiling {
        if simulate_ulysses_traced(cluster, ranks, config, seq, system, opts).is_ok() {
            best = Some(seq);
        }
        seq *= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use superchip_sim::presets;

    fn cfg_13b() -> ModelConfig {
        let mut c = ModelConfig::by_name("13B").unwrap();
        c.max_seq = 1 << 21; // allow long positions
        c
    }

    fn cluster() -> ClusterSpec {
        presets::gh200_nvl2_cluster(4)
    }

    #[test]
    fn superoffload_ulysses_reaches_much_longer_sequences() {
        // Fig. 12: SuperOffload-Ulysses trains ~8× longer sequences.
        let opts = SuperOffloadOptions::default();
        let c = cluster();
        let cfg = cfg_13b();
        let vanilla =
            max_sequence_length(&c, 8, &cfg, SequenceSystem::Ulysses, 1 << 21, &opts).unwrap();
        let ours = max_sequence_length(
            &c,
            8,
            &cfg,
            SequenceSystem::SuperOffloadUlysses,
            1 << 21,
            &opts,
        )
        .unwrap();
        let ratio = ours as f64 / vanilla as f64;
        assert!(ratio >= 4.0, "only {ratio}× longer ({vanilla} -> {ours})");
    }

    #[test]
    fn million_tokens_on_eight_chips() {
        // Fig. 12 headline: 13B at 1M tokens on 8 GH200.
        let (r, _) = simulate_ulysses_traced(
            &cluster(),
            8,
            &cfg_13b(),
            1 << 20,
            SequenceSystem::SuperOffloadUlysses,
            &SuperOffloadOptions::default(),
        )
        .expect("13B @ 1M tokens should fit on 8 chips");
        assert!(r.mfu > 0.3, "MFU {}", r.mfu);
    }

    #[test]
    fn mfu_advantage_at_shared_lengths() {
        // Where vanilla Ulysses still fits, SuperOffload-Ulysses matches or
        // beats its MFU (it avoids activation checkpointing longer).
        let opts = SuperOffloadOptions::default();
        let c = cluster();
        let cfg = cfg_13b();
        let seq = 32 * 1024;
        let run = |system| {
            simulate_ulysses_traced(&c, 8, &cfg, seq, system, &opts)
                .unwrap()
                .0
        };
        let vanilla = run(SequenceSystem::Ulysses);
        let ours = run(SequenceSystem::SuperOffloadUlysses);
        assert!(
            ours.mfu >= vanilla.mfu * 0.9,
            "ours {} vs vanilla {}",
            ours.mfu,
            vanilla.mfu
        );
    }

    #[test]
    fn more_ranks_extend_reach() {
        let opts = SuperOffloadOptions::default();
        let c = cluster();
        let cfg = cfg_13b();
        let four = max_sequence_length(
            &c,
            4,
            &cfg,
            SequenceSystem::SuperOffloadUlysses,
            1 << 21,
            &opts,
        );
        let eight = max_sequence_length(
            &c,
            8,
            &cfg,
            SequenceSystem::SuperOffloadUlysses,
            1 << 21,
            &opts,
        );
        assert!(eight.unwrap_or(0) >= four.unwrap_or(0));
    }

    #[test]
    fn system_names() {
        assert_eq!(SequenceSystem::Ulysses.name(), "ulysses");
        assert_eq!(
            SequenceSystem::SuperOffloadUlysses.name(),
            "superoffload-ulysses"
        );
    }
}
