//! GPipe-style pipeline parallelism (background §2.2).
//!
//! The paper's background lists pipeline parallelism among the distributed
//! techniques whose GPU appetite motivates offloading; it is not part of
//! the evaluation, so this baseline rounds out the system inventory. The
//! model is split into `stages` contiguous layer groups, one per GPU; a
//! batch is cut into micro-batches that flow through the stages, filling
//! and draining the famous pipeline *bubble* — with `m` micro-batches and
//! `s` stages, the bubble wastes `(s-1)/(m+s-1)` of each GPU's time.
//! Unlike the rank-symmetric schedules elsewhere, this one simulates every
//! stage as its own GPU resource, so the bubble emerges from the task graph
//! rather than a formula (the formula is what the tests check it against).
//! Because of that asymmetric resource layout it builds its own task graph
//! instead of using [`ScheduleCtx`](superoffload::system::ScheduleCtx), but
//! it reports infeasibility through the same typed [`Infeasible`] channel.

use llm_model::flops::TrainingFlops;
use llm_model::memory::{ActivationMemory, ModelStateMemory};
use llm_model::workload::{ExecutionPlan, Workload};
use superchip_sim::prelude::*;

use superoffload::costs::{gpu_optimizer_time, ComputeTimes, OP_OVERHEAD_TUNED};
use superoffload::fleet::FleetCtx;
use superoffload::report::TrainReport;
use superoffload::schedule::finalize_report;
use superoffload::system::{Infeasible, OffloadSystem};

use crate::common::ITERATIONS;

/// Analytic bubble fraction of a GPipe schedule.
pub fn bubble_fraction(stages: u32, micro_batches: u32) -> f64 {
    assert!(stages >= 1 && micro_batches >= 1);
    (stages as f64 - 1.0) / (micro_batches as f64 + stages as f64 - 1.0)
}

/// GPipe pipeline parallelism as an [`OffloadSystem`] (`ranks` == stages).
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipeline;

impl OffloadSystem for Pipeline {
    fn name(&self) -> &str {
        "pipeline"
    }

    /// Simulates GPipe pipeline parallelism with `stages` == `ranks` GPUs.
    ///
    /// The report is per-GPU (effective FLOPs of one stage over the steady
    /// iteration), comparable with the other baselines.
    fn simulate_traced(
        &self,
        cluster: &ClusterSpec,
        stages: u32,
        workload: &Workload,
    ) -> Result<(TrainReport, Trace), Infeasible> {
        let lease = FleetCtx::new(cluster).lease(0)?;
        let chip = lease.chip();
        let params = workload.config.param_count();
        let states = ModelStateMemory::for_params(params);
        // Stage hand-offs are point-to-point (2 endpoints) over whatever link
        // the `stages`-GPU placement must cross; a single stage has no hops,
        // so its handle degenerates to one rank.
        let coll = lease.collective_spanning(stages, stages.min(2))?;

        // Memory per stage: 1/stages of the model states, plus activations for
        // the micro-batches in flight (up to `stages` of them at the steady
        // point of the pipeline).
        let cap = lease.capacity();
        let stage_states = states.total() / stages as u64;
        cap.fit_gpu(stage_states)?;
        // Choose the micro-batch: smallest unit (1 sequence) maximizes bubble
        // amortization; check that `stages` in-flight micro-activations fit.
        let micro_batches = workload.global_batch;
        let stage_cfg_act = {
            let mut cfg = workload.config.clone();
            cfg.layers = (cfg.layers / stages).max(1);
            ActivationMemory::full(&cfg, 1, workload.seq).bytes
        };
        let in_flight = stages.min(micro_batches) as u64;
        cap.fit_gpu(stage_states + stage_cfg_act * in_flight)?;
        let plan = ExecutionPlan {
            micro_batch: 1,
            accum_steps: micro_batches,
            checkpointing: false,
            activation_bytes: stage_cfg_act * in_flight,
        };

        let flops = TrainingFlops::for_iteration(
            &workload.config,
            workload.global_batch,
            workload.seq,
            false,
        );
        // Whole-model compute split per stage and per micro-batch.
        let compute = ComputeTimes::new(&chip.gpu, &flops, 1);
        let fwd_chunk = compute.fwd_per_micro / (stages * micro_batches) as f64;
        let bwd_chunk = compute.bwd_per_micro / (stages * micro_batches) as f64;
        let overhead = SimTime::from_secs(OP_OVERHEAD_TUNED);
        // Inter-stage activation hand-off per micro-batch.
        let hop_bytes = 2 * workload.seq * workload.config.hidden as u64;
        let hop = coll.link().transfer_time(hop_bytes);

        // Every stage lives in the namespace of the node hosting it, so a
        // fleet-spanning pipeline shows which side of the fabric each stage
        // and hand-off link sit on (node 0 keeps bare names).
        let chips_per_node = cluster.node.chip_count.max(1);
        let node_of = |stage: u32| stage / chips_per_node;
        let mut sim = Simulator::new();
        let gpus: Vec<_> = (0..stages)
            .map(|s| sim.add_node_resource(node_of(s), format!("gpu{s}")))
            .collect();
        let cpu = sim.add_resource("cpu");
        let links: Vec<_> = (0..stages.saturating_sub(1))
            .map(|s| sim.add_node_resource(node_of(s), format!("link{s}")))
            .collect();

        let mut gates = Vec::new();
        let mut prev_gate: Option<TaskId> = None;
        for _ in 0..ITERATIONS {
            let s = stages as usize;
            let m = micro_batches as usize;
            // fwd[stage][micro], bwd[stage][micro]
            let mut fwd = vec![vec![None::<TaskId>; m]; s];
            for micro in 0..m {
                for stage in 0..s {
                    let mut spec = TaskSpec::compute(gpus[stage], fwd_chunk + overhead)
                        .with_label(format!("fwd[s{stage},m{micro}]"));
                    if let Some(g) = prev_gate {
                        spec = spec.after(g);
                    }
                    if micro > 0 {
                        spec = spec.after(fwd[stage][micro - 1].expect("built in order"));
                    }
                    if stage > 0 {
                        let hop_task = sim.add_task(
                            TaskSpec::transfer(links[stage - 1], hop + overhead)
                                .with_label(format!("act[s{stage},m{micro}]"))
                                .after(fwd[stage - 1][micro].expect("built in order")),
                        )?;
                        spec = spec.after(hop_task);
                    }
                    fwd[stage][micro] = Some(sim.add_task(spec)?);
                }
            }
            // Backward: reverse stage order (GPipe's flush style: backward
            // starts after all forwards).
            let mut bwd = vec![vec![None::<TaskId>; m]; s];
            for micro in 0..m {
                for rstage in 0..s {
                    let stage = s - 1 - rstage;
                    let mut spec = TaskSpec::compute(gpus[stage], bwd_chunk + overhead)
                        .with_label(format!("bwd[s{stage},m{micro}]"))
                        .after(fwd[s - 1][m - 1].expect("all forwards built"));
                    if micro > 0 {
                        spec = spec.after(bwd[stage][micro - 1].expect("built in order"));
                    }
                    if stage + 1 < s {
                        let hop_task = sim.add_task(
                            TaskSpec::transfer(links[stage], hop + overhead)
                                .with_label(format!("grad[s{stage},m{micro}]"))
                                .after(bwd[stage + 1][micro].expect("built in order")),
                        )?;
                        spec = spec.after(hop_task);
                    }
                    bwd[stage][micro] = Some(sim.add_task(spec)?);
                }
            }
            // Per-stage optimizer over its parameter shard.
            let mut iter_end = Vec::new();
            for stage in 0..s {
                let step = sim.add_task(
                    TaskSpec::compute(
                        gpus[stage],
                        gpu_optimizer_time(&chip.gpu, params / stages as u64) + overhead,
                    )
                    .with_label(format!("step[s{stage}]"))
                    .tagged(TaskTag::OptimizerStep)
                    .after(bwd[stage][m - 1].expect("built in order")),
                )?;
                iter_end.push(step);
            }
            let gate = sim.add_task(
                TaskSpec::sync(gpus[0])
                    .with_label("iter-gate")
                    .after_all(iter_end),
            )?;
            prev_gate = Some(gate);
            gates.push(gate);
        }

        let trace = sim.run()?;
        // Per-GPU peak: stage 0's resident states plus its in-flight
        // activations (the static planning quantities — this builder has no
        // dynamic pool tracking).
        let peaks = vec![("hbm".to_string(), stage_states + stage_cfg_act * in_flight)];
        // Per-GPU effective FLOPs: one stage's share.
        Ok((
            finalize_report(
                self.name(),
                &trace,
                &gates,
                gpus[0],
                cpu,
                flops.effective() / stages as f64,
                chip,
                plan,
                peaks,
            ),
            trace,
        ))
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
    fn bubble_fraction_formula() {
        assert_eq!(bubble_fraction(1, 8), 0.0);
        assert!((bubble_fraction(4, 4) - 3.0 / 7.0).abs() < 1e-12);
        assert!((bubble_fraction(4, 16) - 3.0 / 19.0).abs() < 1e-12);
        // More micro-batches shrink the bubble.
        assert!(bubble_fraction(4, 64) < bubble_fraction(4, 8));
    }

    #[test]
    fn simulated_utilization_tracks_the_bubble() {
        // With s stages and m micro-batches, GPU utilization of the
        // compute phase should be roughly 1 - bubble (optimizer and hops
        // perturb it slightly).
        let cluster = presets::gh200_nvl2_cluster(2);
        let r = Pipeline.simulate(&cluster, 4, &wl("10B", 8));
        assert!(r.feasible());
        let expected = 1.0 - bubble_fraction(4, 8);
        assert!(
            (r.gpu_util - expected).abs() < 0.12,
            "gpu util {:.3} vs 1-bubble {:.3}",
            r.gpu_util,
            expected
        );
    }

    #[test]
    fn pipeline_extends_model_scale_with_stages() {
        let cluster = presets::gh200_nvl2_cluster(2);
        // 15B does not fit one GPU but fits 4 pipeline stages.
        assert!(!Pipeline
            .simulate(
                &single_chip_cluster(&presets::gh200_chip()),
                1,
                &wl("15B", 8)
            )
            .feasible());
        assert!(Pipeline.simulate(&cluster, 4, &wl("15B", 8)).feasible());
    }

    #[test]
    fn more_micro_batches_increase_throughput() {
        let cluster = presets::gh200_nvl2_cluster(2);
        let small = Pipeline.simulate(&cluster, 4, &wl("10B", 4));
        let large = Pipeline.simulate(&cluster, 4, &wl("10B", 32));
        assert!(small.feasible() && large.feasible());
        assert!(
            large.tflops > small.tflops,
            "bubble amortization failed: {} !> {}",
            large.tflops,
            small.tflops
        );
    }

    #[test]
    fn single_stage_degenerates_to_serial_training() {
        let cluster = single_chip_cluster(&presets::gh200_chip());
        let r = Pipeline.simulate(&cluster, 1, &wl("3B", 8));
        assert!(r.feasible());
        assert!(r.gpu_util > 0.9, "no bubble at one stage: {}", r.gpu_util);
    }
}
