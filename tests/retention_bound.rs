//! The bound behind the pruned §4.3 retention search, and its winner rule.
//!
//! The search admits each candidate retention with an upper bound on its
//! steady-state TFLOPS, taken from `Simulator::end_lower_bound` on a
//! one-iteration graph, and scores only candidates whose bound can beat
//! the best score so far. It returns the profile-everything answer only if
//! (a) the engine bound never exceeds a simulated end time, (b) every
//! admitted bound covers its candidate's score, and (c) the winner rule
//! picks the first maximum in ascending retention. Each has a test here.

use llm_model::{ModelConfig, Workload};
use proptest::prelude::*;
use superchip_sim::prelude::*;
use superchip_sim::presets;
use superoffload::casting::CastPlacement;
use superoffload::costs::OptimizerImpl;
use superoffload::schedule::{
    admit_fixed, retention_candidates, select_retention, simulate_single_chip_profiled,
    SuperOffloadOptions, BOUND_SLACK,
};
use superoffload::system::{Infeasible, OffloadSystem, SuperOffload};

/// Strategy: a random DAG of up to `max_tasks` tasks over `resources`
/// resources, each task `(resource, duration, release, deps)` depending
/// only on the few tasks just before it, so chains are long and resources
/// shared along them. Durations and release times are multiples of
/// 1/8 s, so every sum is exact and the bound can be compared with no
/// rounding slack.
#[allow(clippy::type_complexity)]
fn arb_dag(
    max_tasks: usize,
    resources: usize,
) -> impl Strategy<Value = Vec<(usize, u32, Option<u32>, Vec<usize>)>> {
    prop::collection::vec(
        (
            0..resources,
            0u32..80,
            (any::<bool>(), 0u32..200),
            prop::collection::vec(1usize..6, 0..4),
        ),
        1..max_tasks,
    )
    .prop_map(|tasks| {
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, (res, dur, (released, at), back))| {
                let deps = back.into_iter().filter_map(|b| i.checked_sub(b)).collect();
                (res, dur, released.then_some(at), deps)
            })
            .collect()
    })
}

fn eighths(k: u32) -> SimTime {
    SimTime::from_secs(f64::from(k) / 8.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `end_lower_bound(t)` never exceeds the simulated end of `t`, for
    /// every task of random DAGs with release times and shared resources.
    #[test]
    fn end_lower_bound_never_exceeds_simulated_end(dag in arb_dag(40, 3)) {
        let mut sim = Simulator::new();
        let rids: Vec<_> = (0..3).map(|i| sim.add_resource(format!("r{i}"))).collect();
        let mut ids = Vec::new();
        for (res, dur, release, deps) in &dag {
            let mut spec = TaskSpec::compute(rids[*res], eighths(*dur))
                .after_all(deps.iter().map(|&d| ids[d]));
            if let Some(at) = release {
                spec = spec.not_before(eighths(*at));
            }
            ids.push(sim.add_task(spec).unwrap());
        }
        let ends = sim.run_end_times().unwrap();
        for (&id, &end) in ids.iter().zip(&ends) {
            let bound = sim.end_lower_bound(id).unwrap();
            prop_assert!(bound <= end, "task {}: bound {bound} > end {end}", id.index());
        }
        prop_assert_eq!(sim.end_lower_bound(TaskId::from_index(ids.len())), None);
    }

    /// The winner rule equals "first maximum in ascending n", whatever
    /// order the bounds visit the candidates in, with exact score ties,
    /// bounds equal to their scores and failed candidates; and it never
    /// scores a candidate whose bound cannot reach the incumbent.
    #[test]
    fn select_retention_is_first_maximum_in_ascending_n(
        cands in prop::collection::vec((0u32..6, 0u32..3, any::<bool>()), 1..12),
    ) {
        // Candidate i has retention 3 * i (ascending, distinct), a score
        // from a six-value set (so ties are common), a bound of score +
        // {0, 0, 1} steps (so it often equals the score), or no score.
        let grid: Vec<(u32, Option<f64>, f64)> = cands
            .iter()
            .enumerate()
            .map(|(i, &(s, slack, ok))| {
                let score = 100.0 + 7.5 * f64::from(s);
                let bound = score + 7.5 * f64::from(slack.saturating_sub(1));
                (3 * i as u32, ok.then_some(score), bound)
            })
            .collect();
        let mut want: Option<(u32, f64)> = None;
        for &(n, score, _) in &grid {
            if let Some(s) = score {
                if want.is_none_or(|(_, b)| s > b) {
                    want = Some((n, s));
                }
            }
        }
        let mut incumbent: Option<f64> = None;
        let got = select_retention(grid.iter().map(|&(n, _, b)| (n, b)).collect(), |n| {
            let &(_, score, bound) = grid.iter().find(|c| c.0 == n).unwrap();
            assert!(
                incumbent.is_none_or(|i| bound >= i * (1.0 - BOUND_SLACK)),
                "scored n={n} with bound {bound} below incumbent {incumbent:?}"
            );
            let s = score?;
            incumbent = Some(incumbent.map_or(s, |i| i.max(s)));
            Some((s, n))
        });
        prop_assert_eq!(got, want.map(|(n, s)| (n, s, n)));
    }
}

/// Every feasible candidate's admitted bound is at least its profiled
/// score × (1 − `BOUND_SLACK`), over the three cast placements, both CPU
/// optimizers, STV and STE, with and without gradient accumulation, at 3
/// and 6 iterations.
#[test]
fn admitted_bound_covers_every_candidate_score() {
    let chip = presets::gh200_chip();
    // 2B at batch 8 runs one micro-step; at batch 64 it accumulates.
    let workloads = [8, 64].map(|b| Workload::new(ModelConfig::by_name("2B").unwrap(), b, 2048));
    let casts = [
        CastPlacement::GpuCastMoveFp32,
        CastPlacement::CpuCastMoveFp16Pageable,
        CastPlacement::CpuCastMoveFp16Fused,
    ];
    let mut accumulated = false;
    for w in &workloads {
        for cast in casts {
            for optimizer in [OptimizerImpl::GraceAdam, OptimizerImpl::CpuAdam] {
                for use_stv in [true, false] {
                    for iterations in [3, 6] {
                        let opts = SuperOffloadOptions {
                            bucket_bytes: 256 << 20,
                            cast: Some(cast),
                            optimizer,
                            use_stv,
                            iterations,
                            ..SuperOffloadOptions::default()
                        };
                        for n in retention_candidates(&chip, w, &opts) {
                            let pinned = SuperOffloadOptions {
                                retained_buckets: Some(n),
                                ..opts
                            };
                            let label = format!(
                                "b{} {cast:?} {optimizer:?} stv={use_stv} x{iterations} n={n}",
                                w.global_batch
                            );
                            let bound = admit_fixed(&chip, w, &pinned);
                            match simulate_single_chip_profiled(&chip, w, &pinned) {
                                Ok(p) => {
                                    accumulated |= p.report.plan.unwrap().accum_steps > 1;
                                    let bound = bound.expect("feasible candidate is admitted");
                                    assert!(
                                        bound >= p.report.tflops * (1.0 - BOUND_SLACK),
                                        "{label}: bound {bound} < score {}",
                                        p.report.tflops
                                    );
                                }
                                Err(e) => assert_eq!(bound, Err(e), "{label}: admission"),
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(accumulated, "the grid covers gradient accumulation");
}

/// Fewer than two iterations is a typed `Infeasible`, not a panic, at one
/// rank (pinned and searched retention) and through ZeRO-DP at two.
#[test]
fn too_few_iterations_is_infeasible() {
    let chip = presets::gh200_chip();
    let cluster = presets::gh200_nvl2_cluster(1);
    let w = Workload::new(ModelConfig::by_name("1B").unwrap(), 8, 2048);
    for iterations in [0, 1] {
        for retained_buckets in [None, Some(0)] {
            let opts = SuperOffloadOptions {
                iterations,
                retained_buckets,
                ..SuperOffloadOptions::default()
            };
            let want = Err(Infeasible::TooFewIterations { iterations });
            assert_eq!(
                simulate_single_chip_profiled(&chip, &w, &opts).map(|p| p.report),
                want.clone(),
                "1 rank, retention {retained_buckets:?}"
            );
            assert_eq!(
                SuperOffload::with_opts(opts)
                    .simulate_traced(&cluster, 2, &w)
                    .map(|(r, _)| r),
                want,
                "2 ranks, retention {retained_buckets:?}"
            );
        }
    }
}
