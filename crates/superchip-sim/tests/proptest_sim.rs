//! Property-based tests of the simulator's scheduling invariants.

use proptest::prelude::*;
use superchip_sim::engine::INLINE_DEPS;
use superchip_sim::prelude::*;

/// Strategy: a random DAG of up to `n` tasks over `r` resources, where each
/// task may depend only on earlier tasks (guaranteeing acyclicity, the same
/// invariant `add_task` enforces).
fn arb_dag(
    max_tasks: usize,
    resources: usize,
) -> impl Strategy<Value = Vec<(usize, f64, Vec<usize>)>> {
    prop::collection::vec(
        (
            0..resources,
            0.0f64..10.0,
            prop::collection::vec(0usize..max_tasks.max(1), 0..4),
        ),
        1..max_tasks,
    )
    .prop_map(|tasks| {
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, (res, dur, deps))| {
                let deps: Vec<usize> = deps.into_iter().filter(|&d| d < i).collect();
                (res, dur, deps)
            })
            .collect()
    })
}

/// One submitted task of [`arb_fan_in_dag`]: resource, duration (ms),
/// release time (ms, if any) and dependencies (indices of earlier tasks).
type FanInTask = (usize, f64, Option<f64>, Vec<usize>);

/// Strategy: a random DAG of up to 40 tasks over 3 resources whose fan-ins
/// cover every dependency-storage case: none, one, exactly [`INLINE_DEPS`]
/// (the most stored inline) and spilled (`INLINE_DEPS + 1` to
/// `2 * INLINE_DEPS + 1`). Dependencies are drawn with repetition from the
/// earlier tasks, so a dependency may be listed twice.
fn arb_fan_in_dag() -> impl Strategy<Value = Vec<FanInTask>> {
    prop::collection::vec(
        (
            0..3usize,
            0.0f64..10.0,
            (any::<bool>(), 0.0f64..20.0),
            (0..4usize, 0..=INLINE_DEPS),
            prop::collection::vec(0..u64::MAX, 2 * INLINE_DEPS + 1),
        ),
        1..40,
    )
    .prop_map(|tasks| {
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, (res, dur, (released, at), (class, extra), picks))| {
                let fan_in = match (i, class) {
                    (0, _) | (_, 0) => 0,
                    (_, 1) => 1,
                    (_, 2) => INLINE_DEPS,
                    _ => INLINE_DEPS + 1 + extra,
                };
                let deps = picks[..fan_in]
                    .iter()
                    .map(|&p| (p % i as u64) as usize)
                    .collect();
                (res, dur, released.then_some(at), deps)
            })
            .collect()
    })
}

fn build_and_run(
    dag: &[(usize, f64, Vec<usize>)],
    resources: usize,
) -> (Vec<TaskId>, Vec<ResourceId>, Trace) {
    let mut sim = Simulator::new();
    let rids: Vec<_> = (0..resources)
        .map(|i| sim.add_resource(format!("r{i}")))
        .collect();
    let mut ids = Vec::new();
    for (res, dur, deps) in dag {
        let mut spec = TaskSpec::compute(rids[*res], SimTime::from_millis(*dur));
        for &d in deps {
            spec = spec.after(ids[d]);
        }
        ids.push(sim.add_task(spec).unwrap());
    }
    let trace = sim.run().unwrap();
    (ids, rids, trace)
}

proptest! {
    /// Every task starts no earlier than all of its dependencies finish.
    #[test]
    fn dependencies_respected(dag in arb_dag(40, 4)) {
        let (ids, _rids, trace) = build_and_run(&dag, 4);
        for (i, (_, _, deps)) in dag.iter().enumerate() {
            let start = trace.start_time(ids[i]).unwrap();
            for &d in deps {
                let dep_end = trace.end_time(ids[d]).unwrap();
                prop_assert!(start >= dep_end, "task {i} started before dep {d} ended");
            }
        }
    }

    /// Tasks on the same resource never overlap.
    #[test]
    fn resources_are_serial(dag in arb_dag(40, 3)) {
        let (_, rids, trace) = build_and_run(&dag, 3);
        for (r, &rid) in rids.iter().enumerate() {
            let ivs = trace.intervals_on(rid);
            for w in ivs.windows(2) {
                prop_assert!(w[1].start >= w[0].end,
                    "overlap on resource {r}: [{}, {}) then [{}, {})",
                    w[0].start, w[0].end, w[1].start, w[1].end);
            }
        }
    }

    /// Makespan equals the max task end time and is at least the critical-path
    /// lower bound (sum of durations along any dependency chain).
    #[test]
    fn makespan_bounds(dag in arb_dag(30, 3)) {
        let (ids, _rids, trace) = build_and_run(&dag, 3);
        let max_end = ids.iter().map(|&id| trace.end_time(id).unwrap()).max().unwrap();
        prop_assert_eq!(trace.makespan(), max_end);

        // Critical path: longest dep chain by duration.
        let mut longest = vec![SimTime::ZERO; dag.len()];
        for (i, (_, dur, deps)) in dag.iter().enumerate() {
            let base = deps.iter().map(|&d| longest[d]).max().unwrap_or(SimTime::ZERO);
            longest[i] = base + SimTime::from_millis(*dur);
        }
        let critical = longest.iter().copied().max().unwrap_or(SimTime::ZERO);
        prop_assert!(trace.makespan() >= critical - SimTime::from_nanos(1.0));
    }

    /// Utilization is in [0, 1] and busy + idle == makespan for every resource.
    #[test]
    fn utilization_is_consistent(dag in arb_dag(30, 3)) {
        let (_, _rids, trace) = build_and_run(&dag, 3);
        for stats in trace.all_stats() {
            prop_assert!(stats.utilization >= 0.0 && stats.utilization <= 1.0 + 1e-9);
            let total = (stats.busy + stats.idle).as_secs();
            prop_assert!((total - trace.makespan().as_secs()).abs() < 1e-9);
        }
    }

    /// Simulation runs are deterministic: same DAG, same trace.
    #[test]
    fn runs_are_deterministic(dag in arb_dag(25, 3)) {
        let (ids1, _r1, t1) = build_and_run(&dag, 3);
        let (ids2, _r2, t2) = build_and_run(&dag, 3);
        prop_assert_eq!(t1.makespan(), t2.makespan());
        for (a, b) in ids1.iter().zip(&ids2) {
            prop_assert_eq!(t1.start_time(*a), t2.start_time(*b));
        }
    }

    /// The end-times-only run agrees with the traced run bit for bit, on
    /// graphs with release times and with repeated runs of one graph, and
    /// neither run consumes the graph.
    #[test]
    fn end_times_match_traced_run(
        dag in arb_dag(40, 3),
        releases in prop::collection::vec((any::<bool>(), 0.0f64..20.0), 40),
    ) {
        let mut sim = Simulator::new();
        let rids: Vec<_> = (0..3).map(|i| sim.add_resource(format!("r{i}"))).collect();
        let mut ids = Vec::new();
        for (i, (res, dur, deps)) in dag.iter().enumerate() {
            let mut spec = TaskSpec::transfer(rids[*res], SimTime::from_millis(*dur))
                .with_indexed_label("t", i as u64);
            if let (true, t) = releases[i] {
                spec = spec.not_before(SimTime::from_millis(t));
            }
            ids.push(sim.add_task(spec.after_all(deps.iter().map(|&d| ids[d]))).unwrap());
        }
        let ends = sim.run_end_times().unwrap();
        let trace = sim.run().unwrap();
        prop_assert_eq!(ends.len(), ids.len());
        for (&id, end) in ids.iter().zip(&ends) {
            prop_assert_eq!(trace.end_time(id).unwrap().as_secs().to_bits(), end.as_secs().to_bits());
        }
        let again = sim.run_end_times().unwrap();
        prop_assert!(ends.iter().zip(&again).all(|(a, b)| a.as_secs().to_bits() == b.as_secs().to_bits()));
        let mut rec = MetricsRecorder::new();
        let instrumented = sim.run_instrumented(&mut rec).unwrap();
        for iv in trace.intervals() {
            let other = instrumented.interval(iv.task).unwrap();
            prop_assert_eq!(iv.start.as_secs().to_bits(), other.start.as_secs().to_bits());
            prop_assert_eq!(iv.end.as_secs().to_bits(), other.end.as_secs().to_bits());
            prop_assert_eq!(&iv.label, &format!("t[{}]", iv.task.index()));
        }
        prop_assert_eq!(rec.counter("tasks.transfer"), ids.len() as u64);
    }

    /// A trace answers every per-task query from the graph as submitted:
    /// `deps_of` returns the dependency list in submission order at every
    /// fan-in (none, one, exactly inline, spilled), `release_time` the
    /// `not_before`, and `interval`, `start_time` and `end_time` the task's
    /// own interval, whose end is bit-identical to `run_end_times`. An
    /// unknown task has no dependencies, release time zero and no interval.
    #[test]
    fn trace_queries_agree_with_the_submitted_graph(dag in arb_fan_in_dag()) {
        let mut sim = Simulator::new();
        let rids: Vec<_> = (0..3).map(|i| sim.add_resource(format!("r{i}"))).collect();
        let mut ids: Vec<TaskId> = Vec::new();
        for (i, (res, dur, release, deps)) in dag.iter().enumerate() {
            let mut spec = TaskSpec::compute(rids[*res], SimTime::from_millis(*dur))
                .with_indexed_label("task", i as u64);
            if let Some(at) = release {
                spec = spec.not_before(SimTime::from_millis(*at));
            }
            // Half through `after`, half through `after_all`.
            spec = if i % 2 == 0 {
                deps.iter().fold(spec, |s, &d| s.after(ids[d]))
            } else {
                spec.after_all(deps.iter().map(|&d| ids[d]))
            };
            ids.push(sim.add_task(spec).unwrap());
        }
        let trace = sim.run().unwrap();
        let ends = sim.run_end_times().unwrap();
        prop_assert_eq!(trace.intervals().len(), ids.len());
        for (i, (_, _, release, deps)) in dag.iter().enumerate() {
            let id = ids[i];
            let want: Vec<TaskId> = deps.iter().map(|&d| ids[d]).collect();
            prop_assert_eq!(trace.deps_of(id), &want[..]);
            let at = release.map_or(SimTime::ZERO, SimTime::from_millis);
            prop_assert_eq!(trace.release_time(id), at);
            let iv = trace.interval(id).unwrap();
            prop_assert_eq!(iv.task, id);
            prop_assert_eq!(iv.resource, rids[dag[i].0]);
            prop_assert_eq!(&iv.label, &format!("task[{i}]"));
            prop_assert_eq!(trace.start_time(id), Some(iv.start));
            prop_assert_eq!(trace.end_time(id), Some(iv.end));
            prop_assert_eq!(iv.end.as_secs().to_bits(), ends[i].as_secs().to_bits());
            prop_assert!(iv.start >= at);
        }
        for unknown in [ids.len(), ids.len() + 1, usize::MAX] {
            let id = TaskId::from_index(unknown);
            prop_assert!(trace.deps_of(id).is_empty());
            prop_assert_eq!(trace.release_time(id), SimTime::ZERO);
            prop_assert!(trace.interval(id).is_none());
            prop_assert_eq!(trace.start_time(id), None);
            prop_assert_eq!(trace.end_time(id), None);
        }
    }

    /// An indexed label renders exactly as `format!("{base}[{i}]")`.
    #[test]
    fn indexed_label_renders_like_format(b in 0usize..4, i in 0u64..u64::MAX) {
        let base = ["", "bwd", "grad-out", "unicode µs → 终"][b];
        prop_assert_eq!(TaskLabel::indexed(base, i).to_string(), format!("{base}[{i}]"));
        prop_assert_eq!(TaskLabel::indexed(base.to_string(), i).to_string(), format!("{base}[{i}]"));
    }

    /// Bandwidth curves are monotone: bigger messages achieve >= bandwidth.
    #[test]
    fn bandwidth_monotone(peak in 1e9f64..1e12, lat in 0.0f64..1e-3,
                          a in 1u64..u32::MAX as u64, b in 1u64..u32::MAX as u64) {
        let curve = BandwidthCurve::new(peak, lat);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(curve.effective_bandwidth(lo) <= curve.effective_bandwidth(hi) + 1e-6);
        prop_assert!(curve.effective_bandwidth(hi) <= peak + 1e-6);
    }

    /// Memory pools never go negative or exceed capacity.
    #[test]
    fn memory_pool_invariants(ops in prop::collection::vec((any::<bool>(), 0u64..1000), 0..100)) {
        let mut pool = MemoryPool::new("p", 10_000);
        for (is_alloc, bytes) in ops {
            if is_alloc {
                let _ = pool.allocate(bytes);
            } else {
                let _ = pool.free(bytes);
            }
            prop_assert!(pool.allocated() <= pool.capacity());
            prop_assert_eq!(pool.allocated() + pool.available(), pool.capacity());
            prop_assert!(pool.peak() >= pool.allocated());
        }
    }
}
