//! Property-based tests of the critical-path / stall-attribution analyzer.
//!
//! Random DAGs of mixed task kinds (compute, transfer, sync gates), tags,
//! and release times are scheduled and analyzed, and the analyzer's core
//! contracts are checked on every sample:
//!
//! * critical-path length never exceeds the makespan;
//! * critical-path length is at least every resource's busy time (resource
//!   serialization is itself a path);
//! * stall-class sums partition each resource's recorded idle bit-exactly;
//! * every task on the critical path has zero slack;
//! * the versioned JSON snapshot is valid and deterministic;
//! * a diff aligns every task of both runs exactly once, in key order, with
//!   dense occurrence numbers.

use proptest::prelude::*;
use superchip_sim::prelude::*;
use superchip_sim::telemetry::validate_json;

/// One random task: `(resource, kind 0..4, duration ms, tag 0..3, deps,
/// release ms)`. Dependencies are filtered to earlier indices after the
/// fact, guaranteeing acyclicity.
type ArbTask = (usize, u8, f64, u8, Vec<usize>, f64);

fn arb_dag(max_tasks: usize, resources: usize) -> impl Strategy<Value = Vec<ArbTask>> {
    prop::collection::vec(
        (
            0..resources,
            0u8..4,
            0.0f64..8.0,
            0u8..3,
            prop::collection::vec(0usize..max_tasks.max(1), 0..4),
            0.0f64..5.0,
        ),
        1..max_tasks,
    )
    .prop_map(|tasks| {
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, (res, kind, dur, tag, deps, rel))| {
                let deps: Vec<usize> = deps.into_iter().filter(|&d| d < i).collect();
                (res, kind, dur, tag, deps, rel)
            })
            .collect()
    })
}

fn build_and_run(dag: &[ArbTask], resources: usize) -> Trace {
    build_labeled(dag, resources, &[])
}

/// Like [`build_and_run`], but task `i` is labeled `labels[i % len]`, so
/// labels repeat on a resource and the diff must number their occurrences.
fn build_labeled(dag: &[ArbTask], resources: usize, labels: &[&'static str]) -> Trace {
    let mut sim = Simulator::new();
    let rids: Vec<_> = (0..resources)
        .map(|i| sim.add_resource(format!("r{i}")))
        .collect();
    let mut ids = Vec::new();
    for (i, (res, kind, dur, tag, deps, rel)) in dag.iter().enumerate() {
        let rid = rids[*res];
        let dur = SimTime::from_millis(*dur);
        let mut spec = match kind {
            0 => TaskSpec::compute(rid, dur),
            1 => TaskSpec::transfer(rid, dur),
            2 => TaskSpec::collective(rid, dur),
            _ => TaskSpec::sync(rid),
        };
        spec = match tag {
            0 => spec,
            1 => spec.tagged(TaskTag::OptimizerStep),
            _ => spec.tagged(TaskTag::Eviction),
        };
        spec = spec.not_before(SimTime::from_millis(*rel));
        if !labels.is_empty() {
            spec = spec.with_label(labels[i % labels.len()]);
        }
        for &d in deps {
            spec = spec.after(ids[d]);
        }
        ids.push(sim.add_task(spec).unwrap());
    }
    sim.run().unwrap()
}

proptest! {
    /// The critical path is sandwiched between the longest per-resource
    /// busy time and the makespan, in exact integer microseconds.
    #[test]
    fn critical_path_is_bounded(dag in arb_dag(40, 4)) {
        let trace = build_and_run(&dag, 4);
        let report = analyze(&trace);
        prop_assert!(report.cp_len_us <= report.makespan_us,
            "cp {} > makespan {}", report.cp_len_us, report.makespan_us);
        for stalls in &report.stalls {
            prop_assert!(report.cp_len_us >= stalls.busy_us,
                "cp {} < busy {} on {}", report.cp_len_us, stalls.busy_us, stalls.name);
        }
    }

    /// Stall attribution partitions each resource's recorded idle exactly:
    /// the five class buckets sum to `idle_us`, which matches the trace's
    /// own busy/idle ledger.
    #[test]
    fn stall_classes_partition_idle(dag in arb_dag(40, 4)) {
        let trace = build_and_run(&dag, 4);
        let report = analyze(&trace);
        let mut total = 0u64;
        for (ridx, stalls) in report.stalls.iter().enumerate() {
            let sum: u64 = stalls.by_class.iter().sum();
            prop_assert_eq!(sum, stalls.idle_us, "class sum mismatch on {}", &stalls.name);
            let rid = ResourceId::from_index(ridx);
            prop_assert_eq!(stalls.idle_us, trace.idle_us(rid), "ledger mismatch on {}", &stalls.name);
            prop_assert_eq!(stalls.busy_us, trace.busy_us(rid));
            total += sum;
        }
        prop_assert_eq!(total, report.total_idle_us());
    }

    /// Every task the analyzer places on the critical path has zero slack,
    /// and the path's step durations sum to the critical-path length.
    #[test]
    fn critical_path_tasks_have_zero_slack(dag in arb_dag(30, 3)) {
        let trace = build_and_run(&dag, 3);
        let report = analyze(&trace);
        let mut step_sum = 0u64;
        for step in &report.critical_path {
            prop_assert_eq!(report.slack_us[step.task.index()], 0,
                "critical step {:?} has nonzero slack", &step.label);
            step_sum += step.dur_us;
        }
        prop_assert_eq!(step_sum, report.cp_len_us);
    }

    /// The analysis snapshot is valid JSON and byte-identical across
    /// repeated runs of the same DAG.
    #[test]
    fn snapshot_is_valid_and_deterministic(dag in arb_dag(25, 3)) {
        let t1 = build_and_run(&dag, 3);
        let t2 = build_and_run(&dag, 3);
        let j1 = analyze(&t1).to_json(&[("system", "proptest".to_string())]);
        let j2 = analyze(&t2).to_json(&[("system", "proptest".to_string())]);
        prop_assert!(validate_json(&j1).is_ok(), "invalid snapshot: {}", &j1);
        prop_assert_eq!(j1, j2);
    }

    /// What-if bounds are sane: halving one resource can never make the run
    /// slower, and the speedup bound is at least 1 for the top bottleneck.
    #[test]
    fn bottleneck_headroom_is_sane(dag in arb_dag(30, 3)) {
        let trace = build_and_run(&dag, 3);
        let report = analyze(&trace);
        for b in &report.bottlenecks {
            prop_assert!(b.speedup_bound >= 1.0 - 1e-9,
                "negative headroom {} on {}", b.speedup_bound, &b.resource);
            prop_assert!(b.critical_path_us <= report.cp_len_us);
            prop_assert!(b.cp_share >= 0.0 && b.cp_share <= 1.0 + 1e-9);
        }
    }

    /// Diff conservation: for any pair of random DAGs, every resource's
    /// aligned-task delta plus stall-class deltas sum bit-exactly to the
    /// makespan delta, and the task deltas reproduce the busy-time ledger.
    #[test]
    fn diff_conserves_makespan_delta(a in arb_dag(30, 3), b in arb_dag(30, 3)) {
        let trace_a = build_and_run(&a, 3);
        let trace_b = build_and_run(&b, 3);
        let diff = superchip_sim::diff_analyses(&trace_a, &trace_b);
        prop_assert_eq!(
            diff.makespan_delta_us,
            trace_b.makespan_us() as i64 - trace_a.makespan_us() as i64
        );
        for r in &diff.resources {
            prop_assert_eq!(r.task_delta_us, r.busy_delta_us,
                "task deltas must reproduce the busy delta on {}", &r.name);
            prop_assert_eq!(r.by_class_delta_us.iter().sum::<i64>(), r.idle_delta_us,
                "class deltas must partition the idle delta on {}", &r.name);
            prop_assert_eq!(r.busy_delta_us + r.idle_delta_us, diff.makespan_delta_us,
                "conservation violated on {}", &r.name);
        }
        // The per-task deltas also sum, over all resources, to the total
        // busy delta.
        let task_sum: i64 = diff.tasks.iter().map(|t| t.delta_us).sum();
        let busy_sum: i64 = diff.resources.iter().map(|r| r.busy_delta_us).sum();
        prop_assert_eq!(task_sum, busy_sum);
    }

    /// Diffing a DAG against itself is zero everywhere, and diffing is
    /// anti-symmetric in the makespan delta.
    #[test]
    fn diff_self_is_zero_and_antisymmetric(a in arb_dag(25, 3), b in arb_dag(25, 3)) {
        let trace_a = build_and_run(&a, 3);
        let trace_b = build_and_run(&b, 3);
        prop_assert!(superchip_sim::diff_analyses(&trace_a, &trace_a).is_zero());
        let fwd = superchip_sim::diff_analyses(&trace_a, &trace_b);
        let rev = superchip_sim::diff_analyses(&trace_b, &trace_a);
        prop_assert_eq!(fwd.makespan_delta_us, -rev.makespan_delta_us);
        for (f, r) in fwd.resources.iter().zip(&rev.resources) {
            prop_assert_eq!(&f.name, &r.name);
            prop_assert_eq!(f.busy_delta_us, -r.busy_delta_us);
            prop_assert_eq!(f.idle_delta_us, -r.idle_delta_us);
        }
    }

    /// Task alignment: the diff lists tasks strictly increasing by key,
    /// numbers each (resource, tag, label) triple's occurrences densely
    /// from 0, and carries every task of each run exactly once (with its
    /// duration); conservation holds on every resource.
    #[test]
    fn diff_aligns_every_task_once_in_key_order(a in arb_dag(30, 3), b in arb_dag(30, 3)) {
        let labels = ["fwd", "bwd", "", "fwd", "step"];
        let trace_a = build_labeled(&a, 3, &labels);
        let trace_b = build_labeled(&b, 3, &labels);
        let diff = superchip_sim::diff_analyses(&trace_a, &trace_b);
        for pair in diff.tasks.windows(2) {
            prop_assert!(pair[0].key < pair[1].key, "{} !< {}", pair[0].key, pair[1].key);
        }
        for (i, t) in diff.tasks.iter().enumerate() {
            let k = t.key;
            let first_of_triple = i == 0 || {
                let p = diff.tasks[i - 1].key;
                (p.resource, p.tag, p.label) != (k.resource, k.tag, k.label)
            };
            let expected = if first_of_triple { 0 } else { diff.tasks[i - 1].key.occurrence + 1 };
            prop_assert_eq!(k.occurrence, expected, "occurrence gap at {}", k);
        }
        for (trace, side) in [(&trace_a, 0), (&trace_b, 1)] {
            let dur_of = |t: &superchip_sim::TaskDelta| if side == 0 { t.dur_a_us } else { t.dur_b_us };
            let mut aligned: Vec<(&str, &str, &str, u64)> = diff
                .tasks
                .iter()
                .filter_map(|t| dur_of(t).map(|d| (t.key.resource, t.key.tag, t.key.label, d)))
                .collect();
            let mut ran: Vec<(&str, &str, &str, u64)> = trace
                .intervals()
                .iter()
                .map(|iv| {
                    let resource = trace.resource_names()[iv.resource.index()].as_str();
                    (resource, iv.tag.name(), iv.label.as_str(), iv.duration_us())
                })
                .collect();
            aligned.sort_unstable();
            ran.sort_unstable();
            prop_assert_eq!(aligned, ran, "run {} tasks not aligned exactly once", side);
        }
        for r in &diff.resources {
            prop_assert_eq!(r.task_delta_us, r.busy_delta_us, "on {}", &r.name);
            prop_assert_eq!(r.busy_delta_us + r.idle_delta_us, diff.makespan_delta_us,
                "conservation violated on {}", &r.name);
        }
    }
}
