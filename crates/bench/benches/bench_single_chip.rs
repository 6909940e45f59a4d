//! Fig. 10 benchmark: end-to-end schedule simulation of every system on a
//! single Superchip (measures our simulator's own cost; the throughput
//! numbers themselves come from `repro -- fig10`), plus the cost of the
//! §4.3 retention search over a single pinned-retention run, plus the
//! observe path's emit / parse / diff layers on one multi-rank run.

use baselines::standard_registry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm_model::{ModelConfig, Workload};
use superchip_sim::analysis::diff_analyses;
use superchip_sim::telemetry::parse_json;
use superchip_sim::{presets, single_chip_cluster, EventLog};
use superoffload::schedule::SuperOffloadOptions;
use superoffload::{OffloadSystem, SuperOffload};
use superoffload_bench::experiments::FIG10_SYSTEMS;

fn bench_single_chip(c: &mut Criterion) {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let reg = standard_registry();
    let mut group = c.benchmark_group("fig10_single_chip");
    group.sample_size(10);
    for name in ["1B", "5B", "13B"] {
        let w = Workload::new(ModelConfig::by_name(name).unwrap(), 8, 2048);
        for sys_name in FIG10_SYSTEMS {
            let sys = reg.expect(sys_name);
            group.bench_with_input(BenchmarkId::new(sys_name, name), &w, |b, w| {
                b.iter(|| sys.simulate(&cluster, 1, w));
            });
        }
    }
    group.finish();
}

/// Automatic retention (admit every candidate on its bound, score those
/// that can win, profile the winner) against retention pinned to zero
/// buckets (one profiled run): the ratio is the search's cost
/// amplification. The CPU-bound 12B rung at batch 4 and 16 MiB buckets is
/// the regime only the bound's per-resource term prunes.
fn bench_retention_search(c: &mut Criterion) {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let mut group = c.benchmark_group("retention_search");
    group.sample_size(10);
    let rungs = [
        ("5B", "5B", 8, 64),
        ("13B", "13B", 8, 64),
        ("12B-b4-16MiB", "12B", 4, 16),
    ];
    for (rung, name, batch, bucket_mib) in rungs {
        let w = Workload::new(ModelConfig::by_name(name).unwrap(), batch, 2048);
        for (mode, retained_buckets) in [("automatic", None), ("pinned-0", Some(0))] {
            let so = SuperOffload::with_opts(SuperOffloadOptions {
                bucket_bytes: bucket_mib << 20,
                retained_buckets,
                ..SuperOffloadOptions::default()
            });
            group.bench_with_input(BenchmarkId::new(mode, rung), &w, |b, w| {
                b.iter(|| so.simulate_profiled(&cluster, 1, w));
            });
        }
    }
    group.finish();
}

/// The observe path on the 13B DeepSpeed optimizer-states run at 4 ranks
/// (two NVL2 nodes): emit its Chrome trace and event log, parse the trace
/// back, and diff the run against the 8B one.
fn bench_observe_path(c: &mut Criterion) {
    let cluster = presets::gh200_nvl2_cluster(2);
    let reg = standard_registry();
    let sys = reg.expect("deep-optimizer-states");
    let run = |name: &str| {
        let w = Workload::new(ModelConfig::by_name(name).unwrap(), 8, 2048);
        sys.simulate_profiled(&cluster, 4, &w)
            .expect("feasible at 4 ranks")
    };
    let (p13, p8) = (run("13B"), run("8B"));
    let chrome = p13.chrome_trace_json();
    let mut group = c.benchmark_group("observe_path");
    group.sample_size(10);
    group.bench_function("parse_json/chrome-trace", |b| {
        b.iter(|| parse_json(&chrome).unwrap());
    });
    group.bench_function("chrome_trace_json", |b| b.iter(|| p13.chrome_trace_json()));
    group.bench_function("EventLog::to_jsonl", |b| {
        let log = EventLog::from_trace(&p13.trace);
        b.iter(|| log.to_jsonl(&[]));
    });
    group.bench_function("diff_analyses/8B-vs-13B", |b| {
        b.iter(|| diff_analyses(&p8.trace, &p13.trace).makespan_delta_us);
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_chip,
    bench_retention_search,
    bench_observe_path
);
criterion_main!(benches);
