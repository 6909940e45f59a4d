//! Fig. 10 benchmark: end-to-end schedule simulation of every system on a
//! single Superchip (measures our simulator's own cost; the throughput
//! numbers themselves come from `repro -- fig10`), plus the cost of the
//! §4.3 retention search over a single pinned-retention run.

use baselines::{common::single_chip_cluster, standard_registry};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm_model::{ModelConfig, Workload};
use superchip_sim::presets;
use superoffload::schedule::{simulate_single_chip_profiled, SuperOffloadOptions};
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

/// Automatic retention (score every candidate, profile the winner) against
/// retention pinned to zero buckets (one profiled run): the ratio is the
/// search's cost amplification.
fn bench_retention_search(c: &mut Criterion) {
    let chip = presets::gh200_chip();
    let mut group = c.benchmark_group("retention_search");
    group.sample_size(10);
    for name in ["5B", "13B"] {
        let w = Workload::new(ModelConfig::by_name(name).unwrap(), 8, 2048);
        for (mode, retained_buckets) in [("automatic", None), ("pinned-0", Some(0))] {
            let opts = SuperOffloadOptions {
                bucket_bytes: 64 << 20,
                retained_buckets,
                ..SuperOffloadOptions::default()
            };
            group.bench_with_input(BenchmarkId::new(mode, name), &w, |b, w| {
                b.iter(|| simulate_single_chip_profiled(&chip, w, &opts));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_single_chip, bench_retention_search);
criterion_main!(benches);
