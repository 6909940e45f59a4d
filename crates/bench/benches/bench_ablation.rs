//! Table 2 benchmark: the ablation ladder (each SuperOffload technique
//! toggled cumulatively) plus a bucket-size sweep for the §4.3 design
//! choice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm_model::{ModelConfig, Workload};
use superchip_sim::{presets, single_chip_cluster, MIB};
use superoffload::schedule::SuperOffloadOptions;
use superoffload::{OffloadSystem, SuperOffload};

fn bench_ablation(c: &mut Criterion) {
    let cluster = single_chip_cluster(&presets::gh200_chip());
    let w = Workload::new(ModelConfig::appendix_a_5b(), 8, 2048);
    let mut group = c.benchmark_group("table2_ablation");
    group.sample_size(10);
    let rows = [
        (
            "baseline",
            SuperOffloadOptions::ablation(false, false, false, false),
        ),
        (
            "grace_adam",
            SuperOffloadOptions::ablation(true, false, false, false),
        ),
        (
            "sac",
            SuperOffloadOptions::ablation(true, true, false, false),
        ),
        (
            "stv",
            SuperOffloadOptions::ablation(true, true, true, false),
        ),
        (
            "repartition",
            SuperOffloadOptions::ablation(true, true, true, true),
        ),
    ];
    for (name, opts) in rows {
        let so = SuperOffload::with_opts(opts);
        group.bench_function(name, |b| {
            b.iter(|| so.simulate(&cluster, 1, &w));
        });
    }
    group.finish();

    // Bucket-size ablation (the 64 MiB design point of §4.3).
    let mut group = c.benchmark_group("bucket_size_sweep");
    group.sample_size(10);
    for mb in [4u64, 16, 64, 256] {
        let so = SuperOffload::with_opts(SuperOffloadOptions {
            bucket_bytes: mb * MIB,
            ..SuperOffloadOptions::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(mb), &so, |b, so| {
            b.iter(|| so.simulate(&cluster, 1, &w));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
