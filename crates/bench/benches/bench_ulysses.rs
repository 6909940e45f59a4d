//! Fig. 12 benchmark: long-sequence schedules (Ulysses vs
//! SuperOffload-Ulysses) across sequence lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm_model::ModelConfig;
use superchip_sim::presets;
use superoffload::schedule::SuperOffloadOptions;
use superoffload::ulysses::{simulate_ulysses_traced, SequenceSystem};

fn bench_ulysses(c: &mut Criterion) {
    let cluster = presets::gh200_nvl2_cluster(4);
    let mut cfg = ModelConfig::by_name("13B").unwrap();
    cfg.max_seq = 1 << 21;
    let opts = SuperOffloadOptions::default();

    let mut group = c.benchmark_group("fig12_ulysses");
    group.sample_size(10);
    for seq_k in [32u64, 128, 1024] {
        let seq = seq_k * 1024;
        group.bench_with_input(
            BenchmarkId::new("superoffload-ulysses", seq_k),
            &seq,
            |b, &seq| {
                b.iter(|| {
                    simulate_ulysses_traced(
                        &cluster,
                        8,
                        &cfg,
                        seq,
                        SequenceSystem::SuperOffloadUlysses,
                        &opts,
                    )
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("ulysses", seq_k), &seq, |b, &seq| {
            b.iter(|| {
                simulate_ulysses_traced(&cluster, 8, &cfg, seq, SequenceSystem::Ulysses, &opts)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ulysses);
criterion_main!(benches);
