//! Fig. 14 / §4.4 benchmark: real training-step latency of the STV engine
//! vs the synchronous reference (both run the same numerics; STV overlaps
//! speculative optimizer work with validation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::engine::{Discipline, Engine, EngineConfig};

fn model() -> GptModel {
    GptModel::new(
        GptConfig {
            vocab: 128,
            hidden: 64,
            layers: 4,
            heads: 4,
            max_seq: 64,
        },
        99,
    )
}

fn bench_stv(c: &mut Criterion) {
    let mut group = c.benchmark_group("stv_vs_sync_train_step");
    group.sample_size(10);
    for buckets in [2usize, 8] {
        let cfg = EngineConfig {
            buckets,
            ..EngineConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("stv", buckets), &cfg, |b, cfg| {
            let mut engine = Engine::new(Discipline::Stv, model(), 1, *cfg);
            let mut pile = SyntheticPile::new(128, 3);
            b.iter(|| {
                let batch = pile.next_batch(2, 48);
                engine.train_step(&batch).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("sync", buckets), &cfg, |b, cfg| {
            let mut engine = Engine::new(Discipline::Sync, model(), 1, *cfg);
            let mut pile = SyntheticPile::new(128, 3);
            b.iter(|| {
                let batch = pile.next_batch(2, 48);
                engine.train_step(&batch).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stv);
criterion_main!(benches);
