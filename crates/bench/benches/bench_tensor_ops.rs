//! Numeric-substrate benchmark: the kernels the miniature GPT is built on
//! (matmul, softmax, layernorm, GELU, cross-entropy), plus serial-vs-parallel
//! comparisons of the pooled GEMM / attention paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use llm_model::transformer::{GptConfig, GptModel};
use tensorlite::pool::with_threads;
use tensorlite::{ops, Tensor, XorShiftRng};

fn bench_tensor_ops(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(17);

    let mut group = c.benchmark_group("matmul");
    for n in [64usize, 128, 256] {
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b_mat = Tensor::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b_mat).unwrap());
        });
    }
    group.finish();

    let rows = 256usize;
    let cols = 512usize;
    let x = Tensor::randn(&[rows, cols], 1.0, &mut rng);
    let gamma = vec![1.0f32; cols];
    let beta = vec![0.0f32; cols];
    let targets: Vec<usize> = (0..rows).map(|i| i % cols).collect();

    let mut group = c.benchmark_group("nn_kernels");
    group.throughput(Throughput::Elements((rows * cols) as u64));
    group.bench_function("softmax_rows", |b| {
        b.iter(|| ops::softmax_rows(&x).unwrap());
    });
    group.bench_function("layer_norm", |b| {
        b.iter(|| ops::layer_norm(&x, &gamma, &beta, 1e-5).unwrap());
    });
    group.bench_function("gelu", |b| {
        b.iter(|| ops::gelu(&x));
    });
    group.bench_function("cross_entropy", |b| {
        b.iter(|| ops::cross_entropy(&x, &targets).unwrap());
    });
    group.finish();
}

/// Serial (one worker) vs parallel (all workers) GEMM, plus the fused
/// transpose-free variants against their composed equivalents.
fn bench_parallel_gemm(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(23);

    let mut group = c.benchmark_group("matmul_threads");
    for n in [128usize, 256] {
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b_mat = Tensor::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |bench, _| {
            bench.iter(|| with_threads(1, || a.matmul(&b_mat).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |bench, _| {
            bench.iter(|| with_threads(0, || a.matmul(&b_mat).unwrap()));
        });
    }
    group.finish();

    let n = 192usize;
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b_mat = Tensor::randn(&[n, n], 1.0, &mut rng);
    let mut group = c.benchmark_group("fused_vs_composed");
    group.throughput(Throughput::Elements((2 * n * n * n) as u64));
    group.bench_function("at_composed", |b| {
        b.iter(|| a.transpose().unwrap().matmul(&b_mat).unwrap());
    });
    group.bench_function("at_fused", |b| {
        b.iter(|| a.matmul_at(&b_mat).unwrap());
    });
    group.bench_function("bt_composed", |b| {
        b.iter(|| a.matmul(&b_mat.transpose().unwrap()).unwrap());
    });
    group.bench_function("bt_fused", |b| {
        b.iter(|| a.matmul_bt(&b_mat).unwrap());
    });
    group.finish();
}

/// Serial vs parallel full transformer forward+backward (the per-head
/// attention fan-out plus every pooled kernel underneath it).
fn bench_parallel_attention(c: &mut Criterion) {
    let cfg = GptConfig {
        vocab: 128,
        hidden: 64,
        layers: 2,
        heads: 4,
        max_seq: 64,
    };
    let mut model = GptModel::new(cfg, 99);
    let tokens: Vec<usize> = (0..48).map(|i| (i * 7) % 128).collect();
    let targets: Vec<usize> = (0..48).map(|i| (i * 11 + 3) % 128).collect();

    let mut group = c.benchmark_group("train_step_threads");
    group.sample_size(10);
    group.throughput(Throughput::Elements(tokens.len() as u64));
    group.bench_function("serial", |b| {
        b.iter(|| {
            with_threads(1, || {
                model.zero_grads();
                let cache = model.forward(&tokens, &targets).unwrap();
                model.backward(cache).unwrap();
            })
        });
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            with_threads(0, || {
                model.zero_grads();
                let cache = model.forward(&tokens, &targets).unwrap();
                model.backward(cache).unwrap();
            })
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tensor_ops,
    bench_parallel_gemm,
    bench_parallel_attention
);
criterion_main!(benches);
