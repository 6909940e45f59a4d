//! Packed GEMM microkernel benchmark: aligned vs remainder shapes for
//! all three variants (the 4×16 `mul_add` register tile has a scalar
//! tail for the last `n % 16` columns and single-row groups for the last
//! `m % 4` rows), the fused-Adam element kernel, and the bf16 storage
//! casts. CI uploads this output as an artifact so kernel regressions are
//! visible per-commit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grace_optim::adam::{AdamConfig, AdamState, AdamStepper, CpuAdam, GraceAdam};
use tensorlite::cast::{bf16_to_f32_slice, f32_to_bf16_slice};
use tensorlite::pool::with_threads;
use tensorlite::{Tensor, XorShiftRng};

/// The microkernel proper: every shape class the packed GEMM dispatches
/// to, for each variant. Aligned shapes stay inside full 4×16 tiles; the
/// remainder shapes force the scalar tail (8 and 3 columns wide) and the
/// single-row groups. `matmul_at` reads its `[k, m]` operand and
/// `matmul_bt` its `[n, k]` one, so each variant packs a different
/// layout.
fn bench_microkernel_shapes(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(31);
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("aligned_128x128x128", 128, 128, 128),
        ("row_edge_130x128x128", 130, 128, 128),
        ("tail8_128x128x136", 128, 128, 136),
        ("odd_tail_128x128x131", 128, 128, 131),
        ("all_edges_67x96x77", 67, 96, 77),
        ("skinny_k_256x8x256", 256, 8, 256),
        ("head_dim_128x128x24", 128, 128, 24),
    ];
    // (name, A stored transposed, B stored transposed, kernel)
    type Variant = (&'static str, bool, bool, fn(&Tensor, &Tensor) -> Tensor);
    let variants: [Variant; 3] = [
        ("matmul", false, false, |a, b| a.matmul(b).unwrap()),
        ("matmul_at", true, false, |a, b| a.matmul_at(b).unwrap()),
        ("matmul_bt", false, true, |a, b| a.matmul_bt(b).unwrap()),
    ];
    let mut group = c.benchmark_group("microkernel_gemm");
    for (variant, a_t, b_t, run) in variants {
        for &(name, m, k, n) in shapes {
            group.throughput(Throughput::Elements((2 * m * k * n) as u64));
            let a_shape = if a_t { [k, m] } else { [m, k] };
            let b_shape = if b_t { [n, k] } else { [k, n] };
            let a = Tensor::randn(&a_shape, 1.0, &mut rng);
            let b = Tensor::randn(&b_shape, 1.0, &mut rng);
            group.bench_function(format!("{variant}/{name}"), |bench| {
                // One worker: this measures the microkernel, not the pool.
                bench.iter(|| with_threads(1, || run(&a, &b)));
            });
        }
    }
    group.finish();
}

/// The fused-Adam element kernel (same `mul_add` chain in all three
/// implementations; GraceAdam adds tiling + the worker pool).
fn bench_adam_kernel(c: &mut Criterion) {
    let n = 1_000_000usize;
    let cfg = AdamConfig::default();
    let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.002).cos() * 0.01).collect();
    let mut group = c.benchmark_group("adam_fma_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    for (name, stepper) in [
        ("cpu_adam", &CpuAdam as &dyn AdamStepper),
        ("grace_adam", &GraceAdam::default()),
    ] {
        let mut p: Vec<f32> = (0..n).map(|i| (i as f32 * 0.001).sin()).collect();
        let mut state = AdamState::new(n);
        let mut step = 0u64;
        group.bench_function(name, |bench| {
            bench.iter(|| {
                step += 1;
                stepper.step(&cfg, step, &mut p, &g, &mut state);
            });
        });
    }
    group.finish();
}

/// bf16 storage casts: the per-boundary cost of the 2-byte parameter and
/// gradient mirrors.
fn bench_bf16_casts(c: &mut Criterion) {
    let mut group = c.benchmark_group("bf16_casts");
    for n in [4_096usize, 262_144] {
        group.throughput(Throughput::Elements(n as u64));
        let src: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let encoded = f32_to_bf16_slice(&src);
        group.bench_with_input(BenchmarkId::new("encode", n), &n, |bench, _| {
            bench.iter(|| f32_to_bf16_slice(&src));
        });
        group.bench_with_input(BenchmarkId::new("decode", n), &n, |bench, _| {
            bench.iter(|| bf16_to_f32_slice(&encoded));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_microkernel_shapes,
    bench_adam_kernel,
    bench_bf16_casts
);
criterion_main!(benches);
