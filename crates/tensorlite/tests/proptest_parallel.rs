//! Property tests for the deterministic parallel numeric plane.
//!
//! Every pooled kernel partitions work over disjoint output rows/heads, so
//! the per-element accumulation order never changes with the worker count.
//! These tests pin that contract: for arbitrary (odd, tile-straddling)
//! shapes and thread counts {1, 2, 7, max}, every kernel must produce
//! *bit-identical* output, and the fused transpose-free GEMM variants must
//! be bit-identical to their composed transpose-then-matmul equivalents.

use proptest::prelude::*;
use tensorlite::pool::with_threads;
use tensorlite::{ops, Tensor};

/// Thread counts exercised for every kernel: serial, small, odd, and
/// `0` meaning "all hardware threads".
const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 0];

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).unwrap())
}

/// Matrix dimensions chosen to straddle the GEMM panel (64), k-tile (256)
/// and transpose tile (32) boundaries while staying fast enough for a
/// property-test loop.
fn arb_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..70, 1usize..70)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn vec_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` is bit-identical at every thread count.
    #[test]
    fn matmul_bit_identical_across_threads((m, k, n) in arb_dims(), seed in 0u64..1000) {
        let mut rng = tensorlite::XorShiftRng::new(seed + 1);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let reference = with_threads(1, || a.matmul(&b).unwrap());
        for threads in THREAD_COUNTS {
            let out = with_threads(threads, || a.matmul(&b).unwrap());
            prop_assert_eq!(bits(&reference), bits(&out), "threads={}", threads);
        }
    }

    /// `matmul_at` == `transpose().matmul()` bitwise, at every thread count.
    #[test]
    fn matmul_at_matches_composed((m, k, n) in arb_dims(), seed in 0u64..1000) {
        let mut rng = tensorlite::XorShiftRng::new(seed + 2);
        // self is [k, m] for matmul_at.
        let a = Tensor::randn(&[k, m], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let composed = with_threads(1, || a.transpose().unwrap().matmul(&b).unwrap());
        for threads in THREAD_COUNTS {
            let fused = with_threads(threads, || a.matmul_at(&b).unwrap());
            prop_assert_eq!(bits(&composed), bits(&fused), "threads={}", threads);
        }
    }

    /// `matmul_bt` == `matmul(transpose())` bitwise, at every thread count.
    #[test]
    fn matmul_bt_matches_composed((m, k, n) in arb_dims(), seed in 0u64..1000) {
        let mut rng = tensorlite::XorShiftRng::new(seed + 3);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        // other is [n, k] for matmul_bt.
        let b = Tensor::randn(&[n, k], 1.0, &mut rng);
        let composed = with_threads(1, || a.matmul(&b.transpose().unwrap()).unwrap());
        for threads in THREAD_COUNTS {
            let fused = with_threads(threads, || a.matmul_bt(&b).unwrap());
            prop_assert_eq!(bits(&composed), bits(&fused), "threads={}", threads);
        }
    }

    /// Blocked transpose round-trips exactly and matches the definition.
    #[test]
    fn transpose_blocked_is_exact((m, _k, n) in arb_dims(), seed in 0u64..1000) {
        let mut rng = tensorlite::XorShiftRng::new(seed + 4);
        let a = Tensor::randn(&[m, n], 1.0, &mut rng);
        let t = a.transpose().unwrap();
        prop_assert_eq!(t.shape(), &[n, m]);
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    a.data()[i * n + j].to_bits(),
                    t.data()[j * m + i].to_bits()
                );
            }
        }
        let back = t.transpose().unwrap();
        prop_assert_eq!(bits(&a), bits(&back));
    }

    /// Softmax forward + backward are bit-identical at every thread count.
    #[test]
    fn softmax_bit_identical_across_threads(x in arb_matrix(17, 33), dy in arb_matrix(17, 33)) {
        let (y_ref, dx_ref) = with_threads(1, || {
            let y = ops::softmax_rows(&x).unwrap();
            let dx = ops::softmax_rows_backward(&y, &dy).unwrap();
            (y, dx)
        });
        for threads in THREAD_COUNTS {
            let (y, dx) = with_threads(threads, || {
                let y = ops::softmax_rows(&x).unwrap();
                let dx = ops::softmax_rows_backward(&y, &dy).unwrap();
                (y, dx)
            });
            prop_assert_eq!(bits(&y_ref), bits(&y), "threads={}", threads);
            prop_assert_eq!(bits(&dx_ref), bits(&dx), "threads={}", threads);
        }
    }

    /// LayerNorm forward + backward (including the serial cross-row
    /// dgamma/dbeta reduction) are bit-identical at every thread count.
    #[test]
    fn layer_norm_bit_identical_across_threads(
        x in arb_matrix(13, 41),
        dy in arb_matrix(13, 41),
        gamma in prop::collection::vec(-2.0f32..2.0, 41),
        beta in prop::collection::vec(-2.0f32..2.0, 41),
    ) {
        let run = || {
            let (y, means, inv_stds) = ops::layer_norm(&x, &gamma, &beta, 1e-5).unwrap();
            let (dx, dgamma, dbeta) =
                ops::layer_norm_backward(&x, &dy, &gamma, &means, &inv_stds).unwrap();
            (y, dx, dgamma, dbeta)
        };
        let (y_ref, dx_ref, dgamma_ref, dbeta_ref) = with_threads(1, run);
        for threads in THREAD_COUNTS {
            let (y, dx, dgamma, dbeta) = with_threads(threads, run);
            prop_assert_eq!(bits(&y_ref), bits(&y), "threads={}", threads);
            prop_assert_eq!(bits(&dx_ref), bits(&dx), "threads={}", threads);
            prop_assert_eq!(vec_bits(&dgamma_ref), vec_bits(&dgamma), "threads={}", threads);
            prop_assert_eq!(vec_bits(&dbeta_ref), vec_bits(&dbeta), "threads={}", threads);
        }
    }

    /// The composed linear backward (fused GEMM variants) is bit-identical
    /// at every thread count.
    #[test]
    fn linear_backward_bit_identical_across_threads(
        x in arb_matrix(11, 19),
        w in arb_matrix(19, 23),
        dy in arb_matrix(11, 23),
    ) {
        let (dx_ref, dw_ref, db_ref) =
            with_threads(1, || ops::linear_backward(x.clone(), &w, &dy).unwrap());
        for threads in THREAD_COUNTS {
            let (dx, dw, db) =
                with_threads(threads, || ops::linear_backward(x.clone(), &w, &dy).unwrap());
            prop_assert_eq!(bits(&dx_ref), bits(&dx), "threads={}", threads);
            prop_assert_eq!(bits(&dw_ref), bits(&dw), "threads={}", threads);
            prop_assert_eq!(vec_bits(&db_ref), vec_bits(&db), "threads={}", threads);
        }
    }
}

/// GELU forward + backward are bit-identical to the scalar maps at every
/// thread count, on shapes below, exactly at, and above the element-wise
/// family threshold (where rows are partitioned over the pool).
#[test]
fn gelu_bit_identical_across_threads_and_the_threshold() {
    let threshold = tensorlite::KernelFamily::Elementwise.default_threshold();
    let mut rng = tensorlite::XorShiftRng::new(17);
    for (rows, cols) in [(3, 7), (threshold / 512, 512), (threshold / 512 + 5, 512)] {
        let x = Tensor::randn(&[rows, cols], 2.0, &mut rng);
        let dy = Tensor::randn(&[rows, cols], 1.0, &mut rng);
        let y_ref = x.map(ops::gelu_scalar);
        let dx_ref = x.zip_map(&dy, |xv, dyv| dyv * ops::gelu_grad_scalar(xv));
        for threads in THREAD_COUNTS {
            let (y, dx) = with_threads(threads, || {
                (ops::gelu(&x), ops::gelu_backward(&x, dy.clone()).unwrap())
            });
            assert_eq!(bits(&y_ref), bits(&y), "{rows}x{cols} threads={threads}");
            assert_eq!(bits(&dx_ref), bits(&dx), "{rows}x{cols} threads={threads}");
        }
    }
}

/// The branch of the `tanh` port (and of the `expm1` under it) that GELU's
/// argument `C (x + 0.044715 x^3)` takes, computed with the same `f32`
/// operations as `ops::gelu_scalar`.
fn tanh_branch(x: f32) -> &'static str {
    let inner = 0.797_884_6 * (x + 0.044715 * x * x * x);
    let a = inner.abs();
    if !a.is_finite() {
        return "inf-or-nan";
    }
    if a < f32::from_bits(0x2400_0000) {
        return "tiny";
    }
    if a >= 22.0 {
        return "saturated";
    }
    // tanh calls expm1(2|u|) for |u| >= 1 and expm1(-2|u|) below.
    let arg = if a >= 1.0 { 2.0 * a } else { -2.0 * a };
    let hx = arg.to_bits() & 0x7fff_ffff;
    if hx < 0x3300_0000 {
        return "|u|<1, expm1 tiny";
    }
    if hx <= 0x3eb1_7218 {
        return "|u|<1, k=0";
    }
    if hx < 0x3f85_1592 {
        // Only negative arguments land here, so k = 1 is unreachable.
        return "|u|<1, k=-1";
    }
    let k = (f32::from_bits(0x3fb8_aa3b) * arg + 0.5f32.copysign(arg)).trunc();
    match k {
        k if k <= -2.0 => "|u|<1, k<=-2",
        k if k <= 22.0 => "1<=|u|<22, 2<=k<=22",
        k if k <= 56.0 => "1<=|u|<22, 23<=k<=56",
        _ => "1<=|u|<22, k>56",
    }
}

/// The GELU kernels' vectorized bodies and scalar tails agree bit for bit
/// with the scalar functions, on lengths around the vector width and on
/// inputs that reach every branch of the `tanh` port. Positive `expm1`
/// arguments from `tanh` are at least 2, so its k = 1 branch and k = 2 are
/// never reached here (the `tensorlite` unit tests pin them).
#[test]
fn gelu_vector_body_and_tail_match_the_scalar_maps() {
    let mut values = Vec::new();
    for v in [
        0.0,
        1e-20,
        1e-9,
        0.1,
        0.4,
        1.0,
        1.5,
        3.0,
        5.0,
        6.5,
        7.5,
        8.0,
        100.0,
        f32::INFINITY,
        f32::NAN,
    ] {
        values.extend([v, -v]);
    }
    let covered: std::collections::BTreeSet<_> = values.iter().map(|&v| tanh_branch(v)).collect();
    assert_eq!(
        covered.len(),
        10,
        "every tanh/expm1 branch reached: {covered:?}"
    );

    // Calls through a pointer the optimizer cannot see through, so the
    // reference is the scalar code, not another vectorized loop.
    let gelu_scalar: fn(f32) -> f32 = std::hint::black_box(ops::gelu_scalar);
    let gelu_grad_scalar: fn(f32) -> f32 = std::hint::black_box(ops::gelu_grad_scalar);
    for len in [1, 7, 8, 9, 15, 16, 17, 33] {
        for rotation in 0..values.len() {
            let xs: Vec<f32> = (0..len)
                .map(|i| values[(i + rotation) % values.len()])
                .collect();
            let dys: Vec<f32> = (0..len).map(|i| 0.75 - 0.125 * i as f32).collect();
            let want_y: Vec<u32> = xs.iter().map(|&v| gelu_scalar(v).to_bits()).collect();
            let want_dx: Vec<u32> = xs
                .iter()
                .zip(&dys)
                .map(|(&v, &dy)| (dy * gelu_grad_scalar(v)).to_bits())
                .collect();
            let x = Tensor::from_vec(xs, &[len]).unwrap();
            let dy = Tensor::from_vec(dys, &[len]).unwrap();
            for threads in [1, 2] {
                let (y, dx) = with_threads(threads, || {
                    (ops::gelu(&x), ops::gelu_backward(&x, dy.clone()).unwrap())
                });
                assert_eq!(
                    bits(&y),
                    want_y,
                    "gelu len={len} rot={rotation} t={threads}"
                );
                assert_eq!(
                    bits(&dx),
                    want_dx,
                    "gelu' len={len} rot={rotation} t={threads}"
                );
            }
        }
    }
}
