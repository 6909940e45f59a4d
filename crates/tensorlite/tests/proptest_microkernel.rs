//! Property tests pinning the packed GEMM to its reference semantics.
//!
//! All three variants (`matmul`, `matmul_at`, `matmul_bt`) pack their
//! operands into k-major micro-panels and run one register-tiled
//! microkernel: a 4×16 accumulator tile, a scalar tail for the last
//! `n % 16` columns, and single-row groups for the last `m % 4` rows of
//! each worker's block, over k-tiles of 256. Each must be *exactly* — bit for bit — the
//! fused-multiply-add i-k-j loop, for every shape and thread count: the
//! packing and tiling only reorder independent output elements, never
//! the per-element ascending-k `mul_add` chain. The shape strategies
//! straddle every remainder (`n % 16` of 0, 8 and odd values, `m % 4`,
//! `k` below, at and above 256).

use proptest::prelude::*;
use tensorlite::pool::with_threads;
use tensorlite::{Tensor, XorShiftRng};

/// The fused-multiply-add i-k-j reference: one `mul_add` per k step, in
/// ascending-k order per output element — the kernel's specification.
fn fma_ikj_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.data()[i * k + kk];
            for j in 0..n {
                out[i * n + j] = av.mul_add(b.data()[kk * n + j], out[i * n + j]);
            }
        }
    }
    out
}

/// Elementwise transpose of a rank-2 tensor (independent of the library's
/// blocked `transpose`, so a fault there cannot hide one here).
fn transposed(t: &Tensor) -> Tensor {
    let (r, c) = (t.shape()[0], t.shape()[1]);
    let data = (0..c)
        .flat_map(|j| (0..r).map(move |i| (i, j)))
        .map(|(i, j)| t.data()[i * c + j])
        .collect();
    Tensor::from_vec(data, &[c, r]).unwrap()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `matmul`, `matmul_at` (on Aᵀ) and `matmul_bt` (on Bᵀ) against
/// the reference at every listed thread count.
fn check_all_variants(a: &Tensor, b: &Tensor, threads: &[usize]) {
    let expect = bits(&fma_ikj_reference(a, b));
    let (at, bt) = (transposed(a), transposed(b));
    for &t in threads {
        let (c, c_at, c_bt) = with_threads(t, || {
            (
                a.matmul(b).unwrap(),
                at.matmul_at(b).unwrap(),
                a.matmul_bt(&bt).unwrap(),
            )
        });
        assert_eq!(expect, bits(c.data()), "matmul, threads={t}");
        assert_eq!(expect, bits(c_at.data()), "matmul_at, threads={t}");
        assert_eq!(expect, bits(c_bt.data()), "matmul_bt, threads={t}");
    }
}

/// General dims across the row-group and column-tile remainders.
fn arb_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..22, 1usize..50, 1usize..80)
}

/// Dims pinned to the tile edges: `n = 16·q + r` with `r` of 0 (full
/// tiles only), 8 or odd (scalar tail, narrower or wider than half a
/// tile); `m` across `m % 4` at 1 and 2 threads' blocks;
/// `k` below, at and just above the 256-row k-tile, or over two tiles.
fn edge_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..14, 0usize..9, 0usize..4, 0usize..10).prop_map(|(m, k_pick, q, r_pick)| {
        let k = [1, 2, 7, 31, 255, 256, 257, 300, 513][k_pick];
        let r = [0, 8, 1, 3, 5, 7, 9, 11, 13, 15][r_pick];
        (m, k, (16 * q + r).max(1))
    })
}

fn randn_pair(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = XorShiftRng::new(seed.wrapping_add(1));
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every variant == fma i-k-j reference, bit for bit, serial and
    /// parallel (including more workers than rows).
    #[test]
    fn microkernel_equals_fma_ikj_reference((m, k, n) in arb_dims(), seed in 0u64..1000) {
        let (a, b) = randn_pair(m, k, n, seed);
        check_all_variants(&a, &b, &[1, 2, 7, 0]);
    }

    /// The scalar-tail, row-remainder and k-tile edge shapes
    /// hit the same reference exactly, for every variant at 1 and 2
    /// threads.
    #[test]
    fn microkernel_handles_panel_and_ktile_remainders(
        (m, k, n) in edge_dims(),
        seed in 0u64..1000,
    ) {
        let (a, b) = randn_pair(m, k, n, seed.wrapping_add(7));
        check_all_variants(&a, &b, &[1, 2]);
    }

    /// Degenerate shapes: any dimension of zero yields the (possibly
    /// empty) all-zeros product, matching the reference's vacuous loops.
    /// The zeroed axis is chosen by a selector so every case is degenerate.
    #[test]
    fn microkernel_handles_empty_dimensions(
        (zero_axis, a_dim, b_dim) in (0usize..3, 0usize..5, 0usize..5),
    ) {
        let (m, k, n) = match zero_axis {
            0 => (0, a_dim, b_dim),
            1 => (a_dim, 0, b_dim),
            _ => (a_dim, b_dim, 0),
        };
        let a = Tensor::zeros(&[m, k]);
        let b = Tensor::zeros(&[k, n]);
        prop_assert_eq!(a.matmul(&b).unwrap().shape(), &[m, n]);
        check_all_variants(&a, &b, &[1, 2]);
    }
}
