//! Neural-network kernels with exact backward passes.
//!
//! Each forward kernel has a matching `*_backward` that computes the exact
//! analytic gradient, verified against finite differences in the test suite.
//! These kernels are composed by `llm-model` into a real GPT-style model.

use crate::counters::OpKind;
use crate::error::TensorError;
use crate::math;
use crate::pool::{KernelFamily, Pool};
use crate::recorder;
use crate::tensor::{Tensor, TensorView};

/// Row-wise softmax of a rank-2 tensor (numerically stabilized).
///
/// Rows are independent, so the work is partitioned over disjoint blocks
/// of output rows on the shared worker pool; results are bit-identical to
/// serial execution at any thread count.
///
/// # Errors
/// Returns [`TensorError::BadRank`] for non-matrices.
pub fn softmax_rows(x: &Tensor) -> Result<Tensor, TensorError> {
    ensure_rank2(x, "softmax_rows")?;
    let (m, n) = (x.shape()[0], x.shape()[1]);
    let _kernel = recorder::kernel(
        OpKind::Softmax,
        m * n,
        5 * (m * n) as u64,
        2 * (m * n) as u64,
    );
    let mut out = vec![0.0f32; m * n];
    let pool = Pool::current().limit_for_family(KernelFamily::Softmax, m * n * 8);
    pool.par_row_chunks(&mut out, n, |first_row, block| {
        for (r, out_row) in block.chunks_mut(n).enumerate() {
            let i = first_row + r;
            let row = &x.data()[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &v) in out_row.iter_mut().zip(row) {
                let e = (v - max).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in out_row.iter_mut() {
                *o *= inv;
            }
        }
    });
    Tensor::from_vec(out, &[m, n])
}

/// Backward of row-wise softmax: given `y = softmax(x)` and upstream `dy`,
/// returns `dx = y ⊙ (dy − rowsum(dy ⊙ y))`.
///
/// # Errors
/// Returns [`TensorError`] on rank or shape mismatch.
pub fn softmax_rows_backward(y: &Tensor, dy: &Tensor) -> Result<Tensor, TensorError> {
    ensure_rank2(y, "softmax_rows_backward")?;
    ensure_same_shape(y, dy, "softmax_rows_backward")?;
    let (m, n) = (y.shape()[0], y.shape()[1]);
    let _kernel = recorder::kernel(
        OpKind::SoftmaxBackward,
        m * n,
        4 * (m * n) as u64,
        3 * (m * n) as u64,
    );
    let mut out = vec![0.0f32; m * n];
    let pool = Pool::current().limit_for_family(KernelFamily::Softmax, m * n * 4);
    pool.par_row_chunks(&mut out, n, |first_row, block| {
        for (r, out_row) in block.chunks_mut(n).enumerate() {
            let i = first_row + r;
            let yr = &y.data()[i * n..(i + 1) * n];
            let dyr = &dy.data()[i * n..(i + 1) * n];
            // Fused multiply-add row reduction (one rounding per step),
            // shared by the serial and parallel paths.
            let mut dot = 0.0f32;
            for (&a, &b) in yr.iter().zip(dyr) {
                dot = a.mul_add(b, dot);
            }
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = yr[j] * (dyr[j] - dot);
            }
        }
    });
    Tensor::from_vec(out, &[m, n])
}

/// Per-row layer normalization with learned scale `gamma` and shift `beta`.
///
/// Returns `(output, mean, inv_std)` where the statistics are cached for the
/// backward pass.
///
/// # Errors
/// Returns [`TensorError`] on rank mismatch or parameter-length mismatch.
pub fn layer_norm(
    x: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> Result<(Tensor, Vec<f32>, Vec<f32>), TensorError> {
    ensure_rank2(x, "layer_norm")?;
    let (m, n) = (x.shape()[0], x.shape()[1]);
    ensure_param_len(gamma, n, "layer_norm gamma")?;
    ensure_param_len(beta, n, "layer_norm beta")?;
    let _kernel = recorder::kernel(
        OpKind::LayerNorm,
        m * n,
        8 * (m * n) as u64,
        (2 * m * n + 2 * n + 2 * m) as u64,
    );
    let mut out = vec![0.0f32; m * n];
    let mut means = vec![0.0f32; m];
    let mut inv_stds = vec![0.0f32; m];
    // Partition the rows (and the per-row statistic vectors alongside them)
    // into disjoint blocks, one per worker: bit-identical at any thread
    // count because rows are independent.
    let pool = Pool::current().limit_for_family(KernelFamily::LayerNorm, m * n * 6);
    let parts = split_row_parts(&mut out, &mut means, &mut inv_stds, n, pool.threads());
    pool.run_parts(parts, |_, (first_row, block, mean_s, inv_s)| {
        for (r, out_row) in block.chunks_mut(n).enumerate() {
            let i = first_row + r;
            let row = &x.data()[i * n..(i + 1) * n];
            let mean = row.iter().sum::<f32>() / n as f32;
            // Fused multiply-add accumulations and affine epilogue (one
            // rounding per step), shared by serial and parallel paths.
            let mut sq = 0.0f32;
            for &v in row {
                let d = v - mean;
                sq = d.mul_add(d, sq);
            }
            let var = sq / n as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            mean_s[r] = mean;
            inv_s[r] = inv_std;
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = ((row[j] - mean) * inv_std).mul_add(gamma[j], beta[j]);
            }
        }
    });
    Ok((Tensor::from_vec(out, &[m, n])?, means, inv_stds))
}

/// Splits a `[rows, n]` buffer plus two per-row statistic vectors into
/// matching contiguous row blocks, one per worker thread.
type RowPart<'a> = (usize, &'a mut [f32], &'a mut [f32], &'a mut [f32]);

fn split_row_parts<'a>(
    out: &'a mut [f32],
    means: &'a mut [f32],
    inv_stds: &'a mut [f32],
    n: usize,
    threads: usize,
) -> Vec<RowPart<'a>> {
    let rows = means.len();
    let t = threads.min(rows).max(1);
    let rows_per = rows.div_ceil(t);
    let mut parts: Vec<RowPart<'a>> = Vec::with_capacity(t);
    let (mut o_rest, mut m_rest, mut s_rest) = (out, means, inv_stds);
    let mut start = 0;
    while !m_rest.is_empty() {
        let take = rows_per.min(rows - start);
        let (o_head, o_tail) = o_rest.split_at_mut(take * n);
        let (m_head, m_tail) = m_rest.split_at_mut(take);
        let (s_head, s_tail) = s_rest.split_at_mut(take);
        parts.push((start, o_head, m_head, s_head));
        o_rest = o_tail;
        m_rest = m_tail;
        s_rest = s_tail;
        start += take;
    }
    parts
}

/// Backward of [`layer_norm`]: returns `(dx, dgamma, dbeta)`.
///
/// # Errors
/// Returns [`TensorError`] on rank or shape mismatch.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_backward(
    x: &Tensor,
    dy: &Tensor,
    gamma: &[f32],
    means: &[f32],
    inv_stds: &[f32],
) -> Result<(Tensor, Vec<f32>, Vec<f32>), TensorError> {
    ensure_rank2(x, "layer_norm_backward")?;
    ensure_same_shape(x, dy, "layer_norm_backward")?;
    let (m, n) = (x.shape()[0], x.shape()[1]);
    ensure_param_len(gamma, n, "layer_norm_backward gamma")?;
    let _kernel = recorder::kernel(
        OpKind::LayerNormBackward,
        m * n,
        16 * (m * n) as u64,
        (3 * m * n + 3 * n + 2 * m) as u64,
    );
    let mut dx = vec![0.0f32; m * n];
    let mut dgamma = vec![0.0f32; n];
    let mut dbeta = vec![0.0f32; n];
    // dx rows are independent — parallel over disjoint row blocks.
    let pool = Pool::current().limit_for_family(KernelFamily::LayerNorm, m * n * 10);
    pool.par_row_chunks(&mut dx, n, |first_row, block| {
        for (r, dx_row) in block.chunks_mut(n).enumerate() {
            let i = first_row + r;
            let xr = &x.data()[i * n..(i + 1) * n];
            let dyr = &dy.data()[i * n..(i + 1) * n];
            let (mean, inv_std) = (means[i], inv_stds[i]);
            // xhat = (x - mean) * inv_std ; dy_hat = dy * gamma
            // (fused multiply-add reductions, one rounding per step).
            let mut sum_dyhat = 0.0f32;
            let mut sum_dyhat_xhat = 0.0f32;
            for j in 0..n {
                let xhat = (xr[j] - mean) * inv_std;
                let dyhat = dyr[j] * gamma[j];
                sum_dyhat += dyhat;
                sum_dyhat_xhat = dyhat.mul_add(xhat, sum_dyhat_xhat);
            }
            let inv_n = 1.0 / n as f32;
            for (j, o) in dx_row.iter_mut().enumerate() {
                let xhat = (xr[j] - mean) * inv_std;
                let dyhat = dyr[j] * gamma[j];
                *o = inv_std * (dyhat - inv_n * sum_dyhat - xhat * inv_n * sum_dyhat_xhat);
            }
        }
    });
    // dgamma/dbeta reduce *across* rows: keep that accumulation serial and
    // row-ascending so the result does not depend on how many workers the
    // dx pass used (a per-thread partial reduction would reassociate the
    // float sums).
    #[allow(clippy::needless_range_loop)]
    for i in 0..m {
        let xr = &x.data()[i * n..(i + 1) * n];
        let dyr = &dy.data()[i * n..(i + 1) * n];
        let (mean, inv_std) = (means[i], inv_stds[i]);
        for j in 0..n {
            let xhat = (xr[j] - mean) * inv_std;
            dgamma[j] = dyr[j].mul_add(xhat, dgamma[j]);
            dbeta[j] += dyr[j];
        }
    }
    Ok((Tensor::from_vec(dx, &[m, n])?, dgamma, dbeta))
}

/// The pool an element-wise kernel over `len` elements runs on: the
/// caller's pool at or above the [`KernelFamily::Elementwise`] threshold,
/// one thread below it.
fn elementwise_pool(len: usize) -> Pool {
    Pool::current().limit_for_family(KernelFamily::Elementwise, len)
}

/// Runs `fill(block, start)` over disjoint row blocks of `out` on
/// [`elementwise_pool`], `start` being the block's flat offset. Every
/// element is computed on its own, so results are bit-identical at any
/// thread count.
fn par_elementwise(out: &mut Tensor, fill: impl Fn(&mut [f32], usize) + Sync) {
    let row_len = out.shape().last().copied().unwrap_or(1);
    let pool = elementwise_pool(out.len());
    pool.par_row_chunks(out.data_mut(), row_len, |first_row, block| {
        fill(block, first_row * row_len)
    });
}

/// GELU activation (tanh approximation, as used by GPT-2/3).
///
/// Rows are partitioned over the pool once the tensor reaches the
/// [`KernelFamily::Elementwise`] threshold.
pub fn gelu(x: &Tensor) -> Tensor {
    let _kernel = recorder::kernel(
        OpKind::Gelu,
        x.len(),
        10 * x.len() as u64,
        2 * x.len() as u64,
    );
    let mut out = Tensor::zeros(x.shape());
    par_elementwise(&mut out, |block, start| {
        for (o, &xv) in block.iter_mut().zip(&x.data()[start..]) {
            *o = gelu_scalar(xv);
        }
    });
    out
}

/// Backward of [`gelu`]: `dx = dy ⊙ gelu'(x)`, written over the upstream
/// gradient `dy` in place and partitioned like [`gelu`].
///
/// # Errors
/// Returns [`TensorError::IncompatibleShapes`] on shape mismatch.
pub fn gelu_backward(x: &Tensor, mut dy: Tensor) -> Result<Tensor, TensorError> {
    ensure_same_shape(x, &dy, "gelu_backward")?;
    let len = x.len();
    let _kernel = recorder::kernel(OpKind::GeluBackward, len, 20 * len as u64, 3 * len as u64);
    par_elementwise(&mut dy, |block, start| {
        for (d, &xv) in block.iter_mut().zip(&x.data()[start..]) {
            *d *= gelu_grad_scalar(xv);
        }
    });
    Ok(dy)
}

/// Scalar GELU (tanh approximation).
///
/// Its `tanh` is the crate's branch-free port of fdlibm's `tanhf`, bit for
/// bit the same as `f32::tanh` on a glibc host, so the [`gelu`] loop
/// vectorizes and its bits do not depend on the host's libm.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + math::tanh(C * (x + 0.044715 * x * x * x)))
}

/// Scalar GELU derivative (tanh approximation), with the same `tanh` as
/// [`gelu_scalar`].
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = math::tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Mean cross-entropy loss of row-wise logits against integer targets,
/// returning `(loss, dlogits)` with the gradient already averaged over rows.
///
/// # Errors
/// Returns [`TensorError`] on rank mismatch or an out-of-range target.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> Result<(f32, Tensor), TensorError> {
    ensure_rank2(logits, "cross_entropy")?;
    let (m, n) = (logits.shape()[0], logits.shape()[1]);
    if targets.len() != m {
        return Err(TensorError::IncompatibleShapes {
            left: vec![m, n],
            right: vec![targets.len()],
            op: "cross_entropy",
        });
    }
    if let Some(&t) = targets.iter().find(|&&t| t >= n) {
        return Err(TensorError::IndexOutOfBounds { index: t, len: n });
    }
    let probs = softmax_rows(logits)?;
    // The hook runs after the internal softmax, which recorded itself, so
    // the two spans never overlap; this is the loss/grad epilogue.
    let elems = m * n;
    let _kernel = recorder::kernel(
        OpKind::CrossEntropy,
        elems,
        3 * elems as u64,
        2 * elems as u64,
    );
    let mut loss = 0.0f64;
    // The probabilities become the gradient in their own buffer.
    let mut grad = probs.into_vec();
    let inv_m = 1.0 / m as f32;
    for (i, &t) in targets.iter().enumerate() {
        let g = &mut grad[i * n + t];
        loss -= (g.max(1e-30) as f64).ln();
        *g -= 1.0;
    }
    for g in &mut grad {
        *g *= inv_m;
    }
    Ok(((loss / m as f64) as f32, Tensor::from_vec(grad, &[m, n])?))
}

/// `x @ w + b` for rank-2 `x` (rows are tokens) — the linear layer forward.
/// The weight `w` is borrowed as in [`Tensor::matmul`].
///
/// # Errors
/// Returns [`TensorError`] on rank/shape mismatch.
pub fn linear<'w>(
    x: &Tensor,
    w: impl Into<TensorView<'w>>,
    b: &[f32],
) -> Result<Tensor, TensorError> {
    let mut y = x.matmul(w)?;
    let n = y.shape()[1];
    ensure_param_len(b, n, "linear bias")?;
    for row in y.data_mut().chunks_mut(n) {
        for (v, &bias) in row.iter_mut().zip(b) {
            *v += bias;
        }
    }
    Ok(y)
}

/// Backward of [`linear`]: returns `(dx, dw, db)`, with `w` borrowed as
/// in [`linear`]. It consumes the layer's saved input `x`: `dw` is taken
/// first and `x` dropped before `dx` is allocated, so the two are never
/// live together.
///
/// # Errors
/// Returns [`TensorError`] on rank/shape mismatch.
pub fn linear_backward<'w>(
    x: Tensor,
    w: impl Into<TensorView<'w>>,
    dy: &Tensor,
) -> Result<(Tensor, Tensor, Vec<f32>), TensorError> {
    let dw = x.matmul_at(dy)?;
    drop(x);
    let dx = dy.matmul_bt(w)?;
    let n = dy.shape()[1];
    let mut db = vec![0.0f32; n];
    for row in dy.data().chunks(n) {
        for (d, &v) in db.iter_mut().zip(row) {
            *d += v;
        }
    }
    Ok((dx, dw, db))
}

fn ensure_rank2(x: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if x.rank() != 2 {
        return Err(TensorError::BadRank {
            expected: 2,
            actual: x.rank(),
            op,
        });
    }
    Ok(())
}

fn ensure_same_shape(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::IncompatibleShapes {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op,
        });
    }
    Ok(())
}

fn ensure_param_len(p: &[f32], n: usize, what: &'static str) -> Result<(), TensorError> {
    if p.len() != n {
        return Err(TensorError::IncompatibleShapes {
            left: vec![p.len()],
            right: vec![n],
            op: what,
        });
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    const EPS: f32 = 1e-3;
    const TOL: f32 = 2e-2;

    /// Central finite difference of a scalar function of one tensor entry.
    fn finite_diff(f: impl Fn(&Tensor) -> f32, x: &Tensor, idx: usize) -> f32 {
        let mut xp = x.clone();
        xp.data_mut()[idx] += EPS;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= EPS;
        (f(&xp) - f(&xm)) / (2.0 * EPS)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = XorShiftRng::new(1);
        let x = Tensor::randn(&[4, 7], 2.0, &mut rng);
        let y = softmax_rows(&x).unwrap();
        for i in 0..4 {
            let s: f32 = y.row(i).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(i).unwrap().iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y1 = softmax_rows(&x).unwrap();
        let y2 = softmax_rows(&x.map(|v| v + 100.0)).unwrap();
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let x = Tensor::from_vec(vec![1e4, 0.0], &[1, 2]).unwrap();
        let y = softmax_rows(&x).unwrap();
        assert!(y.all_finite());
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_backward_matches_finite_diff() {
        let mut rng = XorShiftRng::new(3);
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let dy = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let y = softmax_rows(&x).unwrap();
        let dx = softmax_rows_backward(&y, &dy).unwrap();
        // Scalar objective: sum(softmax(x) * dy)
        let f = |t: &Tensor| -> f32 {
            let y = softmax_rows(t).unwrap();
            y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
        };
        for idx in 0..x.len() {
            let num = finite_diff(f, &x, idx);
            assert!(
                (num - dx.data()[idx]).abs() < TOL,
                "idx {idx}: numeric {num} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let mut rng = XorShiftRng::new(4);
        let x = Tensor::randn(&[3, 64], 5.0, &mut rng);
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.0f32; 64];
        let (y, _, _) = layer_norm(&x, &gamma, &beta, 1e-5).unwrap();
        for i in 0..3 {
            let row = y.row(i).unwrap();
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layer_norm_backward_matches_finite_diff() {
        let mut rng = XorShiftRng::new(5);
        let x = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let gamma: Vec<f32> = (0..6).map(|i| 0.5 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..6).map(|i| 0.1 * i as f32).collect();
        let dy = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let (_, means, inv_stds) = layer_norm(&x, &gamma, &beta, 1e-5).unwrap();
        let (dx, dgamma, dbeta) = layer_norm_backward(&x, &dy, &gamma, &means, &inv_stds).unwrap();

        let f = |t: &Tensor| -> f32 {
            let (y, _, _) = layer_norm(t, &gamma, &beta, 1e-5).unwrap();
            y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
        };
        for idx in 0..x.len() {
            let num = finite_diff(f, &x, idx);
            assert!(
                (num - dx.data()[idx]).abs() < TOL,
                "dx[{idx}]: {num} vs {}",
                dx.data()[idx]
            );
        }
        // dgamma via finite difference on gamma.
        for j in 0..6 {
            let mut gp = gamma.clone();
            gp[j] += EPS;
            let mut gm = gamma.clone();
            gm[j] -= EPS;
            let fp: f32 = {
                let (y, _, _) = layer_norm(&x, &gp, &beta, 1e-5).unwrap();
                y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
            };
            let fm: f32 = {
                let (y, _, _) = layer_norm(&x, &gm, &beta, 1e-5).unwrap();
                y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
            };
            let num = (fp - fm) / (2.0 * EPS);
            assert!((num - dgamma[j]).abs() < TOL, "dgamma[{j}]");
        }
        // dbeta is just the column sum of dy.
        for j in 0..6 {
            let col: f32 = (0..2).map(|i| dy.data()[i * 6 + j]).sum();
            assert!((col - dbeta[j]).abs() < 1e-5);
        }
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive ~ identity; large negative ~ 0.
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_backward_matches_finite_diff() {
        let mut rng = XorShiftRng::new(6);
        let x = Tensor::randn(&[1, 10], 1.5, &mut rng);
        let dy = Tensor::ones(&[1, 10]);
        let dx = gelu_backward(&x, dy).unwrap();
        for idx in 0..x.len() {
            let num = finite_diff(|t| gelu(t).sum() as f32, &x, idx);
            assert!((num - dx.data()[idx]).abs() < TOL, "idx {idx}");
        }
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_n() {
        let logits = Tensor::zeros(&[2, 8]);
        let (loss, _) = cross_entropy(&logits, &[0, 5]).unwrap();
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_diff() {
        let mut rng = XorShiftRng::new(7);
        let logits = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let targets = [1usize, 4, 0];
        let (_, grad) = cross_entropy(&logits, &targets).unwrap();
        for idx in 0..logits.len() {
            let num = finite_diff(|t| cross_entropy(t, &targets).unwrap().0, &logits, idx);
            assert!(
                (num - grad.data()[idx]).abs() < TOL,
                "idx {idx}: {num} vs {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_targets() {
        let logits = Tensor::zeros(&[2, 4]);
        assert!(cross_entropy(&logits, &[0, 9]).is_err());
        assert!(cross_entropy(&logits, &[0]).is_err());
    }

    #[test]
    fn linear_and_backward_match_finite_diff() {
        let mut rng = XorShiftRng::new(8);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 2], 1.0, &mut rng);
        let b = vec![0.1f32, -0.2];
        let dy = Tensor::randn(&[3, 2], 1.0, &mut rng);
        let (dx, dw, db) = linear_backward(x.clone(), &w, &dy).unwrap();

        let f_x = |t: &Tensor| -> f32 {
            let y = linear(t, &w, &b).unwrap();
            y.data().iter().zip(dy.data()).map(|(&a, &v)| a * v).sum()
        };
        for idx in 0..x.len() {
            let num = finite_diff(f_x, &x, idx);
            assert!((num - dx.data()[idx]).abs() < TOL, "dx[{idx}]");
        }
        let f_w = |t: &Tensor| -> f32 {
            let y = linear(&x, t, &b).unwrap();
            y.data().iter().zip(dy.data()).map(|(&a, &v)| a * v).sum()
        };
        for idx in 0..w.len() {
            let num = finite_diff(f_w, &w, idx);
            assert!((num - dw.data()[idx]).abs() < TOL, "dw[{idx}]");
        }
        for j in 0..2 {
            let col: f32 = (0..3).map(|i| dy.data()[i * 2 + j]).sum();
            assert!((col - db[j]).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_bias_length_checked() {
        let x = Tensor::zeros(&[2, 3]);
        let w = Tensor::zeros(&[3, 4]);
        assert!(linear(&x, &w, &[0.0; 3]).is_err());
        assert!(linear(&x, &w, &[0.0; 4]).is_ok());
    }
}
