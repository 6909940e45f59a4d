//! Dense row-major `f32` tensors.

use crate::counters::OpKind;
use crate::error::TensorError;
use crate::pool::{KernelFamily, Pool};
use crate::recorder;
use crate::rng::XorShiftRng;

/// Column width of a packed B panel. 64 f32s = 256 B per panel row: a
/// handful of cache lines that stay resident while the k loop streams over
/// them, and a multiple of every SIMD width the compiler may pick.
const GEMM_NC: usize = 64;
/// Rows of B (the k extent) per packed tile; `GEMM_KC × GEMM_NC` f32s =
/// 64 KiB, sized to sit in L1/L2 while every output row of a worker's
/// block is swept over it.
const GEMM_KC: usize = 256;
/// Rows per register-blocked microkernel tile: four A rows share every
/// loaded B panel row, quartering B traffic from L1 into registers.
const GEMM_MR: usize = 4;
/// Columns per microkernel tile: 8 f32s = one 256-bit vector (or two
/// 128-bit ones), so a fixed-size `[f32; GEMM_NR]` accumulator row lowers
/// to whole SIMD registers.
const GEMM_NR: usize = 8;
/// Square tile edge for the blocked transpose (32×32×4 B = 4 KiB per
/// operand tile, so one source and one destination tile fit in L1
/// together).
const TRANSPOSE_TILE: usize = 32;

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// Rank-2 tensors carry the matrix kernels the transformer needs; higher
/// ranks are supported for storage and element-wise math.
///
/// ```
/// use tensorlite::Tensor;
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(x.shape(), &[2, 3]);
/// assert_eq!(x.get2(1, 2)?, 6.0);
/// # Ok::<(), tensorlite::TensorError>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor::new_unchecked(self.data.clone(), self.shape.clone())
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        if !self.data.is_empty() {
            recorder::free(self.data.len());
        }
    }
}

impl Tensor {
    /// The one construction funnel: every buffer that becomes tensor
    /// storage passes through here so the byte accounting of the
    /// recorders in scope ([`crate::recorder`]) sees it.
    fn new_unchecked(data: Vec<f32>, shape: Vec<usize>) -> Self {
        recorder::alloc(data.len());
        Tensor { data, shape }
    }

    /// Creates a tensor from a flat vector and shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor::new_unchecked(data, shape.to_vec()))
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::new_unchecked(vec![0.0; shape.iter().product()], shape.to_vec())
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor::new_unchecked(vec![value; shape.iter().product()], shape.to_vec())
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Tensor of i.i.d. normal samples with the given std deviation.
    pub fn randn(shape: &[usize], std: f32, rng: &mut XorShiftRng) -> Self {
        let data = (0..shape.iter().product())
            .map(|_| rng.normal_scaled(0.0, std))
            .collect();
        Tensor::new_unchecked(data, shape.to_vec())
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Flat read-only view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat storage. The bytes leave
    /// tensor accounting here (counted as freed).
    pub fn into_vec(mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        recorder::free(data.len());
        data
    }

    /// Rank-2 element read.
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] for bad indices.
    pub fn get2(&self, row: usize, col: usize) -> Result<f32, TensorError> {
        self.check_rank2("get2")?;
        let (r, c) = (self.shape[0], self.shape[1]);
        if row >= r {
            return Err(TensorError::IndexOutOfBounds { index: row, len: r });
        }
        if col >= c {
            return Err(TensorError::IndexOutOfBounds { index: col, len: c });
        }
        Ok(self.data[row * c + col])
    }

    /// Rank-2 element write.
    ///
    /// # Errors
    /// Same conditions as [`Tensor::get2`].
    pub fn set2(&mut self, row: usize, col: usize, value: f32) -> Result<(), TensorError> {
        self.check_rank2("set2")?;
        let (r, c) = (self.shape[0], self.shape[1]);
        if row >= r {
            return Err(TensorError::IndexOutOfBounds { index: row, len: r });
        }
        if col >= c {
            return Err(TensorError::IndexOutOfBounds { index: col, len: c });
        }
        self.data[row * c + col] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the element count differs.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data.clone(), shape)
    }

    fn check_rank2(&self, op: &'static str) -> Result<(), TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::BadRank {
                expected: 2,
                actual: self.rank(),
                op,
            });
        }
        Ok(())
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op,
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    /// Returns [`TensorError::IncompatibleShapes`] on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "add")?;
        let len = self.len();
        let _kernel = recorder::kernel(OpKind::Elementwise, len, len as u64, 3 * len as u64);
        Ok(self.zip_map(other, |a, b| a + b))
    }

    /// Element-wise difference.
    ///
    /// # Errors
    /// Returns [`TensorError::IncompatibleShapes`] on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "sub")?;
        let len = self.len();
        let _kernel = recorder::kernel(OpKind::Elementwise, len, len as u64, 3 * len as u64);
        Ok(self.zip_map(other, |a, b| a - b))
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`TensorError::IncompatibleShapes`] on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "mul")?;
        let len = self.len();
        let _kernel = recorder::kernel(OpKind::Elementwise, len, len as u64, 3 * len as u64);
        Ok(self.zip_map(other, |a, b| a * b))
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    /// Returns [`TensorError::IncompatibleShapes`] on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other, "axpy")?;
        let len = self.len();
        let _kernel = recorder::kernel(OpKind::Elementwise, len, 2 * len as u64, 3 * len as u64);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = alpha.mul_add(*b, *a);
        }
        Ok(())
    }

    /// Tensor scaled by a constant.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let len = self.len();
        let _kernel = recorder::kernel(OpKind::Elementwise, len, len as u64, 2 * len as u64);
        self.map(|x| x * alpha)
    }

    /// Applies `f` element-wise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::new_unchecked(
            self.data.iter().map(|&x| f(x)).collect(),
            self.shape.clone(),
        )
    }

    /// Combines two same-shaped tensors element-wise.
    ///
    /// # Panics
    /// Panics if the shapes differ (callers validate first).
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Tensor::new_unchecked(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.shape.clone(),
        )
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// The kernel packs `other` into cache-sized column panels, tiles the
    /// inner dimension, and parallelizes over disjoint blocks of output
    /// rows on the shared worker pool ([`Pool`]). Every output element
    /// accumulates its `k` contributions in ascending order regardless of
    /// blocking or thread count, so results are bit-identical to the
    /// straightforward serial i-k-j loop.
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] for non-matrices or
    /// [`TensorError::IncompatibleShapes`] if inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_rank2("matmul")?;
        other.check_rank2("matmul")?;
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "matmul",
            });
        }
        let _kernel = recorder::kernel(
            OpKind::MatMul,
            m * n,
            gemm_flops(m, k, n),
            gemm_accesses(m, k, n),
        );
        let mut out = vec![0.0f32; m * n];
        // Degenerate matmul (`m·0`, `0·n`, or `k = 0`): the all-zeros
        // output is the answer; skip packing and the pool entirely.
        if m == 0 || n == 0 || k == 0 {
            return Tensor::from_vec(out, &[m, n]);
        }
        let packed = pack_b_panels(&other.data, k, n);
        let pool = Pool::current().limit_for_family(KernelFamily::Gemm, m * n * k);
        pool.par_row_chunks(&mut out, n, |first_row, block| {
            let a_rows = &self.data[first_row * k..first_row * k + (block.len() / n) * k];
            gemm_packed_block(a_rows, k, &packed, n, block);
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Fused `selfᵀ @ other` for rank-2 tensors (`self` is `[k, m]`,
    /// `other` is `[k, n]`, the result is `[m, n]`).
    ///
    /// Equivalent to `self.transpose()?.matmul(other)` — bit-identical,
    /// since both accumulate over `k` in ascending order — but without
    /// materializing the transposed operand: each worker packs only the
    /// column stripe of `self` its output rows need.
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] for non-matrices or
    /// [`TensorError::IncompatibleShapes`] if the leading dimensions
    /// differ.
    pub fn matmul_at(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_rank2("matmul_at")?;
        other.check_rank2("matmul_at")?;
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "matmul_at",
            });
        }
        let _kernel = recorder::kernel(
            OpKind::MatMulAt,
            m * n,
            gemm_flops(m, k, n),
            gemm_accesses(m, k, n),
        );
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 || k == 0 {
            return Tensor::from_vec(out, &[m, n]);
        }
        let packed = pack_b_panels(&other.data, k, n);
        let pool = Pool::current().limit_for_family(KernelFamily::Gemm, m * n * k);
        pool.par_row_chunks(&mut out, n, |first_row, block| {
            // Pack the worker's stripe of selfᵀ: rows `first_row..` of the
            // transpose, i.e. columns of `self`. This is the only transpose
            // work done, it is local to the worker, and it reads each
            // source cache line once per k-row.
            let rows = block.len() / n;
            let mut at = vec![0.0f32; rows * k];
            for kk in 0..k {
                let src = &self.data[kk * m + first_row..kk * m + first_row + rows];
                for (r, &v) in src.iter().enumerate() {
                    at[r * k + kk] = v;
                }
            }
            gemm_packed_block(&at, k, &packed, n, block);
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Fused `self @ otherᵀ` for rank-2 tensors (`self` is `[m, k]`,
    /// `other` is `[n, k]`, the result is `[m, n]`).
    ///
    /// Equivalent to `self.matmul(&other.transpose()?)` — bit-identical,
    /// since both accumulate over `k` in ascending order — but without
    /// materializing the transposed operand: every output element is a dot
    /// product of two contiguous rows.
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] for non-matrices or
    /// [`TensorError::IncompatibleShapes`] if the trailing dimensions
    /// differ.
    pub fn matmul_bt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_rank2("matmul_bt")?;
        other.check_rank2("matmul_bt")?;
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "matmul_bt",
            });
        }
        let _kernel = recorder::kernel(
            OpKind::MatMulBt,
            m * n,
            gemm_flops(m, k, n),
            gemm_accesses(m, k, n),
        );
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 || k == 0 {
            return Tensor::from_vec(out, &[m, n]);
        }
        // Repack `other` ([n, k], row-major) into the same `GEMM_KC ×
        // GEMM_NC` column panels `matmul` packs its B into, reading the
        // source k-contiguously. One O(n·k) pass buys the O(m·n·k)
        // multiply the register-blocked microkernel — the row-dot
        // formulation this replaces could not vectorize its k-strided B
        // loads and ran latency-bound on a single fma chain per element.
        let packed = pack_bt_panels(&other.data, k, n);
        let pool = Pool::current().limit_for_family(KernelFamily::Gemm, m * n * k);
        pool.par_row_chunks(&mut out, n, |first_row, block| {
            let a_rows = &self.data[first_row * k..first_row * k + (block.len() / n) * k];
            gemm_packed_block(a_rows, k, &packed, n, block);
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor (blocked into square cache tiles so
    /// both the source and destination are walked a cache-resident tile at
    /// a time, instead of striding the full destination per source row).
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        self.check_rank2("transpose")?;
        let (m, n) = (self.shape[0], self.shape[1]);
        let _kernel = recorder::kernel(OpKind::Transpose, m * n, 0, 2 * (m * n) as u64);
        let mut out = vec![0.0f32; m * n];
        let mut ii = 0;
        while ii < m {
            let i_hi = (ii + TRANSPOSE_TILE).min(m);
            let mut jj = 0;
            while jj < n {
                let j_hi = (jj + TRANSPOSE_TILE).min(n);
                for i in ii..i_hi {
                    for j in jj..j_hi {
                        out[j * m + i] = self.data[i * n + j];
                    }
                }
                jj = j_hi;
            }
            ii = i_hi;
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// A read-only view of row `i` of a rank-2 tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] / [`TensorError::IndexOutOfBounds`].
    pub fn row(&self, i: usize) -> Result<&[f32], TensorError> {
        self.check_rank2("row")?;
        let (m, n) = (self.shape[0], self.shape[1]);
        if i >= m {
            return Err(TensorError::IndexOutOfBounds { index: i, len: m });
        }
        Ok(&self.data[i * n..(i + 1) * n])
    }

    /// Sum of all elements (f64 accumulation).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum() / self.len() as f64
    }

    /// L2 norm of all elements (f64 accumulation).
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum element (NaN-propagating); `None` when empty.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Returns whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// The `2·m·k·n` GEMM FLOP convention shared with `llm-model/src/flops.rs`
/// (one multiply + one add per inner-loop step), in overflow-safe u64.
fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// GEMM memory-traffic convention in element accesses: read both operands
/// once, write the output once (ignoring cache reuse). Operand sizes are
/// the same for all three matmul variants, so they share this formula.
fn gemm_accesses(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 + k as u64 * n as u64 + m as u64 * n as u64
}

/// Packs a row-major `[k, n]` matrix into column panels of [`GEMM_NC`]
/// columns: panel-major, each panel holding its `k` rows contiguously.
/// The GEMM inner loop then streams a panel row (a few cache lines) per
/// `k` step instead of striding across the full matrix width, and the
/// packed panels are shared read-only by every worker.
fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; k * n];
    let mut off = 0;
    let mut jj = 0;
    while jj < n {
        let ncw = GEMM_NC.min(n - jj);
        for kk in 0..k {
            let src = &b[kk * n + jj..kk * n + jj + ncw];
            packed[off..off + ncw].copy_from_slice(src);
            off += ncw;
        }
        jj += ncw;
    }
    packed
}

/// Packs a transposed `B` (`[n, k]`, row-major — the `matmul_bt`
/// operand layout) into the identical panel layout [`pack_b_panels`]
/// produces for an un-transposed `[k, n]` `B`: `GEMM_NC`-column panels,
/// each holding rows `0..k` of its column slice contiguously.
///
/// The source is read k-contiguously (one `bt` row at a time) and
/// scattered into the panel, so this is the only transposing pass —
/// after it, `matmul_bt` runs the same packed microkernel as `matmul`.
fn pack_bt_panels(bt: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; k * n];
    let mut off = 0;
    let mut jj = 0;
    while jj < n {
        let ncw = GEMM_NC.min(n - jj);
        for u in 0..ncw {
            let src = &bt[(jj + u) * k..(jj + u + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                packed[off + kk * ncw + u] = v;
            }
        }
        off += k * ncw;
        jj += ncw;
    }
    packed
}

/// Multiplies a block of `A` rows (`[rows, k]`, contiguous) by a
/// panel-packed `B` (see [`pack_b_panels`]) into `out` (`[rows, n]`,
/// zero-initialized).
///
/// Loop order is panel → k-tile → row-quad → k → j: every output element
/// sees its `k` contributions in ascending order (panels partition `j`,
/// and the k-tiles are visited in order), so the result is bit-identical
/// to a fused-multiply-add i-k-j loop while each `GEMM_KC × GEMM_NC` tile
/// of `B` stays cache-resident across all rows of the block. Inside a
/// k-tile, a [`GEMM_MR`]`×`[`GEMM_NR`] register-blocked microkernel holds
/// the accumulator tile in locals and uses `f32::mul_add` (one rounding
/// per step — the microkernel and the reference differ from the old
/// two-rounding `+= a*b` kernel, identically in serial and parallel).
fn gemm_packed_block(a_rows: &[f32], k: usize, packed_b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 || k == 0 || out.is_empty() {
        // Degenerate `m·0` / `0·n` / `k = 0` block: the zero-initialized
        // output is already the product (there is nothing to accumulate).
        return;
    }
    let rows = out.len() / n;
    debug_assert_eq!(out.len(), rows * n);
    debug_assert_eq!(a_rows.len(), rows * k);
    let mut panel_off = 0;
    let mut jj = 0;
    while jj < n {
        let ncw = GEMM_NC.min(n - jj);
        let panel = &packed_b[panel_off..panel_off + k * ncw];
        let mut kk = 0;
        while kk < k {
            let k_hi = (kk + GEMM_KC).min(k);
            let mut r = 0;
            while r + GEMM_MR <= rows {
                let a_quad = &a_rows[r * k..(r + GEMM_MR) * k];
                let (o0, rest) = out[r * n..(r + GEMM_MR) * n].split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                microkernel_mr4(
                    [
                        &a_quad[..k],
                        &a_quad[k..2 * k],
                        &a_quad[2 * k..3 * k],
                        &a_quad[3 * k..],
                    ],
                    panel,
                    ncw,
                    kk,
                    k_hi,
                    [
                        &mut o0[jj..jj + ncw],
                        &mut o1[jj..jj + ncw],
                        &mut o2[jj..jj + ncw],
                        &mut o3[jj..jj + ncw],
                    ],
                );
                r += GEMM_MR;
            }
            while r < rows {
                let a_row = &a_rows[r * k..(r + 1) * k];
                let out_row = &mut out[r * n + jj..r * n + jj + ncw];
                microkernel_mr1(a_row, panel, ncw, kk, k_hi, out_row);
                r += 1;
            }
            kk = k_hi;
        }
        panel_off += k * ncw;
        jj += ncw;
    }
}

/// Register-blocked `GEMM_MR × GEMM_NR` microkernel: multiplies `GEMM_MR`
/// full A rows against one packed-B panel's `kk..k_hi` tile into the
/// matching `ncw`-wide output row slices.
///
/// Per [`GEMM_NR`]-column block, the accumulator tile lives in a
/// `[[f32; GEMM_NR]; GEMM_MR]` local (whole SIMD registers) loaded from
/// and stored back to `out` once per k-tile; every k step is one
/// `mul_add` per lane, in ascending-k order, so the element-wise rounding
/// sequence is identical to the single-row kernel and to the fma i-k-j
/// reference. The fixed-size `&[f32; GEMM_NR]` panel loads give the
/// autovectorizer provable bounds.
fn microkernel_mr4(
    a: [&[f32]; GEMM_MR],
    panel: &[f32],
    ncw: usize,
    kk: usize,
    k_hi: usize,
    mut o: [&mut [f32]; GEMM_MR],
) {
    let mut jb = 0;
    while jb + GEMM_NR <= ncw {
        let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
        for (acc_row, o_row) in acc.iter_mut().zip(o.iter()) {
            acc_row.copy_from_slice(&o_row[jb..jb + GEMM_NR]);
        }
        for kidx in kk..k_hi {
            let b: &[f32; GEMM_NR] = panel[kidx * ncw + jb..kidx * ncw + jb + GEMM_NR]
                .try_into()
                .expect("NR-wide panel slice");
            for (acc_row, a_row) in acc.iter_mut().zip(&a) {
                let av = a_row[kidx];
                for (acc_v, &bv) in acc_row.iter_mut().zip(b) {
                    *acc_v = av.mul_add(bv, *acc_v);
                }
            }
        }
        for (acc_row, o_row) in acc.iter().zip(o.iter_mut()) {
            o_row[jb..jb + GEMM_NR].copy_from_slice(acc_row);
        }
        jb += GEMM_NR;
    }
    // Column remainder (< GEMM_NR wide): same ascending-k mul_add per
    // element, scalar lanes.
    if jb < ncw {
        for kidx in kk..k_hi {
            let b_tail = &panel[kidx * ncw + jb..(kidx + 1) * ncw];
            for (o_row, a_row) in o.iter_mut().zip(&a) {
                let av = a_row[kidx];
                for (o_v, &bv) in o_row[jb..].iter_mut().zip(b_tail) {
                    *o_v = av.mul_add(bv, *o_v);
                }
            }
        }
    }
}

/// Single-row variant of [`microkernel_mr4`] for the `rows % GEMM_MR`
/// remainder — same `GEMM_NR`-wide register accumulator, same ascending-k
/// `mul_add` order per output element.
fn microkernel_mr1(
    a_row: &[f32],
    panel: &[f32],
    ncw: usize,
    kk: usize,
    k_hi: usize,
    out_row: &mut [f32],
) {
    let mut jb = 0;
    while jb + GEMM_NR <= ncw {
        let mut acc = [0.0f32; GEMM_NR];
        acc.copy_from_slice(&out_row[jb..jb + GEMM_NR]);
        for kidx in kk..k_hi {
            let av = a_row[kidx];
            let b: &[f32; GEMM_NR] = panel[kidx * ncw + jb..kidx * ncw + jb + GEMM_NR]
                .try_into()
                .expect("NR-wide panel slice");
            for (acc_v, &bv) in acc.iter_mut().zip(b) {
                *acc_v = av.mul_add(bv, *acc_v);
            }
        }
        out_row[jb..jb + GEMM_NR].copy_from_slice(&acc);
        jb += GEMM_NR;
    }
    if jb < ncw {
        for kidx in kk..k_hi {
            let av = a_row[kidx];
            let b_tail = &panel[kidx * ncw + jb..(kidx + 1) * ncw];
            for (o_v, &bv) in out_row[jb..].iter_mut().zip(b_tail) {
                *o_v = av.mul_add(bv, *o_v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_shape() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn zeros_ones_full_eye() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
        let e = Tensor::eye(2);
        assert_eq!(e.data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn matmul_correctness() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = XorShiftRng::new(1);
        let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let c = a.matmul(&Tensor::eye(4)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_coefficients() {
        // Regression: the old kernel skipped k-iterations where a == 0.0,
        // silently dropping 0.0 × NaN/∞ contributions (IEEE: both are NaN)
        // and making throughput data-dependent.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN must poison the output");
        assert_eq!(c.data()[1], 4.0);

        let binf = Tensor::from_vec(vec![f32::INFINITY, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let cinf = a.matmul(&binf).unwrap();
        assert!(cinf.data()[0].is_nan(), "0·∞ is NaN");

        // The fused variants agree on the poisoned results.
        let at = a.transpose().unwrap();
        assert!(at.matmul_at(&b).unwrap().data()[0].is_nan());
        let bt = b.transpose().unwrap();
        assert!(a.matmul_bt(&bt).unwrap().data()[0].is_nan());
    }

    #[test]
    fn matmul_handles_large_blocked_shapes() {
        // Exercise shapes that span multiple GEMM panels and k-tiles, and
        // odd remainders, against a reference i-k-j loop (fused
        // multiply-add per step, matching the microkernel's rounding).
        let mut rng = XorShiftRng::new(77);
        for (m, k, n) in [(3usize, 300usize, 70usize), (5, 65, 129), (1, 257, 1)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let c = a.matmul(&b).unwrap();
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a.data()[i * k + kk];
                    for j in 0..n {
                        expect[i * n + j] = av.mul_add(b.data()[kk * n + j], expect[i * n + j]);
                    }
                }
            }
            assert_eq!(c.data(), &expect[..], "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_handles_empty_dimensions() {
        // `m·0`, `0·n`, and `k = 0` all have a well-defined product: a
        // (possibly empty) all-zeros matrix. Regression for the old
        // `checked_div(n).unwrap_or(0)` silently masking `n == 0`.
        let a = Tensor::zeros(&[3, 0]); // k = 0
        let b = Tensor::zeros(&[0, 4]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        assert!(c.data().iter().all(|&v| v == 0.0), "k=0 product is zeros");

        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::zeros(&[2, 0]); // n = 0
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[1, 0]);
        assert!(c.is_empty());

        let a = Tensor::zeros(&[0, 2]); // m = 0
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[0, 2]);
        assert!(c.is_empty());
    }

    #[test]
    fn fused_variants_handle_empty_dimensions() {
        // matmul_at: self is [k, m], other is [k, n].
        let at = Tensor::zeros(&[0, 3])
            .matmul_at(&Tensor::zeros(&[0, 2]))
            .unwrap();
        assert_eq!(at.shape(), &[3, 2]);
        assert!(at.data().iter().all(|&v| v == 0.0));
        assert!(Tensor::zeros(&[2, 0])
            .matmul_at(&Tensor::zeros(&[2, 5]))
            .unwrap()
            .is_empty());
        // matmul_bt: self is [m, k], other is [n, k].
        let bt = Tensor::zeros(&[3, 0])
            .matmul_bt(&Tensor::zeros(&[2, 0]))
            .unwrap();
        assert_eq!(bt.shape(), &[3, 2]);
        assert!(bt.data().iter().all(|&v| v == 0.0));
        assert!(Tensor::zeros(&[0, 4])
            .matmul_bt(&Tensor::zeros(&[2, 4]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fused_variants_match_composed_transpose_bitwise() {
        let mut rng = XorShiftRng::new(88);
        let a = Tensor::randn(&[7, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[7, 9], 1.0, &mut rng);
        let fused = a.matmul_at(&b).unwrap();
        let composed = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused, composed);

        let c = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let d = Tensor::randn(&[11, 6], 1.0, &mut rng);
        let fused = c.matmul_bt(&d).unwrap();
        let composed = c.matmul(&d.transpose().unwrap()).unwrap();
        assert_eq!(fused, composed);
    }

    #[test]
    fn fused_variants_reject_bad_shapes() {
        let a = Tensor::zeros(&[3, 4]);
        let b = Tensor::zeros(&[5, 6]);
        assert!(matches!(
            a.matmul_at(&b),
            Err(TensorError::IncompatibleShapes { .. })
        ));
        assert!(matches!(
            a.matmul_bt(&b),
            Err(TensorError::IncompatibleShapes { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(a.matmul_at(&v), Err(TensorError::BadRank { .. })));
        assert!(matches!(a.matmul_bt(&v), Err(TensorError::BadRank { .. })));
    }

    #[test]
    fn blocked_transpose_matches_elementwise_on_tile_straddling_shapes() {
        let mut rng = XorShiftRng::new(99);
        for (m, n) in [(1usize, 1usize), (31, 33), (32, 32), (65, 3), (40, 100)] {
            let a = Tensor::randn(&[m, n], 1.0, &mut rng);
            let t = a.transpose().unwrap();
            assert_eq!(t.shape(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(a.get2(i, j).unwrap(), t.get2(j, i).unwrap());
                }
            }
        }
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::IncompatibleShapes { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(a.matmul(&v), Err(TensorError::BadRank { .. })));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = XorShiftRng::new(2);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[5, 3]);
        assert_eq!(t.transpose().unwrap(), a);
        assert_eq!(a.get2(1, 4).unwrap(), t.get2(4, 1).unwrap());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.axpy(10.0, &b).unwrap();
        assert_eq!(c.data(), &[31.0, 52.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_rejected() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
        let mut c = a.clone();
        assert!(c.axpy(1.0, &b).is_err());
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.l2_norm(), 5.0);
        assert_eq!(a.max(), Some(4.0));
        assert!(Tensor::zeros(&[0]).max().is_none());
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn finiteness_check() {
        let mut a = Tensor::zeros(&[3]);
        assert!(a.all_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn get_set_and_bounds() {
        let mut a = Tensor::zeros(&[2, 2]);
        a.set2(0, 1, 9.0).unwrap();
        assert_eq!(a.get2(0, 1).unwrap(), 9.0);
        assert!(a.get2(2, 0).is_err());
        assert!(a.set2(0, 2, 1.0).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = a.reshape(&[4]).unwrap();
        assert_eq!(b.shape(), &[4]);
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(&[3]).is_err());
    }

    #[test]
    fn row_view() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.row(1).unwrap(), &[3.0, 4.0]);
        assert!(a.row(2).is_err());
    }

    #[test]
    fn randn_std_controls_spread() {
        let mut rng = XorShiftRng::new(11);
        let t = Tensor::randn(&[10_000], 0.02, &mut rng);
        let std = (t.data().iter().map(|x| (x * x) as f64).sum::<f64>() / t.len() as f64).sqrt();
        assert!((std - 0.02).abs() < 0.002, "std was {std}");
    }
}
