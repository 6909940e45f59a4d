//! Dense row-major `f32` tensors.

use crate::counters::OpKind;
use crate::error::TensorError;
use crate::pool::{KernelFamily, Pool};
use crate::recorder;
use crate::rng::XorShiftRng;

/// Rows of the k extent per cache tile: one `GEMM_KC × GEMM_NR` B
/// micro-panel slice is 16 KiB, so it stays in L1 while every row group
/// of a worker's block is swept over it.
const GEMM_KC: usize = 256;
/// Rows per register tile: four A rows share every loaded B row.
const GEMM_MR: usize = 4;
/// Columns per register tile: 16 f32s = two 256-bit vectors, so the
/// `GEMM_MR × GEMM_NR` accumulator tile is eight independent `mul_add`
/// chains — enough to cover two FMA ports at four cycles' latency.
/// Public so host probes (`repro -- calibrate`) measure at the width the
/// GEMM issues.
pub const GEMM_NR: usize = 16;
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
        self.view().dims2(op).map(drop)
    }

    /// This tensor as a borrowed [`TensorView`].
    fn view(&self) -> TensorView<'_> {
        TensorView {
            data: &self.data,
            shape: &self.shape,
        }
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

    /// Matrix product of two rank-2 tensors. `other` is any borrowed
    /// matrix: a `&Tensor`, or a [`TensorView`] of a weight that lives in a
    /// flat parameter vector, which is packed straight from there.
    ///
    /// The kernel packs `other` into k-major column micro-panels, tiles
    /// the inner dimension, and parallelizes over disjoint blocks of
    /// output rows on the shared worker pool ([`Pool`]), each worker
    /// packing its own rows of `self`. Every output element
    /// accumulates its `k` contributions in ascending order regardless of
    /// blocking or thread count, so results are bit-identical to the
    /// straightforward serial i-k-j loop.
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] for non-matrices or
    /// [`TensorError::IncompatibleShapes`] if inner dimensions differ.
    pub fn matmul<'b>(&self, other: impl Into<TensorView<'b>>) -> Result<Tensor, TensorError> {
        let other = other.into();
        let (m, k) = self.view().dims2("matmul")?;
        let (k2, n) = other.dims2("matmul")?;
        self.check_inner(k, k2, other, "matmul")?;
        let _kernel = recorder::kernel(
            OpKind::MatMul,
            m * n,
            gemm_flops(m, k, n),
            gemm_accesses(m, k, n),
        );
        let a = Operand::rows(&self.data, k);
        let b = Operand::cols(other.data, n);
        Tensor::from_vec(gemm(a, b, m, k, n), &[m, n])
    }

    /// Fused `selfᵀ @ other` for rank-2 tensors (`self` is `[k, m]`,
    /// `other` is `[k, n]`, the result is `[m, n]`); `other` is borrowed
    /// as in [`Tensor::matmul`].
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
    pub fn matmul_at<'b>(&self, other: impl Into<TensorView<'b>>) -> Result<Tensor, TensorError> {
        let other = other.into();
        let (k, m) = self.view().dims2("matmul_at")?;
        let (k2, n) = other.dims2("matmul_at")?;
        self.check_inner(k, k2, other, "matmul_at")?;
        let _kernel = recorder::kernel(
            OpKind::MatMulAt,
            m * n,
            gemm_flops(m, k, n),
            gemm_accesses(m, k, n),
        );
        // The worker's stripe of selfᵀ is a column stripe of `self`;
        // packing it is the only transpose work done.
        let a = Operand::cols(&self.data, m);
        let b = Operand::cols(other.data, n);
        Tensor::from_vec(gemm(a, b, m, k, n), &[m, n])
    }

    /// Fused `self @ otherᵀ` for rank-2 tensors (`self` is `[m, k]`,
    /// `other` is `[n, k]`, the result is `[m, n]`); `other` is borrowed
    /// as in [`Tensor::matmul`].
    ///
    /// Equivalent to `self.matmul(&other.transpose()?)` — bit-identical,
    /// since both accumulate over `k` in ascending order — but without
    /// materializing the transposed operand: packing `other`'s rows into
    /// the column micro-panels `matmul` builds is the only transpose work.
    ///
    /// # Errors
    /// Returns [`TensorError::BadRank`] for non-matrices or
    /// [`TensorError::IncompatibleShapes`] if the trailing dimensions
    /// differ.
    pub fn matmul_bt<'b>(&self, other: impl Into<TensorView<'b>>) -> Result<Tensor, TensorError> {
        let other = other.into();
        let (m, k) = self.view().dims2("matmul_bt")?;
        let (n, k2) = other.dims2("matmul_bt")?;
        self.check_inner(k, k2, other, "matmul_bt")?;
        let _kernel = recorder::kernel(
            OpKind::MatMulBt,
            m * n,
            gemm_flops(m, k, n),
            gemm_accesses(m, k, n),
        );
        // One O(n·k) pack buys the O(m·n·k) multiply the register-tiled
        // microkernel: a row-dot formulation could not vectorize its
        // k-strided B loads and ran latency-bound on one fma chain.
        let a = Operand::rows(&self.data, k);
        let b = Operand::rows(other.data, k);
        Tensor::from_vec(gemm(a, b, m, k, n), &[m, n])
    }

    /// The GEMMs' contracted-dimension check: `k` of `self` against `k2`
    /// of `other`.
    fn check_inner(
        &self,
        k: usize,
        k2: usize,
        other: TensorView,
        op: &'static str,
    ) -> Result<(), TensorError> {
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape.clone(),
                right: other.shape.to_vec(),
                op,
            });
        }
        Ok(())
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

/// A borrowed tensor: a row-major slice and its shape. The GEMMs take
/// their right operand as one, so a weight matrix that lives inside a flat
/// parameter vector reaches the packing without first being copied into a
/// [`Tensor`]. A `&Tensor` converts into its view for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorView<'a> {
    data: &'a [f32],
    shape: &'a [usize],
}

impl<'a> TensorView<'a> {
    /// Views `data` as a tensor of `shape`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn new(data: &'a [f32], shape: &'a [usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(TensorView { data, shape })
    }

    /// `(rows, cols)` of a matrix.
    fn dims2(&self, op: &'static str) -> Result<(usize, usize), TensorError> {
        match *self.shape {
            [rows, cols] => Ok((rows, cols)),
            _ => Err(TensorError::BadRank {
                expected: 2,
                actual: self.shape.len(),
                op,
            }),
        }
    }
}

impl<'a> From<&'a Tensor> for TensorView<'a> {
    fn from(t: &'a Tensor) -> Self {
        t.view()
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

/// A GEMM operand viewed as `[lines, k]`: A's rows or B's columns.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    /// Leading dimension of the stored matrix.
    ld: usize,
    /// Element `(i, kk)` is `data[i * ld + kk]` when true (A of `matmul`
    /// and `matmul_bt`, B of `matmul_bt`), else `data[kk * ld + i]` (A of
    /// `matmul_at`, B of `matmul` and `matmul_at`).
    k_contiguous: bool,
}

impl<'a> Operand<'a> {
    /// Lines are the rows of a row-major matrix with `ld` columns.
    fn rows(data: &'a [f32], ld: usize) -> Self {
        Operand {
            data,
            ld,
            k_contiguous: true,
        }
    }

    /// Lines are the columns of a row-major matrix with `ld` columns.
    fn cols(data: &'a [f32], ld: usize) -> Self {
        Operand {
            data,
            ld,
            k_contiguous: false,
        }
    }

    /// The same view with its first `lines` lines dropped.
    fn skip(self, lines: usize) -> Operand<'a> {
        let offset = if self.k_contiguous {
            lines * self.ld
        } else {
            lines
        };
        Operand {
            data: &self.data[offset..],
            ..self
        }
    }
}

/// The packed GEMM behind all three variants: the `[m, n]` product of
/// the `[m, k]` view `a` and the `[n, k]` view `b` (each transposed or
/// not by its layout).
///
/// B is packed once on the calling thread and shared read-only; each
/// worker packs only the rows of A its block of output rows needs.
/// Every output element accumulates its `k` contributions in ascending
/// order regardless of blocking or thread count, so results are
/// bit-identical to the serial fma i-k-j loop.
fn gemm(a: Operand, b: Operand, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    // Degenerate product (`m·0`, `0·n`, or `k = 0`): the all-zeros output
    // is the answer; skip packing and the pool entirely.
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    let packed_b = pack_panels(b, n, k, panel_width);
    let pool = Pool::current().limit_for_family(KernelFamily::Gemm, m * n * k);
    pool.par_row_chunks(&mut out, n, |first_row, block| {
        let rows = block.len() / n;
        let packed_a = pack_panels(a.skip(first_row), rows, k, row_group_height);
        gemm_packed_block(&packed_a, k, &packed_b, n, block);
    });
    out
}

/// Width of the packed B micro-panel that starts `rest` columns before
/// the end of the matrix: full [`GEMM_NR`] tiles, then one scalar tail
/// of the last `n % GEMM_NR` columns.
fn panel_width(rest: usize) -> usize {
    rest.min(GEMM_NR)
}

/// Height of the packed A row group that starts `rest` rows before the
/// end of a worker's block: full [`GEMM_MR`] groups, then single rows.
fn row_group_height(rest: usize) -> usize {
    if rest >= GEMM_MR {
        GEMM_MR
    } else {
        1
    }
}

/// Packs the first `lines` lines of `src` into k-major groups of
/// `width(lines left)` lines: the group at line `i0` of width `g` holds
/// `(i0 + u, kk)` at `i0 * k + kk * g + u`, so the microkernel reads one
/// contiguous `g`-float step per k. A k-contiguous operand is interleaved
/// from `g` line streams, the other copied in `g`-float runs; either way
/// this is the only transposing pass a fused variant makes.
fn pack_panels(src: Operand, lines: usize, k: usize, width: fn(usize) -> usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; lines * k];
    let mut i0 = 0;
    while i0 < lines {
        let g = width(lines - i0);
        let dst = &mut packed[i0 * k..(i0 + g) * k];
        let src = src.skip(i0);
        match g {
            GEMM_NR => pack_group::<GEMM_NR>(src, k, dst),
            GEMM_MR => pack_group::<GEMM_MR>(src, k, dst),
            _ => {
                for (kk, step) in dst.chunks_exact_mut(g).enumerate() {
                    for (u, v) in step.iter_mut().enumerate() {
                        *v = if src.k_contiguous {
                            src.data[u * src.ld + kk]
                        } else {
                            src.data[kk * src.ld + u]
                        };
                    }
                }
            }
        }
        i0 += g;
    }
    packed
}

/// One `G`-line group of [`pack_panels`], with fixed-size steps so both
/// layouts compile to vector moves.
fn pack_group<const G: usize>(src: Operand, k: usize, dst: &mut [f32]) {
    let (steps, _) = dst.as_chunks_mut::<G>();
    if src.k_contiguous {
        let streams: [&[f32]; G] = std::array::from_fn(|u| &src.data[u * src.ld..][..k]);
        for (kk, step) in steps.iter_mut().enumerate() {
            for (v, stream) in step.iter_mut().zip(&streams) {
                *v = stream[kk];
            }
        }
    } else {
        for (kk, step) in steps.iter_mut().enumerate() {
            step.copy_from_slice(&src.data[kk * src.ld..][..G]);
        }
    }
}

/// Multiplies a packed block of A rows by a packed B (both laid out by
/// [`pack_panels`]) into `out` (`[rows, n]`, zero-initialized).
///
/// Loop order is k-tile → B micro-panel → row group → k: every output
/// element sees its `k` contributions in ascending order (the k-tiles are
/// visited in order, and each microkernel call walks its tile in order),
/// so the result is bit-identical to a fused-multiply-add i-k-j loop,
/// while each `GEMM_KC`-row slice of a B micro-panel stays in L1 across
/// all row groups of the block.
fn gemm_packed_block(a_packed: &[f32], k: usize, packed_b: &[f32], n: usize, out: &mut [f32]) {
    let rows = out.len() / n;
    debug_assert_eq!(out.len(), rows * n);
    debug_assert_eq!(a_packed.len(), rows * k);
    let mut kk = 0;
    while kk < k {
        let k_hi = (kk + GEMM_KC).min(k);
        let mut j0 = 0;
        while j0 < n {
            let w = panel_width(n - j0);
            let b = &packed_b[j0 * k + kk * w..j0 * k + k_hi * w];
            let mut r0 = 0;
            while r0 < rows {
                let g = row_group_height(rows - r0);
                let a = &a_packed[r0 * k + kk * g..r0 * k + k_hi * g];
                let o = &mut out[r0 * n + j0..];
                if g == GEMM_MR {
                    row_group::<GEMM_MR>(a, b, w, o, n);
                } else {
                    row_group::<1>(a, b, w, o, n);
                }
                r0 += g;
            }
            j0 += w;
        }
        kk = k_hi;
    }
}

/// Dispatches one `R`-row group against one B micro-panel of width `w`
/// to the full tile or the scalar tail.
fn row_group<const R: usize>(a: &[f32], b: &[f32], w: usize, out: &mut [f32], n: usize) {
    if w == GEMM_NR {
        microkernel::<R>(a, b, out, n);
        return;
    }
    for (a_k, b_k) in a.chunks_exact(R).zip(b.chunks_exact(w)) {
        for (i, &av) in a_k.iter().enumerate() {
            for (o, &bv) in out[i * n..i * n + w].iter_mut().zip(b_k) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

/// Register-tiled `R × GEMM_NR` microkernel: multiplies one packed
/// `R`-row group of A by one full packed B micro-panel over a k-tile, into
/// the `R × GEMM_NR` output tile at the front of `out` (row stride `n`).
///
/// The accumulator tile is an `[[f32; GEMM_NR]; R]` local (whole SIMD
/// registers) loaded from and stored back to `out` once per k-tile. Every
/// k step is one `mul_add` per element, in ascending-k order, so the
/// element-wise rounding sequence is the fma i-k-j reference's. The
/// fixed-size `R`- and `GEMM_NR`-wide chunks give the autovectorizer
/// provable bounds, and with `R = 4` the tile is eight independent vector
/// accumulators.
#[inline(always)]
fn microkernel<const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], n: usize) {
    let mut acc = [[0.0f32; GEMM_NR]; R];
    for (i, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[i * n..i * n + GEMM_NR]);
    }
    let (a_steps, _) = a.as_chunks::<R>();
    let (b_steps, _) = b.as_chunks::<GEMM_NR>();
    for (a_k, b_k) in a_steps.iter().zip(b_steps) {
        for (acc_row, &av) in acc.iter_mut().zip(a_k) {
            for (acc_v, &bv) in acc_row.iter_mut().zip(b_k) {
                *acc_v = av.mul_add(bv, *acc_v);
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        out[i * n..i * n + GEMM_NR].copy_from_slice(acc_row);
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
