//! Row-major dense `f32` matrix.

use crate::vector::dot_rows_into;
use crate::TensorError;
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32` values.
///
/// This is the workhorse type of the reproduction: model weights, per-head key/value
/// blocks and attention-logit rows are all `Matrix` values. The API mirrors the small
/// subset of BLAS a decoder-only transformer needs.
///
/// ```
/// use keyformer_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Register-tile height of the GEMM micro-kernel: rows of the left operand
/// processed per tile.
const GEMM_MR: usize = 4;
/// Register-tile width of the GEMM micro-kernel: columns of the right operand
/// processed per tile. `GEMM_MR * GEMM_NR` accumulators fit in registers.
const GEMM_NR: usize = 16;

/// GEMM micro-kernel: computes an `mr x nr` output tile whose element
/// `(i0 + mi, jo + ni)` is the dot product of row `i0 + mi` of `a` (stride
/// `lda`) with column `jb + ni` of `b` (stride `ldb`), written to `out` at
/// stride `ldo`.
///
/// Every output element accumulates its `k` products through a **single chain
/// in ascending-`k` order**, which makes the tile bit-identical to the
/// `row.iter().zip(v).map(|(a, b)| a * b).sum::<f32>()` reduction used by
/// [`Matrix::matvec`] — the contract that lets the chunk-batched prefill path
/// reproduce the sequential path's tokens exactly. Register blocking only
/// reorders *independent* chains, never splits one. Each chain is seeded
/// with `-0.0`, the additive identity `Iterator::sum` starts from, so even an
/// all-`-0.0` product chain keeps its sign.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_tile(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    lda: usize,
    ldb: usize,
    ldo: usize,
    i0: usize,
    jb: usize,
    jo: usize,
    mr: usize,
    nr: usize,
    k: usize,
) {
    debug_assert!(mr <= GEMM_MR && nr <= GEMM_NR);
    let mut acc = [[-0.0f32; GEMM_NR]; GEMM_MR];
    if nr == GEMM_NR {
        // Full-width tile: fixed-length inner loop, so the adds vectorize.
        for kk in 0..k {
            let brow = &b[kk * ldb + jb..kk * ldb + jb + GEMM_NR];
            for (mi, accrow) in acc[..mr].iter_mut().enumerate() {
                let a_val = a[(i0 + mi) * lda + kk];
                for (o, &bv) in accrow.iter_mut().zip(brow) {
                    *o += a_val * bv;
                }
            }
        }
    } else {
        // Ragged right/bottom edge: same arithmetic at runtime width.
        for kk in 0..k {
            let brow = &b[kk * ldb + jb..kk * ldb + jb + nr];
            for (mi, accrow) in acc[..mr].iter_mut().enumerate() {
                let a_val = a[(i0 + mi) * lda + kk];
                for (o, &bv) in accrow[..nr].iter_mut().zip(brow) {
                    *o += a_val * bv;
                }
            }
        }
    }
    for (mi, accrow) in acc[..mr].iter().enumerate() {
        let dst = (i0 + mi) * ldo + jo;
        out[dst..dst + nr].copy_from_slice(&accrow[..nr]);
    }
}

/// Tiled row-major GEMM `out = a * b` with `a` of shape `m x k`, `b` of shape
/// `k x n` and `out` of shape `m x n`, all row-major and fully overwritten.
fn gemm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut i0 = 0;
    while i0 < m {
        let mr = (m - i0).min(GEMM_MR);
        let mut j0 = 0;
        while j0 < n {
            let nr = (n - j0).min(GEMM_NR);
            gemm_tile(a, b, out, k, n, n, i0, j0, j0, mr, nr, k);
            j0 += nr;
        }
        i0 += mr;
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidArgument(format!(
                "buffer of length {} cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols` (unless the matrix is empty, in which case the
    /// column count is adopted from the row).
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length must match column count");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Shrinks the matrix to its first `rows` rows, dropping the rest in place.
    ///
    /// This is the primitive the paged KV cache uses to give freed block tails
    /// back to the allocator without reallocating the surviving rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows > self.rows()`.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(
            rows <= self.rows,
            "cannot truncate {} rows to {rows}",
            self.rows
        );
        self.data.truncate(rows * self.cols);
        self.rows = rows;
    }

    /// Returns a new matrix containing only the rows whose indices are listed in
    /// `indices`, in the order given. Indices may repeat.
    ///
    /// This is the primitive every eviction policy uses to rebuild a compacted KV
    /// cache from the set of retained token slots.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather index {src} out of bounds");
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix multiplication `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`. Use [`Matrix::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other)
            .expect("matmul shape mismatch: inner dimensions must agree")
    }

    /// Fallible matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm_nn(
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix multiplication `self * other` written into a caller-owned flat
    /// row-major buffer (`self.rows() * other.cols()` elements).
    ///
    /// Same tiled kernel as [`Matrix::matmul`]; performs no heap allocation
    /// when `out` already has sufficient capacity.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`. Use
    /// [`Matrix::try_matmul_into`] for a fallible variant.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Vec<f32>) {
        self.try_matmul_into(other, out)
            .expect("matmul shape mismatch: inner dimensions must agree")
    }

    /// Fallible [`Matrix::matmul_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn try_matmul_into(&self, other: &Matrix, out: &mut Vec<f32>) -> Result<(), TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        out.clear();
        out.resize(self.rows * other.cols, 0.0);
        gemm_nn(
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
            out,
        );
        Ok(())
    }

    /// Batched matrix-vector product: applies `self * x` to `count` input
    /// vectors stored back to back in `xs` (each of length `cols`), writing
    /// the `count` output vectors (each of length `rows`) back to back into
    /// `out`.
    ///
    /// Bit-identical to calling [`Matrix::matvec_into`] once per input vector
    /// — every output element accumulates its products through a single
    /// ascending-column chain — but streams the weight matrix through the
    /// cache once per register tile of inputs instead of once per vector, and
    /// transposes weight panels into `pack` so the inner loop reads
    /// unit-stride memory. This is the GEMM behind chunk-batched prefill's
    /// QKV/FFN projections.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `xs.len() != count * cols`.
    pub fn matvec_batch_into(
        &self,
        xs: &[f32],
        count: usize,
        out: &mut Vec<f32>,
        pack: &mut Vec<f32>,
    ) -> Result<(), TensorError> {
        if xs.len() != count * self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_batch",
                lhs: self.shape(),
                rhs: (count, xs.len().checked_div(count).unwrap_or(0)),
            });
        }
        out.clear();
        if count == 1 {
            // A single vector gains nothing from panel packing; use the GEMV
            // kernel (identical bits, no packing traffic).
            dot_rows_into(&self.data, xs, out);
            return Ok(());
        }
        let (rows, cols) = (self.rows, self.cols);
        out.resize(count * rows, 0.0);
        pack.clear();
        pack.resize(cols * GEMM_NR, 0.0);
        let mut r0 = 0;
        while r0 < rows {
            let nr = (rows - r0).min(GEMM_NR);
            // Transpose the panel of `nr` weight rows into `pack`
            // (`cols x nr`, padded to stride `GEMM_NR`) — pure data movement,
            // no arithmetic, so bit-compatibility is untouched.
            for (ri, wrow) in self.data[r0 * cols..(r0 + nr) * cols]
                .chunks_exact(cols.max(1))
                .enumerate()
            {
                for (kk, &w) in wrow.iter().enumerate() {
                    pack[kk * GEMM_NR + ri] = w;
                }
            }
            let mut i0 = 0;
            while i0 < count {
                let mr = (count - i0).min(GEMM_MR);
                gemm_tile(xs, pack, out, cols, GEMM_NR, rows, i0, 0, r0, mr, nr, cols);
                i0 += mr;
            }
            r0 += nr;
        }
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != cols`.
    pub fn matvec(&self, v: &[f32]) -> Result<Vec<f32>, TensorError> {
        if v.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Matrix-vector product `self * v` written into a caller-owned buffer.
    ///
    /// Bit-identical to [`Matrix::matvec`] (same per-row ascending-column
    /// chain), but advances four rows per pass; performs no heap allocation
    /// when `out` already has capacity for `rows` elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != cols`.
    pub fn matvec_into(&self, v: &[f32], out: &mut Vec<f32>) -> Result<(), TensorError> {
        if v.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        out.clear();
        dot_rows_into(&self.data, v, out);
        Ok(())
    }

    /// Reserves capacity for at least `additional` more rows without changing
    /// the matrix contents.
    ///
    /// The paged KV cache calls this when a fresh block is allocated so the
    /// per-token [`Matrix::push_row`] appends that fill the block never touch
    /// the allocator.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols.max(1));
    }

    /// Vector-matrix product `v * self` (treats `v` as a row vector).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `v.len() != rows`.
    pub fn vecmat(&self, v: &[f32]) -> Result<Vec<f32>, TensorError> {
        if v.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "vecmat",
                lhs: (1, v.len()),
                rhs: self.shape(),
            });
        }
        let mut out = vec![0.0f32; self.cols];
        for (r, &coeff) in v.iter().enumerate() {
            if coeff == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += coeff * x;
            }
        }
        Ok(out)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale_in_place(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Approximate memory footprint of the matrix payload in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    /// Deterministic pseudo-random matrix for kernel edge-case coverage.
    fn lcg_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for x in m.as_mut_slice() {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map the top bits to [-1, 1).
            *x = ((*seed >> 40) as f32) / ((1u64 << 23) as f32) - 1.0;
        }
        m
    }

    /// Scalar reference with the same per-element ascending-`k` single-chain
    /// accumulation the tiled kernel promises.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_is_bit_identical_to_scalar_reference() {
        // Shapes chosen to exercise full tiles, ragged right/bottom edges and
        // degenerate dimensions of the register-blocked kernel.
        let shapes = [
            (1, 1, 1),
            (4, 8, 16),
            (5, 3, 17),
            (7, 13, 19),
            (3, 1, 33),
            (16, 16, 16),
            (2, 5, 1),
            (1, 7, 16),
        ];
        let mut seed = 0x5eed_cafe;
        for (m, k, n) in shapes {
            let a = lcg_matrix(m, k, &mut seed);
            let b = lcg_matrix(k, n, &mut seed);
            let tiled = a.matmul(&b);
            let reference = matmul_reference(&a, &b);
            assert_eq!(tiled, reference, "diverged at shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_into_known_values_and_shape_mismatch() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let mut out = vec![99.0; 2];
        a.matmul_into(&b, &mut out);
        assert_eq!(out, vec![58.0, 64.0, 139.0, 154.0]);
        assert_eq!(out, a.matmul(&b).into_vec(), "into variant matches matmul");
        assert!(matches!(
            a.try_matmul_into(&a, &mut out),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_batch_into_is_bit_identical_to_matvec_into() {
        let mut seed = 0xbead_f00d;
        // Odd row/column counts exercise ragged weight panels; counts cover
        // the single-vector fast path and partial register tiles.
        for (rows, cols) in [(1, 1), (19, 13), (16, 32), (33, 7)] {
            let w = lcg_matrix(rows, cols, &mut seed);
            for count in [1usize, 2, 4, 5, 9] {
                let xs = lcg_matrix(count, cols, &mut seed);
                let mut batched = Vec::new();
                let mut pack = Vec::new();
                w.matvec_batch_into(xs.as_slice(), count, &mut batched, &mut pack)
                    .unwrap();
                assert_eq!(batched.len(), count * rows);
                let mut single = Vec::new();
                for i in 0..count {
                    w.matvec_into(xs.row(i), &mut single).unwrap();
                    assert_eq!(
                        &batched[i * rows..(i + 1) * rows],
                        single.as_slice(),
                        "diverged at {rows}x{cols}, count {count}, vector {i}"
                    );
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gemm_tile_keeps_the_sign_of_an_all_negative_zero_chain() {
        // Every product is -0.0 (0 * negative) or +0.0 (0 * positive); a
        // chain seeded with +0.0 would turn the first row's -0.0 into +0.0.
        let w = Matrix::from_rows(&[vec![-1.0, -2.0], vec![3.0, 4.0]]);
        let xs = [0.0f32; 4];
        let mut batched = Vec::new();
        let mut pack = Vec::new();
        w.matvec_batch_into(&xs, 2, &mut batched, &mut pack)
            .unwrap();
        let mut single = Vec::new();
        w.matvec_into(&xs[..2], &mut single).unwrap();
        assert_eq!(single[0].to_bits(), 0x8000_0000);
        assert_eq!(bits(&batched[..2]), bits(&single));
        assert_eq!(bits(&batched[2..]), bits(&single));
        assert_eq!(bits(&single), bits(&w.matvec(&xs[..2]).unwrap()));
    }

    #[test]
    fn matvec_into_is_bit_identical_to_matvec_across_row_counts() {
        let mut seed = 0x0dd_5eed;
        // Row counts below, at and past the four-row panel exercise the
        // remainder rows; the all-zero input makes every chain a signed zero.
        for rows in 0..10 {
            for cols in [1usize, 3, 8, 13] {
                let w = lcg_matrix(rows, cols, &mut seed);
                let v = lcg_matrix(1, cols, &mut seed);
                let mut out = vec![7.0; 3];
                for input in [v.row(0).to_vec(), vec![0.0; cols]] {
                    w.matvec_into(&input, &mut out).unwrap();
                    assert_eq!(
                        bits(&out),
                        bits(&w.matvec(&input).unwrap()),
                        "diverged at {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_batch_into_shape_mismatch_errors() {
        let w = Matrix::zeros(3, 4);
        let mut out = Vec::new();
        let mut pack = Vec::new();
        assert!(matches!(
            w.matvec_batch_into(&[0.0; 7], 2, &mut out, &mut pack),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().row(0), &[1.0, 4.0]);
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.5, -3.0], vec![0.125, 4.0, 6.0]]);
        let v = [1.5f32, -2.0, 0.25];
        let mut out = vec![7.0; 5];
        a.matvec_into(&v, &mut out).unwrap();
        assert_eq!(out, a.matvec(&v).unwrap());
        assert!(a.matvec_into(&[1.0], &mut out).is_err());
    }

    #[test]
    fn reserve_rows_preallocates_for_push_row() {
        let mut m = Matrix::zeros(0, 3);
        m.reserve_rows(4);
        let cap = m.data.capacity();
        for _ in 0..4 {
            m.push_row(&[1.0, 2.0, 3.0]);
        }
        assert_eq!(m.data.capacity(), cap, "push_row must not reallocate");
        assert_eq!(m.shape(), (4, 3));
    }

    #[test]
    fn gather_rows_selects_and_reorders() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.row(0), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row length must match")]
    fn push_row_wrong_width_panics() {
        let mut m = Matrix::zeros(1, 3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn truncate_rows_drops_tail_in_place() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        m.truncate_rows(1);
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.row(0), &[1.0, 2.0]);
        m.truncate_rows(1); // no-op at the same size
        assert_eq!(m.shape(), (1, 2));
        m.truncate_rows(0);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncate_rows_rejects_growth() {
        let mut m = Matrix::zeros(2, 2);
        m.truncate_rows(3);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let mut c = a.add(&b).unwrap();
        c.scale_in_place(2.0);
        assert!(c.as_slice().iter().all(|&x| x == 6.0));
        assert!(a.add(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn byte_size_counts_payload() {
        let a = Matrix::zeros(4, 8);
        assert_eq!(a.byte_size(), 4 * 8 * 4);
    }

    #[test]
    fn col_extracts_column() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }
}
