//! A minimal dense row-major matrix plus the workspace's numeric kernel
//! layer.
//!
//! The kernels ([`dot`], [`axpy`], [`Matrix::gemv_into`],
//! [`Matrix::matmul`]) are the shared substrate every hot training and
//! resampling path routes through. They are written unroll-friendly —
//! eight independent accumulator lanes per loop — so the compiler can break
//! the floating-point dependency chain that keeps naive scalar loops at
//! one add per FPU latency. The summation order of each kernel is
//! **fixed** (lane sums combined pairwise, then the tail), so results
//! are deterministic run-to-run and identical regardless of how callers
//! chunk the surrounding work; that property is what the parallel
//! bootstrap/Sinkhorn/trainer paths build their bitwise-equality
//! contract on. With the `simd` cargo feature, [`dot`]/[`axpy`] (and
//! therefore gemv/gemm) dispatch to explicit AVX2 kernels at runtime —
//! same lanes, same combine order, bitwise-identical results (see
//! `stats::kernel::simd`). The scalar reference [`dot_scalar`] stays
//! in-tree as the baseline the `bench_kernels` group and the equivalence
//! tests compare against; the per-row scalar matrix–vector product built
//! on it lives with the test and the bench that use it.

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    pub fn new(data: Vec<f64>, n_rows: usize, n_cols: usize) -> Matrix {
        assert_eq!(
            data.len(),
            n_rows * n_cols,
            "matrix data length {} != {n_rows}x{n_cols}",
            data.len()
        );
        Matrix {
            data,
            n_rows,
            n_cols,
        }
    }

    /// Creates a zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Matrix {
        Matrix {
            data: vec![0.0; n_rows * n_cols],
            n_rows,
            n_cols,
        }
    }

    /// Builds a matrix from row slices.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let n_cols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == n_cols),
            "ragged rows in from_rows"
        );
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix {
            data,
            n_rows: rows.len(),
            n_cols,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The row at `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.n_cols;
        &self.data[start..start + self.n_cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let start = i * self.n_cols;
        &mut self.data[start..start + self.n_cols]
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n_cols + j]
    }

    /// Element mutation.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n_cols + j] = v;
    }

    /// Writes column `j` into `out` (cleared first), reusing its
    /// allocation.
    pub fn col_into(&self, j: usize, out: &mut Vec<f64>) {
        assert!(j < self.n_cols, "column {j} out of range");
        out.clear();
        out.reserve(self.n_rows);
        out.extend(self.data[j..].iter().step_by(self.n_cols));
    }

    /// Matrix–vector product `X · w` into a fresh vector.
    pub fn matvec(&self, w: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_rows];
        self.gemv_into(w, &mut out);
        out
    }

    /// Allocation-free matrix–vector product: `out[i] = X.row(i) · w`.
    ///
    /// Routes through the dispatching [`gemv`], so with the `simd`
    /// feature on AVX2 hardware rows advance four at a time, 256 bits
    /// wide — bitwise-identical to [`Matrix::gemv_into_fused`].
    pub fn gemv_into(&self, w: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), self.n_cols, "gemv dimension mismatch");
        assert_eq!(out.len(), self.n_rows, "gemv output length mismatch");
        gemv(&self.data, self.n_cols, w, out);
    }

    /// [`Matrix::gemv_into`] pinned to the fused-scalar kernel,
    /// bypassing SIMD dispatch. The reference arm `bench_kernels` and
    /// the scalar/fused/SIMD equivalence suites compare against.
    pub fn gemv_into_fused(&self, w: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), self.n_cols, "gemv dimension mismatch");
        assert_eq!(out.len(), self.n_rows, "gemv output length mismatch");
        for (o, row) in out.iter_mut().zip(self.rows()) {
            *o = dot_fused(row, w);
        }
    }

    /// A packed transpose (column-major view materialized row-major).
    pub fn transposed(&self) -> Matrix {
        let mut data = vec![0.0; self.data.len()];
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                data[j * self.n_rows + i] = self.data[i * self.n_cols + j];
            }
        }
        Matrix {
            data,
            n_rows: self.n_cols,
            n_cols: self.n_rows,
        }
    }

    /// Dense product `A · B` for small matrices, computed through a
    /// packed transpose of `B` so both operands stream row-major.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.n_cols, other.n_rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.n_rows, self.n_cols, other.n_rows, other.n_cols
        );
        self.matmul_tn(&other.transposed())
    }

    /// Dense product `A · Bᵀᵀ` where `bt` is `B` **already transposed**
    /// (`bt.row(j)` is `B`'s column `j`). Cache-blocked over output
    /// tiles so a block of `A` rows is reused against a block of `bt`
    /// rows while both sit in cache; every inner product runs on the
    /// fused [`dot`] kernel.
    pub fn matmul_tn(&self, bt: &Matrix) -> Matrix {
        assert_eq!(
            self.n_cols, bt.n_cols,
            "matmul_tn inner dimension mismatch: {} vs {}",
            self.n_cols, bt.n_cols
        );
        const BLOCK: usize = 32;
        let (n, m) = (self.n_rows, bt.n_rows);
        let mut out = Matrix::zeros(n, m);
        for ib in (0..n).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(n);
            for jb in (0..m).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(m);
                for i in ib..i_end {
                    let a_row = self.row(i);
                    let out_row = &mut out.data[i * m..(i + 1) * m];
                    for (j, o) in out_row[jb..j_end].iter_mut().enumerate() {
                        *o = dot(a_row, bt.row(jb + j));
                    }
                }
            }
        }
        out
    }

    /// A new matrix containing the given rows (indices may repeat).
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.n_cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            data,
            n_rows: indices.len(),
            n_cols: self.n_cols,
        }
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.n_cols)
    }

    /// The row-major backing storage as a slice — the handle trainers
    /// use to run raw [`gemv`]/[`KernelSet`] kernels over row blocks
    /// without going through per-row accessors.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning its row-major backing storage —
    /// lets trainers recycle one allocation across repeated fits.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }
}

// The fused inner loops live in `fairbridge_stats::kernel` (the lowest
// crate that needs them — Sinkhorn and the parallel bootstrap share the
// exact same code paths); this module re-exports them so the matrix
// layer remains the one-stop numeric kernel surface for model code.
pub use fairbridge_stats::kernel::{
    axpy, axpy_fused, div_into, div_into_fused, dot, dot_fused, dot_scalar, gemv, gemv_fused,
    mul_into, mul_into_fused, scale_into, scale_into_fused, simd_active, sum, sum_fused, KernelSet,
    DISPATCH_KERNELS, FUSED_KERNELS,
};

/// Squared Euclidean distance between two equal-length slices.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 2), 3.0);
        let mut col = Vec::new();
        m.col_into(1, &mut col);
        assert_eq!(col, vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "matrix data length")]
    fn bad_dimensions_panic() {
        Matrix::new(vec![1.0], 2, 3);
    }

    #[test]
    fn from_rows_matches_new() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m, Matrix::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2));
    }

    #[test]
    fn matvec_correct() {
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 1.0]]);
        assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, 10.0]);
    }

    #[test]
    fn gemv_matches_scalar_reference() {
        // 7 columns exercises both the unrolled body and the tail.
        let rows: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                (0..7)
                    .map(|j| ((i * 7 + j) % 11) as f64 * 0.3 - 1.0)
                    .collect()
            })
            .collect();
        let m = Matrix::from_rows(&rows);
        let w: Vec<f64> = (0..7).map(|j| j as f64 * 0.17 - 0.5).collect();
        let fused = m.matvec(&w);
        // Scalar reference: a single-accumulator dot per row.
        let scalar: Vec<f64> = (0..m.n_rows()).map(|i| dot_scalar(m.row(i), &w)).collect();
        for (f, s) in fused.iter().zip(&scalar) {
            assert!((f - s).abs() < 1e-12, "fused {f} vs scalar {s}");
        }
    }

    #[test]
    fn dot_is_chunking_invariant() {
        // The fused kernel must give bitwise-identical results whether a
        // caller processes a slice whole or in pieces that are themselves
        // multiples of the unroll width.
        let a: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..64).map(|i| (i as f64).cos()).collect();
        let whole = dot(&a, &b);
        let halves = dot(&a[..32], &b[..32]) + dot(&a[32..], &b[32..]);
        // NOT asserted bitwise — chunk sums combine differently; the
        // parallel kernels therefore always hand *whole rows* to `dot`.
        assert!((whole - halves).abs() < 1e-12);
        // Same input, same call shape → bitwise equal.
        assert_eq!(whole.to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn axpy_matches_reference() {
        let x: Vec<f64> = (0..11).map(|i| i as f64 * 0.25).collect();
        let mut y = vec![1.0; 11];
        let mut y_ref = y.clone();
        axpy(-0.5, &x, &mut y);
        for (r, v) in y_ref.iter_mut().zip(&x) {
            *r += -0.5 * v;
        }
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.n_cols(), 2);
        let naive = |i: usize, j: usize| (0..3).map(|k| a.get(i, k) * b.get(k, j)).sum::<f64>();
        for i in 0..2 {
            for j in 0..2 {
                assert!((c.get(i, j) - naive(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmul_blocked_matches_unblocked_on_odd_shapes() {
        // 37×23 · 23×41 crosses several 32-wide block boundaries.
        let a = Matrix::new(
            (0..37 * 23)
                .map(|i| ((i % 17) as f64) * 0.3 - 1.0)
                .collect(),
            37,
            23,
        );
        let b = Matrix::new(
            (0..23 * 41)
                .map(|i| ((i % 13) as f64) * 0.7 - 2.0)
                .collect(),
            23,
            41,
        );
        let c = a.matmul(&b);
        for i in [0, 17, 36] {
            for j in [0, 31, 32, 40] {
                let naive: f64 = (0..23).map(|k| a.get(i, k) * b.get(k, j)).sum();
                assert!(
                    (c.get(i, j) - naive).abs() < 1e-9,
                    "({i},{j}): {} vs {naive}",
                    c.get(i, j)
                );
            }
        }
    }

    #[test]
    fn transposed_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transposed();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.row(1), &[2.0, 5.0]);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn take_rows_duplicates() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let t = m.take_rows(&[2, 2, 0]);
        let mut col = Vec::new();
        t.col_into(0, &mut col);
        assert_eq!(col, vec![3.0, 3.0, 1.0]);
    }

    #[test]
    fn col_into_reuses_buffer_and_matches_deprecated_col() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut buf = Vec::with_capacity(8);
        m.col_into(0, &mut buf);
        assert_eq!(buf, vec![1.0, 3.0, 5.0]);
        let cap = buf.capacity();
        m.col_into(1, &mut buf);
        assert_eq!(buf, vec![2.0, 4.0, 6.0]);
        assert_eq!(buf.capacity(), cap, "buffer reallocated");
    }

    #[test]
    fn set_and_row_mut() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 1, 5.0);
        m.row_mut(0)[0] = -1.0;
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(0, 0), -1.0);
    }

    #[test]
    fn into_data_returns_row_major_storage() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.into_data(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot_scalar(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
