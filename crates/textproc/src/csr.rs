//! Compressed sparse row (CSR) matrices over document vectors.
//!
//! A peer's corpus is a list of [`SparseVector`]s: every row owns two small
//! heap allocations, and a training pass that touches all rows chases one
//! pointer pair per document. [`CsrMatrix`] materializes the same rows **once**
//! into three contiguous arrays (`indptr`, `indices`, `values`), which is the
//! layout the CSR-native training path iterates: rows stream through the cache
//! in order, and the per-row kernels ([`CsrMatrix::row_dot_dense`],
//! [`CsrMatrix::row_axpy_into`]) can elide per-element bounds checks because
//! the matrix proves `index < dim` for every stored entry at construction.
//!
//! The row kernels accumulate strictly in stored (ascending-index) order —
//! the same order [`SparseVector::dot_dense`] and the scalar SVM solvers use —
//! so replacing a `&[SparseVector]` walk with a CSR walk is bit-for-bit
//! neutral on every floating-point result. The equivalence suites in `ml` and
//! `p2pclassify` pin this.

use crate::sparse::SparseVector;

/// A read-only CSR matrix: row `i` occupies `indices[indptr[i]..indptr[i+1]]`
/// (strictly increasing within a row) and the parallel `values` range.
///
/// # Invariant
///
/// Every stored index is `< self.dim()`. The hot row kernels rely on this to
/// skip per-element bounds checks after a single `w.len() >= dim` assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    dim: usize,
}

impl Default for CsrMatrix {
    /// The empty (zero-row) matrix. `indptr` still holds the leading 0 the
    /// layout invariant requires.
    fn default() -> Self {
        Self::from_vectors(&[])
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from a slice of sparse rows (one pass, `O(nnz)`).
    pub fn from_vectors(rows: &[SparseVector]) -> Self {
        Self::from_rows(rows.iter())
    }

    /// Builds a CSR matrix from any iterator of sparse rows.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a SparseVector>,
    {
        let rows = rows.into_iter();
        let mut indptr = Vec::with_capacity(rows.size_hint().0 + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in rows {
            // Mirror of the row invariant the unsafe kernels rely on:
            // stored indices strictly increase within a row (SparseVector
            // construction guarantees it; cheap to re-check here, where a
            // violation would otherwise surface as silent wrong sums).
            debug_assert!(
                row.indices().windows(2).all(|w| w[0] < w[1]),
                "CSR source row indices must be strictly increasing"
            );
            debug_assert_eq!(
                row.indices().len(),
                row.values().len(),
                "CSR source row indices/values must be parallel"
            );
            indices.extend_from_slice(row.indices());
            values.extend_from_slice(row.values());
            indptr.push(indices.len());
        }
        // Establish the `index < dim` invariant from the stored entries
        // themselves, not from `SparseVector::dim_lower_bound` (which trusts
        // the last entry to be the largest — a property only debug builds
        // assert during construction). The row kernels' bounds-check elision
        // rests on this, so it must hold even for malformed input rows.
        let dim = indices.iter().max().map_or(0, |&i| i as usize + 1);
        Self {
            indptr,
            indices,
            values,
            dim,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column-dimension lower bound: the largest stored index plus one,
    /// computed from the stored entries at construction (0 when every row is
    /// empty). Every stored index is strictly below this — for well-formed
    /// rows it equals the maximum [`SparseVector::dim_lower_bound`].
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries in row `i`.
    #[cfg(test)]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// The `(indices, values)` slices of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Iterates over `(index, value)` pairs of row `i` in ascending index
    /// order — the same enumeration [`SparseVector::iter`] produces.
    pub fn iter_row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (idx, val) = self.row(i);
        idx.iter().copied().zip(val.iter().copied())
    }

    /// Materializes row `i` as an owned [`SparseVector`] (copies the row; use
    /// the borrowing accessors on hot paths).
    pub fn row_vector(&self, i: usize) -> SparseVector {
        SparseVector::from_sorted_pairs(self.iter_row(i))
    }

    /// Squared Euclidean norm of row `i`, accumulated in stored order —
    /// bit-identical to [`SparseVector::norm_sq`] on the same row.
    pub fn row_norm_sq(&self, i: usize) -> f64 {
        let (_, val) = self.row(i);
        val.iter().map(|v| v * v).sum()
    }

    /// Dot product of row `i` with a dense vector, accumulated in stored
    /// (ascending-index) order — bit-identical to
    /// [`SparseVector::dot_dense`] on the same row whenever
    /// `w.len() >= self.dim()`.
    ///
    /// # Panics
    /// Panics when `w.len() < self.dim()` (the construction invariant then
    /// guarantees every stored index is in bounds, so the inner loop runs
    /// without per-element checks).
    #[inline]
    pub fn row_dot_dense(&self, i: usize, w: &[f64]) -> f64 {
        assert!(
            w.len() >= self.dim,
            "dense vector too short: {} < {}",
            w.len(),
            self.dim
        );
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        debug_assert!(lo <= hi && hi <= self.values.len());
        let mut sum = 0.0;
        // SAFETY: `lo..hi` is a valid entry range by construction (`indptr`
        // is built monotonically with final value `indices.len() ==
        // values.len()`), and every stored index is < self.dim <= w.len()
        // (`dim` is the max stored index + 1, re-derived from the entries at
        // construction; the assert above checks `w`).
        unsafe {
            for k in lo..hi {
                sum += self.values.get_unchecked(k)
                    * w.get_unchecked(*self.indices.get_unchecked(k) as usize);
            }
        }
        sum
    }

    /// `w[j] += factor * row[i][j]` for every stored entry of row `i`, in
    /// stored order — the scatter step of the SVM solvers, bit-identical to
    /// the per-entry loop over [`SparseVector::iter`].
    ///
    /// # Panics
    /// Panics when `w.len() < self.dim()`.
    #[inline]
    pub fn row_axpy_into(&self, i: usize, factor: f64, w: &mut [f64]) {
        assert!(
            w.len() >= self.dim,
            "dense vector too short: {} < {}",
            w.len(),
            self.dim
        );
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        debug_assert!(lo <= hi && hi <= self.values.len());
        // SAFETY: same invariant as `row_dot_dense`: `lo..hi` indexes valid
        // entries of the parallel `indices`/`values` arrays, and each stored
        // index `j` satisfies `j < self.dim <= w.len()` (construction
        // derives `dim` from the stored entries; the assert above checks
        // `w`), so `get_unchecked_mut(j)` stays in bounds.
        unsafe {
            for k in lo..hi {
                let j = *self.indices.get_unchecked(k) as usize;
                *w.get_unchecked_mut(j) += factor * self.values.get_unchecked(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SparseVector> {
        vec![
            SparseVector::from_pairs([(0, 1.0), (4, -2.0)]),
            SparseVector::new(),
            SparseVector::from_pairs([(2, 0.5), (3, 1.5), (7, 3.0)]),
        ]
    }

    #[test]
    fn layout_matches_source_rows() {
        let rows = rows();
        let csr = CsrMatrix::from_vectors(&rows);
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.dim(), 8);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(csr.row_nnz(i), r.nnz());
            assert_eq!(csr.row(i).0, r.indices());
            assert_eq!(csr.row(i).1, r.values());
            assert_eq!(csr.row_vector(i), *r);
            assert!(csr.iter_row(i).eq(r.iter()));
        }
    }

    #[test]
    fn row_kernels_are_bit_identical_to_sparse_vector_ops() {
        let rows = rows();
        let csr = CsrMatrix::from_vectors(&rows);
        let w: Vec<f64> = (0..csr.dim()).map(|j| 0.3 * j as f64 - 1.0).collect();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                csr.row_dot_dense(i, &w).to_bits(),
                r.dot_dense(&w).to_bits()
            );
            assert_eq!(csr.row_norm_sq(i).to_bits(), r.norm_sq().to_bits());
            let mut a = w.clone();
            let mut b = w.clone();
            csr.row_axpy_into(i, 0.7, &mut a);
            for (idx, v) in r.iter() {
                b[idx as usize] += 0.7 * v;
            }
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn empty_matrix_is_well_formed() {
        let csr = CsrMatrix::from_vectors(&[]);
        assert!(csr.is_empty());
        assert_eq!(csr.dim(), 0);
        assert_eq!(csr.nnz(), 0);
        // Default must be the same well-formed empty matrix (a derived
        // Default would leave indptr without its leading 0).
        let default = CsrMatrix::default();
        assert_eq!(default, csr);
        assert!(default.is_empty());
        assert_eq!(default.num_rows(), 0);
        // A zero-dim matrix accepts any dense vector.
        let csr2 = CsrMatrix::from_vectors(&[SparseVector::new()]);
        assert_eq!(csr2.num_rows(), 1);
        assert_eq!(csr2.row_dot_dense(0, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dense vector too short")]
    fn short_dense_vector_panics() {
        let csr = CsrMatrix::from_vectors(&rows());
        csr.row_dot_dense(0, &[0.0; 4]);
    }
}
