//! Sparse feature vectors.
//!
//! A document `d` is represented by a vector `{w_1, …, w_m}` where `w_j` is the
//! weight of the word with id `j` and `m` is the size of the lexicon (§2 of the
//! paper). Since `m` is typically tens of thousands while a single document only
//! contains a few hundred distinct words, vectors are stored sparsely as sorted
//! `(index, value)` pairs.
//!
//! # Shared storage
//!
//! The parallel index/value arrays live behind [`Arc`]s, so **cloning a
//! `SparseVector` is two reference-count bumps**, never a copy of the
//! underlying entries. The same document vector is held simultaneously by a
//! peer's local dataset, kernel support-vector sets, cascade pools, k-means
//! seeds and LSH index keys; with shared backing all of these point at one
//! allocation. Mutating methods ([`SparseVector::set`],
//! [`SparseVector::scale`], the normalizers) copy-on-write: they only clone
//! the storage when it is actually shared.

use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// The shared index/value backing arrays of a [`SparseVector`].
type SharedBacking = (Arc<Vec<u32>>, Arc<Vec<f64>>);

/// The shared backing of the canonical empty vector, so `SparseVector::new()`
/// stays allocation-free despite the `Arc` indirection.
fn empty_backing() -> SharedBacking {
    static EMPTY: OnceLock<SharedBacking> = OnceLock::new();
    let (i, v) = EMPTY.get_or_init(|| (Arc::new(Vec::new()), Arc::new(Vec::new())));
    (Arc::clone(i), Arc::clone(v))
}

/// A sparse vector stored as parallel, index-sorted arrays behind shared
/// (`Arc`) storage — see the module docs for the sharing contract.
///
/// Invariants maintained by all constructors:
/// * indices are strictly increasing (no duplicates),
/// * no stored value is exactly `0.0`,
/// * `indices.len() == values.len()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    indices: Arc<Vec<u32>>,
    values: Arc<Vec<f64>>,
}

impl Default for SparseVector {
    fn default() -> Self {
        let (indices, values) = empty_backing();
        Self { indices, values }
    }
}

impl SparseVector {
    /// Creates an empty vector (the zero vector).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps freshly built parallel arrays in shared storage.
    fn from_parts(indices: Vec<u32>, values: Vec<f64>) -> Self {
        Self {
            indices: Arc::new(indices),
            values: Arc::new(values),
        }
    }

    /// Whether this vector shares its backing storage with another clone —
    /// diagnostics for the shared-storage contract (two clones of one vector
    /// report `true` until one of them is mutated).
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.indices, &other.indices) && Arc::ptr_eq(&self.values, &other.values)
    }

    /// Creates a vector from unsorted `(index, value)` pairs.
    ///
    /// Duplicate indices are summed; zero-valued entries are dropped.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        let mut pairs: Vec<(u32, f64)> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                if last == i {
                    *values.last_mut().expect("values parallel to indices") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        Self::pruned(indices, values)
    }

    /// Creates a vector from `(index, value)` pairs that are **already in
    /// strictly increasing index order**, skipping the sort-and-merge pass of
    /// [`Self::from_pairs`]. Zero-valued entries are dropped. This is the
    /// construction path for producers whose enumeration is naturally sorted
    /// (dense slices, `BTreeMap` iterations, CSR rows).
    ///
    /// # Panics
    /// Debug builds panic when the indices are not strictly increasing.
    pub fn from_sorted_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        let pairs = pairs.into_iter();
        let (lower, _) = pairs.size_hint();
        let mut indices = Vec::with_capacity(lower);
        let mut values = Vec::with_capacity(lower);
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                debug_assert!(
                    last < i,
                    "indices must be strictly increasing: {last} >= {i}"
                );
            }
            if v != 0.0 {
                indices.push(i);
                values.push(v);
            }
        }
        Self::from_parts(indices, values)
    }

    /// Replaces every stored value by `f(index, value)` in place (copy-on-write
    /// when the storage is shared). `f` must not return `0.0`.
    pub(crate) fn map_values(&mut self, mut f: impl FnMut(u32, f64) -> f64) {
        let values = Arc::make_mut(&mut self.values).iter_mut();
        values
            .zip(self.indices.iter())
            .for_each(|(v, &i)| *v = f(i, *v));
    }

    /// Creates a vector from a dense slice, skipping zero entries. Dense
    /// enumeration is already index-sorted, so this uses the direct
    /// [`Self::from_sorted_pairs`] path (no sort).
    pub fn from_dense(dense: &[f64]) -> Self {
        Self::from_sorted_pairs(dense.iter().enumerate().map(|(i, &v)| (i as u32, v)))
    }

    /// Converts to a dense vector of length `dim`.
    ///
    /// Entries with index `>= dim` are ignored.
    pub fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; dim];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            if (i as usize) < dim {
                out[i as usize] = v;
            }
        }
        out
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when the vector has no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Largest stored index plus one, or 0 for an empty vector.
    pub fn dim_lower_bound(&self) -> usize {
        self.indices.last().map_or(0, |&i| i as usize + 1)
    }

    /// Returns the value stored at `index` (0.0 if absent).
    pub fn get(&self, index: u32) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Sets the value at `index`, inserting, overwriting, or removing as
    /// needed (copy-on-write when the storage is shared).
    pub fn set(&mut self, index: u32, value: f64) {
        match self.indices.binary_search(&index) {
            Ok(pos) => {
                if value == 0.0 {
                    Arc::make_mut(&mut self.indices).remove(pos);
                    Arc::make_mut(&mut self.values).remove(pos);
                } else {
                    Arc::make_mut(&mut self.values)[pos] = value;
                }
            }
            Err(pos) => {
                if value != 0.0 {
                    Arc::make_mut(&mut self.indices).insert(pos, index);
                    Arc::make_mut(&mut self.values).insert(pos, value);
                }
            }
        }
    }

    /// Iterates over `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Stored indices (sorted, strictly increasing).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dot product with another sparse vector.
    pub fn dot(&self, other: &Self) -> f64 {
        // Merge-join over the two sorted index lists.
        let mut sum = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        sum
    }

    /// Dot product with a dense weight vector (entries beyond `dense.len()` are ignored).
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            if let Some(w) = dense.get(i as usize) {
                sum += w * v;
            }
        }
        sum
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Sum of all stored values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Squared Euclidean distance to another sparse vector.
    pub fn distance_sq(&self, other: &Self) -> f64 {
        self.norm_sq() + other.norm_sq() - 2.0 * self.dot(other)
    }

    /// Euclidean distance to another sparse vector.
    pub fn distance(&self, other: &Self) -> f64 {
        self.distance_sq(other).max(0.0).sqrt()
    }

    /// Cosine similarity with another vector; 0.0 if either vector is zero.
    pub fn cosine(&self, other: &Self) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Multiplies every entry by `factor` in place (copy-on-write when the
    /// storage is shared).
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            let (indices, values) = empty_backing();
            self.indices = indices;
            self.values = values;
            return;
        }
        for v in Arc::make_mut(&mut self.values) {
            *v *= factor;
        }
    }

    /// Returns `self + factor * other` as a new vector.
    pub fn add_scaled(&self, other: &Self, factor: f64) -> Self {
        let mut out_idx = Vec::with_capacity(self.nnz() + other.nnz());
        let mut out_val = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() || b < other.indices.len() {
            let take_a = b >= other.indices.len()
                || (a < self.indices.len() && self.indices[a] < other.indices[b]);
            let take_b = a >= self.indices.len()
                || (b < other.indices.len() && other.indices[b] < self.indices[a]);
            if take_a {
                out_idx.push(self.indices[a]);
                out_val.push(self.values[a]);
                a += 1;
            } else if take_b {
                out_idx.push(other.indices[b]);
                out_val.push(factor * other.values[b]);
                b += 1;
            } else {
                out_idx.push(self.indices[a]);
                out_val.push(self.values[a] + factor * other.values[b]);
                a += 1;
                b += 1;
            }
        }
        Self::pruned(out_idx, out_val)
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        self.add_scaled(other, 1.0)
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.add_scaled(other, -1.0)
    }

    /// Normalizes the vector to unit Euclidean length (no-op on the zero vector).
    pub fn l2_normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Normalizes the vector so its entries sum to one (no-op if the sum is zero).
    pub fn l1_normalize(&mut self) {
        let s: f64 = self.values.iter().map(|v| v.abs()).sum();
        if s > 0.0 {
            self.scale(1.0 / s);
        }
    }

    /// Approximate number of bytes required to transmit this vector over the
    /// network (index + value per entry). Used by the communication-cost
    /// accounting of the P2P protocols.
    pub fn wire_size(&self) -> usize {
        self.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
            + std::mem::size_of::<u32>()
    }

    /// Wraps parallel arrays in shared storage, dropping exactly-zero entries.
    fn pruned(mut indices: Vec<u32>, mut values: Vec<f64>) -> Self {
        if values.contains(&0.0) {
            let mut keep = 0usize;
            for k in 0..values.len() {
                if values[k] != 0.0 {
                    indices[keep] = indices[k];
                    values[keep] = values[k];
                    keep += 1;
                }
            }
            indices.truncate(keep);
            values.truncate(keep);
        }
        Self::from_parts(indices, values)
    }
}

impl FromIterator<(u32, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

/// Computes the (dense) mean of a set of sparse vectors.
///
/// Returns the zero vector when `vectors` is empty.
pub fn mean(vectors: &[SparseVector]) -> SparseVector {
    mean_iter(vectors)
}

/// [`mean`] over borrowed vectors from any iterator — the clone-free form the
/// k-means update step uses (members are accumulated straight off the point
/// slice instead of being copied into a scratch `Vec` first). Accumulation
/// order is the iterator order, so for the same sequence of vectors the
/// result is bit-identical to [`mean`].
pub fn mean_iter<'a, I>(vectors: I) -> SparseVector
where
    I: IntoIterator<Item = &'a SparseVector>,
{
    let mut acc = SparseVector::new();
    let mut n = 0usize;
    for v in vectors {
        acc = acc.add(v);
        n += 1;
    }
    if n > 0 {
        acc.scale(1.0 / n as f64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = SparseVector::from_pairs([(5, 1.0), (2, 2.0), (5, 3.0), (9, 0.0)]);
        assert_eq!(v.indices(), &[2, 5]);
        assert_eq!(v.values(), &[2.0, 4.0]);
    }

    #[test]
    fn get_and_set_roundtrip() {
        let mut v = SparseVector::new();
        v.set(10, 2.5);
        v.set(3, 1.0);
        assert_eq!(v.get(10), 2.5);
        assert_eq!(v.get(3), 1.0);
        assert_eq!(v.get(7), 0.0);
        v.set(10, 0.0);
        assert_eq!(v.get(10), 0.0);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn dot_product_matches_dense() {
        let a = SparseVector::from_pairs([(0, 1.0), (2, 3.0), (7, -1.0)]);
        let b = SparseVector::from_pairs([(2, 2.0), (3, 5.0), (7, 4.0)]);
        assert!((a.dot(&b) - (3.0 * 2.0 - 1.0 * 4.0)).abs() < 1e-12);
        let da = a.to_dense(8);
        assert!((a.dot_dense(&da) - a.norm_sq()).abs() < 1e-12);
    }

    #[test]
    fn add_scaled_and_sub() {
        let a = SparseVector::from_pairs([(1, 1.0), (4, 2.0)]);
        let b = SparseVector::from_pairs([(1, 1.0), (3, 3.0)]);
        let c = a.add_scaled(&b, -1.0);
        assert_eq!(c.get(1), 0.0);
        assert_eq!(c.get(3), -3.0);
        assert_eq!(c.get(4), 2.0);
        // Entries cancelled to zero are not stored.
        assert_eq!(c.nnz(), 2);
        assert_eq!(a.sub(&b), c);
    }

    #[test]
    fn normalization() {
        let mut v = SparseVector::from_pairs([(0, 3.0), (1, 4.0)]);
        v.l2_normalize();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        let mut u = SparseVector::from_pairs([(0, 3.0), (1, 1.0)]);
        u.l1_normalize();
        assert!((u.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_and_distance() {
        let a = SparseVector::from_pairs([(0, 1.0)]);
        let b = SparseVector::from_pairs([(1, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
        assert!((a.distance(&b) - 2f64.sqrt()).abs() < 1e-12);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_vectors() {
        let a = SparseVector::from_pairs([(0, 2.0)]);
        let b = SparseVector::from_pairs([(1, 4.0)]);
        let m = mean(&[a, b]);
        assert_eq!(m.get(0), 1.0);
        assert_eq!(m.get(1), 2.0);
        assert!(mean(&[]).is_empty());
    }

    #[test]
    fn mean_iter_is_bit_identical_to_mean() {
        let vs: Vec<SparseVector> = (0..7)
            .map(|i| SparseVector::from_pairs([(i, 1.0 + 0.3 * i as f64), (i + 2, -0.7)]))
            .collect();
        let a = mean(&vs);
        let b = mean_iter(vs.iter());
        assert_eq!(a, b);
        for (x, y) in a.values().iter().zip(b.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(mean_iter(std::iter::empty()).is_empty());
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let a = SparseVector::from_pairs([(0, 1.0), (3, 2.0)]);
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        // Copy-on-write: mutating one clone must not disturb the other.
        let mut c = a.clone();
        c.set(3, 9.0);
        assert!(!c.shares_storage_with(&a));
        assert_eq!(a.get(3), 2.0);
        assert_eq!(c.get(3), 9.0);
        let mut d = a.clone();
        d.scale(2.0);
        assert_eq!(a.get(0), 1.0);
        assert_eq!(d.get(0), 2.0);
        // The empty vector is allocation-shared globally.
        assert!(SparseVector::new().shares_storage_with(&SparseVector::default()));
    }

    #[test]
    fn dense_roundtrip() {
        let dense = [0.0, 1.5, 0.0, -2.0];
        let v = SparseVector::from_dense(&dense);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.to_dense(4), dense.to_vec());
    }

    #[test]
    fn from_sorted_pairs_matches_from_pairs_on_sorted_input() {
        let pairs = [(1u32, 0.5), (4, 0.0), (7, -2.0), (9, 1.0)];
        let direct = SparseVector::from_sorted_pairs(pairs);
        let sorted = SparseVector::from_pairs(pairs);
        assert_eq!(direct, sorted);
        assert_eq!(direct.nnz(), 3);
        assert!(SparseVector::from_sorted_pairs([]).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_pairs_rejects_unsorted_input_in_debug() {
        SparseVector::from_sorted_pairs([(5u32, 1.0), (2, 1.0)]);
    }
}
