//! Batched one-vs-all scoring: the hot path of the tagging system.
//!
//! The scalar path scores a document with one dot product per (tag,
//! classifier): `T` walks over `T` different dense weight vectors, plus a
//! `Vec` allocation and a sort per call. At realistic tag-vocabulary sizes
//! (Golder & Huberman: thousands of tags) that per-tag loop dominates the
//! whole pipeline. This module packs all per-tag models into shared read-only
//! structures so scoring a document against the *entire* tag universe is a
//! single pass over the document's nonzeros:
//!
//! * [`TagWeightMatrix`] — a CSR-style sparse matrix over the per-tag
//!   [`LinearSvm`] weight vectors, indexed by *feature*: row `j` holds the
//!   `(tag, weight)` pairs of every tag whose model has a nonzero weight on
//!   feature `j`. Scoring scatters each document nonzero into per-tag
//!   accumulators (one contiguous `f64` slab), instead of gathering scattered
//!   dense-vector entries per tag.
//! * [`BatchKernelScorer`] — the analogous entry point for [`KernelSvm`]
//!   ensembles: the kernel row `K(sv, x)` is computed **once per distinct
//!   support vector** and shared by every tag that retains that vector,
//!   hoisting the (expensive) kernel evaluations out of the per-tag loop.
//!   The row itself is one scatter of the query's nonzeros through inverted
//!   postings over the distinct vectors, so a query pays for the nonzeros
//!   it shares with them, not for all of theirs; the postings and the
//!   vectors' squared norms are built once, on the scorer's first query.
//!   Building the scorer finds the distinct vectors by storage first: a
//!   support vector whose storage it has seen (a clone, as a decoded model
//!   or a cascade's pooled vectors are) costs one address lookup, and a
//!   vector's content is hashed only the first time its storage appears.
//!
//! # Equivalence contract
//!
//! Both batched scorers produce decision values, confidences and orderings
//! **identical** to the scalar [`crate::svm::BinaryClassifier`] path: per-tag terms are
//! accumulated in the same (ascending document-feature / original
//! support-vector) order, so every floating-point operation happens in the
//! same sequence as the scalar code. The only tolerated deviation is the sign
//! of an exact zero (the batched path skips explicitly-zero weights whose
//! `0.0 · v` contributions cannot change a sum). The kernel scorer has no
//! such exception: its postings scatter forms each kernel's dot product
//! from the same products in the same order as the merge-join, and
//! finishes it through the same expression with the same norms, so its
//! decisions match the scalar ones in every bit, NaN and ±∞ included. (Rust
//! leaves unspecified which NaN an addition of two NaNs returns, so an
//! optimizer that orders such operands differently in the two paths may
//! flip a NaN decision's sign; unoptimized builds keep source order, and
//! the tests hold them to every bit.) Property tests in this
//! module and protocol-level tests in `p2pclassify` pin the equivalence.

use crate::data::TagId;
use crate::distinct::DistinctIds;
use crate::kernel::Kernel;
use crate::multilabel::TagPrediction;
use crate::svm::{KernelSvm, LinearSvm};
use std::collections::BTreeSet;
use std::sync::OnceLock;
use textproc::SparseVector;

/// Logistic squashing, identical to the scalar scoring path's.
#[inline]
fn logistic(score: f64) -> f64 {
    1.0 / (1.0 + (-score).exp())
}

/// Sorts predictions by descending score — stable, with the exact comparator
/// the scalar [`crate::multilabel::OneVsAllModel::scores`] uses, so tie-breaks
/// agree bit for bit (both paths start from ascending-tag order).
fn sort_by_descending_score(out: &mut [TagPrediction]) {
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// All per-tag linear models packed into one shared CSR matrix, plus the
/// threshold/min-tags prediction policy of the one-vs-all model it was built
/// from.
///
/// Layout: `row_ptr[j]..row_ptr[j + 1]` delimits the entries of feature `j`
/// in the parallel `entry_slot` / `entry_weight` arrays; `entry_slot[e]` is
/// an index into `tags` (ascending tag order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TagWeightMatrix {
    tags: Vec<TagId>,
    biases: Vec<f64>,
    row_ptr: Vec<u32>,
    entry_slot: Vec<u32>,
    entry_weight: Vec<f64>,
    threshold: f64,
    min_tags: usize,
}

impl TagWeightMatrix {
    /// Packs per-tag linear models into a CSR matrix.
    ///
    /// `threshold` and `min_tags` replicate the prediction policy of the
    /// one-vs-all model (see [`Self::predict`]).
    pub fn from_classifiers<'a, I>(classifiers: I, threshold: f64, min_tags: usize) -> Self
    where
        I: IntoIterator<Item = (TagId, &'a LinearSvm)>,
    {
        let models: Vec<(TagId, &LinearSvm)> = classifiers.into_iter().collect();
        debug_assert!(
            models.windows(2).all(|w| w[0].0 < w[1].0),
            "classifiers must arrive in ascending tag order"
        );
        let num_features = models
            .iter()
            .map(|(_, m)| m.weights().len())
            .max()
            .unwrap_or(0);
        // Count nonzero weights per feature row, then prefix-sum into row_ptr.
        let mut row_len = vec![0u32; num_features];
        for (_, model) in &models {
            for (j, &w) in model.weights().iter().enumerate() {
                if w != 0.0 {
                    row_len[j] += 1;
                }
            }
        }
        let mut row_ptr = Vec::with_capacity(num_features + 1);
        let mut acc = 0u32;
        row_ptr.push(0);
        for &len in &row_len {
            acc += len;
            row_ptr.push(acc);
        }
        let nnz = acc as usize;
        let mut entry_slot = vec![0u32; nnz];
        let mut entry_weight = vec![0.0f64; nnz];
        let mut cursor: Vec<u32> = row_ptr[..num_features].to_vec();
        let mut tags = Vec::with_capacity(models.len());
        let mut biases = Vec::with_capacity(models.len());
        for (slot, (tag, model)) in models.iter().enumerate() {
            tags.push(*tag);
            biases.push(model.bias());
            for (j, &w) in model.weights().iter().enumerate() {
                if w != 0.0 {
                    let e = cursor[j] as usize;
                    entry_slot[e] = slot as u32;
                    entry_weight[e] = w;
                    cursor[j] += 1;
                }
            }
        }
        Self {
            tags,
            biases,
            row_ptr,
            entry_slot,
            entry_weight,
            threshold,
            min_tags,
        }
    }

    /// Number of tags (matrix columns).
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }

    /// The tags, in ascending order (the slot order of all per-slot output).
    pub fn tags(&self) -> &[TagId] {
        &self.tags
    }

    /// Number of stored nonzero weights.
    pub fn nnz(&self) -> usize {
        self.entry_weight.len()
    }

    /// Raw decision values for every tag, written into `out` in slot
    /// (ascending tag) order. One pass over the document's nonzeros.
    ///
    /// Identical to calling `classifier.decision(x)` per tag: terms are
    /// accumulated in ascending feature order and the bias is added last,
    /// mirroring `dot_dense(x) + bias`.
    pub fn decisions_into(&self, x: &SparseVector, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.tags.len(), 0.0);
        let num_features = self.row_ptr.len().saturating_sub(1);
        for (j, v) in x.iter() {
            let j = j as usize;
            if j >= num_features {
                // Features beyond every model's weight vector contribute
                // nothing (the scalar path's `dense.get(i)` misses).
                continue;
            }
            let lo = self.row_ptr[j] as usize;
            let hi = self.row_ptr[j + 1] as usize;
            for e in lo..hi {
                out[self.entry_slot[e] as usize] += self.entry_weight[e] * v;
            }
        }
        for (slot, bias) in self.biases.iter().enumerate() {
            out[slot] += bias;
        }
    }

    /// Unpacks the matrix back into per-tag dense classifiers.
    ///
    /// Every reconstructed weight vector has length `num_features` (the
    /// packed dimension); stored nonzeros land at their original indices and
    /// everything else is `0.0`, so decisions — and warm-started retraining,
    /// which only reads the weights — are identical to the pre-pack model.
    /// This lets a model registry keep nothing but the CSR matrix at rest
    /// and materialize the dense form only for the one peer being refit.
    pub fn to_one_vs_all(&self) -> crate::multilabel::OneVsAllModel<LinearSvm> {
        let num_features = self.row_ptr.len().saturating_sub(1);
        let mut weights = vec![vec![0.0f64; num_features]; self.tags.len()];
        for (j, row) in self.row_ptr.windows(2).enumerate() {
            for e in row[0] as usize..row[1] as usize {
                weights[self.entry_slot[e] as usize][j] = self.entry_weight[e];
            }
        }
        let classifiers: std::collections::BTreeMap<TagId, LinearSvm> = self
            .tags
            .iter()
            .zip(weights.into_iter().zip(self.biases.iter()))
            .map(|(&tag, (w, &bias))| (tag, LinearSvm::from_weights(w, bias)))
            .collect();
        crate::multilabel::OneVsAllModel::from_classifiers(
            classifiers,
            self.threshold,
            self.min_tags,
        )
    }

    /// Raw decision values for every tag (allocating convenience wrapper).
    pub fn decisions(&self, x: &SparseVector) -> Vec<f64> {
        let mut out = Vec::new();
        self.decisions_into(x, &mut out);
        out
    }

    /// Scores every tag for the document, sorted by descending score —
    /// the batched equivalent of [`crate::multilabel::OneVsAllModel::scores`].
    pub fn scores(&self, x: &SparseVector) -> Vec<TagPrediction> {
        let mut scratch = Vec::new();
        self.scores_with_scratch(x, &mut scratch)
    }

    /// [`Self::scores`] with a caller-provided scratch buffer, so tight loops
    /// over many documents avoid re-allocating the accumulator slab.
    pub fn scores_with_scratch(
        &self,
        x: &SparseVector,
        scratch: &mut Vec<f64>,
    ) -> Vec<TagPrediction> {
        self.decisions_into(x, scratch);
        let mut out: Vec<TagPrediction> = self
            .tags
            .iter()
            .zip(scratch.iter())
            .map(|(&tag, &score)| TagPrediction {
                tag,
                score,
                confidence: logistic(score),
            })
            .collect();
        sort_by_descending_score(&mut out);
        out
    }

    /// Confidence votes in slot (ascending tag) order, **unsorted**: each
    /// prediction carries `score == confidence == logistic(decision)`. This
    /// is the form PACE's ensemble vote consumes; skipping the per-model sort
    /// is safe because vote combination is per-tag and order-independent.
    pub fn confidence_votes_into(
        &self,
        x: &SparseVector,
        scratch: &mut Vec<f64>,
        out: &mut Vec<TagPrediction>,
    ) {
        self.decisions_into(x, scratch);
        out.clear();
        out.extend(self.tags.iter().zip(scratch.iter()).map(|(&tag, &score)| {
            let confidence = logistic(score);
            TagPrediction {
                tag,
                score: confidence,
                confidence,
            }
        }));
    }

    /// Predicts the tag set — the batched equivalent of
    /// [`crate::multilabel::OneVsAllModel::predict`]: tags whose decision
    /// value reaches the threshold, or the top `min_tags` tags if none does.
    pub fn predict(&self, x: &SparseVector) -> BTreeSet<TagId> {
        let scores = self.scores(x);
        let above: BTreeSet<TagId> = scores
            .iter()
            .filter(|p| p.score >= self.threshold)
            .map(|p| p.tag)
            .collect();
        if !above.is_empty() {
            return above;
        }
        crate::multilabel::top_scored_tags(&scores, self.min_tags)
    }

    /// Scores a whole slice of documents, in input order. Documents are
    /// scored independently (and in parallel when cores are available); the
    /// ordered reduction keeps the output deterministic.
    pub fn scores_batch(&self, xs: &[SparseVector]) -> Vec<Vec<TagPrediction>> {
        let chunk = xs
            .len()
            .div_ceil(parallel::effective_threads(xs.len()).max(1))
            .max(1);
        let per_chunk = parallel::par_chunks(xs, chunk, |_, docs| {
            let mut scratch = Vec::new();
            docs.iter()
                .map(|x| self.scores_with_scratch(x, &mut scratch))
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }
}

/// Batched scoring over per-tag [`KernelSvm`] models.
///
/// The scalar path evaluates `K(sv, x)` once per (tag, support vector); in a
/// cascade the same document vectors survive as support vectors of many tags,
/// so the kernel row is recomputed per tag. This scorer stores each distinct
/// `(kernel, support vector)` once, evaluates the kernel row once per query,
/// and lets every tag read its terms from the shared row. Distinct vectors
/// are numbered in first-appearance order by storage identity, falling back
/// to indices and value bits on a storage's first sighting, so `unique`
/// does not depend on how the vectors are stored.
///
/// The row is priced through inverted postings over the distinct vectors,
/// built with their squared norms on the first query after construction: a
/// re-cascade that replaces the scorer before anyone queries it never pays
/// for them.
#[derive(Debug, Clone, Default)]
pub struct BatchKernelScorer {
    tags: Vec<TagId>,
    biases: Vec<f64>,
    /// Per tag slot: `(unique_row_index, alpha · y)` in original SV order.
    terms: Vec<Vec<(u32, f64)>>,
    /// Distinct (kernel, support vector) pairs' vectors, in first-seen order.
    unique: Vec<SparseVector>,
    /// `unique` as runs of one kernel: `(kernel, end)` covers
    /// `unique[previous end..end]` — one run whenever the tags share a
    /// kernel, as a region's cascaded models do.
    runs: Vec<(Kernel, usize)>,
    /// Postings and norms of `unique`, built by the first `decisions`.
    index: OnceLock<SupportIndex>,
}

/// Inverted postings over a scorer's distinct support vectors, and their
/// squared norms.
///
/// `features` holds, ascending, every index some vector stores;
/// `offsets[k]..offsets[k + 1]` delimits feature `k`'s postings in the
/// parallel `ids` / `values` arrays (12 bytes per stored nonzero), with
/// vector ids ascending within each feature. A query index is found through
/// `directory`: the span `features[0] ..= features[F - 1]` is cut into a
/// power of two buckets, about two per feature, of width `1 << shift`, and
/// `directory[b]..directory[b + 1]` are the positions of bucket `b`'s
/// features, which a binary search covers. Over a vocabulary that is a
/// handful of features per bucket; a skewed span (a hostile frame can carry
/// any `u32`) only degrades it towards one binary search over `features`.
/// (One binary search over all of `features` per query nonzero, about
/// `log₂ F` hard-to-predict steps, costs more than the whole kernel row of a
/// scorer with a few support vectors.)
/// Everything is sized by the features and nonzeros actually present,
/// never by an index value.
#[derive(Debug, Clone)]
struct SupportIndex {
    norms_sq: Vec<f64>,
    features: Vec<u32>,
    /// `features[0]` and `features[F - 1] - features[0]` (0 and 0 when
    /// there are none).
    lo: u32,
    span: u32,
    directory: Vec<u32>,
    shift: u32,
    offsets: Vec<u32>,
    ids: Vec<u32>,
    values: Vec<f64>,
}

impl SupportIndex {
    /// Indexes `vectors` (vector id = position) in two passes over the
    /// nonzeros around one sort. The first pass packs each nonzero's
    /// feature and position into a `u64` key, the sort orders the keys by
    /// feature and then position, and the second pass emits the postings
    /// in that order. Positions follow vector ids, so each feature's ids
    /// come out ascending, and no nonzero is searched for.
    fn build(vectors: &[SparseVector]) -> Self {
        let norms_sq = vectors.iter().map(SparseVector::norm_sq).collect();
        let nnz: usize = vectors.iter().map(SparseVector::nnz).sum();
        // Positions, offsets and ids below are then `u32` without loss.
        let nnz_u32 = u32::try_from(nnz).expect("fewer than 2³² stored nonzeros");
        let mut keys: Vec<u64> = Vec::with_capacity(nnz);
        let mut stored: Vec<(u32, f64)> = Vec::with_capacity(nnz);
        for (id, z) in vectors.iter().enumerate() {
            for (j, v) in z.iter() {
                keys.push(u64::from(j) << 32 | stored.len() as u64);
                stored.push((id as u32, v));
            }
        }
        keys.sort_unstable();
        let mut features: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(nnz);
        let mut values: Vec<f64> = Vec::with_capacity(nnz);
        for (e, &key) in keys.iter().enumerate() {
            let j = (key >> 32) as u32;
            if features.last() != Some(&j) {
                features.push(j);
                offsets.push(e as u32);
            }
            let (id, v) = stored[key as u32 as usize];
            ids.push(id);
            values.push(v);
        }
        offsets.push(nnz_u32);
        // `span >> shift` < buckets, so every feature has a bucket.
        let buckets = 2 * features.len().next_power_of_two();
        let lo = features.first().copied().unwrap_or(0);
        let span = features.last().map_or(0, |&hi| hi - lo);
        let shift = (u32::BITS - span.leading_zeros()).saturating_sub(buckets.trailing_zeros());
        let mut directory = vec![0u32; buckets + 1];
        for &j in &features {
            directory[((j - lo) >> shift) as usize + 1] += 1;
        }
        for b in 1..directory.len() {
            directory[b] += directory[b - 1];
        }
        Self {
            norms_sq,
            features,
            lo,
            span,
            directory,
            shift,
            offsets,
            ids,
            values,
        }
    }

    /// The position of feature `j` in `features`, if some vector stores it.
    #[inline]
    fn position(&self, j: u32) -> Option<usize> {
        // Below `lo`, the offset wraps past `span`.
        let offset = j.wrapping_sub(self.lo);
        if offset > self.span {
            return None;
        }
        let b = (offset >> self.shift) as usize;
        let bucket = self.directory[b] as usize..self.directory[b + 1] as usize;
        let p = self.features[bucket.clone()].binary_search(&j).ok()?;
        Some(bucket.start + p)
    }

    /// Adds `z_j · x_j` into `row[id]` for every stored nonzero `z_j` of
    /// vector `id` at an index `j` that `x` holds, taking `x`'s nonzeros in
    /// ascending index order.
    fn scatter(&self, x: &SparseVector, row: &mut [f64]) {
        for (j, xv) in x.iter() {
            let Some(k) = self.position(j) else {
                continue;
            };
            let postings = self.offsets[k] as usize..self.offsets[k + 1] as usize;
            for (&id, &zv) in self.ids[postings.clone()]
                .iter()
                .zip(&self.values[postings])
            {
                row[id as usize] += zv * xv;
            }
        }
    }
}

impl BatchKernelScorer {
    /// Builds a batched scorer over per-tag kernel models.
    pub fn from_classifiers<'a, I>(classifiers: I) -> Self
    where
        I: IntoIterator<Item = (TagId, &'a KernelSvm)>,
    {
        let mut tags = Vec::new();
        let mut biases = Vec::new();
        let mut terms: Vec<Vec<(u32, f64)>> = Vec::new();
        let mut unique: Vec<SparseVector> = Vec::new();
        let mut runs: Vec<(Kernel, usize)> = Vec::new();
        let mut ids = DistinctIds::new();
        for (tag, model) in classifiers {
            if let Some(&last) = tags.last() {
                debug_assert!(last < tag, "classifiers must arrive in ascending tag order");
            }
            tags.push(tag);
            biases.push(model.bias());
            let kernel = model.kernel();
            let mut tag_terms = Vec::with_capacity(model.num_support_vectors());
            for sv in model.support_vectors() {
                let (idx, first) = ids.id(kernel.bits(), &sv.vector);
                if first {
                    unique.push(sv.vector.clone());
                    match runs.last_mut() {
                        Some((k, end)) if k.bits() == kernel.bits() => *end += 1,
                        _ => runs.push((kernel, unique.len())),
                    }
                }
                let y = if sv.label { 1.0 } else { -1.0 };
                tag_terms.push((idx, sv.alpha * y));
            }
            terms.push(tag_terms);
        }
        Self {
            tags,
            biases,
            terms,
            unique,
            runs,
            index: OnceLock::new(),
        }
    }

    /// Number of tags.
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }

    /// The tags, in ascending order.
    pub fn tags(&self) -> &[TagId] {
        &self.tags
    }

    /// Number of distinct support vectors shared across all tags (versus
    /// [`Self::total_terms`] scalar kernel evaluations without sharing).
    pub fn num_unique_vectors(&self) -> usize {
        self.unique.len()
    }

    /// Total number of (tag, support-vector) terms — the number of kernel
    /// evaluations the scalar path performs per query.
    pub fn total_terms(&self) -> usize {
        self.terms.iter().map(Vec::len).sum()
    }

    /// Evaluates the shared kernel row once, then reduces per tag. Returns
    /// `(tag, decision)` in ascending tag order.
    ///
    /// Per-tag sums start from the bias and add `alpha·y·K` terms from the
    /// row (`K(sv, x)`, bit for bit) in original support-vector order,
    /// exactly as the scalar [`crate::svm::BinaryClassifier::decision`] of
    /// [`KernelSvm`] does, so the decisions are identical to the scalar
    /// path's — infinities included, and a NaN wherever the scalar path
    /// yields one.
    pub fn decisions(&self, x: &SparseVector) -> Vec<(TagId, f64)> {
        let row = self.kernel_row(x);
        self.tags
            .iter()
            .zip(self.terms.iter().zip(&self.biases))
            .map(|(&tag, (terms, &bias))| {
                let mut sum = bias;
                for &(idx, coef) in terms {
                    sum += coef * row[idx as usize];
                }
                (tag, sum)
            })
            .collect()
    }

    /// `K(z, x)` for every distinct support vector `z`, in `unique` order,
    /// bit for bit [`Kernel::eval`]`(z, x)`.
    ///
    /// One scatter of `x` through the postings adds `z_j · x_j` into `z`'s
    /// entry for every index both hold, in ascending index order from
    /// `+0.0`: the products, operand order and summation order of the
    /// merge-join `z.dot(x)` that `eval` forms. Each entry is then finished
    /// through `eval`'s own expression with the cached `‖z‖²` and `‖x‖²`,
    /// per kernel run. The first call builds the postings.
    fn kernel_row(&self, x: &SparseVector) -> Vec<f64> {
        let index = self.index.get_or_init(|| SupportIndex::build(&self.unique));
        let mut row = vec![0.0; self.unique.len()];
        index.scatter(x, &mut row);
        let x_norm_sq = x.norm_sq();
        let mut start = 0;
        for &(kernel, end) in &self.runs {
            for (dot, &z_norm_sq) in row[start..end].iter_mut().zip(&index.norms_sq[start..end]) {
                *dot = kernel.finish_dot(*dot, || (z_norm_sq, x_norm_sq));
            }
            start = end;
        }
        row
    }

    /// Scores every tag, sorted by descending score — the batched equivalent
    /// of [`crate::multilabel::OneVsAllModel::scores`] over kernel models.
    pub fn scores(&self, x: &SparseVector) -> Vec<TagPrediction> {
        let mut out: Vec<TagPrediction> = self
            .decisions(x)
            .into_iter()
            .map(|(tag, score)| TagPrediction {
                tag,
                score,
                confidence: logistic(score),
            })
            .collect();
        sort_by_descending_score(&mut out);
        out
    }

    /// Scores a whole slice of documents, in input order (parallel when
    /// cores are available, with an ordered reduction).
    pub fn scores_batch(&self, xs: &[SparseVector]) -> Vec<Vec<TagPrediction>> {
        parallel::par_map(xs, |x| self.scores(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::wild;
    use crate::multilabel::{OneVsAllModel, OneVsAllTrainer};
    use crate::svm::{BinaryClassifier, KernelSvmTrainer, LinearSvmTrainer, SupportVector};
    use crate::MultiLabelExample;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sparse(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    /// A small trained one-vs-all linear model over three separable tags.
    fn trained_linear() -> OneVsAllModel<LinearSvm> {
        let mut ds = crate::MultiLabelDataset::new();
        for i in 0..15 {
            let s = 1.0 + 0.05 * (i % 4) as f64;
            ds.push(MultiLabelExample::new(sparse(&[(0, s)]), [1]));
            ds.push(MultiLabelExample::new(sparse(&[(1, s)]), [2]));
            ds.push(MultiLabelExample::new(sparse(&[(2, s), (0, 0.2)]), [5]));
        }
        OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default())
    }

    #[test]
    fn matrix_scores_equal_scalar_scores_on_trained_model() {
        let model = trained_linear();
        let matrix = model.weight_matrix();
        assert_eq!(matrix.num_tags(), model.num_tags());
        for probe in [
            sparse(&[(0, 1.0)]),
            sparse(&[(1, 0.7), (2, 0.3)]),
            sparse(&[(9, 2.0)]),
            SparseVector::new(),
        ] {
            assert_eq!(matrix.scores(&probe), model.scores(&probe));
            assert_eq!(matrix.predict(&probe), model.predict(&probe));
        }
    }

    #[test]
    fn matrix_round_trips_to_identical_dense_model() {
        let model = trained_linear();
        let matrix = model.weight_matrix();
        let rebuilt = matrix.to_one_vs_all();
        assert_eq!(rebuilt.num_tags(), model.num_tags());
        for ((tag_a, a), (tag_b, b)) in model.iter().zip(rebuilt.iter()) {
            assert_eq!(tag_a, tag_b);
            assert_eq!(a.bias(), b.bias());
            // Same values at every index; the reconstructed vector may carry
            // trailing zeros up to the packed dimension.
            for j in 0..a.weights().len().max(b.weights().len()) {
                let wa = a.weights().get(j).copied().unwrap_or(0.0);
                let wb = b.weights().get(j).copied().unwrap_or(0.0);
                assert_eq!(wa, wb, "tag {tag_a} weight {j}");
            }
        }
        for probe in [
            sparse(&[(0, 1.0)]),
            sparse(&[(1, 0.7), (2, 0.3)]),
            SparseVector::new(),
        ] {
            assert_eq!(rebuilt.scores(&probe), model.scores(&probe));
            assert_eq!(rebuilt.predict(&probe), model.predict(&probe));
        }
    }

    #[test]
    fn matrix_decisions_match_per_classifier_decisions_bitwise() {
        let model = trained_linear();
        let matrix = model.weight_matrix();
        let probe = sparse(&[(0, 0.4), (1, -1.2), (2, 0.9)]);
        let decisions = matrix.decisions(&probe);
        for (slot, (tag, clf)) in model.iter().enumerate() {
            let scalar = clf.decision(&probe);
            assert_eq!(matrix.tags()[slot], tag);
            assert_eq!(decisions[slot].to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn scores_batch_matches_individual_scores() {
        let model = trained_linear();
        let matrix = model.weight_matrix();
        let docs: Vec<SparseVector> = (0..20)
            .map(|i| sparse(&[(i % 3, 0.5 + 0.1 * i as f64), (3, -0.2)]))
            .collect();
        let batch = matrix.scores_batch(&docs);
        assert_eq!(batch.len(), docs.len());
        for (x, scores) in docs.iter().zip(&batch) {
            assert_eq!(scores, &matrix.scores(x));
        }
    }

    #[test]
    fn kernel_scorer_dedupes_shared_support_vectors() {
        // Two tags retaining the same two vectors: 4 scalar kernel terms but
        // only 2 distinct rows.
        let v1 = sparse(&[(0, 1.0)]);
        let v2 = sparse(&[(1, 1.0)]);
        let sv = |v: &SparseVector, label, alpha| SupportVector {
            vector: v.clone(),
            label,
            alpha,
        };
        let m1 = KernelSvm::from_support_vectors(
            vec![sv(&v1, true, 0.5), sv(&v2, false, 0.25)],
            0.1,
            Kernel::Linear,
        );
        let m2 = KernelSvm::from_support_vectors(
            vec![sv(&v2, true, 1.0), sv(&v1, false, 0.75)],
            -0.2,
            Kernel::Linear,
        );
        let models = BTreeMap::from([(3u32, m1), (8u32, m2)]);
        let scorer = BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
        assert_eq!(scorer.total_terms(), 4);
        assert_eq!(scorer.num_unique_vectors(), 2);
        let probe = sparse(&[(0, 0.3), (1, 0.6)]);
        for (tag, decision) in scorer.decisions(&probe) {
            assert_eq!(
                decision.to_bits(),
                models[&tag].decision(&probe).to_bits(),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn kernel_scorer_equals_scalar_on_trained_models() {
        let mut ds = crate::MultiLabelDataset::new();
        for i in 0..12 {
            let s = 0.9 + 0.05 * (i % 5) as f64;
            ds.push(MultiLabelExample::new(sparse(&[(0, s)]), [1]));
            ds.push(MultiLabelExample::new(sparse(&[(1, s)]), [2]));
        }
        let model = OneVsAllTrainer::default().train_kernel(&ds, &KernelSvmTrainer::default());
        let scorer = model.kernel_scorer();
        for probe in [sparse(&[(0, 1.0)]), sparse(&[(1, 0.5), (0, 0.1)])] {
            assert_eq!(scorer.scores(&probe), model.scores(&probe));
        }
        // Cascade-style sharing really happens: both tags draw SVs from the
        // same per-peer corpus.
        assert!(scorer.num_unique_vectors() <= scorer.total_terms());
    }

    fn arb_sparse(max_dim: u32, max_nnz: usize) -> impl Strategy<Value = SparseVector> {
        prop::collection::vec((0..max_dim, -2.0f64..2.0), 0..max_nnz)
            .prop_map(SparseVector::from_pairs)
    }

    /// Random dense weight rows (with deliberate exact zeros) for synthetic
    /// linear models, bypassing training so the property covers weight
    /// patterns training would rarely produce.
    fn arb_linear_models() -> impl Strategy<Value = Vec<(TagId, LinearSvm)>> {
        prop::collection::vec(
            (
                0u32..40,
                prop::collection::vec(-3.0f64..3.0, 0..12),
                -1.0f64..1.0,
            ),
            1..8,
        )
        .prop_map(|rows| {
            let mut out: BTreeMap<TagId, LinearSvm> = BTreeMap::new();
            for (tag, mut weights, bias) in rows {
                // Zero out every third entry so the CSR prune path is hit.
                for (i, w) in weights.iter_mut().enumerate() {
                    if i % 3 == 0 {
                        *w = 0.0;
                    }
                }
                out.insert(tag, LinearSvm::from_weights(weights, bias));
            }
            out.into_iter().collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matrix_equivalence_property(
            models in arb_linear_models(),
            x in arb_sparse(16, 10),
        ) {
            let scalar = OneVsAllModel::from_classifiers(
                models.iter().map(|(t, m)| (*t, m.clone())).collect(),
                0.0,
                1,
            );
            let matrix =
                TagWeightMatrix::from_classifiers(models.iter().map(|(t, m)| (*t, m)), 0.0, 1);
            prop_assert_eq!(matrix.scores(&x), scalar.scores(&x));
            prop_assert_eq!(matrix.predict(&x), scalar.predict(&x));
        }

        #[test]
        fn kernel_equivalence_property(
            svs in prop::collection::vec(
                (arb_sparse(12, 6), any::<bool>(), 0.01f64..2.0),
                1..10,
            ),
            x in arb_sparse(12, 8),
        ) {
            // Two tags sampling overlapping subsets of the same SV pool, as a
            // cascade produces.
            let pool: Vec<SupportVector> = svs
                .into_iter()
                .map(|(vector, label, alpha)| SupportVector { vector, label, alpha })
                .collect();
            let take = |step: usize| -> Vec<SupportVector> {
                pool.iter().step_by(step).cloned().collect()
            };
            let kernel = Kernel::Rbf { gamma: 0.8 };
            let m1 = KernelSvm::from_support_vectors(take(1), 0.3, kernel);
            let m2 = KernelSvm::from_support_vectors(take(2), -0.1, kernel);
            let models = BTreeMap::from([(1u32, m1), (2u32, m2)]);
            let scorer =
                BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
            let scalar = OneVsAllModel::from_classifiers(models, 0.0, 1);
            prop_assert_eq!(scorer.scores(&x), scalar.scores(&x));
        }

        #[test]
        fn kernel_decisions_equal_scalar_bitwise_on_any_values(
            svs in prop::collection::vec(
                (wild::vector(10), any::<bool>(), wild::value()),
                1..10,
            ),
            x in wild::vector(14),
            kernel_pick in 0usize..4,
            shift_pick in 0usize..3,
        ) {
            // Three tags over overlapping SV subsets; the last kernel choice
            // gives each tag its own kernel, so the row spans several runs.
            // Every index may be shifted past 2²⁰, up to `u32::MAX`.
            let shift = [0, (1u32 << 20) - 5, u32::MAX - 13][shift_pick];
            let shifted =
                |v: SparseVector| SparseVector::from_pairs(v.iter().map(|(j, z)| (j + shift, z)));
            let x = shifted(x);
            let pool: Vec<SupportVector> = svs
                .into_iter()
                .map(|(vector, label, alpha)| SupportVector { vector: shifted(vector), label, alpha })
                .collect();
            let models: BTreeMap<TagId, KernelSvm> = (0..3usize)
                .map(|t| {
                    let kernel = wild::KERNELS[if kernel_pick == 3 { t } else { kernel_pick }];
                    let svs = pool.iter().skip(t).step_by(t + 1).cloned().collect();
                    (t as TagId, KernelSvm::from_support_vectors(svs, 0.1 * t as f64, kernel))
                })
                .collect();
            assert_decisions_bitwise(&models, &x);
        }
    }

    /// `v`'s bits. An optimized build alone reads every NaN as the one NaN:
    /// Rust leaves the sign and payload of a NaN that arithmetic produces
    /// unspecified, and the optimizer may order the operands of an addition
    /// of two NaNs differently in two code paths (a scatter into memory
    /// versus a sum in a register). Unoptimized builds keep source operand
    /// order, and there the NaNs must match bit for bit too.
    fn value_bits(v: f64) -> u64 {
        if v.is_nan() && cfg!(not(debug_assertions)) {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// The scorer's kernel row equals [`Kernel::eval_row`]'s, run by run,
    /// and its decisions equal each model's scalar decision, all in
    /// [`value_bits`].
    fn assert_decisions_bitwise(models: &BTreeMap<TagId, KernelSvm>, x: &SparseVector) {
        let scorer = BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
        assert_row_matches_eval_row(&scorer, x);
        let decisions = scorer.decisions(x);
        assert_eq!(decisions.len(), models.len());
        for ((tag, got), (&want_tag, model)) in decisions.into_iter().zip(models) {
            assert_eq!(tag, want_tag);
            assert_eq!(
                value_bits(got),
                value_bits(model.decision(x)),
                "tag {tag}: {got} vs {}",
                model.decision(x)
            );
        }
    }

    fn assert_row_matches_eval_row(scorer: &BatchKernelScorer, x: &SparseVector) {
        let bits = |row: &[f64]| row.iter().copied().map(value_bits).collect::<Vec<_>>();
        let mut want = vec![0.0; scorer.unique.len()];
        let mut start = 0;
        for &(kernel, end) in &scorer.runs {
            let zs = &scorer.unique[start..end];
            let norms: Vec<f64> = zs.iter().map(SparseVector::norm_sq).collect();
            kernel.eval_row(x, x.norm_sq(), zs, &norms, &mut want[start..end]);
            start = end;
        }
        assert_eq!(start, scorer.unique.len());
        assert_eq!(bits(&scorer.kernel_row(x)), bits(&want));
    }

    fn decision_bits(scorer: &BatchKernelScorer, x: &SparseVector) -> Vec<(TagId, u64)> {
        let decisions = scorer.decisions(x).into_iter();
        decisions.map(|(tag, d)| (tag, value_bits(d))).collect()
    }

    /// Three tags, each with its own kernel (three runs), over support
    /// vectors indexed up to `u32::MAX`.
    fn far_indexed_models() -> BTreeMap<TagId, KernelSvm> {
        let top = u32::MAX;
        let sv = |pairs: &[(u32, f64)], label, alpha| SupportVector {
            vector: sparse(pairs),
            label,
            alpha,
        };
        let pool = [
            sv(&[(3, 1.5), (1 << 20, 0.5), (top, 1.0)], true, 0.5),
            sv(&[((1 << 20) - 1, -1.0), (top - 1, -4.0)], false, 0.75),
            sv(&[(top - 2, f64::INFINITY)], true, 0.25),
            sv(&[(7, 2.0)], false, 1.0),
        ];
        wild::KERNELS
            .into_iter()
            .enumerate()
            .map(|(t, kernel)| {
                let svs = pool.iter().skip(t % 2).cloned().collect();
                (
                    t as TagId,
                    KernelSvm::from_support_vectors(svs, 0.1, kernel),
                )
            })
            .collect()
    }

    #[test]
    fn kernel_scorer_handles_indices_past_two_to_the_twenty_and_disjoint_queries() {
        let top = u32::MAX;
        let models = far_indexed_models();
        let scorer = BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
        assert_eq!(scorer.runs.len(), 3);
        for x in [
            sparse(&[
                (3, 2.0),
                (1 << 20, 1.0),
                (top - 1, 0.5),
                (top, f64::INFINITY),
            ]),
            sparse(&[((1 << 20) - 1, 1.0), (top - 2, 1e-200)]),
            // Shares no feature with any support vector.
            sparse(&[(0, 1.0), (5, -1.0), (top - 3, 2.0)]),
            SparseVector::new(),
        ] {
            assert_decisions_bitwise(&models, &x);
        }
    }

    /// A kernel's parameters by bit pattern.
    type KernelBits = (u8, u64, u64, u32);

    /// The content-only dedup `from_classifiers` replaced, kept as its
    /// oracle: every support vector's (kernel, indices, value bits) looked
    /// up in one map. Returns `(terms, unique, runs)` as the scorer keeps
    /// them, coefficients and kernels by bits.
    #[allow(clippy::type_complexity)]
    fn content_only_dedup(
        models: &BTreeMap<TagId, KernelSvm>,
    ) -> (
        Vec<Vec<(u32, u64)>>,
        Vec<SparseVector>,
        Vec<(KernelBits, usize)>,
    ) {
        let mut seen: BTreeMap<(KernelBits, Vec<u32>, Vec<u64>), u32> = BTreeMap::new();
        let (mut terms, mut unique, mut runs) = (Vec::new(), Vec::new(), Vec::new());
        for model in models.values() {
            let kernel = model.kernel().bits();
            let mut tag_terms = Vec::new();
            for sv in model.support_vectors() {
                let bits = sv.vector.values().iter().map(|v| v.to_bits()).collect();
                let key = (kernel, sv.vector.indices().to_vec(), bits);
                let idx = *seen.entry(key).or_insert_with(|| {
                    unique.push(sv.vector.clone());
                    match runs.last_mut() {
                        Some((k, end)) if *k == kernel => *end += 1,
                        _ => runs.push((kernel, unique.len())),
                    }
                    (unique.len() - 1) as u32
                });
                let y = if sv.label { 1.0 } else { -1.0 };
                tag_terms.push((idx, (sv.alpha * y).to_bits()));
            }
            terms.push(tag_terms);
        }
        (terms, unique, runs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn scorer_dedup_by_storage_equals_the_content_only_loop(
            pool in prop::collection::vec(wild::vector(10), 1..6),
            tags in prop::collection::vec(
                (
                    0usize..3,
                    prop::collection::vec((0usize..6, any::<bool>(), any::<bool>(), wild::value()), 0..6),
                ),
                0..5,
            ),
            x in wild::vector(12),
        ) {
            // Support vectors share the pool's storage or hold content-equal
            // copies; tags mix kernels, so equal vectors of two kernels are
            // two rows.
            let copy = |v: &SparseVector| SparseVector::from_sorted_pairs(v.iter());
            let models: BTreeMap<TagId, KernelSvm> = tags
                .iter()
                .enumerate()
                .map(|(t, (kernel, svs))| {
                    let svs = svs
                        .iter()
                        .map(|&(pick, shared, label, alpha)| {
                            let v = &pool[pick % pool.len()];
                            let vector = if shared { v.clone() } else { copy(v) };
                            SupportVector { vector, label, alpha }
                        })
                        .collect();
                    let model = KernelSvm::from_support_vectors(svs, 0.1, wild::KERNELS[*kernel]);
                    (t as TagId, model)
                })
                .collect();
            let scorer = BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
            let (terms, unique, runs) = content_only_dedup(&models);
            let term_bits: Vec<Vec<(u32, u64)>> = scorer
                .terms
                .iter()
                .map(|t| t.iter().map(|&(idx, coef)| (idx, coef.to_bits())).collect())
                .collect();
            prop_assert_eq!(term_bits, terms);
            prop_assert_eq!(scorer.unique.len(), unique.len());
            for (got, want) in scorer.unique.iter().zip(&unique) {
                prop_assert!(got.shares_storage_with(want));
            }
            let run_bits: Vec<(KernelBits, usize)> =
                scorer.runs.iter().map(|&(k, end)| (k.bits(), end)).collect();
            prop_assert_eq!(run_bits, runs);
            assert_decisions_bitwise(&models, &x);
        }
    }

    #[test]
    fn empty_scorers_score_only_their_biases() {
        let x = sparse(&[(0, 1.0), (u32::MAX, 2.0)]);
        for scorer in [
            BatchKernelScorer::default(),
            BatchKernelScorer::from_classifiers(std::iter::empty()),
        ] {
            assert!(scorer.decisions(&x).is_empty());
            assert!(scorer.kernel_row(&x).is_empty());
        }
        // Tags whose models kept no support vector: no rows, bias only.
        let bare = KernelSvm::from_support_vectors(Vec::new(), -0.5, Kernel::default());
        let models = BTreeMap::from([(4u32, bare.clone()), (9u32, bare)]);
        let scorer = BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
        assert_eq!(scorer.num_unique_vectors(), 0);
        assert_eq!(
            decision_bits(&scorer, &x),
            vec![(4, (-0.5f64).to_bits()), (9, (-0.5f64).to_bits())]
        );
        assert_decisions_bitwise(&models, &x);
    }

    #[test]
    fn clones_score_alike_before_and_after_the_index_exists() {
        let models = far_indexed_models();
        let scorer = BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
        let x = sparse(&[(3, 2.0), (7, -1.0), (u32::MAX, 0.5)]);
        let before = scorer.clone();
        assert!(scorer.index.get().is_none() && before.index.get().is_none());
        let want = decision_bits(&scorer, &x);
        assert!(scorer.index.get().is_some());
        assert!(before.index.get().is_none(), "a clone owns its own index");
        let after = scorer.clone();
        assert!(after.index.get().is_some(), "a clone keeps a built index");
        assert_eq!(decision_bits(&before, &x), want);
        assert_eq!(decision_bits(&after, &x), want);
        assert_eq!(decision_bits(&scorer, &x), want);
    }

    #[test]
    fn kernel_scores_batch_on_a_fresh_scorer_equals_sequential_scores() {
        let models = far_indexed_models();
        let fresh = || BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
        let docs: Vec<SparseVector> = (0..64u32)
            .map(|i| sparse(&[(3, 0.1 * i as f64), (7, 1.0), (u32::MAX - i % 3, -0.5)]))
            .collect();
        // Every worker of the batch finds the index unbuilt and races to it.
        let batch = fresh().scores_batch(&docs);
        let sequential = fresh();
        let want: Vec<Vec<TagPrediction>> = docs.iter().map(|x| sequential.scores(x)).collect();
        assert_eq!(batch, want);
    }

    #[test]
    fn kernel_scorer_equals_scalar_on_decoded_models_with_non_finite_values() {
        let sv = |pairs: &[(u32, f64)], label, alpha| SupportVector {
            vector: sparse(pairs),
            label,
            alpha,
        };
        let mut models = BTreeMap::new();
        for (tag, kernel) in wild::KERNELS.into_iter().enumerate() {
            let model = KernelSvm::from_support_vectors(
                vec![
                    sv(&[(0, f64::NAN), (3, 1.0)], true, 0.5),
                    sv(&[(1, f64::INFINITY)], false, f64::INFINITY),
                    sv(&[(2, 1e-200), (4_000, -2.0)], true, f64::NAN),
                    sv(&[(3, -1.5)], false, 0.25),
                ],
                if tag == 2 { f64::NEG_INFINITY } else { 0.3 },
                kernel,
            );
            // Through the wire codec, as a super-peer receives it.
            let mut frame = Vec::new();
            crate::codec::encode_kernel_svm(&model, crate::WeightPrecision::F64, &mut frame);
            let decoded =
                crate::codec::decode_kernel_svm(&mut crate::ByteReader::new(&frame)).unwrap();
            models.insert(tag as TagId, decoded);
        }
        for x in [
            sparse(&[(0, 1.0), (1, 0.5), (3, 2.0)]),
            sparse(&[(1, 0.0), (2, 1e-200), (3, -0.5)]),
            sparse(&[(9_000, 1.0)]),
            sparse(&[(1, f64::NEG_INFINITY), (4_000, f64::NAN)]),
            SparseVector::new(),
        ] {
            assert_decisions_bitwise(&models, &x);
        }
    }
}
