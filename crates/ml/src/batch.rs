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
//!   hoisting the (expensive) kernel evaluations out of the per-tag loop;
//!   the row itself is one [`Kernel::eval_row`], a single scatter of `x`.
//!
//! # Equivalence contract
//!
//! Both batched scorers produce decision values, confidences and orderings
//! **identical** to the scalar [`crate::svm::BinaryClassifier`] path: per-tag terms are
//! accumulated in the same (ascending document-feature / original
//! support-vector) order, so every floating-point operation happens in the
//! same sequence as the scalar code. The only tolerated deviation is the sign
//! of an exact zero (the batched path skips explicitly-zero weights whose
//! `0.0 · v` contributions cannot change a sum). Property tests in this
//! module and protocol-level tests in `p2pclassify` pin the equivalence.

use crate::data::TagId;
use crate::kernel::Kernel;
use crate::multilabel::TagPrediction;
use crate::svm::{KernelSvm, LinearSvm};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
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

/// Hashable identity of a (kernel, support-vector) pair, used to deduplicate
/// kernel evaluations across tags. Values are compared by bit pattern, which
/// is exactly the granularity at which `Kernel::eval` results coincide. The
/// key borrows the vector, so building a scorer allocates nothing per
/// support vector to find its row.
#[derive(Debug, Clone, Copy)]
struct KernelRowKey<'a> {
    kernel: (u8, u64, u64, u32),
    vector: &'a SparseVector,
}

impl PartialEq for KernelRowKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.kernel == other.kernel
            && self.vector.indices() == other.vector.indices()
            && self
                .vector
                .values()
                .iter()
                .zip(other.vector.values())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for KernelRowKey<'_> {}

impl Hash for KernelRowKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kernel.hash(state);
        self.vector.indices().hash(state);
        // Value bits go in through a stack buffer, 32 per `write`: hashing is
        // most of a scorer build, and one `write_u64` per value costs half
        // again as much.
        let mut bytes = [0u8; 256];
        for values in self.vector.values().chunks(32) {
            for (slot, v) in bytes.chunks_exact_mut(8).zip(values) {
                slot.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            state.write(&bytes[..8 * values.len()]);
        }
    }
}

/// Batched scoring over per-tag [`KernelSvm`] models.
///
/// The scalar path evaluates `K(sv, x)` once per (tag, support vector); in a
/// cascade the same document vectors survive as support vectors of many tags,
/// so the kernel row is recomputed per tag. This scorer stores each distinct
/// `(kernel, support vector)` once, evaluates the kernel row once per query,
/// and lets every tag read its terms from the shared row.
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
        let mut seen: HashMap<KernelRowKey<'a>, u32> = HashMap::new();
        for (tag, model) in classifiers {
            if let Some(&last) = tags.last() {
                debug_assert!(last < tag, "classifiers must arrive in ascending tag order");
            }
            tags.push(tag);
            biases.push(model.bias());
            let kernel = model.kernel();
            let mut tag_terms = Vec::with_capacity(model.num_support_vectors());
            for sv in model.support_vectors() {
                let key = KernelRowKey {
                    kernel: kernel.bits(),
                    vector: &sv.vector,
                };
                let idx = *seen.entry(key).or_insert_with(|| {
                    unique.push(sv.vector.clone());
                    match runs.last_mut() {
                        Some((k, end)) if k.bits() == key.kernel => *end += 1,
                        _ => runs.push((kernel, unique.len())),
                    }
                    (unique.len() - 1) as u32
                });
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
    /// The row is one [`Kernel::eval_row`] of `x` against the distinct
    /// support vectors (per kernel run), bit for bit `K(sv, x)`. Per-tag sums
    /// start from the bias and add `alpha·y·K` terms in original
    /// support-vector order, exactly as the scalar
    /// [`crate::svm::BinaryClassifier::decision`] of [`KernelSvm`] does, so the
    /// decisions are identical to the scalar path's.
    pub fn decisions(&self, x: &SparseVector) -> Vec<(TagId, f64)> {
        let mut row = vec![0.0; self.unique.len()];
        let mut start = 0;
        for &(kernel, end) in &self.runs {
            kernel.eval_row(x, &self.unique[start..end], &mut row[start..end]);
            start = end;
        }
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
        ) {
            // Three tags over overlapping SV subsets; the last kernel choice
            // gives each tag its own kernel, so the row spans several runs.
            let pool: Vec<SupportVector> = svs
                .into_iter()
                .map(|(vector, label, alpha)| SupportVector { vector, label, alpha })
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

    /// The scorer's decisions equal each model's scalar decision in
    /// `to_bits`, tag by tag.
    fn assert_decisions_bitwise(models: &BTreeMap<TagId, KernelSvm>, x: &SparseVector) {
        let scorer = BatchKernelScorer::from_classifiers(models.iter().map(|(&t, m)| (t, m)));
        let decisions = scorer.decisions(x);
        assert_eq!(decisions.len(), models.len());
        for ((tag, got), (&want_tag, model)) in decisions.into_iter().zip(models) {
            assert_eq!(tag, want_tag);
            assert_eq!(
                got.to_bits(),
                model.decision(x).to_bits(),
                "tag {tag}: {got} vs {}",
                model.decision(x)
            );
        }
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
