//! One-vs-all reduction of multi-label tagging to binary classification.
//!
//! "We simplify the multi-label classification problem into numerous
//! single-label classification problems […] for each c ∈ Y, we learn a function
//! f_c : X → {0, 1} indicating whether or not the tag is assigned to the
//! document. The binary classifiers are constructed using the one-against-all
//! method" (§2). This module implements that reduction generically over any
//! [`BinaryClassifier`].

use crate::batch::{BatchKernelScorer, TagWeightMatrix};
use crate::data::{MultiLabelDataset, TagId};
use crate::svm::{
    gram_matrix, BinaryClassifier, CsrLinearTrainer, KernelSvm, KernelSvmTrainer, LinearSvm,
    LinearSvmTrainer,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use textproc::SparseVector;

/// A scored tag suggestion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagPrediction {
    /// The suggested tag.
    pub tag: TagId,
    /// Raw decision value of the tag's binary classifier (higher = more confident).
    pub score: f64,
    /// Squashed confidence in (0, 1) (logistic of the score), used by the tag
    /// cloud font sizing and the confidence slider.
    pub confidence: f64,
}

/// Configuration of the one-vs-all reduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OneVsAllTrainer {
    /// Decision threshold above which a tag is assigned.
    pub threshold: f64,
    /// If no score reaches the threshold, assign the top `min_tags` tags anyway
    /// (documents in the corpus always carry at least one tag).
    pub min_tags: usize,
    /// Tags with fewer positive training examples than this are skipped.
    pub min_positive: usize,
}

impl Default for OneVsAllTrainer {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            min_tags: 1,
            min_positive: 1,
        }
    }
}

/// A trained set of per-tag binary classifiers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OneVsAllModel<C> {
    classifiers: BTreeMap<TagId, C>,
    threshold: f64,
    min_tags: usize,
}

impl OneVsAllTrainer {
    /// Trains one binary classifier per tag using `train_fn`.
    ///
    /// `train_fn` receives the one-against-all view for each tag: the feature
    /// vectors and, for each, whether it is a positive example of the tag.
    /// The feature vectors are borrowed from the dataset **once** and shared
    /// by every per-tag problem (only the boolean label mask is per-tag), and
    /// the per-tag problems are trained in parallel — each invocation of
    /// `train_fn` is independent, so `train_fn` must be `Fn + Sync` and must
    /// not share mutable state (seed any RNG per call, as the SVM trainers
    /// do). The resulting model is identical to sequential training. It
    /// drives the scalar oracles only.
    #[cfg(test)]
    pub fn train_with<C, F>(&self, data: &MultiLabelDataset, train_fn: F) -> OneVsAllModel<C>
    where
        C: BinaryClassifier + Send,
        F: Fn(TagId, &[SparseVector], &[bool]) -> C + Sync,
    {
        let xs = data.vectors();
        let tags = self.eligible_tags(data);
        let trained = parallel::par_map(&tags, |&tag| {
            let ys = data.label_mask(tag);
            train_fn(tag, xs, &ys)
        });
        self.assemble(tags, trained)
    }

    /// The tags eligible for a one-vs-all reduction over `data` (at least
    /// [`Self::min_positive`] positive examples), in ascending order.
    fn eligible_tags(&self, data: &MultiLabelDataset) -> Vec<TagId> {
        data.tag_counts()
            .into_iter()
            .filter(|&(_, count)| count >= self.min_positive)
            .map(|(tag, _)| tag)
            .collect()
    }

    /// Assembles a model from per-tag classifiers trained in tag order.
    fn assemble<C: BinaryClassifier>(&self, tags: Vec<TagId>, trained: Vec<C>) -> OneVsAllModel<C> {
        let classifiers: BTreeMap<TagId, C> = tags.into_iter().zip(trained).collect();
        OneVsAllModel {
            classifiers,
            threshold: self.threshold,
            min_tags: self.min_tags,
        }
    }

    /// Drives every per-tag linear problem off one shared CSR training
    /// context: `fit(ctx, mask, tag)` runs with the dataset-level state
    /// (matrix, DCD diagonal, feature support, shuffle orders, solver
    /// scratch) already hoisted out of the per-tag loop. Tag chunks fan out
    /// across cores, each chunk sequentially reusing its own context; the
    /// ordered reduction keeps the model identical to a sequential tag loop.
    fn train_linear_csr_with<F>(
        &self,
        data: &MultiLabelDataset,
        svm: &LinearSvmTrainer,
        fit: F,
    ) -> OneVsAllModel<LinearSvm>
    where
        F: Fn(&mut CsrLinearTrainer<'_>, &[bool], TagId) -> LinearSvm + Sync,
    {
        let tags = self.eligible_tags(data);
        if tags.is_empty() {
            return self.assemble(tags, Vec::new());
        }
        let csr = data.to_csr();
        // The DCD diagonal and the feature support are label-independent:
        // compute them once and share them across workers (each worker's
        // context only owns mutable scratch).
        let q = CsrLinearTrainer::dcd_diagonal(&csr);
        let support = CsrLinearTrainer::feature_support(&csr);
        let chunk = tags
            .len()
            .div_ceil(parallel::effective_threads(tags.len()).max(1))
            .max(1);
        let trained: Vec<LinearSvm> = parallel::par_chunks(&tags, chunk, |_, chunk_tags| {
            let mut ctx = CsrLinearTrainer::with_shared(svm, &csr, &q, &support);
            let mut mask = Vec::new();
            chunk_tags
                .iter()
                .map(|&tag| {
                    data.label_mask_into(tag, &mut mask);
                    fit(&mut ctx, &mask, tag)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        self.assemble(tags, trained)
    }

    /// One scalar linear SVM per tag: the oracle [`Self::train_linear_csr`]
    /// is held to.
    #[cfg(test)]
    pub fn train_linear(
        &self,
        data: &MultiLabelDataset,
        svm: &LinearSvmTrainer,
    ) -> OneVsAllModel<LinearSvm> {
        self.train_with(data, |_, xs, ys| svm.train(xs, ys))
    }

    /// One linear SVM per tag (the PACE base classifier): the dataset is
    /// materialized once as a row-major [`textproc::CsrMatrix`] and every
    /// per-tag fit runs through one shared [`CsrLinearTrainer`] context —
    /// shared DCD diagonal, shared shuffle orders, reused solver scratch, no
    /// per-tag corpus view of any kind. Produces a model **bit-identical** to
    /// the scalar `train_linear` (a test oracle) on the same inputs.
    pub fn train_linear_csr(
        &self,
        data: &MultiLabelDataset,
        svm: &LinearSvmTrainer,
    ) -> OneVsAllModel<LinearSvm> {
        self.train_linear_csr_with(data, svm, |ctx, mask, _| ctx.train(mask))
    }

    /// One kernel SVM per tag, each computing its own Gram matrix: the
    /// oracle [`Self::train_kernel_shared`] is held to.
    #[cfg(test)]
    pub fn train_kernel(
        &self,
        data: &MultiLabelDataset,
        svm: &KernelSvmTrainer,
    ) -> OneVsAllModel<KernelSvm> {
        self.train_with(data, |_, xs, ys| svm.train(xs, ys))
    }

    /// One kernel SVM per tag (the CEMPaR base classifier): the kernel (Gram)
    /// matrix depends only on the data, not the labels, so it is computed
    /// **once** and shared by every per-tag SMO fit instead of being
    /// re-evaluated per tag (`O(T · n² · nnz)` → `O(n² · nnz + T · n²)`
    /// kernel work). Produces a model **bit-identical** to the per-tag
    /// `train_kernel` (a test oracle) on the same inputs.
    pub fn train_kernel_shared(
        &self,
        data: &MultiLabelDataset,
        svm: &KernelSvmTrainer,
    ) -> OneVsAllModel<KernelSvm> {
        let tags = self.eligible_tags(data);
        if tags.is_empty() {
            return self.assemble(tags, Vec::new());
        }
        let xs = data.vectors();
        let gram = gram_matrix(xs);
        let trained = parallel::par_map(&tags, |&tag| {
            let ys = data.label_mask(tag);
            svm.train_with_gram(xs, &ys, &gram)
        });
        self.assemble(tags, trained)
    }

    /// Warm-start one-vs-all refit for linear models: tags already known to
    /// `prev` are refit with `LinearSvmTrainer::train_warm` (a few SGD
    /// passes from the stored weights), tags new to the dataset are
    /// cold-trained. `data` is the peer's *full* (old + new) local dataset,
    /// so the refit sees every example — only the optimization is
    /// incremental, not the data.
    #[cfg(test)]
    pub fn train_linear_warm(
        &self,
        data: &MultiLabelDataset,
        svm: &LinearSvmTrainer,
        prev: &OneVsAllModel<LinearSvm>,
    ) -> OneVsAllModel<LinearSvm> {
        self.train_with(data, |tag, xs, ys| match prev.classifier(tag) {
            Some(warm) => svm.train_warm(xs, ys, warm),
            None => svm.train(xs, ys),
        })
    }

    /// CSR-native variant of the scalar `train_linear_warm` (a test oracle):
    /// warm refits and cold fits of new tags all run through one shared
    /// [`CsrLinearTrainer`] context per worker. Produces a model
    /// **bit-identical** to `train_linear_warm` on the same inputs.
    pub fn train_linear_warm_csr(
        &self,
        data: &MultiLabelDataset,
        svm: &LinearSvmTrainer,
        prev: &OneVsAllModel<LinearSvm>,
    ) -> OneVsAllModel<LinearSvm> {
        self.train_linear_csr_with(data, svm, |ctx, mask, tag| match prev.classifier(tag) {
            Some(warm) => ctx.train_warm(mask, warm),
            None => ctx.train(mask),
        })
    }

    /// Warm-start one-vs-all refit for kernel models, the classic incremental
    /// SVM (retain the support vectors, add the new data, retrain): for each
    /// tag known to `prev`, the trainer runs on the previous classifier's
    /// support vectors pooled with the `new` examples — the same reduction the
    /// CEMPaR cascade applies when merging models — which costs
    /// `O((#SV + #new)²)` instead of `O(#full²)`. Tags without a previous
    /// classifier are cold-trained on the full dataset. `data` must contain
    /// the `new` examples (it provides the per-tag positive counts and the
    /// cold-training corpus).
    pub fn train_kernel_warm(
        &self,
        data: &MultiLabelDataset,
        new: &MultiLabelDataset,
        svm: &KernelSvmTrainer,
        prev: &OneVsAllModel<KernelSvm>,
    ) -> OneVsAllModel<KernelSvm> {
        let tags = self.eligible_tags(data);
        let trained = parallel::par_map(&tags, |&tag| {
            let Some(warm) = prev.classifier(tag) else {
                return svm.train(data.vectors(), &data.label_mask(tag));
            };
            // The pooled copies below are reference-count bumps: the SV and
            // new-example vectors share storage with their owners.
            let mut xs: Vec<SparseVector> = warm
                .support_vectors()
                .iter()
                .map(|sv| sv.vector.clone())
                .collect();
            let mut ys: Vec<bool> = warm.support_vectors().iter().map(|sv| sv.label).collect();
            xs.extend(new.vectors().iter().cloned());
            ys.extend(new.tag_sets().iter().map(|t| t.contains(&tag)));
            let has_pos = ys.iter().any(|&y| y);
            let has_neg = ys.iter().any(|&y| !y);
            if xs.is_empty() || !has_pos || !has_neg {
                // Nothing new to learn for this tag (or a degenerate pooled
                // set): the previous classifier stands.
                return warm.clone();
            }
            svm.train(&xs, &ys)
        });
        self.assemble(tags, trained)
    }
}

impl<C: BinaryClassifier> OneVsAllModel<C> {
    /// Builds a model directly from per-tag classifiers (used when per-tag
    /// models are merged across peers, e.g. by the CEMPaR cascade).
    pub fn from_classifiers(
        classifiers: BTreeMap<TagId, C>,
        threshold: f64,
        min_tags: usize,
    ) -> Self {
        Self {
            classifiers,
            threshold,
            min_tags,
        }
    }

    /// The tags this model can assign.
    pub fn tags(&self) -> impl Iterator<Item = TagId> + '_ {
        self.classifiers.keys().copied()
    }

    /// Number of per-tag classifiers.
    pub fn num_tags(&self) -> usize {
        self.classifiers.len()
    }

    /// The per-tag classifier, if the tag is known.
    pub fn classifier(&self, tag: TagId) -> Option<&C> {
        self.classifiers.get(&tag)
    }

    /// Iterates over `(tag, classifier)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &C)> {
        self.classifiers.iter().map(|(&t, c)| (t, c))
    }

    /// Scores every known tag for the document, sorted by descending score.
    pub fn scores(&self, x: &SparseVector) -> Vec<TagPrediction> {
        let mut out: Vec<TagPrediction> = self
            .classifiers
            .iter()
            .map(|(&tag, c)| {
                let score = c.decision(x);
                TagPrediction {
                    tag,
                    score,
                    confidence: logistic(score),
                }
            })
            .collect();
        out.sort_by(by_score_descending);
        out
    }

    /// Predicts the tag set: tags whose decision value reaches the threshold,
    /// or the top `min_tags` tags if none does.
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
        top_scored_tags(&scores, self.min_tags)
    }

    /// Total wire size of all per-tag classifiers.
    pub fn wire_size(&self) -> usize {
        self.classifiers
            .values()
            .map(BinaryClassifier::wire_size)
            .sum()
    }

    /// The decision threshold above which a tag is assigned.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Minimum number of tags assigned when nothing reaches the threshold.
    pub fn min_tags(&self) -> usize {
        self.min_tags
    }
}

impl OneVsAllModel<LinearSvm> {
    /// Packs the per-tag nonzero weights into a shared CSR matrix whose
    /// batched [`TagWeightMatrix::scores`] / [`TagWeightMatrix::predict`] are
    /// identical to this model's scalar [`Self::scores`] / [`Self::predict`].
    pub fn weight_matrix(&self) -> TagWeightMatrix {
        TagWeightMatrix::from_classifiers(
            self.classifiers.iter().map(|(&t, c)| (t, c)),
            self.threshold,
            self.min_tags,
        )
    }
}

impl OneVsAllModel<KernelSvm> {
    /// Builds the batched kernel scorer sharing kernel-row evaluations across
    /// tags; its [`BatchKernelScorer::scores`] is identical to the scalar
    /// [`Self::scores`].
    pub fn kernel_scorer(&self) -> BatchKernelScorer {
        BatchKernelScorer::from_classifiers(self.classifiers.iter().map(|(&t, c)| (t, c)))
    }
}

/// Logistic squashing used to turn decision values into display confidences.
fn logistic(score: f64) -> f64 {
    1.0 / (1.0 + (-score).exp())
}

/// Descending score order with NaN scores last: a total order, so every sort
/// of scored tags is well defined whatever a model frame decoded to. For
/// scores without NaN it is `partial_cmp` reversed, so `-0.0` ties with
/// `0.0` and a stable sort keeps tied tags in their input order. Reading an
/// incomparable pair as equal instead is no order, and the standard sort may
/// panic on it.
pub fn by_score_descending(a: &TagPrediction, b: &TagPrediction) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or_else(|| a.score.is_nan().cmp(&b.score.is_nan()))
}

/// Ascending distance order with NaN distances last: a total order, so every
/// sort of ranked neighbours (LSH entries, PACE models) is well defined
/// whatever a key or centroid decoded to. For distances without NaN it is
/// `partial_cmp`, so `-0.0` ties with `0.0` and a stable sort keeps tied
/// entries in their input order, where `total_cmp` would split them.
pub fn by_distance_ascending(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// The `min_tags` fallback selection shared by every predict path (the
/// scalar and batched model predicts here, the protocol-level
/// `select_tags` / `select_tags_adaptive` in `p2pclassify`): the
/// best-*scored* tags win, whatever order the caller's score list is in,
/// with NaN scores excluded (a single NaN must neither be selected nor
/// poison the ordering of everything else — `total_cmp` gives a
/// deterministic total order where the old `partial_cmp(..).unwrap_or(Equal)`
/// comparator silently degraded to "whatever order the list already had").
/// The signs of exact zeros are normalized first so `-0.0`/`+0.0` ties keep
/// their stable input order, preserving scalar ↔ batched equivalence.
pub fn top_scored_tags(scores: &[TagPrediction], min_tags: usize) -> BTreeSet<TagId> {
    fn key(score: f64) -> f64 {
        if score == 0.0 {
            0.0
        } else {
            score
        }
    }
    let mut sorted: Vec<&TagPrediction> = scores.iter().filter(|p| !p.score.is_nan()).collect();
    sorted.sort_by(|a, b| key(b.score).total_cmp(&key(a.score)));
    sorted.into_iter().take(min_tags).map(|p| p.tag).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::MultiLabelExample;

    /// Builds a small synthetic multi-label corpus where tag 1 fires on feature
    /// 0, tag 2 on feature 1, and documents can carry both.
    fn toy_dataset() -> MultiLabelDataset {
        let mut ds = MultiLabelDataset::new();
        for i in 0..20 {
            let strength = 1.0 + (i % 3) as f64 * 0.1;
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(0, strength)]),
                [1],
            ));
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(1, strength)]),
                [2],
            ));
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(0, strength), (1, strength)]),
                [1, 2],
            ));
        }
        ds
    }

    #[test]
    fn learns_per_tag_classifiers() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default());
        assert_eq!(model.num_tags(), 2);
        assert_eq!(
            model.predict(&SparseVector::from_pairs([(0, 1.0)])),
            BTreeSet::from([1])
        );
        assert_eq!(
            model.predict(&SparseVector::from_pairs([(1, 1.0)])),
            BTreeSet::from([2])
        );
        assert_eq!(
            model.predict(&SparseVector::from_pairs([(0, 1.0), (1, 1.0)])),
            BTreeSet::from([1, 2])
        );
    }

    #[test]
    fn scores_are_sorted_and_confidences_bounded() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default());
        let scores = model.scores(&SparseVector::from_pairs([(0, 1.0)]));
        assert_eq!(scores.len(), 2);
        assert!(scores[0].score >= scores[1].score);
        for s in &scores {
            assert!(s.confidence > 0.0 && s.confidence < 1.0);
        }
        assert_eq!(scores[0].tag, 1);
    }

    #[test]
    fn min_tags_forces_at_least_one_tag() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default());
        // A document far from every positive region still receives one tag.
        let pred = model.predict(&SparseVector::from_pairs([(5, 1.0)]));
        assert_eq!(pred.len(), 1);
    }

    #[test]
    fn min_positive_skips_rare_tags() {
        let mut ds = toy_dataset();
        ds.push(MultiLabelExample::new(
            SparseVector::from_pairs([(3, 1.0)]),
            [99],
        ));
        let trainer = OneVsAllTrainer {
            min_positive: 2,
            ..Default::default()
        };
        let model = trainer.train_linear(&ds, &LinearSvmTrainer::default());
        assert!(model.classifier(99).is_none());
        assert_eq!(model.num_tags(), 2);
    }

    #[test]
    fn kernel_one_vs_all_also_works() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_kernel(&ds, &KernelSvmTrainer::default());
        assert_eq!(model.num_tags(), 2);
        let pred = model.predict(&SparseVector::from_pairs([(0, 1.0)]));
        assert!(pred.contains(&1));
    }

    #[test]
    fn linear_warm_refit_learns_a_new_tag_and_keeps_old_ones() {
        let mut ds = toy_dataset();
        let trainer = OneVsAllTrainer::default();
        let cold = trainer.train_linear(&ds, &LinearSvmTrainer::default());
        // A new tag 7 arrives, concentrated on feature 4.
        for i in 0..12 {
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(4, 1.0 + 0.05 * i as f64)]),
                [7],
            ));
        }
        let warm = trainer.train_linear_warm(&ds, &LinearSvmTrainer::default(), &cold);
        assert_eq!(warm.num_tags(), 3);
        assert!(warm
            .predict(&SparseVector::from_pairs([(4, 1.2)]))
            .contains(&7));
        assert!(warm
            .predict(&SparseVector::from_pairs([(0, 1.0)]))
            .contains(&1));
    }

    #[test]
    fn kernel_warm_refit_pools_support_vectors_with_new_examples() {
        let ds = toy_dataset();
        let trainer = OneVsAllTrainer::default();
        let cold = trainer.train_kernel(&ds, &KernelSvmTrainer::default());
        let mut full = ds.clone();
        let mut new = MultiLabelDataset::new();
        for i in 0..10 {
            let ex =
                MultiLabelExample::new(SparseVector::from_pairs([(5, 1.0 + 0.05 * i as f64)]), [9]);
            full.push(ex.clone());
            new.push(ex);
        }
        let warm = trainer.train_kernel_warm(&full, &new, &KernelSvmTrainer::default(), &cold);
        assert_eq!(warm.num_tags(), 3);
        assert!(warm
            .predict(&SparseVector::from_pairs([(5, 1.1)]))
            .contains(&9));
        assert!(warm
            .predict(&SparseVector::from_pairs([(1, 1.0)]))
            .contains(&2));
        // The warm refit never sees more examples per tag than SVs + new.
        let max_sv = cold
            .iter()
            .map(|(_, c)| c.num_support_vectors())
            .max()
            .unwrap();
        for (tag, clf) in warm.iter() {
            if cold.classifier(tag).is_some() {
                assert!(clf.num_support_vectors() <= max_sv + new.len());
            }
        }
    }

    /// Per-tag decision functions must agree bit for bit on a probe set.
    fn assert_models_bit_identical<C: BinaryClassifier>(
        a: &OneVsAllModel<C>,
        b: &OneVsAllModel<C>,
        probes: &[SparseVector],
    ) {
        assert_eq!(a.num_tags(), b.num_tags());
        for ((ta, ca), (tb, cb)) in a.iter().zip(b.iter()) {
            assert_eq!(ta, tb);
            for p in probes {
                assert_eq!(
                    ca.decision(p).to_bits(),
                    cb.decision(p).to_bits(),
                    "tag {ta}"
                );
            }
        }
    }

    fn probes() -> Vec<SparseVector> {
        vec![
            SparseVector::from_pairs([(0, 1.0)]),
            SparseVector::from_pairs([(1, 0.8), (4, 1.1)]),
            SparseVector::from_pairs([(0, -0.5), (1, 0.5), (4, 0.2)]),
            SparseVector::new(),
        ]
    }

    #[test]
    fn csr_one_vs_all_is_bit_identical_to_scalar() {
        let ds = toy_dataset();
        let trainer = OneVsAllTrainer::default();
        let svm = LinearSvmTrainer::default();
        let scalar = trainer.train_linear(&ds, &svm);
        let csr = trainer.train_linear_csr(&ds, &svm);
        assert_models_bit_identical(&scalar, &csr, &probes());
        for p in probes() {
            assert_eq!(scalar.scores(&p), csr.scores(&p));
            assert_eq!(scalar.predict(&p), csr.predict(&p));
        }
    }

    #[test]
    fn csr_warm_one_vs_all_is_bit_identical_to_scalar() {
        let mut ds = toy_dataset();
        let trainer = OneVsAllTrainer::default();
        let svm = LinearSvmTrainer::default();
        let cold = trainer.train_linear(&ds, &svm);
        // Enough new examples that the warm SGD path (not just the small-n
        // cold delegation) is exercised, including a brand-new tag.
        for i in 0..30 {
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(4, 1.0 + 0.02 * i as f64)]),
                [7],
            ));
        }
        let scalar = trainer.train_linear_warm(&ds, &svm, &cold);
        let csr = trainer.train_linear_warm_csr(&ds, &svm, &cold);
        assert_models_bit_identical(&scalar, &csr, &probes());
    }

    #[test]
    fn shared_gram_one_vs_all_is_bit_identical_to_scalar() {
        let ds = toy_dataset();
        let trainer = OneVsAllTrainer::default();
        let svm = KernelSvmTrainer::default();
        let scalar = trainer.train_kernel(&ds, &svm);
        let shared = trainer.train_kernel_shared(&ds, &svm);
        assert_models_bit_identical(&scalar, &shared, &probes());
        // Empty dataset degenerates to an empty model on both paths.
        let empty = MultiLabelDataset::new();
        assert_eq!(trainer.train_kernel_shared(&empty, &svm).num_tags(), 0);
        assert_eq!(
            OneVsAllTrainer::default()
                .train_linear_csr(&empty, &LinearSvmTrainer::default())
                .num_tags(),
            0
        );
    }

    #[test]
    fn min_tags_fallback_picks_best_scored_tag_not_lowest_id() {
        // Tag 9 (the highest id) is the right answer for feature 4; tags 1
        // and 2 know nothing about it. With every score below the threshold,
        // the fallback must pick the best-*scored* tag — a fallback walking
        // tag-id order would return tag 1.
        let classifiers = BTreeMap::from([
            (1, LinearSvm::from_dense(&[0.0, 0.0, 0.0, 0.0, -2.0], 0.0)),
            (2, LinearSvm::from_dense(&[0.0, 0.0, 0.0, 0.0, -1.5], 0.0)),
            (9, LinearSvm::from_dense(&[0.0, 0.0, 0.0, 0.0, -0.2], 0.0)),
        ]);
        let model = OneVsAllModel::from_classifiers(classifiers, 0.0, 1);
        let probe = SparseVector::from_pairs([(4, 1.0)]);
        assert_eq!(model.predict(&probe), BTreeSet::from([9]));
        // The batched path agrees.
        assert_eq!(model.weight_matrix().predict(&probe), BTreeSet::from([9]));
    }

    #[test]
    fn min_tags_fallback_is_nan_proof() {
        // A degenerate classifier producing NaN decisions must neither be
        // selected by the fallback nor poison the ordering of finite scores.
        let classifiers = BTreeMap::from([
            (1, LinearSvm::from_dense(&[-3.0], 0.0)),
            (2, LinearSvm::from_dense(&[f64::NAN], 0.0)),
            (7, LinearSvm::from_dense(&[-0.5], 0.0)),
        ]);
        let model = OneVsAllModel::from_classifiers(classifiers, 0.0, 2);
        let probe = SparseVector::from_pairs([(0, 1.0)]);
        assert_eq!(model.predict(&probe), BTreeSet::from([1, 7]));
        assert_eq!(
            model.weight_matrix().predict(&probe),
            BTreeSet::from([1, 7])
        );
        // All-NaN scores select nothing rather than arbitrary tags.
        let all_nan = vec![
            TagPrediction {
                tag: 3,
                score: f64::NAN,
                confidence: 0.5,
            },
            TagPrediction {
                tag: 4,
                score: f64::NAN,
                confidence: 0.5,
            },
        ];
        assert!(top_scored_tags(&all_nan, 1).is_empty());
    }

    #[test]
    fn wire_size_sums_over_tags() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default());
        let per_tag: usize = model.iter().map(|(_, c)| c.wire_size()).sum();
        assert_eq!(model.wire_size(), per_tag);
        assert!(per_tag > 0);
    }

    #[test]
    fn logistic_is_monotone_and_bounded() {
        assert!(logistic(-10.0) < 0.01);
        assert!(logistic(10.0) > 0.99);
        assert!((logistic(0.0) - 0.5).abs() < 1e-12);
        assert!(logistic(1.0) > logistic(0.5));
    }

    /// NaN, zeros of both signs, infinities, the smallest subnormal and
    /// ordinary values.
    fn score() -> impl Strategy<Value = f64> {
        (0u8..10, -2.0f64..2.0).prop_map(|(pick, v)| match pick {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::from_bits(1),
            _ => v,
        })
    }

    fn scored(score: f64) -> TagPrediction {
        TagPrediction {
            tag: 0,
            score,
            confidence: 0.5,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn by_score_descending_is_a_total_order_with_nan_last(
            a in score(),
            b in score(),
            c in score(),
        ) {
            use std::cmp::Ordering::*;
            let cmp = |x: f64, y: f64| by_score_descending(&scored(x), &scored(y));
            // Reflexive and antisymmetric.
            prop_assert_eq!(cmp(a, a), Equal);
            prop_assert_eq!(cmp(a, b), cmp(b, a).reverse());
            // Transitive, for `Less` and `Equal` alike.
            if cmp(a, b) != Greater && cmp(b, c) != Greater {
                prop_assert!(cmp(a, c) != Greater, "{} {} {}", a, b, c);
            }
            if cmp(a, b) == Equal && cmp(b, c) == Equal {
                prop_assert_eq!(cmp(a, c), Equal);
            }
            // NaN after every number; numbers descending, `-0.0 == 0.0`.
            match (a.is_nan(), b.is_nan()) {
                (true, true) => prop_assert_eq!(cmp(a, b), Equal),
                (true, false) => prop_assert_eq!(cmp(a, b), Greater),
                (false, true) => prop_assert_eq!(cmp(a, b), Less),
                (false, false) => prop_assert_eq!(cmp(a, b), b.partial_cmp(&a).unwrap()),
            }
        }

        #[test]
        fn by_distance_ascending_is_a_total_order_with_nan_last(
            a in score(),
            b in score(),
            c in score(),
        ) {
            use std::cmp::Ordering::*;
            let cmp = by_distance_ascending;
            prop_assert_eq!(cmp(a, a), Equal);
            prop_assert_eq!(cmp(a, b), cmp(b, a).reverse());
            if cmp(a, b) != Greater && cmp(b, c) != Greater {
                prop_assert!(cmp(a, c) != Greater, "{} {} {}", a, b, c);
            }
            if cmp(a, b) == Equal && cmp(b, c) == Equal {
                prop_assert_eq!(cmp(a, c), Equal);
            }
            // NaN after every number; numbers ascending, `-0.0 == 0.0`.
            match (a.is_nan(), b.is_nan()) {
                (true, true) => prop_assert_eq!(cmp(a, b), Equal),
                (true, false) => prop_assert_eq!(cmp(a, b), Greater),
                (false, true) => prop_assert_eq!(cmp(a, b), Less),
                (false, false) => prop_assert_eq!(cmp(a, b), a.partial_cmp(&b).unwrap()),
            }
        }
    }
}
