//! Evaluation metrics for binary and multi-label tagging.
//!
//! The experiment harness reports micro/macro F1, Hamming loss, subset accuracy
//! and per-tag precision/recall, the standard measures for automated-tagging
//! quality.

use crate::data::TagId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Confusion-matrix-derived metrics for a single binary problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BinaryMetrics {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl BinaryMetrics {
    /// Accumulates one prediction.
    pub fn observe(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Computes metrics from parallel prediction/truth slices.
    #[cfg(test)]
    pub fn from_predictions(predicted: &[bool], actual: &[bool]) -> Self {
        assert_eq!(predicted.len(), actual.len());
        let mut m = Self::default();
        for (&p, &a) in predicted.iter().zip(actual) {
            m.observe(p, a);
        }
        m
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction of correct predictions (1.0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// Precision `tp / (tp + fp)` (1.0 when no positive predictions).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall `tp / (tp + fn)` (1.0 when no actual positives).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges counts from another confusion matrix.
    pub fn merge(&mut self, other: &BinaryMetrics) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }
}

/// Multi-label evaluation over a set of documents.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MultiLabelMetrics {
    /// Micro-averaged confusion counts (pooled over all tags and documents).
    pub micro: BinaryMetrics,
    /// Per-tag confusion counts.
    pub per_tag: Vec<(TagId, BinaryMetrics)>,
    /// Number of evaluated documents.
    pub num_docs: u64,
    /// Sum over documents of `|pred Δ truth| / |universe|` (Hamming loss numerator).
    hamming_sum: f64,
    /// Number of documents whose predicted set equals the true set exactly.
    exact_matches: u64,
}

impl MultiLabelMetrics {
    /// Evaluates predictions against ground truth.
    ///
    /// `universe` is the full tag universe `Y` used for the Hamming-loss
    /// denominator; it must contain every tag appearing in either set.
    pub fn evaluate(
        predictions: &[BTreeSet<TagId>],
        truths: &[BTreeSet<TagId>],
        universe: &BTreeSet<TagId>,
    ) -> Self {
        assert_eq!(
            predictions.len(),
            truths.len(),
            "predictions and truths must have equal length"
        );
        let mut micro = BinaryMetrics::default();
        let mut per_tag: Vec<(TagId, BinaryMetrics)> = universe
            .iter()
            .map(|&t| (t, BinaryMetrics::default()))
            .collect();
        let mut hamming_sum = 0.0;
        let mut exact_matches = 0;
        for (pred, truth) in predictions.iter().zip(truths) {
            if pred == truth {
                exact_matches += 1;
            }
            let sym_diff = pred.symmetric_difference(truth).count();
            if !universe.is_empty() {
                hamming_sum += sym_diff as f64 / universe.len() as f64;
            }
            for (tag, m) in per_tag.iter_mut() {
                let p = pred.contains(tag);
                let a = truth.contains(tag);
                m.observe(p, a);
                micro.observe(p, a);
            }
        }
        Self {
            micro,
            per_tag,
            num_docs: predictions.len() as u64,
            hamming_sum,
            exact_matches,
        }
    }

    /// Micro-averaged F1 (pooled confusion matrix).
    pub fn micro_f1(&self) -> f64 {
        self.micro.f1()
    }

    /// Micro-averaged precision.
    pub fn micro_precision(&self) -> f64 {
        self.micro.precision()
    }

    /// Micro-averaged recall.
    pub fn micro_recall(&self) -> f64 {
        self.micro.recall()
    }

    /// Macro-averaged F1 (unweighted mean of per-tag F1; 1.0 with no tags).
    pub fn macro_f1(&self) -> f64 {
        if self.per_tag.is_empty() {
            return 1.0;
        }
        self.per_tag.iter().map(|(_, m)| m.f1()).sum::<f64>() / self.per_tag.len() as f64
    }

    /// Hamming loss: average fraction of tags mispredicted per document.
    pub fn hamming_loss(&self) -> f64 {
        if self.num_docs == 0 {
            return 0.0;
        }
        self.hamming_sum / self.num_docs as f64
    }

    /// Subset (exact-match) accuracy.
    pub fn subset_accuracy(&self) -> f64 {
        if self.num_docs == 0 {
            return 1.0;
        }
        self.exact_matches as f64 / self.num_docs as f64
    }

    /// Per-tag metrics, sorted by tag id.
    pub fn per_tag(&self) -> &[(TagId, BinaryMetrics)] {
        &self.per_tag
    }

    /// Merges another evaluation over the **same tag universe** into this
    /// one, pooling confusion counts, Hamming numerators and exact-match
    /// counts as if both document sets had been evaluated together.
    ///
    /// # Panics
    /// If the two evaluations were computed over different universes.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.per_tag.len(),
            other.per_tag.len(),
            "cannot merge metrics over different tag universes"
        );
        for ((tag, m), (other_tag, other_m)) in self.per_tag.iter_mut().zip(&other.per_tag) {
            assert_eq!(
                tag, other_tag,
                "cannot merge metrics over different tag universes"
            );
            m.merge(other_m);
        }
        self.micro.merge(&other.micro);
        self.num_docs += other.num_docs;
        self.hamming_sum += other.hamming_sum;
        self.exact_matches += other.exact_matches;
    }

    /// Number of evaluated documents actually carrying each tag (`tp + fn`),
    /// sorted by tag id — the support used for head/tail stratification.
    pub fn tag_support(&self) -> Vec<(TagId, u64)> {
        self.per_tag
            .iter()
            .map(|(t, m)| (*t, m.tp + m.fn_))
            .collect()
    }

    /// Macro-F1 restricted to a tag subset (1.0 when the subset is empty,
    /// matching [`Self::macro_f1`]'s empty-universe convention).
    pub fn macro_f1_over(&self, tags: &BTreeSet<TagId>) -> f64 {
        let selected: Vec<f64> = self
            .per_tag
            .iter()
            .filter(|(t, _)| tags.contains(t))
            .map(|(_, m)| m.f1())
            .collect();
        if selected.is_empty() {
            return 1.0;
        }
        selected.iter().sum::<f64>() / selected.len() as f64
    }

    /// Stratifies the evaluation by tag-popularity rank: the `head_fraction`
    /// most popular tags (by support in this evaluation's ground truth, ties
    /// broken toward lower tag ids) against the long tail.
    ///
    /// Tags with zero support are excluded from both strata — a tag that is
    /// never true and never predicted scores a degenerate F1 of 1.0, which
    /// would inflate the tail average exactly where it must discriminate.
    pub fn head_tail(&self, head_fraction: f64) -> HeadTailSplit {
        let mut supported: Vec<(TagId, u64)> = self
            .tag_support()
            .into_iter()
            .filter(|&(_, s)| s > 0)
            .collect();
        supported.sort_by_key(|&(t, s)| (std::cmp::Reverse(s), t));
        let head_count = if supported.is_empty() {
            0
        } else {
            ((head_fraction.clamp(0.0, 1.0) * supported.len() as f64).ceil() as usize)
                .clamp(1, supported.len())
        };
        let head_tags: BTreeSet<TagId> = supported[..head_count].iter().map(|&(t, _)| t).collect();
        let tail_tags: BTreeSet<TagId> = supported[head_count..].iter().map(|&(t, _)| t).collect();
        HeadTailSplit {
            head_macro_f1: self.macro_f1_over(&head_tags),
            tail_macro_f1: self.macro_f1_over(&tail_tags),
            head_tags,
            tail_tags,
        }
    }
}

/// The head/tail stratification of a multi-label evaluation — popular tags
/// versus the long tail, the axis on which collaborative and local-only
/// tagging actually differ under skewed workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadTailSplit {
    /// The most popular tags (by ground-truth support).
    pub head_tags: BTreeSet<TagId>,
    /// The remaining supported tags.
    pub tail_tags: BTreeSet<TagId>,
    /// Macro-F1 over the head stratum.
    pub head_macro_f1: f64,
    /// Macro-F1 over the tail stratum.
    pub tail_macro_f1: f64,
}

/// A multi-label evaluation stratified by a per-document group key (in the
/// P2P setting: the owning peer), so per-group metrics — and merged views
/// over group subsets such as cold-start peers — can be reported.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupedMetrics {
    groups: Vec<(usize, MultiLabelMetrics)>,
    universe: BTreeSet<TagId>,
}

impl GroupedMetrics {
    /// Evaluates predictions against ground truth, accumulating a separate
    /// [`MultiLabelMetrics`] per group; `group_of[i]` is document `i`'s group
    /// key.
    pub fn evaluate(
        predictions: &[BTreeSet<TagId>],
        truths: &[BTreeSet<TagId>],
        universe: &BTreeSet<TagId>,
        group_of: &[usize],
    ) -> Self {
        assert_eq!(
            predictions.len(),
            group_of.len(),
            "every document needs a group key"
        );
        type TagSets = (Vec<BTreeSet<TagId>>, Vec<BTreeSet<TagId>>);
        let mut by_group: std::collections::BTreeMap<usize, TagSets> =
            std::collections::BTreeMap::new();
        for ((pred, truth), &g) in predictions.iter().zip(truths).zip(group_of) {
            let (p, t) = by_group.entry(g).or_default();
            p.push(pred.clone());
            t.push(truth.clone());
        }
        Self {
            groups: by_group
                .into_iter()
                .map(|(g, (p, t))| (g, MultiLabelMetrics::evaluate(&p, &t, universe)))
                .collect(),
            universe: universe.clone(),
        }
    }

    /// Number of groups with at least one evaluated document.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no group was evaluated.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The metrics of one group, if it had any evaluated documents.
    pub fn group(&self, g: usize) -> Option<&MultiLabelMetrics> {
        self.groups
            .iter()
            .find(|(key, _)| *key == g)
            .map(|(_, m)| m)
    }

    /// All groups with their metrics, sorted by group key.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &MultiLabelMetrics)> {
        self.groups.iter().map(|(g, m)| (*g, m))
    }

    /// Pools the evaluations of a group subset into one [`MultiLabelMetrics`]
    /// (groups without evaluated documents are skipped). The stratified view
    /// behind cold-start reporting: pass the peers with the fewest manual
    /// taggings.
    pub fn merged_over<I: IntoIterator<Item = usize>>(&self, groups: I) -> MultiLabelMetrics {
        let mut merged = MultiLabelMetrics::evaluate(&[], &[], &self.universe);
        for g in groups {
            if let Some(m) = self.group(g) {
                merged.merge(m);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tags: &[TagId]) -> BTreeSet<TagId> {
        tags.iter().copied().collect()
    }

    #[test]
    fn binary_metrics_basic() {
        let m = BinaryMetrics::from_predictions(
            &[true, true, false, false],
            &[true, false, true, false],
        );
        assert_eq!(m.tp, 1);
        assert_eq!(m.fp, 1);
        assert_eq!(m.fn_, 1);
        assert_eq!(m.tn, 1);
        assert_eq!(m.accuracy(), 0.5);
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.recall(), 0.5);
        assert_eq!(m.f1(), 0.5);
    }

    #[test]
    fn binary_metrics_degenerate_cases() {
        let empty = BinaryMetrics::default();
        assert_eq!(empty.accuracy(), 1.0);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);

        let all_negative = BinaryMetrics::from_predictions(&[false, false], &[false, false]);
        assert_eq!(all_negative.accuracy(), 1.0);
        assert_eq!(all_negative.f1(), 1.0);
    }

    #[test]
    fn binary_metrics_merge() {
        let mut a = BinaryMetrics::from_predictions(&[true], &[true]);
        let b = BinaryMetrics::from_predictions(&[false], &[true]);
        a.merge(&b);
        assert_eq!(a.tp, 1);
        assert_eq!(a.fn_, 1);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn perfect_multilabel_prediction() {
        let truth = vec![set(&[1, 2]), set(&[3])];
        let universe = set(&[1, 2, 3]);
        let m = MultiLabelMetrics::evaluate(&truth, &truth, &universe);
        assert_eq!(m.micro_f1(), 1.0);
        assert_eq!(m.macro_f1(), 1.0);
        assert_eq!(m.hamming_loss(), 0.0);
        assert_eq!(m.subset_accuracy(), 1.0);
    }

    #[test]
    fn completely_wrong_prediction() {
        let pred = vec![set(&[3])];
        let truth = vec![set(&[1, 2])];
        let universe = set(&[1, 2, 3]);
        let m = MultiLabelMetrics::evaluate(&pred, &truth, &universe);
        assert_eq!(m.micro_f1(), 0.0);
        assert_eq!(m.subset_accuracy(), 0.0);
        assert!((m.hamming_loss() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap() {
        let pred = vec![set(&[1, 3])];
        let truth = vec![set(&[1, 2])];
        let universe = set(&[1, 2, 3, 4]);
        let m = MultiLabelMetrics::evaluate(&pred, &truth, &universe);
        // tp=1 (tag1), fp=1 (tag3), fn=1 (tag2), tn=1 (tag4)
        assert_eq!(m.micro.tp, 1);
        assert_eq!(m.micro.fp, 1);
        assert_eq!(m.micro.fn_, 1);
        assert_eq!(m.micro.tn, 1);
        assert!((m.hamming_loss() - 0.5).abs() < 1e-12);
        assert_eq!(m.subset_accuracy(), 0.0);
    }

    #[test]
    fn macro_f1_differs_from_micro_with_imbalanced_tags() {
        // Tag 1 appears often and is predicted well; tag 2 is rare and always missed.
        let pred = vec![set(&[1]), set(&[1]), set(&[1]), set(&[])];
        let truth = vec![set(&[1]), set(&[1]), set(&[1]), set(&[2])];
        let universe = set(&[1, 2]);
        let m = MultiLabelMetrics::evaluate(&pred, &truth, &universe);
        assert!(m.micro_f1() > m.macro_f1());
    }

    #[test]
    fn empty_evaluation() {
        let m = MultiLabelMetrics::evaluate(&[], &[], &set(&[1]));
        assert_eq!(m.num_docs, 0);
        assert_eq!(m.hamming_loss(), 0.0);
        assert_eq!(m.subset_accuracy(), 1.0);
    }

    #[test]
    fn merge_pools_two_evaluations_like_one() {
        let universe = set(&[1, 2, 3]);
        let pred_a = vec![set(&[1]), set(&[2, 3])];
        let truth_a = vec![set(&[1, 2]), set(&[3])];
        let pred_b = vec![set(&[3])];
        let truth_b = vec![set(&[1])];
        let mut merged = MultiLabelMetrics::evaluate(&pred_a, &truth_a, &universe);
        merged.merge(&MultiLabelMetrics::evaluate(&pred_b, &truth_b, &universe));
        let pooled_pred: Vec<_> = pred_a.iter().chain(&pred_b).cloned().collect();
        let pooled_truth: Vec<_> = truth_a.iter().chain(&truth_b).cloned().collect();
        let pooled = MultiLabelMetrics::evaluate(&pooled_pred, &pooled_truth, &universe);
        assert_eq!(merged, pooled);
    }

    #[test]
    #[should_panic(expected = "different tag universes")]
    fn merge_rejects_mismatched_universes() {
        let mut a = MultiLabelMetrics::evaluate(&[], &[], &set(&[1, 2]));
        let b = MultiLabelMetrics::evaluate(&[], &[], &set(&[1, 3]));
        a.merge(&b);
    }

    #[test]
    fn tag_support_counts_actual_positives() {
        let pred = vec![set(&[1]), set(&[])];
        let truth = vec![set(&[1, 2]), set(&[2])];
        let m = MultiLabelMetrics::evaluate(&pred, &truth, &set(&[1, 2, 3]));
        assert_eq!(m.tag_support(), vec![(1, 1), (2, 2), (3, 0)]);
    }

    #[test]
    fn head_tail_splits_by_support_and_excludes_unsupported_tags() {
        // Tag 1: support 3, predicted perfectly. Tag 2: support 1, always
        // missed. Tag 3: zero support (would score a degenerate 1.0).
        let pred = vec![set(&[1]), set(&[1]), set(&[1]), set(&[])];
        let truth = vec![set(&[1]), set(&[1]), set(&[1, 2]), set(&[])];
        let m = MultiLabelMetrics::evaluate(&pred, &truth, &set(&[1, 2, 3]));
        let split = m.head_tail(0.5);
        assert_eq!(split.head_tags, set(&[1]));
        assert_eq!(split.tail_tags, set(&[2]), "zero-support tag 3 excluded");
        assert_eq!(split.head_macro_f1, 1.0);
        assert_eq!(split.tail_macro_f1, 0.0);
    }

    #[test]
    fn head_tail_ranks_ties_toward_lower_tag_ids() {
        // Both tags have support 1; the generator orders tag ids by
        // popularity, so the lower id wins the head slot.
        let pred = vec![set(&[1, 2])];
        let truth = vec![set(&[1, 2])];
        let m = MultiLabelMetrics::evaluate(&pred, &truth, &set(&[1, 2]));
        let split = m.head_tail(0.5);
        assert_eq!(split.head_tags, set(&[1]));
        assert_eq!(split.tail_tags, set(&[2]));
    }

    #[test]
    fn head_tail_of_empty_evaluation_is_empty() {
        let m = MultiLabelMetrics::evaluate(&[], &[], &set(&[1, 2]));
        let split = m.head_tail(0.3);
        assert!(split.head_tags.is_empty());
        assert!(split.tail_tags.is_empty());
        assert_eq!(split.head_macro_f1, 1.0);
        assert_eq!(split.tail_macro_f1, 1.0);
    }

    #[test]
    fn macro_f1_over_subset_averages_only_selected_tags() {
        let pred = vec![set(&[1]), set(&[])];
        let truth = vec![set(&[1]), set(&[2])];
        let m = MultiLabelMetrics::evaluate(&pred, &truth, &set(&[1, 2]));
        assert_eq!(m.macro_f1_over(&set(&[1])), 1.0);
        assert_eq!(m.macro_f1_over(&set(&[2])), 0.0);
        assert_eq!(m.macro_f1_over(&set(&[])), 1.0);
        assert!((m.macro_f1_over(&set(&[1, 2])) - m.macro_f1()).abs() < 1e-12);
    }

    #[test]
    fn grouped_metrics_stratify_by_group_and_merge_back() {
        let universe = set(&[1, 2]);
        let predictions = vec![set(&[1]), set(&[2]), set(&[1])];
        let truths = vec![set(&[1]), set(&[1]), set(&[1])];
        let groups = vec![0, 7, 0];
        let g = GroupedMetrics::evaluate(&predictions, &truths, &universe, &groups);
        assert_eq!(g.len(), 2);
        assert_eq!(g.group(0).unwrap().num_docs, 2);
        assert_eq!(g.group(7).unwrap().num_docs, 1);
        assert!(g.group(3).is_none());
        assert_eq!(g.group(0).unwrap().micro_f1(), 1.0);
        assert_eq!(g.group(7).unwrap().micro_f1(), 0.0);
        // Merging every group reproduces the flat evaluation.
        let all = g.merged_over(vec![0, 7]);
        let flat = MultiLabelMetrics::evaluate(&predictions, &truths, &universe);
        assert_eq!(all, flat);
        // Merging a subset (with an absent key, which is skipped) pools only
        // that subset's documents.
        let cold = g.merged_over(vec![7, 3]);
        assert_eq!(cold.num_docs, 1);
        assert_eq!(cold.micro_f1(), 0.0);
    }
}
