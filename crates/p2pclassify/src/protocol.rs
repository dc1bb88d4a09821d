//! The common interface of all P2P tagging classifiers.

use crate::error::ProtocolError;
use crate::reliable::LinkStats;
use ml::multilabel::{by_score_descending, TagPrediction};
use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2psim::{P2PNetwork, PeerId};
use std::collections::BTreeSet;
use textproc::SparseVector;

/// Per-peer local training data: `data[i]` is the tagged-document collection
/// of peer `i` (its manually tagged documents).
pub type PeerDataMap = Vec<MultiLabelDataset>;

/// A distributed tagging classifier that trains and predicts over a simulated
/// P2P network, paying for every byte it exchanges.
pub trait P2PTagClassifier {
    /// Short protocol name for experiment tables ("cempar", "pace", …).
    fn name(&self) -> &'static str;

    /// Trains the global (distributed) model from each peer's local tagged
    /// documents. Offline peers do not participate — their data is simply not
    /// contributed, as in a real deployment.
    fn train(&mut self, net: &mut P2PNetwork, peer_data: &PeerDataMap)
        -> Result<(), ProtocolError>;

    /// Returns per-tag scores for an untagged document vector, on behalf of the
    /// querying peer (which pays the communication cost of the query, if any).
    fn scores(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<Vec<TagPrediction>, ProtocolError>;

    /// Predicts the tag set of an untagged document vector.
    fn predict(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<BTreeSet<TagId>, ProtocolError> {
        let scores = self.scores(net, peer, x)?;
        Ok(select_tags(&scores, 0.0, 1))
    }

    /// Predicts the tag sets of a whole batch of `(peer, document)` requests,
    /// returning one result per request in input order.
    ///
    /// The default implementation is the sequential per-request loop, which
    /// every protocol that pays communication per query keeps (message
    /// accounting must observe the same sends in the same order). PACE keeps
    /// it too: one of its queries is a single pass over the model index,
    /// tens of microseconds, so a batch of a thousand documents is tens of
    /// milliseconds — short enough that a two-worker fan-out's throughput
    /// follows how much of the second core the host grants from one batch
    /// to the next, while the loop's does not. Local-only prediction
    /// overrides this with a parallel map over the requests; the ordered
    /// reduction keeps the results identical to the sequential loop.
    fn predict_batch(
        &self,
        net: &mut P2PNetwork,
        requests: &[(PeerId, &SparseVector)],
    ) -> Vec<Result<BTreeSet<TagId>, ProtocolError>> {
        requests
            .iter()
            .map(|&(peer, x)| self.predict(net, peer, x))
            .collect()
    }

    /// Folds a batch of newly tagged examples into the existing models
    /// without a full retrain: `new_data[i]` holds peer `i`'s *new* manually
    /// tagged documents since the last training round (most entries are
    /// empty in a streaming session).
    ///
    /// Protocols warm-start from the per-peer models they already hold —
    /// linear models refit with a few SGD passes from the stored weights
    /// ([`ml::svm::CsrLinearTrainer::train_warm`]), kernel models retrain on
    /// their retained support vectors pooled with the new examples — and
    /// re-propagate only the affected models/regions. A full
    /// [`Self::train`] on the cumulative data remains the accuracy
    /// reference; the session regression suite bounds the gap between the
    /// two.
    ///
    /// Errors with [`ProtocolError::NotTrained`] before an initial
    /// [`Self::train`]. In protocols where training has a communication
    /// side (model or data propagation), peers that are currently offline
    /// keep their new data locally but neither retrain nor propagate this
    /// round — the data is folded in the next time that peer trains.
    /// Protocols whose training is entirely local (the local-only baseline)
    /// refit regardless of overlay membership, mirroring their
    /// [`Self::train`].
    fn train_incremental(
        &mut self,
        net: &mut P2PNetwork,
        new_data: &PeerDataMap,
    ) -> Result<(), ProtocolError>;

    /// Incorporates a user's tag refinement (a corrected example) and updates
    /// the local and global models accordingly.
    fn refine(
        &mut self,
        net: &mut P2PNetwork,
        peer: PeerId,
        example: &MultiLabelExample,
    ) -> Result<(), ProtocolError>;

    /// Incorporates a batch of corrections, `(peer, corrected example)` in
    /// order, returning one result per correction in input order. Each
    /// correction succeeds or fails as [`Self::refine`] would in that
    /// position of a sequential loop, and a failed one leaves no trace.
    ///
    /// The default is that sequential loop, which PACE, Centralized and
    /// LocalOnly keep. CEMPaR overrides it: each correction refits and
    /// propagates as one `refine` does, and the super-peers re-cascade once
    /// at the end of the batch, each region merging every tag the batch
    /// dirtied once — with the same models as a re-cascade after every
    /// correction.
    fn refine_batch(
        &mut self,
        net: &mut P2PNetwork,
        corrections: &[(PeerId, &MultiLabelExample)],
    ) -> Vec<Result<(), ProtocolError>> {
        corrections
            .iter()
            .map(|&(peer, example)| self.refine(net, peer, example))
            .collect()
    }

    /// Wipes the in-memory protocol state a crash-restarted `peer` would lose
    /// (received remote models, pooled uploads, pending buffers). Its durable
    /// local training data survives — a restart is not amnesia about what the
    /// user tagged, only about what the protocol had fetched over the wire.
    /// The default is a no-op for protocols that keep no remote state.
    fn on_crash_restart(&mut self, _net: &mut P2PNetwork, _peer: PeerId) {}

    /// Anti-entropy repair after a crash restart or partition heal: `peer`
    /// exchanges digests with a partner and re-fetches whatever it is missing
    /// or holds stale. Returns the number of payloads re-shipped, all charged
    /// through the network as [`p2psim::message::MessageKind::AntiEntropy`]
    /// traffic. The default no-op suits protocols with no remote state.
    fn resync(&mut self, _net: &mut P2PNetwork, _peer: PeerId) -> usize {
        0
    }

    /// The protocol's send-path counters: losses, retransmits, recoveries,
    /// re-syncs. Protocols that never send (local-only) report all zeros.
    fn link_stats(&self) -> LinkStats {
        LinkStats::default()
    }
}

/// The `min_tags` fallback shared by [`select_tags`] and
/// [`select_tags_adaptive`]: the best-scored tags under `f64::total_cmp`,
/// with NaN scores filtered out *before* the take. The previous
/// `partial_cmp(..).unwrap_or(Equal)` comparator let a single NaN vote
/// poison the whole ordering non-deterministically (`sort_by` with an
/// inconsistent comparator gives an unspecified permutation), and could then
/// hand the NaN-scored tag itself to the caller. One implementation serves
/// every predict path — this is [`ml::multilabel::top_scored_tags`], the
/// same fallback the scalar and batched model predicts use.
fn top_scored_fallback(scores: &[TagPrediction], min_tags: usize) -> BTreeSet<TagId> {
    ml::multilabel::top_scored_tags(scores, min_tags)
}

/// Turns a scored tag list into a tag set: every tag with `score >= threshold`,
/// or the `min_tags` best-scored tags when none reaches the threshold.
pub fn select_tags(scores: &[TagPrediction], threshold: f64, min_tags: usize) -> BTreeSet<TagId> {
    let above: BTreeSet<TagId> = scores
        .iter()
        .filter(|p| p.score >= threshold)
        .map(|p| p.tag)
        .collect();
    if !above.is_empty() {
        return above;
    }
    top_scored_fallback(scores, min_tags)
}

/// Turns a scored tag list into a tag set using an *adaptive* cutoff: a tag is
/// assigned when its score reaches both `abs_threshold` and `rel_factor` times
/// the best score. The relative component calibrates ensemble votes whose
/// absolute scale depends on how many voters know each tag (weak spurious
/// votes are suppressed while genuinely co-occurring tags with comparable
/// scores survive). Falls back to the `min_tags` best-scored tags when nothing
/// passes.
pub fn select_tags_adaptive(
    scores: &[TagPrediction],
    abs_threshold: f64,
    rel_factor: f64,
    min_tags: usize,
) -> BTreeSet<TagId> {
    let top = scores
        .iter()
        .map(|p| p.score)
        .fold(f64::NEG_INFINITY, f64::max);
    if !top.is_finite() {
        return BTreeSet::new();
    }
    let cutoff = abs_threshold.max(rel_factor * top);
    let above: BTreeSet<TagId> = scores
        .iter()
        .filter(|p| p.score >= cutoff)
        .map(|p| p.tag)
        .collect();
    if !above.is_empty() {
        return above;
    }
    top_scored_fallback(scores, min_tags)
}

/// Combines per-tag *confidence* votes (scores in `(0, 1)`) from weighted
/// voters into one scored tag list, normalizing each tag by the weight of the
/// voters that actually know it.
///
/// This is the ensemble combination PACE needs: raw SVM margins from
/// different peers' models are not calibrated against each other, and with
/// interest locality only a minority of peers has ever seen any given tag.
/// Normalizing a tag's vote mass by *total* ensemble weight (as
/// [`combine_weighted_scores`] does) makes every ignorant peer a strong
/// negative vote and collapses recall. Instead, for each tag:
///
/// ```text
/// score(tag) = (Σ_knowing w·conf / Σ_knowing w) · (Σ_knowing w / Σ_all w)^damping
/// ```
///
/// The first factor is the weighted mean confidence among the models that
/// know the tag; the second discounts tags known to only a sliver of the
/// ensemble (`damping = 0` trusts lone experts fully, `damping = 1` recovers
/// the abstain-is-a-no behaviour of [`combine_weighted_scores`]).
///
/// Votes stream in per `(weight, tag, confidence)` triple, so PACE never
/// materializes one score list per consulted model.
#[derive(Debug, Default)]
pub struct ConfidenceVoteAccumulator {
    total_weight: f64,
    /// tag → (Σ w·conf, Σ w) over the voters that know the tag.
    sums: std::collections::BTreeMap<TagId, (f64, f64)>,
}

impl ConfidenceVoteAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a voter's weight (counted once per voter, whether or not it
    /// knows any tag).
    pub fn add_voter(&mut self, weight: f64) {
        self.total_weight += weight;
    }

    /// Adds one voter's confidence vote for one tag.
    pub fn add_vote(&mut self, tag: TagId, weight: f64, confidence: f64) {
        let entry = self.sums.entry(tag).or_insert((0.0, 0.0));
        entry.0 += weight * confidence;
        entry.1 += weight;
    }

    /// Produces the combined, descending-sorted predictions.
    pub fn finish(self, coverage_damping: f64) -> Vec<TagPrediction> {
        if self.total_weight <= 0.0 {
            return Vec::new();
        }
        let total_weight = self.total_weight;
        let mut out: Vec<TagPrediction> = self
            .sums
            .into_iter()
            .filter(|&(_, (_, knowing_weight))| knowing_weight > 0.0)
            .map(|(tag, (weighted_conf, knowing_weight))| {
                let score = (weighted_conf / knowing_weight)
                    * (knowing_weight / total_weight).powf(coverage_damping);
                TagPrediction {
                    tag,
                    score,
                    confidence: score,
                }
            })
            .collect();
        out.sort_by(by_score_descending);
        out
    }
}

/// The list form of [`ConfidenceVoteAccumulator`]: one `(weight, scores)`
/// list per voter, fed in order. PACE's test oracle combines its votes
/// through this.
#[cfg(test)]
pub(crate) fn combine_confidence_votes(
    lists: &[(f64, Vec<TagPrediction>)],
    coverage_damping: f64,
) -> Vec<TagPrediction> {
    let mut acc = ConfidenceVoteAccumulator::new();
    for (weight, scores) in lists {
        acc.add_voter(*weight);
        for p in scores {
            acc.add_vote(p.tag, *weight, p.score);
        }
    }
    acc.finish(coverage_damping)
}

/// Combines several per-tag score lists into one by weighted majority voting:
/// each voter's weight applies to every tag, and a voter that does not know a
/// tag implicitly votes 0 (abstains negatively). This keeps tags that only a
/// minority of distant models would assign from leaking into the prediction.
pub fn combine_weighted_scores(lists: &[(f64, Vec<TagPrediction>)]) -> Vec<TagPrediction> {
    use std::collections::BTreeMap;
    let total_weight: f64 = lists.iter().map(|(w, _)| *w).sum();
    let mut sums: BTreeMap<TagId, f64> = BTreeMap::new();
    for (weight, scores) in lists {
        for p in scores {
            *sums.entry(p.tag).or_insert(0.0) += weight * p.score;
        }
    }
    let mut out: Vec<TagPrediction> = sums
        .into_iter()
        .map(|(tag, weighted)| {
            let score = if total_weight > 0.0 {
                weighted / total_weight
            } else {
                0.0
            };
            TagPrediction {
                tag,
                score,
                confidence: 1.0 / (1.0 + (-score).exp()),
            }
        })
        .collect();
    out.sort_by(by_score_descending);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(tag: TagId, score: f64) -> TagPrediction {
        TagPrediction {
            tag,
            score,
            confidence: 0.5,
        }
    }

    #[test]
    fn select_tags_above_threshold() {
        let scores = vec![pred(1, 0.5), pred(2, -0.3), pred(3, 0.1)];
        assert_eq!(select_tags(&scores, 0.0, 1), BTreeSet::from([1, 3]));
    }

    #[test]
    fn select_tags_falls_back_to_top_k() {
        let scores = vec![pred(1, -0.5), pred(2, -0.1), pred(3, -0.9)];
        assert_eq!(select_tags(&scores, 0.0, 1), BTreeSet::from([2]));
        assert_eq!(select_tags(&scores, 0.0, 2), BTreeSet::from([1, 2]));
    }

    #[test]
    fn select_tags_empty_input() {
        assert!(select_tags(&[], 0.0, 3).is_empty());
    }

    #[test]
    fn adaptive_selection_suppresses_weak_spurious_votes() {
        let scores = vec![pred(1, 0.6), pred(2, 0.5), pred(3, 0.05), pred(4, -0.2)];
        let tags = select_tags_adaptive(&scores, 0.0, 0.5, 1);
        assert_eq!(tags, BTreeSet::from([1, 2]));
    }

    #[test]
    fn adaptive_selection_falls_back_to_best_tag() {
        let scores = vec![pred(1, -0.4), pred(2, -0.9)];
        assert_eq!(
            select_tags_adaptive(&scores, 0.0, 0.5, 1),
            BTreeSet::from([1])
        );
        assert!(select_tags_adaptive(&[], 0.0, 0.5, 1).is_empty());
    }

    #[test]
    fn nan_scores_neither_poison_ordering_nor_get_selected() {
        // One NaN vote among finite ones: the fallback must still return the
        // best finite tags, deterministically, and never the NaN tag.
        let scores = vec![
            pred(1, -0.8),
            pred(2, f64::NAN),
            pred(3, -0.1),
            pred(4, -0.5),
        ];
        assert_eq!(select_tags(&scores, 0.0, 1), BTreeSet::from([3]));
        assert_eq!(select_tags(&scores, 0.0, 2), BTreeSet::from([3, 4]));
        assert_eq!(
            select_tags_adaptive(&scores, 0.0, 0.5, 2),
            BTreeSet::from([3, 4])
        );
        // NaN in the threshold filter is never "above".
        assert_eq!(select_tags(&scores, -0.9, 1), BTreeSet::from([1, 3, 4]));
        // All-NaN input selects nothing instead of arbitrary tags.
        let all_nan = vec![pred(1, f64::NAN), pred(2, f64::NAN)];
        assert!(select_tags(&all_nan, 0.0, 1).is_empty());
        assert!(select_tags_adaptive(&all_nan, 0.0, 0.5, 1).is_empty());
    }

    #[test]
    fn combine_weighted_scores_averages() {
        let lists = vec![
            (1.0, vec![pred(1, 1.0), pred(2, -1.0)]),
            (3.0, vec![pred(1, -1.0)]),
        ];
        let combined = combine_weighted_scores(&lists);
        let tag1 = combined.iter().find(|p| p.tag == 1).unwrap();
        // (1*1 + 3*(-1)) / 4 = -0.5
        assert!((tag1.score - (-0.5)).abs() < 1e-12);
        // Tag 2 is only known to the first voter; the second voter abstains,
        // so its weight still appears in the denominator: (1*-1) / 4 = -0.25.
        let tag2 = combined.iter().find(|p| p.tag == 2).unwrap();
        assert!((tag2.score - (-0.25)).abs() < 1e-12);
        // Sorted descending by score.
        assert!(combined[0].score >= combined[1].score);
    }

    #[test]
    fn combine_empty_is_empty() {
        assert!(combine_weighted_scores(&[]).is_empty());
    }

    /// Sparse tag ids, up to `TagId::MAX`.
    fn tag() -> impl Strategy<Value = TagId> {
        (0u8..3, 0u32..48).prop_map(|(pick, t)| match pick {
            0 => t * 61,
            1 => TagId::MAX - t,
            _ => t,
        })
    }

    /// Zeros of both signs, NaN, infinities and ordinary values.
    fn number(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
        (0u8..12, range).prop_map(|(pick, v)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => 1e-300,
            _ => v,
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_tally_sorts_any_votes_descending_with_nan_last(
            voters in prop::collection::vec(
                (number(-0.5..3.0), prop::collection::vec((tag(), number(-1.0..1.0)), 0..8)),
                0..10,
            ),
            damping in 0.0f64..1.5,
        ) {
            let mut tally = ConfidenceVoteAccumulator::new();
            for (weight, votes) in &voters {
                tally.add_voter(*weight);
                for &(tag, confidence) in votes {
                    tally.add_vote(tag, *weight, confidence);
                }
            }
            let out = tally.finish(damping);
            let tags: BTreeSet<TagId> = out.iter().map(|p| p.tag).collect();
            prop_assert_eq!(tags.len(), out.len());
            for pair in out.windows(2) {
                let (a, b) = (pair[0].score, pair[1].score);
                prop_assert!(b.is_nan() || a >= b, "{} before {}", a, b);
            }
        }
    }
}
