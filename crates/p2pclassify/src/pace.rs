//! PACE — adaptive ensemble classification in P2P networks.
//!
//! Protocol phases, following §2 of the P2PDocTagger paper:
//!
//! 1. **Local training** — every peer trains a *linear* SVM per tag on its
//!    local data (cheap to train, tiny to ship) and clusters its local
//!    training vectors with k-means.
//! 2. **Propagation** — the linear models and the cluster centroids are
//!    propagated to all other peers. No document vectors ever travel, which is
//!    PACE's privacy and cost advantage.
//! 3. **Indexing** — receivers index the models by their centroids using
//!    locality-sensitive hashing.
//! 4. **Prediction** — given a document vector, the peer retrieves the top-k
//!    "nearest" models from its index (distance between the test vector and
//!    the models' centroids), lets them vote, and weights each vote by the
//!    model's training accuracy and its distance to the test vector — thereby
//!    *adapting to the test data distribution*. Prediction is entirely local:
//!    zero communication per query.
//! 5. **Refinement** — the peer retrains its local model with the corrected
//!    example and re-propagates it.

use crate::error::ProtocolError;
use crate::protocol::{
    combine_confidence_votes, ConfidenceVoteAccumulator, P2PTagClassifier, PeerDataMap,
    ScoringBackend, TrainingBackend,
};
use crate::reliable::{LinkStats, Outgoing, ReliableLink, SendOutcome};
use crate::wire::{self, WireConfig, WireCost};
use ml::batch::TagWeightMatrix;
use ml::kmeans::{KMeans, KMeansConfig};
use ml::lsh::{LshConfig, LshIndex};
use ml::multilabel::{OneVsAllModel, OneVsAllTrainer, TagPrediction};
use ml::svm::{BinaryClassifier, LinearSvm, LinearSvmTrainer};
use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2psim::message::MessageKind;
use p2psim::{P2PNetwork, PeerBitset, PeerId};
use std::collections::BTreeSet;
use textproc::SparseVector;

/// Peers trained per parallel fan-out before their models are propagated and
/// their dense classifiers dropped. Bounds the transient dense-model working
/// set to `TRAIN_CHUNK × per-model bytes` regardless of network size while
/// keeping every core busy within a chunk.
const TRAIN_CHUNK: usize = 512;

/// Configuration of the PACE protocol.
#[derive(Debug, Clone)]
pub struct PaceConfig {
    /// Trainer for the per-tag linear SVMs.
    pub svm: LinearSvmTrainer,
    /// One-vs-all reduction settings.
    pub one_vs_all: OneVsAllTrainer,
    /// K-means settings for the local-data centroids.
    pub kmeans: KMeansConfig,
    /// LSH index settings.
    pub lsh: LshConfig,
    /// Number of nearest models consulted per prediction.
    pub top_k: usize,
    /// When `false`, the LSH index is bypassed and models are ranked by exact
    /// distance (the "LSH off" ablation A1).
    pub use_lsh: bool,
    /// Decision threshold for assigning a tag after voting.
    pub vote_threshold: f64,
    /// Relative vote cutoff: a tag must also reach this fraction of the best
    /// tag's score (calibrates ensemble votes; see
    /// [`crate::protocol::select_tags_adaptive`]).
    pub rel_threshold: f64,
    /// Minimum number of tags assigned when nothing reaches the threshold.
    pub min_tags: usize,
    /// Sharpness of the distance adaptation: a consulted model's vote weight
    /// is `accuracy · exp(−sharpness · distance)`, so larger values
    /// concentrate the ensemble on models whose training data resembles the
    /// test document.
    pub distance_sharpness: f64,
    /// Coverage damping of per-tag vote normalization (see
    /// [`crate::protocol::combine_confidence_votes`]): `0.0` fully trusts the
    /// models that know a tag however few they are, `1.0` counts every
    /// ignorant model as a "no" vote.
    pub coverage_damping: f64,
    /// Query-time scoring implementation. [`ScoringBackend::Batched`] (the
    /// default) scores each consulted model's whole tag universe in one pass
    /// over the document via its packed [`TagWeightMatrix`];
    /// [`ScoringBackend::Scalar`] keeps the pre-refactor per-tag loops as a
    /// reference. Both produce identical predictions.
    pub backend: ScoringBackend,
    /// Training-time implementation. [`TrainingBackend::Csr`] (the default)
    /// runs every peer's one-vs-all fit off one shared CSR arena (shared DCD
    /// diagonal and shuffle orders, reused solver scratch);
    /// [`TrainingBackend::Scalar`] keeps the pre-refactor per-tag slice loops
    /// as the reference. Both produce bit-identical models.
    pub train_backend: TrainingBackend,
    /// Wire accounting. Under [`WireCost::Measured`] (the default) every
    /// model + centroid propagation is really encoded — sends charge the
    /// frame length and the ensemble installs the *decoded* copy, so lossy
    /// settings ([`WireConfig::precision`], [`WireConfig::prune_top_k`])
    /// honestly affect predictions. [`WireCost::Estimated`] keeps the legacy
    /// `wire_size()` reference accounting.
    pub wire: WireConfig,
}

impl Default for PaceConfig {
    fn default() -> Self {
        Self {
            svm: LinearSvmTrainer::default(),
            one_vs_all: OneVsAllTrainer::default(),
            kmeans: KMeansConfig {
                k: 3,
                ..Default::default()
            },
            lsh: LshConfig::default(),
            top_k: 7,
            use_lsh: true,
            vote_threshold: 0.0,
            rel_threshold: 0.7,
            min_tags: 1,
            distance_sharpness: 2.0,
            coverage_damping: 0.4,
            backend: ScoringBackend::default(),
            train_backend: TrainingBackend::default(),
            wire: WireConfig::default(),
        }
    }
}

/// One peer's contribution to the ensemble.
///
/// Crate-visible: the monolithic [`Pace`] instance and the per-peer sans-io
/// core ([`crate::sansio::PaceCore`]) share this one model body — training,
/// assembly and scoring live here and in the free functions below, so the
/// two drivers cannot drift apart.
#[derive(Debug, Clone)]
pub(crate) struct PaceModel {
    source: PeerId,
    /// Dense per-tag classifiers. Present while a model is being assembled
    /// and propagated (the wire paths encode from it) and kept at rest only
    /// under the Scalar backend, whose scoring walks per-classifier weights.
    /// Under the batched backend the registry drops this after storing —
    /// `matrix` carries the same weights sparsely at a fraction of the
    /// bytes, which is what keeps 10k-peer ensembles affordable — and
    /// [`Self::warm_model`] reconstructs the dense form on demand.
    model: Option<OneVsAllModel<LinearSvm>>,
    /// The per-tag weight vectors of `model` packed into one CSR matrix, so
    /// the batched backend scores the whole tag universe in a single pass.
    matrix: TagWeightMatrix,
    centroids: Vec<SparseVector>,
    /// Cached `‖c‖²` per centroid, so the batched backend's distance
    /// computation skips re-deriving centroid norms on every query.
    centroid_norms_sq: Vec<f64>,
    /// Training accuracy of the source peer's model on its own data, used as
    /// the vote weight numerator.
    accuracy: f64,
}

impl PaceModel {
    /// The dense classifiers — borrowed directly when retained, else a
    /// transient reconstruction out of the CSR matrix (identical weights; see
    /// [`TagWeightMatrix::to_one_vs_all`]).
    pub(crate) fn warm_model(&self) -> std::borrow::Cow<'_, OneVsAllModel<LinearSvm>> {
        match &self.model {
            Some(m) => std::borrow::Cow::Borrowed(m),
            None => std::borrow::Cow::Owned(self.matrix.to_one_vs_all()),
        }
    }

    /// Distance from a query vector to this model (nearest centroid), the
    /// pre-refactor way: every centroid norm is recomputed per query.
    fn distance_to_scalar(&self, x: &SparseVector) -> f64 {
        self.centroids
            .iter()
            .map(|c| c.distance(x))
            .fold(f64::INFINITY, f64::min)
    }

    /// Same distance with the cached centroid norms and a precomputed query
    /// norm: evaluates the identical expression
    /// `sqrt(max(‖c‖² + ‖x‖² − 2·c·x, 0))`, so the result is bit-for-bit the
    /// same as [`Self::distance_to_scalar`].
    fn distance_to_batched(&self, x: &SparseVector, x_norm_sq: f64) -> f64 {
        self.centroids
            .iter()
            .zip(&self.centroid_norms_sq)
            .map(|(c, &c_norm_sq)| (c_norm_sq + x_norm_sq - 2.0 * c.dot(x)).max(0.0).sqrt())
            .fold(f64::INFINITY, f64::min)
    }

    fn distance_to(&self, x: &SparseVector, backend: ScoringBackend, x_norm_sq: f64) -> f64 {
        match backend {
            ScoringBackend::Scalar => self.distance_to_scalar(x),
            ScoringBackend::Batched => self.distance_to_batched(x, x_norm_sq),
        }
    }

    /// The peer that trained this model.
    pub(crate) fn source(&self) -> PeerId {
        self.source
    }

    /// The training accuracy propagated with the model (the vote weight
    /// numerator).
    pub(crate) fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// The propagated k-means centroids.
    pub(crate) fn centroids(&self) -> &[SparseVector] {
        &self.centroids
    }

    /// Assembles an ensemble entry from its propagated parts, building the
    /// derived scoring structures (packed weight matrix, cached centroid
    /// norms). This is the only place they are built, and it runs on the
    /// copy that is installed — decoded back out of its wire frames under
    /// [`WireCost::Measured`], so lossy wire settings honestly reach every
    /// scoring path — never on a trained copy that is about to be encoded
    /// and dropped.
    pub(crate) fn assemble(update: PaceUpdate) -> Self {
        let PaceUpdate {
            source,
            model,
            centroids,
            accuracy,
        } = update;
        let matrix = model.weight_matrix();
        let centroid_norms_sq = centroids.iter().map(SparseVector::norm_sq).collect();
        Self {
            source,
            model: Some(model),
            matrix,
            centroids,
            centroid_norms_sq,
            accuracy,
        }
    }
}

/// One peer's contribution as it travels: exactly what the model and
/// centroid frames carry, and nothing derived from it.
#[derive(Debug, Clone)]
pub(crate) struct PaceUpdate {
    /// The peer that trained the model.
    pub(crate) source: PeerId,
    /// Dense per-tag classifiers.
    pub(crate) model: OneVsAllModel<LinearSvm>,
    /// K-means centroids of the source's training vectors.
    pub(crate) centroids: Vec<SparseVector>,
    /// Training accuracy of `model` on the source's own data.
    pub(crate) accuracy: f64,
}

/// `(model, centroids)` payload sizes of one contribution under
/// [`WireCost::Estimated`].
fn estimated_wire_sizes(
    model: &OneVsAllModel<LinearSvm>,
    centroids: &[SparseVector],
) -> (usize, usize) {
    (
        model.wire_size() + 8,
        centroids.iter().map(SparseVector::wire_size).sum(),
    )
}

/// Trains one peer's PACE contribution — per-tag linear SVMs, guarded
/// propagation pruning, averaged training accuracy, k-means centroids — from
/// its local data, warm-starting from `warm` when given.
///
/// This is the single protocol body shared by the monolithic [`Pace`]
/// instance (simulator driver) and the per-peer sans-io
/// [`crate::sansio::PaceCore`] (socket driver): both train through here, so
/// the model a peer propagates is identical whichever driver runs it.
///
/// One peer's fit is the unit of parallelism: the body runs under
/// [`parallel::inline`], so a lone refit (`refine`) never forks threads for
/// a few dozen microseconds of work. Batches of peers fan out one level up,
/// in [`Pace::train`] / [`Pace::train_incremental`].
pub(crate) fn train_pace_model(
    config: &PaceConfig,
    peer: PeerId,
    data: &MultiLabelDataset,
    warm: Option<&OneVsAllModel<LinearSvm>>,
) -> Option<PaceUpdate> {
    if data.is_empty() {
        return None;
    }
    parallel::inline(|| {
        let model = match (config.train_backend, warm) {
            (TrainingBackend::Csr, Some(prev)) => {
                config
                    .one_vs_all
                    .train_linear_warm_csr(data, &config.svm, prev)
            }
            (TrainingBackend::Csr, None) => config.one_vs_all.train_linear_csr(data, &config.svm),
            (TrainingBackend::Scalar, Some(prev)) => {
                config.one_vs_all.train_linear_warm(data, &config.svm, prev)
            }
            (TrainingBackend::Scalar, None) => config.one_vs_all.train_linear(data, &config.svm),
        };
        if model.num_tags() == 0 {
            return None;
        }
        // Accuracy-guarded propagation pruning: when the measured wire is
        // configured to prune, the peer ships (and votes with) the top-k
        // weights per tag — unless that would cost more local training
        // accuracy than the guard allows, in which case the full model
        // stands. The accuracy below is computed on the model that actually
        // propagates.
        let model = match (config.wire.cost, config.wire.prune_top_k) {
            (WireCost::Measured, Some(k)) => {
                ml::codec::prune_model_guarded(&model, k, data, config.wire.prune_guard)
            }
            _ => model,
        };
        let accuracy = training_accuracy(&model, data);
        // K-means runs on the borrowed vector slice — no per-peer clone of
        // the training corpus.
        let kmeans = KMeans::fit(data.vectors(), &config.kmeans);
        Some(PaceUpdate {
            source: peer,
            model,
            centroids: kmeans.centroids().to_vec(),
            accuracy,
        })
    })
}

/// Training accuracy of `model` on `data`, averaged over the per-tag binary
/// problems, from the per-classifier decisions. `ml::batch` pins those
/// bit-identical (up to the sign of an exact zero, which `>= 0.0` cannot
/// see) to the packed matrix's scatter, so this is the number a
/// [`TagWeightMatrix`] pass over the corpus yields — without building one.
fn training_accuracy(model: &OneVsAllModel<LinearSvm>, data: &MultiLabelDataset) -> f64 {
    let acc_sum: f64 = model
        .iter()
        .map(|(tag, classifier)| {
            let correct = data
                .iter()
                .filter(|(x, tags)| (classifier.decision(x) >= 0.0) == tags.contains(&tag))
                .count();
            correct as f64 / data.len() as f64
        })
        .sum();
    acc_sum / model.num_tags() as f64
}

/// Ranks `candidates` by their centroid distance to the query and keeps the
/// `top_k` nearest — PACE's model-retrieval step, shared by the monolithic
/// exact-ranking path (`use_lsh: false`) and the sans-io core (which holds
/// its ensemble as a plain per-peer map and always ranks exactly).
pub(crate) fn rank_pace_models<'a>(
    config: &PaceConfig,
    candidates: impl Iterator<Item = &'a PaceModel>,
    x: &SparseVector,
    x_norm_sq: f64,
) -> Vec<(&'a PaceModel, f64)> {
    let mut ranked: Vec<(&PaceModel, f64)> = candidates
        .map(|m| (m, m.distance_to(x, config.backend, x_norm_sq)))
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked.truncate(config.top_k.max(1));
    ranked
}

/// Combines the consulted models' votes into per-tag scores — PACE's
/// adaptation step (vote weight = accuracy · exp(−sharpness · distance)),
/// shared verbatim by [`Pace`] and [`crate::sansio::PaceCore`] so both
/// drivers vote identically over the same ensemble.
pub(crate) fn combine_pace_votes(
    config: &PaceConfig,
    nearest: &[(&PaceModel, f64)],
    x: &SparseVector,
) -> Vec<TagPrediction> {
    match config.backend {
        ScoringBackend::Scalar => {
            // Pre-refactor reference: one sorted, allocated score list per
            // consulted model, one dot product per (model, tag).
            let votes: Vec<(f64, Vec<TagPrediction>)> = nearest
                .iter()
                .map(|&(m, dist)| {
                    let weight = m.accuracy * (-config.distance_sharpness * dist).exp();
                    let scores = m
                        .model
                        .as_ref()
                        .expect("the Scalar backend retains dense classifiers")
                        .scores(x)
                        .into_iter()
                        .map(|p| TagPrediction {
                            score: p.confidence,
                            ..p
                        })
                        .collect();
                    (weight, scores)
                })
                .collect();
            combine_confidence_votes(&votes, config.coverage_damping)
        }
        ScoringBackend::Batched => {
            // Batched path: each model's packed matrix scores its whole
            // tag universe in one pass over the document's nonzeros, and
            // the confidences stream straight into the shared vote
            // accumulator (no per-model allocation, no per-model sort —
            // the combination is per-tag, so the order of a model's votes
            // is irrelevant and the result is identical to the scalar
            // path).
            let mut acc = ConfidenceVoteAccumulator::new();
            let mut decisions = Vec::new();
            let mut votes = Vec::new();
            for &(m, dist) in nearest {
                let weight = m.accuracy * (-config.distance_sharpness * dist).exp();
                acc.add_voter(weight);
                m.matrix
                    .confidence_votes_into(x, &mut decisions, &mut votes);
                for p in &votes {
                    acc.add_vote(p.tag, weight, p.score);
                }
            }
            acc.finish(config.coverage_damping)
        }
    }
}

/// The PACE protocol instance.
///
/// Peer state is arena/SoA-laid-out for scale: the model registry is a dense
/// slab indexed by peer (not a map of heap nodes), and the "who received
/// whose model" relation is a bitset matrix — n² *bits*, so 10 000 peers
/// cost ~12.5 MB where per-peer `BTreeSet`s would cost gigabytes.
#[derive(Debug, Clone)]
pub struct Pace {
    config: PaceConfig,
    /// All propagated models: a dense slab indexed by source peer
    /// (`None` = this peer has not contributed a model).
    models: Vec<Option<PaceModel>>,
    /// LSH index over model centroids → source peer.
    index: LshIndex<PeerId>,
    /// For every peer, the set of source peers whose model it received
    /// (broadcasts can fail for churned-out receivers). One bitset row per
    /// peer — the n×n delivery matrix.
    received: Vec<PeerBitset>,
    /// Per-peer local data retained for refinement retraining.
    local_data: Vec<MultiLabelDataset>,
    /// Peers whose local data grew while they were offline (or whose refit
    /// was otherwise skipped): retried on the next incremental round.
    dirty: PeerBitset,
    /// Per-source model version, bumped on every (re-)propagation — the
    /// currency of the anti-entropy digests.
    versions: Vec<u64>,
    /// The send path: passthrough by default, ack/retransmit when
    /// [`WireConfig::reliability`] is set. Also the ledger of every send
    /// outcome (losses, retransmits, re-syncs).
    link: ReliableLink,
    trained: bool,
}

impl Pace {
    /// Creates an untrained PACE instance.
    pub fn new(config: PaceConfig) -> Self {
        let index = LshIndex::new(config.lsh.clone());
        let link = ReliableLink::new(config.wire.reliability);
        Self {
            config,
            models: Vec::new(),
            index,
            received: Vec::new(),
            local_data: Vec::new(),
            dirty: PeerBitset::default(),
            versions: Vec::new(),
            link,
            trained: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PaceConfig {
        &self.config
    }

    /// Number of models in the ensemble.
    pub fn ensemble_size(&self) -> usize {
        self.models.iter().flatten().count()
    }

    /// The stored model slab entry for a peer, if it contributed one.
    fn model_of(&self, peer: PeerId) -> Option<&PaceModel> {
        self.models.get(peer.index()).and_then(Option::as_ref)
    }

    /// Trains one peer's local model + centroids from scratch.
    fn train_local(&self, peer: PeerId, data: &MultiLabelDataset) -> Option<PaceUpdate> {
        self.train_local_warm(peer, data, None)
    }

    /// Trains one peer's local model + centroids, warm-starting the per-tag
    /// SVMs from `warm` when given (the incremental path: a few SGD passes
    /// from the stored weights instead of a cold dual solve).
    fn train_local_warm(
        &self,
        peer: PeerId,
        data: &MultiLabelDataset,
        warm: Option<&OneVsAllModel<LinearSvm>>,
    ) -> Option<PaceUpdate> {
        train_pace_model(&self.config, peer, data, warm)
    }

    /// Broadcasts a model to all other peers, recording who received it, and
    /// installs it in the shared store and LSH index.
    ///
    /// Under [`WireCost::Measured`] the model and centroids are encoded into
    /// real wire frames **once** (every receiver gets the same payload), the
    /// sends charge the frame lengths, and the ensemble installs the model
    /// *decoded back out of the frames* — so the bytes the statistics record
    /// are exactly the bytes the predictions run on. Under
    /// [`WireCost::Estimated`] the legacy `wire_size()` estimates are charged
    /// and the in-memory model is installed untouched.
    fn propagate(&mut self, net: &mut P2PNetwork, update: PaceUpdate, kind: MessageKind) {
        let source = update.source;
        let n = net.num_peers();
        if self.received.len() < n {
            self.received.resize_with(n, || PeerBitset::new(n));
        }
        if self.versions.len() < n {
            self.versions.resize(n, 0);
        }
        self.versions[source.index()] += 1;
        // A peer always "has" its own model.
        self.received[source.index()].insert(source);
        // The fan-out is the link's one broadcast walk: no target list is
        // materialized, the only per-propagation allocations are the wire
        // frames encoded once below, and every copy's outcome comes back
        // here, so none is silently discarded.
        let received = &mut self.received;
        let record = |to: PeerId, outcomes: [SendOutcome; 2]| match outcomes {
            [SendOutcome::Arrived, SendOutcome::Arrived] => {
                received[to.index()].insert(source);
            }
            // A fault drop means the receiver provably missed *this*
            // version while its old slab entry is gone: clear the bit so
            // anti-entropy can repair the gap. Offline failures keep the
            // pre-fault semantics (bit untouched), so fault-free runs
            // behave bit-identically to the pre-reliability send path.
            [SendOutcome::FaultLost, _] | [_, SendOutcome::FaultLost] => {
                received[to.index()].remove(source);
            }
            _ => {}
        };
        let installed = match self.config.wire.cost {
            WireCost::Estimated => {
                let (model_bytes, centroid_bytes) =
                    estimated_wire_sizes(&update.model, &update.centroids);
                let parts = [
                    Outgoing::Sized {
                        kind,
                        size_bytes: model_bytes,
                    },
                    Outgoing::Sized {
                        kind: MessageKind::CentroidPropagation,
                        size_bytes: centroid_bytes,
                    },
                ];
                self.link.broadcast(net, source, parts, record);
                update
            }
            WireCost::Measured => {
                let model_frame = wire::encode_pace_model(
                    &update.model,
                    update.accuracy,
                    self.config.wire.precision,
                );
                let centroid_frame = wire::encode_centroids(&update.centroids);
                let parts = [
                    Outgoing::Frame {
                        kind,
                        frame: &model_frame,
                        validate: &|b| wire::decode_pace_model(b).is_ok(),
                    },
                    Outgoing::Frame {
                        kind: MessageKind::CentroidPropagation,
                        frame: &centroid_frame,
                        validate: &|b| wire::decode_centroids(b).is_ok(),
                    },
                ];
                self.link.broadcast(net, source, parts, record);
                let (model, accuracy) = wire::decode_pace_model(&model_frame)
                    .expect("self-encoded PACE model frame decodes");
                let centroids = wire::decode_centroids(&centroid_frame)
                    .expect("self-encoded centroid frame decodes");
                PaceUpdate {
                    source,
                    model,
                    centroids,
                    accuracy,
                }
            }
        };
        // Replacing a peer's model: its old centroids must leave the index,
        // otherwise incremental re-propagations accumulate stale positions
        // that crowd the candidate set and skew model retrieval.
        if self.models.len() < n {
            self.models.resize_with(n, || None);
        }
        if self.model_of(source).is_some() {
            self.index.retire(&source);
        }
        let mut pace_model = PaceModel::assemble(installed);
        for c in &pace_model.centroids {
            self.index.insert(c.clone(), source);
        }
        if matches!(self.config.backend, ScoringBackend::Batched) {
            // At rest the batched backend scores through `matrix` and
            // warm-starts reconstruct from it, so the dense classifiers are
            // dead weight — dropping them here is what keeps the registry's
            // per-peer footprint sparse-sized at 10k peers.
            pace_model.model = None;
        }
        self.models[source.index()] = Some(pace_model);
    }

    /// The top-k models available to `peer` for a query, with their distances.
    fn nearest_models(&self, peer: PeerId, x: &SparseVector) -> Vec<(&PaceModel, f64)> {
        let Some(available) = self.received.get(peer.index()).filter(|a| !a.is_empty()) else {
            return Vec::new();
        };
        let backend = self.config.backend;
        // The query norm appears in every centroid distance; the batched
        // backend computes it once per query instead of once per centroid.
        let x_norm_sq = x.norm_sq();
        if !self.config.use_lsh {
            // Exact ranking over everything this peer holds — the same
            // shared body the sans-io core ranks its ensemble map with.
            return rank_pace_models(
                &self.config,
                available.ones().filter_map(|s| self.model_of(s)),
                x,
                x_norm_sq,
            );
        }
        let mut candidates: Vec<(&PaceModel, f64)> = {
            // Over-fetch from the index (several centroids can map to the same
            // model, and some candidates may not have reached this peer).
            let want = self.config.top_k * 4 + 8;
            let hits = match backend {
                ScoringBackend::Scalar => self.index.query(x, want),
                ScoringBackend::Batched => self.index.query_batched(x, want),
            };
            let mut seen = BTreeSet::new();
            let mut out = Vec::new();
            for (source, _dist) in hits {
                if !available.contains(*source) || !seen.insert(*source) {
                    continue;
                }
                if let Some(m) = self.model_of(*source) {
                    out.push((m, m.distance_to(x, backend, x_norm_sq)));
                }
            }
            out
        };
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(self.config.top_k.max(1));
        candidates
    }

    /// Per-tag scores for a query, computed entirely locally (PACE's
    /// prediction phase is communication-free, so this only needs shared
    /// access to the network for the online check — which is what lets
    /// [`P2PTagClassifier::predict_batch`] fan queries out in parallel).
    fn scores_local(
        &self,
        net: &P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<Vec<TagPrediction>, ProtocolError> {
        if !self.trained {
            return Err(ProtocolError::NotTrained);
        }
        if !net.is_online(peer) {
            return Err(ProtocolError::PeerOffline);
        }
        let nearest = self.nearest_models(peer, x);
        if nearest.is_empty() {
            return Err(ProtocolError::NoModelReachable);
        }
        // Weight each model's vote by accuracy and distance — this is PACE's
        // adaptation to the test data distribution. Models vote with their
        // squashed confidence, not the raw SVM margin: margins from different
        // peers' models are not calibrated against each other, and averaging
        // them lets a few confidently-negative models drown out the models
        // that actually know a tag (which collapses recall). The per-tag
        // normalization and coverage damping live in
        // [`combine_confidence_votes`] / [`ConfidenceVoteAccumulator`],
        // reached through the driver-shared [`combine_pace_votes`] body.
        Ok(combine_pace_votes(&self.config, &nearest, x))
    }
}

impl P2PTagClassifier for Pace {
    fn name(&self) -> &'static str {
        "pace"
    }

    fn train(
        &mut self,
        net: &mut P2PNetwork,
        peer_data: &PeerDataMap,
    ) -> Result<(), ProtocolError> {
        let n = net.num_peers();
        self.models = (0..n).map(|_| None).collect();
        self.index = LshIndex::new(self.config.lsh.clone());
        self.received = (0..n).map(|_| PeerBitset::new(n)).collect();
        self.dirty = PeerBitset::new(n);
        self.versions = vec![0; n];
        self.local_data = peer_data.clone();
        self.local_data
            .resize(net.num_peers(), MultiLabelDataset::new());

        // Per-peer local training is embarrassingly parallel: each peer's SVMs
        // and centroids depend only on its own data (every trainer seeds its
        // own RNG, nothing is shared). The ordered par_map keeps the model
        // list in peer order, so the sequential propagation below sends the
        // same messages in the same order as the pre-refactor per-peer loop.
        let jobs: Vec<(PeerId, &MultiLabelDataset)> = peer_data
            .iter()
            .enumerate()
            .map(|(i, data)| (PeerId::from(i), data))
            .collect();
        // Training runs in bounded chunks, each propagated (and its dense
        // classifiers dropped) before the next chunk trains: at 10k peers,
        // holding every freshly trained dense model at once would dwarf the
        // sparse registry the chunks feed.
        for chunk in jobs.chunks(TRAIN_CHUNK) {
            let net_ref: &P2PNetwork = net;
            let models = parallel::par_map(chunk, |&(peer, data)| {
                if !net_ref.is_online(peer) {
                    return None;
                }
                self.train_local(peer, data)
            });
            for model in models.into_iter().flatten() {
                self.propagate(net, model, MessageKind::ModelPropagation);
            }
        }
        // Offline peers keep their data; the next incremental round folds it
        // in once they are back online.
        for &(peer, data) in &jobs {
            if !data.is_empty() && !net.is_online(peer) {
                self.dirty.insert(peer);
            }
        }
        self.trained = true;
        Ok(())
    }

    fn scores(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<Vec<TagPrediction>, ProtocolError> {
        self.scores_local(net, peer, x)
    }

    fn predict(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<BTreeSet<TagId>, ProtocolError> {
        let scores = self.scores_local(net, peer, x)?;
        Ok(crate::protocol::select_tags_adaptive(
            &scores,
            self.config.vote_threshold,
            self.config.rel_threshold,
            self.config.min_tags,
        ))
    }

    fn predict_batch(
        &self,
        net: &mut P2PNetwork,
        requests: &[(PeerId, &SparseVector)],
    ) -> Vec<Result<BTreeSet<TagId>, ProtocolError>> {
        // PACE prediction is entirely local (zero communication per query),
        // so a batch of documents fans out across cores; the ordered
        // reduction returns results in request order, identical to the
        // sequential loop.
        let net_ref: &P2PNetwork = net;
        parallel::par_map(requests, |&(peer, x)| {
            let scores = self.scores_local(net_ref, peer, x)?;
            Ok(crate::protocol::select_tags_adaptive(
                &scores,
                self.config.vote_threshold,
                self.config.rel_threshold,
                self.config.min_tags,
            ))
        })
    }

    fn train_incremental(
        &mut self,
        net: &mut P2PNetwork,
        new_data: &PeerDataMap,
    ) -> Result<(), ProtocolError> {
        if !self.trained {
            return Err(ProtocolError::NotTrained);
        }
        if self.local_data.len() < net.num_peers() {
            self.local_data
                .resize(net.num_peers(), MultiLabelDataset::new());
        }
        // Fold the new examples into the per-peer stores first, then
        // warm-start retrain every peer with unabsorbed data — the ones that
        // just received examples plus the ones still dirty from rounds they
        // spent offline.
        for (i, data) in new_data.iter().enumerate() {
            if data.is_empty() {
                continue;
            }
            if i >= self.local_data.len() {
                self.local_data.resize(i + 1, MultiLabelDataset::new());
            }
            self.local_data[i].extend_from(data);
            self.dirty.insert(PeerId::from(i));
        }
        let touched: Vec<PeerId> = self.dirty.ones().collect();
        // Same shape as train(): independent per-peer refits fan out across
        // cores in bounded chunks, the ordered reduction keeps propagation
        // order deterministic.
        for chunk in touched.chunks(TRAIN_CHUNK) {
            let net_ref: &P2PNetwork = net;
            let models = parallel::par_map(chunk, |&peer| {
                if !net_ref.is_online(peer) {
                    return None;
                }
                let warm = self.model_of(peer).map(|m| m.warm_model());
                self.train_local_warm(peer, &self.local_data[peer.index()], warm.as_deref())
            });
            for model in models.into_iter().flatten() {
                // Replaces this peer's model in the ensemble and swaps its
                // centroids in the LSH index.
                self.dirty.remove(model.source);
                self.propagate(net, model, MessageKind::ModelPropagation);
            }
        }
        Ok(())
    }

    fn refine(
        &mut self,
        net: &mut P2PNetwork,
        peer: PeerId,
        example: &MultiLabelExample,
    ) -> Result<(), ProtocolError> {
        if !self.trained {
            return Err(ProtocolError::NotTrained);
        }
        if !net.is_online(peer) {
            return Err(ProtocolError::PeerOffline);
        }
        let idx = peer.index();
        if idx >= self.local_data.len() {
            self.local_data.resize(idx + 1, MultiLabelDataset::new());
        }
        self.local_data[idx].push(example.clone());
        let warm = self.model_of(peer).map(|m| m.warm_model());
        if let Some(model) = self.train_local_warm(peer, &self.local_data[idx], warm.as_deref()) {
            // Re-propagating replaces this peer's model in the ensemble and
            // swaps its centroids in the LSH index.
            self.dirty.remove(peer);
            self.propagate(net, model, MessageKind::RefinementUpdate);
        }
        Ok(())
    }

    fn on_crash_restart(&mut self, _net: &mut P2PNetwork, peer: PeerId) {
        // A restart wipes what the peer had fetched over the wire: its row of
        // the delivery matrix empties, so every remote model must be repaired
        // by anti-entropy. Its durable local data survives, and with it its
        // own model (re-derivable locally without touching the network).
        let has_own = self.model_of(peer).is_some();
        if let Some(row) = self.received.get_mut(peer.index()) {
            row.clear();
            if has_own {
                row.insert(peer);
            }
        }
    }

    fn resync(&mut self, net: &mut P2PNetwork, peer: PeerId) -> usize {
        if !self.trained || !net.is_online(peer) || peer.index() >= self.received.len() {
            return 0;
        }
        // Deterministic anti-entropy partner: the lowest-indexed online peer
        // (other than the rejoiner) that holds any models.
        let partner = (0..net.num_peers()).map(PeerId::from).find(|&p| {
            p != peer
                && net.is_online(p)
                && self
                    .received
                    .get(p.index())
                    .is_some_and(|row| !row.is_empty())
        });
        let Some(partner) = partner else { return 0 };
        // The rejoining peer advertises its holdings as a (source, version)
        // digest; the partner replies with the models the peer lacks.
        let digest: Vec<(u64, u64)> = self.received[peer.index()]
            .ones()
            .map(|s| (s.0, self.versions.get(s.index()).copied().unwrap_or(0)))
            .collect();
        let digest_frame = wire::encode_digest(&digest);
        let digest_out = match self.config.wire.cost {
            WireCost::Measured => self.link.deliver_frame(
                net,
                peer,
                partner,
                MessageKind::AntiEntropy,
                &digest_frame,
                |b| wire::decode_digest(b).is_ok(),
            ),
            WireCost::Estimated => self.link.deliver_sized(
                net,
                peer,
                partner,
                MessageKind::AntiEntropy,
                digest_frame.len(),
            ),
        };
        if digest_out != SendOutcome::Arrived {
            return 0;
        }
        let missing: Vec<PeerId> = self.received[partner.index()]
            .ones()
            .filter(|&s| !self.received[peer.index()].contains(s))
            .collect();
        let mut repaired = 0;
        for source in missing {
            // Encode the partner's copy before touching the link (the model
            // borrow must end before the mutable send).
            let payload = self.model_of(source).map(|m| match self.config.wire.cost {
                WireCost::Measured => {
                    let model_frame = wire::encode_pace_model(
                        &m.warm_model(),
                        m.accuracy,
                        self.config.wire.precision,
                    );
                    let centroid_frame = wire::encode_centroids(&m.centroids);
                    (Some((model_frame, centroid_frame)), 0, 0)
                }
                WireCost::Estimated => {
                    let (model_bytes, centroid_bytes) =
                        estimated_wire_sizes(&m.warm_model(), &m.centroids);
                    (None, model_bytes, centroid_bytes)
                }
            });
            let Some((frames, model_bytes, centroid_bytes)) = payload else {
                continue;
            };
            let (model_out, centroid_out) = match &frames {
                Some((model_frame, centroid_frame)) => (
                    self.link.deliver_frame(
                        net,
                        partner,
                        peer,
                        MessageKind::AntiEntropy,
                        model_frame,
                        |b| wire::decode_pace_model(b).is_ok(),
                    ),
                    self.link.deliver_frame(
                        net,
                        partner,
                        peer,
                        MessageKind::AntiEntropy,
                        centroid_frame,
                        |b| wire::decode_centroids(b).is_ok(),
                    ),
                ),
                None => (
                    self.link.deliver_sized(
                        net,
                        partner,
                        peer,
                        MessageKind::AntiEntropy,
                        model_bytes,
                    ),
                    self.link.deliver_sized(
                        net,
                        partner,
                        peer,
                        MessageKind::AntiEntropy,
                        centroid_bytes,
                    ),
                ),
            };
            if model_out == SendOutcome::Arrived && centroid_out == SendOutcome::Arrived {
                self.received[peer.index()].insert(source);
                self.link.note_resync();
                net.note_resync();
                repaired += 1;
            }
        }
        repaired
    }

    fn link_stats(&self) -> LinkStats {
        *self.link.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_peer_data(num_peers: usize, per_peer: usize, seed: u64) -> PeerDataMap {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_peers)
            .map(|_| {
                let mut ds = MultiLabelDataset::new();
                for _ in 0..per_peer {
                    let which = rng.gen_range(0..3);
                    let a = 0.8 + rng.gen_range(0.0..0.4);
                    let b = 0.8 + rng.gen_range(0.0..0.4);
                    let (vector, tags): (SparseVector, Vec<TagId>) = match which {
                        0 => (SparseVector::from_pairs([(0, a)]), vec![1]),
                        1 => (SparseVector::from_pairs([(1, b)]), vec![2]),
                        _ => (SparseVector::from_pairs([(0, a), (1, b)]), vec![1, 2]),
                    };
                    ds.push(MultiLabelExample::new(vector, tags));
                }
                ds
            })
            .collect()
    }

    fn network(num_peers: usize) -> P2PNetwork {
        P2PNetwork::new(p2psim::SimConfig {
            num_peers,
            horizon_secs: 100_000,
            ..Default::default()
        })
    }

    /// The equivalence suite's corpus generator (`tests/equivalence.rs`):
    /// five feature-aligned tags plus co-occurring combinations.
    fn equivalence_peer_data(num_peers: usize, per_peer: usize, seed: u64) -> PeerDataMap {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_peers)
            .map(|_| {
                let mut ds = MultiLabelDataset::new();
                for _ in 0..per_peer {
                    let which = rng.gen_range(0..5u32);
                    let a = 0.7 + rng.gen_range(0.0..0.6);
                    let b = 0.7 + rng.gen_range(0.0..0.6);
                    let (vector, tags): (SparseVector, Vec<TagId>) = match which {
                        0 => (SparseVector::from_pairs([(0, a)]), vec![1]),
                        1 => (SparseVector::from_pairs([(1, a)]), vec![2]),
                        2 => (SparseVector::from_pairs([(2, a), (0, 0.2)]), vec![3]),
                        3 => (SparseVector::from_pairs([(0, a), (1, b)]), vec![1, 2]),
                        _ => (SparseVector::from_pairs([(2, a), (3, b)]), vec![3, 4]),
                    };
                    ds.push(MultiLabelExample::new(vector, tags));
                }
                ds
            })
            .collect()
    }

    /// The accuracy the packed matrix's scatter yields: one batched pass per
    /// training document, per-slot correct counts, averaged over the tags.
    fn csr_scatter_accuracy(model: &OneVsAllModel<LinearSvm>, data: &MultiLabelDataset) -> f64 {
        let matrix = model.weight_matrix();
        let mut correct = vec![0usize; matrix.num_tags()];
        let mut decisions = Vec::new();
        for (x, tags) in data.iter() {
            matrix.decisions_into(x, &mut decisions);
            for (slot, &tag) in matrix.tags().iter().enumerate() {
                if (decisions[slot] >= 0.0) == tags.contains(&tag) {
                    correct[slot] += 1;
                }
            }
        }
        let acc_sum: f64 = correct.iter().map(|&c| c as f64 / data.len() as f64).sum();
        acc_sum / matrix.num_tags() as f64
    }

    #[test]
    fn accuracy_from_dense_decisions_equals_the_csr_scatter_bit_for_bit() {
        let pruned = PaceConfig {
            wire: WireConfig {
                prune_top_k: Some(1),
                ..WireConfig::default()
            },
            ..PaceConfig::default()
        };
        let mut checked = 0;
        for config in [PaceConfig::default(), pruned] {
            for seed in [3, 11, 21, 42, 77] {
                let cold = equivalence_peer_data(6, 14, seed);
                let more = equivalence_peer_data(6, 5, seed ^ 0xABCD);
                for (i, (data, extra)) in cold.iter().zip(&more).enumerate() {
                    let peer = PeerId::from(i);
                    let first = train_pace_model(&config, peer, data, None).unwrap();
                    assert_eq!(
                        first.accuracy.to_bits(),
                        csr_scatter_accuracy(&first.model, data).to_bits(),
                        "cold fit, seed {seed}, peer {i}"
                    );
                    let mut grown = data.clone();
                    grown.extend_from(extra);
                    let warm = train_pace_model(&config, peer, &grown, Some(&first.model)).unwrap();
                    assert_eq!(
                        warm.accuracy.to_bits(),
                        csr_scatter_accuracy(&warm.model, &grown).to_bits(),
                        "warm refit, seed {seed}, peer {i}"
                    );
                    assert!(warm.accuracy > 0.5 && warm.accuracy <= 1.0);
                    checked += 2;
                }
            }
        }
        assert_eq!(checked, 120);
    }

    #[test]
    fn trains_and_predicts_correct_tags() {
        let mut net = network(12);
        let data = toy_peer_data(12, 12, 1);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        assert_eq!(pace.ensemble_size(), 12);

        let p = PeerId(5);
        let pred1 = pace
            .predict(&mut net, p, &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert!(pred1.contains(&1), "{pred1:?}");
        let pred2 = pace
            .predict(&mut net, p, &SparseVector::from_pairs([(1, 1.0)]))
            .unwrap();
        assert!(pred2.contains(&2), "{pred2:?}");
    }

    #[test]
    fn propagation_ships_models_and_centroids_but_no_training_data() {
        let mut net = network(10);
        let data = toy_peer_data(10, 10, 2);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        let stats = net.stats();
        assert!(stats.kind(MessageKind::ModelPropagation).messages >= 9 * 10);
        assert!(stats.kind(MessageKind::CentroidPropagation).messages >= 9 * 10);
        assert_eq!(stats.kind(MessageKind::TrainingData).messages, 0);
        // Prediction is local: no DHT lookups, no prediction queries.
        assert_eq!(stats.kind(MessageKind::PredictionQuery).messages, 0);
    }

    #[test]
    fn prediction_is_free_of_communication() {
        let mut net = network(10);
        let data = toy_peer_data(10, 10, 3);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        let before = net.stats().total_messages();
        for _ in 0..20 {
            pace.predict(&mut net, PeerId(2), &SparseVector::from_pairs([(0, 1.0)]))
                .unwrap();
        }
        assert_eq!(net.stats().total_messages(), before);
    }

    #[test]
    fn top_k_limits_the_number_of_voters() {
        let mut net = network(20);
        let data = toy_peer_data(20, 10, 4);
        let mut pace = Pace::new(PaceConfig {
            top_k: 3,
            ..Default::default()
        });
        pace.train(&mut net, &data).unwrap();
        let nearest = pace.nearest_models(PeerId(0), &SparseVector::from_pairs([(0, 1.0)]));
        assert!(nearest.len() <= 3);
        assert!(!nearest.is_empty());
    }

    #[test]
    fn lsh_and_exact_ranking_agree_on_predictions() {
        let mut net_a = network(16);
        let mut net_b = network(16);
        let data = toy_peer_data(16, 12, 5);
        let mut with_lsh = Pace::new(PaceConfig {
            use_lsh: true,
            ..Default::default()
        });
        let mut without_lsh = Pace::new(PaceConfig {
            use_lsh: false,
            ..Default::default()
        });
        with_lsh.train(&mut net_a, &data).unwrap();
        without_lsh.train(&mut net_b, &data).unwrap();
        let mut agree = 0;
        let probes = [
            SparseVector::from_pairs([(0, 1.0)]),
            SparseVector::from_pairs([(1, 1.0)]),
            SparseVector::from_pairs([(0, 1.0), (1, 1.0)]),
            SparseVector::from_pairs([(0, 0.9)]),
            SparseVector::from_pairs([(1, 1.2)]),
        ];
        for probe in &probes {
            let a = with_lsh.predict(&mut net_a, PeerId(1), probe).unwrap();
            let b = without_lsh.predict(&mut net_b, PeerId(1), probe).unwrap();
            if a == b {
                agree += 1;
            }
        }
        assert!(agree >= 4, "LSH changed too many predictions: {agree}/5");
    }

    #[test]
    fn untrained_protocol_errors() {
        let mut net = network(4);
        let pace = Pace::new(PaceConfig::default());
        assert_eq!(
            pace.scores(&mut net, PeerId(0), &SparseVector::from_pairs([(0, 1.0)]))
                .unwrap_err(),
            ProtocolError::NotTrained
        );
    }

    #[test]
    fn refinement_teaches_a_new_tag() {
        let mut net = network(8);
        let data = toy_peer_data(8, 10, 6);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        let probe = SparseVector::from_pairs([(7, 1.5)]);
        let before = pace.predict(&mut net, PeerId(2), &probe).unwrap();
        assert!(!before.contains(&9));
        for i in 0..8 {
            let v = SparseVector::from_pairs([(7, 1.0 + 0.1 * i as f64)]);
            pace.refine(&mut net, PeerId(2), &MultiLabelExample::new(v, [9]))
                .unwrap();
        }
        let scores = pace.scores(&mut net, PeerId(2), &probe).unwrap();
        assert!(scores.iter().any(|p| p.tag == 9));
        assert!(net.stats().kind(MessageKind::RefinementUpdate).messages > 0);
    }

    #[test]
    fn incremental_training_folds_new_tags_in_without_full_retrain() {
        let mut net = network(10);
        let data = toy_peer_data(10, 10, 8);
        let mut pace = Pace::new(PaceConfig::default());
        assert_eq!(
            pace.train_incremental(&mut net, &data).unwrap_err(),
            ProtocolError::NotTrained
        );
        pace.train(&mut net, &data).unwrap();
        let probe = SparseVector::from_pairs([(6, 1.2)]);
        let before = pace.predict(&mut net, PeerId(3), &probe).unwrap();
        assert!(!before.contains(&5));
        // Peer 3 alone receives a batch of new documents carrying tag 5.
        let mut new_data = vec![MultiLabelDataset::new(); 10];
        for i in 0..10 {
            new_data[3].push(MultiLabelExample::new(
                SparseVector::from_pairs([(6, 1.0 + 0.05 * i as f64)]),
                [5],
            ));
        }
        let msgs_before = net.stats().kind(MessageKind::ModelPropagation).messages;
        pace.train_incremental(&mut net, &new_data).unwrap();
        // Only peer 3's refreshed model was re-propagated (one broadcast).
        let msgs_after = net.stats().kind(MessageKind::ModelPropagation).messages;
        assert_eq!(msgs_after - msgs_before, 9);
        let scores = pace.scores(&mut net, PeerId(3), &probe).unwrap();
        assert!(scores.iter().any(|p| p.tag == 5), "{scores:?}");
    }

    #[test]
    fn offline_peers_new_data_is_folded_in_once_they_return() {
        use p2psim::churn::ChurnModel;
        let mut net = P2PNetwork::new(p2psim::SimConfig {
            num_peers: 12,
            churn: ChurnModel::Exponential {
                mean_session_secs: 300.0,
                mean_offline_secs: 300.0,
            },
            horizon_secs: 1_000_000,
            seed: 3,
            ..Default::default()
        });
        let data = toy_peer_data(12, 10, 10);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        // Find an offline peer and hand it new documents with a new tag.
        let mut guard = 0;
        while net.num_online() == 12 && guard < 1_000 {
            net.advance(p2psim::SimTime::from_secs(100));
            guard += 1;
        }
        let offline = net
            .peers()
            .find(|&p| !net.is_online(p))
            .expect("some peer is offline");
        let mut new_data = vec![MultiLabelDataset::new(); 12];
        for i in 0..10 {
            new_data[offline.index()].push(MultiLabelExample::new(
                SparseVector::from_pairs([(8, 1.0 + 0.05 * i as f64)]),
                [6],
            ));
        }
        pace.train_incremental(&mut net, &new_data).unwrap();
        // The peer was offline: nothing propagated yet. Wait for it to come
        // back, then an incremental round with no new data flushes its
        // outstanding examples.
        let mut guard = 0;
        while !net.is_online(offline) && guard < 10_000 {
            net.advance(p2psim::SimTime::from_secs(50));
            guard += 1;
        }
        assert!(net.is_online(offline), "peer came back online");
        let empty = vec![MultiLabelDataset::new(); 12];
        pace.train_incremental(&mut net, &empty).unwrap();
        let probe = SparseVector::from_pairs([(8, 1.2)]);
        let scores = pace.scores(&mut net, offline, &probe).unwrap();
        assert!(
            scores.iter().any(|p| p.tag == 6),
            "returning peer's knowledge reached the ensemble: {scores:?}"
        );
    }

    #[test]
    fn peers_without_data_still_receive_the_ensemble() {
        let mut net = network(6);
        let mut data = toy_peer_data(5, 10, 7);
        data.push(MultiLabelDataset::new()); // peer 5 owns no tagged documents
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        assert_eq!(pace.ensemble_size(), 5);
        let pred = pace
            .predict(&mut net, PeerId(5), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert!(pred.contains(&1));
    }
}
