//! PACE — adaptive ensemble classification in P2P networks.
//!
//! Protocol phases, following §2 of the P2PDocTagger paper:
//!
//! 1. **Local training** — every peer trains a *linear* SVM per tag on its
//!    local data (cheap to train, tiny to ship) and clusters its local
//!    training vectors with k-means.
//! 2. **Propagation** — the linear models and the cluster centroids are
//!    propagated to all other peers, together in one install envelope per
//!    update. No document vectors ever travel, which is PACE's privacy and
//!    cost advantage.
//! 3. **Indexing** — receivers index the models by their centroids using
//!    locality-sensitive hashing.
//! 4. **Prediction** — given a document vector, the peer retrieves the top-k
//!    "nearest" models from its index (distance between the test vector and
//!    the models' centroids), lets them vote, and weights each vote by the
//!    model's training accuracy and its distance to the test vector — thereby
//!    *adapting to the test data distribution*. Prediction is entirely local:
//!    zero communication per query. One pass over the document's nonzeros
//!    hashes it through the hyperplane rows the index cached at insert and
//!    prices every live centroid through the index's postings
//!    ([`LshIndex::nearest_items`]); those same distances pick the nearest
//!    centroids, rank the models they belong to (each at its nearest
//!    centroid) and weight the votes, so no centroid is priced twice. Each
//!    consulted model scores its whole tag universe in one pass over the
//!    document through its packed [`TagWeightMatrix`].
//! 5. **Refinement** — the peer retrains its local model with the corrected
//!    example and re-propagates it.

use crate::error::ProtocolError;
use crate::protocol::{ConfidenceVoteAccumulator, P2PTagClassifier, PeerDataMap};
use crate::reliable::{LinkStats, Outgoing, ReliableLink, SendOutcome};
use crate::wire::{self, ReliabilityConfig, WireError};
use ml::batch::TagWeightMatrix;
use ml::codec::{CodecError, WeightPrecision};
use ml::kmeans::{KMeans, KMeansConfig};
use ml::lsh::{LshConfig, LshIndex};
use ml::multilabel::{by_distance_ascending, OneVsAllModel, OneVsAllTrainer, TagPrediction};
use ml::svm::{LinearSvm, LinearSvmTrainer};
use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2psim::message::MessageKind;
use p2psim::{P2PNetwork, PeerBitset, PeerId};
use std::collections::BTreeSet;
use textproc::SparseVector;

/// Peers trained per parallel fan-out before their models are propagated and
/// their per-tag classifiers dropped. Bounds the transient working set of
/// freshly trained models to `TRAIN_CHUNK × per-model bytes` regardless of
/// network size while keeping every core busy within a chunk.
const TRAIN_CHUNK: usize = 512;

/// Sharpness of the distance adaptation: a consulted model's vote weight is
/// `accuracy · exp(−sharpness · distance)`, so larger values would
/// concentrate the ensemble on models whose training data resembles the
/// test document.
const DISTANCE_SHARPNESS: f64 = 2.0;

/// Coverage damping of per-tag vote normalization (see
/// [`ConfidenceVoteAccumulator`]): `0.0` would fully trust the models that
/// know a tag however few they are, `1.0` count every ignorant model as a
/// "no" vote.
const COVERAGE_DAMPING: f64 = 0.4;

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
    /// When set, model propagation runs through the reliable-delivery layer
    /// ([`crate::reliable::ReliableLink`]): sequence-numbered checksummed
    /// frames, ack/timeout retransmission with exponential backoff, every
    /// attempt charged in wire bytes. `None` (the default) sends each frame
    /// once, with no wrapper bytes and no acks.
    pub reliability: Option<ReliabilityConfig>,
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
            reliability: None,
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
    /// The per-tag classifiers packed into one CSR matrix, which scores the
    /// whole tag universe in a single pass. It is the only copy of the
    /// weights at rest (which keeps 10k-peer ensembles affordable);
    /// [`Self::warm_model`] unpacks them on demand.
    matrix: TagWeightMatrix,
    centroids: Vec<SparseVector>,
    /// Cached `‖c‖²` per centroid, so the distance computation skips
    /// re-deriving centroid norms on every query.
    centroid_norms_sq: Vec<f64>,
    /// Training accuracy of the source peer's model on its own data, used as
    /// the vote weight numerator.
    accuracy: f64,
}

impl PaceModel {
    /// The per-tag classifiers, unpacked from the CSR matrix: the same
    /// nonzeros at the same dimension (see
    /// [`TagWeightMatrix::to_one_vs_all`]), so a warm refit starts from, and
    /// a re-send encodes, the model that was installed.
    pub(crate) fn warm_model(&self) -> OneVsAllModel<LinearSvm> {
        self.matrix.to_one_vs_all()
    }

    /// Distance from a query vector to this model (its nearest centroid),
    /// from the cached centroid norms and a precomputed query norm. It
    /// evaluates the expression [`SparseVector::distance`] does,
    /// `sqrt(max(‖c‖² + ‖x‖² − 2·c·x, 0))`, so the result is bit-for-bit the
    /// same.
    fn nearest_centroid_distance(&self, x: &SparseVector, x_norm_sq: f64) -> f64 {
        self.centroids
            .iter()
            .zip(&self.centroid_norms_sq)
            .map(|(c, &c_norm_sq)| (c_norm_sq + x_norm_sq - 2.0 * c.dot(x)).max(0.0).sqrt())
            .fold(f64::INFINITY, f64::min)
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
    /// norms) and dropping the per-tag classifiers once packed. This is the
    /// only place they are built, and it runs on the copy that is installed
    /// — decoded back out of its install envelope — never on a trained copy
    /// that is about to be encoded and dropped.
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
            matrix,
            centroids,
            centroid_norms_sq,
            accuracy,
        }
    }
}

/// One peer's contribution as it travels: exactly what its install
/// envelope carries besides the version, and nothing derived from it.
#[derive(Debug, Clone)]
pub(crate) struct PaceUpdate {
    /// The peer that trained the model.
    pub(crate) source: PeerId,
    /// Per-tag classifiers.
    pub(crate) model: OneVsAllModel<LinearSvm>,
    /// K-means centroids of the source's training vectors.
    pub(crate) centroids: Vec<SparseVector>,
    /// Training accuracy of `model` on the source's own data.
    pub(crate) accuracy: f64,
}

/// Encodes one PACE update as the install envelope both drivers put on the
/// wire, `(source, version, [model frame, centroid frame])`: one frame per
/// receiver, whether [`Pace`] broadcasts it or a
/// [`crate::sansio::PaceCore`] sends it.
pub(crate) fn encode_pace_install(
    source: PeerId,
    version: u64,
    model: &OneVsAllModel<LinearSvm>,
    accuracy: f64,
    centroids: &[SparseVector],
) -> Vec<u8> {
    let model_frame = wire::encode_pace_model(model, accuracy, WeightPrecision::F64);
    let centroid_frame = wire::encode_centroids(centroids);
    wire::encode_install(source.0, version, &[&model_frame, &centroid_frame])
}

/// Decodes a PACE install envelope to its version and update. The envelope
/// must carry exactly a model frame and a centroid frame, each decoding
/// strictly.
pub(crate) fn decode_pace_install(frame: &[u8]) -> Result<(u64, PaceUpdate), WireError> {
    let (source, version, parts) = wire::decode_install(frame)?;
    let &[model_frame, centroid_frame] = parts.as_slice() else {
        return Err(WireError::Codec(CodecError::Invalid(
            "PACE install carries a model and a centroid frame",
        )));
    };
    let (model, accuracy) = wire::decode_pace_model(model_frame)?;
    let centroids = wire::decode_centroids(centroid_frame)?;
    let update = PaceUpdate {
        source: PeerId(source),
        model,
        centroids,
        accuracy,
    };
    Ok((version, update))
}

/// Trains one peer's PACE contribution — per-tag linear SVMs, averaged
/// training accuracy, k-means centroids — from its local data, warm-starting
/// from the weights of `warm`, the peer's installed model, when given.
/// Every one-vs-all fit runs off one shared CSR arena (shared DCD diagonal
/// and shuffle orders, reused solver scratch).
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
    warm: Option<&PaceModel>,
) -> Option<PaceUpdate> {
    if data.is_empty() {
        return None;
    }
    // The warm solver reads the stored weights only from
    // `warm_min_examples` examples up and solves cold below that, so a
    // smaller refit skips unpacking them: it trains what the warm path would
    // have, bit for bit.
    let warm = warm
        .filter(|_| data.len() >= config.svm.warm_min_examples)
        .map(PaceModel::warm_model);
    parallel::inline(|| {
        let model = match &warm {
            Some(prev) => config
                .one_vs_all
                .train_linear_warm_csr(data, &config.svm, prev),
            None => config.one_vs_all.train_linear_csr(data, &config.svm),
        };
        if model.num_tags() == 0 {
            return None;
        }
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
/// problems. Each tag's weights are scattered into one dense scratch, so a
/// decision is `x.dot_dense(w) + b` over the tag's dimension, the arithmetic
/// of a dense weight vector; `ml::batch` pins the packed matrix's scatter
/// bit-identical (up to a `0.0 · ±∞` term, which a finite corpus never
/// forms) to the same decisions, so this is the number a
/// [`TagWeightMatrix`] pass over the corpus yields — without building one.
fn training_accuracy(model: &OneVsAllModel<LinearSvm>, data: &MultiLabelDataset) -> f64 {
    let dim = model.iter().map(|(_, c)| c.dim()).max().unwrap_or(0);
    let mut w = vec![0.0; dim];
    let acc_sum: f64 = model
        .iter()
        .map(|(tag, classifier)| {
            classifier.scatter_into(&mut w);
            let weights = &w[..classifier.dim()];
            let bias = classifier.bias();
            let correct = data
                .iter()
                .filter(|(x, tags)| (x.dot_dense(weights) + bias >= 0.0) == tags.contains(&tag))
                .count();
            for &j in classifier.indices() {
                w[j as usize] = 0.0;
            }
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
        .map(|m| (m, m.nearest_centroid_distance(x, x_norm_sq)))
        .collect();
    ranked.sort_by(|a, b| by_distance_ascending(a.1, b.1));
    ranked.truncate(config.top_k.max(1));
    ranked
}

/// Combines the consulted models' votes into per-tag scores — PACE's
/// adaptation step (vote weight = accuracy · exp(−sharpness · distance)),
/// shared verbatim by [`Pace`] and [`crate::sansio::PaceCore`] so both
/// drivers vote identically over the same ensemble.
///
/// Each model's packed matrix scores its whole tag universe in one pass over
/// the document's nonzeros, and the confidences stream straight into the
/// vote accumulator: no per-model allocation, no per-model sort (the
/// combination is per tag, so the order of a model's votes is irrelevant).
pub(crate) fn combine_pace_votes(
    nearest: &[(&PaceModel, f64)],
    x: &SparseVector,
) -> Vec<TagPrediction> {
    let mut acc = ConfidenceVoteAccumulator::new();
    let mut decisions = Vec::new();
    let mut votes = Vec::new();
    for &(m, dist) in nearest {
        let weight = m.accuracy * (-DISTANCE_SHARPNESS * dist).exp();
        acc.add_voter(weight);
        m.matrix
            .confidence_votes_into(x, &mut decisions, &mut votes);
        for p in &votes {
            acc.add_vote(p.tag, weight, p.score);
        }
    }
    acc.finish(COVERAGE_DAMPING)
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
    /// [`PaceConfig::reliability`] is set. Also the ledger of every send
    /// outcome (losses, retransmits, re-syncs).
    link: ReliableLink,
    trained: bool,
}

impl Pace {
    /// Creates an untrained PACE instance.
    pub fn new(config: PaceConfig) -> Self {
        let index = LshIndex::new(config.lsh.clone());
        let link = ReliableLink::new(config.reliability);
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
    #[cfg(test)]
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
    /// SVMs from `warm`'s weights when given (the incremental path: a few
    /// SGD passes from the stored weights instead of a cold dual solve).
    fn train_local_warm(
        &self,
        peer: PeerId,
        data: &MultiLabelDataset,
        warm: Option<&PaceModel>,
    ) -> Option<PaceUpdate> {
        train_pace_model(&self.config, peer, data, warm)
    }

    /// Broadcasts a model to all other peers, recording who received it, and
    /// installs it in the shared store and LSH index.
    ///
    /// The update is encoded **once** into its install envelope (every
    /// receiver gets the same payload, one frame each — the frame a
    /// [`crate::sansio::PaceCore`] sends), the sends charge its length, and
    /// the ensemble installs the model *decoded back out of the envelope* —
    /// so the bytes the statistics record are exactly the bytes the
    /// predictions run on.
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
        let version = self.versions[source.index()];
        // A peer always "has" its own model.
        self.received[source.index()].insert(source);
        let envelope = encode_pace_install(
            source,
            version,
            &update.model,
            update.accuracy,
            &update.centroids,
        );
        drop(update);
        // The fan-out is the link's one broadcast walk: no target list is
        // materialized, the only per-propagation allocation is the envelope
        // encoded above, and every copy's outcome comes back here, so none
        // is silently discarded.
        let received = &mut self.received;
        let record = |to: PeerId, outcome: SendOutcome| match outcome {
            SendOutcome::Arrived => {
                received[to.index()].insert(source);
            }
            // A fault drop means the receiver provably missed *this*
            // version while its old slab entry is gone: clear the bit so
            // anti-entropy can repair the gap. Offline failures keep the
            // pre-fault semantics (bit untouched), so fault-free runs
            // behave bit-identically to the pre-reliability send path.
            SendOutcome::FaultLost => {
                received[to.index()].remove(source);
            }
            SendOutcome::Offline => {}
        };
        let part = Outgoing {
            kind,
            frame: &envelope,
            validate: &|b| decode_pace_install(b).is_ok(),
        };
        self.link.broadcast(net, source, part, record);
        let (_, installed) =
            decode_pace_install(&envelope).expect("self-encoded PACE install decodes");
        // Replacing a peer's model: its old centroids must leave the index,
        // otherwise incremental re-propagations accumulate stale positions
        // that crowd the candidate set and skew model retrieval.
        if self.models.len() < n {
            self.models.resize_with(n, || None);
        }
        if self.model_of(source).is_some() {
            self.index.retire(&source);
        }
        let pace_model = PaceModel::assemble(installed);
        for c in &pace_model.centroids {
            self.index.insert(c.clone(), source);
        }
        self.models[source.index()] = Some(pace_model);
    }

    /// The top-k models available to `peer` for a query, with their distances.
    fn nearest_models(&self, peer: PeerId, x: &SparseVector) -> Vec<(&PaceModel, f64)> {
        let Some(available) = self.received.get(peer.index()).filter(|a| !a.is_empty()) else {
            return Vec::new();
        };
        if !self.config.use_lsh {
            // Exact ranking over everything this peer holds — the same
            // shared body the sans-io core ranks its ensemble map with.
            return rank_pace_models(
                &self.config,
                available.ones().filter_map(|s| self.model_of(s)),
                x,
                x.norm_sq(),
            );
        }
        // Over-fetch from the index (several centroids can map to the same
        // model, and some candidates may not have reached this peer).
        let want = self.config.top_k * 4 + 8;
        // The index already priced every centroid while ranking them, so
        // each hit model arrives at its nearest-centroid distance (its
        // centroids are its index keys, in centroid order).
        let mut candidates: Vec<(&PaceModel, f64)> = self
            .index
            .nearest_items(x, want)
            .into_iter()
            .filter(|(source, _)| available.contains(**source))
            .filter_map(|(source, dist)| Some((self.model_of(*source)?, dist)))
            .collect();
        candidates.sort_by(|a, b| by_distance_ascending(a.1, b.1));
        candidates.truncate(self.config.top_k.max(1));
        candidates
    }

    /// Per-tag scores for a query, computed entirely locally (PACE's
    /// prediction phase is communication-free, so this only needs shared
    /// access to the network for the online check).
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
        // [`ConfidenceVoteAccumulator`], reached through the driver-shared
        // [`combine_pace_votes`] body.
        Ok(combine_pace_votes(&nearest, x))
    }
}

/// PACE's reference query path, the oracle the production path is tested
/// against: retrieval through [`LshIndex::query_batched`] (which `ml`'s tests
/// hold identical to the scalar `LshIndex::query`; or every held model when
/// `use_lsh` is off) with each hit re-priced centroid by centroid with
/// [`SparseVector::distance`], then one [`OneVsAllModel::scores`] list per
/// consulted model combined by
/// [`crate::protocol::combine_confidence_votes`]. The registry keeps only
/// the packed matrices at rest, so each model is unpacked with
/// [`TagWeightMatrix::to_one_vs_all`] first.
#[cfg(test)]
impl Pace {
    pub(crate) fn scores_oracle(
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
        let available = self
            .received
            .get(peer.index())
            .filter(|a| !a.is_empty())
            .ok_or(ProtocolError::NoModelReachable)?;
        let distance = |m: &PaceModel| {
            m.centroids
                .iter()
                .map(|c| c.distance(x))
                .fold(f64::INFINITY, f64::min)
        };
        let held: Vec<&PaceModel> = if self.config.use_lsh {
            let mut seen = BTreeSet::new();
            self.index
                .query_batched(x, self.config.top_k * 4 + 8)
                .into_iter()
                .filter(|&(source, _)| available.contains(*source) && seen.insert(*source))
                .filter_map(|(source, _)| self.model_of(*source))
                .collect()
        } else {
            available.ones().filter_map(|s| self.model_of(s)).collect()
        };
        let mut nearest: Vec<(&PaceModel, f64)> =
            held.into_iter().map(|m| (m, distance(m))).collect();
        nearest.sort_by(|a, b| by_distance_ascending(a.1, b.1));
        nearest.truncate(self.config.top_k.max(1));
        if nearest.is_empty() {
            return Err(ProtocolError::NoModelReachable);
        }
        let votes: Vec<(f64, Vec<TagPrediction>)> = nearest
            .iter()
            .map(|&(m, dist)| {
                let scores = m.matrix.to_one_vs_all().scores(x);
                let confidences = scores
                    .into_iter()
                    .map(|p| TagPrediction {
                        score: p.confidence,
                        ..p
                    })
                    .collect();
                let weight = m.accuracy * (-DISTANCE_SHARPNESS * dist).exp();
                (weight, confidences)
            })
            .collect();
        Ok(crate::protocol::combine_confidence_votes(
            &votes,
            COVERAGE_DAMPING,
        ))
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
        // Training runs in bounded chunks, each propagated (and its
        // per-tag classifiers dropped) before the next chunk trains: at 10k
        // peers, holding every freshly trained model at once would dwarf
        // the packed registry the chunks feed.
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
                self.train_local_warm(peer, &self.local_data[peer.index()], self.model_of(peer))
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
        if let Some(model) = self.train_local_warm(peer, &self.local_data[idx], self.model_of(peer))
        {
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
        let digest_out = self.link.deliver_frame(
            net,
            peer,
            partner,
            MessageKind::AntiEntropy,
            &digest_frame,
            |b| wire::decode_digest(b).is_ok(),
        );
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
            let Some(m) = self.model_of(source) else {
                continue;
            };
            let version = self.versions.get(source.index()).copied().unwrap_or(0);
            let envelope =
                encode_pace_install(source, version, &m.warm_model(), m.accuracy, &m.centroids);
            let outcome = self.link.deliver_frame(
                net,
                partner,
                peer,
                MessageKind::AntiEntropy,
                &envelope,
                |b| decode_pace_install(b).is_ok(),
            );
            if outcome == SendOutcome::Arrived {
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
    use std::collections::BTreeMap;

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
        let config = PaceConfig::default();
        let mut checked = 0;
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
                let held = PaceModel::assemble(first);
                let warm = train_pace_model(&config, peer, &grown, Some(&held)).unwrap();
                assert_eq!(
                    warm.accuracy.to_bits(),
                    csr_scatter_accuracy(&warm.model, &grown).to_bits(),
                    "warm refit, seed {seed}, peer {i}"
                );
                assert!(warm.accuracy > 0.5 && warm.accuracy <= 1.0);
                checked += 2;
            }
        }
        assert_eq!(checked, 60);
    }

    /// The bytes of a model's lossless frame: equal bytes, equal weights
    /// and biases bit for bit.
    fn model_bytes(model: &OneVsAllModel<LinearSvm>) -> Vec<u8> {
        let mut buf = Vec::new();
        ml::codec::encode_linear_ova(model, WeightPrecision::F64, &mut buf);
        buf
    }

    #[test]
    fn a_refit_unpacks_the_held_model_only_where_the_warm_solver_reads_it() {
        let config = PaceConfig::default();
        let min = config.svm.warm_min_examples;
        let peer = PeerId(0);
        for seed in [5, 19] {
            let all = equivalence_peer_data(1, min + 8, seed).remove(0);
            let prefix = |n: usize| {
                let mut data = all.clone();
                data.truncate(n);
                data
            };
            let held =
                PaceModel::assemble(train_pace_model(&config, peer, &prefix(10), None).unwrap());
            for n in [1, 12, min - 1, min, min + 1, min + 8] {
                let data = &prefix(n);
                let refit = train_pace_model(&config, peer, data, Some(&held)).unwrap();
                // What a refit trained before it decided to unpack: always
                // the warm solver, from the unpacked weights.
                let warm_solver =
                    config
                        .one_vs_all
                        .train_linear_warm_csr(data, &config.svm, &held.warm_model());
                assert_eq!(
                    model_bytes(&refit.model),
                    model_bytes(&warm_solver),
                    "seed {seed}, n {n}"
                );
                let cold = config.one_vs_all.train_linear_csr(data, &config.svm);
                assert_eq!(
                    model_bytes(&refit.model) == model_bytes(&cold),
                    n < min,
                    "seed {seed}, n {n}: below the threshold a refit is the cold fit"
                );
                let from_scratch = train_pace_model(&config, peer, data, None).unwrap();
                if n < min {
                    assert_eq!(refit.accuracy.to_bits(), from_scratch.accuracy.to_bits());
                    assert_eq!(refit.centroids, from_scratch.centroids);
                }
            }
        }
    }

    /// Production `scores` against [`Pace::scores_oracle`] on the same
    /// instance, on `requests`, plus `predict_batch` against the sequential
    /// `predict` loop.
    fn assert_matches_oracle(
        pace: &Pace,
        net: &mut P2PNetwork,
        requests: &[(PeerId, &SparseVector)],
        stage: &str,
    ) {
        for (i, &(peer, probe)) in requests.iter().enumerate() {
            assert_eq!(
                pace.scores(net, peer, probe),
                pace.scores_oracle(net, peer, probe),
                "scores diverge from the oracle after {stage} on probe {i}"
            );
        }
        let sequential: Vec<_> = requests
            .iter()
            .map(|&(peer, x)| pace.predict(net, peer, x))
            .collect();
        assert_eq!(
            sequential,
            pace.predict_batch(net, requests),
            "predict_batch diverges from predict after {stage}"
        );
    }

    /// Per-peer data over 24 features in four interest groups: a peer draws
    /// mostly from its own group's six features and sometimes from the next
    /// group's, so a query collides with part of the index, not all of it.
    fn grouped_peer_data(num_peers: usize, per_peer: usize, seed: u64) -> PeerDataMap {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_peers)
            .map(|p| {
                let mut ds = MultiLabelDataset::new();
                for _ in 0..per_peer {
                    let group = (p as u32 + u32::from(rng.gen_bool(0.2))) % 4;
                    let nnz = rng.gen_range(2..5usize);
                    let vector =
                        SparseVector::from_pairs((0..nnz).map(|_| {
                            (group * 6 + rng.gen_range(0..6u32), rng.gen_range(0.3..1.5))
                        }));
                    let mut tags = vec![group];
                    if vector.get(group * 6) > 0.9 {
                        tags.push(8 + group % 3);
                    }
                    ds.push(MultiLabelExample::new(vector, tags));
                }
                ds
            })
            .collect()
    }

    /// PACE at a scale where model retrieval is really selective: 150 peers
    /// put ≈ 450 centroids in the index, against the 36 entries a query
    /// over-fetches, so queries take both the collision path and the
    /// full-scan fallback. Incremental rounds and refinements re-propagate
    /// models, which tombstones their old centroids, and the round that
    /// touches every peer compacts the index. After each stage production
    /// scoring must equal the oracle bit for bit.
    #[test]
    fn scores_equal_the_oracle_at_scale_through_tombstones_and_compaction() {
        let num_peers = 150;
        let data = grouped_peer_data(num_peers, 10, 111);
        let mut net = network(num_peers);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();

        // Probes spanning a whole group look like its centroids and collide
        // with many of them; documents like the peers' own collide with
        // fewer, and scattered ones mostly fall back to the full scan
        // (features past 23 are in no centroid).
        let mut rng = StdRng::seed_from_u64(112);
        let probes: Vec<SparseVector> = (0..12)
            .map(|i| {
                SparseVector::from_pairs((0..6).map(|f| ((i % 4) * 6 + f, 0.5 + 0.1 * f as f64)))
            })
            .chain(
                grouped_peer_data(4, 3, 112)
                    .iter()
                    .flat_map(|ds| ds.iter().map(|(x, _)| x.clone())),
            )
            .chain((0..16).map(|_| {
                let nnz = rng.gen_range(1..6usize);
                SparseVector::from_pairs(
                    (0..nnz).map(|_| (rng.gen_range(0..61u32), rng.gen_range(0.2..1.4))),
                )
            }))
            .collect();
        let requests: Vec<(PeerId, &SparseVector)> = probes
            .iter()
            .enumerate()
            .map(|(i, p)| (PeerId((i * 37 % num_peers) as u64), p))
            .collect();
        assert_matches_oracle(&pace, &mut net, &requests, "train");

        // Every peer, then every third peer, gets new examples.
        for (round, stride) in [1, 3].into_iter().enumerate() {
            let fresh = grouped_peer_data(num_peers, 3, 113 + round as u64);
            let new_data: PeerDataMap = fresh
                .into_iter()
                .enumerate()
                .map(|(p, ds)| {
                    if p % stride == 0 {
                        ds
                    } else {
                        MultiLabelDataset::new()
                    }
                })
                .collect();
            pace.train_incremental(&mut net, &new_data).unwrap();
            let stage = format!("train_incremental round {round}");
            assert_matches_oracle(&pace, &mut net, &requests, &stage);
        }

        for (i, (x, tags)) in data[7].iter().take(4).enumerate() {
            let peer = PeerId((7 + 40 * i) as u64);
            let ex = MultiLabelExample::new(x.clone(), tags.iter().copied().chain([15]));
            pace.refine(&mut net, peer, &ex).unwrap();
        }
        assert_matches_oracle(&pace, &mut net, &requests, "refine");
    }

    /// PACE under `config` trained on [`equivalence_peer_data`], with 40
    /// probes over the first six features asked from every peer in turn.
    fn trained_with_probes(
        config: PaceConfig,
        num_peers: usize,
        seed: u64,
    ) -> (Pace, P2PNetwork, Vec<SparseVector>) {
        let data = equivalence_peer_data(num_peers, 14, seed);
        let mut net = network(num_peers);
        let mut pace = Pace::new(config);
        pace.train(&mut net, &data).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let probes = (0..40)
            .map(|_| {
                let nnz = rng.gen_range(1..4usize);
                SparseVector::from_pairs(
                    (0..nnz).map(|_| (rng.gen_range(0..6u32), rng.gen_range(0.2..1.4f64))),
                )
            })
            .collect();
        (pace, net, probes)
    }

    fn round_robin_requests(
        probes: &[SparseVector],
        num_peers: usize,
    ) -> Vec<(PeerId, &SparseVector)> {
        probes
            .iter()
            .enumerate()
            .map(|(i, p)| (PeerId((i % num_peers) as u64), p))
            .collect()
    }

    /// Production scoring against the oracle right after training, with the
    /// default (LSH) retrieval.
    #[test]
    fn scores_equal_the_oracle() {
        let num_peers = 12;
        let (pace, mut net, probes) = trained_with_probes(PaceConfig::default(), num_peers, 71);
        let requests = round_robin_requests(&probes, num_peers);
        assert_matches_oracle(&pace, &mut net, &requests, "train");
    }

    /// Production scoring against the oracle after training, after
    /// refinements that teach a new tag, and after an incremental round
    /// large enough to take the warm SGD path.
    fn assert_matches_oracle_through_refine_and_incremental(
        config: PaceConfig,
        num_peers: usize,
        seed: u64,
    ) {
        let (mut pace, mut net, probes) = trained_with_probes(config, num_peers, seed);
        let requests = round_robin_requests(&probes, num_peers);
        assert_matches_oracle(&pace, &mut net, &requests, "train");

        for i in 0..6 {
            let (v, tags): (SparseVector, Vec<TagId>) = if i % 2 == 0 {
                (
                    SparseVector::from_pairs([(4, 1.0 + 0.1 * i as f64)]),
                    vec![9],
                )
            } else {
                (SparseVector::from_pairs([(0, 0.9), (2, 0.5)]), vec![1, 3])
            };
            let peer = PeerId((i % 2 + 1) as u64);
            pace.refine(&mut net, peer, &MultiLabelExample::new(v, tags))
                .unwrap();
        }
        assert_matches_oracle(&pace, &mut net, &requests, "refine");

        let mut new_data = vec![MultiLabelDataset::new(); num_peers];
        for i in 0..8 {
            new_data[0].push(MultiLabelExample::new(
                SparseVector::from_pairs([(3, 0.8 + 0.05 * i as f64)]),
                [4],
            ));
            new_data[num_peers - 1].push(MultiLabelExample::new(
                SparseVector::from_pairs([(5, 1.0 + 0.05 * i as f64)]),
                [11],
            ));
        }
        pace.train_incremental(&mut net, &new_data).unwrap();
        assert_matches_oracle(&pace, &mut net, &requests, "train_incremental");
    }

    #[test]
    fn scores_equal_the_oracle_through_refine_and_incremental() {
        assert_matches_oracle_through_refine_and_incremental(PaceConfig::default(), 8, 91);
    }

    /// The exact-ranking path (`use_lsh: false`, ablation A1) through the
    /// same stages.
    #[test]
    fn exact_ranking_scores_equal_the_oracle_through_refine_and_incremental() {
        assert_matches_oracle_through_refine_and_incremental(
            PaceConfig {
                use_lsh: false,
                ..PaceConfig::default()
            },
            10,
            72,
        );
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

    /// The install envelope of `source`'s held model at `version`,
    /// re-encoded from the registry.
    fn held_envelope(pace: &Pace, source: PeerId, version: u64) -> Vec<u8> {
        let m = pace.model_of(source).expect("source holds a model");
        encode_pace_install(source, version, &m.warm_model(), m.accuracy, &m.centroids)
    }

    #[test]
    fn propagation_ships_models_and_centroids_but_no_training_data() {
        let mut net = network(10);
        let data = toy_peer_data(10, 10, 2);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        let stats = net.stats();
        let models = stats.kind(MessageKind::ModelPropagation);
        assert_eq!(models.messages, 9 * 10);
        // The centroids travel inside each update's frame: every copy
        // charged is its source's whole install envelope, whose centroid
        // part decodes to the centroids the ensemble ranks with.
        let mut envelope_bytes = 0;
        for source in (0..10).map(PeerId) {
            let envelope = held_envelope(&pace, source, 1);
            let (_, update) = decode_pace_install(&envelope).unwrap();
            assert!(!update.centroids.is_empty());
            assert_eq!(update.centroids, pace.model_of(source).unwrap().centroids);
            envelope_bytes += 9 * envelope.len() as u64;
        }
        assert_eq!(models.bytes_sent(), envelope_bytes);
        assert_eq!(stats.total_messages(), models.messages);
        assert_eq!(stats.kind(MessageKind::TrainingData).messages, 0);
        // Prediction is local: no DHT lookups, no prediction queries.
        assert_eq!(stats.kind(MessageKind::PredictionQuery).messages, 0);
    }

    /// An install envelope whose parts are not exactly a model frame and a
    /// centroid frame, in that order, is not a PACE update.
    #[test]
    fn a_pace_install_carries_exactly_a_model_and_a_centroid_frame() {
        let data = toy_peer_data(1, 12, 5);
        let update = train_pace_model(&PaceConfig::default(), PeerId(0), &data[0], None).unwrap();
        let model = wire::encode_pace_model(&update.model, update.accuracy, WeightPrecision::F64);
        let centroids = wire::encode_centroids(&update.centroids);
        let good = wire::encode_install(0, 1, &[&model, &centroids]);
        let (version, decoded) = decode_pace_install(&good).unwrap();
        assert_eq!((version, decoded.source), (1, PeerId(0)));
        for parts in [
            vec![&model[..]],
            vec![&centroids[..], &model[..]],
            vec![&model[..], &centroids[..], &centroids[..]],
        ] {
            assert!(decode_pace_install(&wire::encode_install(0, 1, &parts)).is_err());
        }
    }

    /// One propagation over n peers is n − 1 frames (one per receiver, not
    /// a model frame and a centroid frame each), and those frames are the
    /// envelope a [`crate::sansio::PaceCore`] sends for the same update.
    /// The simulator keeps no frame, so its copies are compared by their
    /// bytes, after enough corrections that the version varint takes two.
    #[test]
    fn one_update_is_one_frame_per_receiver_and_the_cores_envelope() {
        use crate::sansio::{Output, PaceCore};
        let n = 10;
        let data = toy_peer_data(n, 10, 2);
        let mut net = network(n);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        let peer = PeerId(4);
        let peers: Vec<PeerId> = (0..n as u64).map(PeerId).collect();
        let mut core = PaceCore::new(peer, peers, PaceConfig::default());
        core.train(0, &data[peer.index()]);
        // Versions 2..=129 of the peer's model, one correction each.
        let mut frames = Vec::new();
        let (mut msgs, mut bytes) = (0, 0);
        for i in 0..128u32 {
            let x = SparseVector::from_pairs([(0, 1.1), (3 + i % 4, 0.4)]);
            let example = MultiLabelExample::new(x, [1 + i % 2]);
            (msgs, bytes) = (net.stats().total_messages(), net.stats().total_bytes());
            pace.refine(&mut net, peer, &example).unwrap();
            let mut correction = MultiLabelDataset::new();
            correction.push(example);
            frames = core
                .train(0, &correction)
                .into_iter()
                .filter_map(|out| match out {
                    Output::Emit { frame, .. } => Some(frame),
                    _ => None,
                })
                .collect();
        }
        assert_eq!(net.stats().total_messages() - msgs, n as u64 - 1);
        assert_eq!(
            net.stats().kind(MessageKind::RefinementUpdate).messages,
            128 * (n as u64 - 1)
        );
        assert_eq!(frames.len(), n - 1);
        let envelope = held_envelope(&pace, peer, 129);
        assert!(frames.iter().all(|f| *f == envelope));
        assert_eq!(
            net.stats().total_bytes() - bytes,
            (n as u64 - 1) * envelope.len() as u64
        );
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

    /// Asserts that every NaN score comes after every number, and that tag 0
    /// (the one a NaN-weight model knows) scored NaN.
    fn assert_nan_tag_last(scores: &[TagPrediction]) {
        let nan_from = scores
            .iter()
            .position(|p| p.score.is_nan())
            .expect("tag 0 scores NaN");
        assert!(nan_from > 0, "{scores:?}");
        assert!(
            scores[nan_from..].iter().all(|p| p.score.is_nan()),
            "{scores:?}"
        );
        assert!(scores[nan_from..].iter().any(|p| p.tag == 0), "{scores:?}");
    }

    #[test]
    fn a_nan_weight_model_ranks_its_tag_last_without_panicking() {
        let mut net = network(12);
        let data = toy_peer_data(12, 12, 1);
        let mut pace = Pace::new(PaceConfig::default());
        pace.train(&mut net, &data).unwrap();
        // Every held model gains tag 0 with NaN weights and is installed
        // directly: no decoder accepts a non-finite weight, so this is a
        // model a peer built itself. Tag 0 sorts first in tag order, so only
        // the comparator can move it last.
        for source in (0..12).map(PeerId) {
            let held = pace.model_of(source).unwrap();
            let warm = held.warm_model();
            let mut classifiers: BTreeMap<TagId, LinearSvm> =
                warm.iter().map(|(t, c)| (t, c.clone())).collect();
            classifiers.insert(0, LinearSvm::from_dense(&[f64::NAN, f64::NAN], 0.0));
            let update = PaceUpdate {
                source,
                model: OneVsAllModel::from_classifiers(classifiers, warm.threshold(), 1),
                centroids: held.centroids.clone(),
                accuracy: held.accuracy,
            };
            pace.models[source.index()] = Some(PaceModel::assemble(update));
        }
        for x in [
            SparseVector::from_pairs([(0, 1.0)]),
            SparseVector::from_pairs([(1, 1.0)]),
            SparseVector::from_pairs([(0, 1.0), (1, 1.0)]),
        ] {
            let scores = pace.scores(&mut net, PeerId(5), &x).unwrap();
            assert_nan_tag_last(&scores);
            assert_nan_tag_last(&pace.scores_oracle(&net, PeerId(5), &x).unwrap());
            let tags = pace.predict(&mut net, PeerId(5), &x).unwrap();
            assert!(!tags.is_empty() && !tags.contains(&0), "{tags:?}");
        }
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
