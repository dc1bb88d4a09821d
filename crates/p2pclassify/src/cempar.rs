//! CEMPaR — Communication-Efficient classification in P2P networks (cascade
//! SVM over a DHT with super-peers).
//!
//! Protocol phases, following §2 of the P2PDocTagger paper:
//!
//! 1. **Local training** — every peer constructs a non-linear (kernel) SVM per
//!    tag from its local tagged documents.
//! 2. **Model propagation** — the local models (their support vectors) are
//!    propagated *once* to the super-peer of the peer's DHT region. Super-peers
//!    are elected deterministically from the identifier ring, so every peer can
//!    locate its super-peer with a plain DHT lookup.
//! 3. **Cascading** — each super-peer cascades the collected local models into
//!    a *regional* cascaded model (per tag) by pooling support vectors and
//!    retraining.
//! 4. **Prediction** — untagged document vectors are routed to the super-peers,
//!    whose regional models predict; tags are selected by weighted majority
//!    voting over the regional votes (weight = how many peers contributed to
//!    the region).
//! 5. **Refinement** — when a user corrects tags, the peer retrains its local
//!    model and re-propagates it; the super-peer re-cascades the tags the
//!    new model changed, not the whole region. A batch of corrections
//!    re-cascades once, at its end, so a tag several of them change merges
//!    once.
//!
//! Only support vectors (word-id/weight pairs) ever leave a peer — never raw
//! text — which is the privacy argument the paper makes.

use crate::error::ProtocolError;
use crate::protocol::{combine_weighted_scores, P2PTagClassifier, PeerDataMap};
use crate::reliable::{LinkStats, ReliableLink, SendOutcome};
use crate::wire::{self, ReliabilityConfig};
use ml::batch::BatchKernelScorer;
use ml::cascade::{CascadeConfig, CascadeSvm};
use ml::codec::WeightPrecision;
use ml::multilabel::{OneVsAllModel, OneVsAllTrainer, TagPrediction};
use ml::svm::{KernelSvm, KernelSvmTrainer};
use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2psim::message::MessageKind;
use p2psim::network::DeliveryError;
use p2psim::overlay::SuperPeerDirectory;
use p2psim::{P2PNetwork, PeerId};
use std::collections::{BTreeMap, BTreeSet};
use textproc::SparseVector;

/// Decision threshold for assigning a tag after voting.
const VOTE_THRESHOLD: f64 = 0.0;
/// Relative vote cutoff: a tag must also reach this fraction of the best
/// tag's score (calibrates ensemble votes; see
/// [`crate::protocol::select_tags_adaptive`]).
const REL_THRESHOLD: f64 = 0.5;
/// Minimum number of tags assigned when nothing reaches the threshold.
const MIN_TAGS: usize = 1;

/// Configuration of the CEMPaR protocol.
#[derive(Debug, Clone)]
pub struct CemparConfig {
    /// Number of super-peer regions the identifier ring is divided into.
    pub regions: usize,
    /// Trainer for the per-tag local kernel SVMs.
    pub svm: KernelSvmTrainer,
    /// One-vs-all reduction settings.
    pub one_vs_all: OneVsAllTrainer,
    /// Cascade-merge settings used by super-peers.
    pub cascade: CascadeConfig,
    /// When set, model propagation runs through the reliable-delivery layer
    /// ([`crate::reliable::ReliableLink`]): sequence-numbered checksummed
    /// frames, ack/timeout retransmission with exponential backoff, every
    /// attempt charged in wire bytes. `None` (the default) sends each frame
    /// once, with no wrapper bytes and no acks.
    pub reliability: Option<ReliabilityConfig>,
}

impl Default for CemparConfig {
    fn default() -> Self {
        // The kernel is the dot product (`ml::svm` says why); a softer
        // margin than the trainer's default fits the small per-peer
        // collections better.
        let svm = KernelSvmTrainer {
            c: 10.0,
            ..KernelSvmTrainer::default()
        };
        Self {
            regions: 8,
            cascade: CascadeConfig {
                trainer: svm.clone(),
                retrain: true,
            },
            svm,
            one_vs_all: OneVsAllTrainer::default(),
            reliability: None,
        }
    }
}

impl CemparConfig {
    /// A configuration whose number of super-peer regions is scaled to the
    /// network size (roughly one region per eight peers, at least two), so
    /// that every regional cascade aggregates the knowledge of several peers.
    pub fn for_network(num_peers: usize) -> Self {
        let regions = (num_peers / 8).clamp(2, 32);
        Self {
            regions,
            ..Self::default()
        }
    }
}

/// Trains a peer's local one-vs-all kernel model — the protocol body shared
/// by the monolithic [`Cempar`] instance and the per-peer sans-io
/// [`crate::sansio::CemparCore`], so a peer's contribution is identical
/// whichever driver runs it. The peer's kernel (Gram) matrix is computed
/// once and shared by every per-tag SMO fit.
///
/// One peer's fit is the unit of parallelism ([`parallel::inline`]): a lone
/// refit never forks, batches of peers fan out in [`Cempar::train`] /
/// [`Cempar::train_incremental`].
pub(crate) fn train_cempar_local(
    config: &CemparConfig,
    data: &MultiLabelDataset,
) -> Option<OneVsAllModel<KernelSvm>> {
    if data.is_empty() {
        return None;
    }
    let model = parallel::inline(|| config.one_vs_all.train_kernel_shared(data, &config.svm));
    (model.num_tags() > 0).then_some(model)
}

/// Refits a peer's local model after `new` examples joined its `full`
/// collection: a warm refit on the previous model's support vectors pooled
/// with `new` (the classic incremental SVM) when there is a previous model
/// and something new, a cold [`train_cempar_local`] otherwise. Like it, one
/// peer's refit stays on the calling thread.
fn refit_cempar_local(
    config: &CemparConfig,
    full: &MultiLabelDataset,
    new: &MultiLabelDataset,
    prev: Option<&OneVsAllModel<KernelSvm>>,
) -> Option<OneVsAllModel<KernelSvm>> {
    match prev {
        Some(prev) if !new.is_empty() => {
            let model = parallel::inline(|| {
                config
                    .one_vs_all
                    .train_kernel_warm(full, new, &config.svm, prev)
            });
            (model.num_tags() > 0).then_some(model)
        }
        // Never trained (or nothing recorded since a failed propagation):
        // cold-train on the full local collection.
        _ => train_cempar_local(config, full),
    }
}

/// A super-peer's cascaded view of one region, kept by both drivers beside
/// the region's contributions: the per-tag regional models, the batched
/// scorer over them, and the tags whose merge is stale.
///
/// A region's model for tag `t` is a pure function of its contributors'
/// classifiers for `t`, taken in `BTreeMap` order — so it depends only on
/// the *set* of contributions, never their arrival order, and replacing one
/// contribution changes only the tags the old or the new model carries.
/// [`Self::replaced`] records exactly those; [`recascade`] re-merges them.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionCascade {
    /// The cascaded regional model, per tag.
    pub(crate) regional: BTreeMap<TagId, KernelSvm>,
    /// Batched scorer over `regional`: kernel rows are evaluated once per
    /// distinct support vector and shared by every tag that retains it.
    scorer: BatchKernelScorer,
    /// Tags whose contributions changed since the last re-cascade.
    dirty: BTreeSet<TagId>,
    /// Tags [`recascade`] merged into this cascade so far.
    #[cfg(test)]
    merged_tags: usize,
}

impl RegionCascade {
    /// Records that a contributor's model `old` was replaced by `new`: the
    /// tags either carries go stale, except those whose classifier is
    /// bit-identical in both (their merge inputs did not change).
    pub(crate) fn replaced(
        &mut self,
        old: Option<&OneVsAllModel<KernelSvm>>,
        new: &OneVsAllModel<KernelSvm>,
    ) {
        let stale = |t| match (old.and_then(|m| m.classifier(t)), new.classifier(t)) {
            (Some(held), Some(clf)) => !held.bit_eq(clf),
            _ => true,
        };
        let carried = old.into_iter().flat_map(|m| m.tags()).chain(new.tags());
        self.dirty.extend(carried.filter(|&t| stale(t)));
    }

    /// Scores a query against the region's cascaded models — the
    /// super-peer's half of CEMPaR prediction, in ascending-tag order. One
    /// kernel row over the region's distinct support vectors is shared by
    /// every tag.
    pub(crate) fn scores(&self, x: &SparseVector) -> Vec<TagPrediction> {
        self.scorer
            .decisions(x)
            .into_iter()
            .map(|(tag, score)| TagPrediction {
                tag,
                score,
                confidence: 1.0 / (1.0 + (-score).exp()),
            })
            .collect()
    }
}

/// Re-cascades regions after their contributions changed — the one
/// re-cascade both drivers run. Each region re-merges only its dirty tags
/// (support-vector pooling + retrain of the tag's contributors, in
/// `contributed` order) in one [`CascadeSvm::merge_pools`], so the dirty
/// tags' pools share one Gram matrix over their distinct support vectors;
/// it drops tags no contributor carries any more, and rebuilds its scorer
/// once. Regions with nothing dirty are skipped; the
/// merges of several regions fan out across cores, one region's stay on the
/// calling thread.
///
/// Every other tag keeps its model: its contributors' classifiers are what
/// they were at its last merge, and the merge is a pure function of them.
/// So the result equals a from-scratch cascade of the same contributions,
/// bit for bit, whichever changes led there. That is what lets CEMPaR's
/// [`P2PTagClassifier::refine_batch`] run it once at the batch's end: a
/// tag several corrections dirtied merges once, into the model a
/// re-cascade after every correction would have left.
pub(crate) fn recascade<'a, I>(config: &CemparConfig, mut regions: Vec<(I, &mut RegionCascade)>)
where
    I: Iterator<Item = &'a OneVsAllModel<KernelSvm>> + Clone + Sync,
{
    regions.retain(|(_, region)| !region.dirty.is_empty());
    let cascade = CascadeSvm::new(config.cascade.clone());
    let merged = parallel::par_map(&regions, |(contributed, region)| {
        let pools: Vec<Vec<&KernelSvm>> = region
            .dirty
            .iter()
            .map(|&tag| {
                let pool = contributed.clone().filter_map(|m| m.classifier(tag));
                pool.collect()
            })
            .collect();
        cascade.merge_pools(&pools)
    });
    for ((_, region), merged) in regions.into_iter().zip(merged) {
        #[cfg(test)]
        {
            region.merged_tags += region.dirty.len();
        }
        for (&tag, model) in region.dirty.iter().zip(merged) {
            match model {
                Some(model) => region.regional.insert(tag, model),
                None => region.regional.remove(&tag),
            };
        }
        region.scorer =
            BatchKernelScorer::from_classifiers(region.regional.iter().map(|(&t, m)| (t, m)));
        region.dirty.clear();
    }
}

/// State of one super-peer region.
#[derive(Debug, Clone)]
struct RegionState {
    /// The super-peer elected for this region at training time.
    super_peer: PeerId,
    /// Local models contributed by peers of this region.
    contributed: BTreeMap<PeerId, OneVsAllModel<KernelSvm>>,
    /// The cascaded regional models.
    cascade: RegionCascade,
}

impl RegionState {
    fn weight(&self) -> f64 {
        self.contributed.len() as f64
    }
}

/// The CEMPaR protocol instance.
#[derive(Debug, Clone)]
pub struct Cempar {
    config: CemparConfig,
    directory: SuperPeerDirectory,
    regions: Vec<Option<RegionState>>,
    /// Per-peer local data retained for refinement retraining.
    local_data: Vec<MultiLabelDataset>,
    /// Per-peer examples not yet absorbed into that peer's propagated model
    /// (the peer was offline, or its propagation failed): retried on the next
    /// incremental round. An empty entry marks a peer that has *never*
    /// trained (its whole local collection is outstanding).
    pending: BTreeMap<PeerId, MultiLabelDataset>,
    /// The send path: passthrough by default, ack/retransmit when
    /// [`CemparConfig::reliability`] is set. Also the ledger of every send
    /// outcome (losses, retransmits, re-syncs).
    link: ReliableLink,
    trained: bool,
}

impl Cempar {
    /// Creates an untrained CEMPaR instance.
    pub fn new(config: CemparConfig) -> Self {
        let directory = SuperPeerDirectory::new(config.regions);
        let link = ReliableLink::new(config.reliability);
        Self {
            config,
            directory,
            regions: Vec::new(),
            local_data: Vec::new(),
            pending: BTreeMap::new(),
            link,
            trained: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CemparConfig {
        &self.config
    }

    /// The super-peers elected at training time (one per region that received
    /// at least one model).
    pub fn super_peers(&self) -> Vec<PeerId> {
        self.regions
            .iter()
            .flatten()
            .map(|r| r.super_peer)
            .collect()
    }

    /// Total number of support vectors held by the regional models (a proxy
    /// for global model size).
    #[cfg(test)]
    pub fn regional_support_vectors(&self) -> usize {
        self.regions
            .iter()
            .flatten()
            .flat_map(|r| r.cascade.regional.values())
            .map(KernelSvm::num_support_vectors)
            .sum()
    }

    /// The region index a peer belongs to.
    fn region_of_peer(&self, peer: PeerId) -> usize {
        self.directory.region_of_key(peer.ring_key())
    }

    /// Trains a peer's local one-vs-all kernel model.
    fn train_local(&self, data: &MultiLabelDataset) -> Option<OneVsAllModel<KernelSvm>> {
        train_cempar_local(&self.config, data)
    }

    /// Re-cascades every region whose contributions changed since its last
    /// cascade, re-merging only the changed tags ([`recascade`]).
    fn recascade(&mut self) {
        let regions = self.regions.iter_mut().flatten();
        let jobs = regions.map(|s| (s.contributed.values(), &mut s.cascade));
        recascade(&self.config, jobs.collect());
    }

    /// Propagates a peer's local model to its region's super-peer, charging the
    /// DHT lookup and the model transfer. The region records which of its
    /// tags the new model changed; the caller re-cascades them.
    ///
    /// The support-vector model is encoded into a real frame, the send
    /// charges the frame length, and the super-peer records the *decoded*
    /// model — the copy every later cascade and regional scorer is built
    /// from.
    fn propagate_model(
        &mut self,
        net: &mut P2PNetwork,
        peer: PeerId,
        model: OneVsAllModel<KernelSvm>,
        kind: MessageKind,
    ) -> Result<(), ProtocolError> {
        let region = self.region_of_peer(peer);
        let anchor = self.directory.anchor_key(region);
        let (super_peer, _hops) = net.dht_lookup(peer, anchor)?;
        let frame = wire::encode_kernel_model(&model, WeightPrecision::F64);
        // The super-peer records what it decodes off the delivered bytes; a
        // frame damaged beyond decoding was never delivered (the sender's
        // pending queue retries it).
        let delivered = self
            .link
            .send_frame(net, peer, super_peer, kind, &frame, |b| {
                wire::decode_kernel_model(b).is_ok()
            })?;
        let model = wire::decode_kernel_model(&delivered)
            .map_err(|_| ProtocolError::Delivery(DeliveryError::Lost))?;
        let state = self.regions[region].get_or_insert_with(|| RegionState {
            super_peer,
            contributed: BTreeMap::new(),
            cascade: RegionCascade::default(),
        });
        // The DHT may have re-elected a successor since the region was first
        // populated (churn); the latest resolved owner is authoritative.
        state.super_peer = super_peer;
        state.cascade.replaced(state.contributed.get(&peer), &model);
        state.contributed.insert(peer, model);
        Ok(())
    }

    /// One correction of a refine batch: records `example` in the peer's
    /// local data, refits the peer's model warm (previous support vectors +
    /// any pending examples + the correction; cold only when the peer never
    /// contributed) and propagates it to the super-peer, which marks the
    /// tags it changed dirty. The caller re-cascades. A failed propagation
    /// rolls the example back out of the local data.
    fn correct(
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
        let model = {
            let region = self.region_of_peer(peer);
            let prev = self.regions[region]
                .as_ref()
                .and_then(|s| s.contributed.get(&peer));
            let mut new = self.pending.get(&peer).cloned().unwrap_or_default();
            new.push(example.clone());
            refit_cempar_local(&self.config, &self.local_data[idx], &new, prev)
        };
        let Some(model) = model else {
            return Ok(());
        };
        match self.propagate_model(net, peer, model, MessageKind::RefinementUpdate) {
            Ok(()) => {
                self.pending.remove(&peer);
                Ok(())
            }
            Err(e) => {
                // Roll the correction back out of the local store: the error
                // tells the caller to retry the correction, and a retry must
                // not find a duplicate of the example already recorded.
                let len = self.local_data[idx].len();
                self.local_data[idx].truncate(len - 1);
                Err(e)
            }
        }
    }

    /// The requester's half of CEMPaR prediction: every region's super-peer
    /// is located with `locate(net, peer, key)` (only its success counts),
    /// sent the query, and its response becomes a weighted vote.
    ///
    /// [`P2PTagClassifier::scores`] locates through the network's
    /// requester-side cache ([`P2PNetwork::resolve`]), so a requester routes
    /// to a region once and again only after a failed query send or a
    /// membership change made the answer stale. Tests locate through a full
    /// [`P2PNetwork::dht_lookup`] per visit, the pre-cache behaviour, as the
    /// oracle: scores, votes and every other message are the same.
    fn scores_locating_with(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
        mut locate: impl FnMut(&mut P2PNetwork, PeerId, u64) -> Result<PeerId, DeliveryError>,
    ) -> Result<Vec<TagPrediction>, ProtocolError> {
        if !self.trained {
            return Err(ProtocolError::NotTrained);
        }
        if !net.is_online(peer) {
            return Err(ProtocolError::PeerOffline);
        }
        // The same query payload travels to every region: encode it once.
        // The super-peers score the vector *decoded from the frame*
        // (bit-identical to `x`: vectors travel losslessly).
        let query = wire::encode_query(x);
        let query_bytes = query.len();
        let x_eval = wire::decode_query(&query).expect("self-encoded query frame decodes");
        let mut votes: Vec<(f64, Vec<TagPrediction>)> = Vec::new();
        for state in self.regions.iter().flatten() {
            if state.cascade.regional.is_empty() {
                continue;
            }
            // Route the query to the region's super-peer: locate it over the
            // DHT, then send the document vector itself and get the response.
            let key = state.super_peer.ring_key();
            if locate(net, peer, key).is_err() {
                continue;
            }
            if net
                .send(
                    peer,
                    state.super_peer,
                    MessageKind::PredictionQuery,
                    query_bytes,
                )
                .is_err()
            {
                // Super-peer offline or query lost: this region's vote is
                // lost (fault tolerance: remaining regions still answer), and
                // the requester routes to it afresh next time.
                net.forget(peer, key);
                continue;
            }
            // The response travels back as a real frame too: the requester
            // votes with the scores decoded from it.
            let response = wire::encode_scores(&state.cascade.scores(&x_eval));
            let scores = wire::decode_scores(&response).expect("self-encoded score frame decodes");
            let response_size = response.len();
            // A region whose response never reaches the requester contributes
            // no vote (previously a lost response still voted). Query-path
            // sends cannot route through the reliable link (`scores` is
            // `&self`); their losses are visible in the network's fault
            // counters, and fault-free runs never take the error arm — both
            // endpoints were online a moment ago and nothing advances time
            // mid-query.
            if net
                .send(
                    state.super_peer,
                    peer,
                    MessageKind::PredictionResponse,
                    response_size,
                )
                .is_ok()
            {
                votes.push((state.weight(), scores));
            }
        }
        if votes.is_empty() {
            return Err(ProtocolError::NoModelReachable);
        }
        Ok(combine_weighted_scores(&votes))
    }
}

impl P2PTagClassifier for Cempar {
    fn name(&self) -> &'static str {
        "cempar"
    }

    fn train(
        &mut self,
        net: &mut P2PNetwork,
        peer_data: &PeerDataMap,
    ) -> Result<(), ProtocolError> {
        self.regions = vec![None; self.config.regions];
        self.pending = BTreeMap::new();
        self.local_data = peer_data.clone();
        self.local_data
            .resize(net.num_peers(), MultiLabelDataset::new());

        // Per-peer kernel-SVM training is the expensive phase and every
        // peer's models depend only on its own data, so it fans out across
        // cores; the ordered reduction hands models back in peer order and
        // the sequential propagation below performs the same DHT lookups and
        // sends in the same order as the pre-refactor loop.
        let jobs: Vec<(PeerId, &MultiLabelDataset)> = peer_data
            .iter()
            .enumerate()
            .map(|(i, data)| (PeerId::from(i), data))
            .collect();
        let net_ref: &P2PNetwork = net;
        let local_models = parallel::par_map(&jobs, |&(peer, data)| {
            if !net_ref.is_online(peer) {
                return None;
            }
            self.train_local(data).map(|model| (peer, model))
        });

        // Offline peers' knowledge is outstanding: the next incremental
        // round contributes it once they are back online.
        for &(peer, data) in &jobs {
            if !data.is_empty() && !net_ref.is_online(peer) {
                self.pending.insert(peer, MultiLabelDataset::new());
            }
        }
        for (peer, model) in local_models.into_iter().flatten() {
            if self
                .propagate_model(net, peer, model, MessageKind::ModelPropagation)
                .is_err()
            {
                // The peer could not reach its super-peer; its knowledge is
                // simply not contributed this round (no global failure).
                self.pending.insert(peer, MultiLabelDataset::new());
                let now = net.now();
                net.log_mut().log(
                    now,
                    Some(peer),
                    "cempar",
                    "model propagation failed; peer not contributing",
                );
            }
        }
        // Every region starts empty, so every contributed tag is dirty:
        // regions cascade in full, in parallel.
        self.recascade();
        self.trained = true;
        Ok(())
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
        for (i, data) in new_data.iter().enumerate() {
            if data.is_empty() {
                continue;
            }
            if i >= self.local_data.len() {
                self.local_data.resize(i + 1, MultiLabelDataset::new());
            }
            self.local_data[i].extend_from(data);
            self.pending
                .entry(PeerId::from(i))
                .or_default()
                .extend_from(data);
        }
        // Warm-start refits fan out across every peer with outstanding
        // examples: each refit retrains on the previous model's support
        // vectors pooled with the peer's unabsorbed examples, instead of an
        // SMO solve over the peer's full local collection.
        let touched: Vec<PeerId> = self.pending.keys().copied().collect();
        let net_ref: &P2PNetwork = net;
        let local_models = parallel::par_map(&touched, |&peer| {
            if !net_ref.is_online(peer) {
                return None;
            }
            let region = self.region_of_peer(peer);
            let prev = self.regions[region]
                .as_ref()
                .and_then(|s| s.contributed.get(&peer));
            let full = &self.local_data[peer.index()];
            refit_cempar_local(&self.config, full, &self.pending[&peer], prev)
                .map(|model| (peer, model))
        });

        for (peer, model) in local_models.into_iter().flatten() {
            match self.propagate_model(net, peer, model, MessageKind::ModelPropagation) {
                Ok(()) => {
                    self.pending.remove(&peer);
                }
                Err(_) => {
                    // Keep the peer's pending examples for the next round.
                    let now = net.now();
                    net.log_mut().log(
                        now,
                        Some(peer),
                        "cempar",
                        "incremental propagation failed; peer not contributing",
                    );
                }
            }
        }
        // Only the tags that a refreshed model changed re-cascade.
        self.recascade();
        Ok(())
    }

    fn scores(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<Vec<TagPrediction>, ProtocolError> {
        self.scores_locating_with(net, peer, x, P2PNetwork::resolve)
    }

    fn predict(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<std::collections::BTreeSet<TagId>, ProtocolError> {
        let scores = self.scores(net, peer, x)?;
        Ok(crate::protocol::select_tags_adaptive(
            &scores,
            VOTE_THRESHOLD,
            REL_THRESHOLD,
            MIN_TAGS,
        ))
    }

    fn refine(
        &mut self,
        net: &mut P2PNetwork,
        peer: PeerId,
        example: &MultiLabelExample,
    ) -> Result<(), ProtocolError> {
        let mut results = self.refine_batch(net, &[(peer, example)]);
        results.pop().expect("one result per correction")
    }

    /// Every correction refits its peer's model warm and propagates it, in
    /// order, rolling its example back if the propagation fails; then one
    /// re-cascade merges each tag the batch dirtied once per region.
    /// Nothing between two corrections reads the cascade (a refit reads the
    /// peer's contributed model, a propagation the super-peer and the
    /// network), and the re-cascade equals a from-scratch cascade of the
    /// current contributions, so the models are those of a re-cascade after
    /// every correction.
    fn refine_batch(
        &mut self,
        net: &mut P2PNetwork,
        corrections: &[(PeerId, &MultiLabelExample)],
    ) -> Vec<Result<(), ProtocolError>> {
        let results = corrections
            .iter()
            .map(|&(peer, example)| self.correct(net, peer, example))
            .collect();
        self.recascade();
        results
    }

    fn on_crash_restart(&mut self, _net: &mut P2PNetwork, peer: PeerId) {
        // A crashed super-peer loses its in-memory region state: every
        // contributed model and the cascaded regional models. Its
        // contributors are re-marked pending so the next incremental round
        // rebuilds the region from their durable local data. A regular
        // peer's restart wipes nothing the protocol tracks for it — its
        // contribution lives at the super-peer and its local data is durable.
        for state in self.regions.iter_mut().flatten() {
            if state.super_peer != peer {
                continue;
            }
            for &contributor in state.contributed.keys() {
                self.pending.entry(contributor).or_default();
            }
            state.contributed.clear();
            state.cascade = RegionCascade::default();
        }
    }

    fn resync(&mut self, net: &mut P2PNetwork, peer: PeerId) -> usize {
        if !self.trained || !net.is_online(peer) {
            return 0;
        }
        let region = self.region_of_peer(peer);
        let Some(state) = self.regions.get(region).and_then(Option::as_ref) else {
            return 0;
        };
        let super_peer = state.super_peer;
        let contributed = state.contributed.contains_key(&peer);
        let has_data = self
            .local_data
            .get(peer.index())
            .is_some_and(|d| !d.is_empty());
        if peer == super_peer || !has_data || contributed {
            return 0;
        }
        // Digest exchange: the rejoining peer advertises its contribution;
        // the super-peer's (implicit) reply reveals it is missing, so the
        // peer queues a re-contribution — the model re-propagation itself is
        // trained and charged on the next incremental round.
        let digest = wire::encode_digest(&[(peer.0, 0)]);
        let arrived = self.link.deliver_frame(
            net,
            peer,
            super_peer,
            MessageKind::AntiEntropy,
            &digest,
            |b| wire::decode_digest(b).is_ok(),
        );
        if arrived != SendOutcome::Arrived {
            return 0;
        }
        self.pending.entry(peer).or_default();
        self.link.note_resync();
        net.note_resync();
        1
    }

    fn link_stats(&self) -> LinkStats {
        *self.link.stats()
    }
}

#[cfg(test)]
mod recascade_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::P2PTagClassifier;
    use ml::MultiLabelExample;
    use p2psim::SimConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Builds per-peer datasets for a toy 2-tag problem: tag 1 fires on feature
    /// 0, tag 2 on feature 1.
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
        P2PNetwork::new(SimConfig {
            num_peers,
            horizon_secs: 100_000,
            ..Default::default()
        })
    }

    #[test]
    fn trains_and_predicts_correct_tags() {
        let mut net = network(16);
        let data = toy_peer_data(16, 12, 1);
        let mut cempar = Cempar::new(CemparConfig {
            regions: 4,
            ..Default::default()
        });
        cempar.train(&mut net, &data).unwrap();
        assert!(!cempar.super_peers().is_empty());

        let query_peer = PeerId(3);
        let pred1 = cempar
            .predict(&mut net, query_peer, &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert!(pred1.contains(&1), "prediction {pred1:?}");
        let pred2 = cempar
            .predict(&mut net, query_peer, &SparseVector::from_pairs([(1, 1.0)]))
            .unwrap();
        assert!(pred2.contains(&2), "prediction {pred2:?}");
        let both = cempar
            .predict(
                &mut net,
                query_peer,
                &SparseVector::from_pairs([(0, 1.0), (1, 1.0)]),
            )
            .unwrap();
        assert_eq!(both, BTreeSet::from([1, 2]));
    }

    #[test]
    fn model_propagation_is_accounted() {
        let mut net = network(16);
        let data = toy_peer_data(16, 10, 2);
        let mut cempar = Cempar::new(CemparConfig::default());
        cempar.train(&mut net, &data).unwrap();
        let stats = net.stats();
        assert!(stats.kind(MessageKind::ModelPropagation).messages >= 10);
        assert!(stats.kind(MessageKind::ModelPropagation).bytes > 0);
        assert!(stats.kind(MessageKind::DhtLookup).messages > 0);
        // No raw training data is ever shipped.
        assert_eq!(stats.kind(MessageKind::TrainingData).messages, 0);
    }

    #[test]
    fn prediction_queries_cost_communication() {
        let mut net = network(16);
        let data = toy_peer_data(16, 10, 3);
        let mut cempar = Cempar::new(CemparConfig {
            regions: 4,
            ..Default::default()
        });
        cempar.train(&mut net, &data).unwrap();
        let before = net.stats().kind(MessageKind::PredictionQuery).messages;
        cempar
            .predict(&mut net, PeerId(0), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        let after = net.stats().kind(MessageKind::PredictionQuery).messages;
        assert!(after > before);
    }

    #[test]
    fn untrained_protocol_errors() {
        let mut net = network(4);
        let cempar = Cempar::new(CemparConfig::default());
        let r = cempar.scores(&mut net, PeerId(0), &SparseVector::from_pairs([(0, 1.0)]));
        assert_eq!(r.unwrap_err(), ProtocolError::NotTrained);
    }

    #[test]
    fn refinement_updates_the_model() {
        let mut net = network(8);
        // Initially tag 3 is unknown anywhere.
        let data = toy_peer_data(8, 10, 4);
        let mut cempar = Cempar::new(CemparConfig {
            regions: 2,
            ..Default::default()
        });
        cempar.train(&mut net, &data).unwrap();
        let probe = SparseVector::from_pairs([(5, 1.5)]);
        let before = cempar.predict(&mut net, PeerId(1), &probe).unwrap();
        assert!(!before.contains(&3));
        // The user of peer 1 refines several documents with the new tag 3.
        for i in 0..8 {
            let v = SparseVector::from_pairs([(5, 1.0 + i as f64 * 0.1)]);
            cempar
                .refine(&mut net, PeerId(1), &MultiLabelExample::new(v, [3]))
                .unwrap();
        }
        let scores = cempar.scores(&mut net, PeerId(1), &probe).unwrap();
        assert!(
            scores.iter().any(|p| p.tag == 3),
            "tag 3 now known: {scores:?}"
        );
        assert!(
            net.stats().kind(MessageKind::RefinementUpdate).messages >= 1,
            "refinement traffic accounted"
        );
    }

    #[test]
    fn incremental_training_recascades_only_touched_regions() {
        let mut net = network(16);
        let data = toy_peer_data(16, 10, 9);
        let mut cempar = Cempar::new(CemparConfig {
            regions: 4,
            ..Default::default()
        });
        assert_eq!(
            cempar.train_incremental(&mut net, &data).unwrap_err(),
            ProtocolError::NotTrained
        );
        cempar.train(&mut net, &data).unwrap();
        let probe = SparseVector::from_pairs([(4, 1.3)]);
        let before = cempar.predict(&mut net, PeerId(2), &probe).unwrap();
        assert!(!before.contains(&7));
        let mut new_data = vec![MultiLabelDataset::new(); 16];
        for i in 0..10 {
            new_data[2].push(MultiLabelExample::new(
                SparseVector::from_pairs([(4, 1.0 + 0.05 * i as f64)]),
                [7],
            ));
        }
        let msgs_before = net.stats().kind(MessageKind::ModelPropagation).messages;
        cempar.train_incremental(&mut net, &new_data).unwrap();
        // One refreshed local model travelled to one super-peer.
        let msgs_after = net.stats().kind(MessageKind::ModelPropagation).messages;
        assert_eq!(msgs_after - msgs_before, 1);
        let scores = cempar.scores(&mut net, PeerId(2), &probe).unwrap();
        assert!(scores.iter().any(|p| p.tag == 7), "{scores:?}");
    }

    #[test]
    fn super_peer_failure_degrades_gracefully() {
        use p2psim::churn::ChurnModel;
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 32,
            churn: ChurnModel::Exponential {
                mean_session_secs: 400.0,
                mean_offline_secs: 200.0,
            },
            horizon_secs: 100_000,
            ..Default::default()
        });
        let data = toy_peer_data(32, 10, 5);
        let mut cempar = Cempar::new(CemparConfig {
            regions: 8,
            ..Default::default()
        });
        cempar.train(&mut net, &data).unwrap();
        // Let a lot of time pass so some super-peers churn out.
        net.advance(p2psim::SimTime::from_secs(20_000));
        let online_peer = net.online_peers().next();
        let Some(peer) = online_peer else { return };
        // Prediction must either succeed (some region reachable) or fail with
        // NoModelReachable — it must never panic or hang.
        let result = cempar.predict(&mut net, peer, &SparseVector::from_pairs([(0, 1.0)]));
        match result {
            Ok(tags) => assert!(!tags.is_empty()),
            Err(e) => assert_eq!(e, ProtocolError::NoModelReachable),
        }
    }

    /// Scores as `Cempar::scores` did before the resolution cache: one full
    /// DHT lookup before every region visit, used only as an error check.
    fn scores_with_a_lookup_per_visit(
        cempar: &Cempar,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<Vec<TagPrediction>, ProtocolError> {
        cempar.scores_locating_with(net, peer, x, |net, from, key| {
            net.dht_lookup(from, key).map(|(owner, _hops)| owner)
        })
    }

    /// One scored query, each prediction as `(tag, score bits, confidence bits)`.
    type Scored = Result<Vec<(TagId, u64, u64)>, ProtocolError>;
    type Scorer = fn(
        &Cempar,
        &mut P2PNetwork,
        PeerId,
        &SparseVector,
    ) -> Result<Vec<TagPrediction>, ProtocolError>;

    /// A CEMPaR session under churn, crash-restarts and a lossy fault plan:
    /// every epoch advances time, restarts crashed peers, trains new
    /// documents, applies corrections and has every online peer score a
    /// query through `score`. Returns every score vector (as bits) and the
    /// network's statistics.
    fn lossy_session(score: Scorer) -> (Vec<Scored>, p2psim::SimStats) {
        use p2psim::churn::ChurnModel;
        const PEERS: usize = 24;
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: PEERS,
            churn: ChurnModel::Exponential {
                mean_session_secs: 900.0,
                mean_offline_secs: 300.0,
            },
            horizon_secs: 100_000,
            faults: p2psim::FaultPlan::chaos(0.1, None, true),
            ..Default::default()
        });
        let mut cempar = Cempar::new(CemparConfig {
            regions: 4,
            ..Default::default()
        });
        cempar
            .train(&mut net, &toy_peer_data(PEERS, 8, 11))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut scored = Vec::new();
        for epoch in 0..16 {
            net.advance(p2psim::SimTime::from_secs(120));
            for peer in net.drain_crash_restarts() {
                cempar.on_crash_restart(&mut net, peer);
            }
            let arrivals = toy_peer_data(PEERS, 1, 100 + epoch);
            cempar.train_incremental(&mut net, &arrivals).unwrap();
            let online: Vec<PeerId> = net.online_peers().collect();
            for &peer in online.iter().step_by(5) {
                let v = SparseVector::from_pairs([(0, rng.gen_range(0.8..1.2))]);
                // A lost propagation is the caller's to retry; here it is not.
                let _ = cempar.refine(&mut net, peer, &MultiLabelExample::new(v, [1]));
            }
            for &peer in &online {
                let x = SparseVector::from_pairs([
                    (0, rng.gen_range(0.0..1.5)),
                    (1, rng.gen_range(0.0..1.5)),
                ]);
                let scores = score(&cempar, &mut net, peer, &x);
                let bits = |p: &TagPrediction| (p.tag, p.score.to_bits(), p.confidence.to_bits());
                scored.push(scores.map(|s| s.iter().map(bits).collect()));
            }
        }
        (scored, net.stats().clone())
    }

    #[test]
    fn resolving_once_scores_and_sends_like_a_lookup_per_visit() {
        let (cached, cached_stats) = lossy_session(Cempar::scores);
        let (oracle, oracle_stats) = lossy_session(scores_with_a_lookup_per_visit);
        assert_eq!(cached, oracle);
        for &kind in MessageKind::all() {
            if kind != MessageKind::DhtLookup {
                assert_eq!(cached_stats.kind(kind), oracle_stats.kind(kind), "{kind:?}");
            }
        }
        let lookups = |stats: &p2psim::SimStats| stats.kind(MessageKind::DhtLookup).messages;
        assert!(
            lookups(&cached_stats) < lookups(&oracle_stats),
            "{} vs {}",
            lookups(&cached_stats),
            lookups(&oracle_stats)
        );
        // The session exercised what can make a cached answer wrong.
        let query = oracle_stats.kind(MessageKind::PredictionQuery);
        assert!(oracle_stats.faults.crashes > 0 && query.dropped > 0);
        assert!(oracle.iter().any(Result::is_ok));
    }

    #[test]
    fn a_failed_query_send_forgets_the_super_peers_resolution() {
        use p2psim::{FaultPlan, PartitionScope, PartitionWindow};
        const PIVOT: usize = 8;
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 16,
            horizon_secs: 100_000,
            faults: FaultPlan {
                partitions: vec![PartitionWindow {
                    start_secs: 100,
                    end_secs: 200,
                    scope: PartitionScope::Index { pivot: PIVOT },
                }],
                ..Default::default()
            },
            ..Default::default()
        });
        let mut cempar = Cempar::new(CemparConfig {
            regions: 4,
            ..Default::default()
        });
        cempar.train(&mut net, &toy_peer_data(16, 10, 7)).unwrap();
        let peer = PeerId(0);
        let x = SparseVector::from_pairs([(0, 1.0)]);
        cempar.scores(&mut net, peer, &x).unwrap();
        // Inside the window, queries across the cut are lost; lookups are not.
        net.advance(p2psim::SimTime::from_secs(150));
        let _ = cempar.scores(&mut net, peer, &x);
        let super_peers = cempar.super_peers();
        let across = |sp: &PeerId| sp.index() >= PIVOT;
        assert!(super_peers.iter().any(across) && !super_peers.iter().all(across));
        for sp in super_peers {
            let before = net.stats().kind(MessageKind::DhtLookup).messages;
            assert_eq!(net.resolve(peer, sp.ring_key()), Ok(sp));
            let routed = net.stats().kind(MessageKind::DhtLookup).messages > before;
            assert_eq!(routed, across(&sp), "super-peer {sp:?}");
        }
    }

    #[test]
    fn regional_models_compress_the_contributed_support_vectors() {
        let mut net = network(16);
        let data = toy_peer_data(16, 20, 6);
        let mut cempar = Cempar::new(CemparConfig {
            regions: 2,
            ..Default::default()
        });
        cempar.train(&mut net, &data).unwrap();
        let total_training: usize = data.iter().map(|d| d.len()).sum();
        assert!(cempar.regional_support_vectors() > 0);
        assert!(cempar.regional_support_vectors() < 2 * total_training);
    }

    #[test]
    fn a_nan_weight_model_ranks_its_tag_last_without_panicking() {
        let mut net = network(16);
        let data = toy_peer_data(16, 12, 1);
        let mut cempar = Cempar::new(CemparConfig {
            regions: 4,
            ..Default::default()
        });
        cempar.train(&mut net, &data).unwrap();
        // Peer 0's contribution gains an extra tag 0 whose support vector
        // weight is NaN; its region's cascade keeps that lone contribution
        // as the regional model for tag 0. No decoder accepts a non-finite
        // weight, so the contribution is recorded at the super-peer
        // directly. Tag 0 sorts first in tag order, so only the comparator
        // can move it last.
        let local = cempar.train_local(&data[0]).unwrap();
        let mut classifiers: BTreeMap<TagId, KernelSvm> =
            local.iter().map(|(t, c)| (t, c.clone())).collect();
        let nan_sv = ml::svm::SupportVector {
            vector: SparseVector::from_pairs([(0, 1.0), (1, 1.0)]),
            label: true,
            alpha: f64::NAN,
        };
        classifiers.insert(0, KernelSvm::from_support_vectors(vec![nan_sv], 0.0));
        let model = OneVsAllModel::from_classifiers(classifiers, local.threshold(), 1);
        let region = cempar.region_of_peer(PeerId(0));
        let state = cempar.regions[region].as_mut().unwrap();
        state
            .cascade
            .replaced(state.contributed.get(&PeerId(0)), &model);
        state.contributed.insert(PeerId(0), model);
        cempar.recascade();
        for x in [
            SparseVector::from_pairs([(0, 1.0)]),
            SparseVector::from_pairs([(1, 1.0)]),
            SparseVector::from_pairs([(0, 1.0), (1, 1.0)]),
        ] {
            let scores = cempar.scores(&mut net, PeerId(3), &x).unwrap();
            let nan_from = scores.iter().position(|p| p.score.is_nan()).unwrap();
            assert!(nan_from > 0, "{scores:?}");
            assert!(
                scores[nan_from..].iter().all(|p| p.score.is_nan()),
                "{scores:?}"
            );
            assert!(scores[nan_from..].iter().any(|p| p.tag == 0), "{scores:?}");
            let tags = cempar.predict(&mut net, PeerId(3), &x).unwrap();
            assert!(!tags.is_empty() && !tags.contains(&0), "{tags:?}");
        }
    }
}
