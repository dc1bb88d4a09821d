//! The CEMPaR protocol as a per-peer sans-io core.
//!
//! One [`CemparCore`] plays both roles a peer can hold: **contributor**
//! (trains a local kernel model and installs it at its region's super-peer)
//! and **super-peer** (collects a region's contributions, cascades them into
//! per-tag regional models, answers routed prediction queries). Training,
//! cascading and scoring re-use `train_cempar_local`, `recascade` and
//! `RegionCascade` — the protocol body shared with the monolithic
//! [`crate::cempar::Cempar`].
//!
//! Super-peer election is computed purely from the static peer list: the
//! super-peer of region `r` is the ring successor of the region's anchor key
//! (Chord semantics, every peer derives it locally — no DHT round-trip in
//! the core; drivers may charge lookups separately).
//!
//! Order-independence: contributions are keyed `(source, version)` and only
//! strictly newer versions install; each install marks the tags it changed
//! dirty, and the dirty tags are re-merged lazily at query time from the
//! contributors in `BTreeMap` order, so the regional models depend only on
//! the *set* of installed contributions, never their arrival order.
//! Prediction fans one [`crate::wire::PayloadKind::QueryRequest`] out per
//! region (request id = `query·R + region`, self-describing on both ends)
//! and combines the weighted votes only once every region answered.

use super::reliable::ReliableCore;
use super::{LocalEffect, Millis, Output, ProtocolCore};
use crate::cempar::{recascade, train_cempar_local, CemparConfig, RegionCascade};
use crate::protocol::combine_weighted_scores;
use crate::reliable::LinkStats;
use crate::wire::{self, PayloadKind};
use ml::multilabel::{OneVsAllModel, TagPrediction};
use ml::svm::KernelSvm;
use ml::MultiLabelDataset;
use p2psim::message::MessageKind;
use p2psim::overlay::SuperPeerDirectory;
use p2psim::PeerId;
use std::collections::{BTreeMap, BTreeSet};
use textproc::SparseVector;

/// One region's state at its super-peer.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionSlot {
    /// Contributed models by source id, with their install versions.
    pub(crate) contributed: BTreeMap<u64, (u64, OneVsAllModel<KernelSvm>)>,
    /// The cascaded regional models, and the tags installs changed since.
    pub(crate) cascade: RegionCascade,
}

/// One in-flight prediction at the requester.
#[derive(Debug, Clone)]
struct OutstandingQuery {
    /// Regions that have not answered yet (duplicate responses are ignored).
    pending: BTreeSet<usize>,
    /// Weighted votes keyed by region (weight-0 responses are dropped), so
    /// the final combine sums in region order no matter the arrival order —
    /// float summation order is part of bit-for-bit driver equivalence.
    votes: BTreeMap<usize, (f64, Vec<TagPrediction>)>,
}

/// A single CEMPaR peer (contributor and, when elected, super-peer) as a
/// pure state machine.
#[derive(Debug, Clone)]
pub struct CemparCore {
    id: PeerId,
    config: CemparConfig,
    directory: SuperPeerDirectory,
    /// The static peer list super-peer election runs over.
    peers: Vec<PeerId>,
    local_data: MultiLabelDataset,
    /// This peer's contribution version (bumped per retrain).
    my_version: u64,
    /// The latest model this peer contributed (re-pushed by anti-entropy).
    my_model: Option<OneVsAllModel<KernelSvm>>,
    /// Super-peer state, by region index.
    pub(crate) regions: BTreeMap<usize, RegionSlot>,
    /// In-flight predictions by query index.
    outstanding: BTreeMap<u64, OutstandingQuery>,
    link: ReliableCore,
    next_query: u64,
}

impl CemparCore {
    /// A fresh core for `id` within the static peer set `peers`.
    pub fn new(id: PeerId, peers: Vec<PeerId>, config: CemparConfig) -> Self {
        let directory = SuperPeerDirectory::new(config.regions);
        let link = ReliableCore::new(config.wire.reliability);
        Self {
            id,
            config,
            directory,
            peers,
            local_data: MultiLabelDataset::new(),
            my_version: 0,
            my_model: None,
            regions: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            link,
            next_query: 0,
        }
    }

    /// The peer this core belongs to.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The reliable layer's counters.
    pub fn link_stats(&self) -> &LinkStats {
        self.link.stats()
    }

    /// Installed `(source, version)` pairs across every region this peer
    /// super-peers, plus its own contribution.
    pub fn installed_versions(&self) -> Vec<(u64, u64)> {
        let mut held: BTreeMap<u64, u64> = self
            .regions
            .values()
            .flat_map(|slot| slot.contributed.iter().map(|(&s, &(v, _))| (s, v)))
            .collect();
        if self.my_version > 0 {
            held.entry(self.id.0).or_insert(self.my_version);
        }
        held.into_iter().collect()
    }

    /// The super-peer of a region: the ring successor of the region's anchor
    /// key among the static peer list (deterministic, locally computable).
    pub fn super_peer_of_region(&self, region: usize) -> PeerId {
        let anchor = self.directory.anchor_key(region);
        let successor = self
            .peers
            .iter()
            .copied()
            .filter(|p| p.ring_key() >= anchor)
            .min_by_key(|p| p.ring_key());
        successor.unwrap_or_else(|| {
            // Wrap around the ring: the globally smallest key owns the top
            // arc. The peer list is never empty (this core is in it).
            self.peers
                .iter()
                .copied()
                .min_by_key(|p| p.ring_key())
                .expect("peer list contains at least this core")
        })
    }

    /// The region this peer contributes to.
    fn my_region(&self) -> usize {
        self.directory.region_of_key(self.id.ring_key())
    }

    /// Installs a contribution into a region slot if strictly newer.
    fn install(
        &mut self,
        source: u64,
        version: u64,
        model: OneVsAllModel<KernelSvm>,
    ) -> Option<Output> {
        let region = self.directory.region_of_key(PeerId(source).ring_key());
        let slot = self.regions.entry(region).or_default();
        match slot.contributed.get(&source) {
            Some(&(held, _)) if held >= version => None,
            held => {
                slot.cascade.replaced(held.map(|(_, m)| m), &model);
                slot.contributed.insert(source, (version, model));
                Some(Output::Effect(LocalEffect::Installed { source, version }))
            }
        }
    }

    /// Re-merges the tags of a region that installs changed. Lazy (runs at
    /// query time), so the result never depends on install order.
    pub(crate) fn ensure_cascade(&mut self, region: usize) {
        if let Some(slot) = self.regions.get_mut(&region) {
            let contributed = slot.contributed.values().map(|(_, m)| m);
            recascade(&self.config, vec![(contributed, &mut slot.cascade)]);
        }
    }

    /// The install envelope carrying this peer's current contribution.
    fn my_install_frame(&self) -> Option<Vec<u8>> {
        let model = self.my_model.as_ref()?;
        let model_frame = wire::encode_kernel_model(model, self.config.wire.precision);
        Some(wire::encode_install(
            self.id.0,
            self.my_version,
            &[&model_frame],
        ))
    }

    /// Appends `data`, retrains this peer's kernel model and installs it at
    /// its region's super-peer at the next version.
    pub fn train(&mut self, now: Millis, data: &MultiLabelDataset) -> Vec<Output> {
        let mut out = Vec::new();
        self.local_data.extend_from(data);
        let Some(model) = train_cempar_local(&self.config, &self.local_data) else {
            return out;
        };
        self.my_version += 1;
        self.my_model = Some(model);
        let envelope = self.my_install_frame().expect("model was just stored");
        let sp = self.super_peer_of_region(self.my_region());
        if sp == self.id {
            // This peer super-peers its own region: install the copy decoded
            // off the wire, exactly like a remote contribution.
            if let Some(effect) = self.decode_install(&envelope) {
                out.push(effect);
            }
        } else {
            self.link
                .send(now, sp, MessageKind::ModelPropagation, envelope, &mut out);
        }
        out
    }

    /// Decodes and (maybe) installs an install envelope.
    fn decode_install(&mut self, frame: &[u8]) -> Option<Output> {
        let (source, version, parts) = wire::decode_install(frame).ok()?;
        let [model_frame] = parts.as_slice() else {
            return None;
        };
        let model = wire::decode_kernel_model(model_frame).ok()?;
        self.install(source, version, model)
    }

    /// Starts a prediction: one routed query per region (answered inline for
    /// regions this peer super-peers itself). The effect fires once every
    /// region answered.
    pub fn predict(&mut self, now: Millis, x: &SparseVector) -> (u64, Vec<Output>) {
        let query = self.next_query;
        self.next_query += 1;
        let regions = self.directory.regions() as u64;
        let mut state = OutstandingQuery {
            pending: (0..self.directory.regions()).collect(),
            votes: BTreeMap::new(),
        };
        let mut out = Vec::new();
        for region in 0..self.directory.regions() {
            let request = query * regions + region as u64;
            let sp = self.super_peer_of_region(region);
            if sp == self.id {
                // Answer locally, through the same wire round-trip a remote
                // requester would get (measured semantics).
                let frame = wire::encode_query_request(request, x);
                let (_, weight, scores) = self
                    .answer_query(&frame)
                    .expect("self-encoded query frame answers");
                state.pending.remove(&region);
                if weight > 0 {
                    state.votes.insert(region, (weight as f64, scores));
                }
            } else {
                self.link.send(
                    now,
                    sp,
                    MessageKind::PredictionQuery,
                    wire::encode_query_request(request, x),
                    &mut out,
                );
            }
        }
        if state.pending.is_empty() {
            out.push(finish_query(query, state));
        } else {
            self.outstanding.insert(query, state);
        }
        (query, out)
    }

    /// Super-peer half of a prediction: decodes a query frame, scores it
    /// against the request's region, returns `(request, weight, scores)`.
    fn answer_query(&mut self, frame: &[u8]) -> Option<(u64, u64, Vec<TagPrediction>)> {
        let (request, x) = wire::decode_query_request(frame).ok()?;
        let region = (request % self.directory.regions() as u64) as usize;
        self.ensure_cascade(region);
        let Some(slot) = self.regions.get(&region) else {
            return Some((request, 0, Vec::new()));
        };
        if slot.cascade.regional.is_empty() {
            return Some((request, 0, Vec::new()));
        }
        let scores = slot.cascade.scores(self.config.backend, &x);
        Some((request, slot.contributed.len() as u64, scores))
    }

    /// Sends this core's holdings digest to `partner`.
    pub fn start_anti_entropy(&mut self, now: Millis, partner: PeerId) -> Vec<Output> {
        let mut out = Vec::new();
        let entries = self.installed_versions();
        self.link.note_resync();
        self.link.send(
            now,
            partner,
            MessageKind::AntiEntropy,
            wire::encode_digest(&entries),
            &mut out,
        );
        out
    }
}

/// Reduces a completed query's votes to its prediction effect.
fn finish_query(query: u64, state: OutstandingQuery) -> Output {
    let votes: Vec<(f64, Vec<TagPrediction>)> = state.votes.into_values().collect();
    let scores = if votes.is_empty() {
        Vec::new()
    } else {
        combine_weighted_scores(&votes)
    };
    Output::Effect(LocalEffect::Prediction {
        request: query,
        scores,
    })
}

impl ProtocolCore for CemparCore {
    fn ingest(&mut self, now: Millis, from: PeerId, frame: &[u8]) -> Vec<Output> {
        let mut out = Vec::new();
        let Some(inner) = self.link.on_frame(from, frame, &mut out) else {
            return out;
        };
        match wire::peek_kind(&inner) {
            Some(PayloadKind::Install) => {
                if let Some(effect) = self.decode_install(&inner) {
                    out.push(effect);
                }
            }
            Some(PayloadKind::QueryRequest) => {
                if let Some((request, weight, scores)) = self.answer_query(&inner) {
                    self.link.send(
                        now,
                        from,
                        MessageKind::PredictionResponse,
                        wire::encode_query_response(request, weight, &scores),
                        &mut out,
                    );
                }
            }
            Some(PayloadKind::QueryResponse) => {
                if let Ok((request, weight, scores)) = wire::decode_query_response(&inner) {
                    let regions = self.directory.regions() as u64;
                    let query = request / regions;
                    let region = (request % regions) as usize;
                    if let Some(state) = self.outstanding.get_mut(&query) {
                        if state.pending.remove(&region) {
                            if weight > 0 {
                                state.votes.insert(region, (weight as f64, scores));
                            }
                            if state.pending.is_empty() {
                                let state = self.outstanding.remove(&query).expect("present");
                                out.push(finish_query(query, state));
                            }
                        }
                    }
                }
            }
            Some(PayloadKind::Digest) => {
                // Re-push this peer's own contribution when the digest shows
                // the partner (typically its super-peer) is behind on it.
                if let Ok(entries) = wire::decode_digest(&inner) {
                    let theirs: BTreeMap<u64, u64> = entries.into_iter().collect();
                    let behind = theirs.get(&self.id.0).copied().unwrap_or(0) < self.my_version;
                    if behind && self.my_model.is_some() {
                        let envelope = self.my_install_frame().expect("model present");
                        self.link.note_resync();
                        self.link.send(
                            now,
                            from,
                            MessageKind::ModelPropagation,
                            envelope,
                            &mut out,
                        );
                    }
                }
            }
            _ => {}
        }
        out
    }

    fn poll_timers(&mut self, now: Millis) -> Vec<Output> {
        let mut out = Vec::new();
        self.link.poll_timers(now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::MultiLabelExample;

    /// An install whose inner kernel frame carries the first frame version
    /// (per-tag kernel bodies) installs nothing: its version byte is
    /// rejected before the body is read, so the old layout is never misread
    /// as a dictionary.
    #[test]
    fn installs_whose_kernel_part_has_version_one_are_rejected() {
        let config = CemparConfig::default();
        let mut data = MultiLabelDataset::new();
        for i in 0..6 {
            let s = 1.0 + 0.1 * i as f64;
            data.push(MultiLabelExample::new(
                SparseVector::from_pairs([(0, s)]),
                [1],
            ));
            data.push(MultiLabelExample::new(
                SparseVector::from_pairs([(1, s)]),
                [2],
            ));
        }
        let model = train_cempar_local(&config, &data).expect("two tags train");
        let current = wire::encode_kernel_model(&model, config.wire.precision);
        let mut old = current.clone();
        old[1] = 1;
        assert_eq!(
            wire::decode_kernel_model(&old).err(),
            Some(wire::WireError::BadVersion(1))
        );

        let peers: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut observer = CemparCore::new(PeerId(0), peers, config);
        let out = observer.ingest(0, PeerId(2), &wire::encode_install(2, 1, &[&old]));
        assert!(out.is_empty(), "{out:?}");
        assert!(observer.installed_versions().is_empty());
        let out = observer.ingest(0, PeerId(2), &wire::encode_install(2, 1, &[&current]));
        assert!(matches!(
            out.as_slice(),
            [Output::Effect(LocalEffect::Installed {
                source: 2,
                version: 1
            })]
        ));
    }
}
