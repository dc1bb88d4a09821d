//! The PACE protocol as a per-peer sans-io core.
//!
//! One [`PaceCore`] holds a single peer's ensemble: its own trained
//! `PaceModel` plus every model installed off the wire, keyed by source.
//! Training re-uses `train_pace_model`, retrieval `rank_pace_models` and
//! voting `combine_pace_votes` — the same protocol body the monolithic
//! [`crate::pace::Pace`] instance runs, so both drivers score identically
//! over the same ensemble.
//!
//! Propagation ships a [`crate::wire::PayloadKind::Install`] envelope
//! `(source, version, [model frame, centroids frame])` to every other peer.
//! Installs are idempotent and version-monotonic: a duplicate or stale
//! delivery changes nothing, so any delivery interleaving converges to the
//! same ensemble. Prediction is entirely local (PACE's defining property) —
//! [`PaceCore::predict`] answers in the same call.

use super::reliable::ReliableCore;
use super::{LocalEffect, Millis, Output, ProtocolCore};
use crate::pace::{
    combine_pace_votes, rank_pace_models, train_pace_model, PaceConfig, PaceModel, PaceUpdate,
};
use crate::reliable::LinkStats;
use crate::wire::{self, PayloadKind};
use ml::multilabel::OneVsAllModel;
use ml::svm::LinearSvm;
use ml::MultiLabelDataset;
use p2psim::message::MessageKind;
use p2psim::PeerId;
use std::collections::BTreeMap;
use textproc::SparseVector;

/// One installed ensemble entry.
#[derive(Debug, Clone)]
struct Installed {
    version: u64,
    model: PaceModel,
}

/// A single PACE peer as a pure state machine.
#[derive(Debug, Clone)]
pub struct PaceCore {
    id: PeerId,
    config: PaceConfig,
    /// The static peer list propagation fans out to.
    peers: Vec<PeerId>,
    local_data: MultiLabelDataset,
    /// Every model this peer holds (its own included), keyed by source id.
    ensemble: BTreeMap<u64, Installed>,
    link: ReliableCore,
    next_request: u64,
}

impl PaceCore {
    /// A fresh core for `id` within the static peer set `peers`.
    pub fn new(id: PeerId, peers: Vec<PeerId>, config: PaceConfig) -> Self {
        let link = ReliableCore::new(config.wire.reliability);
        Self {
            id,
            config,
            peers,
            local_data: MultiLabelDataset::new(),
            ensemble: BTreeMap::new(),
            link,
            next_request: 0,
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

    /// Installed `(source, version)` pairs.
    pub fn installed_versions(&self) -> Vec<(u64, u64)> {
        self.ensemble.iter().map(|(&s, e)| (s, e.version)).collect()
    }

    /// Encodes the install envelope for one model at `version`.
    fn install_frame(
        &self,
        source: PeerId,
        version: u64,
        model: &OneVsAllModel<LinearSvm>,
        accuracy: f64,
        centroids: &[SparseVector],
    ) -> Vec<u8> {
        let model_frame = wire::encode_pace_model(model, accuracy, self.config.wire.precision);
        let centroid_frame = wire::encode_centroids(centroids);
        wire::encode_install(source.0, version, &[&model_frame, &centroid_frame])
    }

    /// The install envelope of an ensemble entry this peer holds.
    fn held_install_frame(&self, entry: &Installed) -> Vec<u8> {
        self.install_frame(
            entry.model.source(),
            entry.version,
            &entry.model.warm_model(),
            entry.model.accuracy(),
            entry.model.centroids(),
        )
    }

    /// Installs `(source, version, model)` if strictly newer than what is
    /// held. Returns the install effect, or `None` for stale/duplicate.
    fn install(&mut self, source: u64, version: u64, model: PaceModel) -> Option<Output> {
        match self.ensemble.get(&source) {
            Some(cur) if cur.version >= version => None,
            _ => {
                self.ensemble.insert(source, Installed { version, model });
                Some(Output::Effect(LocalEffect::Installed { source, version }))
            }
        }
    }

    /// Appends `data`, retrains this peer's model (warm when one exists) and
    /// propagates it to every other peer at the next version.
    pub fn train(&mut self, now: Millis, data: &MultiLabelDataset) -> Vec<Output> {
        let mut out = Vec::new();
        self.local_data.extend_from(data);
        let warm = self
            .ensemble
            .get(&self.id.0)
            .map(|e| e.model.warm_model().into_owned());
        let Some(update) = train_pace_model(&self.config, self.id, &self.local_data, warm.as_ref())
        else {
            return out;
        };
        let version = self
            .ensemble
            .get(&self.id.0)
            .map(|e| e.version + 1)
            .unwrap_or(1);
        let envelope = self.install_frame(
            self.id,
            version,
            &update.model,
            update.accuracy,
            &update.centroids,
        );
        // Install the copy decoded off the wire, exactly like the measured
        // monolithic path: lossy wire settings affect this peer's own votes
        // the same way they affect everyone else's.
        if let Some(output) = self.decode_install(&envelope) {
            out.push(output);
        }
        let targets: Vec<PeerId> = self
            .peers
            .iter()
            .copied()
            .filter(|&p| p != self.id)
            .collect();
        for peer in targets {
            self.link.send(
                now,
                peer,
                MessageKind::ModelPropagation,
                envelope.clone(),
                &mut out,
            );
        }
        out
    }

    /// Decodes and (maybe) installs an install envelope.
    fn decode_install(&mut self, frame: &[u8]) -> Option<Output> {
        let (source, version, parts) = wire::decode_install(frame).ok()?;
        let [model_frame, centroid_frame] = parts.as_slice() else {
            return None;
        };
        let (model, accuracy) = wire::decode_pace_model(model_frame).ok()?;
        let centroids = wire::decode_centroids(centroid_frame).ok()?;
        let model = PaceModel::assemble(PaceUpdate {
            source: PeerId(source),
            model,
            centroids,
            accuracy,
        });
        self.install(source, version, model)
    }

    /// Starts a (purely local) prediction: ranks the ensemble by centroid
    /// distance, lets the nearest models vote. The effect is immediate.
    pub fn predict(&mut self, _now: Millis, x: &SparseVector) -> (u64, Vec<Output>) {
        let request = self.next_request;
        self.next_request += 1;
        let x_norm_sq = x.norm_sq();
        let candidates = self.ensemble.values().map(|e| &e.model);
        let nearest = rank_pace_models(&self.config, candidates, x, x_norm_sq);
        let scores = if nearest.is_empty() {
            Vec::new()
        } else {
            combine_pace_votes(&self.config, &nearest, x)
        };
        (
            request,
            vec![Output::Effect(LocalEffect::Prediction { request, scores })],
        )
    }

    /// Sends this core's holdings digest to `partner`; the partner pushes
    /// back anything it holds strictly newer.
    pub fn start_anti_entropy(&mut self, now: Millis, partner: PeerId) -> Vec<Output> {
        let mut out = Vec::new();
        let entries: Vec<(u64, u64)> = self.installed_versions();
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

impl ProtocolCore for PaceCore {
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
            Some(PayloadKind::Digest) => {
                // Push every entry the partner is missing or behind on.
                if let Ok(entries) = wire::decode_digest(&inner) {
                    let theirs: BTreeMap<u64, u64> = entries.into_iter().collect();
                    let stale: Vec<Vec<u8>> = self
                        .ensemble
                        .iter()
                        .filter(|(s, e)| theirs.get(s).copied().unwrap_or(0) < e.version)
                        .map(|(_, e)| self.held_install_frame(e))
                        .collect();
                    for envelope in stale {
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
