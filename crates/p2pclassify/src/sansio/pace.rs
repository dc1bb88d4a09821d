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
//! `(source, version, [model frame, centroids frame])` to every other peer —
//! the frame the monolithic driver broadcasts too, built and read by the
//! same `encode_pace_install` / `decode_pace_install` pair.
//! Installs are idempotent and version-monotonic: a duplicate or stale
//! delivery changes nothing, so any delivery interleaving converges to the
//! same ensemble. Prediction is entirely local (PACE's defining property) —
//! [`PaceCore::predict`] answers in the same call.

use super::reliable::ReliableCore;
use super::{LocalEffect, Millis, Output, ProtocolCore};
use crate::pace::{
    combine_pace_votes, decode_pace_install, encode_pace_install, rank_pace_models,
    train_pace_model, PaceConfig, PaceModel,
};
use crate::reliable::LinkStats;
use crate::wire::{self, PayloadKind};
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
        let link = ReliableCore::new(config.reliability);
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

    /// The install envelope of an ensemble entry this peer holds, re-encoded
    /// from its packed weights.
    fn held_install_frame(&self, entry: &Installed) -> Vec<u8> {
        encode_pace_install(
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
        // The installed model is borrowed and released before the new one is
        // installed.
        let warm = self.ensemble.get(&self.id.0).map(|e| &e.model);
        let update = train_pace_model(&self.config, self.id, &self.local_data, warm);
        let Some(update) = update else {
            return out;
        };
        let version = self
            .ensemble
            .get(&self.id.0)
            .map(|e| e.version + 1)
            .unwrap_or(1);
        let envelope = encode_pace_install(
            self.id,
            version,
            &update.model,
            update.accuracy,
            &update.centroids,
        );
        // Install the copy decoded off the wire, exactly like the monolithic
        // path: this peer votes with the model everyone else received.
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
        let (version, update) = decode_pace_install(frame).ok()?;
        let source = update.source.0;
        self.install(source, version, PaceModel::assemble(update))
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
            combine_pace_votes(&nearest, x)
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
        match wire::peek_kind(inner) {
            Some(PayloadKind::Install) => {
                if let Some(effect) = self.decode_install(inner) {
                    out.push(effect);
                }
            }
            Some(PayloadKind::Digest) => {
                // Push every entry the partner is missing or behind on.
                if let Ok(entries) = wire::decode_digest(inner) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ml::MultiLabelExample;

    fn peer_data(offset: f64) -> MultiLabelDataset {
        let mut ds = MultiLabelDataset::new();
        for i in 0..12 {
            let s = offset + 0.05 * i as f64;
            let (pairs, tags): (Vec<(u32, f64)>, Vec<u32>) = match i % 3 {
                0 => (vec![(0, s), (5, 0.2)], vec![1]),
                1 => (vec![(1, s), (4, 0.3)], vec![2]),
                _ => (vec![(0, s), (1, s), (7, 0.1)], vec![1, 2]),
            };
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs(pairs),
                tags,
            ));
        }
        ds
    }

    fn emitted(out: Vec<Output>) -> Vec<Vec<u8>> {
        out.into_iter()
            .filter_map(|o| match o {
                Output::Emit { frame, .. } => Some(frame),
                _ => None,
            })
            .collect()
    }

    /// A core keeps only the packed weights of what it installed, yet its
    /// anti-entropy re-send is the envelope of the model decoded off the
    /// wire (what a core that kept the per-tag classifiers re-encoded), and
    /// that is the envelope first sent, byte for byte.
    #[test]
    fn an_anti_entropy_resend_encodes_the_decoded_model() {
        let peers: Vec<PeerId> = (0..3).map(PeerId).collect();
        let config = PaceConfig::default();
        let mut source = PaceCore::new(PeerId(0), peers.clone(), config.clone());
        let mut holder = PaceCore::new(PeerId(1), peers.clone(), config.clone());
        let mut rejoiner = PaceCore::new(PeerId(2), peers, config);
        let sent = emitted(source.train(0, &peer_data(1.0)));
        let warm = emitted(source.train(0, &peer_data(0.8)));
        let envelope = warm.into_iter().next().expect("the refit propagates");
        assert_eq!(sent.len(), 2);
        holder.ingest(0, PeerId(0), &sent[0]);
        holder.ingest(0, PeerId(0), &envelope);
        assert_eq!(holder.installed_versions(), vec![(0, 2)]);

        let (version, decoded) = decode_pace_install(&envelope).unwrap();
        assert!(decoded.model.num_tags() >= 2);
        let want = encode_pace_install(
            decoded.source,
            version,
            &decoded.model,
            decoded.accuracy,
            &decoded.centroids,
        );
        assert_eq!(want, envelope);

        let digest = emitted(rejoiner.start_anti_entropy(0, PeerId(1)));
        let resent = emitted(holder.ingest(0, PeerId(2), &digest[0]));
        assert_eq!(resent, vec![want]);
    }

    /// An install whose centroids hold a NaN, or whose accuracy is no
    /// fraction, fails validation like a bad checksum: whether it would
    /// update a held source or add a new one, the core keeps what it held.
    #[test]
    fn installs_with_non_finite_centroids_or_an_out_of_range_accuracy_are_refused() {
        use ml::codec::{CodecError, WeightPrecision};
        let peers: Vec<PeerId> = (0..3).map(PeerId).collect();
        let config = PaceConfig::default();
        let mut source = PaceCore::new(PeerId(0), peers.clone(), config.clone());
        let mut holder = PaceCore::new(PeerId(1), peers, config);
        let sent = emitted(source.train(0, &peer_data(1.0)));
        holder.ingest(0, PeerId(0), &sent[0]);
        let held = holder.installed_versions();
        assert_eq!(held, vec![(0, 1)]);

        let (_, update) = decode_pace_install(&sent[0]).unwrap();
        let model = wire::encode_pace_model(&update.model, update.accuracy, WeightPrecision::F64);
        let centroids = wire::encode_centroids(&update.centroids);
        let huge_accuracy = wire::forge_f64(&model, update.accuracy, 1e9);
        let value = update.centroids[0].values()[0];
        let nan_centroid = wire::forge_f64(&centroids, value, f64::NAN);
        let invalid = |what| Some(wire::WireError::Codec(CodecError::Invalid(what)));
        let reason = wire::decode_pace_model(&huge_accuracy).err();
        assert_eq!(reason, invalid("PACE accuracy outside [0, 1]"));
        let reason = wire::decode_centroids(&nan_centroid).err();
        assert_eq!(reason, invalid("non-finite value"));

        let deliver = |holder: &mut PaceCore, src: u64, parts: [&[u8]; 2]| {
            holder.ingest(0, PeerId(src), &wire::encode_install(src, 2, &parts))
        };
        for parts in [[&huge_accuracy, &centroids], [&model, &nan_centroid]] {
            for src in [0, 2] {
                deliver(&mut holder, src, parts.map(Vec::as_slice));
                assert_eq!(holder.installed_versions(), held);
            }
        }
        // The same envelope, unforged, installs.
        deliver(&mut holder, 0, [&model, &centroids]);
        assert_eq!(holder.installed_versions(), vec![(0, 2)]);
    }
}
