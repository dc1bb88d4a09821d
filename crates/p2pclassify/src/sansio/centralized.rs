//! The centralized baseline as a per-peer sans-io core.
//!
//! Clients upload their **entire** local collection as a versioned install
//! envelope (idempotent: a re-delivered or reordered upload replaces, never
//! appends); the server pools the newest version per source and lazily
//! cold-retrains at query time over the pool in source order. Both choices
//! make the server's model a pure function of the *set* of received uploads
//! — the property the sim-vs-socket equivalence axis relies on.

use super::reliable::ReliableCore;
use super::{LocalEffect, Millis, Output, ProtocolCore};
use crate::centralized::{CentralizedConfig, SERVER};
use crate::local::fit_linear;
use crate::reliable::LinkStats;
use crate::wire::{self, PayloadKind};
use ml::batch::TagWeightMatrix;
use ml::multilabel::TagPrediction;
use ml::MultiLabelDataset;
use p2psim::message::MessageKind;
use p2psim::PeerId;
use std::collections::BTreeMap;
use textproc::SparseVector;

/// A single centralized-baseline peer (client, or the server itself) as a
/// pure state machine.
#[derive(Debug, Clone)]
pub struct CentralizedCore {
    id: PeerId,
    local_data: MultiLabelDataset,
    /// This peer's upload version (bumped per retrain).
    my_version: u64,
    /// Server role: the newest upload per source.
    uploads: BTreeMap<u64, (u64, MultiLabelDataset)>,
    /// Server role: the pooled global model (lazily retrained), packed for
    /// scoring.
    matrix: Option<TagWeightMatrix>,
    /// Uploads changed since the last retrain.
    dirty: bool,
    link: ReliableCore,
    next_request: u64,
}

impl CentralizedCore {
    /// A fresh core for `id`. The server is peer 0.
    pub fn new(id: PeerId, config: CentralizedConfig) -> Self {
        let link = ReliableCore::new(config.reliability);
        Self {
            id,
            local_data: MultiLabelDataset::new(),
            my_version: 0,
            uploads: BTreeMap::new(),
            matrix: None,
            dirty: false,
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

    /// Installed `(source, version)` pairs: the server's pooled uploads,
    /// plus this peer's own contribution.
    pub fn installed_versions(&self) -> Vec<(u64, u64)> {
        let mut held: BTreeMap<u64, u64> =
            self.uploads.iter().map(|(&s, &(v, _))| (s, v)).collect();
        if self.my_version > 0 {
            held.entry(self.id.0).or_insert(self.my_version);
        }
        held.into_iter().collect()
    }

    fn is_server(&self) -> bool {
        self.id == SERVER
    }

    /// Appends `data` and uploads the full local collection to the server at
    /// the next version.
    pub fn train(&mut self, now: Millis, data: &MultiLabelDataset) -> Vec<Output> {
        let mut out = Vec::new();
        self.local_data.extend_from(data);
        if self.local_data.is_empty() {
            return out;
        }
        self.my_version += 1;
        let dataset_frame = wire::encode_dataset(&self.local_data);
        let envelope = wire::encode_install(self.id.0, self.my_version, &[&dataset_frame]);
        if self.is_server() {
            // The server pools its own collection through the same decode
            // path a remote upload takes.
            if let Some(effect) = self.decode_install(&envelope) {
                out.push(effect);
            }
        } else {
            self.link
                .send(now, SERVER, MessageKind::TrainingData, envelope, &mut out);
        }
        out
    }

    /// Decodes and (maybe) pools an upload envelope (server role).
    fn decode_install(&mut self, frame: &[u8]) -> Option<Output> {
        let (source, version, parts) = wire::decode_install(frame).ok()?;
        let &[dataset_frame] = parts.as_slice() else {
            return None;
        };
        let data = wire::decode_dataset(dataset_frame).ok()?;
        match self.uploads.get(&source) {
            Some(&(held, _)) if held >= version => None,
            _ => {
                self.uploads.insert(source, (version, data));
                self.dirty = true;
                Some(Output::Effect(LocalEffect::Installed { source, version }))
            }
        }
    }

    /// Cold-retrains the pooled model if the pool changed. Pooling iterates
    /// sources in id order and the retrain is cold, so the model is a pure
    /// function of the upload set (arrival order is irrelevant).
    fn ensure_retrained(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let mut pooled = MultiLabelDataset::new();
        for (_, (_, data)) in self.uploads.iter() {
            pooled.extend_from(data);
        }
        if pooled.is_empty() {
            self.matrix = None;
            return;
        }
        let model = fit_linear(&pooled, None);
        self.matrix = (model.num_tags() > 0).then(|| model.weight_matrix());
    }

    /// Scores a query against the pooled model (server role).
    fn server_scores(&mut self, x: &SparseVector) -> Vec<TagPrediction> {
        self.ensure_retrained();
        match &self.matrix {
            Some(matrix) => matrix.scores(x),
            None => Vec::new(),
        }
    }

    /// Starts a prediction: answered inline at the server, a query
    /// round-trip from a client.
    pub fn predict(&mut self, now: Millis, x: &SparseVector) -> (u64, Vec<Output>) {
        let request = self.next_request;
        self.next_request += 1;
        let mut out = Vec::new();
        if self.is_server() {
            // Through the same wire round-trip a client gets.
            let frame = wire::encode_query_request(request, x);
            let (_, x) = wire::decode_query_request(&frame).expect("self-encoded frame decodes");
            let scores = self.server_scores(&x);
            out.push(Output::Effect(LocalEffect::Prediction { request, scores }));
        } else {
            self.link.send(
                now,
                SERVER,
                MessageKind::PredictionQuery,
                wire::encode_query_request(request, x),
                &mut out,
            );
        }
        (request, out)
    }

    /// Sends this core's holdings digest to `partner`. A client that sees
    /// the server's digest lagging its own upload re-pushes it; a recovering
    /// server digests its (empty) pool to solicit exactly those re-pushes.
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

impl ProtocolCore for CentralizedCore {
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
            Some(PayloadKind::QueryRequest) => {
                if let Ok((request, x)) = wire::decode_query_request(inner) {
                    let scores = self.server_scores(&x);
                    self.link.send(
                        now,
                        from,
                        MessageKind::PredictionResponse,
                        wire::encode_query_response(request, 1, &scores),
                        &mut out,
                    );
                }
            }
            Some(PayloadKind::QueryResponse) => {
                if let Ok((request, _weight, scores)) = wire::decode_query_response(inner) {
                    out.push(Output::Effect(LocalEffect::Prediction { request, scores }));
                }
            }
            Some(PayloadKind::Digest) => {
                // Re-upload when the partner (the server) is behind on this
                // peer's contribution.
                if let Ok(entries) = wire::decode_digest(inner) {
                    let theirs: BTreeMap<u64, u64> = entries.into_iter().collect();
                    let behind = theirs.get(&self.id.0).copied().unwrap_or(0) < self.my_version;
                    if behind && !self.is_server() && !self.local_data.is_empty() {
                        let dataset_frame = wire::encode_dataset(&self.local_data);
                        let envelope =
                            wire::encode_install(self.id.0, self.my_version, &[&dataset_frame]);
                        self.link.note_resync();
                        self.link
                            .send(now, from, MessageKind::TrainingData, envelope, &mut out);
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
