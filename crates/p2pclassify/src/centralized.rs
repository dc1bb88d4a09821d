//! Centralized baseline: ship everything to one server.
//!
//! This is the setting the paper argues *against*: "centralized solutions …
//! scalability can become an issue … system failures can result in catastrophic
//! outcomes … centralization of personal data increases the chances of privacy
//! leaks" (§1). Every peer uploads its raw training vectors to a single server
//! peer, which trains one global model; every prediction is a round trip to the
//! server. Accuracy-wise this is the upper bound the P2P protocols are compared
//! against; communication- and availability-wise it is the worst case.

use crate::error::ProtocolError;
use crate::local::fit_linear;
use crate::protocol::{P2PTagClassifier, PeerDataMap};
use crate::reliable::{LinkStats, ReliableLink};
use crate::wire::{self, ReliabilityConfig};
use ml::batch::TagWeightMatrix;
use ml::multilabel::{OneVsAllModel, TagPrediction};
use ml::svm::LinearSvm;
use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2psim::message::MessageKind;
use p2psim::{P2PNetwork, PeerId};
use std::collections::BTreeSet;
use textproc::SparseVector;

/// The peer acting as the central server.
pub(crate) const SERVER: PeerId = PeerId(0);
/// Decision threshold for assigning a tag.
const VOTE_THRESHOLD: f64 = 0.0;
/// Minimum number of tags assigned when nothing reaches the threshold.
const MIN_TAGS: usize = 1;

/// Configuration of the centralized baseline.
#[derive(Debug, Clone, Default)]
pub struct CentralizedConfig {
    /// When set, uploads and refinements run through the reliable-delivery
    /// layer ([`crate::reliable::ReliableLink`]): sequence-numbered
    /// checksummed frames, ack/timeout retransmission with exponential
    /// backoff, every attempt charged in wire bytes. `None` (the default)
    /// sends each frame once, with no wrapper bytes and no acks.
    pub reliability: Option<ReliabilityConfig>,
}

/// The centralized baseline instance.
#[derive(Debug, Clone)]
pub struct Centralized {
    config: CentralizedConfig,
    model: Option<OneVsAllModel<LinearSvm>>,
    /// CSR-packed form of `model`, which scores the whole tag universe in
    /// one pass per document; rebuilt alongside the model on every retrain.
    matrix: Option<TagWeightMatrix>,
    pooled: MultiLabelDataset,
    /// Per-peer examples that could not reach the server yet (sender or
    /// server offline): retried on the next incremental round.
    pending: Vec<MultiLabelDataset>,
    /// Each peer's durable record of what it successfully uploaded — the
    /// recovery source when the server crash-restarts and loses its pool.
    uploaded: Vec<MultiLabelDataset>,
    /// The send path: passthrough by default, ack/retransmit when
    /// [`CentralizedConfig::reliability`] is set. Also the ledger of every send
    /// outcome (losses, retransmits, re-syncs).
    link: ReliableLink,
    trained: bool,
}

impl Centralized {
    /// Creates an untrained centralized baseline.
    pub fn new(config: CentralizedConfig) -> Self {
        let link = ReliableLink::new(config.reliability);
        Self {
            config,
            model: None,
            matrix: None,
            pooled: MultiLabelDataset::new(),
            pending: Vec::new(),
            uploaded: Vec::new(),
            link,
            trained: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CentralizedConfig {
        &self.config
    }

    /// Number of training examples pooled at the server.
    #[cfg(test)]
    pub fn pooled_examples(&self) -> usize {
        self.pooled.len()
    }

    fn retrain(&mut self) {
        if self.pooled.is_empty() {
            self.model = None;
            self.matrix = None;
            return;
        }
        // The pooled server-side dataset is the largest one-vs-all problem
        // in the system, so this is where the shared CSR arena pays the most.
        let model = fit_linear(&self.pooled, None);
        self.model = (model.num_tags() > 0).then_some(model);
        self.matrix = self.model.as_ref().map(OneVsAllModel::weight_matrix);
    }

    /// Ships `data` from `from` to the server over the reliable link and
    /// returns the dataset the server actually pools — the copy decoded off
    /// the wire, so the TrainingData rows
    /// of the E3 table stay measured rather than estimated. `None` means the
    /// upload never landed (server unreachable, frame lost, or the frame was
    /// damaged in transit and rejected by strict decode).
    fn upload(
        &mut self,
        net: &mut P2PNetwork,
        from: PeerId,
        kind: MessageKind,
        data: &MultiLabelDataset,
    ) -> Option<MultiLabelDataset> {
        let frame = wire::encode_dataset(data);
        // A corrupted frame that fails strict decode never reaches the pool:
        // the upload counts as lost and is retried later.
        let delivered = self
            .link
            .send_frame(net, from, SERVER, kind, &frame, |b| {
                wire::decode_dataset(b).is_ok()
            })
            .ok()?;
        wire::decode_dataset(&delivered).ok()
    }

    /// Warm-start variant of [`Self::retrain`]: the global model is refit
    /// from its stored per-tag weights with a few SGD passes over the grown
    /// pool instead of a cold dual solve (falls back to a cold train when no
    /// model exists yet).
    fn retrain_warm(&mut self) {
        if self.pooled.is_empty() || self.model.is_none() {
            // No pool to refit on (keep whatever model exists) or no model
            // to warm-start from (cold train handles both cases).
            if !self.pooled.is_empty() {
                self.retrain();
            }
            return;
        }
        let prev = self.model.take().expect("checked above");
        let model = fit_linear(&self.pooled, Some(&prev));
        self.model = (model.num_tags() > 0).then_some(model);
        self.matrix = self.model.as_ref().map(OneVsAllModel::weight_matrix);
    }
}

impl P2PTagClassifier for Centralized {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn train(
        &mut self,
        net: &mut P2PNetwork,
        peer_data: &PeerDataMap,
    ) -> Result<(), ProtocolError> {
        self.pooled = MultiLabelDataset::new();
        let n = net.num_peers().max(peer_data.len());
        self.pending = vec![MultiLabelDataset::new(); n];
        self.uploaded = vec![MultiLabelDataset::new(); n];
        for (i, data) in peer_data.iter().enumerate() {
            let peer = PeerId::from(i);
            if data.is_empty() {
                continue;
            }
            if peer == SERVER {
                // Pooled locally — still recorded in the ledger so a server
                // crash-restart can recover its own share without a send.
                self.uploaded[i].extend_from(data);
                self.pooled.extend_from(data);
                continue;
            }
            if !net.is_online(peer) {
                // The peer uploads once it is back online (next incremental
                // round).
                self.pending[i].extend_from(data);
                continue;
            }
            // The raw document vectors travel to the server.
            match self.upload(net, peer, MessageKind::TrainingData, data) {
                Some(landed) => {
                    self.uploaded[i].extend_from(&landed);
                    self.pooled.extend_from(&landed);
                }
                None => {
                    // Server unreachable or frame lost: the upload is
                    // retried on the next incremental round.
                    self.pending[i].extend_from(data);
                }
            }
        }
        self.retrain();
        self.trained = true;
        Ok(())
    }

    fn scores(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<Vec<TagPrediction>, ProtocolError> {
        if !self.trained {
            return Err(ProtocolError::NotTrained);
        }
        if !net.is_online(peer) {
            return Err(ProtocolError::PeerOffline);
        }
        let Some(matrix) = &self.matrix else {
            return Err(ProtocolError::NoModelReachable);
        };
        if peer == SERVER {
            // Local query at the server: no communication, no codec.
            return Ok(matrix.scores(x));
        }
        // Round trip to the server; if it is down, the whole system is down
        // (the single point of failure the paper warns about). The server
        // scores the query *decoded from the frame* and the requester uses
        // the scores decoded from the response.
        let query = wire::encode_query(x);
        let x_eval = wire::decode_query(&query).expect("self-encoded query frame decodes");
        net.send(peer, SERVER, MessageKind::PredictionQuery, query.len())
            .map_err(|_| ProtocolError::NoModelReachable)?;
        let response = wire::encode_scores(&matrix.scores(&x_eval));
        let scores = wire::decode_scores(&response).expect("self-encoded score frame decodes");
        let response_size = response.len();
        // The response frame can be lost under an active fault plan, in which
        // case the requester really has no scores (query-path sends run under
        // `&self` and cannot route through the reliable link; the loss shows
        // up in the network fault counters instead). Fault-free runs never
        // take the error arm: the requester was checked online above and no
        // simulated time passes mid-query.
        net.send(SERVER, peer, MessageKind::PredictionResponse, response_size)
            .map_err(|_| ProtocolError::NoModelReachable)?;
        Ok(scores)
    }

    fn predict(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<BTreeSet<TagId>, ProtocolError> {
        let scores = self.scores(net, peer, x)?;
        Ok(crate::protocol::select_tags(
            &scores,
            VOTE_THRESHOLD,
            MIN_TAGS,
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
        if self.pending.len() < new_data.len().max(net.num_peers()) {
            self.pending.resize(
                new_data.len().max(net.num_peers()),
                MultiLabelDataset::new(),
            );
        }
        if self.uploaded.len() < self.pending.len() {
            self.uploaded
                .resize(self.pending.len(), MultiLabelDataset::new());
        }
        for (i, data) in new_data.iter().enumerate() {
            if !data.is_empty() {
                self.pending[i].extend_from(data);
            }
        }
        let mut changed = false;
        for i in 0..self.pending.len() {
            if self.pending[i].is_empty() {
                continue;
            }
            let peer = PeerId::from(i);
            let landed = if peer == SERVER {
                std::mem::take(&mut self.pending[i])
            } else {
                if !net.is_online(peer) {
                    continue;
                }
                // Only the outstanding document vectors travel, not the whole
                // collection; failures stay queued for the next round.
                let batch = std::mem::take(&mut self.pending[i]);
                match self.upload(net, peer, MessageKind::TrainingData, &batch) {
                    // The server pools what it decoded off the wire.
                    Some(landed) => landed,
                    None => {
                        self.pending[i] = batch;
                        continue;
                    }
                }
            };
            self.uploaded[i].extend_from(&landed);
            self.pooled.extend_from(&landed);
            changed = true;
        }
        if changed {
            self.retrain_warm();
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
        let mut received = example.clone();
        if peer != SERVER {
            let frame = wire::encode_example(example);
            // Strict decode: a frame damaged in transit is a lost
            // refinement, never a garbage example in the pool.
            let delivered = self
                .link
                .send_frame(
                    net,
                    peer,
                    SERVER,
                    MessageKind::RefinementUpdate,
                    &frame,
                    |b| wire::decode_example(b).is_ok(),
                )
                .map_err(|_| ProtocolError::NoModelReachable)?;
            received =
                wire::decode_example(&delivered).map_err(|_| ProtocolError::NoModelReachable)?;
        }
        let idx = peer.index();
        if self.uploaded.len() <= idx {
            self.uploaded.resize(idx + 1, MultiLabelDataset::new());
        }
        self.uploaded[idx].push(received.clone());
        self.pooled.push(received);
        self.retrain_warm();
        Ok(())
    }

    fn on_crash_restart(&mut self, _net: &mut P2PNetwork, peer: PeerId) {
        // Only the server holds protocol state: a crash wipes the pooled
        // dataset and the global model (the catastrophic single point of
        // failure the paper warns about in §1). Contributors keep their
        // durable `uploaded` ledgers, which is what `resync` rebuilds from.
        if peer == SERVER {
            self.pooled = MultiLabelDataset::new();
            self.model = None;
            self.matrix = None;
        }
    }

    fn resync(&mut self, net: &mut P2PNetwork, peer: PeerId) -> usize {
        if !self.trained || peer != SERVER || !self.pooled.is_empty() || !net.is_online(SERVER) {
            return 0;
        }
        // Anti-entropy after a server crash-restart: every contributor
        // re-ships its previously acknowledged share from the durable
        // ledger. Contributors that are offline (or whose re-upload is lost
        // again) fall back to the pending queue and retry on the next
        // incremental round.
        let mut repaired = 0;
        for i in 0..self.uploaded.len() {
            if self.uploaded[i].is_empty() {
                continue;
            }
            let contributor = PeerId::from(i);
            let landed = if contributor == SERVER {
                // The server's own share never left the machine.
                Some(self.uploaded[i].clone())
            } else if net.is_online(contributor) {
                let batch = self.uploaded[i].clone();
                self.upload(net, contributor, MessageKind::AntiEntropy, &batch)
            } else {
                None
            };
            match landed {
                Some(batch) => {
                    self.pooled.extend_from(&batch);
                    if contributor != SERVER {
                        self.link.note_resync();
                        net.note_resync();
                    }
                    repaired += 1;
                }
                None => {
                    let batch = std::mem::take(&mut self.uploaded[i]);
                    if self.pending.len() <= i {
                        self.pending.resize(i + 1, MultiLabelDataset::new());
                    }
                    self.pending[i].extend_from(&batch);
                }
            }
        }
        if repaired > 0 {
            self.retrain();
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
    use p2psim::churn::ChurnModel;
    use p2psim::SimConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_peer_data(num_peers: usize, per_peer: usize, seed: u64) -> PeerDataMap {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_peers)
            .map(|_| {
                let mut ds = MultiLabelDataset::new();
                for _ in 0..per_peer {
                    let a = 0.8 + rng.gen_range(0.0..0.4);
                    if rng.gen_bool(0.5) {
                        ds.push(MultiLabelExample::new(
                            SparseVector::from_pairs([(0, a)]),
                            [1],
                        ));
                    } else {
                        ds.push(MultiLabelExample::new(
                            SparseVector::from_pairs([(1, a)]),
                            [2],
                        ));
                    }
                }
                ds
            })
            .collect()
    }

    #[test]
    fn pools_all_data_and_predicts() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(8));
        let data = toy_peer_data(8, 10, 1);
        let mut c = Centralized::new(CentralizedConfig::default());
        c.train(&mut net, &data).unwrap();
        assert_eq!(c.pooled_examples(), 80);
        let pred = c
            .predict(&mut net, PeerId(3), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert!(pred.contains(&1));
    }

    #[test]
    fn training_ships_raw_data_to_the_server() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(8));
        let data = toy_peer_data(8, 10, 2);
        // Every upload is charged at its real encoded frame length.
        let expected_bytes: usize = data
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 0)
            .map(|(_, d)| wire::encode_dataset(d).len())
            .sum();
        let mut c = Centralized::new(CentralizedConfig::default());
        c.train(&mut net, &data).unwrap();
        let stats = net.stats();
        assert_eq!(
            stats.kind(MessageKind::TrainingData).bytes as usize,
            expected_bytes
        );
        // The server is the hot spot: it receives everything.
        assert_eq!(stats.bytes_received_by(PeerId(0)) as usize, expected_bytes);
    }

    #[test]
    fn predictions_cost_a_round_trip_except_at_the_server() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(4));
        let data = toy_peer_data(4, 10, 3);
        let mut c = Centralized::new(CentralizedConfig::default());
        c.train(&mut net, &data).unwrap();
        let before = net.stats().kind(MessageKind::PredictionQuery).messages;
        c.predict(&mut net, PeerId(2), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert_eq!(
            net.stats().kind(MessageKind::PredictionQuery).messages,
            before + 1
        );
        c.predict(&mut net, PeerId(0), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert_eq!(
            net.stats().kind(MessageKind::PredictionQuery).messages,
            before + 1
        );
    }

    #[test]
    fn server_failure_is_catastrophic() {
        // Heavy churn: when the server is offline, every remote prediction fails.
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 16,
            churn: ChurnModel::Exponential {
                mean_session_secs: 10.0,
                mean_offline_secs: 1_000.0,
            },
            horizon_secs: 100_000,
            seed: 5,
            ..Default::default()
        });
        let data = toy_peer_data(16, 5, 4);
        let mut c = Centralized::new(CentralizedConfig::default());
        c.train(&mut net, &data).unwrap();
        net.advance(p2psim::SimTime::from_secs(50_000));
        assert!(
            !net.is_online(PeerId(0)),
            "server should be offline under this churn"
        );
        if let Some(alive) = net.online_peers().find(|&p| p != PeerId(0)) {
            let r = c.predict(&mut net, alive, &SparseVector::from_pairs([(0, 1.0)]));
            assert_eq!(r.unwrap_err(), ProtocolError::NoModelReachable);
        }
    }

    #[test]
    fn refinement_updates_the_global_model() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(4));
        let data = toy_peer_data(4, 10, 6);
        let mut c = Centralized::new(CentralizedConfig::default());
        c.train(&mut net, &data).unwrap();
        let probe = SparseVector::from_pairs([(9, 2.0)]);
        for i in 0..6 {
            c.refine(
                &mut net,
                PeerId(1),
                &MultiLabelExample::new(SparseVector::from_pairs([(9, 1.0 + i as f64 * 0.1)]), [7]),
            )
            .unwrap();
        }
        let scores = c.scores(&mut net, PeerId(1), &probe).unwrap();
        assert!(scores.iter().any(|p| p.tag == 7));
    }

    #[test]
    fn incremental_training_ships_only_the_new_examples() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(4));
        let data = toy_peer_data(4, 10, 7);
        let mut c = Centralized::new(CentralizedConfig::default());
        assert_eq!(
            c.train_incremental(&mut net, &data).unwrap_err(),
            ProtocolError::NotTrained
        );
        c.train(&mut net, &data).unwrap();
        let bytes_before = net.stats().kind(MessageKind::TrainingData).bytes;
        let mut new_data = vec![MultiLabelDataset::new(); 4];
        for i in 0..6 {
            new_data[2].push(MultiLabelExample::new(
                SparseVector::from_pairs([(8, 1.0 + 0.1 * i as f64)]),
                [5],
            ));
        }
        let expected = wire::encode_dataset(&new_data[2]).len() as u64;
        c.train_incremental(&mut net, &new_data).unwrap();
        assert_eq!(
            net.stats().kind(MessageKind::TrainingData).bytes - bytes_before,
            expected,
            "only the delta travels to the server"
        );
        assert_eq!(c.pooled_examples(), 46);
        let pred = c
            .predict(&mut net, PeerId(1), &SparseVector::from_pairs([(8, 1.2)]))
            .unwrap();
        assert!(pred.contains(&5));
        // Old knowledge survives the warm refit.
        let old = c
            .predict(&mut net, PeerId(1), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert!(old.contains(&1));
    }

    #[test]
    fn untrained_errors() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(2));
        let c = Centralized::new(CentralizedConfig::default());
        assert_eq!(
            c.scores(&mut net, PeerId(1), &SparseVector::new())
                .unwrap_err(),
            ProtocolError::NotTrained
        );
    }
}
