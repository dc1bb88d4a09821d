//! Local-only baseline: no collaboration at all.
//!
//! Every peer learns exclusively from its own manually tagged documents. This
//! is the lower bound that motivates collaborative tagging in the first place:
//! a single user's "small number of tagged documents" is not enough to learn
//! accurate models, which is exactly why P2PDocTagger consolidates knowledge
//! across peers (§2).

use crate::error::ProtocolError;
use crate::protocol::{P2PTagClassifier, PeerDataMap, ScoringBackend, TrainingBackend};
use crate::wire::WireConfig;
use ml::batch::TagWeightMatrix;
use ml::multilabel::{OneVsAllModel, OneVsAllTrainer, TagPrediction};
use ml::svm::{LinearSvm, LinearSvmTrainer};
use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2psim::{P2PNetwork, PeerId};
use std::collections::BTreeSet;
use textproc::SparseVector;

/// Configuration of the local-only baseline.
#[derive(Debug, Clone, Default)]
pub struct LocalOnlyConfig {
    /// Trainer for the per-tag linear SVMs.
    pub svm: LinearSvmTrainer,
    /// One-vs-all reduction settings.
    pub one_vs_all: OneVsAllTrainer,
    /// Query-time scoring implementation.
    pub backend: ScoringBackend,
    /// Training-time implementation (CSR shared-storage vs the scalar
    /// reference; bit-identical models either way).
    pub train_backend: TrainingBackend,
    /// Wire accounting, kept for configuration uniformity with the other
    /// protocols (the equivalence suite sweeps the same axis everywhere).
    /// Local-only training and prediction never touch the network, so no
    /// payload is ever encoded and both settings behave identically.
    pub wire: WireConfig,
}

/// A peer's local model together with its packed scoring matrix.
///
/// Crate-visible: the monolithic [`LocalOnly`] instance and the per-peer
/// sans-io core ([`crate::sansio::LocalCore`]) hold the same pairing.
#[derive(Debug, Clone)]
pub(crate) struct LocalModel {
    pub(crate) model: OneVsAllModel<LinearSvm>,
    pub(crate) matrix: TagWeightMatrix,
}

impl LocalModel {
    pub(crate) fn build(model: OneVsAllModel<LinearSvm>) -> Self {
        let matrix = model.weight_matrix();
        Self { model, matrix }
    }
}

/// Trains one peer's local-only model, warm-starting from a previous model
/// when given — the protocol body shared by the monolithic [`LocalOnly`]
/// instance and the per-peer sans-io [`crate::sansio::LocalCore`]. One
/// peer's fit is the unit of parallelism ([`parallel::inline`]): a lone
/// refit never forks, batches of peers fan out in [`LocalOnly::train`] /
/// [`LocalOnly::train_incremental`].
pub(crate) fn train_local_only(
    config: &LocalOnlyConfig,
    data: &MultiLabelDataset,
    warm: Option<&OneVsAllModel<LinearSvm>>,
) -> Option<LocalModel> {
    if data.is_empty() {
        return None;
    }
    let m = parallel::inline(|| match (config.train_backend, warm) {
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
    });
    (m.num_tags() > 0).then(|| LocalModel::build(m))
}

/// The local-only baseline instance.
#[derive(Debug, Clone)]
pub struct LocalOnly {
    config: LocalOnlyConfig,
    models: Vec<Option<LocalModel>>,
    local_data: Vec<MultiLabelDataset>,
    trained: bool,
}

impl LocalOnly {
    /// Creates an untrained local-only baseline.
    pub fn new(config: LocalOnlyConfig) -> Self {
        Self {
            config,
            models: Vec::new(),
            local_data: Vec::new(),
            trained: false,
        }
    }

    /// Number of peers that managed to train a usable local model.
    pub fn peers_with_models(&self) -> usize {
        self.models.iter().flatten().count()
    }

    /// Trains one peer's local model from a dataset (pure, so the per-peer
    /// training loop can fan out across cores).
    fn trained_model(&self, data: &MultiLabelDataset) -> Option<LocalModel> {
        self.trained_model_warm(data, None)
    }

    /// Trains one peer's local model, warm-starting the per-tag SVMs from a
    /// previous model when given (the incremental path).
    fn trained_model_warm(
        &self,
        data: &MultiLabelDataset,
        warm: Option<&LocalModel>,
    ) -> Option<LocalModel> {
        train_local_only(&self.config, data, warm.map(|w| &w.model))
    }

    fn train_peer(&mut self, peer: PeerId) {
        let idx = peer.index();
        let refit = self.trained_model_warm(&self.local_data[idx], self.models[idx].as_ref());
        self.models[idx] = refit;
    }

    fn model_for(&self, peer: PeerId) -> Result<&LocalModel, ProtocolError> {
        self.models
            .get(peer.index())
            .and_then(|m| m.as_ref())
            .ok_or(ProtocolError::NoModelReachable)
    }
}

impl P2PTagClassifier for LocalOnly {
    fn name(&self) -> &'static str {
        "local-only"
    }

    fn train(
        &mut self,
        net: &mut P2PNetwork,
        peer_data: &PeerDataMap,
    ) -> Result<(), ProtocolError> {
        self.local_data = peer_data.clone();
        self.local_data
            .resize(net.num_peers(), MultiLabelDataset::new());
        // Per-peer training is independent; the ordered parallel map yields
        // the same model list as the sequential per-peer loop.
        self.models = parallel::par_map(&self.local_data, |data| self.trained_model(data));
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
        let local = self.model_for(peer)?;
        Ok(match self.config.backend {
            ScoringBackend::Scalar => local.model.scores(x),
            ScoringBackend::Batched => local.matrix.scores(x),
        })
    }

    fn predict(
        &self,
        net: &mut P2PNetwork,
        peer: PeerId,
        x: &SparseVector,
    ) -> Result<BTreeSet<TagId>, ProtocolError> {
        if !self.trained {
            return Err(ProtocolError::NotTrained);
        }
        if !net.is_online(peer) {
            return Err(ProtocolError::PeerOffline);
        }
        let local = self.model_for(peer)?;
        Ok(match self.config.backend {
            ScoringBackend::Scalar => local.model.predict(x),
            ScoringBackend::Batched => local.matrix.predict(x),
        })
    }

    fn predict_batch(
        &self,
        net: &mut P2PNetwork,
        requests: &[(PeerId, &SparseVector)],
    ) -> Vec<Result<BTreeSet<TagId>, ProtocolError>> {
        // Local-only prediction never communicates, so batches parallelize
        // across documents like PACE's.
        let net_ref: &P2PNetwork = net;
        parallel::par_map(requests, |&(peer, x)| {
            if !self.trained {
                return Err(ProtocolError::NotTrained);
            }
            if !net_ref.is_online(peer) {
                return Err(ProtocolError::PeerOffline);
            }
            let local = self.model_for(peer)?;
            Ok(match self.config.backend {
                ScoringBackend::Scalar => local.model.predict(x),
                ScoringBackend::Batched => local.matrix.predict(x),
            })
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
            self.models.resize(net.num_peers(), None);
        }
        let mut touched = Vec::new();
        for (i, data) in new_data.iter().enumerate() {
            if data.is_empty() {
                continue;
            }
            if i >= self.local_data.len() {
                self.local_data.resize(i + 1, MultiLabelDataset::new());
                self.models.resize(i + 1, None);
            }
            self.local_data[i].extend_from(data);
            touched.push(i);
        }
        // Training is purely local (no communication), so — like train() —
        // it is not gated on overlay membership; warm refits of the touched
        // peers fan out across cores.
        let refits = parallel::par_map(&touched, |&idx| {
            self.trained_model_warm(&self.local_data[idx], self.models[idx].as_ref())
        });
        for (idx, model) in touched.into_iter().zip(refits) {
            self.models[idx] = model;
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
            self.models.resize(idx + 1, None);
        }
        self.local_data[idx].push(example.clone());
        self.train_peer(peer);
        Ok(())
    }

    fn on_crash_restart(&mut self, _net: &mut P2PNetwork, peer: PeerId) {
        // A crash wipes the in-memory model; the manually tagged documents
        // are on disk, so the peer refits from its own local data — the one
        // recovery that needs no network at all.
        let idx = peer.index();
        if self.trained && idx < self.local_data.len() {
            self.models[idx] = self.trained_model(&self.local_data[idx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2psim::SimConfig;

    fn two_tag_example(feature: u32, tag: TagId, v: f64) -> MultiLabelExample {
        MultiLabelExample::new(SparseVector::from_pairs([(feature, v)]), [tag])
    }

    #[test]
    fn peers_only_know_their_own_tags() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(2));
        // Peer 0 only ever saw tag 1; peer 1 only tag 2.
        let data = vec![
            MultiLabelDataset::from_examples(vec![
                two_tag_example(0, 1, 1.0),
                two_tag_example(0, 1, 1.2),
                two_tag_example(1, 5, 1.0),
                two_tag_example(1, 5, 0.9),
            ]),
            MultiLabelDataset::from_examples(vec![
                two_tag_example(2, 2, 1.0),
                two_tag_example(2, 2, 1.1),
                two_tag_example(3, 6, 1.0),
                two_tag_example(3, 6, 0.8),
            ]),
        ];
        let mut local = LocalOnly::new(LocalOnlyConfig::default());
        local.train(&mut net, &data).unwrap();
        assert_eq!(local.peers_with_models(), 2);
        // Peer 0 cannot ever produce tag 2, no matter the document.
        let scores = local
            .scores(&mut net, PeerId(0), &SparseVector::from_pairs([(2, 1.0)]))
            .unwrap();
        assert!(scores.iter().all(|p| p.tag != 2));
        // Peer 1 can.
        let scores = local
            .scores(&mut net, PeerId(1), &SparseVector::from_pairs([(2, 1.0)]))
            .unwrap();
        assert!(scores.iter().any(|p| p.tag == 2));
    }

    #[test]
    fn no_communication_at_all() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(4));
        let data = vec![
            MultiLabelDataset::from_examples(vec![two_tag_example(0, 1, 1.0); 4]),
            MultiLabelDataset::from_examples(vec![two_tag_example(1, 2, 1.0); 4]),
            MultiLabelDataset::new(),
            MultiLabelDataset::new(),
        ];
        let mut local = LocalOnly::new(LocalOnlyConfig::default());
        local.train(&mut net, &data).unwrap();
        local
            .predict(&mut net, PeerId(0), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert_eq!(net.stats().total_messages(), 0);
        assert_eq!(net.stats().total_bytes(), 0);
    }

    #[test]
    fn peer_without_data_cannot_predict() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(2));
        let data = vec![
            MultiLabelDataset::from_examples(vec![two_tag_example(0, 1, 1.0); 4]),
            MultiLabelDataset::new(),
        ];
        let mut local = LocalOnly::new(LocalOnlyConfig::default());
        local.train(&mut net, &data).unwrap();
        assert_eq!(
            local
                .predict(&mut net, PeerId(1), &SparseVector::from_pairs([(0, 1.0)]))
                .unwrap_err(),
            ProtocolError::NoModelReachable
        );
    }

    #[test]
    fn incremental_training_updates_only_touched_peers() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(3));
        let data = vec![
            MultiLabelDataset::from_examples(vec![two_tag_example(0, 1, 1.0); 4]),
            MultiLabelDataset::from_examples(vec![two_tag_example(1, 2, 1.0); 4]),
            MultiLabelDataset::new(),
        ];
        let mut local = LocalOnly::new(LocalOnlyConfig::default());
        assert_eq!(
            local.train_incremental(&mut net, &data).unwrap_err(),
            ProtocolError::NotTrained
        );
        local.train(&mut net, &data).unwrap();
        // Peer 2 (previously model-less) and peer 0 (warm refit) get new data.
        let mut new_data = vec![MultiLabelDataset::new(); 3];
        for i in 0..4 {
            new_data[0].push(two_tag_example(5, 9, 1.0 + 0.1 * i as f64));
            new_data[2].push(two_tag_example(6, 4, 1.0 + 0.1 * i as f64));
        }
        local.train_incremental(&mut net, &new_data).unwrap();
        assert_eq!(local.peers_with_models(), 3);
        assert_eq!(net.stats().total_messages(), 0, "still no communication");
        let p0 = local
            .predict(&mut net, PeerId(0), &SparseVector::from_pairs([(5, 1.0)]))
            .unwrap();
        assert!(p0.contains(&9));
        // Old knowledge survives the warm refit.
        let p0_old = local
            .predict(&mut net, PeerId(0), &SparseVector::from_pairs([(0, 1.0)]))
            .unwrap();
        assert!(p0_old.contains(&1));
        let p2 = local
            .predict(&mut net, PeerId(2), &SparseVector::from_pairs([(6, 1.0)]))
            .unwrap();
        assert!(p2.contains(&4));
        // Peer 1 was untouched: identical model as right after train().
        let p1 = local
            .predict(&mut net, PeerId(1), &SparseVector::from_pairs([(1, 1.0)]))
            .unwrap();
        assert!(p1.contains(&2));
    }

    #[test]
    fn refinement_gives_a_dataless_peer_a_model() {
        let mut net = P2PNetwork::new(SimConfig::with_peers(2));
        let data = vec![
            MultiLabelDataset::from_examples(vec![two_tag_example(0, 1, 1.0); 4]),
            MultiLabelDataset::new(),
        ];
        let mut local = LocalOnly::new(LocalOnlyConfig::default());
        local.train(&mut net, &data).unwrap();
        for i in 0..4 {
            local
                .refine(
                    &mut net,
                    PeerId(1),
                    &two_tag_example(4, 8, 1.0 + i as f64 * 0.1),
                )
                .unwrap();
        }
        let pred = local
            .predict(&mut net, PeerId(1), &SparseVector::from_pairs([(4, 1.0)]))
            .unwrap();
        assert!(pred.contains(&8));
    }
}
