//! The deterministic simulator driver for the sans-io cores.
//!
//! [`SimDriver`] executes [`Output`]s against an in-memory, lossless FIFO
//! message queue and a virtual-time timer wheel — the simulator half of the
//! sim-vs-socket equivalence axis. Delivery is reliable and ordered (like
//! TCP), time only advances when the queue is drained, and everything is
//! plain deterministic Rust: running the same scenario twice produces the
//! same installs, the same effects, the same bytes.
//!
//! The driver is deliberately *adversarial in schedule*: `run_until_quiescent`
//! drains deliveries in strict FIFO order, but tests can also deliver
//! manually in any order — the cores' idempotent, version-monotonic installs
//! make the final state identical either way (pinned by the proptests in
//! `tests/sansio_props.rs`).

use super::{LocalEffect, Millis, Output, PeerCore, ProtocolCore};
use ml::MultiLabelDataset;
use p2psim::message::MessageKind;
use p2psim::PeerId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use textproc::SparseVector;

/// One frame in flight.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Advisory traffic class.
    pub kind: MessageKind,
    /// The encoded frame.
    pub frame: Vec<u8>,
}

/// Drives a fleet of [`PeerCore`]s over a lossless in-memory network in
/// virtual time.
#[derive(Debug, Clone)]
pub struct SimDriver {
    cores: Vec<PeerCore>,
    /// Core index by peer id (cores need not be id-dense).
    index: BTreeMap<u64, usize>,
    now: Millis,
    queue: VecDeque<InFlight>,
    /// Requested wake-ups: `(deadline, core index)`.
    wakeups: BTreeSet<(Millis, usize)>,
    /// Every local effect, in emission order, tagged with its peer.
    effects: Vec<(PeerId, LocalEffect)>,
    /// Total frame bytes put on the wire (both directions, acks included).
    bytes_sent: u64,
    /// Total frames put on the wire.
    frames_sent: u64,
}

impl SimDriver {
    /// A driver over `cores` starting at virtual time 0.
    pub fn new(cores: Vec<PeerCore>) -> Self {
        let index = cores
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id().0, i))
            .collect();
        Self {
            cores,
            index,
            now: 0,
            queue: VecDeque::new(),
            wakeups: BTreeSet::new(),
            effects: Vec::new(),
            bytes_sent: 0,
            frames_sent: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// The driven cores.
    pub fn cores(&self) -> &[PeerCore] {
        &self.cores
    }

    /// Every local effect emitted so far, in order, tagged with its peer.
    pub fn effects(&self) -> &[(PeerId, LocalEffect)] {
        &self.effects
    }

    /// Drains and returns the effects collected so far.
    pub fn take_effects(&mut self) -> Vec<(PeerId, LocalEffect)> {
        std::mem::take(&mut self.effects)
    }

    /// Total `(frames, bytes)` put on the wire so far.
    pub fn traffic(&self) -> (u64, u64) {
        (self.frames_sent, self.bytes_sent)
    }

    fn core_index(&self, peer: PeerId) -> Option<usize> {
        self.index.get(&peer.0).copied()
    }

    /// Executes one core's outputs: emits enqueue, timers arm the wheel,
    /// effects are recorded.
    pub fn dispatch(&mut self, peer: PeerId, outputs: Vec<Output>) {
        let Some(idx) = self.core_index(peer) else {
            return;
        };
        for output in outputs {
            match output {
                Output::Emit { to, kind, frame } => {
                    self.frames_sent += 1;
                    self.bytes_sent += frame.len() as u64;
                    self.queue.push_back(InFlight {
                        from: peer,
                        to,
                        kind,
                        frame,
                    });
                }
                Output::SetTimer { at, .. } => {
                    self.wakeups.insert((at, idx));
                }
                // Cores keep their own deadline ledger; a stale wheel entry
                // just causes a harmless no-op poll.
                Output::CancelTimer { .. } => {}
                Output::Effect(effect) => {
                    self.effects.push((peer, effect));
                }
            }
        }
    }

    /// Trains `peer` on `data` and executes the resulting outputs.
    pub fn train(&mut self, peer: PeerId, data: &MultiLabelDataset) {
        let Some(idx) = self.core_index(peer) else {
            return;
        };
        let now = self.now;
        let outputs = self.cores[idx].train(now, data);
        self.dispatch(peer, outputs);
    }

    /// Starts a prediction at `peer`, executing the outputs. The scores land
    /// in [`Self::effects`] under the returned request id once the exchange
    /// completes (immediately for local protocols; after
    /// [`Self::run_until_quiescent`] for routed ones).
    pub fn predict(&mut self, peer: PeerId, x: &SparseVector) -> u64 {
        let Some(idx) = self.core_index(peer) else {
            return u64::MAX;
        };
        let now = self.now;
        let (request, outputs) = self.cores[idx].predict(now, x);
        self.dispatch(peer, outputs);
        request
    }

    /// Starts an anti-entropy exchange from `peer` towards `partner`.
    pub fn anti_entropy(&mut self, peer: PeerId, partner: PeerId) {
        let Some(idx) = self.core_index(peer) else {
            return;
        };
        let now = self.now;
        let outputs = self.cores[idx].start_anti_entropy(now, partner);
        self.dispatch(peer, outputs);
    }

    /// Delivers the oldest in-flight frame, if any.
    pub fn step(&mut self) -> bool {
        let Some(msg) = self.queue.pop_front() else {
            return false;
        };
        let Some(idx) = self.core_index(msg.to) else {
            return true; // unknown destination: dropped
        };
        let now = self.now;
        let outputs = self.cores[idx].ingest(now, msg.from, &msg.frame);
        self.dispatch(msg.to, outputs);
        true
    }

    /// Runs until no frames are in flight and no timer wheel entries remain:
    /// drains deliveries FIFO, then advances virtual time to the next
    /// wake-up and polls that core's timers, repeating until quiescent.
    pub fn run_until_quiescent(&mut self) {
        loop {
            while self.step() {}
            let Some(&(at, idx)) = self.wakeups.iter().next() else {
                return;
            };
            self.wakeups.remove(&(at, idx));
            self.now = self.now.max(at);
            let now = self.now;
            let peer = self.cores[idx].id();
            let outputs = self.cores[idx].poll_timers(now);
            self.dispatch(peer, outputs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cempar::CemparConfig;
    use crate::centralized::CentralizedConfig;
    use crate::pace::PaceConfig;
    use crate::sansio::{CemparCore, CentralizedCore, LocalCore, PaceCore};
    use ml::MultiLabelExample;

    fn dataset(feature: u32, tag: ml::TagId) -> MultiLabelDataset {
        MultiLabelDataset::from_examples(
            (0..6)
                .map(|i| {
                    MultiLabelExample::new(
                        SparseVector::from_pairs([(feature, 1.0 + 0.05 * i as f64)]),
                        [tag],
                    )
                })
                .collect(),
        )
    }

    fn peer_ids(n: u64) -> Vec<PeerId> {
        (0..n).map(PeerId).collect()
    }

    fn prediction_scores(
        driver: &SimDriver,
        peer: PeerId,
        request: u64,
    ) -> Vec<ml::multilabel::TagPrediction> {
        driver
            .effects()
            .iter()
            .find_map(|(p, e)| match e {
                LocalEffect::Prediction { request: r, scores } if *p == peer && *r == request => {
                    Some(scores.clone())
                }
                _ => None,
            })
            .expect("prediction effect emitted")
    }

    #[test]
    fn pace_fleet_converges_and_predicts() {
        let peers = peer_ids(4);
        let cores = peers
            .iter()
            .map(|&p| PeerCore::Pace(PaceCore::new(p, peers.clone(), PaceConfig::default())))
            .collect();
        let mut driver = SimDriver::new(cores);
        for (i, &p) in peers.iter().enumerate() {
            driver.train(p, &dataset(i as u32, i as ml::TagId + 1));
        }
        driver.run_until_quiescent();
        // Every peer holds every model at version 1.
        let expected: Vec<(u64, u64)> = (0..4).map(|s| (s, 1)).collect();
        for core in driver.cores() {
            assert_eq!(core.installed_versions(), expected);
        }
        // Predictions answer locally and favour the trained tag.
        let req = driver.predict(PeerId(2), &SparseVector::from_pairs([(1, 1.0)]));
        let scores = prediction_scores(&driver, PeerId(2), req);
        let best = scores
            .iter()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(best.tag, 2);
        let (frames, bytes) = driver.traffic();
        assert!(frames >= 12, "4 peers × 3 install targets");
        assert!(bytes > 0);
    }

    #[test]
    fn cempar_fleet_routes_queries_to_super_peers() {
        let peers = peer_ids(6);
        let config = CemparConfig {
            regions: 2,
            ..CemparConfig::default()
        };
        let cores = peers
            .iter()
            .map(|&p| PeerCore::Cempar(CemparCore::new(p, peers.clone(), config.clone())))
            .collect();
        let mut driver = SimDriver::new(cores);
        for (i, &p) in peers.iter().enumerate() {
            driver.train(p, &dataset(i as u32, i as ml::TagId + 1));
        }
        driver.run_until_quiescent();
        let req = driver.predict(PeerId(3), &SparseVector::from_pairs([(0, 1.0)]));
        driver.run_until_quiescent();
        let scores = prediction_scores(&driver, PeerId(3), req);
        // Every peer's contribution landed in some region, and the weighted
        // combine keeps every tag any answering region knows — so the six
        // trained tags all come back.
        let tags: Vec<ml::TagId> = scores.iter().map(|p| p.tag).collect();
        for tag in 1..=6 {
            assert!(tags.contains(&tag), "missing tag {tag} in {tags:?}");
        }
        // And the routed exchange is deterministic: ask again, same answer.
        let req2 = driver.predict(PeerId(3), &SparseVector::from_pairs([(0, 1.0)]));
        driver.run_until_quiescent();
        assert_eq!(scores, prediction_scores(&driver, PeerId(3), req2));
    }

    #[test]
    fn centralized_fleet_pools_at_server_and_answers_queries() {
        let peers = peer_ids(3);
        let cores = peers
            .iter()
            .map(|&p| PeerCore::Centralized(CentralizedCore::new(p, CentralizedConfig::default())))
            .collect();
        let mut driver = SimDriver::new(cores);
        for (i, &p) in peers.iter().enumerate() {
            driver.train(p, &dataset(i as u32, i as ml::TagId + 1));
        }
        driver.run_until_quiescent();
        // The server pooled all three uploads.
        assert_eq!(
            driver.cores()[0].installed_versions(),
            vec![(0, 1), (1, 1), (2, 1)]
        );
        // A client's query answers with the pooled model.
        let req = driver.predict(PeerId(2), &SparseVector::from_pairs([(1, 1.0)]));
        driver.run_until_quiescent();
        let scores = prediction_scores(&driver, PeerId(2), req);
        let best = scores
            .iter()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(best.tag, 2);
    }

    #[test]
    fn local_fleet_never_emits_traffic() {
        let peers = peer_ids(3);
        let cores = peers
            .iter()
            .map(|&p| PeerCore::Local(LocalCore::new(p)))
            .collect();
        let mut driver = SimDriver::new(cores);
        for (i, &p) in peers.iter().enumerate() {
            driver.train(p, &dataset(i as u32, i as ml::TagId + 1));
        }
        driver.run_until_quiescent();
        assert_eq!(driver.traffic(), (0, 0));
        let req = driver.predict(PeerId(1), &SparseVector::from_pairs([(1, 1.0)]));
        let scores = prediction_scores(&driver, PeerId(1), req);
        let best = scores
            .iter()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(best.tag, 2);
        assert_eq!(driver.traffic(), (0, 0));
    }

    #[test]
    fn anti_entropy_repairs_a_peer_that_missed_an_install() {
        let peers = peer_ids(3);
        let cores: Vec<PeerCore> = peers
            .iter()
            .map(|&p| PeerCore::Pace(PaceCore::new(p, peers.clone(), PaceConfig::default())))
            .collect();
        let mut driver = SimDriver::new(cores);
        driver.train(PeerId(0), &dataset(0, 1));
        // Drop peer 2's copy: deliver only the frame addressed to peer 1.
        let kept: Vec<InFlight> = driver
            .queue
            .drain(..)
            .filter(|m| m.to == PeerId(1))
            .collect();
        driver.queue.extend(kept);
        driver.run_until_quiescent();
        assert_eq!(driver.cores()[2].installed_versions(), vec![]);
        // Peer 2 digests its (empty) holdings at peer 1, which pushes back
        // everything peer 2 is missing.
        driver.anti_entropy(PeerId(2), PeerId(1));
        driver.run_until_quiescent();
        assert_eq!(driver.cores()[2].installed_versions(), vec![(0, 1)]);
        // The repair is idempotent: digesting again installs nothing new.
        let effects_before = driver.effects().len();
        driver.anti_entropy(PeerId(2), PeerId(1));
        driver.run_until_quiescent();
        assert_eq!(driver.effects().len(), effects_before);
    }

    #[test]
    fn reordered_and_duplicated_deliveries_converge_to_the_same_ensemble() {
        let peers = peer_ids(3);
        let build = || {
            let cores: Vec<PeerCore> = peers
                .iter()
                .map(|&p| PeerCore::Pace(PaceCore::new(p, peers.clone(), PaceConfig::default())))
                .collect();
            SimDriver::new(cores)
        };
        // Reference: FIFO delivery.
        let mut fifo = build();
        for (i, &p) in peers.iter().enumerate() {
            fifo.train(p, &dataset(i as u32, i as ml::TagId + 1));
        }
        fifo.run_until_quiescent();
        // Adversarial: reverse the queue and duplicate every frame.
        let mut chaos = build();
        for (i, &p) in peers.iter().enumerate() {
            chaos.train(p, &dataset(i as u32, i as ml::TagId + 1));
        }
        let mut frames: Vec<InFlight> = chaos.queue.drain(..).collect();
        frames.reverse();
        let dup = frames.clone();
        chaos.queue.extend(frames);
        chaos.queue.extend(dup);
        chaos.run_until_quiescent();
        for (a, b) in fifo.cores().iter().zip(chaos.cores()) {
            assert_eq!(a.installed_versions(), b.installed_versions());
        }
        // And the predictions agree bit-for-bit.
        let x = SparseVector::from_pairs([(2, 1.0)]);
        let ra = fifo.predict(PeerId(0), &x);
        let rb = chaos.predict(PeerId(0), &x);
        assert_eq!(
            prediction_scores(&fifo, PeerId(0), ra),
            prediction_scores(&chaos, PeerId(0), rb)
        );
    }
}
