//! Round-based network facade for P2P data-mining protocols.
//!
//! The CEMPaR and PACE protocols are naturally phased (train locally →
//! propagate models → answer prediction queries). Rather than forcing every
//! protocol into the event-driven engine, P2PDMT exposes this facade: the
//! protocol asks the network to deliver messages, perform DHT lookups, or
//! broadcast, and the facade handles overlay routing, churn-induced failures,
//! latency accumulation and full per-kind / per-peer cost accounting.
//! Simulated time advances explicitly via [`P2PNetwork::advance`], so a
//! protocol phase can be placed anywhere on the churn timeline.

use crate::bitset::{Ones, PeerBitset};
use crate::churn::ChurnTimeline;
use crate::config::SimConfig;
use crate::faults::{FaultDrop, FaultState, PartitionWindow, SendFault};
use crate::logging::ActivityLog;
use crate::message::MessageKind;
use crate::overlay::{AnyOverlay, Overlay, SuperPeerDirectory};
use crate::peer::PeerId;
use crate::physical::PhysicalNetwork;
use crate::stats::SimStats;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Why a message could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryError {
    /// The sending peer is currently offline.
    SenderOffline,
    /// The destination peer is currently offline.
    ReceiverOffline,
    /// The overlay could not route the key (failed flooding search, empty ring).
    NoRoute,
    /// The fault layer dropped the message (random or burst loss).
    Lost,
    /// The fault layer dropped the message: an active partition window
    /// severs the sender from the receiver.
    Partitioned,
}

impl std::fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeliveryError::SenderOffline => "sender offline",
            DeliveryError::ReceiverOffline => "receiver offline",
            DeliveryError::NoRoute => "no route to key owner",
            DeliveryError::Lost => "message lost in transit",
            DeliveryError::Partitioned => "network partition between peers",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DeliveryError {}

/// Size in bytes charged for one DHT routing hop (header-sized control message).
const LOOKUP_HOP_BYTES: usize = 64;

/// Outcome of a successful byte-frame send ([`P2PNetwork::send_frame`]).
#[derive(Debug, Clone)]
pub struct FrameDelivery {
    /// One-way delivery latency (including any fault-injected spike/jitter).
    pub latency: SimTime,
    /// `Some(bytes)` when the fault layer damaged the frame in transit —
    /// these are the bytes the receiver sees. `None` means the frame arrived
    /// intact (the clean path copies nothing).
    pub corrupted: Option<Vec<u8>>,
}

/// What one message of a [`P2PNetwork::broadcast_frames`] call carries.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// An encoded frame, as [`P2PNetwork::send_frame`] moves it: charged at
    /// its exact length, and the fault layer can damage it in transit.
    Frame(&'a [u8]),
    /// A size only, as [`P2PNetwork::send`] moves it: there are no bytes to
    /// damage, so no corruption draw is made.
    Sized(usize),
}

impl Payload<'_> {
    /// Bytes charged for one copy.
    pub fn len(&self) -> usize {
        match *self {
            Payload::Frame(frame) => frame.len(),
            Payload::Sized(size_bytes) => size_bytes,
        }
    }

    /// Whether a copy charges no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The round-based simulated P2P network.
pub struct P2PNetwork {
    config: SimConfig,
    overlay: AnyOverlay,
    physical: PhysicalNetwork,
    churn: ChurnTimeline,
    /// Cached set of peers online at `now`, refreshed whenever time moves
    /// ([`Self::advance`]). Makes `is_online` an O(1) bit test instead of a
    /// per-call scan of the churn intervals, and `online_peers` an
    /// allocation-free iterator.
    online: PeerBitset,
    stats: SimStats,
    log: ActivityLog,
    now: SimTime,
    rng: StdRng,
    /// Executes the configured fault plan from its own seeded RNG stream
    /// (RNG-neutral when the plan is disabled).
    faults: FaultState,
    /// Peers crashed since the last [`Self::drain_crash_restarts`] call.
    crashed: Vec<PeerId>,
    /// Partition windows healed since the last
    /// [`Self::drain_healed_partitions`] call.
    healed: Vec<PartitionWindow>,
}

impl P2PNetwork {
    /// Builds a network from a configuration: generates the overlay over all
    /// peers, the physical underlay and the churn timeline, then synchronizes
    /// overlay membership with the peers online at time zero.
    pub fn new(config: SimConfig) -> Self {
        let overlay = config.build_overlay();
        let physical = PhysicalNetwork::new(config.physical.clone());
        let churn = ChurnTimeline::generate(
            config.churn,
            config.num_peers,
            config.horizon(),
            config.seed,
        );
        let rng = StdRng::seed_from_u64(config.seed ^ 0xFEED_FACE);
        let faults = FaultState::new(config.faults.clone(), config.seed);
        let num_peers = config.num_peers;
        let mut net = Self {
            config,
            overlay,
            physical,
            churn,
            online: PeerBitset::new(num_peers),
            stats: SimStats::with_peers(num_peers),
            log: ActivityLog::default(),
            now: SimTime::ZERO,
            rng,
            faults,
            crashed: Vec::new(),
            healed: Vec::new(),
        };
        net.sync_overlay_membership();
        net
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Total number of peers (online or not).
    pub fn num_peers(&self) -> usize {
        self.config.num_peers
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.config.num_peers as u64).map(PeerId)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances simulated time and updates overlay membership to reflect
    /// churn. Crash-restart events and partition heals scheduled inside the
    /// window are executed here and buffered for
    /// [`Self::drain_crash_restarts`] / [`Self::drain_healed_partitions`].
    pub fn advance(&mut self, dt: SimTime) {
        let from = self.now;
        let to = self.now + dt;
        let mut crashed = Vec::new();
        self.faults
            .crashes_between(from, to, self.config.num_peers, &mut crashed);
        self.healed.extend(self.faults.healed_between(from, to));
        self.now = to;
        self.sync_overlay_membership();
        for p in crashed {
            // A crash of a peer that churn already has offline is a no-op:
            // there is no in-memory state to lose.
            if self.online.contains(p) {
                self.stats.faults.crashes += 1;
                self.log.log(to, Some(p), "crash", "peer crash-restarted");
                self.crashed.push(p);
            }
        }
    }

    /// Peers that crash-restarted since the last call, in event order. A
    /// crashed peer stays online but loses its in-memory protocol state —
    /// the protocol layer is expected to wipe and recover it.
    pub fn drain_crash_restarts(&mut self) -> Vec<PeerId> {
        std::mem::take(&mut self.crashed)
    }

    /// Partition windows whose heal time passed since the last call. The
    /// protocol layer can run anti-entropy for the peers that were cut off.
    pub fn drain_healed_partitions(&mut self) -> Vec<PartitionWindow> {
        std::mem::take(&mut self.healed)
    }

    /// Records a reliability-layer retransmission attempt (for stats).
    pub fn note_retransmit(&mut self) {
        self.stats.faults.retransmits += 1;
    }

    /// Records a reliable send that succeeded after at least one failure.
    pub fn note_recovered(&mut self) {
        self.stats.faults.recovered += 1;
    }

    /// Records a completed anti-entropy resync exchange.
    pub fn note_resync(&mut self) {
        self.stats.faults.resyncs += 1;
    }

    /// Deterministic RNG tied to this network's seed.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Whether a peer is currently online. O(1) against the cached bitset.
    pub fn is_online(&self, peer: PeerId) -> bool {
        self.online.contains(peer)
    }

    /// Iterates all currently online peers in ascending id order, without
    /// allocating.
    pub fn online_peers(&self) -> Ones<'_> {
        self.online.ones()
    }

    /// Number of peers currently online. O(1).
    pub fn num_online(&self) -> usize {
        self.online.len()
    }

    /// Fraction of peers currently online.
    pub fn availability(&self) -> f64 {
        if self.config.num_peers == 0 {
            return 0.0;
        }
        self.online.len() as f64 / self.config.num_peers as f64
    }

    /// The overlay (read access, e.g. for super-peer election).
    pub fn overlay(&self) -> &AnyOverlay {
        &self.overlay
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The activity log.
    pub fn log(&self) -> &ActivityLog {
        &self.log
    }

    /// Mutable activity log (for protocol-level annotations).
    pub fn log_mut(&mut self) -> &mut ActivityLog {
        &mut self.log
    }

    /// Builds a super-peer directory with `regions` regions over this overlay.
    pub fn super_peer_directory(&self, regions: usize) -> SuperPeerDirectory {
        SuperPeerDirectory::new(regions)
    }

    /// Sends `size_bytes` of category `kind` from `from` to `to`.
    ///
    /// On success returns the one-way delivery latency; on failure the traffic
    /// is still charged to the sender (the bytes were put on the wire) and the
    /// appropriate error is returned.
    pub fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        size_bytes: usize,
    ) -> Result<SimTime, DeliveryError> {
        self.send_one(from, to, kind, Payload::Sized(size_bytes))
            .map(|delivery| delivery.latency)
    }

    /// Sends an encoded byte frame from `from` to `to`, charging its exact
    /// length. Unlike [`Self::send`] (which moves only a size), the fault
    /// layer can damage the frame in transit: the returned
    /// [`FrameDelivery::corrupted`] carries the bytes the receiver actually
    /// sees (`None` = intact, and nothing was copied). Frame bytes are
    /// charged in full even when the delivered frame was truncated — the
    /// sender paid to put them on the wire.
    pub fn send_frame(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        frame: &[u8],
    ) -> Result<FrameDelivery, DeliveryError> {
        self.send_one(from, to, kind, Payload::Frame(frame))
    }

    /// One point-to-point send: the sender's online check, then the same
    /// [`Self::adjudicate`] → [`Self::in_transit`] steps a broadcast runs per
    /// receiver, charged to the statistics right away.
    fn send_one(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        payload: Payload<'_>,
    ) -> Result<FrameDelivery, DeliveryError> {
        if !self.is_online(from) {
            return Err(DeliveryError::SenderOffline);
        }
        let size_bytes = payload.len();
        match self.adjudicate(from, to) {
            Ok(extra) => {
                let latency = self.physical.delivery_delay(from, to, size_bytes) + extra;
                self.stats
                    .record_delivery(from, to, kind, size_bytes, latency);
                Ok(self.in_transit(payload, latency))
            }
            Err(e) => {
                self.stats.record_drop(from, kind, size_bytes);
                Err(e)
            }
        }
    }

    /// The verdict on one copy leaving an online sender for `to`: the
    /// receiver's online check, then the fault layer's ruling. `Ok` carries
    /// the extra fault-injected latency to add to the physical delay. Fault
    /// verdicts are counted in [`crate::stats::FaultStats`] here; charging
    /// the traffic (a drop costs the sender like a delivery does — the bytes
    /// were put on the wire) is the caller's half.
    fn adjudicate(&mut self, from: PeerId, to: PeerId) -> Result<SimTime, DeliveryError> {
        if !self.is_online(to) {
            return Err(DeliveryError::ReceiverOffline);
        }
        match self.faults.on_send(self.now, from, to) {
            SendFault::Deliver {
                extra_latency,
                spiked,
            } => {
                if spiked {
                    self.stats.faults.latency_spikes += 1;
                }
                Ok(extra_latency)
            }
            SendFault::Drop(FaultDrop::Loss { burst: true }) => {
                self.stats.faults.burst_lost += 1;
                Err(DeliveryError::Lost)
            }
            SendFault::Drop(FaultDrop::Loss { burst: false }) => {
                self.stats.faults.lost += 1;
                Err(DeliveryError::Lost)
            }
            SendFault::Drop(FaultDrop::Partitioned) => {
                self.stats.faults.partition_drops += 1;
                Err(DeliveryError::Partitioned)
            }
        }
    }

    /// What the receiver of an admitted copy sees: a frame may have been
    /// damaged on the way (counted), a bare size cannot be.
    fn in_transit(&mut self, payload: Payload<'_>, latency: SimTime) -> FrameDelivery {
        let corrupted = match payload {
            Payload::Frame(frame) => self.faults.corrupt_frame(frame).map(|(bytes, _)| {
                self.stats.faults.corrupted += 1;
                bytes
            }),
            Payload::Sized(_) => None,
        };
        FrameDelivery { latency, corrupted }
    }

    /// Sends every payload of `frames` from `from` to every other peer,
    /// receiver-major (all of them to peer 0, then to peer 1, …), and hands
    /// `on_receiver` each receiver's results in `frames` order.
    ///
    /// Outcomes, statistics and fault-stream draws are exactly those of the
    /// equivalent loop of [`Self::send_frame`] / [`Self::send`] calls —
    /// offline receivers and fault drops are charged to the sender, and a
    /// sender that is itself offline charges nothing and fails every copy —
    /// but what does not depend on the receiver is done once per frame
    /// instead of once per copy: the sender's online check, the transmission
    /// delay, and the by-kind and sender-side charges, which are tallied and
    /// flushed into [`SimStats`] when the walk ends.
    pub fn broadcast_frames<const N: usize>(
        &mut self,
        from: PeerId,
        frames: [(MessageKind, Payload<'_>); N],
        mut on_receiver: impl FnMut(PeerId, [Result<FrameDelivery, DeliveryError>; N]),
    ) {
        // Index walk + O(1) bit tests: no target list is materialized even
        // when 10k peers are online.
        let receivers = (0..self.config.num_peers)
            .map(PeerId::from)
            .filter(|&to| to != from);
        if !self.is_online(from) {
            for to in receivers {
                on_receiver(
                    to,
                    std::array::from_fn(|_| Err(DeliveryError::SenderOffline)),
                );
            }
            return;
        }
        let transmission =
            frames.map(|(_, payload)| self.physical.transmission_delay(payload.len()));
        let mut delivered = [0u64; N];
        let mut dropped = [0u64; N];
        for to in receivers {
            // The pair's propagation latency, worked out for the first copy
            // that gets through (an offline receiver never needs it).
            let mut propagation = None;
            let (mut bytes, mut deliveries, mut latency_sum) = (0u64, 0u64, SimTime::ZERO);
            let results = std::array::from_fn(|i| {
                let payload = frames[i].1;
                match self.adjudicate(from, to) {
                    Ok(extra) => {
                        let propagation =
                            *propagation.get_or_insert_with(|| self.physical.latency(from, to));
                        let latency = propagation + transmission[i] + extra;
                        delivered[i] += 1;
                        bytes += payload.len() as u64;
                        deliveries += 1;
                        latency_sum += latency;
                        Ok(self.in_transit(payload, latency))
                    }
                    Err(e) => {
                        dropped[i] += 1;
                        Err(e)
                    }
                }
            });
            if deliveries > 0 {
                self.stats
                    .record_received(to, bytes, deliveries, latency_sum);
            }
            on_receiver(to, results);
        }
        for (i, (kind, payload)) in frames.into_iter().enumerate() {
            self.stats
                .record_sent(from, kind, payload.len(), delivered[i], dropped[i]);
        }
    }

    /// Routes `key` through the overlay starting at `from`, charging one small
    /// control message per overlay hop. Returns the owner and the hop count.
    pub fn dht_lookup(&mut self, from: PeerId, key: u64) -> Result<(PeerId, usize), DeliveryError> {
        if !self.is_online(from) {
            return Err(DeliveryError::SenderOffline);
        }
        let result = self
            .overlay
            .lookup(from, key)
            .ok_or(DeliveryError::NoRoute)?;
        // Charge each routing message along the path.
        let mut prev = from;
        for &hop in &result.path {
            let latency = self.physical.delivery_delay(prev, hop, LOOKUP_HOP_BYTES);
            self.stats.record_delivery(
                prev,
                hop,
                MessageKind::DhtLookup,
                LOOKUP_HOP_BYTES,
                latency,
            );
            prev = hop;
        }
        // Flooding overlays may have spent more messages than the path length.
        let extra = result.messages.saturating_sub(result.path.len());
        for _ in 0..extra {
            self.stats.record_delivery(
                from,
                result.owner,
                MessageKind::DhtLookup,
                LOOKUP_HOP_BYTES,
                SimTime::ZERO,
            );
        }
        self.stats.record_lookup(result.hops());
        Ok((result.owner, result.hops()))
    }

    /// Sends `size_bytes` of `kind` from `from` to every other peer — a
    /// one-payload [`Self::broadcast_frames`], so it charges exactly like a
    /// loop of [`Self::send`] over all other peers: an offline receiver is a
    /// drop paid for by the sender, as in every protocol's own send loop.
    /// Returns the number of peers actually reached.
    pub fn broadcast(&mut self, from: PeerId, kind: MessageKind, size_bytes: usize) -> usize {
        let mut reached = 0;
        self.broadcast_frames(from, [(kind, Payload::Sized(size_bytes))], |_, [sent]| {
            reached += usize::from(sent.is_ok());
        });
        reached
    }

    fn sync_overlay_membership(&mut self) {
        let now = self.now;
        for i in 0..self.config.num_peers {
            let p = PeerId::from(i);
            let online = self.churn.is_online(p, now);
            self.online.set(p, online);
            let member = self.overlay.contains(p);
            if online && !member {
                self.overlay.add_peer(p);
                self.log.log(now, Some(p), "join", "peer joined overlay");
            } else if !online && member {
                self.overlay.remove_peer(p);
                self.log.log(now, Some(p), "leave", "peer left overlay");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::config::OverlayKind;
    use crate::peer::content_key;

    fn small_network(num_peers: usize) -> P2PNetwork {
        P2PNetwork::new(SimConfig {
            num_peers,
            horizon_secs: 10_000,
            ..Default::default()
        })
    }

    #[test]
    fn send_between_online_peers_succeeds_and_is_accounted() {
        let mut net = small_network(8);
        let latency = net
            .send(PeerId(0), PeerId(1), MessageKind::ModelPropagation, 500)
            .unwrap();
        assert!(latency > SimTime::ZERO);
        assert_eq!(net.stats().total_bytes(), 500);
        assert_eq!(net.stats().kind(MessageKind::ModelPropagation).messages, 1);
    }

    #[test]
    fn dht_lookup_charges_per_hop() {
        let mut net = small_network(64);
        let (owner, hops) = net.dht_lookup(PeerId(3), content_key(b"rust")).unwrap();
        assert!(net.peers().any(|p| p == owner));
        assert!(hops >= 1);
        assert_eq!(
            net.stats().kind(MessageKind::DhtLookup).messages as usize,
            hops
        );
        assert!(net.stats().mean_lookup_hops() >= 1.0);
    }

    #[test]
    fn broadcast_reaches_all_other_online_peers() {
        let mut net = small_network(16);
        let reached = net.broadcast(PeerId(0), MessageKind::CentroidPropagation, 100);
        assert_eq!(reached, 15);
        assert_eq!(net.stats().total_bytes(), 1_500);
    }

    fn churned_network(faults: crate::faults::FaultPlan) -> P2PNetwork {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 48,
            churn: ChurnModel::Exponential {
                mean_session_secs: 100.0,
                mean_offline_secs: 100.0,
            },
            horizon_secs: 10_000,
            faults,
            ..Default::default()
        });
        net.advance(SimTime::from_secs(150));
        assert!(net.num_online() > 4 && net.num_online() < 44);
        net
    }

    /// Everything observable about a network after a batch of sends: the
    /// whole statistics object (by kind, per-peer columns, senders, latency
    /// sum, delivered count, fault counters) and the fault stream's position.
    fn fingerprint(net: &P2PNetwork) -> (String, u64) {
        (format!("{:?}", net.stats()), net.faults.peek_next_draw())
    }

    fn outcome(
        sent: Result<FrameDelivery, DeliveryError>,
    ) -> Result<(SimTime, Option<Vec<u8>>), DeliveryError> {
        sent.map(|d| (d.latency, d.corrupted))
    }

    /// `broadcast_frames` against the loop of point-to-point sends it
    /// replaces, on two networks built alike: same per-receiver outcomes,
    /// same statistics, same next fault draw.
    fn assert_broadcast_matches_send_loop(faults: crate::faults::FaultPlan, from_online: bool) {
        let mut batched = churned_network(faults.clone());
        let mut looped = churned_network(faults);
        let from = batched
            .peers()
            .find(|&p| batched.is_online(p) == from_online)
            .expect("churn leaves peers on both sides");
        let model = vec![0xA5u8; 300];
        let centroids = vec![0x5Au8; 40];
        // Several rounds, so the tallies flush onto non-empty statistics and
        // a partition window opens part-way through.
        for round in 0..4 {
            let mut got = Vec::new();
            batched.broadcast_frames(
                from,
                [
                    (MessageKind::ModelPropagation, Payload::Frame(&model)),
                    (MessageKind::CentroidPropagation, Payload::Frame(&centroids)),
                    (MessageKind::ModelPropagation, Payload::Sized(77)),
                ],
                |to, [a, b, c]| got.push((to, outcome(a), outcome(b), outcome(c))),
            );
            let mut want = Vec::new();
            for to in looped.peers().filter(|&to| to != from) {
                let a = looped.send_frame(from, to, MessageKind::ModelPropagation, &model);
                let b = looped.send_frame(from, to, MessageKind::CentroidPropagation, &centroids);
                let c = looped
                    .send(from, to, MessageKind::ModelPropagation, 77)
                    .map(|latency| FrameDelivery {
                        latency,
                        corrupted: None,
                    });
                want.push((to, outcome(a), outcome(b), outcome(c)));
            }
            assert_eq!(got, want, "round {round}");
            assert_eq!(fingerprint(&batched), fingerprint(&looped), "round {round}");
            batched.advance(SimTime::from_secs(20));
            looped.advance(SimTime::from_secs(20));
        }
        if from_online {
            assert!(batched.stats().total_dropped() > 0, "churn drops exercised");
            assert!(batched.stats().total_delivered() > 0);
        } else {
            assert_eq!(batched.stats().total_messages(), 0);
        }
    }

    fn hostile_plan() -> crate::faults::FaultPlan {
        use crate::faults::*;
        FaultPlan {
            loss: 0.15,
            burst: Some(BurstLoss {
                enter: 0.1,
                exit: 0.4,
                loss: 0.8,
            }),
            latency: Some(LatencyFaults {
                spike_probability: 0.1,
                spike_ms: 200.0,
                jitter_ms: 10.0,
            }),
            corruption: Some(CorruptionFaults {
                probability: 0.3,
                truncation: 0.4,
            }),
            partitions: vec![PartitionWindow {
                start_secs: 180,
                end_secs: 400,
                scope: PartitionScope::Index { pivot: 20 },
            }],
            crashes: None,
        }
    }

    #[test]
    fn broadcast_frames_matches_the_send_loop_without_faults() {
        let mut batched = small_network(16);
        let mut looped = small_network(16);
        let frame = [7u8; 120];
        batched.broadcast_frames(
            PeerId(3),
            [(MessageKind::RefinementUpdate, Payload::Frame(&frame))],
            |_, [sent]| assert!(sent.is_ok_and(|d| d.corrupted.is_none())),
        );
        for to in looped.peers().filter(|&to| to != PeerId(3)) {
            looped
                .send_frame(PeerId(3), to, MessageKind::RefinementUpdate, &frame)
                .unwrap();
        }
        assert_eq!(fingerprint(&batched), fingerprint(&looped));
        assert_eq!(batched.stats().total_delivered(), 15);
    }

    #[test]
    fn broadcast_frames_matches_the_send_loop_under_churn() {
        assert_broadcast_matches_send_loop(crate::faults::FaultPlan::default(), true);
    }

    #[test]
    fn broadcast_frames_from_an_offline_sender_fails_every_copy_and_charges_nothing() {
        assert_broadcast_matches_send_loop(crate::faults::FaultPlan::default(), false);
        assert_broadcast_matches_send_loop(hostile_plan(), false);
    }

    #[test]
    fn broadcast_frames_matches_the_send_loop_under_an_active_fault_plan() {
        assert_broadcast_matches_send_loop(hostile_plan(), true);
        let mut net = churned_network(hostile_plan());
        let from = net.online_peers().next().unwrap();
        for _ in 0..4 {
            net.broadcast_frames(
                from,
                [(MessageKind::Other, Payload::Frame(&[1u8; 64]))],
                |_, _| {},
            );
            net.advance(SimTime::from_secs(20));
        }
        let faults = net.stats().faults;
        assert!(faults.lost > 0 && faults.burst_lost > 0, "{faults:?}");
        assert!(
            faults.corrupted > 0 && faults.partition_drops > 0,
            "{faults:?}"
        );
        assert!(faults.latency_spikes > 0, "{faults:?}");
    }

    #[test]
    fn broadcast_charges_like_a_loop_of_send_under_churn() {
        let mut batched = churned_network(crate::faults::FaultPlan::default());
        let mut looped = churned_network(crate::faults::FaultPlan::default());
        let from = batched.online_peers().next().unwrap();
        let reached = batched.broadcast(from, MessageKind::CentroidPropagation, 100);
        let mut want = 0;
        for to in looped.peers().filter(|&to| to != from) {
            if looped
                .send(from, to, MessageKind::CentroidPropagation, 100)
                .is_ok()
            {
                want += 1;
            }
        }
        assert_eq!(reached, want);
        assert_eq!(reached, batched.num_online() - 1);
        assert_eq!(fingerprint(&batched), fingerprint(&looped));
        // Offline receivers are drops the sender paid for, not skipped.
        let k = batched.stats().kind(MessageKind::CentroidPropagation);
        assert_eq!(k.messages, 47);
        assert_eq!(k.dropped as usize, 47 - reached);
        assert_eq!(batched.stats().bytes_sent_by(from), 4_700);
    }

    #[test]
    fn churn_takes_peers_offline_and_send_fails() {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 64,
            churn: ChurnModel::Exponential {
                mean_session_secs: 100.0,
                mean_offline_secs: 100.0,
            },
            horizon_secs: 10_000,
            ..Default::default()
        });
        net.advance(SimTime::from_secs(5_000));
        let availability = net.availability();
        assert!(availability < 0.95, "availability {availability}");
        // Find an offline peer and check that sends to it fail.
        let offline = net
            .peers()
            .find(|&p| !net.is_online(p))
            .expect("some peer is offline under 50% availability churn");
        let online = net.peers().find(|&p| net.is_online(p)).unwrap();
        assert_eq!(
            net.send(online, offline, MessageKind::Other, 10),
            Err(DeliveryError::ReceiverOffline)
        );
        assert_eq!(
            net.send(offline, online, MessageKind::Other, 10),
            Err(DeliveryError::SenderOffline)
        );
        // Overlay membership must match the online set.
        assert_eq!(net.overlay().len(), net.num_online());
        assert_eq!(net.online_peers().count(), net.num_online());
    }

    #[test]
    fn unstructured_overlay_lookups_work_via_facade() {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 64,
            overlay: OverlayKind::Unstructured { degree: 6, ttl: 6 },
            ..Default::default()
        });
        let result = net.dht_lookup(PeerId(5), content_key(b"database"));
        assert!(result.is_ok());
        // Flooding charges at least as many messages as a structured lookup.
        assert!(net.stats().kind(MessageKind::DhtLookup).messages >= 1);
    }

    #[test]
    fn offline_sender_cannot_lookup_or_broadcast() {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 16,
            churn: ChurnModel::Exponential {
                mean_session_secs: 1.0,
                mean_offline_secs: 1_000.0,
            },
            horizon_secs: 10_000,
            ..Default::default()
        });
        net.advance(SimTime::from_secs(5_000));
        let offline = net
            .peers()
            .find(|&p| !net.is_online(p))
            .expect("nearly everyone is offline");
        assert_eq!(
            net.dht_lookup(offline, 1),
            Err(DeliveryError::SenderOffline)
        );
        assert_eq!(net.broadcast(offline, MessageKind::Other, 1), 0);
    }

    #[test]
    fn advancing_time_is_monotonic() {
        let mut net = small_network(4);
        let t0 = net.now();
        net.advance(SimTime::from_secs(10));
        assert_eq!(net.now(), t0 + SimTime::from_secs(10));
    }
}
