//! Communication and simulation statistics.
//!
//! P2PDMT's data-mining layer offers "evaluate performance" and "visualize
//! statistics" facilities (Figure 2). [`SimStats`] is the accounting backbone
//! of the reproduction: every message routed through the network facade or the
//! event engine is recorded here, broken down by traffic category and by peer,
//! so the experiment harness can report per-peer communication cost exactly as
//! the CEMPaR/PACE evaluations do.
//!
//! Per-peer counters are dense `Vec<u64>` columns indexed by [`PeerId`]
//! (peers are numbered densely from 0), not maps: recording a delivery is two
//! array stores instead of two `BTreeMap` probes, which matters when a
//! broadcast protocol records O(peers²) sends per round at 10k peers. A
//! [`PeerBitset`] tracks which peers ever *sent* anything, so the
//! "mean bytes per participating peer" denominator keeps the map-era
//! semantics (a peer that only received does not dilute the mean).

use crate::bitset::PeerBitset;
use crate::message::MessageKind;
use crate::peer::PeerId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters for one traffic category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindStats {
    /// Messages sent (including ones later dropped).
    pub messages: u64,
    /// Bytes **delivered**. Dropped traffic is tracked separately in
    /// [`Self::bytes_dropped`] — folding both into one counter used to make
    /// the E3 communication tables silently mix delivered and lost traffic.
    pub bytes: u64,
    /// Bytes sent but never delivered (receiver offline, no route, …).
    pub bytes_dropped: u64,
    /// Messages that could not be delivered (receiver offline, no route, …).
    pub dropped: u64,
}

impl KindStats {
    /// Bytes put on the wire: delivered plus dropped (the sender paid for
    /// both).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes + self.bytes_dropped
    }
}

/// Counters for the fault-injection layer and the reliability machinery
/// built on top of it. All zero when no [`crate::faults::FaultPlan`] is
/// active and no reliable sends retransmit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages dropped by random (non-burst) loss.
    pub lost: u64,
    /// Messages dropped while the burst channel was in its bad state.
    pub burst_lost: u64,
    /// Messages dropped by an active partition window.
    pub partition_drops: u64,
    /// Byte frames damaged in transit (bit flips or truncation).
    pub corrupted: u64,
    /// Deliveries delayed by a latency spike.
    pub latency_spikes: u64,
    /// Crash-restart events executed.
    pub crashes: u64,
    /// Reliable-send retransmission attempts (beyond each first attempt).
    pub retransmits: u64,
    /// Reliable sends that succeeded after at least one failed attempt.
    pub recovered: u64,
    /// Anti-entropy resync exchanges completed.
    pub resyncs: u64,
}

impl FaultStats {
    /// Total messages the fault layer removed from the network.
    pub fn total_fault_drops(&self) -> u64 {
        self.lost + self.burst_lost + self.partition_drops
    }

    fn merge(&mut self, other: &FaultStats) {
        self.lost += other.lost;
        self.burst_lost += other.burst_lost;
        self.partition_drops += other.partition_drops;
        self.corrupted += other.corrupted;
        self.latency_spikes += other.latency_spikes;
        self.crashes += other.crashes;
        self.retransmits += other.retransmits;
        self.recovered += other.recovered;
        self.resyncs += other.resyncs;
    }
}

/// Aggregated statistics of one simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimStats {
    by_kind: BTreeMap<MessageKind, KindStats>,
    /// Bytes received, indexed by peer (grow-on-demand).
    bytes_received_by_peer: Vec<u64>,
    /// Peers that recorded at least one send (delivered or dropped) — the
    /// denominator of [`Self::mean_bytes_sent_per_peer`].
    senders: PeerBitset,
    total_hops: u64,
    lookups: u64,
    latency_sum: SimTime,
    delivered: u64,
    /// Fault-injection and recovery counters.
    pub faults: FaultStats,
}

#[inline]
fn bump(column: &mut Vec<u64>, peer: PeerId, bytes: u64) {
    let i = peer.index();
    if i >= column.len() {
        column.resize(i + 1, 0);
    }
    column[i] += bytes;
}

impl SimStats {
    /// Creates an empty statistics collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the per-peer column and sender set for `num_peers` peers,
    /// so recording never reallocates mid-run.
    pub fn with_peers(num_peers: usize) -> Self {
        Self {
            bytes_received_by_peer: vec![0; num_peers],
            senders: PeerBitset::new(num_peers),
            ..Self::default()
        }
    }

    /// Records a successfully delivered message.
    pub fn record_delivery(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        bytes: usize,
        latency: SimTime,
    ) {
        self.record_sent(from, kind, bytes, 1, 0);
        self.record_received(to, bytes as u64, 1, latency);
    }

    /// Records a message that was sent but never delivered. The bytes are
    /// charged to the sender (they were put on the wire) and to the kind's
    /// `bytes_dropped` counter — never to its delivered `bytes`.
    pub fn record_drop(&mut self, from: PeerId, kind: MessageKind, bytes: usize) {
        self.record_sent(from, kind, bytes, 0, 1);
    }

    /// The sender-side half of the accounting, for `delivered + dropped`
    /// copies of one `bytes`-sized message at once: the kind's counters are
    /// charged, and the sender counted, as that many
    /// [`Self::record_delivery`] / [`Self::record_drop`] calls would have
    /// charged them, in one probe of the by-kind map. A broadcast flushes
    /// each of its frames through here once instead of once per receiver.
    /// Nothing sent records nothing (no empty by-kind entry appears).
    pub fn record_sent(
        &mut self,
        from: PeerId,
        kind: MessageKind,
        bytes: usize,
        delivered: u64,
        dropped: u64,
    ) {
        if delivered + dropped == 0 {
            return;
        }
        let bytes = bytes as u64;
        let k = self.by_kind.entry(kind).or_default();
        k.messages += delivered + dropped;
        k.bytes += delivered * bytes;
        k.bytes_dropped += dropped * bytes;
        k.dropped += dropped;
        self.senders.insert(from);
    }

    /// The receiver-side half: `to` took delivery of `deliveries` messages
    /// totalling `bytes`, whose one-way latencies sum to `latency`.
    pub fn record_received(&mut self, to: PeerId, bytes: u64, deliveries: u64, latency: SimTime) {
        bump(&mut self.bytes_received_by_peer, to, bytes);
        self.latency_sum += latency;
        self.delivered += deliveries;
    }

    /// Records the hop count of a DHT lookup.
    pub fn record_lookup(&mut self, hops: usize) {
        self.total_hops += hops as u64;
        self.lookups += 1;
    }

    /// Per-category counters.
    pub fn by_kind(&self) -> &BTreeMap<MessageKind, KindStats> {
        &self.by_kind
    }

    /// Counters for one category (zeroes if the category never occurred).
    pub fn kind(&self, kind: MessageKind) -> KindStats {
        self.by_kind.get(&kind).copied().unwrap_or_default()
    }

    /// Total messages sent across all categories.
    pub fn total_messages(&self) -> u64 {
        self.by_kind.values().map(|k| k.messages).sum()
    }

    /// Total bytes *sent* across all categories — delivered plus dropped,
    /// i.e. everything that was put on the wire and paid for by a sender.
    pub fn total_bytes(&self) -> u64 {
        self.by_kind.values().map(KindStats::bytes_sent).sum()
    }

    /// Total messages dropped.
    #[cfg(test)]
    pub fn total_dropped(&self) -> u64 {
        self.by_kind.values().map(|k| k.dropped).sum()
    }

    /// Number of delivered messages.
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// Fraction of sent messages that were delivered (1.0 when nothing was sent).
    #[cfg(test)]
    pub fn delivery_rate(&self) -> f64 {
        let sent = self.total_messages();
        if sent == 0 {
            return 1.0;
        }
        self.delivered as f64 / sent as f64
    }

    /// Bytes received by a given peer.
    pub fn bytes_received_by(&self, peer: PeerId) -> u64 {
        self.bytes_received_by_peer
            .get(peer.index())
            .copied()
            .unwrap_or(0)
    }

    /// Average bytes sent per participating peer (0.0 when no peer sent data).
    pub fn mean_bytes_sent_per_peer(&self) -> f64 {
        if self.senders.is_empty() {
            return 0.0;
        }
        self.total_bytes() as f64 / self.senders.len() as f64
    }

    /// Maximum bytes *received* by any single peer (super-peers concentrate load here).
    pub fn max_bytes_received_by_any_peer(&self) -> u64 {
        self.bytes_received_by_peer
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Mean hops per recorded DHT lookup.
    pub fn mean_lookup_hops(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.total_hops as f64 / self.lookups as f64
    }

    /// Mean delivery latency over all delivered messages.
    pub fn mean_latency(&self) -> SimTime {
        if self.delivered == 0 {
            return SimTime::ZERO;
        }
        SimTime(self.latency_sum.0 / self.delivered)
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &SimStats) {
        for (&kind, ks) in &other.by_kind {
            let k = self.by_kind.entry(kind).or_default();
            k.messages += ks.messages;
            k.bytes += ks.bytes;
            k.bytes_dropped += ks.bytes_dropped;
            k.dropped += ks.dropped;
        }
        for (i, &b) in other.bytes_received_by_peer.iter().enumerate() {
            if b > 0 {
                bump(&mut self.bytes_received_by_peer, PeerId::from(i), b);
            }
        }
        for p in other.senders.ones() {
            self.senders.insert(p);
        }
        self.total_hops += other.total_hops;
        self.lookups += other.lookups;
        self.latency_sum += other.latency_sum;
        self.delivered += other.delivered;
        self.faults.merge(&other.faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimStats {
        /// Bytes delivered and bytes dropped, summed over the categories.
        fn delivered_and_dropped(&self) -> (u64, u64) {
            let kinds = self.by_kind.values();
            kinds.fold((0, 0), |(d, x), k| (d + k.bytes, x + k.bytes_dropped))
        }
    }

    #[test]
    fn delivery_accounting() {
        let mut s = SimStats::new();
        s.record_delivery(
            PeerId(0),
            PeerId(1),
            MessageKind::ModelPropagation,
            100,
            SimTime::from_millis(10),
        );
        s.record_delivery(
            PeerId(0),
            PeerId(2),
            MessageKind::ModelPropagation,
            50,
            SimTime::from_millis(30),
        );
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 150);
        assert_eq!(s.mean_bytes_sent_per_peer(), 150.0, "one sender");
        assert_eq!(s.bytes_received_by(PeerId(1)), 100);
        assert_eq!(s.delivery_rate(), 1.0);
        assert_eq!(s.mean_latency(), SimTime::from_millis(20));
        assert_eq!(s.kind(MessageKind::ModelPropagation).messages, 2);
        assert_eq!(s.kind(MessageKind::DhtLookup).messages, 0);
    }

    #[test]
    fn drops_lower_the_delivery_rate() {
        let mut s = SimStats::new();
        s.record_delivery(PeerId(0), PeerId(1), MessageKind::Other, 10, SimTime::ZERO);
        s.record_drop(PeerId(0), MessageKind::Other, 10);
        assert_eq!(s.total_dropped(), 1);
        assert!((s.delivery_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dropped_bytes_are_tracked_separately_from_delivered() {
        let mut s = SimStats::new();
        s.record_delivery(
            PeerId(0),
            PeerId(1),
            MessageKind::ModelPropagation,
            100,
            SimTime::ZERO,
        );
        s.record_drop(PeerId(0), MessageKind::ModelPropagation, 40);
        let k = s.kind(MessageKind::ModelPropagation);
        assert_eq!(k.bytes, 100, "delivered bytes exclude the drop");
        assert_eq!(k.bytes_dropped, 40);
        assert_eq!(k.bytes_sent(), 140);
        assert_eq!(s.total_bytes(), 140, "sent view counts both");
        assert_eq!(s.delivered_and_dropped().0, 100);
        assert_eq!(s.delivered_and_dropped().1, 40);
        // The one sender paid for the dropped bytes too.
        assert_eq!(s.mean_bytes_sent_per_peer(), 140.0);
        assert_eq!(s.bytes_received_by(PeerId(1)), 100);
    }

    #[test]
    fn bytes_sent_is_delivered_plus_dropped_across_kinds_and_merges() {
        // The wire-cost identity `bytes_sent() == bytes + bytes_dropped` must
        // hold per kind and in the totals, across a mixed traffic pattern and
        // after merging partial collectors.
        let mut s = SimStats::new();
        let kinds = [
            MessageKind::ModelPropagation,
            MessageKind::DhtLookup,
            MessageKind::Other,
        ];
        for (i, &kind) in kinds.iter().enumerate() {
            s.record_delivery(PeerId(0), PeerId(1), kind, 100 + i, SimTime::ZERO);
            s.record_drop(PeerId(2), kind, 10 * (i + 1));
            s.record_drop(PeerId(2), kind, 1);
        }
        for &kind in &kinds {
            let k = s.kind(kind);
            assert_eq!(k.bytes_sent(), k.bytes + k.bytes_dropped);
            assert_eq!(k.messages, 3);
            assert_eq!(k.dropped, 2);
        }
        assert_eq!(
            s.total_bytes(),
            s.delivered_and_dropped().0 + s.delivered_and_dropped().1
        );
        // 303 delivered + (10+1 + 20+1 + 30+1) dropped.
        assert_eq!(s.delivered_and_dropped().0, 303);
        assert_eq!(s.delivered_and_dropped().1, 63);
        assert_eq!(s.total_bytes(), 366);
        // Per-peer accounting matches: the two senders paid for drops too,
        // the receiver only saw deliveries.
        assert_eq!(s.mean_bytes_sent_per_peer(), 366.0 / 2.0);
        assert_eq!(s.bytes_received_by(PeerId(1)), 303);
        // The identity survives a merge of disjoint partial collectors.
        let mut other = SimStats::new();
        other.record_drop(PeerId(3), MessageKind::ModelPropagation, 500);
        other.record_delivery(
            PeerId(3),
            PeerId(0),
            MessageKind::DhtLookup,
            7,
            SimTime::ZERO,
        );
        let (sent_a, del_a, drop_a) = (
            s.total_bytes(),
            s.delivered_and_dropped().0,
            s.delivered_and_dropped().1,
        );
        s.merge(&other);
        assert_eq!(s.total_bytes(), sent_a + 507);
        assert_eq!(s.delivered_and_dropped().0, del_a + 7);
        assert_eq!(s.delivered_and_dropped().1, drop_a + 500);
        assert_eq!(
            s.total_bytes(),
            s.delivered_and_dropped().0 + s.delivered_and_dropped().1
        );
        for &kind in &kinds {
            let k = s.kind(kind);
            assert_eq!(k.bytes_sent(), k.bytes + k.bytes_dropped);
        }
    }

    #[test]
    fn lookup_hops_average() {
        let mut s = SimStats::new();
        s.record_lookup(3);
        s.record_lookup(5);
        assert_eq!(s.mean_lookup_hops(), 4.0);
        assert_eq!(SimStats::new().mean_lookup_hops(), 0.0);
    }

    #[test]
    fn per_peer_maxima() {
        let mut s = SimStats::new();
        s.record_delivery(PeerId(0), PeerId(9), MessageKind::Other, 10, SimTime::ZERO);
        s.record_delivery(PeerId(1), PeerId(9), MessageKind::Other, 30, SimTime::ZERO);
        assert_eq!(s.max_bytes_received_by_any_peer(), 40);
        assert!(s.mean_bytes_sent_per_peer() > 0.0);
    }

    #[test]
    fn mean_counts_participating_senders_only() {
        // Receivers that never sent must not dilute the per-peer mean, and
        // the denominator counts distinct senders, however sparse their ids.
        let mut s = SimStats::with_peers(1000);
        s.record_delivery(
            PeerId(5),
            PeerId(900),
            MessageKind::Other,
            100,
            SimTime::ZERO,
        );
        s.record_drop(PeerId(700), MessageKind::Other, 50);
        assert!((s.mean_bytes_sent_per_peer() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counters() {
        let mut a = SimStats::new();
        a.record_delivery(PeerId(0), PeerId(1), MessageKind::Other, 10, SimTime::ZERO);
        let mut b = SimStats::new();
        b.record_drop(PeerId(1), MessageKind::Other, 20);
        b.record_lookup(4);
        a.merge(&b);
        assert_eq!(a.total_messages(), 2);
        assert_eq!(a.total_bytes(), 30);
        assert_eq!(a.delivered_and_dropped().0, 10);
        assert_eq!(a.delivered_and_dropped().1, 20);
        assert_eq!(a.total_dropped(), 1);
        assert_eq!(a.mean_lookup_hops(), 4.0);
    }

    #[test]
    fn empty_stats_defaults() {
        let s = SimStats::new();
        assert_eq!(s.delivery_rate(), 1.0);
        assert_eq!(s.mean_latency(), SimTime::ZERO);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.mean_bytes_sent_per_peer(), 0.0);
    }
}
