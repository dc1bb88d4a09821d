//! Reliable delivery over the lossy round-based network.
//!
//! [`ReliableLink`] is the send path every protocol routes its frames
//! through. With [`ReliabilityConfig`] unset (the default) it is a strict
//! passthrough to [`P2PNetwork::send_frame`] (one copy) and
//! [`P2PNetwork::broadcast_frames`] (one copy of one frame per peer) — same bytes charged,
//! same RNG stream, bit-identical to the pre-reliability send path. With it
//! set, each frame travels as a sequence-numbered, checksummed
//! [`crate::wire::PayloadKind::Reliable`] wrapper:
//!
//! * every attempt (first try and each retransmit) charges the full wrapped
//!   frame in **measured wire bytes** — reliability is never free;
//! * the receiver acks intact frames with a real reverse
//!   [`MessageKind::Ack`] message that can itself be lost or corrupted;
//! * a corrupted frame (checksum mismatch, truncation) is treated as never
//!   delivered: dropped without an ack, never decoded into protocol state;
//! * a missing ack triggers a retransmit after an exponential backoff
//!   (`base * 2^attempt`), accounted as virtual latency — no wall clocks;
//! * the retry budget is bounded by [`ReliabilityConfig::max_attempts`];
//!   exhausting it surfaces [`DeliveryError::Lost`] so the caller can track
//!   the gap and repair it later via anti-entropy.
//!
//! Duplicate delivery (data arrived, ack lost, sender retransmitted) is
//! deduplicated by sequence number: the first intact copy is what the
//! receiver installs, later copies only re-arm the ack.

use crate::wire::{self, ReliabilityConfig};
use p2psim::message::MessageKind;
use p2psim::network::{DeliveryError, P2PNetwork, Payload};
use p2psim::peer::PeerId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Per-protocol send-path counters, surfaced by
/// [`crate::protocol::P2PTagClassifier::link_stats`].
///
/// Every protocol owns one [`ReliableLink`]; these counters make silently
/// ignored send failures impossible — the `send-unchecked` lint enforces the
/// routing, this struct makes the outcomes observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Logical payloads handed to the link (not counting retransmits).
    pub sends: u64,
    /// Payloads the receiver ended up holding an intact copy of.
    pub delivered: u64,
    /// Individual attempts dropped in transit (loss, burst, partition), or —
    /// on a passthrough link — delivered damaged and rejected by the
    /// receiver's strict decoder.
    pub lost_sends: u64,
    /// Sends that failed because a peer was offline (churn, crash).
    pub offline_drops: u64,
    /// Retransmission attempts after a missing or corrupted ack.
    pub retransmits: u64,
    /// Payloads that needed at least one retransmit but got through.
    pub recovered: u64,
    /// Frames that arrived damaged and were rejected by checksum/decode.
    pub corrupted_rx: u64,
    /// Payloads abandoned after the retry budget was exhausted.
    pub gave_up: u64,
    /// Anti-entropy re-sync payloads shipped after a crash or heal.
    pub resyncs: u64,
    /// Virtual exponential-backoff latency accumulated by retransmits.
    pub backoff_ms: u64,
}

/// How a frame delivery ended, for the protocols' "who received what"
/// bookkeeping. The split matters because the two failure classes carry
/// different semantics: a fault drop means the receiver provably missed the
/// payload (anti-entropy must repair it), while an offline failure keeps the
/// pre-fault churn semantics (the data waits for the peer's return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The receiver holds an intact (or validly decodable) copy.
    Arrived,
    /// Dropped by the fault layer (loss, partition, retry budget exhausted,
    /// or delivered corrupted and rejected by the receiver's strict decoder).
    FaultLost,
    /// A peer was offline — churn/crash, not transit loss.
    Offline,
}

impl SendOutcome {
    fn of<T>(sent: &Result<T, DeliveryError>) -> Self {
        match sent {
            Ok(_) => SendOutcome::Arrived,
            Err(DeliveryError::Lost | DeliveryError::Partitioned) => SendOutcome::FaultLost,
            Err(_) => SendOutcome::Offline,
        }
    }
}

/// The payload of a [`ReliableLink::broadcast`]: an encoded frame, sent to
/// each receiver as [`ReliableLink::deliver_frame`] would send it.
#[derive(Clone, Copy)]
pub struct Outgoing<'a> {
    /// Traffic category charged.
    pub kind: MessageKind,
    /// The encoded bytes every receiver is sent.
    pub frame: &'a [u8],
    /// The receiver's strict decoder, consulted only for a copy that was
    /// damaged in transit.
    pub validate: &'a dyn Fn(&[u8]) -> bool,
}

/// Virtual-ms delay charged before retransmit `attempt` (1-based):
/// `base · 2^(attempt−1)`, **saturating** at `u64::MAX` once the doubling
/// would overflow. A plain shift wraps past 63 doublings (and panics in
/// debug builds), which a large [`ReliabilityConfig::max_attempts`] budget
/// can legitimately reach; past that point the delay is astronomically
/// larger than any simulation horizon, so the saturated value is the honest
/// ceiling. Shared by [`ReliableLink`] and the sans-io
/// [`crate::sansio::ReliableCore`].
pub(crate) fn backoff_delay_ms(base_ms: u64, attempt: u32) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let shift = attempt.saturating_sub(1);
    base_ms
        .checked_shl(shift)
        .filter(|v| v >> shift == base_ms)
        .unwrap_or(u64::MAX)
}

/// Sequence-numbered reliable sender (one per protocol instance).
#[derive(Debug, Clone, Default)]
pub struct ReliableLink {
    reliability: Option<ReliabilityConfig>,
    next_seq: u64,
    stats: LinkStats,
}

impl ReliableLink {
    /// A link with the given retry policy (`None` = plain passthrough).
    pub fn new(reliability: Option<ReliabilityConfig>) -> Self {
        Self {
            reliability,
            next_seq: 0,
            stats: LinkStats::default(),
        }
    }

    /// The accumulated send-path counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Counts an anti-entropy payload shipped through this link.
    pub fn note_resync(&mut self) {
        self.stats.resyncs += 1;
    }

    /// Sends `frame` from `from` to `to`, returning the bytes the receiver
    /// actually holds afterwards (borrowed when they arrived intact).
    ///
    /// `accepts` is the receiver's strict decoder. Passthrough mode charges
    /// and fails exactly like a bare [`P2PNetwork::send_frame`], and consults
    /// `accepts` only for a copy that was damaged in transit: one it accepts
    /// is returned as delivered, one it rejects was never delivered
    /// ([`DeliveryError::Lost`]). Reliable mode runs the ack/retransmit loop
    /// documented on the module and only ever returns intact, deduplicated
    /// payload bytes.
    pub fn send_frame<'a>(
        &mut self,
        net: &mut P2PNetwork,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        frame: &'a [u8],
        accepts: impl FnOnce(&[u8]) -> bool,
    ) -> Result<Cow<'a, [u8]>, DeliveryError> {
        match self.reliability {
            None => {
                let sent = net
                    .send_frame(from, to, kind, frame)
                    .map(|delivery| delivery.corrupted);
                self.settle(frame, sent, accepts)
            }
            Some(cfg) => {
                self.stats.sends += 1;
                self.send_reliable(net, from, to, kind, frame, cfg)
            }
        }
    }

    /// Books one passthrough copy whose trip through the network ended as
    /// `sent` (`Ok(Some(bytes))` = arrived damaged). The one place a
    /// passthrough delivery is counted, shared by the point-to-point sends
    /// and [`Self::broadcast`]: a copy counts as delivered only once the
    /// receiver accepted its bytes, so `delivered + lost_sends +
    /// offline_drops == sends` holds whatever the fault layer does.
    fn settle<'a>(
        &mut self,
        frame: &'a [u8],
        sent: Result<Option<Vec<u8>>, DeliveryError>,
        accepts: impl FnOnce(&[u8]) -> bool,
    ) -> Result<Cow<'a, [u8]>, DeliveryError> {
        self.stats.sends += 1;
        let received = sent.and_then(|damaged| match damaged {
            None => Ok(Cow::Borrowed(frame)),
            Some(damaged) if accepts(&damaged) => Ok(Cow::Owned(damaged)),
            Some(_) => {
                self.stats.corrupted_rx += 1;
                Err(DeliveryError::Lost)
            }
        });
        match &received {
            Ok(_) => self.stats.delivered += 1,
            Err(e) => self.record_failure(*e),
        }
        received
    }

    /// Sends `part` from `from` to every other peer and hands `on_receiver`
    /// each receiver's outcome — [`Self::deliver_frame`] for each receiver,
    /// with identical [`LinkStats`] and network statistics.
    ///
    /// A passthrough link puts the whole fan-out through
    /// [`P2PNetwork::broadcast_frames`], which charges what does not depend
    /// on the receiver once. With reliability configured every receiver gets
    /// its own sequence-numbered wrapper, so the frames differ per receiver
    /// and each goes out through [`Self::send_frame`].
    pub fn broadcast(
        &mut self,
        net: &mut P2PNetwork,
        from: PeerId,
        part: Outgoing<'_>,
        mut on_receiver: impl FnMut(PeerId, SendOutcome),
    ) {
        if self.reliability.is_none() {
            let payload = Payload::Frame(part.frame);
            net.broadcast_frames(from, part.kind, payload, |to, sent| {
                let copy = sent.map(|delivery| delivery.corrupted);
                on_receiver(
                    to,
                    SendOutcome::of(&self.settle(part.frame, copy, part.validate)),
                );
            });
            return;
        }
        for to in net.peers().filter(|&to| to != from) {
            let outcome = self.deliver_frame(net, from, to, part.kind, part.frame, part.validate);
            on_receiver(to, outcome);
        }
    }

    fn send_reliable<'a>(
        &mut self,
        net: &mut P2PNetwork,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        frame: &'a [u8],
        cfg: ReliabilityConfig,
    ) -> Result<Cow<'a, [u8]>, DeliveryError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let wrapped = wire::encode_reliable(seq, frame);
        // Set once the receiver holds an intact copy (dedup by `seq`): later
        // attempts only try to get the ack back to the sender.
        let mut delivered = false;
        let mut last_err = DeliveryError::Lost;
        for attempt in 0..cfg.max_attempts {
            if attempt > 0 {
                self.stats.retransmits += 1;
                self.stats.backoff_ms = self
                    .stats
                    .backoff_ms
                    .saturating_add(backoff_delay_ms(cfg.backoff_base_ms, attempt));
                net.note_retransmit();
            }
            if !delivered {
                match net.send_frame(from, to, kind, &wrapped) {
                    Ok(delivery) => {
                        let seen: &[u8] = delivery.corrupted.as_deref().unwrap_or(&wrapped);
                        match wire::decode_reliable(seen) {
                            Ok((got_seq, _)) if got_seq == seq => delivered = true,
                            // Damaged in transit: no ack, sender times out.
                            _ => {
                                self.stats.corrupted_rx += 1;
                                last_err = DeliveryError::Lost;
                                continue;
                            }
                        }
                    }
                    Err(e @ (DeliveryError::SenderOffline | DeliveryError::ReceiverOffline)) => {
                        // Churn/crash, not loss: retrying at the same instant
                        // cannot help, and the offline paths keep their
                        // pre-reliability semantics.
                        self.record_failure(e);
                        return Err(e);
                    }
                    Err(e) => {
                        self.record_failure(e);
                        last_err = e;
                        continue;
                    }
                }
            }
            // Data is in: ack travels back over the same lossy channel.
            let ack = wire::encode_ack(seq);
            match net.send_frame(to, from, MessageKind::Ack, &ack) {
                Ok(delivery) => {
                    let seen: &[u8] = delivery.corrupted.as_deref().unwrap_or(&ack);
                    if wire::decode_ack(seen) == Ok(seq) {
                        self.stats.delivered += 1;
                        if attempt > 0 {
                            self.stats.recovered += 1;
                            net.note_recovered();
                        }
                        return Ok(Cow::Borrowed(frame));
                    }
                    self.stats.corrupted_rx += 1;
                }
                Err(e @ (DeliveryError::SenderOffline | DeliveryError::ReceiverOffline)) => {
                    // The receiver installed the payload before going quiet;
                    // the sender just never learns. Report success — the
                    // payload IS there — without a recovery claim.
                    self.record_failure(e);
                    self.stats.delivered += 1;
                    return Ok(Cow::Borrowed(frame));
                }
                Err(e) => self.record_failure(e),
            }
        }
        if delivered {
            // Every ack died but the data landed: the receiver holds it.
            self.stats.delivered += 1;
            self.stats.recovered += 1;
            net.note_recovered();
            return Ok(Cow::Borrowed(frame));
        }
        self.stats.gave_up += 1;
        Err(last_err)
    }

    /// [`Self::send_frame`] reduced to a [`SendOutcome`]: `validate` is the
    /// receiver's strict decoder, applied only when the delivered bytes were
    /// damaged in transit — a frame it rejects is dropped, never installed.
    pub fn deliver_frame(
        &mut self,
        net: &mut P2PNetwork,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        frame: &[u8],
        validate: impl FnOnce(&[u8]) -> bool,
    ) -> SendOutcome {
        SendOutcome::of(&self.send_frame(net, from, to, kind, frame, validate))
    }

    fn record_failure(&mut self, e: DeliveryError) {
        match e {
            DeliveryError::Lost | DeliveryError::Partitioned => self.stats.lost_sends += 1,
            _ => self.stats.offline_drops += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2psim::config::SimConfig;
    use p2psim::faults::FaultPlan;
    use p2psim::time::SimTime;

    fn net_with(loss: f64, corruption: f64, seed: u64) -> P2PNetwork {
        let faults = FaultPlan {
            loss,
            corruption: (corruption > 0.0).then_some(p2psim::faults::CorruptionFaults {
                probability: corruption,
                truncation: 0.3,
            }),
            ..FaultPlan::default()
        };
        P2PNetwork::new(SimConfig {
            num_peers: 8,
            seed,
            faults,
            ..SimConfig::default()
        })
    }

    fn frame() -> Vec<u8> {
        wire::encode_ack(0xABCD) // any valid frame works as a payload
    }

    #[test]
    fn passthrough_link_charges_like_bare_send() {
        let mut reliable_net = net_with(0.0, 0.0, 7);
        let mut bare_net = net_with(0.0, 0.0, 7);
        let mut link = ReliableLink::new(None);
        let payload = frame();
        for _ in 0..10 {
            let out = link
                .send_frame(
                    &mut reliable_net,
                    PeerId(1),
                    PeerId(2),
                    MessageKind::ModelPropagation,
                    &payload,
                    |_| true,
                )
                .unwrap();
            assert!(matches!(out, Cow::Borrowed(_)));
            bare_net
                .send_frame(
                    PeerId(1),
                    PeerId(2),
                    MessageKind::ModelPropagation,
                    &payload,
                )
                .unwrap();
        }
        assert_eq!(
            format!("{:?}", reliable_net.stats()),
            format!("{:?}", bare_net.stats())
        );
        assert_eq!(link.stats().sends, 10);
        assert_eq!(link.stats().delivered, 10);
        assert_eq!(link.stats().retransmits, 0);
    }

    #[test]
    fn passthrough_counts_a_delivery_only_once_the_receiver_accepted_it() {
        // Corruption only: every send reaches its receiver, some damaged.
        let mut net = net_with(0.0, 0.5, 29);
        let mut link = ReliableLink::new(None);
        let payload = wire::encode_digest(&[(7, 3), (9, 1), (11, 4)]);
        let accepts = |b: &[u8]| wire::decode_digest(b).is_ok();
        let mut decoded = 0;
        for i in 0..60u64 {
            let (from, to) = (PeerId(i % 8), PeerId((i + 3) % 8));
            // Both point-to-point entries, alternating.
            let arrived = if i % 2 == 0 {
                link.deliver_frame(
                    &mut net,
                    from,
                    to,
                    MessageKind::AntiEntropy,
                    &payload,
                    accepts,
                ) == SendOutcome::Arrived
            } else {
                match link.send_frame(
                    &mut net,
                    from,
                    to,
                    MessageKind::AntiEntropy,
                    &payload,
                    accepts,
                ) {
                    Ok(bytes) => {
                        assert!(
                            wire::decode_digest(&bytes).is_ok(),
                            "rejected bytes returned"
                        );
                        true
                    }
                    Err(e) => {
                        assert_eq!(e, DeliveryError::Lost);
                        false
                    }
                }
            };
            decoded += u64::from(arrived);
        }
        // And the broadcast entry.
        link.broadcast(
            &mut net,
            PeerId(2),
            Outgoing {
                kind: MessageKind::AntiEntropy,
                frame: &payload,
                validate: &accepts,
            },
            |_, outcome| decoded += u64::from(outcome == SendOutcome::Arrived),
        );
        let stats = *link.stats();
        assert_eq!(stats.sends, 67);
        assert_eq!(stats.delivered, decoded, "delivered = frames that decoded");
        assert_eq!(
            stats.delivered + stats.lost_sends + stats.offline_drops,
            stats.sends
        );
        assert_eq!(stats.offline_drops, 0);
        assert_eq!(
            stats.lost_sends, stats.corrupted_rx,
            "every loss is a rejection"
        );
        assert!(stats.corrupted_rx > 5, "corruption exercised: {stats:?}");
        // Some damage is survivable (a flipped bit inside a digest value
        // still decodes): damaged-and-accepted copies are deliveries.
        assert!(net.stats().faults.corrupted >= stats.corrupted_rx);
        assert_eq!(net.stats().total_delivered(), stats.sends);
    }

    /// `broadcast` against the per-receiver `deliver_frame` loop it
    /// replaces, on two networks built alike: same outcomes, link and network
    /// statistics.
    fn assert_broadcast_matches_deliver_loop(reliability: Option<ReliabilityConfig>, seed: u64) {
        let mut batched_net = net_with(0.2, 0.3, seed);
        let mut looped_net = net_with(0.2, 0.3, seed);
        let mut batched = ReliableLink::new(reliability);
        let mut looped = ReliableLink::new(reliability);
        let envelope = wire::encode_install(3, 1, &[&wire::encode_digest(&[(1, 1), (2, 2)])]);
        let accepts = |b: &[u8]| wire::decode_install(b).is_ok();
        for round in 0..6u64 {
            let from = PeerId(round % 8);
            let mut got = Vec::new();
            batched.broadcast(
                &mut batched_net,
                from,
                Outgoing {
                    kind: MessageKind::RefinementUpdate,
                    frame: &envelope,
                    validate: &accepts,
                },
                |to, outcome| got.push((to, outcome)),
            );
            let mut want = Vec::new();
            for to in looped_net.peers().filter(|&to| to != from) {
                let outcome = looped.deliver_frame(
                    &mut looped_net,
                    from,
                    to,
                    MessageKind::RefinementUpdate,
                    &envelope,
                    accepts,
                );
                want.push((to, outcome));
            }
            assert_eq!(got, want, "round {round}");
            assert_eq!(batched.stats(), looped.stats(), "round {round}");
            assert_eq!(
                format!("{:?}", batched_net.stats()),
                format!("{:?}", looped_net.stats()),
                "round {round}"
            );
        }
        let stats = batched.stats();
        assert!(stats.lost_sends > 0 && stats.corrupted_rx > 0, "{stats:?}");
    }

    #[test]
    fn broadcast_matches_the_deliver_loop_on_a_passthrough_link() {
        assert_broadcast_matches_deliver_loop(None, 31);
    }

    #[test]
    fn broadcast_matches_the_deliver_loop_with_reliability_configured() {
        assert_broadcast_matches_deliver_loop(Some(ReliabilityConfig::default()), 37);
    }

    #[test]
    fn reliable_link_recovers_from_heavy_loss() {
        let mut net = net_with(0.4, 0.0, 11);
        let mut link = ReliableLink::new(Some(ReliabilityConfig {
            max_attempts: 10,
            backoff_base_ms: 100,
        }));
        let payload = frame();
        let mut ok = 0;
        for _ in 0..50 {
            if link
                .send_frame(
                    &mut net,
                    PeerId(1),
                    PeerId(2),
                    MessageKind::ModelPropagation,
                    &payload,
                    |_| true,
                )
                .is_ok()
            {
                ok += 1;
            }
        }
        // 10 attempts at 40% loss: failure odds per payload ~ 1e-4.
        assert_eq!(ok, 50);
        assert!(link.stats().retransmits > 0);
        assert!(link.stats().recovered > 0);
        assert!(link.stats().backoff_ms > 0);
        assert_eq!(net.stats().faults.retransmits, link.stats().retransmits);
        assert_eq!(net.stats().faults.recovered, link.stats().recovered);
    }

    #[test]
    fn reliable_link_never_returns_corrupted_bytes() {
        let mut net = net_with(0.0, 0.5, 13);
        let mut link = ReliableLink::new(Some(ReliabilityConfig {
            max_attempts: 12,
            backoff_base_ms: 50,
        }));
        let payload = frame();
        for _ in 0..40 {
            let out = link
                .send_frame(
                    &mut net,
                    PeerId(3),
                    PeerId(4),
                    MessageKind::ModelPropagation,
                    &payload,
                    |_| true,
                )
                .unwrap();
            assert_eq!(out.as_ref(), payload.as_slice());
        }
        assert!(link.stats().corrupted_rx > 0, "corruption never exercised");
        assert!(net.stats().faults.corrupted > 0);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut net = net_with(1.0, 0.0, 17); // every send drops
        let mut link = ReliableLink::new(Some(ReliabilityConfig {
            max_attempts: 3,
            backoff_base_ms: 100,
        }));
        let payload = frame();
        let before = net.stats().total_bytes();
        let err = link
            .send_frame(
                &mut net,
                PeerId(1),
                PeerId(2),
                MessageKind::ModelPropagation,
                &payload,
                |_| true,
            )
            .unwrap_err();
        assert_eq!(err, DeliveryError::Lost);
        assert_eq!(link.stats().gave_up, 1);
        assert_eq!(link.stats().retransmits, 2); // attempts 2 and 3
                                                 // Every attempt charged the full wrapped frame.
        let wrapped_len = wire::encode_reliable(0, &payload).len() as u64;
        assert_eq!(net.stats().total_bytes() - before, 3 * wrapped_len);
        // Backoff doubles: 100 + 200.
        assert_eq!(link.stats().backoff_ms, 300);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing_past_63_doublings() {
        // The shift itself saturates…
        assert_eq!(backoff_delay_ms(250, 1), 250);
        assert_eq!(backoff_delay_ms(250, 2), 500);
        assert_eq!(backoff_delay_ms(250, 57), 250 << 56);
        assert_eq!(backoff_delay_ms(250, 58), u64::MAX); // 250·2^57 > u64::MAX
        assert_eq!(backoff_delay_ms(250, 64), u64::MAX);
        assert_eq!(backoff_delay_ms(250, 200), u64::MAX); // shift ≥ 64 (checked_shl arm)
        assert_eq!(backoff_delay_ms(1, 64), 1 << 63);
        assert_eq!(backoff_delay_ms(1, 65), u64::MAX);
        assert_eq!(backoff_delay_ms(0, 200), 0);
        // …and a link with a huge retry budget on a dead channel accumulates
        // the saturated ledger instead of panicking (debug) or wrapping
        // (release) on the 64th retransmit.
        let mut net = net_with(1.0, 0.0, 23); // every send drops
        let mut link = ReliableLink::new(Some(ReliabilityConfig {
            max_attempts: 80,
            backoff_base_ms: 250,
        }));
        let payload = frame();
        let err = link
            .send_frame(
                &mut net,
                PeerId(1),
                PeerId(2),
                MessageKind::ModelPropagation,
                &payload,
                |_| true,
            )
            .unwrap_err();
        assert_eq!(err, DeliveryError::Lost);
        assert_eq!(link.stats().retransmits, 79);
        assert_eq!(link.stats().backoff_ms, u64::MAX);
    }

    #[test]
    fn replays_are_bit_identical_under_loss() {
        let run = |seed| {
            let mut net = net_with(0.25, 0.2, seed);
            let mut link = ReliableLink::new(Some(ReliabilityConfig::default()));
            let payload = frame();
            let mut outcomes = String::new();
            for i in 0..30u64 {
                let from = PeerId(i % 7);
                let to = PeerId((i + 1) % 7);
                let sent = link.send_frame(
                    &mut net,
                    from,
                    to,
                    MessageKind::ModelPropagation,
                    &payload,
                    |_| true,
                );
                outcomes.push(if sent.is_ok() { '+' } else { '-' });
                net.advance(SimTime::from_millis(250));
            }
            (
                format!("{:?} {outcomes}", net.stats()),
                format!("{:?}", link.stats()),
            )
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }
}
