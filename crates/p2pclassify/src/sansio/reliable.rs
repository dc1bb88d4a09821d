//! Event-driven reliable delivery for the sans-io cores.
//!
//! [`ReliableCore`] is [`crate::reliable::ReliableLink`] re-expressed as a
//! state machine: where the link runs its ack/retransmit loop synchronously
//! against the simulated network, the core *returns* the sends and arms
//! timers, letting any driver (virtual-time simulator, wall-clock reactor)
//! execute them. The policy is identical — sequence-numbered checksummed
//! wrappers, dedup by seq, exponential backoff via the shared
//! `backoff_delay_ms`, a bounded retry budget — and the outcomes land in
//! the same [`LinkStats`] ledger.
//!
//! With reliability unset (the default, and the right choice over TCP, which
//! already retransmits) the core is a passthrough: `send` emits the frame
//! as-is, `on_frame` hands every frame straight back to the protocol.

use super::{LocalEffect, Millis, Output, TimerId};
use crate::reliable::{backoff_delay_ms, LinkStats};
use crate::wire::{self, PayloadKind, ReliabilityConfig};
use p2psim::message::MessageKind;
use p2psim::PeerId;
use std::collections::{BTreeMap, BTreeSet};

/// A payload awaiting its ack.
#[derive(Debug, Clone)]
struct Pending {
    to: PeerId,
    kind: MessageKind,
    wrapped: Vec<u8>,
    /// Transmissions so far (1 after the initial send).
    attempt: u32,
    /// When the next retransmit fires.
    deadline: Millis,
}

/// Sequence-numbered reliable sender/receiver (one per core).
#[derive(Debug, Clone, Default)]
pub struct ReliableCore {
    reliability: Option<ReliabilityConfig>,
    next_seq: u64,
    /// Unacked payloads by sequence number.
    pending: BTreeMap<u64, Pending>,
    /// Per-sender sequence numbers already delivered to the protocol, so a
    /// retransmitted copy re-arms the ack but installs nothing.
    seen: BTreeMap<u64, BTreeSet<u64>>,
    stats: LinkStats,
}

impl ReliableCore {
    /// A core with the given retry policy (`None` = plain passthrough).
    pub fn new(reliability: Option<ReliabilityConfig>) -> Self {
        Self {
            reliability,
            ..Self::default()
        }
    }

    /// The accumulated send-path counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Counts an anti-entropy payload shipped through this core.
    pub fn note_resync(&mut self) {
        self.stats.resyncs += 1;
    }

    /// Sends `frame` to `to`, pushing the emit (and, in reliable mode, the
    /// retransmit timer) onto `out`.
    pub fn send(
        &mut self,
        now: Millis,
        to: PeerId,
        kind: MessageKind,
        frame: Vec<u8>,
        out: &mut Vec<Output>,
    ) {
        self.stats.sends += 1;
        match self.reliability {
            None => {
                // Passthrough: the transport (TCP, or the lossless sim
                // queue) delivers or the driver surfaces the failure;
                // nothing here can observe a drop.
                self.stats.delivered += 1;
                out.push(Output::Emit { to, kind, frame });
            }
            Some(cfg) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let wrapped = wire::encode_reliable(seq, &frame);
                let deadline = now.saturating_add(backoff_delay_ms(cfg.backoff_base_ms, 1));
                out.push(Output::Emit {
                    to,
                    kind,
                    frame: wrapped.clone(),
                });
                out.push(Output::SetTimer {
                    id: TimerId(seq),
                    at: deadline,
                });
                self.pending.insert(
                    seq,
                    Pending {
                        to,
                        kind,
                        wrapped,
                        attempt: 1,
                        deadline,
                    },
                );
            }
        }
    }

    /// Processes one received frame. Returns the payload the protocol should
    /// decode, borrowed from `frame` — `None` when the frame was consumed by
    /// the reliability layer (an ack, a duplicate, a corrupted wrapper).
    ///
    /// Reliable wrappers are unwrapped (checksum-checked, deduplicated, and
    /// always re-acked); acks retire their pending entry; anything else
    /// passes through untouched.
    pub fn on_frame<'f>(
        &mut self,
        from: PeerId,
        frame: &'f [u8],
        out: &mut Vec<Output>,
    ) -> Option<&'f [u8]> {
        match wire::peek_kind(frame) {
            Some(PayloadKind::Reliable) => match wire::decode_reliable(frame) {
                Ok((seq, inner)) => {
                    // Ack every intact copy: the first ack may have been
                    // lost, and the sender retransmits until one lands.
                    out.push(Output::Emit {
                        to: from,
                        kind: MessageKind::Ack,
                        frame: wire::encode_ack(seq),
                    });
                    if self.seen.entry(from.0).or_default().insert(seq) {
                        Some(inner)
                    } else {
                        None
                    }
                }
                Err(_) => {
                    // Damaged in transit: never delivered, no ack — the
                    // sender's timer recovers it.
                    self.stats.corrupted_rx += 1;
                    None
                }
            },
            Some(PayloadKind::Ack) => {
                if let Ok(seq) = wire::decode_ack(frame) {
                    if let Some(p) = self.pending.remove(&seq) {
                        self.stats.delivered += 1;
                        if p.attempt > 1 {
                            self.stats.recovered += 1;
                        }
                        out.push(Output::CancelTimer { id: TimerId(seq) });
                    }
                }
                None
            }
            _ => Some(frame),
        }
    }

    /// Fires every retransmit deadline due at `now`: re-emits payloads whose
    /// ack is still missing, gives up on those whose retry budget ran out.
    pub fn poll_timers(&mut self, now: Millis, out: &mut Vec<Output>) {
        let Some(cfg) = self.reliability else {
            return;
        };
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in due {
            let p = self.pending.get_mut(&seq).expect("due seq is pending");
            if p.attempt >= cfg.max_attempts {
                self.pending.remove(&seq);
                self.stats.gave_up += 1;
                out.push(Output::Effect(LocalEffect::GaveUp { seq }));
                continue;
            }
            // The wait that just elapsed is the backoff ledger entry; the
            // next wait doubles (saturating, like the monolithic link).
            self.stats.backoff_ms = self
                .stats
                .backoff_ms
                .saturating_add(backoff_delay_ms(cfg.backoff_base_ms, p.attempt));
            self.stats.retransmits += 1;
            p.attempt += 1;
            p.deadline = now.saturating_add(backoff_delay_ms(cfg.backoff_base_ms, p.attempt));
            out.push(Output::Emit {
                to: p.to,
                kind: p.kind,
                frame: p.wrapped.clone(),
            });
            out.push(Output::SetTimer {
                id: TimerId(seq),
                at: p.deadline,
            });
        }
    }

    /// The earliest pending retransmit deadline, if any.
    #[cfg(test)]
    pub fn next_deadline(&self) -> Option<Millis> {
        self.pending.values().map(|p| p.deadline).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inner payload the reliability layer must not intercept (digest
    /// frames belong to the protocol, unlike acks/reliable wrappers).
    fn payload() -> Vec<u8> {
        wire::encode_digest(&[(1, 2)])
    }

    #[test]
    fn passthrough_emits_verbatim_and_consumes_nothing() {
        let mut tx = ReliableCore::new(None);
        let mut out = Vec::new();
        tx.send(
            0,
            PeerId(2),
            MessageKind::ModelPropagation,
            payload(),
            &mut out,
        );
        assert_eq!(
            out,
            vec![Output::Emit {
                to: PeerId(2),
                kind: MessageKind::ModelPropagation,
                frame: payload(),
            }]
        );
        assert_eq!(tx.stats().sends, 1);
        assert_eq!(tx.stats().delivered, 1);
        // Receiver side: a non-reliable frame passes straight through.
        let mut rx = ReliableCore::new(None);
        let mut out = Vec::new();
        assert_eq!(
            rx.on_frame(PeerId(1), &payload(), &mut out),
            Some(&payload()[..])
        );
        assert!(out.is_empty());
    }

    #[test]
    fn reliable_roundtrip_acks_dedups_and_cancels() {
        let cfg = ReliabilityConfig {
            max_attempts: 4,
            backoff_base_ms: 100,
        };
        let mut tx = ReliableCore::new(Some(cfg));
        let mut rx = ReliableCore::new(Some(cfg));
        let mut out = Vec::new();
        tx.send(
            0,
            PeerId(2),
            MessageKind::ModelPropagation,
            payload(),
            &mut out,
        );
        let wrapped = match &out[0] {
            Output::Emit { frame, .. } => frame.clone(),
            other => panic!("expected emit, got {other:?}"),
        };
        assert_eq!(
            out[1],
            Output::SetTimer {
                id: TimerId(0),
                at: 100
            }
        );

        // First copy delivers the inner payload and acks.
        let mut rx_out = Vec::new();
        assert_eq!(
            rx.on_frame(PeerId(1), &wrapped, &mut rx_out),
            Some(&payload()[..])
        );
        let ack = match &rx_out[0] {
            Output::Emit { to, kind, frame } => {
                assert_eq!((*to, *kind), (PeerId(1), MessageKind::Ack));
                frame.clone()
            }
            other => panic!("expected ack emit, got {other:?}"),
        };
        // A duplicate re-acks but delivers nothing.
        let mut dup_out = Vec::new();
        assert_eq!(rx.on_frame(PeerId(1), &wrapped, &mut dup_out), None);
        assert_eq!(dup_out.len(), 1);

        // The ack retires the pending entry and cancels the timer.
        let mut ack_out = Vec::new();
        assert_eq!(tx.on_frame(PeerId(2), &ack, &mut ack_out), None);
        assert_eq!(ack_out, vec![Output::CancelTimer { id: TimerId(0) }]);
        assert_eq!(tx.stats().delivered, 1);
        assert_eq!(tx.next_deadline(), None);
        // A late timer poll is a no-op.
        let mut late = Vec::new();
        tx.poll_timers(10_000, &mut late);
        assert!(late.is_empty());
    }

    #[test]
    fn missing_ack_retransmits_with_doubling_backoff_then_gives_up() {
        let cfg = ReliabilityConfig {
            max_attempts: 3,
            backoff_base_ms: 100,
        };
        let mut tx = ReliableCore::new(Some(cfg));
        let mut out = Vec::new();
        tx.send(
            0,
            PeerId(2),
            MessageKind::ModelPropagation,
            payload(),
            &mut out,
        );
        assert_eq!(tx.next_deadline(), Some(100));

        // First retransmit at t=100; next deadline doubles to +200.
        let mut out = Vec::new();
        tx.poll_timers(100, &mut out);
        assert!(matches!(out[0], Output::Emit { .. }));
        assert_eq!(
            out[1],
            Output::SetTimer {
                id: TimerId(0),
                at: 300
            }
        );
        assert_eq!(tx.stats().retransmits, 1);
        assert_eq!(tx.stats().backoff_ms, 100);

        // Second retransmit at t=300.
        let mut out = Vec::new();
        tx.poll_timers(300, &mut out);
        assert!(matches!(out[0], Output::Emit { .. }));
        assert_eq!(tx.stats().retransmits, 2);
        assert_eq!(tx.stats().backoff_ms, 300); // 100 + 200, like the link

        // Budget exhausted: give-up effect, nothing pending.
        let mut out = Vec::new();
        tx.poll_timers(700, &mut out);
        assert_eq!(out, vec![Output::Effect(LocalEffect::GaveUp { seq: 0 })]);
        assert_eq!(tx.stats().gave_up, 1);
        assert_eq!(tx.next_deadline(), None);
    }

    #[test]
    fn corrupted_wrapper_is_dropped_without_ack() {
        let cfg = ReliabilityConfig::default();
        let mut rx = ReliableCore::new(Some(cfg));
        let wrapped = wire::encode_reliable(7, &payload());
        let mut corrupt = wrapped.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let mut out = Vec::new();
        assert_eq!(rx.on_frame(PeerId(3), &corrupt, &mut out), None);
        assert!(out.is_empty(), "no ack for a damaged frame");
        assert_eq!(rx.stats().corrupted_rx, 1);
        // The intact retransmission then delivers normally.
        let mut out = Vec::new();
        assert_eq!(
            rx.on_frame(PeerId(3), &wrapped, &mut out),
            Some(&payload()[..])
        );
        assert_eq!(out.len(), 1);
    }
}
