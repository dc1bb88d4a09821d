//! Message envelopes and message-kind tagging for cost accounting.

use crate::peer::PeerId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Categories of protocol traffic tracked separately by the statistics layer.
///
/// The communication-cost experiment (E3) reports bytes broken down by these
/// categories, matching the phases of the CEMPaR and PACE protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MessageKind {
    /// Overlay maintenance traffic (joins, stabilization, finger updates).
    OverlayMaintenance,
    /// DHT lookup / routing hops.
    DhtLookup,
    /// Propagation of a trained model (support vectors, or PACE's weight
    /// vectors and cluster centroids in one install envelope).
    ModelPropagation,
    /// Raw training-data transfer (only the Centralized baseline does this).
    TrainingData,
    /// An untagged document vector sent for prediction (CEMPaR query).
    PredictionQuery,
    /// A prediction / tag assignment sent back to the requester.
    PredictionResponse,
    /// Tag-refinement updates propagated after user corrections.
    RefinementUpdate,
    /// Reliability-layer acknowledgements for sequence-numbered sends.
    Ack,
    /// Anti-entropy digests and re-sync payloads exchanged after a crash
    /// restart or partition heal.
    AntiEntropy,
    /// Anything else (tests, custom applications).
    Other,
}

impl MessageKind {
    /// Stable display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::OverlayMaintenance => "overlay-maintenance",
            MessageKind::DhtLookup => "dht-lookup",
            MessageKind::ModelPropagation => "model-propagation",
            MessageKind::TrainingData => "training-data",
            MessageKind::PredictionQuery => "prediction-query",
            MessageKind::PredictionResponse => "prediction-response",
            MessageKind::RefinementUpdate => "refinement-update",
            MessageKind::Ack => "ack",
            MessageKind::AntiEntropy => "anti-entropy",
            MessageKind::Other => "other",
        }
    }

    /// All kinds, in display order.
    pub fn all() -> &'static [MessageKind] {
        &[
            MessageKind::OverlayMaintenance,
            MessageKind::DhtLookup,
            MessageKind::ModelPropagation,
            MessageKind::TrainingData,
            MessageKind::PredictionQuery,
            MessageKind::PredictionResponse,
            MessageKind::RefinementUpdate,
            MessageKind::Ack,
            MessageKind::AntiEntropy,
            MessageKind::Other,
        ]
    }
}

/// A message in flight inside the discrete-event engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope<P> {
    /// Sending peer.
    pub from: PeerId,
    /// Destination peer.
    pub to: PeerId,
    /// Traffic category for accounting.
    pub kind: MessageKind,
    /// Payload size in bytes charged to the physical network.
    pub size_bytes: usize,
    /// Time the message was sent.
    pub sent_at: SimTime,
    /// Application payload.
    pub payload: P,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = MessageKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MessageKind::all().len());
    }

    #[test]
    fn envelope_roundtrip() {
        let e = Envelope {
            from: PeerId(1),
            to: PeerId(2),
            kind: MessageKind::Other,
            size_bytes: 128,
            sent_at: SimTime::from_millis(3),
            payload: "hello".to_string(),
        };
        assert_eq!(e.from, PeerId(1));
        assert_eq!(e.size_bytes, 128);
        assert_eq!(e.payload, "hello");
    }
}
