//! System configuration: which P2P classification protocol to plug in, how the
//! network is simulated, and how suggestions are filtered.

use p2pclassify::{
    Cempar, CemparConfig, Centralized, CentralizedConfig, LocalOnly, P2PTagClassifier, Pace,
    PaceConfig, ReliabilityConfig,
};
use p2psim::SimConfig;

/// The pluggable P2P classification component (§2: "the P2P classification
/// algorithm in P2PDocTagger is a pluggable component").
#[derive(Debug, Clone)]
pub enum ProtocolKind {
    /// CEMPaR: cascade kernel SVM over DHT super-peers.
    Cempar(CemparConfig),
    /// PACE: adaptive linear-SVM ensemble with an LSH model index.
    Pace(PaceConfig),
    /// Centralized baseline (all data shipped to one server).
    Centralized(CentralizedConfig),
    /// Local-only baseline (no collaboration).
    LocalOnly,
}

impl ProtocolKind {
    /// CEMPaR with default parameters.
    pub fn cempar() -> Self {
        ProtocolKind::Cempar(CemparConfig::default())
    }

    /// PACE with default parameters.
    pub fn pace() -> Self {
        ProtocolKind::Pace(PaceConfig::default())
    }

    /// Centralized baseline with default parameters.
    pub fn centralized() -> Self {
        ProtocolKind::Centralized(CentralizedConfig::default())
    }

    /// Local-only baseline with default parameters.
    pub fn local_only() -> Self {
        ProtocolKind::LocalOnly
    }

    /// Returns the same protocol with the reliable-delivery layer set: `Some`
    /// turns on sequence-numbered ack/retransmit sends, `None` restores the
    /// fire-and-forget default. Local-only never sends and carries no wire
    /// settings, so for it this is a no-op.
    pub fn with_reliability(mut self, reliability: Option<ReliabilityConfig>) -> Self {
        match &mut self {
            ProtocolKind::Cempar(c) => c.reliability = reliability,
            ProtocolKind::Pace(c) => c.reliability = reliability,
            ProtocolKind::Centralized(c) => c.reliability = reliability,
            ProtocolKind::LocalOnly => {}
        }
        self
    }

    /// Short name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Cempar(_) => "cempar",
            ProtocolKind::Pace(_) => "pace",
            ProtocolKind::Centralized(_) => "centralized",
            ProtocolKind::LocalOnly => "local-only",
        }
    }

    /// Instantiates the protocol.
    pub fn build(&self) -> Box<dyn P2PTagClassifier> {
        match self {
            ProtocolKind::Cempar(c) => Box::new(Cempar::new(c.clone())),
            ProtocolKind::Pace(c) => Box::new(Pace::new(c.clone())),
            ProtocolKind::Centralized(c) => Box::new(Centralized::new(c.clone())),
            ProtocolKind::LocalOnly => Box::new(LocalOnly::new()),
        }
    }
}

impl Default for ProtocolKind {
    fn default() -> Self {
        ProtocolKind::pace()
    }
}

/// Configuration of a [`crate::system::P2PDocTagger`] instance.
#[derive(Debug, Clone)]
pub struct DocTaggerConfig {
    /// Which P2P classification protocol to plug in.
    pub protocol: ProtocolKind,
    /// Simulated network environment. When `None`, the network size is derived
    /// from the ingested corpus (one peer per user).
    pub network: Option<SimConfig>,
    /// Default confidence threshold of the suggestion cloud's slider.
    pub confidence_threshold: f64,
    /// Seed for any system-level randomness (peer assignment, etc.).
    pub seed: u64,
}

impl Default for DocTaggerConfig {
    fn default() -> Self {
        Self {
            protocol: ProtocolKind::default(),
            network: None,
            confidence_threshold: 0.5,
            seed: 2010,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names() {
        assert_eq!(ProtocolKind::cempar().name(), "cempar");
        assert_eq!(ProtocolKind::pace().name(), "pace");
        assert_eq!(ProtocolKind::centralized().name(), "centralized");
        assert_eq!(ProtocolKind::local_only().name(), "local-only");
    }

    #[test]
    fn build_instantiates_the_right_protocol() {
        assert_eq!(ProtocolKind::cempar().build().name(), "cempar");
        assert_eq!(ProtocolKind::pace().build().name(), "pace");
        assert_eq!(ProtocolKind::centralized().build().name(), "centralized");
        assert_eq!(ProtocolKind::local_only().build().name(), "local-only");
    }

    #[test]
    fn default_config_is_sensible() {
        let c = DocTaggerConfig::default();
        assert!(c.network.is_none());
        assert!(c.confidence_threshold > 0.0 && c.confidence_threshold < 1.0);
        assert_eq!(c.protocol.name(), "pace");
    }
}
