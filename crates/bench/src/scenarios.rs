//! Scenario regression matrix: the four protocols replayed over the
//! adversarial-workload scenarios of [`crate::workload::ScenarioSpec`].
//!
//! Each cell of the matrix streams one scenario's corpus through
//! [`doctagger::SessionDriver`] with one protocol and records the stratified
//! quality views the skewed regimes are designed to separate: overall
//! micro/macro-F1, head vs tail macro-F1 (tags split by ground-truth
//! popularity rank), and the pooled F1 of the cold-start peers (the quartile
//! with the fewest manual taggings). The paper's central claim — collaborative
//! tagging beats isolated per-peer learning — should *widen* on tail tags and
//! cold-start peers under skew, and that ordering is what `tests/scenarios.rs`
//! and the grid claims on the experiment goldens pin.
//!
//! The experiment suite renders the matrix as table C1
//! ([`crate::experiments::c1_scenarios`]); `EXPERIMENTS.md` §C1 records the
//! default-scale golden run.

use crate::workload::{Scale, ScenarioSpec};
use dataset::CorpusGenerator;
use doctagger::SessionDriver;

/// Fraction of positive-support tags counted as the "head" of the popularity
/// ranking; the rest are the tail.
pub const HEAD_FRACTION: f64 = 0.3;

/// Fraction of peers (those with the fewest manual taggings) pooled into the
/// cold-start stratum.
pub const COLD_START_FRACTION: f64 = 0.25;

/// The overlay architecture a protocol routes over, as a column label: the
/// flat-DHT ensemble (PACE) rides the Chord ring, the cascade (CEMPaR) a
/// super-peer hierarchy, the centralized reference a star, and local-only
/// nothing at all. The overlay-churn regime exists to separate the first two.
pub fn overlay_of(protocol: &str) -> &'static str {
    match protocol {
        "pace" => "chord-dht",
        "cempar" => "super-peer",
        "centralized" => "star",
        _ => "none",
    }
}

/// One protocol's stratified quality numbers on one scenario.
#[derive(Debug, Clone)]
pub struct ProtocolCell {
    /// Protocol name.
    pub protocol: String,
    /// Overlay architecture column label (see [`overlay_of`]).
    pub overlay: &'static str,
    /// Overall micro-averaged F1 over every auto-tag request.
    pub micro_f1: f64,
    /// Overall macro-averaged F1.
    pub macro_f1: f64,
    /// Macro-F1 over the head (most popular) tags.
    pub head_macro_f1: f64,
    /// Macro-F1 over the tail (rarest positive-support) tags.
    pub tail_macro_f1: f64,
    /// Number of head tags in the split.
    pub head_tags: usize,
    /// Number of tail tags in the split.
    pub tail_tags: usize,
    /// Macro-F1 pooled over the cold-start peers.
    pub cold_start_macro_f1: f64,
    /// Micro-F1 pooled over the cold-start peers.
    pub cold_start_micro_f1: f64,
    /// Total bytes exchanged over the session.
    pub bytes: u64,
}

/// One scenario's row of the matrix: one cell per protocol.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// One cell per protocol, in [`crate::workload::standard_protocols`] order.
    pub cells: Vec<ProtocolCell>,
}

#[cfg(test)]
impl ScenarioRow {
    /// The cell of a protocol by name, if present.
    pub fn cell(&self, protocol: &str) -> Option<&ProtocolCell> {
        self.cells.iter().find(|c| c.protocol == protocol)
    }
}

/// Number of cold-start peers pooled at a network size (≥ 1).
pub fn cold_peer_count(num_peers: usize) -> usize {
    ((num_peers as f64 * COLD_START_FRACTION).ceil() as usize).clamp(1, num_peers.max(1))
}

/// Replays one scenario with every standard protocol and returns its row.
pub fn measure_scenario(
    scenario: &ScenarioSpec,
    num_users: usize,
    scale: Scale,
    epochs: usize,
    seed: u64,
) -> ScenarioRow {
    let corpus = CorpusGenerator::new(scenario.corpus_spec(num_users, scale, seed)).generate();
    let cold_peers = cold_peer_count(corpus.num_users());
    let cells = crate::workload::standard_protocols(corpus.num_users())
        .into_iter()
        .map(|protocol| {
            let name = protocol.name().to_string();
            let mut driver =
                SessionDriver::new(protocol, scenario.session_config(epochs, seed), &corpus);
            let outcome = driver.run().expect("session completes");
            let split = outcome.final_metrics.head_tail(HEAD_FRACTION);
            let cold = outcome.cold_start_metrics(cold_peers);
            ProtocolCell {
                overlay: overlay_of(&name),
                protocol: name,
                micro_f1: outcome.final_micro_f1(),
                macro_f1: outcome.final_macro_f1(),
                head_macro_f1: split.head_macro_f1,
                tail_macro_f1: split.tail_macro_f1,
                head_tags: split.head_tags.len(),
                tail_tags: split.tail_tags.len(),
                cold_start_macro_f1: cold.macro_f1(),
                cold_start_micro_f1: cold.micro_f1(),
                bytes: driver.system().network_stats().total_bytes(),
            }
        })
        .collect();
    ScenarioRow { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_scenario_fills_every_protocol_cell() {
        let scenario = ScenarioSpec::named("zipf-heavy").unwrap();
        let row = measure_scenario(&scenario, 6, Scale::Small, 2, 11);
        assert_eq!(row.cells.len(), 4);
        for cell in &row.cells {
            assert!(cell.micro_f1 > 0.0, "{}", cell.protocol);
            assert!(cell.head_tags >= 1);
            assert!((0.0..=1.0).contains(&cell.tail_macro_f1));
            assert!((0.0..=1.0).contains(&cell.cold_start_macro_f1));
        }
        // Collaborative protocols move bytes; local-only moves none.
        assert!(row.cell("pace").unwrap().bytes > 0);
        assert_eq!(row.cell("local-only").unwrap().bytes, 0);
    }

    #[test]
    fn overlay_churn_regime_labels_overlay_columns() {
        let scenario = ScenarioSpec::named("overlay-churn").unwrap();
        assert!(!matches!(
            scenario.session_config(2, 5).churn,
            p2psim::churn::ChurnModel::None
        ));
        let row = measure_scenario(&scenario, 6, Scale::Small, 2, 5);
        assert_eq!(row.cell("pace").unwrap().overlay, "chord-dht");
        assert_eq!(row.cell("cempar").unwrap().overlay, "super-peer");
        assert_eq!(row.cell("local-only").unwrap().overlay, "none");
        for cell in &row.cells {
            assert!(
                cell.micro_f1 > 0.0,
                "{} collapsed under churn",
                cell.protocol
            );
        }
    }
}
