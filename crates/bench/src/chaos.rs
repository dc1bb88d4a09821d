//! Chaos regime grid: the four protocols replayed under deterministic fault
//! injection (loss × partition × crash-restart).
//!
//! Each cell streams a session through [`doctagger::SessionDriver`] with a
//! [`FaultPlan`] installed in the simulated network and the reliability layer
//! (sequence-numbered ack/retransmit sends plus digest-based anti-entropy)
//! switched on for the faulty regimes. The grid answers the robustness
//! questions the fault layer exists to ask:
//!
//! - does collaborative tagging keep its edge over isolated per-peer learning
//!   when 10–20 % of frames are dropped or damaged in transit?
//! - does quality recover after a partition heals (anti-entropy re-sync)?
//! - do crash-restarted peers rebuild their in-memory state?
//!
//! The `baseline` regime runs with a fully disabled plan and reliability off:
//! it is byte-identical to a run on a build without the fault layer and is
//! the reference column the faulty cells are compared against.
//!
//! The experiment suite renders the grid as table CH1
//! ([`crate::experiments::ch1_chaos`]); `EXPERIMENTS.md` records the
//! default-scale golden run.

use crate::workload::{corpus_spec, standard_protocols, Scale};
use dataset::CorpusGenerator;
use doctagger::{SessionConfig, SessionDriver};
use p2pclassify::{LinkStats, ReliabilityConfig};
use p2psim::churn::ChurnModel;
use p2psim::faults::{FaultPlan, PartitionScope, PartitionWindow};
use p2psim::stats::FaultStats;

/// One point of the loss × partition × crash grid.
#[derive(Debug, Clone)]
pub struct ChaosRegime {
    /// Row label.
    pub name: &'static str,
    /// Independent per-send loss probability (the burst channel and frame
    /// corruption scale with it, see [`FaultPlan::chaos`]).
    pub loss: f64,
    /// Whether a partition window bisects the overlay mid-session.
    pub partition: bool,
    /// Whether peers crash-restart (losing in-memory protocol state).
    pub crashes: bool,
}

/// The standard grid: a fault-free reference, the two loss rates the paper
/// claim is pinned at, a mid-session partition, crash-restarts, and the
/// all-hazards combination.
pub fn standard_regimes() -> Vec<ChaosRegime> {
    vec![
        ChaosRegime {
            name: "baseline",
            loss: 0.0,
            partition: false,
            crashes: false,
        },
        ChaosRegime {
            name: "loss-10",
            loss: 0.10,
            partition: false,
            crashes: false,
        },
        ChaosRegime {
            name: "loss-20",
            loss: 0.20,
            partition: false,
            crashes: false,
        },
        ChaosRegime {
            name: "partition",
            loss: 0.05,
            partition: true,
            crashes: false,
        },
        ChaosRegime {
            name: "crash",
            loss: 0.05,
            partition: false,
            crashes: true,
        },
        ChaosRegime {
            name: "chaos-full",
            loss: 0.15,
            partition: true,
            crashes: true,
        },
    ]
}

/// The regime's fault plan for a session of `epochs` × `epoch_secs` over
/// `num_peers` peers. Session traffic flows at epoch boundaries (multiples
/// of `epoch_secs`), so the partition window is centered on the *middle*
/// boundary — one epoch's exchanges run bisected, the window heals before
/// the next boundary, and the remaining epochs measure anti-entropy
/// recovery. A regime with every knob off returns the inactive default
/// plan, which draws no randomness at all.
pub fn fault_plan(
    regime: &ChaosRegime,
    epochs: usize,
    epoch_secs: f64,
    num_peers: usize,
) -> FaultPlan {
    if regime.loss <= 0.0 && !regime.partition && !regime.crashes {
        return FaultPlan::default();
    }
    let partition = regime.partition.then(|| {
        let mid = (epochs / 2) as f64 * epoch_secs;
        PartitionWindow {
            start_secs: (mid - epoch_secs * 0.5).max(0.0) as u64,
            end_secs: (mid + epoch_secs * 0.5) as u64,
            scope: PartitionScope::Index {
                pivot: num_peers / 2,
            },
        }
    });
    FaultPlan::chaos(regime.loss, partition, regime.crashes)
}

/// One protocol's outcome under one regime.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Protocol name.
    pub protocol: String,
    /// Final micro-averaged F1.
    pub micro_f1: f64,
    /// Final macro-averaged F1 (the acceptance metric).
    pub macro_f1: f64,
    /// Per-epoch macro-F1 trajectory — the recovery curve: under the
    /// partition regimes the mid-session dip must close again by the final
    /// epoch.
    pub epoch_macro_f1: Vec<f64>,
    /// Auto-tag requests that failed over the whole session.
    pub auto_failed: usize,
    /// Total bytes exchanged (retransmissions and anti-entropy included —
    /// reliability is paid for in measured wire bytes).
    pub bytes: u64,
    /// The network's fault counters (drops, corruption, crashes, ...).
    pub faults: FaultStats,
    /// The protocol's reliable-link counters (retransmits, give-ups,
    /// re-syncs, corrupted frames rejected).
    pub link: LinkStats,
}

/// One regime's row: one cell per protocol.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// One cell per protocol, in [`standard_protocols`] order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosRow {
    /// The cell of a protocol by name, if present.
    pub fn cell(&self, protocol: &str) -> Option<&ChaosCell> {
        self.cells.iter().find(|c| c.protocol == protocol)
    }
}

/// Replays one regime with every standard protocol and returns its row.
pub fn measure_regime(
    regime: &ChaosRegime,
    num_users: usize,
    scale: Scale,
    epochs: usize,
    seed: u64,
) -> ChaosRow {
    let corpus = CorpusGenerator::new(corpus_spec(num_users, scale, seed)).generate();
    let epoch_secs = 600.0;
    let plan = fault_plan(regime, epochs, epoch_secs, corpus.num_users());
    // Every faulty regime sends over the reliable link; the baseline does not.
    let reliability = plan.is_active().then(ReliabilityConfig::default);
    let cells = standard_protocols(corpus.num_users())
        .into_iter()
        .map(|protocol| {
            let name = protocol.name().to_string();
            let config = SessionConfig {
                epochs,
                epoch_secs,
                churn: ChurnModel::None,
                faults: plan.clone(),
                incremental: true,
                seed,
                ..SessionConfig::default()
            };
            let mut driver =
                SessionDriver::new(protocol.with_reliability(reliability), config, &corpus);
            let outcome = driver.run().expect("chaos session completes");
            let stats = driver.system().network_stats();
            ChaosCell {
                micro_f1: outcome.final_micro_f1(),
                macro_f1: outcome.final_macro_f1(),
                epoch_macro_f1: outcome.epochs.iter().map(|e| e.macro_f1).collect(),
                auto_failed: outcome.epochs.iter().map(|e| e.auto_failed).sum(),
                bytes: stats.total_bytes(),
                faults: stats.faults,
                link: driver.system().protocol_link_stats(),
                protocol: name,
            }
        })
        .collect();
    ChaosRow { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_regime_has_an_inactive_plan() {
        let regimes = standard_regimes();
        let baseline = &regimes[0];
        assert_eq!(baseline.name, "baseline");
        assert!(!fault_plan(baseline, 4, 600.0, 8).is_active());
        for r in &regimes[1..] {
            assert!(fault_plan(r, 4, 600.0, 8).is_active(), "{}", r.name);
        }
    }

    /// The network's fault counters and the protocol's reliable-link ledger
    /// count the same retransmits, recoveries and re-syncs on every cell,
    /// which is why table CH1 prints only the link's columns.
    fn assert_one_retransmit_ledger(row: &ChaosRow, regime: &str) {
        for cell in &row.cells {
            let (net, link) = (&cell.faults, &cell.link);
            assert_eq!(
                (net.retransmits, net.recovered, net.resyncs),
                (link.retransmits, link.recovered, link.resyncs),
                "{} under {}: the network's and the link's ledgers disagree",
                cell.protocol,
                regime
            );
        }
    }

    #[test]
    fn lossy_regime_fills_cells_and_reports_fault_activity() {
        let regime = ChaosRegime {
            name: "loss-10",
            loss: 0.10,
            partition: false,
            crashes: false,
        };
        let row = measure_regime(&regime, 6, Scale::Small, 2, 7);
        assert_eq!(row.cells.len(), 4);
        for cell in &row.cells {
            assert!(cell.micro_f1 > 0.0, "{} collapsed", cell.protocol);
            assert_eq!(cell.epoch_macro_f1.len(), 2);
        }
        // The lossy network really dropped frames, and the reliable link of
        // at least one collaborative protocol really retransmitted.
        let pace = row.cell("pace").unwrap();
        assert!(pace.faults.total_fault_drops() + pace.faults.corrupted > 0);
        assert!(pace.link.sends > 0);
        assert!(pace.link.retransmits > 0);
        // Local-only never sends: its link ledger stays empty.
        let local = row.cell("local-only").unwrap();
        assert_eq!(local.link, LinkStats::default());
        assert_eq!(local.bytes, 0);
        assert_one_retransmit_ledger(&row, "loss-10");

        let crash = standard_regimes()
            .into_iter()
            .find(|r| r.name == "crash")
            .unwrap();
        // Crash-restarts fire here, and PACE's anti-entropy re-syncs after them.
        let row = measure_regime(&crash, 6, Scale::Small, 3, 2010);
        assert!(row.cells.iter().all(|c| c.faults.crashes > 0));
        assert!(row.cell("pace").unwrap().link.resyncs > 0);
        assert_one_retransmit_ledger(&row, "crash");
    }

    #[test]
    fn baseline_regime_matches_fault_free_run_exactly() {
        // The whole point of the disabled plan: a session under the baseline
        // regime is bit-identical (stats and quality) to one that never heard
        // of the fault layer.
        let regime = &standard_regimes()[0];
        let row = measure_regime(regime, 5, Scale::Small, 2, 13);
        let corpus = dataset::CorpusGenerator::new(corpus_spec(5, Scale::Small, 13)).generate();
        for cell in &row.cells {
            let protocol = standard_protocols(corpus.num_users())
                .into_iter()
                .find(|p| p.name() == cell.protocol)
                .unwrap();
            let config = SessionConfig {
                epochs: 2,
                epoch_secs: 600.0,
                churn: ChurnModel::None,
                incremental: true,
                seed: 13,
                ..SessionConfig::default()
            };
            let mut driver = SessionDriver::new(protocol, config, &corpus);
            let outcome = driver.run().unwrap();
            assert_eq!(cell.micro_f1, outcome.final_micro_f1(), "{}", cell.protocol);
            assert_eq!(cell.macro_f1, outcome.final_macro_f1(), "{}", cell.protocol);
            assert_eq!(
                format!("{:?}", cell.faults),
                format!("{:?}", driver.system().network_stats().faults),
                "{}",
                cell.protocol
            );
            assert_eq!(cell.bytes, driver.system().network_stats().total_bytes());
        }
    }
}
