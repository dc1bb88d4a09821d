//! Tier-1 robustness regressions for the chaos regime grid.
//!
//! Two orderings are pinned, both straight from the paper's robustness
//! story: (a) collaborative tagging keeps its quality edge over isolated
//! per-peer learning when the network drops 10–20 % of frames (the reliable
//! link pays retransmissions to keep knowledge flowing), and (b) after a
//! partition heals, digest-based anti-entropy closes the quality gap — the
//! partitioned session's final macro-F1 lands within a small delta of the
//! same session without the partition.
//!
//! Constants are deliberately small (Small scale, few peers, seeded) so the
//! suite stays inside the tier-1 budget.

use bench::chaos::{fault_plan, measure_regime, standard_regimes, ChaosRegime, ChaosRow};
use bench::workload::Scale;

const PEERS: usize = 8;
const EPOCHS: usize = 3;
const SEED: u64 = 2010;

fn run(regime: &ChaosRegime) -> ChaosRow {
    measure_regime(regime, PEERS, Scale::Small, EPOCHS, SEED)
}

fn lossy(name: &'static str, loss: f64, partition: bool) -> ChaosRegime {
    ChaosRegime {
        name,
        loss,
        partition,
        crashes: false,
    }
}

/// The best collaborative cell of a row (PACE or CEMPaR, whichever held up
/// better — the paper's claim is about collaboration, not one protocol).
fn collaborative_macro(row: &ChaosRow) -> f64 {
    row.cell("pace")
        .unwrap()
        .macro_f1
        .max(row.cell("cempar").unwrap().macro_f1)
}

#[test]
fn collaborative_beats_local_only_at_10_and_20_percent_loss() {
    for loss in [0.10, 0.20] {
        let row = run(&lossy("loss", loss, false));
        let collaborative = collaborative_macro(&row);
        let local = row.cell("local-only").unwrap().macro_f1;
        assert!(
            collaborative > local,
            "at {:.0} % loss collaborative macro-F1 {collaborative:.3} \
             does not beat local-only {local:.3}",
            loss * 100.0
        );
        // The edge was earned under real fault pressure, not a dead plan.
        let pace = row.cell("pace").unwrap();
        assert!(
            pace.faults.total_fault_drops() + pace.faults.corrupted > 0,
            "fault plan never fired at {:.0} % loss",
            loss * 100.0
        );
        assert!(
            pace.faults.retransmits > 0,
            "reliable link never retransmitted at {:.0} % loss",
            loss * 100.0
        );
    }
}

#[test]
fn macro_f1_recovers_after_partition_heals() {
    // Same session with and without a mid-session overlay bisection; both
    // share the 5 % loss floor so the partition is the only variable.
    let partitioned = run(&lossy("partition", 0.05, true));
    let reference = run(&lossy("no-partition", 0.05, false));
    for protocol in ["pace", "cempar", "centralized"] {
        let part = partitioned.cell(protocol).unwrap();
        let refr = reference.cell(protocol).unwrap();
        // Anti-entropy must close the gap: the healed session's final
        // quality lands within a small delta of the never-partitioned run.
        assert!(
            part.macro_f1 >= refr.macro_f1 - 0.1,
            "{protocol}: partitioned final macro-F1 {:.3} fell more than 0.1 \
             below the unpartitioned {:.3}",
            part.macro_f1,
            refr.macro_f1
        );
    }
    // The partition really severed traffic for the collaborative protocols.
    assert!(
        partitioned
            .cell("pace")
            .unwrap()
            .faults
            .partition_drops
            .max(partitioned.cell("cempar").unwrap().faults.partition_drops)
            > 0,
        "no partition drops recorded — the window never cut the overlay"
    );
}

#[test]
fn standard_grid_covers_loss_partition_and_crash_axes() {
    let regimes = standard_regimes();
    assert!(regimes
        .iter()
        .any(|r| !fault_plan(r, EPOCHS, 600.0, PEERS).is_active()));
    assert!(regimes.iter().any(|r| r.loss >= 0.10 && r.loss <= 0.20));
    assert!(regimes.iter().any(|r| r.partition));
    assert!(regimes.iter().any(|r| r.crashes));
    assert!(regimes.iter().any(|r| r.partition && r.crashes));
}

#[test]
fn crash_restart_regime_recovers_state() {
    let row = run(&ChaosRegime {
        name: "crash",
        loss: 0.05,
        partition: false,
        crashes: true,
    });
    for cell in &row.cells {
        assert!(
            cell.macro_f1 > 0.1,
            "{} collapsed to {:.3} under crash-restarts",
            cell.protocol,
            cell.macro_f1
        );
    }
    // Crashes were scheduled and executed.
    assert!(
        row.cells.iter().any(|c| c.faults.crashes > 0),
        "no crash-restart events executed"
    );
    // The crash schedule draws from a stream of its own, so it does not
    // depend on how much traffic a protocol sends: every protocol crashes
    // alike.
    let crashes: Vec<(&str, u64)> = row
        .cells
        .iter()
        .map(|c| (c.protocol.as_str(), c.faults.crashes))
        .collect();
    assert!(
        crashes.iter().all(|&(_, n)| n == crashes[0].1),
        "protocols saw different crash schedules: {crashes:?}"
    );
}
