//! Tier-1 scenario regression harness: the orderings the adversarial-workload
//! suite is designed to guard, pinned at unit-test scale.
//!
//! The experiment suite renders the full matrix at demo scale as table C1, and
//! `crates/bench/tests/experiments_golden.rs` asserts the same orderings on the
//! committed goldens; this test keeps the core claims cheap enough to run on
//! every `cargo test`:
//!
//! 1. Under a skewed tag-popularity regime, the collaborative protocols keep
//!    their edge over isolated per-peer learning on the *tail* of the
//!    popularity ranking — the paper's central claim, sharpened to where
//!    isolation hurts most.
//! 2. No scenario knob leaks into the benign baseline: the benign scenario
//!    must reproduce the standard workload bit-for-bit and stay healthy.

use bench::scenarios::measure_scenario;
use bench::workload::{Scale, ScenarioSpec};

const USERS: usize = 10;
const EPOCHS: usize = 3;
const SEED: u64 = 2010;

#[test]
fn collaborative_beats_local_only_on_tail_tags_under_skew() {
    let scenario = ScenarioSpec::named("zipf-heavy").expect("scenario exists");
    assert!(scenario.is_skewed());
    let row = measure_scenario(&scenario, USERS, Scale::Small, EPOCHS, SEED);
    let cempar = row.cell("cempar").expect("cempar cell");
    let pace = row.cell("pace").expect("pace cell");
    let local = row.cell("local-only").expect("local-only cell");
    // The tail stratum must be non-trivial for the comparison to mean much.
    assert!(cempar.tail_tags >= 2, "tail has {} tags", cempar.tail_tags);
    // The pinned ordering: the best collaborative protocol holds the tail.
    let collaborative = cempar.tail_macro_f1.max(pace.tail_macro_f1);
    assert!(
        collaborative >= local.tail_macro_f1,
        "collaborative tail-tag F1 {:.3} below local-only {:.3} under skew",
        collaborative,
        local.tail_macro_f1
    );
    // Cold-start peers benefit from collaboration too: the peers with the
    // fewest manual taggings lean hardest on their neighbours' knowledge.
    let collaborative_cold = cempar.cold_start_macro_f1.max(pace.cold_start_macro_f1);
    assert!(
        collaborative_cold >= local.cold_start_macro_f1,
        "collaborative cold-start F1 {:.3} below local-only {:.3} under skew",
        collaborative_cold,
        local.cold_start_macro_f1
    );
}

#[test]
fn no_scenario_knob_regresses_the_benign_baseline() {
    let benign = ScenarioSpec::benign();
    let row = measure_scenario(&benign, USERS, Scale::Small, EPOCHS, SEED);
    // The benign scenario must stay healthy for every protocol: the skew
    // machinery is all behind `Option`/zero knobs and consumes no randomness
    // when disabled, so a drop here means a knob leaked into the default path.
    for cell in &row.cells {
        assert!(
            cell.macro_f1 > 0.4,
            "benign macro-F1 collapsed to {:.3} for {}",
            cell.macro_f1,
            cell.protocol
        );
    }
    let cempar = row.cell("cempar").expect("cempar cell");
    let local = row.cell("local-only").expect("local-only cell");
    assert!(cempar.macro_f1 >= local.macro_f1);
    // And the benign corpus really is the pre-scenario workload.
    assert_eq!(
        benign.corpus_spec(USERS, Scale::Small, SEED),
        bench::workload::corpus_spec(USERS, Scale::Small, SEED)
    );
}
