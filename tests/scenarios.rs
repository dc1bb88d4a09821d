//! Tier-1 scenario regression harness.
//!
//! The experiment suite renders the scenario matrix as table C1, and
//! `crates/bench/tests/experiments_golden.rs` asserts its orderings on both
//! committed goldens, which the quick golden test ties to the code. This file
//! keeps the central one cheap enough for every `cargo test` on a corpus of
//! its own size: under a skewed tag-popularity regime, collaboration keeps its
//! edge over local-only on the tail tags and for cold-start peers. It also
//! checks that no scenario knob leaks into the benign baseline, whose corpus
//! is the standard workload's bit for bit.

use bench::scenarios::{measure_scenario, ProtocolCell, ScenarioRow};
use bench::workload::{Scale, ScenarioSpec};

const USERS: usize = 10;
const EPOCHS: usize = 3;
const SEED: u64 = 2010;

/// The cell of a protocol in a scenario row.
fn cell<'a>(row: &'a ScenarioRow, protocol: &str) -> &'a ProtocolCell {
    row.cells
        .iter()
        .find(|c| c.protocol == protocol)
        .unwrap_or_else(|| panic!("{protocol} cell"))
}

#[test]
fn collaborative_beats_local_only_on_tail_tags_under_skew() {
    let scenario = ScenarioSpec::named("zipf-heavy").expect("scenario exists");
    assert!(scenario.is_skewed());
    let row = measure_scenario(&scenario, USERS, Scale::Small, EPOCHS, SEED);
    let cempar = cell(&row, "cempar");
    let pace = cell(&row, "pace");
    let local = cell(&row, "local-only");
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
    // The skew machinery sits behind `Option`/zero knobs and consumes no
    // randomness when disabled, so the benign corpus is the standard one.
    let benign = ScenarioSpec::benign();
    assert!(!benign.is_skewed());
    assert_eq!(
        benign.corpus_spec(USERS, Scale::Small, SEED),
        bench::workload::corpus_spec(USERS, Scale::Small, SEED)
    );
}
