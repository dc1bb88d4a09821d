//! Tier-1 pin of the experiment suite: the `--quick` run of every table
//! (E1–E9, A1, A2) must reproduce `golden/experiments-quick.txt` byte for
//! byte. The default-scale run is pinned the same way by
//! `experiments --check golden/experiments.txt` in CI.
//!
//! A change that moves a row regenerates the file with
//! `cargo run --release -p bench --bin experiments -- --quick > crates/bench/golden/experiments-quick.txt`
//! and says in its description which rows moved and why.

use bench::experiments::{golden_diff, run_suite};

#[test]
fn quick_suite_matches_its_golden_output() {
    let golden = include_str!("../golden/experiments-quick.txt");
    let mut run = String::new();
    run_suite(
        true,
        |_| true,
        |table| {
            run.push_str(&format!("{}\n", table.render()));
        },
    );
    if let Some(report) = golden_diff(golden, &run) {
        panic!("the quick experiment suite moved:\n{report}");
    }
}

#[test]
fn golden_diff_names_each_moved_line() {
    assert_eq!(golden_diff("a\nb\n", "a\nb\n"), None);
    assert_eq!(
        golden_diff("a\nb\n", "a\nc\nd\n").as_deref(),
        Some("line 2:\n- b\n+ c\nline 3:\n+ d\n")
    );
    assert!(golden_diff("a\n", "a").is_some());
}
