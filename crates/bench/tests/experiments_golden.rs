//! Tier-1 pin of the experiment suite: the `--quick` run of every table
//! (E1–E9, A1, A2, CH1, C1) must reproduce `golden/experiments-quick.txt`
//! byte for byte. The default-scale run is pinned the same way by
//! `experiments --check golden/experiments.txt` in CI, and the orderings the
//! paper's claims rest on are asserted on that committed file here; the
//! chaos (CH1) and scenario (C1) grids' orderings on both files.
//!
//! A change that moves a row regenerates the file with
//! `cargo run --release -p bench --bin experiments -- --quick > crates/bench/golden/experiments-quick.txt`
//! and says in its description which rows moved and why.

use bench::chaos::standard_regimes;
use bench::experiments::{golden_diff, run_suite};
use std::collections::BTreeMap;

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

/// One rendered table of a golden file: header cells and rows of cells.
/// Columns are right-aligned and joined by two spaces, and no cell the
/// claims read holds two spaces in a row, so runs of two or more spaces
/// split a line into its cells.
struct GoldenTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl GoldenTable {
    fn column(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.header))
    }

    /// Column `column` of the one row whose `keys` columns read the given
    /// cells.
    fn cell(&self, keys: &[(&str, &str)], column: &str) -> &str {
        let keys: Vec<(usize, &str)> = keys.iter().map(|&(k, v)| (self.column(k), v)).collect();
        let matching: Vec<&Vec<String>> = self
            .rows
            .iter()
            .filter(|row| keys.iter().all(|&(k, v)| row[k] == v))
            .collect();
        let [row] = matching[..] else {
            panic!("{keys:?} matches {} rows", matching.len());
        };
        &row[self.column(column)]
    }

    /// Column `value` (a trailing `%` dropped) of the one row whose `keys`
    /// columns read the given cells.
    fn value(&self, keys: &[(&str, &str)], value: &str) -> f64 {
        let cell = self.cell(keys, value).trim_end_matches('%');
        cell.parse()
            .unwrap_or_else(|_| panic!("{value:?} cell {cell:?} is not a number"))
    }

    /// The distinct cells of column `key`, in first-appearance order.
    fn keys(&self, key: &str) -> Vec<&str> {
        let k = self.column(key);
        let mut keys: Vec<&str> = Vec::new();
        for row in &self.rows {
            if !keys.contains(&row[k].as_str()) {
                keys.push(&row[k]);
            }
        }
        keys
    }
}

fn cells(line: &str) -> Vec<String> {
    line.split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(String::from)
        .collect()
}

/// Every table of a golden file, keyed by its id (`"E1"`, …, `"C1"`).
fn golden_tables(golden: &str) -> BTreeMap<String, GoldenTable> {
    let mut tables = BTreeMap::new();
    let mut lines = golden.lines();
    while let Some(line) = lines.next() {
        let Some(title) = line.strip_prefix("## ") else {
            continue;
        };
        let id = title.split_whitespace().next().unwrap_or_default();
        let header = cells(lines.next().unwrap_or_default());
        lines.next(); // the dashed rule
        let rows = lines
            .by_ref()
            .take_while(|l| !l.trim().is_empty())
            .map(cells)
            .collect();
        tables.insert(id.to_string(), GoldenTable { header, rows });
    }
    tables
}

/// The orderings EXPERIMENTS.md's "Reading the tables" draws from the
/// default-scale run, each checked on `golden`. Returns the claims that do
/// not hold, one line each.
fn broken_claims(golden: &str) -> Vec<String> {
    let tables = golden_tables(golden);
    let table = |id: &str| {
        tables
            .get(id)
            .unwrap_or_else(|| panic!("no table {id} in the golden file"))
    };
    let mut broken = Vec::new();
    let mut claim = |holds: bool, what: String| {
        if !holds {
            broken.push(what);
        }
    };

    let e1 = table("E1");
    for metric in ["micro-F1", "macro-F1"] {
        let f1 = |protocol| e1.value(&[("protocol", protocol)], metric);
        for p2p in ["pace", "cempar"] {
            claim(
                f1("centralized") > f1(p2p),
                format!("E1: centralized beats {p2p} on {metric}"),
            );
            claim(
                f1(p2p) > f1("local-only"),
                format!("E1: {p2p} beats local-only on {metric}"),
            );
        }
    }

    let e4 = table("E4");
    let session = "mean session (s)";
    for length in e4.keys(session) {
        let unserved = |protocol| {
            e4.value(
                &[(session, length), ("protocol", protocol)],
                "unserved requests",
            )
        };
        claim(
            unserved("pace") == 0.0,
            format!("E4: PACE serves every request at session length {length}"),
        );
        claim(
            unserved("centralized") > unserved("pace")
                && unserved("centralized") > unserved("cempar"),
            format!("E4: centralized is the least served at session length {length}"),
        );
    }

    let e5 = table("E5");
    let messages = |overlay| e5.value(&[("overlay", overlay)], "messages/lookup");
    for flood in ["flood-ttl4", "flood-ttl6"] {
        claim(
            messages("chord-dht") < messages(flood),
            format!("E5: Chord uses fewer messages per lookup than {flood}"),
        );
    }

    let e7 = table("E7");
    let micro = |fraction, protocol| {
        e7.value(
            &[("train fraction", fraction), ("protocol", protocol)],
            "micro-F1",
        )
    };
    for p2p in ["pace", "cempar"] {
        let ratio = |fraction| micro(fraction, p2p) / micro(fraction, "local-only");
        claim(
            ratio("5%") > ratio("40%"),
            format!("E7: {p2p}'s micro-F1 ratio over local-only is larger at 5 % than at 40 %"),
        );
    }

    let a1 = table("A1");
    for ranking in ["lsh", "exact"] {
        let micro = |top_k| a1.value(&[("top-k", top_k), ("model ranking", ranking)], "micro-F1");
        for good in ["3", "7"] {
            for bad in ["1", "15"] {
                claim(
                    micro(good) > micro(bad),
                    format!("A1 ({ranking}): top-k {good} beats top-k {bad} on micro-F1"),
                );
            }
        }
    }

    let a2 = table("A2");
    for regions in a2.keys("regions") {
        let micro = |cascade| a2.value(&[("regions", regions), ("cascade", cascade)], "micro-F1");
        claim(
            micro("retrain") >= micro("pool-only"),
            format!("A2: retrain ≥ pool-only at {regions} regions"),
        );
    }
    broken
}

/// The orderings the chaos (CH1) and scenario (C1) grids are run to guard,
/// each checked on `golden` at whichever regimes and scenarios it holds.
/// Returns the claims that do not hold, one line each.
fn broken_grid_claims(golden: &str) -> Vec<String> {
    let tables = golden_tables(golden);
    let table = |id: &str| {
        tables
            .get(id)
            .unwrap_or_else(|| panic!("no table {id} in the golden file"))
    };
    let mut broken = Vec::new();
    let mut claim = |holds: bool, what: String| {
        if !holds {
            broken.push(what);
        }
    };

    let ch1 = table("CH1");
    let regimes = standard_regimes();
    for regime in ch1.keys("regime") {
        let value =
            |protocol, column| ch1.value(&[("regime", regime), ("protocol", protocol)], column);
        for protocol in ch1.keys("protocol") {
            claim(
                value(protocol, "macro-F1") > 0.1,
                format!("CH1: {protocol} keeps macro-F1 above 0.1 under {regime}"),
            );
        }
        if regimes.iter().any(|r| r.name == regime && r.loss > 0.0) {
            claim(
                value("pace", "dropped") + value("pace", "corrupted") > 0.0,
                format!("CH1: the network drops or corrupts PACE frames under {regime}"),
            );
            claim(
                value("pace", "macro-F1").max(value("cempar", "macro-F1"))
                    >= value("local-only", "macro-F1"),
                format!("CH1: max(PACE, CEMPaR) ≥ local-only on macro-F1 under {regime}"),
            );
        }
    }

    let c1 = table("C1");
    for scenario in c1.keys("scenario") {
        let value =
            |protocol, column| c1.value(&[("scenario", scenario), ("protocol", protocol)], column);
        claim(
            value("pace", "macro-F1") > 0.25,
            format!("C1: PACE keeps macro-F1 above 0.25 on {scenario}"),
        );
        if scenario == "benign" {
            // The scenario knobs are off: every protocol stays healthy.
            for protocol in c1.keys("protocol") {
                claim(
                    value(protocol, "macro-F1") > 0.4,
                    format!("C1: {protocol} keeps macro-F1 above 0.4 on benign"),
                );
            }
            claim(
                value("cempar", "macro-F1") >= value("local-only", "macro-F1"),
                "C1: CEMPaR ≥ local-only on macro-F1 on benign".to_string(),
            );
        }
        if scenario == "zipf-heavy" {
            // The tail stratum is no token one, and the peers with the fewest
            // manual taggings gain from their neighbours' knowledge.
            claim(
                value("cempar", "tail tags") >= 2.0,
                "C1: zipf-heavy's tail stratum holds at least 2 tags".to_string(),
            );
            claim(
                value("cempar", "cold macro-F1").max(value("pace", "cold macro-F1"))
                    >= value("local-only", "cold macro-F1"),
                "C1: max(CEMPaR, PACE) ≥ local-only on cold macro-F1 on zipf-heavy".to_string(),
            );
        }
        if c1.cell(&[("scenario", scenario), ("protocol", "pace")], "skewed") == "true" {
            claim(
                value("cempar", "tail F1").max(value("pace", "tail F1"))
                    >= value("local-only", "tail F1"),
                format!("C1: max(CEMPaR, PACE) ≥ local-only on tail F1 on {scenario}"),
            );
        }
    }
    broken
}

/// The paper's claims as the default-scale golden run shows them. CI's
/// `experiments --check` ties that file to the code, so a change that
/// breaks one of these orderings cannot land by regenerating the golden.
#[test]
fn default_scale_golden_keeps_the_papers_orderings() {
    let broken = broken_claims(include_str!("../golden/experiments.txt"));
    assert!(broken.is_empty(), "claims broken:\n{}", broken.join("\n"));
}

/// The claim checks read the cells they name: swapping E1's centralized
/// and local-only micro-F1 cells breaks exactly the claims comparing them.
#[test]
fn a_swapped_golden_cell_breaks_its_claims() {
    let golden = include_str!("../golden/experiments.txt");
    let swapped = golden
        .replace(
            "centralized     0.981     0.971",
            "centralized     0.706     0.971",
        )
        .replace(
            " local-only     0.706     0.535",
            " local-only     0.981     0.535",
        );
    let broken = broken_claims(&swapped);
    assert_eq!(
        broken,
        [
            "E1: centralized beats pace on micro-F1",
            "E1: pace beats local-only on micro-F1",
            "E1: centralized beats cempar on micro-F1",
            "E1: cempar beats local-only on micro-F1",
        ]
    );
}

/// The grid orderings hold on both committed goldens: the default-scale one
/// (every regime and scenario) and the quick one, which
/// `quick_suite_matches_its_golden_output` ties to the code.
#[test]
fn both_goldens_keep_the_grid_orderings() {
    for (name, golden) in [
        ("experiments.txt", include_str!("../golden/experiments.txt")),
        (
            "experiments-quick.txt",
            include_str!("../golden/experiments-quick.txt"),
        ),
    ] {
        let broken = broken_grid_claims(golden);
        assert!(
            broken.is_empty(),
            "grid claims broken in {name}:\n{}",
            broken.join("\n")
        );
    }
}

/// The grid claims read the cells they name: swapping zipf-heavy's CEMPaR
/// and local-only tail-F1 or cold macro-F1 cells, or loss-10's PACE and
/// local-only macro-F1 cells, breaks exactly the claim comparing them.
#[test]
fn a_swapped_grid_cell_breaks_its_claims() {
    let golden = include_str!("../golden/experiments.txt");
    let tail = golden
        .replace(
            "zipf-heavy       cempar    true  super-peer     0.908     0.782    0.922    0.712",
            "zipf-heavy       cempar    true  super-peer     0.908     0.782    0.922    0.549",
        )
        .replace(
            "zipf-heavy   local-only    true        none     0.882     0.662    0.889    0.549",
            "zipf-heavy   local-only    true        none     0.882     0.662    0.889    0.712",
        );
    assert_eq!(
        broken_grid_claims(&tail),
        ["C1: max(CEMPaR, PACE) ≥ local-only on tail F1 on zipf-heavy"]
    );
    let cold = golden
        .replace(
            "0.922    0.712          4          8          0.770",
            "0.922    0.712          4          8          0.602",
        )
        .replace(
            "0.889    0.549          4          8          0.602",
            "0.889    0.549          4          8          0.770",
        );
    assert_eq!(
        broken_grid_claims(&cold),
        ["C1: max(CEMPaR, PACE) ≥ local-only on cold macro-F1 on zipf-heavy"]
    );
    let macro_f1 = golden
        .replace(
            "loss-10         pace     0.881     0.845",
            "loss-10         pace     0.881     0.748",
        )
        .replace(
            "loss-10   local-only     0.833     0.748",
            "loss-10   local-only     0.833     0.845",
        );
    assert_eq!(
        broken_grid_claims(&macro_f1),
        ["CH1: max(PACE, CEMPaR) ≥ local-only on macro-F1 under loss-10"]
    );
}
