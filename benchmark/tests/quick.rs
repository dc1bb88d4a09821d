//! Runs every workload at toy size through the real binary — untraced and
//! traced — and holds what it prints against `BENCHMARK.json`: the same
//! names, the same units, every end-to-end metric with a bound and a
//! direction.

use benchmark::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "pace-session",
    "cempar-session",
    "bulk-learn",
    "peerd-loopback",
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn members<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is not a string in {value:?}"))
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `name → unit` of the metrics declared under `key`.
fn declared(doc: &Value, key: &str) -> BTreeMap<String, String> {
    members(doc, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

/// Runs the binary at toy size and returns the parsed result line.
fn run_quick(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--quick", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "0.5", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    for word in [
        "seed 7",
        "nproc",
        "pinned to 2 threads",
        "loopback interface",
    ] {
        assert!(stderr.contains(word), "header lacks `{word}`:\n{stderr}");
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(keys(&result), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    result
}

/// What one run printed must be exactly what `BENCHMARK.json` declares.
fn assert_matches_declaration(result: &Value, declared: &BTreeMap<String, String>, what: &str) {
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let expected: BTreeSet<&str> = declared.keys().map(String::as_str).collect();
    assert_eq!(
        printed, expected,
        "{what}: printed and declared names differ"
    );
    for (name, metric) in metrics {
        assert!(is_name(name), "{what}: bad metric name `{name}`");
        assert_eq!(keys(metric), ["unit", "value"], "{what}: {name}");
        assert_eq!(
            text(metric, "unit"),
            declared[name],
            "{what}: unit of {name}"
        );
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} is not a finite number: {metric:?}"
        );
    }
}

fn quick_pass(workload: &str) {
    let doc = benchmark_json();
    let end_to_end = run_quick(workload, "0");
    assert_matches_declaration(&end_to_end, &declared(&doc, "end_to_end"), workload);
    for (name, metric) in end_to_end
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap()
    {
        assert!(
            metric.get("value").and_then(Value::as_f64).unwrap() > 0.0,
            "{workload}: end-to-end metric {name} is not positive"
        );
    }
    let per_layer = run_quick(workload, "1");
    assert_matches_declaration(&per_layer, &declared(&doc, "per_layer"), workload);

    let trace_path = format!(
        "{}/out/trace-{workload}-quick.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let trace = json::parse(&std::fs::read_to_string(&trace_path).expect("trace file written"))
        .expect("trace file parses");
    let spans = members(&trace, "spans");
    for top in ["setup", "run", "probes"] {
        assert!(
            spans
                .iter()
                .any(|s| text(s, "name") == top && s.get("parent") == Some(&Value::Null)),
            "{workload}: no top-level `{top}` span"
        );
    }
    assert!(!members(&trace, "attribution").is_empty());
}

#[test]
fn pace_session_quick() {
    quick_pass("pace-session");
}

#[test]
fn cempar_session_quick() {
    quick_pass("cempar-session");
}

#[test]
fn bulk_learn_quick() {
    quick_pass("bulk-learn");
}

#[test]
fn peerd_loopback_quick() {
    quick_pass("peerd-loopback");
}

#[test]
fn run_without_a_workload_runs_each_in_its_own_process_and_compare_reads_the_files() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (a, b) = (format!("{dir}/a.jsonl"), format!("{dir}/b.jsonl"));
    for out in [&a, &b] {
        let _ = std::fs::remove_file(out);
        let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(["run", "--quick", "--seconds", "0.2", "--out", out])
            .status()
            .expect("the benchmark binary runs");
        assert!(status.success());
        let lines = std::fs::read_to_string(out).unwrap();
        assert_eq!(lines.lines().count(), WORKLOADS.len());
        for workload in WORKLOADS {
            assert!(lines.contains(&format!("\"workload\": \"{workload}\"")));
        }
    }
    // Same commit, same seed: what is deterministic must be bit-equal, and
    // compare prints one row per workload and end-to-end metric. (Toy sizes
    // are too noisy to assert on the timing verdicts.)
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["compare", &a, &b])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&output.stdout);
    let doc = benchmark_json();
    let rows = WORKLOADS.len() * members(&doc, "end_to_end").len();
    assert!(table.contains(&format!("{rows} rows")), "{table}");
    for metric in [
        "macro_f1",
        "served_share",
        "net_bytes_per_peer",
        "net_msgs_per_peer",
    ] {
        for line in table.lines().filter(|l| l.contains(metric)) {
            assert!(line.contains("+0.00%") && line.contains(" ok "), "{line}");
        }
    }
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command = members(&doc, "command");
    assert!(command.len() <= 32 && command.iter().all(|c| c.as_str().is_some()));
    assert_eq!(members(&doc, "paths"), [Value::String("benchmark".into())]);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = members(&doc, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(!why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'));
    }

    let end_to_end = members(&doc, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        assert!(["lower", "higher"].contains(&text(m, "better")));
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest = end_to_end
        .iter()
        .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));

    let per_layer = members(&doc, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["better", "name", "unit"]);
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }

    let mut seen = BTreeSet::new();
    for m in end_to_end.iter().chain(per_layer).chain(workloads) {
        let name = text(m, "name");
        assert!(is_name(name), "bad name `{name}`");
        assert!(seen.insert(name), "`{name}` is used twice");
        if let Some(unit) = m.get("unit") {
            assert!(is_unit(unit.as_str().unwrap()), "bad unit in {m:?}");
        }
    }

    // The code and the declaration agree on the end-to-end metrics.
    let in_code: BTreeMap<String, String> = benchmark::report::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), in_code);
    for metric in &benchmark::report::END_TO_END {
        let declared = end_to_end
            .iter()
            .find(|m| text(m, "name") == metric.name)
            .unwrap();
        assert_eq!(
            text(declared, "better"),
            metric.better.word(),
            "{}",
            metric.name
        );
    }
}
