//! `benchmark compare A B`: applies the bounds in `BENCHMARK.json` to two
//! result files written with `run --out`.
//!
//! Each file holds one line per run. For every workload and end-to-end
//! metric the two sides' medians are compared; the change is given as a share
//! of A's median. A metric whose run-to-run spread (quartile distance over
//! median, on either side) is wider than its bound is `unresolved`, not `ok`
//! — unless every run of B reads better than every run of A.

use crate::json::{self, Value};
use crate::report::Better;
use crate::stats;
use std::collections::BTreeMap;

/// A metric's direction and regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Which way is better.
    pub better: Better,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// What `compare` concluded about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The runs spread wider than the bound; nothing can be concluded.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's values, one per run.
    pub a: Vec<f64>,
    /// B's values, one per run.
    pub b: Vec<f64>,
    /// `(median B − median A) / |median A|`.
    pub change: f64,
    /// The bound applied.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Reads the end-to-end metrics' directions and bounds from `BENCHMARK.json`.
pub fn read_bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let better = match m.get("better").and_then(Value::as_str) {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            other => return Err(format!("{name}: bad direction {other:?}")),
        };
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or(format!("{name}: no bound"))?;
        bounds.insert(name.to_string(), Bound { better, bound });
    }
    Ok(bounds)
}

/// `workload → metric → one value per run`, from a result file's untraced
/// lines. A run that was not correct is an error: its numbers mean nothing.
pub fn read_results(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if run.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        if run.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!(
                "line {}: the {workload} run was not correct",
                i + 1
            ));
        }
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", i + 1))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Judges one metric on one workload.
pub fn judge(a: &[f64], b: &[f64], bound: Bound) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = (mb - ma) / ma.abs();
    let worsening = match bound.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let better_than = |x: f64, y: f64| match bound.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread = [a, b]
        .iter()
        .filter_map(|side| stats::quartile_spread(side))
        .fold(0.0, f64::max);
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better_than(y, x)));
    let b_always_worse = b.iter().all(|&y| a.iter().all(|&x| better_than(x, y)));
    let verdict = if spread > bound.bound {
        if b_always_better {
            Verdict::Ok
        } else if b_always_worse && worsening > bound.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (change, verdict)
}

/// Compares two result files under the given bounds.
pub fn compare(
    bounds: &BTreeMap<String, Bound>,
    a_text: &str,
    b_text: &str,
) -> Result<Vec<Row>, String> {
    let a = read_results(a_text).map_err(|e| format!("A: {e}"))?;
    let b = read_results(b_text).map_err(|e| format!("B: {e}"))?;
    let mut rows = Vec::new();
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            return Err(format!("B has no runs of {workload}"));
        };
        for (metric, &bound) in bounds {
            let (Some(av), Some(bv)) = (a_metrics.get(metric), b_metrics.get(metric)) else {
                return Err(format!("{workload}: {metric} is missing on one side"));
            };
            let (change, verdict) = judge(av, bv, bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: av.clone(),
                b: bv.clone(),
                change,
                bound: bound.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, one row per workload and metric.
pub fn render(rows: &[Row]) -> String {
    let spread = |values: &[f64]| {
        stats::quartile_spread(values).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0))
    };
    let mut out = format!(
        "{:<15} {:<20} {:>16} {:>16} {:>14} {:>7} {:>15}  {}\n",
        "workload",
        "metric",
        "A median",
        "B median",
        "B vs A (of A)",
        "bound",
        "spread A / B",
        "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<20} {:>16.6} {:>16.6} {:>+13.2}% {:>6.0}% {:>7} / {:<6} {} (n={}/{})\n",
            r.workload,
            r.metric,
            stats::median(&r.a),
            stats::median(&r.b),
            r.change * 100.0,
            r.bound * 100.0,
            spread(&r.a),
            spread(&r.b),
            r.verdict.word(),
            r.a.len(),
            r.b.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: Bound = Bound {
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn steady_runs_within_the_bound_are_ok() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(judge(&a, &[1.05, 1.04, 1.06, 1.05], LOWER).1, Verdict::Ok);
        assert_eq!(judge(&a, &[0.95, 0.96, 0.94, 0.95], HIGHER).1, Verdict::Ok);
    }

    #[test]
    fn a_worsening_beyond_the_bound_regresses_in_the_metrics_direction() {
        let a = [1.00, 1.01, 0.99, 1.00];
        let slower = [1.20, 1.21, 1.19, 1.20];
        let (change, verdict) = judge(&a, &slower, LOWER);
        assert!((change - 0.20).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // The same numbers are a gain when higher is better.
        assert_eq!(judge(&a, &slower, HIGHER).1, Verdict::Ok);
        assert_eq!(judge(&slower, &a, HIGHER).1, Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_always_wins() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1];
        assert_eq!(judge(&noisy, &noisy, LOWER).1, Verdict::Unresolved);
        // Every B run beats every A run: resolved in B's favour.
        assert_eq!(judge(&noisy, &[0.5, 0.6, 0.7, 0.4], LOWER).1, Verdict::Ok);
        // Every B run loses to every A run, by more than the bound.
        assert_eq!(
            judge(&noisy, &[2.0, 2.6, 1.6, 2.4], LOWER).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_compare_without_a_spread() {
        assert_eq!(judge(&[2.0], &[2.1], LOWER).1, Verdict::Ok);
        assert_eq!(judge(&[2.0], &[2.5], LOWER).1, Verdict::Regressed);
    }

    #[test]
    fn files_are_grouped_by_workload_and_traced_lines_skipped() {
        let bounds = read_bounds(
            r#"{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let line = |w: &str, v: f64, trace: bool| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": {trace}, \"correct\": true, \
                 \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"run_s\": {{\"value\": {v}, \
                 \"unit\": \"s\", \"samples\": 3}}}}}}\n"
            )
        };
        let a = line("w1", 1.0, false) + &line("w2", 2.0, false) + &line("w1", 9.0, true);
        let b = line("w1", 1.05, false) + &line("w2", 2.5, false);
        let rows = compare(&bounds, &a, &b).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert!(render(&rows).contains("regressed"));
        // A failed run poisons the file.
        let bad = a.replace("\"correct\": true", "\"correct\": false");
        assert!(compare(&bounds, &bad, &b).is_err());
    }
}
