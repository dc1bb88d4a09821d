//! Turning repetitions into named metrics, and printing them.

use crate::json;
use crate::spec::{self, Workload};
use crate::stats;
use crate::workloads::Rep;

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where an end-to-end metric's value comes from.
#[derive(Clone, Copy)]
pub enum Source {
    /// A timing: the median over every repetition the budget allowed.
    Timed(fn(&Rep) -> f64),
    /// An exact function of the inputs (quality, availability, traffic): the
    /// median over the first [`spec::MIN_REPS`] repetitions only — the ones
    /// every run makes — so it repeats bit for bit when a seed is run again.
    Exact(fn(&Rep) -> f64),
    /// A property of the whole process.
    Process(fn() -> f64),
}

/// One end-to-end metric: its name, unit, direction and definition.
/// `BENCHMARK.json` adds the regression bound.
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// How it is measured.
    pub source: Source,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        source,
    }
}

/// The end-to-end metrics; every workload reports every one.
pub const END_TO_END: [EndToEnd; 11] = [
    metric("setup_s", "s", Better::Lower, Source::Timed(|r| r.setup_s)),
    metric("run_s", "s", Better::Lower, Source::Timed(|r| r.run_s)),
    metric(
        "ingest_docs_per_s",
        "docs/s",
        Better::Higher,
        Source::Timed(|r| r.ingest.rate()),
    ),
    metric(
        "learn_docs_per_s",
        "docs/s",
        Better::Higher,
        Source::Timed(|r| r.learn.rate()),
    ),
    metric(
        "refine_per_s",
        "1/s",
        Better::Higher,
        Source::Timed(|r| r.refine.rate()),
    ),
    metric(
        "autotag_docs_per_s",
        "docs/s",
        Better::Higher,
        Source::Timed(|r| r.tag.rate()),
    ),
    metric(
        "macro_f1",
        "ratio",
        Better::Higher,
        Source::Exact(|r| r.macro_f1),
    ),
    metric(
        "served_share",
        "ratio",
        Better::Higher,
        Source::Exact(Rep::served_share),
    ),
    metric(
        "net_bytes_per_peer",
        "bytes",
        Better::Lower,
        Source::Exact(|r| r.net_bytes as f64 / r.peers as f64),
    ),
    metric(
        "net_msgs_per_peer",
        "count",
        Better::Lower,
        Source::Exact(|r| r.net_msgs as f64 / r.peers as f64),
    ),
    metric(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        Source::Process(peak_rss_mb),
    ),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Measurements behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric backed by `samples` measurements.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }

    /// `"name": {"value": …, "unit": …}`, with the sample count on request
    /// (the contract's result line must not carry it).
    pub fn to_json(&self, with_samples: bool) -> String {
        let samples = match with_samples {
            true => format!(", \"samples\": {}", self.samples),
            false => String::new(),
        };
        format!(
            "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
            json::quote(&self.name),
            json::number(self.value),
            json::quote(self.unit)
        )
    }
}

/// The members of a JSON object holding `metrics`.
pub fn metrics_to_json(metrics: &[Metric], with_samples: bool) -> String {
    let members: Vec<String> = metrics.iter().map(|m| m.to_json(with_samples)).collect();
    format!("{{{}}}", members.join(", "))
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run (see [`Source`] for which repetitions
/// each uses).
pub fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let median_of = |reps: &[Rep], value: fn(&Rep) -> f64| {
        let values: Vec<f64> = reps.iter().map(value).collect();
        (stats::median(&values), values.len())
    };
    END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = match m.source {
                Source::Timed(value) => median_of(reps, value),
                Source::Exact(value) => median_of(&reps[..spec::MIN_REPS.min(reps.len())], value),
                Source::Process(value) => (value(), 1),
            };
            Metric::new(m.name, value, m.unit, samples)
        })
        .collect()
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations that went wrong.
    pub failed: u64,
    /// The metrics: end-to-end for an untraced run, per-layer for a traced one.
    pub metrics: Vec<Metric>,
    /// Every correctness check that failed.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric a value and a unit.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_to_json(&self.metrics, false)
        )
    }

    /// The line appended to an `--out` file: the contract's members plus
    /// what `compare` groups by, and the sample count of every metric.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {}}}",
            json::quote(self.workload.name()),
            self.seed,
            self.traced,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_to_json(&self.metrics, true)
        )
    }

    /// The table for people, written to standard error.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {}): {} — {} operations attempted, {} failed\n",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<44} {:>18.6} {:<7} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        for problem in &self.problems {
            out.push_str(&format!("FAILED CHECK: {problem}\n"));
        }
        out
    }
}
