//! The `run` command: repetitions of one workload until the time budget is
//! spent, correctness checks, and the metrics of the run.

use crate::clock;
use crate::json;
use crate::probes;
use crate::report::{self, RunResult};
use crate::spec::{self, Size, Workload};
use crate::trace::Tracer;
use crate::workloads::{self, Rep};

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of the input generators.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Problem size.
    pub size: Size,
}

/// The seed of repetition `rep`: the run's seed itself for the first, then
/// seeds derived from it. One corpus is one draw from the generator, and a
/// draw moves throughput by several percent; a run therefore measures a
/// series of draws and reports their median, which is what makes two runs
/// with different `--seed`s comparable.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    match rep {
        0 => seed,
        _ => p2psim::peer::mix64(seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    }
}

/// Runs one untimed warm-up repetition (allocator, page cache and lazy
/// statics settle), then repeats the workload until `seconds` have passed
/// (at least [`spec::MIN_REPS`] times), handing each repetition the tracer
/// `tracer_for` picks for it. The warm-up replays repetition 0's seed and
/// comes back first, so the caller can check the replay. With `vary_seeds`
/// off every repetition replays the run's seed, so that repetitions differ
/// by nothing but noise and what the caller changed between them.
pub fn repeat(
    workload: Workload,
    options: &Options,
    seconds: f64,
    vary_seeds: bool,
    mut tracer_for: impl FnMut(usize) -> Tracer,
) -> (Rep, Vec<(Rep, Tracer)>) {
    let warm_up = workloads::run_rep(workload, options.size, options.seed, &mut Tracer::off());
    let start = clock::now_s();
    let mut reps = Vec::new();
    while reps.len() < spec::MIN_REPS || clock::now_s() - start < seconds {
        let mut tracer = tracer_for(reps.len());
        let seed = rep_seed(options.seed, if vary_seeds { reps.len() } else { 0 });
        let rep = workloads::run_rep(workload, options.size, seed, &mut tracer);
        reps.push((rep, tracer));
    }
    (warm_up, reps)
}

/// Sums the operation counts and collects every failed check. Replaying a
/// seed must reproduce quality, counts and traffic bit for bit: the warm-up
/// and repetition 0 ran the same seed.
pub fn verdict(warm_up: &Rep, reps: &[Rep]) -> (u64, u64, Vec<String>) {
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let mut failed = reps.iter().map(|r| r.failed).sum();
    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
    if warm_up.fingerprint != reps[0].fingerprint {
        failed += 1;
        problems.push(format!(
            "replay diverged: the same seed gave {:?}, then {:?}",
            warm_up.fingerprint, reps[0].fingerprint
        ));
    }
    (attempted, failed, problems)
}

/// The untraced run: end-to-end metrics, tracing off.
pub fn end_to_end(workload: Workload, options: &Options) -> RunResult {
    let (warm_up, reps) = repeat(workload, options, options.seconds, true, |_| Tracer::off());
    let reps: Vec<Rep> = reps.into_iter().map(|(rep, _)| rep).collect();
    let (attempted, failed, problems) = verdict(&warm_up, &reps);
    let f1: Vec<f64> = reps.iter().map(|r| r.macro_f1).collect();
    eprintln!(
        "{} repetitions after the warm-up; macro-F1 per repetition {:.4} .. {:.4}; run_s per repetition {}",
        reps.len(),
        f1.iter().copied().fold(f64::INFINITY, f64::min),
        f1.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        reps.iter()
            .map(|r| format!("{:.3}", r.run_s))
            .collect::<Vec<_>>()
            .join(" "),
    );
    RunResult {
        workload,
        seed: options.seed,
        traced: false,
        attempted,
        failed,
        metrics: report::end_to_end(&reps),
        problems,
    }
}

/// Share of the `--seconds` budget the traced run spends repeating the
/// workload (alternately with the tracer on and off); the probes use the rest.
const TRACED_REPS_SHARE: f64 = 0.5;
/// Shortest time one probe measures for, as a share of `--seconds`.
const PROBE_SHARE: f64 = 0.005;

/// One phase of the timed section, measured and explained.
struct Attribution {
    phase: &'static str,
    measured_s: f64,
    explained_s: f64,
}

/// How much of each phase the probes' unit costs explain: the work the phase
/// did, times what a unit of that work cost when the layer was probed alone.
fn attribute(
    workload: Workload,
    options: &Options,
    rep: &Rep,
    costs: &probes::protocols::UnitCosts,
    sink: &probes::Sink<'_>,
) -> Vec<Attribution> {
    let secs = |name: &str, scale: f64| sink.get(name).unwrap_or(0.0) / scale;
    let measured = |phase: &str| rep.phases.get(phase).copied().unwrap_or(0.0);
    let explained: Vec<(&'static str, f64)> = match workload {
        Workload::PaceSession | Workload::CemparSession => {
            let epochs = spec::session_spec(workload, options.size).epochs;
            vec![
                ("learn", rep.learn.count as f64 * costs.incremental_per_doc),
                ("refine", rep.refine.count as f64 * costs.refine),
                ("autotag", rep.tag.count as f64 * costs.predict_per_doc),
                (
                    "other",
                    (epochs - 1) as f64 * secs("p2psim.advance_ms_per_epoch", 1e3),
                ),
            ]
        }
        Workload::BulkLearn => vec![
            (
                "ingest",
                rep.ingest.count as f64 * secs("textproc.fit_transform_us_per_doc", 1e6),
            ),
            ("learn", rep.learn.count as f64 * costs.train_per_doc),
            ("autotag", rep.tag.count as f64 * costs.predict_per_doc),
            ("refine", rep.refine.count as f64 * costs.refine),
            ("other", 0.0),
        ],
        Workload::PeerdLoopback => {
            let s = spec::loopback_spec(options.size);
            let n = s.daemons as f64;
            // One model trained and n − 1 installs of it, per training peer.
            let train = secs("sansio.pace.train_us", 1e6)
                + (n - 1.0) * secs("sansio.pace.ingest_install_us", 1e6);
            vec![
                (
                    "learn",
                    n * (s.learn_rounds as f64 * train + secs("sansio.cempar.train_us", 1e6)),
                ),
                ("refine", rep.refine.count as f64 * train),
                (
                    "autotag",
                    s.local_predicts as f64 * secs("sansio.pace.predict_us", 1e6)
                        + s.routed_predicts as f64 * secs("sansio.cempar.predict_us", 1e6),
                ),
                ("other", 0.0),
            ]
        }
    };
    explained
        .into_iter()
        .map(|(phase, explained_s)| Attribution {
            phase,
            measured_s: measured(phase),
            explained_s,
        })
        .collect()
}

/// The traced run: the workload with spans, every layer probe, and the trace
/// file.
pub fn traced(workload: Workload, options: &Options) -> RunResult {
    let (warm_up, mut reps) = repeat(
        workload,
        options,
        options.seconds * TRACED_REPS_SHARE,
        false,
        |i| {
            if i % 2 == 0 {
                Tracer::on()
            } else {
                Tracer::off()
            }
        },
    );
    let run_s = |traced: bool| {
        let secs: Vec<f64> = reps
            .iter()
            .filter(|(_, tracer)| tracer.enabled() == traced)
            .map(|(rep, _)| rep.run_s)
            .collect();
        crate::stats::median(&secs)
    };
    let overhead = run_s(true) / run_s(false) - 1.0;
    // The first traced repetition's spans go into the trace file; the probes
    // are recorded after them.
    let mut tracer = std::mem::take(&mut reps[0].1);
    let reps: Vec<Rep> = reps.into_iter().map(|(rep, _)| rep).collect();
    let (attempted, mut failed, mut problems) = verdict(&warm_up, &reps);

    let inputs = probes::Inputs::capture(workload, options.size, options.seed);
    let probes_span = tracer.open(None, "probes");
    let mut sink = probes::Sink::new(&mut tracer, probes_span, options.seconds * PROBE_SHARE);
    probes::system::shares(&reps, &mut sink);
    let (probe_problems, costs) = probes::run_all(&inputs, &mut sink);
    failed += probe_problems.len() as u64;
    problems.extend(probe_problems);

    let attribution = attribute(workload, options, &reps[0], &costs, &sink);
    let measured: f64 = attribution.iter().map(|a| a.measured_s).sum();
    let explained: f64 = attribution.iter().map(|a| a.explained_s).sum();
    sink.value(
        "trace.unattributed_share",
        1.0 - explained / measured,
        "ratio",
        1,
    );
    sink.value("trace.overhead_share", overhead, "ratio", reps.len());
    let metrics = std::mem::take(&mut sink.metrics);
    let probe_count = metrics.len() as u64;
    tracer.close(probes_span, probe_count);

    let rows: Vec<String> = attribution
        .iter()
        .map(|a| {
            format!(
                "{{\"phase\": {}, \"measured_s\": {}, \"explained_s\": {}, \"unattributed_share\": {}}}",
                json::quote(a.phase),
                json::number(a.measured_s),
                json::number(a.explained_s),
                json::number(1.0 - a.explained_s / a.measured_s)
            )
        })
        .collect();
    let document = tracer.to_json(
        workload.name(),
        &[
            ("seed", options.seed.to_string()),
            ("attribution", format!("[{}]", rows.join(", "))),
            ("per_layer", report::metrics_to_json(&metrics, true)),
        ],
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let suffix = match options.size {
        Size::Full => "",
        Size::Quick => "-quick",
    };
    let path = format!("{dir}/trace-{}{suffix}.json", workload.name());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, document)) {
        Ok(()) => eprintln!("trace written to {path}"),
        Err(e) => {
            failed += 1;
            problems.push(format!("cannot write {path}: {e}"));
        }
    }

    RunResult {
        workload,
        seed: options.seed,
        traced: true,
        attempted,
        failed,
        metrics,
        problems,
    }
}
