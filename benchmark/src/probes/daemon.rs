//! `peerd`: framing, the command channel, and the daemon's round trips over
//! loopback TCP (the loopback interface, not a real link) — a fleet fed from
//! this workload's corpus, with enough requests for a p99.

use super::{Inputs, Sink};
use crate::spec::{self, LoopbackSpec};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::loopback::{run_sockets, simulate, Scenario, SocketRun};
use peerd::{encode_frame, FrameReader};
use std::hint::black_box;

/// Runs the `peerd.framing.*` probes on a frame of `bytes` bytes.
fn framing(bytes: usize, sink: &mut Sink<'_>) {
    let frame = vec![0x5Au8; bytes];
    let mut message = Vec::new();
    sink.time("peerd.framing.encode_ns", "ns", 1, || {
        message = encode_frame(3, black_box(&frame));
    });
    for chunk in [1usize, 64, 4_096] {
        let name = format!("peerd.framing.read_us_per_frame_{chunk}b");
        sink.time(&name, "us", 1, || {
            let mut reader = FrameReader::new();
            for piece in message.chunks(chunk) {
                reader.push(black_box(piece));
            }
            black_box(reader.next_frame().ok());
        });
    }
}

/// Runs the `peerd.*` probes. `pace_predict_s` is the sans-io cost of one
/// local predict, the useful work inside the round trip.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>, pace_predict_s: f64, problems: &mut Vec<String>) {
    // Many single-document rounds and a thousand predicts per phase, so the
    // named percentiles have their ten samples beyond them (toy sizes do not,
    // and report the median under those names with the true sample count).
    let full = inputs.size == spec::Size::Full;
    let base = spec::loopback_spec(inputs.size);
    let spec = LoopbackSpec {
        learn_rounds: 1,
        slice_docs: 20,
        refine_rounds: if full { 100 } else { 6 },
        local_predicts: if full { 1_000 } else { 40 },
        routed_predicts: if full { 1_000 } else { 40 },
        command_probes: if full { 1_000 } else { 40 },
        ..base
    };
    let scenario = Scenario::cut(&inputs.corpus, &inputs.vectorized, &spec);
    let reference = simulate(&scenario);
    // The spans of two thousand predicts would drown the trace file; the
    // `peerd-loopback` workload's own repetitions record them.
    let run: SocketRun = match sink.span("peerd.loopback_fleet", 1, || {
        run_sockets(&scenario, &reference, &mut Tracer::off(), None)
    }) {
        Ok(run) => run,
        Err(e) => {
            problems.push(format!("peerd probes: loopback fleet: {e}"));
            SocketRun::default()
        }
    };
    problems.extend(run.problems.iter().map(|p| format!("peerd probes: {p}")));

    let series: [(&str, &[f64], f64); 4] = [
        ("peerd.command_rtt_ms", &run.command_rtt_ms, 99.0),
        ("peerd.predict_rtt_ms", &run.local_rtt_ms, 99.0),
        ("peerd.routed_predict_rtt_ms", &run.routed_rtt_ms, 99.0),
        ("peerd.converge_ms", &run.refine_ms, 90.0),
    ];
    for (name, samples, tail) in series {
        let summary = stats::summarize(samples);
        eprintln!("  {name}: {summary}");
        sink.value(&format!("{name}_p50"), summary.median, "ms", samples.len());
        // Toy sizes have too few samples for the named tail; the median
        // stands in there and the sample count says so.
        let tail_value = stats::percentile(samples, tail).unwrap_or(summary.median);
        if full && !stats::supports_percentile(samples.len(), tail) {
            problems.push(format!(
                "peerd probes: {name} has {} samples, too few for p{tail}",
                samples.len()
            ));
        }
        sink.value(&format!("{name}_p{tail}"), tail_value, "ms", samples.len());
    }
    let mean_predict_s = run.local_rtt_ms.iter().sum::<f64>() / 1e3 / run.local_rtt_ms.len() as f64;
    sink.value(
        "peerd.predict_overhead_ratio",
        mean_predict_s / pace_predict_s,
        "ratio",
        run.local_rtt_ms.len(),
    );
    sink.value(
        "peerd.train_to_first_install_ms",
        run.first_install_ms,
        "ms",
        1,
    );
    sink.value("peerd.fleet_start_ms", run.start_s * 1e3 / 2.0, "ms", 2);
    sink.value("peerd.shutdown_ms", run.shutdown_s * 1e3 / 2.0, "ms", 2);
    sink.value("peerd.frames_sent", run.frames_sent as f64, "count", 1);
    sink.value("peerd.bytes_sent", run.bytes_sent as f64, "bytes", 1);

    // Framing on a frame as large as this fleet's mean.
    framing((run.bytes_sent / run.frames_sent.max(1)) as usize, sink);
}
