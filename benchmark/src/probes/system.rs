//! `doctagger`: the phase split of the workload's timed section, and the
//! facade's own calls on a learned system of the workload's size and
//! protocol — plus `vendor/parallel`'s share of batch auto-tagging.

use super::{Inputs, Sink};
use crate::clock;
use crate::spec;
use crate::stats;
use crate::workloads::Rep;
use doctagger::{DocTaggerConfig, P2PDocTagger, TagStore};
use p2psim::SimConfig;
use std::hint::black_box;

/// Corrections timed one by one (p90 needs at least 100).
const REFINES: usize = 120;

/// Reports how the repetitions' timed sections split into phases.
pub fn shares(reps: &[Rep], sink: &mut Sink<'_>) {
    for phase in ["ingest", "learn", "refine", "autotag", "other"] {
        let share: Vec<f64> = reps
            .iter()
            .map(|r| r.phases.get(phase).copied().unwrap_or(0.0) / r.run_s)
            .collect();
        sink.value(
            &format!("doctagger.{phase}_share"),
            stats::median(&share),
            "ratio",
            reps.len(),
        );
    }
}

/// Runs the `doctagger.*` call probes and `parallel.autotag_speedup_2t`.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>, problems: &mut Vec<String>) {
    let mut system = P2PDocTagger::new(DocTaggerConfig {
        protocol: inputs.protocol.clone(),
        network: Some(SimConfig {
            num_peers: inputs.peers,
            seed: inputs.seed,
            ..SimConfig::default()
        }),
        seed: inputs.seed,
        ..DocTaggerConfig::default()
    });
    system.ingest_shared(inputs.corpus.clone());
    if let Err(e) = system.learn(&inputs.split) {
        problems.push(format!("doctagger probes: learn failed: {e}"));
        return;
    }
    let docs = &inputs.held_out;

    sink.time(
        "doctagger.auto_tag_batch_us_per_doc",
        "us",
        docs.len(),
        || {
            black_box(system.auto_tag_docs(black_box(docs)).ok());
        },
    );
    sink.time("doctagger.auto_tag_single_us", "us", docs.len(), || {
        for &doc in docs {
            black_box(system.auto_tag(black_box(doc)).ok());
        }
    });

    // The same batch with vendor/parallel at one worker and at two.
    let mut batch_secs = |threads: usize| {
        parallel::schedule::set_thread_override(Some(threads));
        let (_, secs_per_call) = clock::per_call(sink.min_secs, || {
            black_box(system.auto_tag_docs(black_box(docs)).ok());
        });
        secs_per_call
    };
    let (one, two) = (batch_secs(1), batch_secs(2));
    parallel::schedule::set_thread_override(Some(spec::PINNED_THREADS));
    sink.value(
        "parallel.autotag_speedup_2t",
        one / two,
        "ratio",
        docs.len(),
    );

    let mut refine_us = Vec::with_capacity(REFINES);
    sink.span("doctagger.refine", REFINES as u64, || {
        for &doc in docs.iter().take(REFINES) {
            let truth = inputs
                .corpus
                .document(doc)
                .expect("held-out document")
                .tags
                .clone();
            let (result, secs) = clock::time(|| system.refine(doc, truth));
            refine_us.push(secs * 1e6);
            if let Err(e) = result {
                problems.push(format!("doctagger probes: refine failed: {e}"));
            }
        }
    });
    sink.value(
        "doctagger.refine_us_p50",
        stats::median(&refine_us),
        "us",
        refine_us.len(),
    );
    // Toy sizes have too few corrections for a p90; the median stands in and
    // the sample count says so.
    sink.value(
        "doctagger.refine_us_p90",
        stats::percentile(&refine_us, 90.0).unwrap_or_else(|| stats::median(&refine_us)),
        "us",
        refine_us.len(),
    );

    let tagged: Vec<(String, Vec<String>)> = docs
        .iter()
        .filter_map(|&doc| inputs.corpus.document(doc))
        .map(|d| {
            (
                P2PDocTagger::path_of(d.id, d.user),
                d.tags.iter().cloned().collect(),
            )
        })
        .collect();
    sink.time("doctagger.tagstore_set_tags_ns", "ns", tagged.len(), || {
        let mut store = TagStore::new();
        for (path, tags) in &tagged {
            store.set_tags(path, tags.iter().cloned());
        }
        black_box(store.len());
    });
    sink.time("doctagger.tag_cloud_ms", "ms", 1, || {
        black_box(system.tag_cloud());
    });
}
