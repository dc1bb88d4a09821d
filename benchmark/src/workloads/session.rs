//! `pace-session` and `cempar-session`: a streaming session replayed by
//! [`doctagger::SessionDriver`] under churn.

use super::{check_tags_persisted, Phase, Rep};
use crate::clock;
use crate::spec::{self, Size, Workload};
use crate::trace::Tracer;
use dataset::CorpusGenerator;
use doctagger::SessionDriver;
use std::sync::Arc;

/// One repetition: generate the corpus and build the driver (set-up, which
/// includes `ingest`), then time `driver.run()`.
pub fn run_rep(workload: Workload, size: Size, seed: u64, tracer: &mut Tracer) -> Rep {
    let spec = spec::session_spec(workload, size);
    let mut rep = Rep {
        peers: spec.peers,
        ..Rep::default()
    };

    let setup_span = tracer.open(None, "setup");
    let setup_start = clock::now_s();
    let corpus = tracer.scope(setup_span, "dataset.generate", spec.peers as u64, |_, _| {
        Arc::new(CorpusGenerator::new(spec::session_corpus(spec.peers, seed)).generate())
    });
    let docs = corpus.len() as u64;
    let (mut driver, ingest_s) = tracer.scope(setup_span, "doctagger.ingest", docs, |_, _| {
        clock::time(|| {
            SessionDriver::new_shared(
                spec.protocol.clone(),
                spec::session_config(spec.epochs, seed),
                corpus.clone(),
            )
        })
    });
    rep.setup_s = clock::now_s() - setup_start;
    tracer.close(setup_span, docs);
    rep.ingest = Phase {
        count: docs,
        secs: ingest_s,
    };

    let run_start_us = clock::now_us();
    let (outcome, run_s) = clock::time(|| driver.run());
    rep.run_s = run_s;
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            rep.problem(format!("session aborted: {e}"));
            return rep;
        }
    };

    for e in &outcome.epochs {
        rep.learn.count += e.new_manual as u64;
        rep.learn.secs += e.learn_secs;
        rep.refine.count += e.refined as u64;
        rep.refine.secs += e.refine_secs;
        rep.tag.count += e.auto_requested as u64;
        rep.tag.secs += e.auto_secs;
        rep.served += e.auto_tagged as u64;
        if e.auto_tagged + e.auto_failed != e.auto_requested {
            rep.problem(format!(
                "epoch {}: {} tagged + {} unserved != {} requested",
                e.epoch, e.auto_tagged, e.auto_failed, e.auto_requested
            ));
        }
    }
    rep.attempted = outcome.epochs.len() as u64 + rep.refine.count + rep.tag.count;
    rep.macro_f1 = outcome.final_macro_f1();
    if rep.macro_f1 < spec.f1_floor {
        rep.problem(format!(
            "macro-F1 {} below the floor {}",
            rep.macro_f1, spec.f1_floor
        ));
    }
    check_tags_persisted(driver.system(), rep.served, &mut rep);

    let stats = driver.system().network_stats();
    rep.net_bytes = stats.total_bytes();
    rep.net_msgs = stats.total_messages();
    rep.fingerprint = vec![
        rep.macro_f1.to_bits(),
        rep.learn.count,
        rep.refine.count,
        rep.tag.count,
        rep.served,
        rep.net_bytes,
        rep.net_msgs,
    ];

    let other = (run_s - rep.learn.secs - rep.refine.secs - rep.tag.secs).max(0.0);
    rep.phases = [
        ("learn", rep.learn.secs),
        ("refine", rep.refine.secs),
        ("autotag", rep.tag.secs),
        ("other", other),
    ]
    .into();

    // Spans rebuilt from the driver's own report: it reads the audited
    // stopwatch at exactly the phase boundaries, so nothing inside the
    // session is instrumented. What the report does not cover (advancing
    // virtual time, bookkeeping) is spread evenly over the epochs.
    if tracer.enabled() {
        let run_span = tracer.record(None, "run", run_start_us, clock::now_us(), docs);
        let other_us = (other * 1e6 / outcome.epochs.len() as f64) as u64;
        let mut cursor = run_start_us;
        for e in &outcome.epochs {
            let phases = [
                ("doctagger.advance_time", other_us, 1),
                ("doctagger.learn", (e.learn_secs * 1e6) as u64, e.new_manual),
                ("doctagger.refine", (e.refine_secs * 1e6) as u64, e.refined),
                (
                    "doctagger.auto_tag_docs",
                    (e.auto_secs * 1e6) as u64,
                    e.auto_requested,
                ),
            ];
            let total: u64 = phases.iter().map(|p| p.1).sum();
            let epoch_span = tracer.record(
                run_span,
                &format!("epoch {}", e.epoch),
                cursor,
                cursor + total,
                e.arrivals as u64,
            );
            for (name, us, count) in phases {
                tracer.record(epoch_span, name, cursor, cursor + us, count as u64);
                cursor += us;
            }
        }
    }
    rep
}
