//! `bulk-learn`: the write path at a larger network, without churn — raw
//! text to vectors, a cold collaborative learn, then a fixed sample of
//! held-out documents is auto-tagged and the wrong tags among them corrected.

use super::{check_tags_persisted, Phase, Rep};
use crate::clock;
use crate::spec::{self, Size};
use crate::trace::Tracer;
use dataset::{CorpusGenerator, DocumentId, TrainTestSplit};
use doctagger::{DocTaggerConfig, P2PDocTagger, ProtocolKind};

/// One repetition. Set-up generates the corpus, splits it and constructs the
/// system; the timed section is `ingest`, `learn`, `auto_tag_docs` on the
/// sample and one `refine` per wrong automatic tag set (up to the spec's cap).
pub fn run_rep(size: Size, seed: u64, tracer: &mut Tracer) -> Rep {
    let spec = spec::bulk_spec(size);
    let mut rep = Rep {
        peers: spec.peers,
        ..Rep::default()
    };

    let setup_span = tracer.open(None, "setup");
    let setup_start = clock::now_s();
    let corpus = tracer.scope(setup_span, "dataset.generate", spec.peers as u64, |_, _| {
        CorpusGenerator::new(spec::bulk_corpus(spec.peers, seed)).generate()
    });
    let split = TrainTestSplit::demo_protocol(&corpus, seed);
    let mut system = P2PDocTagger::new(DocTaggerConfig {
        protocol: ProtocolKind::pace(),
        seed,
        ..DocTaggerConfig::default()
    });
    // Every k-th held-out document, so the sample spans all peers.
    let stride = (split.test.len() / spec.sample).max(1);
    let sample: Vec<DocumentId> = split
        .test
        .iter()
        .copied()
        .step_by(stride)
        .take(spec.sample)
        .collect();
    rep.setup_s = clock::now_s() - setup_start;
    tracer.close(setup_span, corpus.len() as u64);

    let run_span = tracer.open(None, "run");
    let run_start = clock::now_s();
    let docs = corpus.len() as u64;
    let ((), ingest_s) = tracer.scope(run_span, "doctagger.ingest", docs, |_, _| {
        clock::time(|| system.ingest(&corpus))
    });
    rep.ingest = Phase {
        count: docs,
        secs: ingest_s,
    };

    let train_docs = split.train.len() as u64;
    let (learned, learn_s) = tracer.scope(run_span, "doctagger.learn", train_docs, |_, _| {
        clock::time(|| system.learn(&split))
    });
    rep.learn = Phase {
        count: train_docs,
        secs: learn_s,
    };
    if let Err(e) = learned {
        rep.problem(format!("learn failed: {e}"));
        return rep;
    }

    let requests = sample.len() as u64;
    let (outcome, tag_s) = tracer.scope(run_span, "doctagger.auto_tag_docs", requests, |_, _| {
        clock::time(|| system.auto_tag_docs(&sample))
    });
    rep.tag = Phase {
        count: requests,
        secs: tag_s,
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            rep.problem(format!("auto-tagging failed: {e}"));
            return rep;
        }
    };
    rep.served = outcome.tagged as u64;
    if outcome.tagged + outcome.failed != sample.len() {
        rep.problem(format!(
            "{} tagged + {} failed != {} requested",
            outcome.tagged,
            outcome.failed,
            sample.len()
        ));
    }
    // No churn here, so an unanswered request is a real failure.
    for _ in 0..outcome.failed {
        rep.problem("auto-tag request failed without churn".to_string());
    }
    rep.macro_f1 = outcome.metrics.macro_f1();
    if rep.macro_f1 < spec.f1_floor {
        rep.problem(format!(
            "macro-F1 {} below the floor {}",
            rep.macro_f1, spec.f1_floor
        ));
    }
    check_tags_persisted(&system, rep.served, &mut rep);

    let wrong: Vec<DocumentId> = sample
        .iter()
        .copied()
        .filter(|&doc| {
            corpus
                .document(doc)
                .is_some_and(|d| system.library().tags_of(doc) != d.tags)
        })
        .take(spec.refines)
        .collect();
    let refine_span = tracer.open(run_span, "doctagger.refine");
    let refine_start = clock::now_s();
    for &doc in &wrong {
        let truth = corpus
            .document(doc)
            .expect("sampled from the corpus")
            .tags
            .clone();
        if let Err(e) = system.refine(doc, truth) {
            rep.problem(format!("refine of document {doc} failed: {e}"));
        }
    }
    rep.refine = Phase {
        count: wrong.len() as u64,
        secs: clock::now_s() - refine_start,
    };
    tracer.close(refine_span, rep.refine.count);
    rep.run_s = clock::now_s() - run_start;
    tracer.close(run_span, docs);

    rep.attempted = 2 + rep.tag.count + rep.refine.count;
    let stats = system.network_stats();
    rep.net_bytes = stats.total_bytes();
    rep.net_msgs = stats.total_messages();
    rep.fingerprint = vec![
        rep.macro_f1.to_bits(),
        rep.learn.count,
        rep.refine.count,
        rep.served,
        rep.net_bytes,
        rep.net_msgs,
    ];
    rep.phases = [
        ("ingest", rep.ingest.secs),
        ("learn", rep.learn.secs),
        ("autotag", rep.tag.secs),
        ("refine", rep.refine.secs),
        (
            "other",
            (rep.run_s - rep.ingest.secs - rep.learn.secs - rep.tag.secs - rep.refine.secs)
                .max(0.0),
        ),
    ]
    .into();
    rep
}
