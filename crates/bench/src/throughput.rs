//! End-to-end throughput of the batched scoring engine vs the scalar path.
//!
//! Measures docs/sec for the three pipeline stages — **ingest** (corpus
//! vectorization), **train** (the full distributed learning phase, plus an
//! apples-to-apples microbenchmark of borrow-once vs clone-per-tag one-vs-all
//! training), and **auto-tag** (batch prediction of the whole test set) — at
//! several network sizes, with PACE as the protocol under test.
//!
//! The scalar auto-tag numbers run the *same build* with
//! [`ScoringBackend::Scalar`], which preserves the pre-refactor per-(tag,
//! classifier) loops, so the reported auto-tag speedup isolates the batched
//! engine rather than compiler or workload drift; the one-vs-all row
//! likewise re-executes the pre-refactor clone-per-tag training loop against
//! the CSR-native shared-context path. Ingest and the full learning phase
//! are scoring-backend-independent code, so they are reported as plain rates
//! with no before/after claim. The equivalence tests guarantee both backends
//! produce identical predictions (and the training backends bit-identical
//! models), so every comparison is work-for-work.
//!
//! With the `alloc-count` feature the rows also carry allocations/doc and
//! peak live bytes per stage (see [`crate::alloc`]), making memory-traffic
//! regressions visible alongside docs/sec.
//!
//! The workload is tag-heavy (48 tags, Zipf popularity, interest locality):
//! Golder & Huberman show collaborative tag vocabularies grow into the
//! thousands, so per-tag scoring cost is exactly what dominates at the
//! ROADMAP's scale target. The binary writes `BENCH_throughput.json` at the
//! repository root; `EXPERIMENTS.md` records a captured run.

use crate::alloc::{self, AllocStats};
use dataset::{CorpusGenerator, CorpusSpec, TrainTestSplit};
use doctagger::{DocTaggerConfig, P2PDocTagger, ProtocolKind};
use ml::multilabel::OneVsAllTrainer;
use ml::svm::{accuracy_on, LinearSvm, LinearSvmTrainer};
use ml::{MultiLabelDataset, OneVsAllModel};
use p2pclassify::{PaceConfig, ScoringBackend};
use std::collections::BTreeMap;
use std::time::Instant;

/// One pipeline stage measured under both backends.
#[derive(Debug, Clone, Copy)]
pub struct StagePair {
    /// Documents processed by the stage.
    pub docs: usize,
    /// Wall-clock seconds on the scalar (pre-refactor reference) path.
    pub scalar_secs: f64,
    /// Wall-clock seconds on the batched path.
    pub batched_secs: f64,
    /// Allocator activity of the scalar run (with `alloc-count`).
    pub scalar_mem: Option<AllocStats>,
    /// Allocator activity of the batched run (with `alloc-count`).
    pub batched_mem: Option<AllocStats>,
}

impl StagePair {
    /// Documents per second on the scalar path.
    pub fn scalar_docs_per_sec(&self) -> f64 {
        self.docs as f64 / self.scalar_secs.max(1e-9)
    }

    /// Documents per second on the batched path.
    pub fn batched_docs_per_sec(&self) -> f64 {
        self.docs as f64 / self.batched_secs.max(1e-9)
    }

    /// Batched-over-scalar throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.scalar_secs / self.batched_secs.max(1e-9)
    }
}

/// A stage whose code does not depend on the scoring backend: only a
/// docs/sec rate is reported (comparing two runs of identical code would
/// present warm-up noise as a speedup).
#[derive(Debug, Clone, Copy)]
pub struct StageRate {
    /// Documents processed by the stage.
    pub docs: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Allocator activity of the stage (with `alloc-count`).
    pub mem: Option<AllocStats>,
}

impl StageRate {
    /// Documents per second.
    pub fn docs_per_sec(&self) -> f64 {
        self.docs as f64 / self.secs.max(1e-9)
    }
}

/// Throughput measurements for one network size.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Number of peers (= users) in the simulated network.
    pub peers: usize,
    /// Corpus size in documents.
    pub documents: usize,
    /// Distinct tags in the corpus.
    pub tags: usize,
    /// Fitted lexicon size.
    pub lexicon: usize,
    /// Corpus vectorization rate. The `ScoringBackend` switch does not touch
    /// ingest, so there is no scalar-vs-batched comparison here.
    pub ingest: StageRate,
    /// Full distributed learning phase (training + propagation + indexing).
    /// Also backend-independent — the honest training before/after is the
    /// [`Self::one_vs_all`] microbenchmark.
    pub train: StageRate,
    /// One-vs-all training microbenchmark: pre-refactor clone-per-tag +
    /// per-tag accuracy pass vs borrow-once label-mask training, on the same
    /// pooled dataset.
    pub one_vs_all: StagePair,
    /// Auto-tagging the whole held-out test set — the scalar-vs-batched
    /// comparison the scoring engine is about.
    pub auto_tag: StagePair,
    /// Micro-F1 of the batched run (sanity: quality is unchanged).
    pub micro_f1: f64,
}

/// One overlay architecture's end-to-end numbers at scale.
///
/// Unlike the scalar-vs-batched [`StagePair`]s of the full rows, scale
/// columns run the batched engine only: the pre-refactor reference paths
/// (clone-per-tag one-vs-all, per-classifier scoring) are exactly the code
/// the scale work retires, and re-running them at 10k peers would dominate
/// the harness for a comparison the 50/200-peer rows already pin.
#[derive(Debug, Clone)]
pub struct OverlayColumn {
    /// Overlay architecture label: `"chord-dht"` (PACE's flat DHT ensemble)
    /// or `"super-peer"` (CEMPaR's regional super-peer cascade).
    pub overlay: &'static str,
    /// Protocol under test on that overlay.
    pub protocol: String,
    /// Full distributed learning phase.
    pub train: StageRate,
    /// Auto-tagging the whole held-out test set (batched backend).
    pub auto_tag: StageRate,
    /// Total bytes exchanged over the run.
    pub total_bytes: u64,
    /// Largest number of bytes received by any single peer (hotspot load).
    pub hotspot_bytes: u64,
    /// Mean DHT lookup hops observed (0 for protocols that never route).
    pub mean_hops: f64,
    /// Micro-F1 on the held-out test set (sanity: quality holds at scale).
    pub micro_f1: f64,
}

/// Scale measurements for one network size: the shared corpus stages plus
/// one column per overlay architecture.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Number of peers (= users) in the simulated network.
    pub peers: usize,
    /// Corpus size in documents.
    pub documents: usize,
    /// Distinct tags in the corpus.
    pub tags: usize,
    /// Corpus vectorization rate (shared by both overlay columns — the
    /// chord column's ingest is reported; the corpus itself is `Arc`-shared).
    pub ingest: StageRate,
    /// One column per overlay architecture.
    pub columns: Vec<OverlayColumn>,
}

/// Runs the scale experiment for one network size: the same tag-heavy
/// per-peer corpus shape as [`measure`], batched backend only, once per
/// overlay architecture. The corpus is generated once and `Arc`-shared.
pub fn measure_scale(num_users: usize, seed: u64) -> ScaleRow {
    use p2pclassify::CemparConfig;
    use p2psim::churn::ChurnModel;
    use p2psim::config::SimConfig;
    use std::sync::Arc;

    let corpus = Arc::new(CorpusGenerator::new(throughput_spec(num_users, seed)).generate());
    let split = throughput_split(&corpus, seed);
    let num_peers = corpus.num_users().max(1);
    let setups: Vec<(&'static str, ProtocolKind)> = vec![
        ("chord-dht", pace_with(ScoringBackend::Batched)),
        (
            "super-peer",
            ProtocolKind::Cempar(CemparConfig::for_network(num_peers)),
        ),
    ];

    let mut ingest_rate = None;
    let mut columns = Vec::new();
    for (overlay, protocol) in setups {
        let name = protocol.name().to_string();
        let mut system = P2PDocTagger::new(DocTaggerConfig {
            protocol,
            network: Some(SimConfig {
                num_peers,
                churn: ChurnModel::None,
                seed,
                ..SimConfig::default()
            }),
            seed,
            ..DocTaggerConfig::default()
        });
        let t0 = Instant::now();
        system.ingest_shared(corpus.clone());
        let ingest_secs = t0.elapsed().as_secs_f64();
        alloc::reset();
        let t1 = Instant::now();
        system.learn(&split).expect("learning succeeds");
        let train_secs = t1.elapsed().as_secs_f64();
        let train_mem = alloc::snapshot();
        alloc::reset();
        let t2 = Instant::now();
        let outcome = system.auto_tag_all().expect("tagging succeeds");
        let auto_secs = t2.elapsed().as_secs_f64();
        let auto_mem = alloc::snapshot();
        let stats = system.network_stats();
        if ingest_rate.is_none() {
            ingest_rate = Some(StageRate {
                docs: corpus.len(),
                secs: ingest_secs,
                mem: None,
            });
        }
        columns.push(OverlayColumn {
            overlay,
            protocol: name,
            train: StageRate {
                docs: split.train.len(),
                secs: train_secs,
                mem: train_mem,
            },
            auto_tag: StageRate {
                docs: split.test.len(),
                secs: auto_secs,
                mem: auto_mem,
            },
            total_bytes: stats.total_bytes(),
            hotspot_bytes: stats.max_bytes_received_by_any_peer(),
            mean_hops: stats.mean_lookup_hops(),
            micro_f1: outcome.metrics.micro_f1(),
        });
    }

    ScaleRow {
        peers: num_peers,
        documents: corpus.len(),
        tags: corpus.num_tags(),
        ingest: ingest_rate.expect("at least one overlay column ran"),
        columns,
    }
}

/// The tag-heavy throughput workload for `num_users` peers.
pub fn throughput_spec(num_users: usize, seed: u64) -> CorpusSpec {
    CorpusSpec {
        num_tags: 48,
        num_users,
        min_docs_per_user: 12,
        max_docs_per_user: 20,
        words_per_doc: 40,
        words_per_tag: 25,
        background_vocab: 300,
        interests_per_user: 6,
        seed,
        ..CorpusSpec::default()
    }
}

/// The held-out split of the throughput workload (20 % test, split seed
/// derived from the workload seed). Shared with the kernel microbenchmarks
/// (`crate::kernels`) so both harnesses decompose the identical workload.
pub fn throughput_split(corpus: &dataset::Corpus, seed: u64) -> TrainTestSplit {
    TrainTestSplit::stratified_by_user(corpus, 0.2, seed ^ 0xABCD)
}

/// The pooled (all-peers) training dataset of a split — the
/// centralized-baseline shape the one-vs-all microbenchmark and the kernel
/// microbenchmarks train on.
pub fn pooled_training_set(
    vectorized: &dataset::VectorizedCorpus,
    split: &TrainTestSplit,
) -> MultiLabelDataset {
    split
        .train
        .iter()
        .map(|&doc| vectorized.example(doc))
        .collect()
}

fn pace_with(backend: ScoringBackend) -> ProtocolKind {
    ProtocolKind::Pace(PaceConfig {
        backend,
        ..PaceConfig::default()
    })
}

/// Replicates the pre-refactor one-vs-all training loop: the full
/// feature-vector set is cloned per tag
/// (`MultiLabelDataset::one_vs_all_cloned`), tags are trained sequentially
/// with each fit re-deriving the problem dimension, DCD diagonal and shuffle
/// orders from scratch, and the per-tag training accuracies are computed
/// with another clone-per-tag pass of per-(tag, document) dot products —
/// exactly what `OneVsAllTrainer::train_with` and PACE's `train_local` did
/// before the borrow-once and CSR refactors.
fn legacy_train_peer(
    data: &MultiLabelDataset,
    trainer: &LinearSvmTrainer,
) -> Option<(OneVsAllModel<LinearSvm>, f64)> {
    if data.is_empty() {
        return None;
    }
    let mut classifiers = BTreeMap::new();
    for tag in data.tag_universe() {
        if data.tag_count(tag) < 1 {
            continue;
        }
        let (xs, ys) = data.one_vs_all_cloned(tag);
        classifiers.insert(tag, trainer.train(&xs, &ys));
    }
    if classifiers.is_empty() {
        return None;
    }
    let model = OneVsAllModel::from_classifiers(classifiers, 0.0, 1);
    let mut acc_sum = 0.0;
    let mut acc_n = 0usize;
    for (tag, clf) in model.iter() {
        let (xs, ys) = data.one_vs_all_cloned(tag);
        acc_sum += accuracy_on(clf, &xs, &ys);
        acc_n += 1;
    }
    let accuracy = acc_sum / acc_n.max(1) as f64;
    Some((model, accuracy))
}

/// The CSR-native equivalent of [`legacy_train_peer`]: the dataset is
/// materialized once as a row-major CSR arena whose shared training context
/// (diagonal, shuffle orders, solver scratch) serves every per-tag fit, and
/// the accuracy pass scores the whole tag universe in one
/// `TagWeightMatrix` pass per document — no per-tag corpus view anywhere.
/// Models and accuracies are bit-identical to the legacy loop's.
fn current_train_peer(
    data: &MultiLabelDataset,
    trainer: &LinearSvmTrainer,
) -> Option<(OneVsAllModel<LinearSvm>, f64)> {
    if data.is_empty() {
        return None;
    }
    let model = OneVsAllTrainer::default().train_linear_csr(data, trainer);
    if model.num_tags() == 0 {
        return None;
    }
    // Batched accuracy pass: per-tag correct counts from one matrix pass per
    // document (matrix decisions are bit-identical to per-classifier ones).
    let matrix = model.weight_matrix();
    let mut correct = vec![0usize; matrix.num_tags()];
    let mut decisions = Vec::new();
    for (x, tags) in data.iter() {
        matrix.decisions_into(x, &mut decisions);
        for (slot, &tag) in matrix.tags().iter().enumerate() {
            if (decisions[slot] >= 0.0) == tags.contains(&tag) {
                correct[slot] += 1;
            }
        }
    }
    let mut acc_sum = 0.0;
    for &c in &correct {
        acc_sum += c as f64 / data.len() as f64;
    }
    Some((model, acc_sum / matrix.num_tags().max(1) as f64))
}

/// Runs the throughput experiment for one network size.
pub fn measure(num_users: usize, seed: u64) -> ThroughputRow {
    let corpus = CorpusGenerator::new(throughput_spec(num_users, seed)).generate();
    let split = throughput_split(&corpus, seed);

    let run = |backend: ScoringBackend| {
        let mut system = P2PDocTagger::new(DocTaggerConfig {
            protocol: pace_with(backend),
            seed,
            ..DocTaggerConfig::default()
        });
        let t0 = Instant::now();
        system.ingest(&corpus);
        let ingest_secs = t0.elapsed().as_secs_f64();
        alloc::reset();
        let t1 = Instant::now();
        system.learn(&split).expect("learning succeeds");
        let train_secs = t1.elapsed().as_secs_f64();
        let train_mem = alloc::snapshot();
        alloc::reset();
        let t2 = Instant::now();
        let outcome = system.auto_tag_all().expect("tagging succeeds");
        let auto_secs = t2.elapsed().as_secs_f64();
        let auto_mem = alloc::snapshot();
        (
            ingest_secs,
            train_secs,
            auto_secs,
            train_mem,
            auto_mem,
            outcome,
        )
    };

    let (
        _scalar_ingest,
        _scalar_train,
        scalar_auto,
        _scalar_train_mem,
        scalar_auto_mem,
        scalar_outcome,
    ) = run(ScoringBackend::Scalar);
    let (
        batched_ingest,
        batched_train,
        batched_auto,
        batched_train_mem,
        batched_auto_mem,
        batched_outcome,
    ) = run(ScoringBackend::Batched);
    assert_eq!(
        scalar_outcome.metrics.micro_f1(),
        batched_outcome.metrics.micro_f1(),
        "backends must produce identical tagging quality"
    );

    // One-vs-all microbenchmark on the pooled training set (the
    // centralized-baseline shape): this is where the pre-refactor
    // clone-per-tag view's O(tags × corpus) allocation churn is worst.
    let vectorized = dataset::VectorizedCorpus::build(&corpus);
    let num_peers = corpus.num_users().max(1);
    let pooled = pooled_training_set(&vectorized, &split);
    let trainer = LinearSvmTrainer::default();
    // Interleaved best-of-3: both paths run alternately and keep their
    // fastest time, so a scheduler hiccup during either path's window cannot
    // masquerade as (or hide) a speedup — the treatment is symmetric. The
    // fits are deterministic, so every repetition does identical work; the
    // allocator counters are captured on the first repetition.
    let mut legacy_secs = f64::INFINITY;
    let mut current_secs = f64::INFINITY;
    let mut legacy_mem = None;
    let mut current_mem = None;
    let mut legacy = None;
    let mut current = None;
    for rep in 0..3 {
        alloc::reset();
        let t = Instant::now();
        legacy = Some(legacy_train_peer(&pooled, &trainer).expect("pooled data trains"));
        legacy_secs = legacy_secs.min(t.elapsed().as_secs_f64());
        if rep == 0 {
            legacy_mem = alloc::snapshot();
        }
        alloc::reset();
        let t = Instant::now();
        current = Some(current_train_peer(&pooled, &trainer).expect("pooled data trains"));
        current_secs = current_secs.min(t.elapsed().as_secs_f64());
        if rep == 0 {
            current_mem = alloc::snapshot();
        }
    }
    let legacy = legacy.expect("three repetitions ran");
    let current = current.expect("three repetitions ran");
    assert_eq!(legacy.1, current.1, "training accuracies must agree");
    assert_eq!(legacy.0.num_tags(), current.0.num_tags());

    ThroughputRow {
        peers: num_peers,
        documents: corpus.len(),
        tags: corpus.num_tags(),
        lexicon: vectorized.lexicon_size(),
        ingest: StageRate {
            docs: corpus.len(),
            secs: batched_ingest,
            mem: None,
        },
        train: StageRate {
            docs: split.train.len(),
            secs: batched_train,
            mem: batched_train_mem,
        },
        one_vs_all: StagePair {
            docs: split.train.len(),
            scalar_secs: legacy_secs,
            batched_secs: current_secs,
            scalar_mem: legacy_mem,
            batched_mem: current_mem,
        },
        auto_tag: StagePair {
            docs: split.test.len(),
            scalar_secs: scalar_auto,
            batched_secs: batched_auto,
            scalar_mem: scalar_auto_mem,
            batched_mem: batched_auto_mem,
        },
        micro_f1: batched_outcome.metrics.micro_f1(),
    }
}

/// Renders the rows as the `BENCH_throughput.json` document.
pub fn to_json(rows: &[ThroughputRow], scale_rows: &[ScaleRow], seed: u64) -> String {
    let mem_fields = |prefix: &str, mem: &Option<AllocStats>, docs: usize| match mem {
        Some(m) => format!(
            ", \"{prefix}allocs_per_doc\": {:.1}, \"{prefix}peak_bytes\": {}",
            m.allocs_per_doc(docs),
            m.peak_bytes,
        ),
        None => String::new(),
    };
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"throughput\",\n");
    out.push_str("  \"protocol\": \"pace\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"alloc_counting\": {},\n", alloc::enabled()));
    out.push_str(&format!(
        "  \"threads\": {},\n",
        parallel::effective_threads(usize::MAX)
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"peers\": {},\n", r.peers));
        out.push_str(&format!("      \"documents\": {},\n", r.documents));
        out.push_str(&format!("      \"tags\": {},\n", r.tags));
        out.push_str(&format!("      \"lexicon\": {},\n", r.lexicon));
        out.push_str(&format!("      \"micro_f1\": {:.4},\n", r.micro_f1));
        let rate = |name: &str, s: &StageRate| {
            format!(
                "      \"{name}\": {{\"docs\": {}, \"docs_per_sec\": {:.1}{}}},\n",
                s.docs,
                s.docs_per_sec(),
                mem_fields("", &s.mem, s.docs),
            )
        };
        let stage = |name: &str, s: &StagePair, trailing: bool| {
            format!(
                "      \"{name}\": {{\"docs\": {}, \"scalar_docs_per_sec\": {:.1}, \"batched_docs_per_sec\": {:.1}, \"speedup\": {:.2}{}{}}}{}\n",
                s.docs,
                s.scalar_docs_per_sec(),
                s.batched_docs_per_sec(),
                s.speedup(),
                mem_fields("scalar_", &s.scalar_mem, s.docs),
                mem_fields("batched_", &s.batched_mem, s.docs),
                if trailing { "," } else { "" },
            )
        };
        out.push_str(&rate("ingest", &r.ingest));
        out.push_str(&rate("train", &r.train));
        out.push_str(&stage("one_vs_all_train", &r.one_vs_all, true));
        out.push_str(&stage("auto_tag", &r.auto_tag, false));
        out.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"scale_rows\": [\n");
    for (i, r) in scale_rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"peers\": {},\n", r.peers));
        out.push_str(&format!("      \"documents\": {},\n", r.documents));
        out.push_str(&format!("      \"tags\": {},\n", r.tags));
        out.push_str(&format!(
            "      \"ingest\": {{\"docs\": {}, \"docs_per_sec\": {:.1}}},\n",
            r.ingest.docs,
            r.ingest.docs_per_sec(),
        ));
        out.push_str("      \"overlays\": [\n");
        for (j, c) in r.columns.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"overlay\": \"{}\", \"protocol\": \"{}\", \"micro_f1\": {:.4}, \"total_bytes\": {}, \"hotspot_bytes\": {}, \"mean_hops\": {:.2},\n",
                c.overlay, c.protocol, c.micro_f1, c.total_bytes, c.hotspot_bytes, c.mean_hops,
            ));
            out.push_str(&format!(
                "         \"train\": {{\"docs\": {}, \"docs_per_sec\": {:.1}{}}},\n",
                c.train.docs,
                c.train.docs_per_sec(),
                mem_fields("", &c.train.mem, c.train.docs),
            ));
            out.push_str(&format!(
                "         \"auto_tag\": {{\"docs\": {}, \"docs_per_sec\": {:.1}{}}}}}{}\n",
                c.auto_tag.docs,
                c.auto_tag.docs_per_sec(),
                mem_fields("", &c.auto_tag.mem, c.auto_tag.docs),
                if j + 1 < r.columns.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < scale_rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_and_reports_consistent_shapes() {
        let row = measure(6, 42);
        assert_eq!(row.peers, 6);
        assert!(row.documents > 0);
        assert!(row.auto_tag.docs > 0);
        assert!(row.auto_tag.scalar_secs > 0.0 && row.auto_tag.batched_secs > 0.0);
        assert!(row.micro_f1 > 0.0);
        let json = to_json(&[row], &[], 42);
        assert!(json.contains("\"auto_tag\""));
        assert!(json.contains("\"speedup\""));
        crate::scenarios::validate_json(&json).unwrap();
    }

    #[test]
    fn measure_scale_reports_both_overlay_columns() {
        let row = measure_scale(8, 42);
        assert_eq!(row.peers, 8);
        assert_eq!(row.columns.len(), 2);
        assert_eq!(row.columns[0].overlay, "chord-dht");
        assert_eq!(row.columns[0].protocol, "pace");
        assert_eq!(row.columns[1].overlay, "super-peer");
        assert_eq!(row.columns[1].protocol, "cempar");
        for c in &row.columns {
            assert!(c.micro_f1 > 0.0, "{} produced no quality", c.overlay);
            assert!(c.total_bytes > 0, "{} moved no bytes", c.overlay);
            assert!(c.train.secs > 0.0 && c.auto_tag.secs > 0.0);
        }
        let json = to_json(&[], &[row], 42);
        crate::scenarios::validate_json(&json).unwrap();
        assert!(json.contains("\"scale_rows\""));
        assert!(json.contains("\"chord-dht\""));
        assert!(json.contains("\"super-peer\""));
    }

    #[test]
    fn legacy_and_current_training_agree() {
        let corpus = CorpusGenerator::new(throughput_spec(4, 7)).generate();
        let split = TrainTestSplit::stratified_by_user(&corpus, 0.3, 7);
        let vectorized = dataset::VectorizedCorpus::build(&corpus);
        let data: MultiLabelDataset = split.train.iter().map(|&d| vectorized.example(d)).collect();
        let trainer = LinearSvmTrainer::default();
        let (legacy_model, legacy_acc) = legacy_train_peer(&data, &trainer).unwrap();
        let (current_model, current_acc) = current_train_peer(&data, &trainer).unwrap();
        assert_eq!(legacy_acc, current_acc);
        assert_eq!(legacy_model.num_tags(), current_model.num_tags());
        let probe = vectorized.vector(split.test[0]);
        assert_eq!(legacy_model.scores(probe), current_model.scores(probe));
    }
}
