//! The experiment suite (E1–E9, A1–A2, CH1 and C1 in `DESIGN.md`).
//!
//! The original paper is a demonstration paper without numeric result tables;
//! each experiment here reproduces either a scenario the demo varies (§3) or a
//! quantitative claim made in §1–2, and prints a table whose *shape* (who
//! wins, by roughly how much, where the trends go) is the reproduction target.
//! `EXPERIMENTS.md` records one captured run of every table.

use crate::chaos::{measure_regime, standard_regimes, ChaosRegime};
use crate::scenarios::measure_scenario;
use crate::workload::{corpus_spec, run_system, standard_protocols, Scale, ScenarioSpec, Workload};
use dataset::{CorpusGenerator, TrainTestSplit, VectorizedCorpus};
use doctagger::library::TagSource;
use doctagger::{DocTaggerConfig, P2PDocTagger, ProtocolKind, TagCloud};
use ml::MultiLabelDataset;
use p2pclassify::{Cempar, CemparConfig, P2PTagClassifier, Pace, PaceConfig, ProtocolError};
use p2psim::churn::ChurnModel;
use p2psim::datadist::{ClassDistribution, DataDistributor, SizeDistribution};
use p2psim::message::MessageKind;
use p2psim::peer::content_key;
use p2psim::{OverlayKind, P2PNetwork, PeerId, SimConfig, SimTime};
use std::collections::BTreeSet;

/// A printable experiment table.
pub struct Table {
    /// Experiment identifier ("E1", "A2", …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("## {} — {}\n", self.id, self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

fn f(x: f64) -> String {
    format!("{x:.3}")
}

fn header(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// Runs every experiment `wants` selects (by lower-case id: `"e1"` … `"a2"`,
/// `"ch1"`, `"c1"`) in suite order, at the default scale or the smaller
/// `quick` one, seeded 2010, and hands each table to `emit` as soon as it is
/// finished.
pub fn run_suite(quick: bool, wants: impl Fn(&str) -> bool, mut emit: impl FnMut(Table)) {
    // Scales: the demo runs "more than 500 peers" for the interactive part;
    // the reproduction defaults keep every table under a few minutes of CPU.
    let (e1_users, e2_peers, e3_users, e4_users, e5_peers, misc_users): (
        usize,
        &[usize],
        usize,
        usize,
        usize,
        usize,
    ) = if quick {
        (8, &[8, 16, 32], 8, 12, 128, 8)
    } else {
        (24, &[16, 32, 64, 128], 24, 24, 512, 16)
    };
    let seed = 2010;
    if wants("e1") {
        emit(e1_accuracy(e1_users, seed));
    }
    if wants("e2") {
        emit(e2_scalability(e2_peers, seed));
    }
    if wants("e3") {
        emit(e3_communication(e3_users, seed));
    }
    if wants("e4") {
        emit(e4_churn(e4_users, seed));
    }
    if wants("e5") {
        emit(e5_topology(e5_peers, 200, seed));
    }
    if wants("e6") {
        emit(e6_data_distribution(misc_users, seed));
    }
    if wants("e7") {
        emit(e7_training_fraction(misc_users, seed));
    }
    if wants("e8") {
        emit(e8_refinement(misc_users, seed));
    }
    if wants("e9") {
        emit(e9_tag_cloud(misc_users, seed));
    }
    if wants("a1") {
        emit(a1_pace_ablation(misc_users, seed));
    }
    if wants("a2") {
        emit(a2_cempar_ablation(misc_users, seed));
    }
    // The session grids: every chaos regime and scenario at demo scale; the
    // quick scale keeps the fault-free and one lossy regime, and the benign
    // and one skewed scenario.
    let (grid_users, grid_scale, grid_epochs) = if quick {
        (10, Scale::Small, 3)
    } else {
        (16, Scale::Demo, 5)
    };
    if wants("ch1") {
        let regimes: Vec<ChaosRegime> = standard_regimes()
            .into_iter()
            .filter(|r| !quick || matches!(r.name, "baseline" | "loss-10"))
            .collect();
        emit(ch1_chaos(
            &regimes,
            grid_users,
            grid_scale,
            grid_epochs,
            seed,
        ));
    }
    if wants("c1") {
        let scenarios: Vec<ScenarioSpec> = ScenarioSpec::matrix()
            .into_iter()
            .filter(|s| !quick || matches!(s.name, "benign" | "zipf-heavy"))
            .collect();
        emit(c1_scenarios(
            &scenarios,
            grid_users,
            grid_scale,
            grid_epochs,
            seed,
        ));
    }
}

/// The differences between a golden suite output and a run's, line by line
/// (`-` golden, `+` run), or `None` when the two are byte-identical.
pub fn golden_diff(golden: &str, run: &str) -> Option<String> {
    if golden == run {
        return None;
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), run.lines().collect());
    let mut report = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            report.push_str(&format!("line {}:\n", i + 1));
            if let Some(w) = w {
                report.push_str(&format!("- {w}\n"));
            }
            if let Some(g) = g {
                report.push_str(&format!("+ {g}\n"));
            }
        }
    }
    if report.is_empty() {
        // Same lines: the difference is in line endings or a final newline.
        report.push_str("the outputs differ only in line endings\n");
    }
    Some(report)
}

/// E1 — tagging accuracy of CEMPaR/PACE vs the centralized and local-only
/// baselines under the demo protocol (20 % training).
pub fn e1_accuracy(num_users: usize, seed: u64) -> Table {
    let workload = Workload::generate(num_users, Scale::Demo, seed);
    let mut rows = Vec::new();
    for protocol in standard_protocols(num_users) {
        let r = run_system(&workload, protocol, None, seed);
        rows.push(vec![
            r.protocol.clone(),
            f(r.outcome.metrics.micro_f1()),
            f(r.outcome.metrics.macro_f1()),
            f(r.outcome.metrics.micro_precision()),
            f(r.outcome.metrics.micro_recall()),
            f(r.outcome.metrics.hamming_loss()),
            f(r.outcome.metrics.subset_accuracy()),
        ]);
    }
    Table {
        id: "E1",
        title: "tagging accuracy vs baselines (20% train, no churn)",
        header: header(&[
            "protocol",
            "micro-F1",
            "macro-F1",
            "precision",
            "recall",
            "hamming",
            "subset-acc",
        ]),
        rows,
    }
}

/// E2 — scalability with the number of peers: accuracy and per-peer
/// communication as the network grows (demo: "more than 500 peers").
pub fn e2_scalability(peer_counts: &[usize], seed: u64) -> Table {
    let mut rows = Vec::new();
    for &n in peer_counts {
        let workload = Workload::generate(n, Scale::Small, seed);
        for protocol in [
            ProtocolKind::Cempar(CemparConfig::for_network(n)),
            ProtocolKind::pace(),
            ProtocolKind::centralized(),
        ] {
            let r = run_system(&workload, protocol, None, seed);
            rows.push(vec![
                n.to_string(),
                r.protocol.clone(),
                f(r.outcome.metrics.micro_f1()),
                format!("{:.0}", r.bytes_per_peer),
                r.hotspot_bytes.to_string(),
                format!("{:.2}", r.mean_hops),
            ]);
        }
    }
    Table {
        id: "E2",
        title: "scalability with network size",
        header: header(&[
            "peers",
            "protocol",
            "micro-F1",
            "bytes/peer",
            "hotspot bytes",
            "mean hops",
        ]),
        rows,
    }
}

/// E3 — communication cost breakdown by protocol phase.
pub fn e3_communication(num_users: usize, seed: u64) -> Table {
    let workload = Workload::generate(num_users, Scale::Demo, seed);
    let mut rows = Vec::new();
    for protocol in standard_protocols(num_users) {
        let name = protocol.name().to_string();
        let num_peers = workload.corpus.num_users().max(1);
        let mut system = P2PDocTagger::new(DocTaggerConfig {
            protocol,
            seed,
            ..DocTaggerConfig::default()
        });
        system.ingest(&workload.corpus);
        system.learn(&workload.split).expect("learning succeeds");
        system.auto_tag_all().expect("tagging succeeds");
        let stats = system.network_stats();
        // Sent view (delivered + dropped), consistent with the total/peer
        // column: the sender paid for every byte it put on the wire.
        let by = |k: MessageKind| stats.kind(k).bytes_sent().to_string();
        rows.push(vec![
            name,
            by(MessageKind::TrainingData),
            by(MessageKind::ModelPropagation),
            by(MessageKind::DhtLookup),
            by(MessageKind::PredictionQuery),
            by(MessageKind::PredictionResponse),
            format!("{:.0}", stats.total_bytes() as f64 / num_peers as f64),
        ]);
    }
    Table {
        id: "E3",
        title: "communication cost by phase (bytes, whole run)",
        header: header(&[
            "protocol",
            "raw data",
            "models",
            "dht",
            "queries",
            "responses",
            "total/peer",
        ]),
        rows,
    }
}

/// E4 — churn resilience: requests issued by online peers that could not be
/// served, while the mean session length shrinks.
pub fn e4_churn(num_users: usize, seed: u64) -> Table {
    let mut rows = Vec::new();
    for &mean_session in &[4_000.0f64, 2_000.0, 1_000.0, 500.0] {
        let workload = Workload::generate(num_users, Scale::Small, seed);
        for protocol in [
            ProtocolKind::pace(),
            ProtocolKind::Cempar(CemparConfig::for_network(num_users)),
            ProtocolKind::centralized(),
        ] {
            let name = protocol.name().to_string();
            let mut system = P2PDocTagger::new(DocTaggerConfig {
                protocol,
                network: Some(SimConfig {
                    num_peers: workload.corpus.num_users(),
                    churn: ChurnModel::Exponential {
                        mean_session_secs: mean_session,
                        mean_offline_secs: mean_session / 2.0,
                    },
                    horizon_secs: 2_000_000,
                    seed,
                    ..SimConfig::default()
                }),
                seed,
                ..DocTaggerConfig::default()
            });
            system.ingest(&workload.corpus);
            system.learn(&workload.split).expect("learning succeeds");
            // Spread the tagging requests over time so churn matters.
            let mut served = 0usize;
            let mut unserved = 0usize;
            let mut correct_f1 = Vec::new();
            for (i, &doc) in workload.split.test.iter().enumerate() {
                if i % 5 == 0 {
                    system.advance_time(SimTime::from_secs(1_000));
                }
                match system.auto_tag(doc) {
                    Ok(tags) => {
                        served += 1;
                        let truth = &workload.corpus.document(doc).unwrap().tags;
                        let inter = tags.intersection(truth).count() as f64;
                        let denom = (tags.len() + truth.len()) as f64;
                        correct_f1.push(if denom > 0.0 {
                            2.0 * inter / denom
                        } else {
                            1.0
                        });
                    }
                    Err(ProtocolError::PeerOffline) => {}
                    Err(_) => unserved += 1,
                }
            }
            let failure = unserved as f64 / (served + unserved).max(1) as f64;
            let mean_f1 = correct_f1.iter().sum::<f64>() / correct_f1.len().max(1) as f64;
            rows.push(vec![
                format!("{mean_session:.0}"),
                name,
                format!("{:.1}%", failure * 100.0),
                f(mean_f1),
            ]);
        }
    }
    Table {
        id: "E4",
        title: "churn resilience (exponential churn, requests spread over time)",
        header: header(&[
            "mean session (s)",
            "protocol",
            "unserved requests",
            "example-F1 (served)",
        ]),
        rows,
    }
}

/// E5 — overlay topology: structured DHT routing vs unstructured flooding.
pub fn e5_topology(num_peers: usize, lookups: usize, seed: u64) -> Table {
    let mut rows = Vec::new();
    let configs = [
        ("chord-dht", OverlayKind::Chord),
        (
            "flood-ttl4",
            OverlayKind::Unstructured { degree: 6, ttl: 4 },
        ),
        (
            "flood-ttl6",
            OverlayKind::Unstructured { degree: 6, ttl: 6 },
        ),
    ];
    for (name, overlay) in configs {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers,
            overlay,
            seed,
            ..SimConfig::default()
        });
        let mut found = 0usize;
        for i in 0..lookups {
            let key = content_key(&(i as u64 + seed).to_le_bytes());
            let from = PeerId((i % num_peers) as u64);
            if net.dht_lookup(from, key).is_ok() {
                found += 1;
            }
        }
        let stats = net.stats();
        rows.push(vec![
            name.to_string(),
            num_peers.to_string(),
            format!("{:.1}%", 100.0 * found as f64 / lookups as f64),
            format!("{:.2}", stats.mean_lookup_hops()),
            format!(
                "{:.1}",
                stats.kind(MessageKind::DhtLookup).messages as f64 / lookups as f64
            ),
        ]);
    }
    Table {
        id: "E5",
        title: "overlay topology: routing success, hops and messages per lookup",
        header: header(&[
            "overlay",
            "peers",
            "success",
            "mean hops",
            "messages/lookup",
        ]),
        rows,
    }
}

/// E6 — per-peer data distribution: accuracy when the same corpus is spread
/// over peers with uniform vs Zipf sizes and IID vs label-skewed classes.
pub fn e6_data_distribution(num_peers: usize, seed: u64) -> Table {
    let spec = corpus_spec(16, Scale::Small, seed);
    let corpus = CorpusGenerator::new(spec).generate();
    let split = TrainTestSplit::demo_protocol(&corpus, seed);
    let vectorized = VectorizedCorpus::build(&corpus);
    let labels: Vec<u64> = split
        .train
        .iter()
        .map(|&d| corpus.tag_ids_of(d).into_iter().next().unwrap_or_default() as u64)
        .collect();

    let scenarios = [
        (
            "uniform / iid",
            SizeDistribution::Uniform,
            ClassDistribution::Iid,
        ),
        (
            "zipf / iid",
            SizeDistribution::Zipf { exponent: 1.2 },
            ClassDistribution::Iid,
        ),
        (
            "uniform / label-skew",
            SizeDistribution::Uniform,
            ClassDistribution::LabelSkewed {
                concentration: 0.8,
                home_peers: 2,
            },
        ),
        (
            "zipf / label-skew",
            SizeDistribution::Zipf { exponent: 1.2 },
            ClassDistribution::LabelSkewed {
                concentration: 0.8,
                home_peers: 2,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, size, class) in scenarios {
        let assignment = DataDistributor { size, class, seed }.distribute(&labels, num_peers);
        let gini = p2psim::datadist::size_gini(&assignment);
        let entropy = p2psim::datadist::label_entropy_ratio(&assignment, &labels);
        let mut peer_data: Vec<MultiLabelDataset> = vec![MultiLabelDataset::new(); num_peers];
        for (peer, items) in assignment.iter().enumerate() {
            for &i in items {
                peer_data[peer].push(vectorized.example(split.train[i]));
            }
        }
        for (proto_name, result) in run_protocols_on_peer_data(
            &peer_data,
            &vectorized,
            &split.test,
            &corpus,
            num_peers,
            seed,
        ) {
            rows.push(vec![
                name.to_string(),
                format!("{gini:.2}"),
                format!("{entropy:.2}"),
                proto_name,
                f(result),
            ]);
        }
    }
    Table {
        id: "E6",
        title: "per-peer size and class distribution (micro-F1)",
        header: header(&[
            "distribution",
            "size gini",
            "label entropy",
            "protocol",
            "micro-F1",
        ]),
        rows,
    }
}

/// Helper for E6: trains CEMPaR and PACE directly on per-peer datasets and
/// evaluates micro-F1 on the test documents (queries from their owners'
/// peers modulo the network size).
fn run_protocols_on_peer_data(
    peer_data: &[MultiLabelDataset],
    vectorized: &VectorizedCorpus,
    test_docs: &[usize],
    corpus: &dataset::Corpus,
    num_peers: usize,
    seed: u64,
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let universe: BTreeSet<u32> = (0..corpus.num_tags() as u32).collect();
    let protos: Vec<(String, Box<dyn P2PTagClassifier>)> = vec![
        (
            "cempar".to_string(),
            Box::new(Cempar::new(CemparConfig::for_network(num_peers))),
        ),
        (
            "pace".to_string(),
            Box::new(Pace::new(PaceConfig::default())),
        ),
    ];
    for (name, mut proto) in protos {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers,
            seed,
            ..SimConfig::default()
        });
        proto
            .train(&mut net, &peer_data.to_vec())
            .expect("training succeeds");
        let mut predictions = Vec::new();
        let mut truths = Vec::new();
        for &doc in test_docs {
            let peer = PeerId((corpus.document(doc).unwrap().user % num_peers) as u64);
            let pred = proto
                .predict(&mut net, peer, vectorized.vector(doc))
                .unwrap_or_default();
            predictions.push(pred);
            truths.push(corpus.tag_ids_of(doc));
        }
        let metrics = ml::MultiLabelMetrics::evaluate(&predictions, &truths, &universe);
        out.push((name, metrics.micro_f1()));
    }
    out
}

/// E7 — accuracy as a function of the manually-tagged (training) fraction.
pub fn e7_training_fraction(num_users: usize, seed: u64) -> Table {
    let mut rows = Vec::new();
    for &fraction in &[0.05f64, 0.1, 0.2, 0.3, 0.4] {
        let workload = Workload::generate_with_fraction(num_users, Scale::Small, seed, fraction);
        for protocol in [
            ProtocolKind::pace(),
            ProtocolKind::Cempar(CemparConfig::for_network(num_users)),
            ProtocolKind::local_only(),
        ] {
            let r = run_system(&workload, protocol, None, seed);
            rows.push(vec![
                format!("{:.0}%", fraction * 100.0),
                r.protocol.clone(),
                f(r.outcome.metrics.micro_f1()),
                f(r.outcome.metrics.macro_f1()),
            ]);
        }
    }
    Table {
        id: "E7",
        title: "accuracy vs manually-tagged fraction",
        header: header(&["train fraction", "protocol", "micro-F1", "macro-F1"]),
        rows,
    }
}

/// E8 — tag refinement: accuracy on the untouched documents before and after
/// rounds of user corrections.
pub fn e8_refinement(num_users: usize, seed: u64) -> Table {
    let workload = Workload::generate_with_fraction(num_users, Scale::Small, seed, 0.1);
    let mut system = P2PDocTagger::new(DocTaggerConfig {
        protocol: ProtocolKind::pace(),
        seed,
        ..DocTaggerConfig::default()
    });
    system.ingest(&workload.corpus);
    system.learn(&workload.split).expect("learning succeeds");
    let mut rows = Vec::new();
    let rounds = 4usize;
    let per_round = 20usize;
    let holdout: Vec<usize> = workload
        .split
        .test
        .iter()
        .copied()
        .skip(rounds * per_round)
        .collect();
    let evaluate = |system: &mut P2PDocTagger| -> f64 {
        let universe: BTreeSet<u32> = (0..workload.corpus.num_tags() as u32).collect();
        let mut predictions = Vec::new();
        let mut truths = Vec::new();
        for &doc in &holdout {
            let tags = system.auto_tag(doc).unwrap_or_default();
            predictions.push(
                tags.iter()
                    .filter_map(|t| workload.corpus.tag_id(t))
                    .collect(),
            );
            truths.push(workload.corpus.tag_ids_of(doc));
        }
        ml::MultiLabelMetrics::evaluate(&predictions, &truths, &universe).micro_f1()
    };
    rows.push(vec![
        "0".to_string(),
        "0".to_string(),
        f(evaluate(&mut system)),
    ]);
    for round in 1..=rounds {
        let start = (round - 1) * per_round;
        for &doc in workload.split.test.iter().skip(start).take(per_round) {
            let truth = workload.corpus.document(doc).unwrap().tags.clone();
            system.refine(doc, truth).expect("refinement succeeds");
        }
        rows.push(vec![
            round.to_string(),
            (round * per_round).to_string(),
            f(evaluate(&mut system)),
        ]);
    }
    Table {
        id: "E8",
        title:
            "tag refinement: held-out micro-F1 after rounds of user corrections (PACE, 10% train)",
        header: header(&["round", "total corrections", "micro-F1"]),
        rows,
    }
}

/// E9 — tag-cloud structure (Figure 4): co-occurrence graph, clusters, bridges.
pub fn e9_tag_cloud(num_users: usize, seed: u64) -> Table {
    let workload = Workload::generate(num_users, Scale::Small, seed);
    let mut system = P2PDocTagger::new(DocTaggerConfig {
        seed,
        ..DocTaggerConfig::default()
    });
    system.ingest(&workload.corpus);
    system.learn(&workload.split).expect("learning succeeds");
    system.auto_tag_all().expect("tagging succeeds");
    let cloud: TagCloud = system.tag_cloud();
    let manual = system
        .library()
        .iter()
        .filter(|e| e.source == TagSource::Manual)
        .count();
    let mut rows = vec![
        vec![
            "documents in library".to_string(),
            system.library().len().to_string(),
        ],
        vec!["manually tagged".to_string(), manual.to_string()],
        vec![
            "automatically tagged".to_string(),
            system.library().auto_tagged_count().to_string(),
        ],
        vec!["distinct tags".to_string(), cloud.num_tags().to_string()],
        vec![
            "co-occurrence edges".to_string(),
            cloud.num_edges().to_string(),
        ],
    ];
    for min_weight in [1usize, 3, 6] {
        let clusters = cloud.clusters(min_weight);
        let bridges = cloud.bridge_tags(min_weight);
        rows.push(vec![
            format!("clusters (edge weight >= {min_weight})"),
            format!("{} (bridges: {})", clusters.len(), bridges.join(", ")),
        ]);
    }
    Table {
        id: "E9",
        title: "tag cloud and co-occurrence structure",
        header: header(&["statistic", "value"]),
        rows,
    }
}

/// A1 — PACE ablation: number of consulted models (top-k) and the LSH index.
pub fn a1_pace_ablation(num_users: usize, seed: u64) -> Table {
    let workload = Workload::generate(num_users, Scale::Small, seed);
    let mut rows = Vec::new();
    for &top_k in &[1usize, 3, 7, 15] {
        for &use_lsh in &[true, false] {
            let protocol = ProtocolKind::Pace(PaceConfig {
                top_k,
                use_lsh,
                ..PaceConfig::default()
            });
            let r = run_system(&workload, protocol, None, seed);
            rows.push(vec![
                top_k.to_string(),
                if use_lsh { "lsh" } else { "exact" }.to_string(),
                f(r.outcome.metrics.micro_f1()),
                f(r.outcome.metrics.macro_f1()),
            ]);
        }
    }
    Table {
        id: "A1",
        title: "PACE ablation: top-k consulted models and LSH index",
        header: header(&["top-k", "model ranking", "micro-F1", "macro-F1"]),
        rows,
    }
}

/// A2 — CEMPaR ablation: number of super-peer regions and cascade retraining.
pub fn a2_cempar_ablation(num_users: usize, seed: u64) -> Table {
    let workload = Workload::generate(num_users, Scale::Small, seed);
    let mut rows = Vec::new();
    for &regions in &[1usize, 2, 4, 8, 16] {
        for &retrain in &[true, false] {
            let mut config = CemparConfig::for_network(num_users);
            config.regions = regions;
            config.cascade.retrain = retrain;
            let protocol = ProtocolKind::Cempar(config);
            let r = run_system(&workload, protocol, None, seed);
            rows.push(vec![
                regions.to_string(),
                if retrain { "retrain" } else { "pool-only" }.to_string(),
                f(r.outcome.metrics.micro_f1()),
                format!("{:.0}", r.bytes_per_peer),
                r.hotspot_bytes.to_string(),
            ]);
        }
    }
    Table {
        id: "A2",
        title: "CEMPaR ablation: super-peer regions and cascade retraining",
        header: header(&[
            "regions",
            "cascade",
            "micro-F1",
            "bytes/peer",
            "hotspot bytes",
        ]),
        rows,
    }
}

/// CH1 — the chaos grid: each protocol's streaming session under each fault
/// regime, with its quality, its per-epoch recovery curve and the fault and
/// reliable-link counters that priced it.
pub fn ch1_chaos(
    regimes: &[ChaosRegime],
    num_users: usize,
    scale: Scale,
    epochs: usize,
    seed: u64,
) -> Table {
    let mut rows = Vec::new();
    for regime in regimes {
        let row = measure_regime(regime, num_users, scale, epochs, seed);
        for c in &row.cells {
            let curve: Vec<String> = c.epoch_macro_f1.iter().map(|&x| f(x)).collect();
            rows.push(vec![
                regime.name.to_string(),
                c.protocol.clone(),
                f(c.micro_f1),
                f(c.macro_f1),
                curve.join(" "),
                c.auto_failed.to_string(),
                c.bytes.to_string(),
                c.faults.total_fault_drops().to_string(),
                c.faults.corrupted.to_string(),
                c.faults.crashes.to_string(),
                c.link.retransmits.to_string(),
                c.link.recovered.to_string(),
                c.link.resyncs.to_string(),
                c.link.gave_up.to_string(),
            ]);
        }
    }
    Table {
        id: "CH1",
        title: "chaos grid: fault regimes × protocols with reliable delivery",
        header: header(&[
            "regime",
            "protocol",
            "micro-F1",
            "macro-F1",
            "macro-F1 by epoch",
            "failed",
            "bytes",
            "dropped",
            "corrupted",
            "crashes",
            "retransmits",
            "recovered",
            "resyncs",
            "gave up",
        ]),
        rows,
    }
}

/// C1 — the scenario matrix: each protocol's streaming session on each
/// adversarial workload, with head/tail-tag and cold-start quality.
pub fn c1_scenarios(
    scenarios: &[ScenarioSpec],
    num_users: usize,
    scale: Scale,
    epochs: usize,
    seed: u64,
) -> Table {
    let mut rows = Vec::new();
    for scenario in scenarios {
        let row = measure_scenario(scenario, num_users, scale, epochs, seed);
        for c in &row.cells {
            rows.push(vec![
                scenario.name.to_string(),
                c.protocol.clone(),
                scenario.is_skewed().to_string(),
                c.overlay.to_string(),
                f(c.micro_f1),
                f(c.macro_f1),
                f(c.head_macro_f1),
                f(c.tail_macro_f1),
                c.head_tags.to_string(),
                c.tail_tags.to_string(),
                f(c.cold_start_macro_f1),
                f(c.cold_start_micro_f1),
                c.bytes.to_string(),
            ]);
        }
    }
    Table {
        id: "C1",
        title: "scenario matrix: adversarial workloads, stratified F1",
        header: header(&[
            "scenario",
            "protocol",
            "skewed",
            "overlay",
            "micro-F1",
            "macro-F1",
            "head F1",
            "tail F1",
            "head tags",
            "tail tags",
            "cold macro-F1",
            "cold micro-F1",
            "bytes",
        ]),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_produces_one_row_per_protocol() {
        let t = e1_accuracy(6, 3);
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("micro-F1"));
    }

    #[test]
    fn e5_runs_all_overlays() {
        let t = e5_topology(64, 30, 3);
        assert_eq!(t.rows.len(), 3);
        // Chord must have 100% success.
        assert!(t.rows[0][2].starts_with("100"));
    }

    #[test]
    fn e9_reports_cloud_statistics() {
        let t = e9_tag_cloud(6, 3);
        assert!(t.rows.len() >= 7);
    }

    #[test]
    fn table_rendering_is_aligned() {
        let t = Table {
            id: "X",
            title: "test",
            header: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "22".into()]],
        };
        let s = t.render();
        assert!(s.contains("## X — test"));
        assert!(s.lines().count() >= 4);
    }
}
