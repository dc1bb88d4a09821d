//! `peerd-loopback`: real `peerd` daemons on 127.0.0.1 — the loopback
//! interface, not a real link — driven closed-loop by one client with one
//! request outstanding.
//!
//! Phase A runs PACE cores: learn rounds (every peer trains on its next slice
//! of documents, then the fleet converges), refine rounds (one peer folds in
//! one corrected document, then the fleet converges) and predicts answered
//! locally. Phase B runs CEMPaR cores: one learn round, then predicts routed
//! to the super-peers. The same inputs first run through
//! [`p2pclassify::sansio::SimDriver`]; the sockets must reproduce its
//! installed sets, score bits and traffic exactly.

use super::{Phase, Rep};
use crate::clock;
use crate::spec::{self, LoopbackSpec, Size};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use dataset::{Corpus, CorpusGenerator, VectorizedCorpus};
use ml::multilabel::TagPrediction;
use ml::{MultiLabelDataset, MultiLabelMetrics, TagId};
use p2pclassify::protocol::select_tags_adaptive;
use p2pclassify::sansio::{CemparCore, LocalEffect, PaceCore, PeerCore, SimDriver};
use p2pclassify::{CemparConfig, PaceConfig};
use p2psim::PeerId;
use peerd::LoopbackHarness;
use std::collections::BTreeSet;
use std::time::Duration;
use textproc::SparseVector;

const CONVERGE_TIMEOUT_S: f64 = 20.0;
/// Times set-up vectorises the corpus to time that step.
const VECTORIZE_REPEATS: usize = 5;
const PREDICT_TIMEOUT: Duration = Duration::from_secs(10);

/// Held-out documents per daemon the scenario keeps as probes, at most.
const PROBES_PER_PEER: usize = 60;

/// Installed `(source, version)` sets, one per peer.
type Installed = Vec<Vec<(u64, u64)>>;

/// A held-out document to auto-tag.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Its TF-IDF vector.
    pub vector: SparseVector,
    /// Its ground-truth tags.
    pub truth: BTreeSet<TagId>,
}

/// The inputs both drivers are fed, cut from a generated corpus.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The fleet.
    pub peers: Vec<PeerId>,
    /// `rounds[r][p]`: what peer `p` trains on in learn round `r`.
    pub rounds: Vec<Vec<MultiLabelDataset>>,
    /// `(peer index, one-document dataset)` per refine round.
    pub refines: Vec<(usize, MultiLabelDataset)>,
    /// Held-out documents; request `i` sends `probes[i % len]` to peer `i % n`.
    pub probes: Vec<Probe>,
    /// Tags of the corpus, the evaluation universe.
    pub universe: BTreeSet<TagId>,
    /// Locally answered predicts in phase A.
    pub local_predicts: usize,
    /// Routed predicts in phase B.
    pub routed_predicts: usize,
    /// Extra `snapshot` round trips timed in phase A.
    pub command_probes: usize,
}

impl Scenario {
    /// Cuts per-peer learn slices, refine documents and probes, in document
    /// order. Daemon `p` owns the documents of users `p`, `p + n`, `p + 2n` …
    /// up to what the rounds need plus [`PROBES_PER_PEER`] held-out ones.
    pub fn cut(corpus: &Corpus, vectorized: &VectorizedCorpus, spec: &LoopbackSpec) -> Scenario {
        let n = spec.daemons;
        let by_user = corpus.documents_by_user();
        let refines_per_peer = spec.refine_rounds.div_ceil(n);
        let learn_docs = spec.learn_rounds * spec.slice_docs;
        let needed = learn_docs + refines_per_peer + PROBES_PER_PEER;
        let mut rounds = vec![vec![MultiLabelDataset::new(); n]; spec.learn_rounds];
        let mut refine_docs: Vec<Vec<MultiLabelDataset>> = vec![Vec::new(); n];
        let mut probes = Vec::new();
        for p in 0..n {
            let docs = by_user.iter().skip(p).step_by(n).flatten().take(needed);
            for (i, &doc) in docs.enumerate() {
                if i < learn_docs {
                    rounds[i / spec.slice_docs][p].push(vectorized.example(doc));
                } else if i < learn_docs + refines_per_peer {
                    refine_docs[p].push(MultiLabelDataset::from_examples(vec![
                        vectorized.example(doc)
                    ]));
                } else {
                    probes.push(Probe {
                        vector: vectorized.vector(doc).clone(),
                        truth: vectorized.tags(doc).clone(),
                    });
                }
            }
        }
        let refines = (0..spec.refine_rounds)
            .filter_map(|r| refine_docs[r % n].get(r / n).map(|d| (r % n, d.clone())))
            .collect();
        Scenario {
            peers: (0..n as u64).map(PeerId).collect(),
            rounds,
            refines,
            probes,
            universe: (0..corpus.num_tags() as TagId).collect(),
            local_predicts: spec.local_predicts,
            routed_predicts: spec.routed_predicts,
            command_probes: spec.command_probes,
        }
    }

    /// Documents folded in by the learn rounds of one phase.
    pub fn learn_docs(&self) -> u64 {
        self.rounds.iter().flatten().map(|d| d.len() as u64).sum()
    }

    /// Everything peer `p` learns in phase A, as phase B's single round.
    fn whole_data(&self, p: usize) -> MultiLabelDataset {
        let mut all = MultiLabelDataset::new();
        for round in &self.rounds {
            all.extend_from(&round[p]);
        }
        all
    }

    /// Peer and probe of request `i`.
    pub fn request(&self, i: usize) -> (PeerId, &Probe) {
        (
            self.peers[i % self.peers.len()],
            &self.probes[i % self.probes.len()],
        )
    }

    /// A PACE fleet over the scenario's peers.
    pub fn pace_fleet(&self) -> Vec<PeerCore> {
        self.peers
            .iter()
            .map(|&p| PeerCore::Pace(PaceCore::new(p, self.peers.clone(), PaceConfig::default())))
            .collect()
    }

    /// A CEMPaR fleet over the scenario's peers.
    pub fn cempar_fleet(&self) -> Vec<PeerCore> {
        self.peers
            .iter()
            .map(|&p| {
                PeerCore::Cempar(CemparCore::new(
                    p,
                    self.peers.clone(),
                    CemparConfig::default(),
                ))
            })
            .collect()
    }
}

/// What the simulator says the sockets must reproduce.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// Installed sets after each phase A round (learn rounds, then refines).
    pub a_installed: Vec<Installed>,
    /// Scores of each phase A request.
    pub a_scores: Vec<Vec<TagPrediction>>,
    /// `(frames, bytes)` of phase A.
    pub a_traffic: (u64, u64),
    /// Installed sets after phase B's learn round.
    pub b_installed: Installed,
    /// Scores of each phase B request.
    pub b_scores: Vec<Vec<TagPrediction>>,
    /// `(frames, bytes)` of phase B.
    pub b_traffic: (u64, u64),
}

fn installed_of(driver: &SimDriver) -> Installed {
    driver
        .cores()
        .iter()
        .map(PeerCore::installed_versions)
        .collect()
}

fn sim_predict(driver: &mut SimDriver, peer: PeerId, x: &SparseVector) -> Vec<TagPrediction> {
    let request = driver.predict(peer, x);
    driver.run_until_quiescent();
    driver
        .take_effects()
        .into_iter()
        .find_map(|(p, e)| match e {
            LocalEffect::Prediction { request: r, scores } if p == peer && r == request => {
                Some(scores)
            }
            _ => None,
        })
        .expect("the simulator completes every prediction")
}

/// Runs the scenario through [`SimDriver`].
pub fn simulate(s: &Scenario) -> Reference {
    let mut reference = Reference::default();
    let mut a = SimDriver::new(s.pace_fleet());
    for round in &s.rounds {
        for (p, data) in round.iter().enumerate() {
            a.train(s.peers[p], data);
        }
        a.run_until_quiescent();
        reference.a_installed.push(installed_of(&a));
    }
    for (p, data) in &s.refines {
        a.train(s.peers[*p], data);
        a.run_until_quiescent();
        reference.a_installed.push(installed_of(&a));
    }
    a.take_effects();
    for i in 0..s.local_predicts {
        let (peer, probe) = s.request(i);
        reference
            .a_scores
            .push(sim_predict(&mut a, peer, &probe.vector));
    }
    reference.a_traffic = a.traffic();

    let mut b = SimDriver::new(s.cempar_fleet());
    for (p, &peer) in s.peers.iter().enumerate() {
        b.train(peer, &s.whole_data(p));
    }
    b.run_until_quiescent();
    reference.b_installed = installed_of(&b);
    b.take_effects();
    for i in 0..s.routed_predicts {
        let (peer, probe) = s.request(i);
        reference
            .b_scores
            .push(sim_predict(&mut b, peer, &probe.vector));
    }
    reference.b_traffic = b.traffic();
    reference
}

/// What the socket run measured.
#[derive(Debug, Clone, Default)]
pub struct SocketRun {
    /// Seconds starting both fleets.
    pub start_s: f64,
    /// Seconds shutting both fleets down.
    pub shutdown_s: f64,
    /// Seconds of phase A plus phase B, fleet start and stop excluded.
    pub run_s: f64,
    /// Train → fleet converged, per phase A learn round, in ms.
    pub learn_ms: Vec<f64>,
    /// Train → fleet converged, per phase A refine round, in ms.
    pub refine_ms: Vec<f64>,
    /// Train → fleet converged for phase B's round, in ms.
    pub b_learn_ms: f64,
    /// First `train` command → first remote install seen, phase A round 0.
    pub first_install_ms: f64,
    /// Round trip of each phase A predict, in ms.
    pub local_rtt_ms: Vec<f64>,
    /// Round trip of each phase B predict, in ms.
    pub routed_rtt_ms: Vec<f64>,
    /// Round trip of each `snapshot` command (no core work), in ms.
    pub command_rtt_ms: Vec<f64>,
    /// Frames and bytes the daemons report having sent, both phases.
    pub frames_sent: u64,
    /// See `frames_sent`.
    pub bytes_sent: u64,
    /// Macro-F1 of the phase A predictions (first pass over the probes).
    pub macro_f1: f64,
    /// Requests and rounds that did not complete or did not match.
    pub problems: Vec<String>,
}

/// Polls every peer's snapshot until its installed set equals `expected`.
/// Returns the milliseconds from `start_s` to the last match.
fn await_installed(
    harness: &LoopbackHarness,
    peers: &[PeerId],
    expected: &Installed,
    start_s: f64,
    run: &mut SocketRun,
) -> f64 {
    for (p, &peer) in peers.iter().enumerate() {
        loop {
            let probe_start = clock::now_s();
            let snapshot = harness.snapshot(peer);
            run.command_rtt_ms
                .push((clock::now_s() - probe_start) * 1e3);
            match snapshot {
                Ok(s) if s.installed == expected[p] => break,
                Ok(_) if clock::now_s() - start_s < CONVERGE_TIMEOUT_S => {}
                Ok(s) => {
                    run.problems.push(format!(
                        "{peer:?} holds {:?}, the simulator {:?}",
                        s.installed, expected[p]
                    ));
                    break;
                }
                Err(e) => {
                    run.problems.push(format!("snapshot of {peer:?}: {e}"));
                    break;
                }
            }
        }
    }
    (clock::now_s() - start_s) * 1e3
}

/// One timed predict; a timeout or a score that differs from the simulator's
/// in any bit is a failed operation.
fn socket_predict(
    harness: &LoopbackHarness,
    s: &Scenario,
    i: usize,
    expected: &[TagPrediction],
    run: &mut SocketRun,
) -> (f64, Option<Vec<TagPrediction>>) {
    let (peer, probe) = s.request(i);
    let (result, secs) = clock::time(|| harness.predict(peer, &probe.vector, PREDICT_TIMEOUT));
    let scores = match result {
        Ok(scores) => {
            let same = scores.len() == expected.len()
                && scores.iter().zip(expected).all(|(a, b)| {
                    a.tag == b.tag
                        && a.score.to_bits() == b.score.to_bits()
                        && a.confidence.to_bits() == b.confidence.to_bits()
                });
            if !same {
                run.problems.push(format!(
                    "request {i} at {peer:?}: scores differ from the simulator's"
                ));
            }
            Some(scores)
        }
        Err(e) => {
            run.problems.push(format!("request {i} at {peer:?}: {e}"));
            None
        }
    };
    (secs * 1e3, scores)
}

fn tally_traffic(harness: &LoopbackHarness, s: &Scenario, sim: (u64, u64), run: &mut SocketRun) {
    let (mut frames, mut bytes) = (0, 0);
    for &peer in &s.peers {
        match harness.snapshot(peer) {
            Ok(snapshot) => {
                frames += snapshot.frames_sent;
                bytes += snapshot.bytes_sent;
            }
            Err(e) => run.problems.push(format!("snapshot of {peer:?}: {e}")),
        }
    }
    if (frames, bytes) != sim {
        run.problems.push(format!(
            "daemons sent {frames} frames / {bytes} bytes, the simulator {} / {}",
            sim.0, sim.1
        ));
    }
    run.frames_sent += frames;
    run.bytes_sent += bytes;
}

/// Starts a fleet, times `phase` on it, checks the daemons' traffic against
/// the simulator's and shuts the fleet down. Fleet start and stop are timed
/// apart from the phase.
fn with_fleet(
    cores: Vec<PeerCore>,
    sim_traffic: (u64, u64),
    s: &Scenario,
    run: &mut SocketRun,
    phase: impl FnOnce(&LoopbackHarness, &mut SocketRun) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let (harness, start_s) = clock::time(|| LoopbackHarness::start(cores));
    let harness = harness?;
    run.start_s += start_s;
    let (done, secs) = clock::time(|| phase(&harness, run));
    run.run_s += secs;
    if done.is_ok() {
        tally_traffic(&harness, s, sim_traffic, run);
    }
    run.shutdown_s += clock::time(|| harness.shutdown()).1;
    done
}

/// Phase A on a PACE fleet: learn rounds, refine rounds, local predicts, and
/// (for the `peerd` probes) bare command round trips.
fn phase_a(
    harness: &LoopbackHarness,
    s: &Scenario,
    reference: &Reference,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    run: &mut SocketRun,
) -> std::io::Result<()> {
    let phase = tracer.open(parent, "peerd.phase_a");
    let learn_rounds = s
        .rounds
        .iter()
        .map(|round| round.iter().enumerate().collect());
    let refine_rounds = s.refines.iter().map(|(p, data)| vec![(*p, data)]);
    for (r, round) in learn_rounds.chain(refine_rounds).enumerate() {
        let round: Vec<(usize, &MultiLabelDataset)> = round;
        let span = tracer.open(phase, "peerd.train_to_converged");
        let start = clock::now_s();
        for &(p, data) in &round {
            harness.train(s.peers[p], data)?;
        }
        if r == 0 {
            // Wait for the first model that crossed a socket: peer 0 holding
            // anything besides its own.
            while harness.snapshot(s.peers[0])?.installed.len() < 2
                && clock::now_s() - start < CONVERGE_TIMEOUT_S
            {}
            run.first_install_ms = (clock::now_s() - start) * 1e3;
        }
        let ms = await_installed(harness, &s.peers, &reference.a_installed[r], start, run);
        tracer.close(span, round.len() as u64);
        if r < s.rounds.len() {
            run.learn_ms.push(ms);
        } else {
            run.refine_ms.push(ms);
        }
    }

    let config = PaceConfig::default();
    let mut predictions = Vec::new();
    let mut truths = Vec::new();
    for i in 0..s.local_predicts {
        let span = tracer.open(phase, "peerd.predict");
        let (ms, scores) = socket_predict(harness, s, i, &reference.a_scores[i], run);
        tracer.close(span, 1);
        run.local_rtt_ms.push(ms);
        if i < s.probes.len() {
            predictions.push(scores.map_or_else(BTreeSet::new, |scores| {
                select_tags_adaptive(
                    &scores,
                    config.vote_threshold,
                    config.rel_threshold,
                    config.min_tags,
                )
            }));
            truths.push(s.request(i).1.truth.clone());
        }
    }
    run.macro_f1 = MultiLabelMetrics::evaluate(&predictions, &truths, &s.universe).macro_f1();
    tracer.close(
        phase,
        (s.rounds.len() + s.refines.len() + s.local_predicts) as u64,
    );

    for i in 0..s.command_probes {
        let (snapshot, secs) = clock::time(|| harness.snapshot(s.peers[i % s.peers.len()]));
        snapshot?;
        run.command_rtt_ms.push(secs * 1e3);
    }
    Ok(())
}

/// Phase B on a CEMPaR fleet: one learn round, then routed predicts.
fn phase_b(
    harness: &LoopbackHarness,
    s: &Scenario,
    reference: &Reference,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    run: &mut SocketRun,
) -> std::io::Result<()> {
    let phase = tracer.open(parent, "peerd.phase_b");
    let span = tracer.open(phase, "peerd.train_to_converged");
    let start = clock::now_s();
    for (p, &peer) in s.peers.iter().enumerate() {
        harness.train(peer, &s.whole_data(p))?;
    }
    run.b_learn_ms = await_installed(harness, &s.peers, &reference.b_installed, start, run);
    tracer.close(span, s.peers.len() as u64);
    for i in 0..s.routed_predicts {
        let span = tracer.open(phase, "peerd.routed_predict");
        let (ms, _) = socket_predict(harness, s, i, &reference.b_scores[i], run);
        tracer.close(span, 1);
        run.routed_rtt_ms.push(ms);
    }
    tracer.close(phase, (1 + s.routed_predicts) as u64);
    Ok(())
}

/// Runs the scenario over loopback TCP and checks it against `reference`.
pub fn run_sockets(
    s: &Scenario,
    reference: &Reference,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> std::io::Result<SocketRun> {
    let mut run = SocketRun::default();
    with_fleet(
        s.pace_fleet(),
        reference.a_traffic,
        s,
        &mut run,
        |harness, run| phase_a(harness, s, reference, tracer, parent, run),
    )?;
    with_fleet(
        s.cempar_fleet(),
        reference.b_traffic,
        s,
        &mut run,
        |harness, run| phase_b(harness, s, reference, tracer, parent, run),
    )?;
    Ok(run)
}

/// One repetition. Set-up generates and vectorises the corpus, cuts the
/// scenario, runs the simulator reference and starts the fleets; the timed
/// section is phases A and B.
pub fn run_rep(size: Size, seed: u64, tracer: &mut Tracer) -> Rep {
    let spec = spec::loopback_spec(size);
    let mut rep = Rep {
        peers: spec.daemons,
        ..Rep::default()
    };

    let setup_span = tracer.open(None, "setup");
    let (corpus, generate_s) =
        clock::time(|| CorpusGenerator::new(spec::loopback_corpus(spec.daemons, seed)).generate());
    let docs = corpus.len() as u64;
    // A few hundred documents vectorise in milliseconds, too short to time
    // once: the step is repeated and its median taken.
    let mut vectorize_s = Vec::with_capacity(VECTORIZE_REPEATS);
    let mut vectorized = None;
    tracer.scope(
        setup_span,
        "dataset.vectorize",
        docs * VECTORIZE_REPEATS as u64,
        |_, _| {
            for _ in 0..VECTORIZE_REPEATS {
                let (built, secs) = clock::time(|| VectorizedCorpus::build(&corpus));
                vectorize_s.push(secs);
                vectorized = Some(built);
            }
        },
    );
    let vectorized = vectorized.expect("vectorised at least once");
    rep.ingest = Phase {
        count: docs,
        secs: stats::median(&vectorize_s),
    };
    let ((scenario, reference), reference_s) = clock::time(|| {
        let scenario = Scenario::cut(&corpus, &vectorized, &spec);
        let reference = tracer.scope(setup_span, "sansio.sim_reference", 1, |_, _| {
            simulate(&scenario)
        });
        (scenario, reference)
    });
    let prepared_s = generate_s + rep.ingest.secs + reference_s;
    tracer.close(setup_span, docs);

    let run_span = tracer.open(None, "run");
    let run = match run_sockets(&scenario, &reference, tracer, run_span) {
        Ok(run) => run,
        Err(e) => {
            rep.problem(format!("loopback fleet: {e}"));
            return rep;
        }
    };
    tracer.close(run_span, docs);

    rep.setup_s = prepared_s + run.start_s;
    rep.run_s = run.run_s;
    let secs = |ms: &[f64]| ms.iter().sum::<f64>() / 1e3;
    rep.learn = Phase {
        count: 2 * scenario.learn_docs(),
        secs: secs(&run.learn_ms) + run.b_learn_ms / 1e3,
    };
    rep.refine = Phase {
        count: run.refine_ms.len() as u64,
        secs: secs(&run.refine_ms),
    };
    rep.tag = Phase {
        count: (run.local_rtt_ms.len() + run.routed_rtt_ms.len()) as u64,
        secs: secs(&run.local_rtt_ms) + secs(&run.routed_rtt_ms),
    };
    rep.attempted = run.learn_ms.len() as u64 + 1 + rep.refine.count + rep.tag.count;
    rep.served = rep.tag.count;
    for problem in &run.problems {
        if problem.starts_with("request") {
            rep.served = rep.served.saturating_sub(1);
        }
        rep.problem(problem.clone());
    }
    rep.macro_f1 = run.macro_f1;
    if rep.macro_f1 < spec.f1_floor {
        rep.problem(format!(
            "macro-F1 {} below the floor {}",
            rep.macro_f1, spec.f1_floor
        ));
    }
    rep.net_bytes = run.bytes_sent;
    rep.net_msgs = run.frames_sent;
    rep.fingerprint = vec![
        rep.macro_f1.to_bits(),
        rep.learn.count,
        rep.net_bytes,
        rep.net_msgs,
    ];
    rep.phases = [
        ("learn", rep.learn.secs),
        ("refine", rep.refine.secs),
        ("autotag", rep.tag.secs),
        (
            "other",
            (rep.run_s - rep.learn.secs - rep.refine.secs - rep.tag.secs).max(0.0),
        ),
    ]
    .into();
    rep
}
