//! The per-layer probes of the traced run.
//!
//! Each probe replays inputs cut from the workload's own corpus through one
//! layer's **public** functions, from outside, long enough to measure, and
//! reports busy time per unit of work (or an exact count). Every traced run
//! executes every probe, so each workload reports every per-layer metric —
//! on inputs of its own shape: its documents, its vocabulary, its network
//! size, its protocol's models.

pub mod daemon;
pub mod models;
pub mod network;
pub mod protocols;
pub mod sansio;
pub mod system;
pub mod text;
pub mod vendor;
pub mod wire;

use crate::clock;
use crate::report::Metric;
use crate::spec::{self, Size, Workload};
use crate::trace::{SpanId, Tracer};
use dataset::{Corpus, CorpusGenerator, DocumentId, TrainTestSplit, VectorizedCorpus};
use doctagger::ProtocolKind;
use ml::MultiLabelDataset;
use p2psim::churn::ChurnModel;
use std::sync::Arc;

/// Peers whose local training sets the `ml`/codec probes replay.
const SAMPLED_PEERS: usize = 200;

/// What the probes replay: the workload's corpus and network shape.
pub struct Inputs {
    /// The workload being traced.
    pub workload: Workload,
    /// Problem size.
    pub size: Size,
    /// The run's seed.
    pub seed: u64,
    /// The workload's corpus.
    pub corpus: Arc<Corpus>,
    /// Its vectors.
    pub vectorized: VectorizedCorpus,
    /// The demo split (20 % manually tagged) of the corpus.
    pub split: TrainTestSplit,
    /// The protocol the workload runs in the simulated network (PACE for
    /// `peerd-loopback`, whose phase A runs PACE cores).
    pub protocol: ProtocolKind,
    /// Peers in the workload's network.
    pub peers: usize,
    /// The workload's churn model.
    pub churn: ChurnModel,
    /// The split's manually tagged documents, by owning user.
    pub train_by_user: Vec<Vec<DocumentId>>,
    /// The split's held-out documents, by owning user.
    pub test_by_user: Vec<Vec<DocumentId>>,
    /// Local training sets of the first [`SAMPLED_PEERS`] users.
    pub peer_data: Vec<MultiLabelDataset>,
    /// A fixed sample of held-out documents.
    pub held_out: Vec<DocumentId>,
}

impl Inputs {
    /// Generates the workload's corpus from `seed` and cuts the probe inputs.
    pub fn capture(workload: Workload, size: Size, seed: u64) -> Inputs {
        let session_churn = spec::session_config(1, seed).churn;
        let (corpus_spec, protocol, churn) = match workload {
            Workload::PaceSession | Workload::CemparSession => {
                let s = spec::session_spec(workload, size);
                (
                    spec::session_corpus(s.peers, seed),
                    s.protocol,
                    session_churn,
                )
            }
            Workload::BulkLearn => (
                spec::bulk_corpus(spec::bulk_spec(size).peers, seed),
                ProtocolKind::pace(),
                ChurnModel::None,
            ),
            Workload::PeerdLoopback => (
                spec::loopback_corpus(spec::loopback_spec(size).daemons, seed),
                ProtocolKind::pace(),
                ChurnModel::None,
            ),
        };
        let corpus = Arc::new(CorpusGenerator::new(corpus_spec).generate());
        let vectorized = VectorizedCorpus::build(&corpus);
        let split = TrainTestSplit::demo_protocol(&corpus, seed);
        let peers = corpus.num_users();
        let by_user = |docs: &[DocumentId]| {
            let mut grouped = vec![Vec::new(); peers];
            for &doc in docs {
                grouped[corpus.document(doc).expect("split of this corpus").user].push(doc);
            }
            grouped
        };
        let train_by_user = by_user(&split.train);
        let test_by_user = by_user(&split.test);
        let peer_data = train_by_user
            .iter()
            .take(SAMPLED_PEERS)
            .map(|docs| vectorized.dataset_of(docs))
            .filter(|data| !data.is_empty())
            .collect();
        let stride = (split.test.len() / 500).max(1);
        let held_out = split
            .test
            .iter()
            .copied()
            .step_by(stride)
            .take(500)
            .collect();
        Inputs {
            workload,
            size,
            seed,
            corpus,
            vectorized,
            split,
            protocol,
            peers,
            churn,
            train_by_user,
            test_by_user,
            peer_data,
            held_out,
        }
    }

    /// Documents in the sampled peers' training sets.
    pub fn peer_docs(&self) -> usize {
        self.peer_data.iter().map(MultiLabelDataset::len).sum()
    }
}

/// Collects what the probes measure: one metric and one span per probe.
pub struct Sink<'a> {
    tracer: &'a mut Tracer,
    parent: Option<SpanId>,
    /// Shortest time a timing probe measures for.
    pub min_secs: f64,
    /// The metrics reported so far.
    pub metrics: Vec<Metric>,
}

impl<'a> Sink<'a> {
    /// A sink recording spans under `parent`.
    pub fn new(tracer: &'a mut Tracer, parent: Option<SpanId>, min_secs: f64) -> Self {
        Sink {
            tracer,
            parent,
            min_secs,
            metrics: Vec::new(),
        }
    }

    /// Times `call`, which does `work` units per invocation, until
    /// [`Self::min_secs`] have been measured; reports `name` as time per unit
    /// in `unit` (`ns`, `us`, `ms` or `s`) and returns seconds per unit.
    pub fn time(&mut self, name: &str, unit: &'static str, work: usize, call: impl FnMut()) -> f64 {
        let span = self.tracer.open(self.parent, name);
        let (calls, secs_per_call) = clock::per_call(self.min_secs, call);
        self.timed(
            name,
            unit,
            span,
            calls * work.max(1) as u64,
            secs_per_call * calls as f64,
        )
    }

    /// Like [`Self::time`], but each invocation of `call` consumes a state
    /// that `prepare` builds outside the measured time (a fresh core, a
    /// network at time zero …).
    pub fn time_prepared<S>(
        &mut self,
        name: &str,
        unit: &'static str,
        work: usize,
        mut prepare: impl FnMut() -> S,
        mut call: impl FnMut(S),
    ) -> f64 {
        let span = self.tracer.open(self.parent, name);
        let (mut secs, mut calls) = (0.0, 0u64);
        while secs < self.min_secs {
            let state = prepare();
            secs += clock::time(|| call(state)).1;
            calls += 1;
        }
        self.timed(name, unit, span, calls * work.max(1) as u64, secs)
    }

    /// Closes a timing probe's span and reports its time per unit of work.
    fn timed(
        &mut self,
        name: &str,
        unit: &'static str,
        span: Option<SpanId>,
        units: u64,
        secs: f64,
    ) -> f64 {
        self.tracer.close(span, units);
        let secs_per_unit = secs / units as f64;
        let scale = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            _ => 1.0,
        };
        self.value(name, secs_per_unit * scale, unit, units as usize);
        secs_per_unit
    }

    /// Reports a value that is not a `Self::time` result.
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// Runs `f` inside a span named `name` (for probes that time themselves).
    pub fn span<T>(&mut self, name: &str, count: u64, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.open(self.parent, name);
        let out = f();
        self.tracer.close(span, count);
        out
    }

    /// The value reported under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs every probe group. Returns the failed checks and the unit costs of
/// the workload's own protocol.
pub fn run_all(inputs: &Inputs, sink: &mut Sink<'_>) -> (Vec<String>, protocols::UnitCosts) {
    let mut problems = Vec::new();
    text::run(inputs, sink);
    let trained = models::run(inputs, sink);
    wire::run(&trained, sink);
    network::run(inputs, sink);
    let costs = protocols::run(inputs, sink, &mut problems);
    let pace_predict_s = sansio::run(inputs, sink);
    system::run(inputs, sink, &mut problems);
    daemon::run(inputs, sink, pace_predict_s, &mut problems);
    vendor::run(inputs, sink);
    (problems, costs)
}
