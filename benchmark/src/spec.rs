//! The frozen workload definitions: names, sizes, corpus shapes, floors.
//!
//! Sizes were measured on the 2-core reference box so that one repetition
//! (set-up + timed section) of every workload takes one to three seconds and
//! several fit into the `--seconds` budget; see the README for the numbers.
//! Changing anything here changes what the metrics mean — re-measure the
//! baseline in the same change.

use dataset::CorpusSpec;
use doctagger::{ProtocolKind, SessionConfig};
use p2psim::churn::ChurnModel;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2010;

/// `vendor/parallel` worker count every run is pinned to, so numbers do not
/// depend on the host's core count.
pub const PINNED_THREADS: usize = 2;

/// Fewest repetitions a run measures, however short `--seconds` is.
pub const MIN_REPS: usize = 5;

/// Problem size: the frozen benchmark sizes, or toy sizes for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes every reported number uses.
    Full,
    /// `--quick`: toy sizes, for `cargo test` only.
    Quick,
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming PACE session under churn.
    PaceSession,
    /// Streaming CEMPaR session under churn.
    CemparSession,
    /// Ingest + cold learn + sample tagging + corrections, no churn.
    BulkLearn,
    /// `peerd` daemons over loopback TCP.
    PeerdLoopback,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaceSession,
        Workload::CemparSession,
        Workload::BulkLearn,
        Workload::PeerdLoopback,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaceSession => "pace-session",
            Workload::CemparSession => "cempar-session",
            Workload::BulkLearn => "bulk-learn",
            Workload::PeerdLoopback => "peerd-loopback",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A streaming-session workload.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Peers (= users).
    pub peers: usize,
    /// Epochs replayed.
    pub epochs: usize,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Lowest acceptable final macro-F1 of a repetition. Measured when the
    /// benchmark was defined, over 60 corpora per workload (seeds 1–10, 2010
    /// and 424242, five repetitions each): `pace-session` 0.752–0.78,
    /// `bulk-learn` 0.758–0.81 — their floors sit 0.03 below the lowest.
    /// `cempar-session` (0.635–0.73) and `peerd-loopback` (0.68–0.92) have
    /// small populations and scatter more; their floors sit more than five
    /// standard deviations below the mean, so that an unlucky corpus is not
    /// mistaken for a quality collapse.
    pub f1_floor: f64,
}

/// The `pace-session` / `cempar-session` definitions.
pub fn session_spec(workload: Workload, size: Size) -> SessionSpec {
    match (workload, size) {
        (Workload::CemparSession, Size::Full) => SessionSpec {
            peers: 100,
            epochs: 5,
            protocol: ProtocolKind::cempar(),
            f1_floor: 0.55,
        },
        (Workload::CemparSession, Size::Quick) => SessionSpec {
            peers: 20,
            epochs: 3,
            protocol: ProtocolKind::cempar(),
            f1_floor: 0.0,
        },
        (_, Size::Full) => SessionSpec {
            peers: 700,
            epochs: 6,
            protocol: ProtocolKind::pace(),
            f1_floor: 0.72,
        },
        (_, Size::Quick) => SessionSpec {
            peers: 40,
            epochs: 3,
            protocol: ProtocolKind::pace(),
            f1_floor: 0.0,
        },
    }
}

/// The session corpus shape (the `session` bench bin's: tag-heavy, with
/// interest locality so warm refits touch realistic per-tag model counts).
pub fn session_corpus(peers: usize, seed: u64) -> CorpusSpec {
    CorpusSpec {
        num_tags: 24,
        num_users: peers,
        min_docs_per_user: 12,
        max_docs_per_user: 20,
        words_per_doc: 40,
        words_per_tag: 25,
        background_vocab: 300,
        interests_per_user: 5,
        seed,
        ..CorpusSpec::default()
    }
}

/// The session timeline: 600 s virtual epochs under exponential churn
/// (mean session 3 000 s, mean offline 300 s), incremental learning, 20 % of
/// arrivals manually tagged, half of the wrong automatic tags corrected.
pub fn session_config(epochs: usize, seed: u64) -> SessionConfig {
    SessionConfig {
        epochs,
        epoch_secs: 600.0,
        churn: ChurnModel::Exponential {
            mean_session_secs: 3_000.0,
            mean_offline_secs: 300.0,
        },
        incremental: true,
        seed,
        ..SessionConfig::default()
    }
}

/// The `bulk-learn` workload.
#[derive(Debug, Clone)]
pub struct BulkSpec {
    /// Peers (= users).
    pub peers: usize,
    /// Held-out documents auto-tagged after the cold learn.
    pub sample: usize,
    /// Wrong automatic tags among the sample that are then corrected.
    pub refines: usize,
    /// Lowest acceptable macro-F1 on the sample (see [`SessionSpec::f1_floor`]).
    pub f1_floor: f64,
}

/// The `bulk-learn` definition.
pub fn bulk_spec(size: Size) -> BulkSpec {
    match size {
        Size::Full => BulkSpec {
            peers: 1_500,
            sample: 2_000,
            refines: 100,
            f1_floor: 0.72,
        },
        Size::Quick => BulkSpec {
            peers: 60,
            sample: 100,
            refines: 10,
            f1_floor: 0.0,
        },
    }
}

/// The `bulk-learn` corpus: twice the tags and longer documents than the
/// sessions, so vectorising and cold training dominate.
pub fn bulk_corpus(peers: usize, seed: u64) -> CorpusSpec {
    CorpusSpec {
        num_tags: 48,
        words_per_doc: 60,
        ..session_corpus(peers, seed)
    }
}

/// The `peerd-loopback` workload.
#[derive(Debug, Clone)]
pub struct LoopbackSpec {
    /// Daemons (= users of the corpus).
    pub daemons: usize,
    /// Phase A learn rounds: every peer trains on its next slice, then the
    /// fleet converges.
    pub learn_rounds: usize,
    /// Documents per peer per learn round.
    pub slice_docs: usize,
    /// Phase A refine rounds: one peer folds in one corrected document, then
    /// the fleet converges.
    pub refine_rounds: usize,
    /// Phase A predicts (answered locally by the PACE core).
    pub local_predicts: usize,
    /// Phase B predicts (routed to CEMPaR super-peers).
    pub routed_predicts: usize,
    /// Extra `snapshot` round trips in phase A: the command path with no
    /// core work (the workload needs none; the `peerd` probes time them).
    pub command_probes: usize,
    /// Lowest acceptable macro-F1 of the phase A predictions (see
    /// [`SessionSpec::f1_floor`]).
    pub f1_floor: f64,
}

/// The `peerd-loopback` definition.
pub fn loopback_spec(size: Size) -> LoopbackSpec {
    match size {
        Size::Full => LoopbackSpec {
            daemons: 4,
            learn_rounds: 12,
            slice_docs: 4,
            refine_rounds: 24,
            local_predicts: 200,
            routed_predicts: 200,
            command_probes: 0,
            f1_floor: 0.55,
        },
        Size::Quick => LoopbackSpec {
            daemons: 3,
            learn_rounds: 3,
            slice_docs: 4,
            refine_rounds: 3,
            local_predicts: 30,
            routed_predicts: 30,
            command_probes: 0,
            f1_floor: 0.0,
        },
    }
}

/// Users whose documents each daemon holds.
pub const USERS_PER_DAEMON: usize = 4;

/// The `peerd-loopback` corpus: the experiment harness's demo shape (60-word
/// documents, 12 tags), not the five-feature toy in `peerd::corpus`, so
/// model frames have realistic sizes. Each daemon holds the documents of
/// [`USERS_PER_DAEMON`] users with exactly 30 documents each: with one user
/// of 60–90 documents per daemon, the seed alone moved the corpus size by a
/// quarter and macro-F1 (a few interests, four users) by a tenth.
pub fn loopback_corpus(daemons: usize, seed: u64) -> CorpusSpec {
    CorpusSpec {
        num_tags: 12,
        num_users: daemons * USERS_PER_DAEMON,
        min_docs_per_user: 30,
        max_docs_per_user: 31,
        words_per_doc: 60,
        words_per_tag: 30,
        background_vocab: 400,
        interests_per_user: 5,
        seed,
        ..CorpusSpec::default()
    }
}
