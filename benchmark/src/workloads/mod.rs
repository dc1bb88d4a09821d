//! The four workloads. Each produces [`Rep`]s — one repetition of set-up plus
//! the timed section — in one shape, so every workload reports every
//! end-to-end metric the same way.

pub mod bulk;
pub mod loopback;
pub mod session;

use crate::spec::{Size, Workload};
use crate::trace::Tracer;
use doctagger::library::TagSource;
use doctagger::P2PDocTagger;
use std::collections::BTreeMap;

/// Work done in one kind of operation during a repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase {
    /// Units of work (documents, corrections, requests).
    pub count: u64,
    /// Wall-clock seconds spent.
    pub secs: f64,
}

impl Phase {
    /// Units per second.
    pub fn rate(&self) -> f64 {
        self.count as f64 / self.secs
    }
}

/// One repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Peers in the network (simulated peers or daemons).
    pub peers: usize,
    /// Seconds to build everything the timed section needs.
    pub setup_s: f64,
    /// Seconds of the timed section.
    pub run_s: f64,
    /// Raw text turned into vectors (and the network built around them).
    pub ingest: Phase,
    /// Manually tagged documents folded into the network's models.
    pub learn: Phase,
    /// User corrections folded into the network's models.
    pub refine: Phase,
    /// Auto-tag requests.
    pub tag: Phase,
    /// Auto-tag requests that were answered.
    pub served: u64,
    /// Macro-F1 of the automatic tags against the generator's ground truth.
    pub macro_f1: f64,
    /// Bytes put on the (simulated or loopback) wire.
    pub net_bytes: u64,
    /// Messages put on the wire.
    pub net_msgs: u64,
    /// Operations attempted (learn calls, corrections, auto-tag requests).
    pub attempted: u64,
    /// Operations that went wrong: a lost or timed-out request, a count that
    /// does not add up, a tagged document missing from the library or the
    /// tag store. A request the session schedules for a peer that churn has
    /// taken offline is *not served*, not failed: it is the scenario's
    /// deterministic outcome and shows in `served`.
    pub failed: u64,
    /// Why `failed` is not zero, or any other broken check.
    pub problems: Vec<String>,
    /// Everything that must repeat bit-for-bit when the same seed is replayed
    /// in this process (quality, counts, traffic).
    pub fingerprint: Vec<u64>,
    /// Wall-clock split of the timed section, for the traced run.
    pub phases: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// Records a failed check.
    pub fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Share of auto-tag requests that were answered.
    pub fn served_share(&self) -> f64 {
        self.served as f64 / self.tag.count as f64
    }
}

/// Runs one repetition of `workload` from `seed`.
pub fn run_rep(workload: Workload, size: Size, seed: u64, tracer: &mut Tracer) -> Rep {
    match workload {
        Workload::PaceSession | Workload::CemparSession => {
            session::run_rep(workload, size, seed, tracer)
        }
        Workload::BulkLearn => bulk::run_rep(size, seed, tracer),
        Workload::PeerdLoopback => loopback::run_rep(size, seed, tracer),
    }
}

/// Every automatically tagged document must be in the library, and every
/// library entry's tags must be readable from the tag store under the
/// document's path — what another tool on the user's machine would see.
pub fn check_tags_persisted(system: &P2PDocTagger, tagged: u64, rep: &mut Rep) {
    let library = system.library();
    let from_tagger = library
        .iter()
        .filter(|e| e.source != TagSource::Manual)
        .count() as u64;
    if from_tagger != tagged {
        rep.problem(format!(
            "{tagged} requests were answered but {from_tagger} documents carry automatic or corrected tags"
        ));
    }
    let unpersisted = library
        .iter()
        .filter(|e| {
            system
                .tag_store()
                .tags_of(&P2PDocTagger::path_of(e.doc, e.user))
                != e.tags
        })
        .count();
    if unpersisted > 0 {
        rep.problem(format!(
            "{unpersisted} library entries differ from the tag store"
        ));
    }
}
