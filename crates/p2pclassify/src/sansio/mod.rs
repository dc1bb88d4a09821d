//! Sans-io protocol cores: the four protocols as pure per-peer state
//! machines, decoupled from any I/O.
//!
//! The monolithic instances in [`crate::pace`], [`crate::cempar`],
//! [`crate::centralized`] and [`crate::local`] hold *all* peers' state and
//! call the simulated network directly — ideal for the deterministic
//! experiment tables, useless on a real socket. The cores in this module
//! hold **one peer's** state each and never perform I/O: every externally
//! visible action is returned as an [`Output`] for a driver to execute.
//!
//! ## The driver contract
//!
//! A driver owns the event loop (simulated or real) and feeds a core through
//! exactly two entry points plus the protocol verbs:
//!
//! * [`ProtocolCore::ingest`]`(now, from, frame)` — a frame arrived from a
//!   peer. The core decodes, updates state, and returns outputs.
//! * [`ProtocolCore::poll_timers`]`(now)` — virtual or wall time advanced to
//!   `now`. The core fires any internal deadlines that are due (retransmits,
//!   give-ups) and returns outputs.
//!
//! In return the driver must execute every [`Output`]:
//!
//! * [`Output::Emit`] — put `frame` on the wire to `to`. The [`MessageKind`]
//!   is advisory (byte accounting and tracing); the bytes are the protocol.
//! * [`Output::SetTimer`] — arrange to call `poll_timers` at (or after)
//!   `at`. Cores keep their own deadline ledger, so a driver that wakes late
//!   or spuriously is harmless; `SetTimer`/[`Output::CancelTimer`] only tell
//!   the driver when a wake-up is (no longer) useful.
//! * [`Output::Effect`] — a local, application-visible event: a model
//!   install, a finished prediction, a delivery give-up.
//!
//! Timers are **virtual milliseconds** ([`Millis`]). The simulator driver
//! ([`sim::SimDriver`]) advances them deterministically; the socket driver
//! (`peerd`) maps them onto a monotonic wall-clock timer wheel inside
//! `vendor/reactor` — the only place wall time exists, behind the same
//! audited lint boundary as `doctagger::timing` (`xtask lint` enforces it).
//!
//! ## One core, one thread
//!
//! A core is the unit of parallelism: a driver may run many cores on many
//! threads (`peerd` runs one per daemon thread), so the [`PeerCore`] entry
//! points that do model work — `train`, `predict`, `ingest`, `poll_timers`,
//! `start_anti_entropy` — run under [`parallel::inline`] and never fan out
//! into `vendor/parallel` workers themselves (`ml::multilabel`'s per-tag
//! `par_map` would otherwise spawn threads inside every daemon). Results are
//! bit-identical either way — that is the `parallel` determinism contract.
//!
//! ## Why both drivers converge
//!
//! Real sockets deliver frames in arbitrary interleavings; the simulator is
//! sequential. The cores are built so the *final* state depends only on the
//! **set** of delivered payloads, never their order: installs are keyed by
//! `(source, version)` and applied only when the version is strictly newer
//! (idempotent + monotonic), regional cascades and pooled retrains iterate
//! `BTreeMap`s in key order, and prediction responses are correlated by
//! request id and combined only once all regions answered. The
//! `sim_vs_socket` equivalence suite in `crates/peerd` pins this end to end.

pub mod cempar;
pub mod centralized;
pub mod local;
pub mod pace;
pub mod reliable;
pub mod sim;

pub use cempar::CemparCore;
pub use centralized::CentralizedCore;
pub use local::LocalCore;
pub use pace::PaceCore;
pub use reliable::ReliableCore;
pub use sim::SimDriver;

use crate::reliable::LinkStats;
use ml::multilabel::TagPrediction;
use ml::MultiLabelDataset;
use p2psim::message::MessageKind;
use p2psim::PeerId;
use textproc::SparseVector;

/// Virtual milliseconds — the only clock a core ever sees.
pub type Millis = u64;

/// An opaque timer handle, unique per core instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// A local, application-visible event produced by a core.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalEffect {
    /// A model (or upload) from `source` at `version` was installed into
    /// this peer's state. Emitted at most once per `(source, version)` —
    /// duplicate or stale deliveries produce nothing.
    Installed {
        /// The contributing peer's id.
        source: u64,
        /// The installed version (strictly increasing per source).
        version: u64,
    },
    /// A prediction issued through [`PeerCore::predict`] completed.
    Prediction {
        /// The request id `predict` returned.
        request: u64,
        /// Per-tag scores (empty when no model was reachable).
        scores: Vec<TagPrediction>,
    },
    /// The reliable layer abandoned a payload after exhausting its retry
    /// budget (anti-entropy repairs it later).
    GaveUp {
        /// The reliable-layer sequence number of the abandoned payload.
        seq: u64,
    },
}

/// One externally visible action requested by a core.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Put `frame` on the wire to `to`.
    Emit {
        /// Destination peer.
        to: PeerId,
        /// Advisory traffic class (byte accounting / tracing).
        kind: MessageKind,
        /// The encoded frame ([`crate::wire`]).
        frame: Vec<u8>,
    },
    /// Call [`ProtocolCore::poll_timers`] at (or after) `at`.
    SetTimer {
        /// Which deadline (for driver-side bookkeeping; cores track their
        /// own ledger and tolerate late or spurious polls).
        id: TimerId,
        /// Virtual-ms deadline.
        at: Millis,
    },
    /// The deadline `id` is no longer needed (advisory).
    CancelTimer {
        /// The deadline being cancelled.
        id: TimerId,
    },
    /// A local application-visible event.
    Effect(LocalEffect),
}

/// The pure state-machine interface every protocol core implements.
pub trait ProtocolCore {
    /// Feeds one received frame into the core.
    fn ingest(&mut self, now: Millis, from: PeerId, frame: &[u8]) -> Vec<Output>;

    /// Fires every internal deadline that is due at `now`.
    fn poll_timers(&mut self, now: Millis) -> Vec<Output>;
}

/// A concrete peer core: one of the four protocols behind a uniform,
/// non-generic surface, so drivers (the sim adapter, `peerd`) and tests can
/// hold heterogeneous fleets without trait objects.
#[derive(Debug, Clone)]
pub enum PeerCore {
    /// A PACE ensemble peer.
    Pace(PaceCore),
    /// A CEMPaR contributor / super-peer.
    Cempar(CemparCore),
    /// A centralized-baseline client (or the server).
    Centralized(CentralizedCore),
    /// A local-only baseline peer.
    Local(LocalCore),
}

impl PeerCore {
    /// The peer this core belongs to.
    pub fn id(&self) -> PeerId {
        match self {
            PeerCore::Pace(c) => c.id(),
            PeerCore::Cempar(c) => c.id(),
            PeerCore::Centralized(c) => c.id(),
            PeerCore::Local(c) => c.id(),
        }
    }

    /// Appends `data` to the peer's local collection, (re)trains its local
    /// model and returns the outputs that propagate it.
    pub fn train(&mut self, now: Millis, data: &MultiLabelDataset) -> Vec<Output> {
        parallel::inline(|| match self {
            PeerCore::Pace(c) => c.train(now, data),
            PeerCore::Cempar(c) => c.train(now, data),
            PeerCore::Centralized(c) => c.train(now, data),
            PeerCore::Local(c) => c.train(now, data),
        })
    }

    /// Starts a prediction for `x`. Returns the request id and the outputs;
    /// the scores arrive as [`LocalEffect::Prediction`] with that id —
    /// immediately for protocols that predict locally (PACE, local-only),
    /// after the response round-trip for the routed ones.
    pub fn predict(&mut self, now: Millis, x: &SparseVector) -> (u64, Vec<Output>) {
        parallel::inline(|| match self {
            PeerCore::Pace(c) => c.predict(now, x),
            PeerCore::Cempar(c) => c.predict(now, x),
            PeerCore::Centralized(c) => c.predict(now, x),
            PeerCore::Local(c) => c.predict(now, x),
        })
    }

    /// Emits an anti-entropy digest of this core's holdings to `partner`.
    /// The partner pushes back anything it holds strictly newer; a partner
    /// whose digest reveals it is *behind* on this core's own contribution
    /// triggers a re-push from here on the next digest exchange.
    pub fn start_anti_entropy(&mut self, now: Millis, partner: PeerId) -> Vec<Output> {
        parallel::inline(|| match self {
            PeerCore::Pace(c) => c.start_anti_entropy(now, partner),
            PeerCore::Cempar(c) => c.start_anti_entropy(now, partner),
            PeerCore::Centralized(c) => c.start_anti_entropy(now, partner),
            PeerCore::Local(_) => Vec::new(),
        })
    }

    /// The `(source, version)` pairs installed in this core — the equivalence
    /// suite's currency for "both drivers reached the same state".
    pub fn installed_versions(&self) -> Vec<(u64, u64)> {
        match self {
            PeerCore::Pace(c) => c.installed_versions(),
            PeerCore::Cempar(c) => c.installed_versions(),
            PeerCore::Centralized(c) => c.installed_versions(),
            PeerCore::Local(c) => c.installed_versions(),
        }
    }

    /// The reliable layer's send-path counters.
    pub fn link_stats(&self) -> &LinkStats {
        match self {
            PeerCore::Pace(c) => c.link_stats(),
            PeerCore::Cempar(c) => c.link_stats(),
            PeerCore::Centralized(c) => c.link_stats(),
            PeerCore::Local(c) => c.link_stats(),
        }
    }
}

impl ProtocolCore for PeerCore {
    fn ingest(&mut self, now: Millis, from: PeerId, frame: &[u8]) -> Vec<Output> {
        parallel::inline(|| match self {
            PeerCore::Pace(c) => c.ingest(now, from, frame),
            PeerCore::Cempar(c) => c.ingest(now, from, frame),
            PeerCore::Centralized(c) => c.ingest(now, from, frame),
            PeerCore::Local(c) => c.ingest(now, from, frame),
        })
    }

    fn poll_timers(&mut self, now: Millis) -> Vec<Output> {
        parallel::inline(|| match self {
            PeerCore::Pace(c) => c.poll_timers(now),
            PeerCore::Cempar(c) => c.poll_timers(now),
            PeerCore::Centralized(c) => c.poll_timers(now),
            PeerCore::Local(c) => c.poll_timers(now),
        })
    }
}
