//! # p2psim — P2PDMT, the P2P data-mining simulation toolkit
//!
//! The paper introduces P2PDMT, "a realistic and flexible simulation toolkit
//! to facilitate the development and testing of P2P data mining algorithms",
//! built on top of the OverSim overlay simulator. Reproducing it from scratch,
//! this crate provides the features of Figure 2:
//!
//! * **P2P network layer** — generation of structured (Chord-style DHT,
//!   [`overlay::ChordOverlay`]) and unstructured (random-graph gossip,
//!   [`overlay::UnstructuredOverlay`]) overlays, plus deterministic super-peer
//!   election over the DHT ([`overlay::SuperPeerDirectory`]).
//! * **Physical network layer** — configurable per-link latency and bandwidth
//!   ([`physical::PhysicalNetwork`]), node failures and churn models
//!   ([`churn`]).
//! * **Data-mining layer** — distributing training data over peers with
//!   configurable size and class distributions ([`datadist`]), activity
//!   logging ([`logging::ActivityLog`]) and statistics collection
//!   ([`stats::SimStats`]).
//!
//! Two execution styles are offered:
//!
//! * a **discrete-event engine** ([`engine::Engine`]) where node behaviours
//!   implement [`engine::Application`] and react to messages and timers — used
//!   for protocol-level experiments (routing, lookup latency, churn dynamics);
//! * a **round-based network facade** ([`network::P2PNetwork`]) that exposes
//!   `send` / `dht_lookup` / `broadcast` primitives with full cost accounting —
//!   this is the substrate the P2P classification protocols (CEMPaR, PACE) run
//!   on, mirroring how the original P2PDMT hosts data-mining tasks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitset;
pub mod churn;
pub mod config;
pub mod datadist;
pub mod engine;
pub mod faults;
pub mod logging;
pub mod message;
pub mod network;
pub mod overlay;
pub mod peer;
pub mod physical;
pub mod stats;
pub mod time;

/// Common re-exports.
pub mod prelude {
    pub use crate::bitset::PeerBitset;
    pub use crate::churn::{ChurnEvent, ChurnModel, ChurnTimeline};
    pub use crate::config::{OverlayKind, SimConfig};
    pub use crate::datadist::{ClassDistribution, DataDistributor, SizeDistribution};
    pub use crate::engine::{Application, Context, Engine};
    pub use crate::faults::{
        BurstLoss, CorruptionFaults, CrashSchedule, FaultPlan, FaultState, LatencyFaults,
        PartitionScope, PartitionWindow,
    };
    pub use crate::logging::{ActivityLog, LogEntry};
    pub use crate::message::{Envelope, MessageKind};
    pub use crate::network::{DeliveryError, FrameDelivery, P2PNetwork, Payload};
    pub use crate::overlay::{ChordOverlay, Overlay, SuperPeerDirectory, UnstructuredOverlay};
    pub use crate::peer::PeerId;
    pub use crate::physical::PhysicalNetwork;
    pub use crate::stats::SimStats;
    pub use crate::time::SimTime;
}

pub use bitset::PeerBitset;
pub use config::{OverlayKind, SimConfig};
pub use faults::{FaultPlan, FaultState, PartitionScope, PartitionWindow};
pub use network::P2PNetwork;
pub use peer::PeerId;
pub use stats::SimStats;
pub use time::SimTime;
