//! Overlay-network generation and routing.
//!
//! P2PDMT can "generate structured P2P network\[s\]" and "generate unstructured
//! P2P network\[s\]" (Figure 2). Two overlay families are provided:
//!
//! * [`ChordOverlay`] — a Chord-style DHT over a 64-bit identifier ring with
//!   finger-table greedy routing; this is the "DHT-based P2P network" CEMPaR
//!   relies on to locate super-peers deterministically.
//! * [`UnstructuredOverlay`] — a random regular graph with TTL-bounded
//!   flooding search, the classic Gnutella-style alternative used by the
//!   topology experiment (E5).
//!
//! [`SuperPeerDirectory`] implements the deterministic super-peer election the
//! paper describes ("super-peers are automatically elected from the P2P
//! network and are located in a deterministic manner, made possible through
//! the use of the DHT-based P2P network").

mod chord;
mod superpeer;
mod unstructured;

pub use chord::ChordOverlay;
pub use superpeer::SuperPeerDirectory;
pub use unstructured::{UnstructuredConfig, UnstructuredOverlay};

use crate::peer::PeerId;
use serde::{Deserialize, Serialize};

/// Result of routing a key through an overlay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LookupResult {
    /// The peer responsible for the key (structured overlays) or the target
    /// peer that was found (unstructured search).
    pub owner: PeerId,
    /// The routing path, excluding the source, including the owner.
    pub path: Vec<PeerId>,
    /// Total overlay messages expended by the lookup (= hops for structured
    /// routing; ≥ hops for flooding search).
    pub messages: usize,
}

impl LookupResult {
    /// Number of overlay hops from the source to the owner.
    pub fn hops(&self) -> usize {
        self.path.len()
    }
}

/// Common interface of the overlay implementations.
pub trait Overlay {
    /// Peers currently part of the overlay.
    fn members(&self) -> Vec<PeerId>;

    /// Whether `peer` is currently a member.
    fn contains(&self, peer: PeerId) -> bool;

    /// Number of current members.
    fn len(&self) -> usize;

    /// Whether the overlay has no members.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Routes `key` starting from `from`; `None` when routing fails (source not
    /// a member, empty overlay, or TTL exhausted for unstructured search).
    fn lookup(&self, from: PeerId, key: u64) -> Option<LookupResult>;

    /// [`Self::lookup`], free to memoize routing state for later lookups
    /// until the next membership change; the result is the same.
    fn route(&mut self, from: PeerId, key: u64) -> Option<LookupResult> {
        self.lookup(from, key)
    }

    /// The overlay neighbours of `peer` (finger/successor entries or graph
    /// adjacency), used for gossip and maintenance-cost accounting.
    fn neighbors(&self, peer: PeerId) -> Vec<PeerId>;

    /// Adds a peer to the overlay (join).
    fn add_peer(&mut self, peer: PeerId);

    /// Removes a peer from the overlay (leave/failure).
    fn remove_peer(&mut self, peer: PeerId);
}

/// An overlay chosen at runtime (used by the network facade and `SimConfig`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyOverlay {
    /// Structured Chord-style DHT.
    Chord(ChordOverlay),
    /// Unstructured random graph with flooding search.
    Unstructured(UnstructuredOverlay),
}

impl Overlay for AnyOverlay {
    fn members(&self) -> Vec<PeerId> {
        match self {
            AnyOverlay::Chord(o) => o.members(),
            AnyOverlay::Unstructured(o) => o.members(),
        }
    }

    fn contains(&self, peer: PeerId) -> bool {
        match self {
            AnyOverlay::Chord(o) => o.contains(peer),
            AnyOverlay::Unstructured(o) => o.contains(peer),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyOverlay::Chord(o) => o.len(),
            AnyOverlay::Unstructured(o) => o.len(),
        }
    }

    fn lookup(&self, from: PeerId, key: u64) -> Option<LookupResult> {
        match self {
            AnyOverlay::Chord(o) => o.lookup(from, key),
            AnyOverlay::Unstructured(o) => o.lookup(from, key),
        }
    }

    fn route(&mut self, from: PeerId, key: u64) -> Option<LookupResult> {
        match self {
            AnyOverlay::Chord(o) => o.route(from, key),
            AnyOverlay::Unstructured(o) => o.route(from, key),
        }
    }

    fn neighbors(&self, peer: PeerId) -> Vec<PeerId> {
        match self {
            AnyOverlay::Chord(o) => o.neighbors(peer),
            AnyOverlay::Unstructured(o) => o.neighbors(peer),
        }
    }

    fn add_peer(&mut self, peer: PeerId) {
        match self {
            AnyOverlay::Chord(o) => o.add_peer(peer),
            AnyOverlay::Unstructured(o) => o.add_peer(peer),
        }
    }

    fn remove_peer(&mut self, peer: PeerId) {
        match self {
            AnyOverlay::Chord(o) => o.remove_peer(peer),
            AnyOverlay::Unstructured(o) => o.remove_peer(peer),
        }
    }
}
