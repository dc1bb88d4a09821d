//! Deterministic super-peer election over the DHT.
//!
//! CEMPaR propagates local models "once to one of the super-peers in the P2P
//! network. The super-peers are automatically elected from the P2P network and
//! are located in a deterministic manner, made possible through the use of the
//! DHT-based P2P network" (§2). The election works by dividing the identifier
//! ring into `R` equal regions; the super-peer of region `r` is simply the
//! overlay owner of the region's anchor key `r * (2^64 / R)`. Every peer can
//! compute this locally, and when a super-peer churns out the DHT transparently
//! re-elects its successor — the fault-tolerance property the paper claims.

use super::Overlay;
use crate::peer::PeerId;
use serde::{Deserialize, Serialize};

/// The deterministic super-peer directory for a fixed number of regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperPeerDirectory {
    regions: usize,
}

impl SuperPeerDirectory {
    /// Creates a directory with `regions` super-peer regions (at least 1).
    pub fn new(regions: usize) -> Self {
        Self {
            regions: regions.max(1),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// The anchor key of a region.
    pub fn anchor_key(&self, region: usize) -> u64 {
        let step = u64::MAX / self.regions as u64;
        (region as u64 % self.regions as u64).wrapping_mul(step)
    }

    /// The region a content key belongs to.
    pub fn region_of_key(&self, key: u64) -> usize {
        let step = u64::MAX / self.regions as u64;
        ((key / step) as usize).min(self.regions - 1)
    }

    /// The currently elected super-peer of a region, according to the overlay.
    pub fn super_peer_of_region<O: Overlay>(&self, overlay: &O, region: usize) -> Option<PeerId> {
        let anchor = self.anchor_key(region);
        // Any member can resolve the anchor; use the first member as the vantage
        // point (the result does not depend on the source).
        let from = overlay.members().into_iter().next()?;
        overlay.lookup(from, anchor).map(|r| r.owner)
    }

    /// All currently elected super-peers (one per region; regions may share a
    /// peer when the network is small).
    pub fn elect<O: Overlay>(&self, overlay: &O) -> Vec<PeerId> {
        (0..self.regions)
            .filter_map(|r| self.super_peer_of_region(overlay, r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::ChordOverlay;
    use super::*;
    use crate::peer::content_key;

    fn overlay(n: u64) -> ChordOverlay {
        ChordOverlay::with_peers((0..n).map(PeerId))
    }

    #[test]
    fn election_is_deterministic() {
        let o = overlay(100);
        let dir = SuperPeerDirectory::new(8);
        assert_eq!(dir.elect(&o), dir.elect(&o));
        assert_eq!(dir.elect(&o).len(), 8);
    }

    #[test]
    fn every_key_maps_to_an_elected_super_peer() {
        let o = overlay(64);
        let dir = SuperPeerDirectory::new(4);
        let elected = dir.elect(&o);
        for tag in ["rust", "database", "p2p", "svm", "tagging"] {
            let region = dir.region_of_key(content_key(tag.as_bytes()));
            let sp = dir.super_peer_of_region(&o, region).unwrap();
            assert!(elected.contains(&sp), "{tag} maps to non-elected {sp}");
        }
    }

    #[test]
    fn failed_super_peer_is_replaced_deterministically() {
        let mut o = overlay(64);
        let dir = SuperPeerDirectory::new(4);
        let before = dir.super_peer_of_region(&o, 2).unwrap();
        o.remove_peer(before);
        let after = dir.super_peer_of_region(&o, 2).unwrap();
        assert_ne!(before, after);
        assert!(o.contains(after));
        // Other regions whose super-peer did not fail stay stable unless they
        // were the same peer.
        for r in 0..4 {
            let sp = dir.super_peer_of_region(&o, r).unwrap();
            assert!(o.contains(sp));
        }
    }

    #[test]
    fn region_of_key_covers_all_regions() {
        let dir = SuperPeerDirectory::new(5);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000u64 {
            seen.insert(dir.region_of_key(crate::peer::mix64(i)));
        }
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|&r| r < 5));
    }

    #[test]
    fn at_least_one_region() {
        let dir = SuperPeerDirectory::new(0);
        assert_eq!(dir.regions(), 1);
        assert_eq!(dir.region_of_key(u64::MAX), 0);
    }

    #[test]
    fn small_network_shares_super_peers() {
        let o = overlay(2);
        let dir = SuperPeerDirectory::new(8);
        let elected = dir.elect(&o);
        assert_eq!(elected.len(), 8);
        let unique: std::collections::BTreeSet<_> = elected.into_iter().collect();
        assert!(unique.len() <= 2);
    }
}
