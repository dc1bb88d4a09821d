//! Chord-style structured DHT overlay.
//!
//! Peers are placed on a 64-bit identifier ring at [`PeerId::ring_key`]; the
//! peer responsible for a key is the key's *successor* (first peer clockwise).
//! Routing is greedy finger routing: at each hop the current peer forwards to
//! the finger that most closely precedes the key, giving `O(log N)` hops.
//!
//! A member's finger table depends only on the ring, so it is built once per
//! membership: [`Overlay::route`] memoizes the routing entry (successor and
//! fingers, each with its ring key) of every peer a lookup passes through,
//! and `add_peer`/`remove_peer` drop the memo. A hop then costs one map
//! lookup and a scan of about `log N` fingers instead of 64 ring searches,
//! and the owner, path and hop count are those of the uncached routing.

use super::{LookupResult, Overlay};
use crate::peer::PeerId;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Number of finger entries (the full 64-bit ring is covered with 64 fingers,
/// but beyond ~40 the targets wrap for realistic network sizes; we keep 64 for
/// faithfulness).
const FINGER_BITS: u32 = 64;

/// A Chord-like DHT over the peers' ring keys.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChordOverlay {
    /// Ring position → peer, kept sorted by the BTreeMap.
    ring: BTreeMap<u64, PeerId>,
    /// Reverse map for membership checks.
    keys: BTreeMap<PeerId, u64>,
    /// Routing entries built for the current membership, filled by
    /// [`Overlay::route`] and dropped on every join or leave. A cache of the
    /// current ring, so never part of the overlay's serialized form.
    #[serde(skip)]
    routes: BTreeMap<PeerId, RoutingEntry>,
}

/// What a member needs to forward a lookup: its ring key, its successor and
/// its finger table, each peer with its ring key.
#[derive(Debug, Clone)]
struct RoutingEntry {
    key: u64,
    successor: (PeerId, u64),
    fingers: Vec<(PeerId, u64)>,
}

impl RoutingEntry {
    /// The peer this member forwards a lookup for `key` to: the successor
    /// when `key` lies between the two, otherwise the finger closest before
    /// `key` clockwise (the successor when none is closer).
    fn next_hop(&self, key: u64) -> PeerId {
        let (succ, succ_key) = self.successor;
        if ChordOverlay::in_arc(self.key, succ_key, key) {
            return succ;
        }
        let mut next = succ;
        let mut best_dist = key.wrapping_sub(succ_key);
        for &(finger, finger_key) in &self.fingers {
            // Distance from finger to key going clockwise; smaller = closer
            // predecessor of the key.
            let dist = key.wrapping_sub(finger_key);
            if dist < best_dist {
                best_dist = dist;
                next = finger;
            }
        }
        next
    }
}

impl ChordOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an overlay containing `peers`.
    pub fn with_peers<I: IntoIterator<Item = PeerId>>(peers: I) -> Self {
        let mut o = Self::new();
        for p in peers {
            o.add_peer(p);
        }
        o
    }

    /// The ring position and peer responsible for `key` (its successor on
    /// the ring).
    fn successor_of_key(&self, key: u64) -> Option<(u64, PeerId)> {
        self.ring
            .range(key..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(&k, &p)| (k, p))
    }

    /// The peer responsible for `key` (its successor on the ring).
    pub fn owner_of(&self, key: u64) -> Option<PeerId> {
        self.successor_of_key(key).map(|(_, p)| p)
    }

    /// The ring key of a member peer.
    pub fn ring_key_of(&self, peer: PeerId) -> Option<u64> {
        self.keys.get(&peer).copied()
    }

    /// The successor of a member peer on the ring.
    pub fn successor(&self, peer: PeerId) -> Option<PeerId> {
        let key = self.ring_key_of(peer)?;
        self.owner_of(key.wrapping_add(1))
    }

    /// The finger table of a member peer: for each finger `i`, the peer
    /// responsible for `key + 2^i`. Duplicate entries are collapsed.
    pub fn finger_table(&self, peer: PeerId) -> Vec<PeerId> {
        self.routing_entry(peer)
            .map(|entry| entry.fingers.iter().map(|&(p, _)| p).collect())
            .unwrap_or_default()
    }

    /// Builds a member's routing entry from the ring: 64 successor searches.
    fn routing_entry(&self, peer: PeerId) -> Option<RoutingEntry> {
        let key = self.ring_key_of(peer)?;
        let (succ_key, succ) = self.successor_of_key(key.wrapping_add(1))?;
        let mut fingers: Vec<(PeerId, u64)> = Vec::new();
        for i in 0..FINGER_BITS {
            let target = key.wrapping_add(1u64.wrapping_shl(i));
            if let Some((owner_key, owner)) = self.successor_of_key(target) {
                if owner != peer && fingers.last().map(|&(p, _)| p) != Some(owner) {
                    fingers.push((owner, owner_key));
                }
            }
        }
        Some(RoutingEntry {
            key,
            successor: (succ, succ_key),
            fingers,
        })
    }

    /// Greedy routing of `key` from `from`, asking `next_hop(current)` for
    /// each hop; bounded by the ring size to guarantee termination even in
    /// degenerate cases.
    fn route_with(
        &self,
        from: PeerId,
        key: u64,
        mut next_hop: impl FnMut(PeerId) -> Option<PeerId>,
    ) -> Option<LookupResult> {
        if !self.contains(from) || self.ring.is_empty() {
            return None;
        }
        let owner = self.owner_of(key)?;
        let mut path = Vec::new();
        let mut current = from;
        for _ in 0..=self.len() {
            if current == owner {
                break;
            }
            current = next_hop(current)?;
            path.push(current);
        }
        if current != owner {
            return None;
        }
        if path.is_empty() {
            // The source itself owns the key.
            path.push(owner);
        }
        let messages = path.len();
        Some(LookupResult {
            owner,
            path,
            messages,
        })
    }

    /// True when `x` lies on the clockwise arc `(a, b]` of the ring.
    fn in_arc(a: u64, b: u64, x: u64) -> bool {
        if a < b {
            x > a && x <= b
        } else if a > b {
            x > a || x <= b
        } else {
            // a == b: the arc covers the whole ring.
            true
        }
    }
}

impl Overlay for ChordOverlay {
    fn members(&self) -> Vec<PeerId> {
        self.keys.keys().copied().collect()
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.keys.contains_key(&peer)
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Routes through the memoized entries where they exist and builds the
    /// others for this lookup only.
    fn lookup(&self, from: PeerId, key: u64) -> Option<LookupResult> {
        self.route_with(from, key, |current| match self.routes.get(&current) {
            Some(entry) => Some(entry.next_hop(key)),
            None => Some(self.routing_entry(current)?.next_hop(key)),
        })
    }

    /// Routes like [`Self::lookup`] and memoizes every routing entry it
    /// builds, until the next membership change.
    fn route(&mut self, from: PeerId, key: u64) -> Option<LookupResult> {
        let mut routes = std::mem::take(&mut self.routes);
        let result = self.route_with(from, key, |current| {
            let entry = match routes.entry(current) {
                Entry::Occupied(held) => held.into_mut(),
                Entry::Vacant(slot) => slot.insert(self.routing_entry(current)?),
            };
            Some(entry.next_hop(key))
        });
        self.routes = routes;
        result
    }

    fn neighbors(&self, peer: PeerId) -> Vec<PeerId> {
        let mut n = self.finger_table(peer);
        if let Some(succ) = self.successor(peer) {
            if succ != peer && !n.contains(&succ) {
                n.push(succ);
            }
        }
        n
    }

    fn add_peer(&mut self, peer: PeerId) {
        let key = peer.ring_key();
        self.ring.insert(key, peer);
        self.keys.insert(peer, key);
        self.routes.clear();
    }

    fn remove_peer(&mut self, peer: PeerId) {
        if let Some(key) = self.keys.remove(&peer) {
            self.ring.remove(&key);
            self.routes.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::mix64;

    fn overlay(n: u64) -> ChordOverlay {
        ChordOverlay::with_peers((0..n).map(PeerId))
    }

    /// Brute-force owner: the member with the smallest ring key ≥ key, else the
    /// globally smallest ring key.
    fn brute_force_owner(o: &ChordOverlay, key: u64) -> PeerId {
        let mut members: Vec<(u64, PeerId)> = o
            .members()
            .into_iter()
            .map(|p| (o.ring_key_of(p).unwrap(), p))
            .collect();
        members.sort_unstable();
        members
            .iter()
            .find(|&&(k, _)| k >= key)
            .or_else(|| members.first())
            .map(|&(_, p)| p)
            .unwrap()
    }

    #[test]
    fn owner_matches_brute_force() {
        let o = overlay(64);
        for i in 0..500u64 {
            let key = mix64(i);
            assert_eq!(
                o.owner_of(key),
                Some(brute_force_owner(&o, key)),
                "key {key}"
            );
        }
    }

    #[test]
    fn lookup_finds_the_owner_from_any_source() {
        let o = overlay(128);
        for i in 0..200u64 {
            let key = mix64(i * 7 + 1);
            let from = PeerId(i % 128);
            let r = o.lookup(from, key).expect("lookup succeeds");
            assert_eq!(Some(r.owner), o.owner_of(key));
            assert_eq!(*r.path.last().unwrap(), r.owner);
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let o = overlay(512);
        let mut total_hops = 0usize;
        let n_lookups = 300;
        for i in 0..n_lookups as u64 {
            let key = mix64(i + 9_999);
            let from = PeerId(mix64(i) % 512);
            total_hops += o.lookup(from, key).unwrap().hops();
        }
        let mean = total_hops as f64 / n_lookups as f64;
        // log2(512) = 9; greedy finger routing should average well below that
        // and must not degenerate towards O(N).
        assert!(mean < 12.0, "mean hops {mean}");
        assert!(mean >= 1.0);
    }

    #[test]
    fn lookup_from_owner_is_single_hop_to_self() {
        let o = overlay(16);
        // Pick a key owned by peer 3.
        let key = o.ring_key_of(PeerId(3)).unwrap();
        let r = o.lookup(PeerId(3), key).unwrap();
        assert_eq!(r.owner, PeerId(3));
        assert_eq!(r.hops(), 1);
    }

    #[test]
    fn removing_a_peer_transfers_its_keys_to_the_successor() {
        let mut o = overlay(32);
        let victim = PeerId(5);
        let key = o.ring_key_of(victim).unwrap();
        assert_eq!(o.owner_of(key), Some(victim));
        let succ = o.successor(victim).unwrap();
        o.remove_peer(victim);
        assert_eq!(o.owner_of(key), Some(succ));
        assert!(!o.contains(victim));
        assert_eq!(o.len(), 31);
    }

    #[test]
    fn lookup_fails_for_non_member_source() {
        let o = overlay(8);
        assert!(o.lookup(PeerId(99), 42).is_none());
    }

    #[test]
    fn empty_overlay_has_no_owner() {
        let o = ChordOverlay::new();
        assert!(o.owner_of(1).is_none());
        assert!(o.is_empty());
    }

    #[test]
    fn neighbors_are_bounded_by_log_n() {
        let o = overlay(256);
        for i in 0..256u64 {
            let n = o.neighbors(PeerId(i)).len();
            assert!(n <= 66, "peer {i} has {n} neighbors");
            assert!(n >= 1);
        }
    }

    /// The member responsible for `key`, searched in the ring directly.
    fn ring_owner(o: &ChordOverlay, key: u64) -> Option<PeerId> {
        o.ring
            .range(key..)
            .next()
            .or_else(|| o.ring.iter().next())
            .map(|(_, &p)| p)
    }

    /// A member's finger table, built from the ring directly: the owner of
    /// `key + 2^i` for each `i`, without the member itself and with
    /// duplicates collapsed.
    fn ring_fingers(o: &ChordOverlay, peer: PeerId, key: u64) -> Vec<PeerId> {
        let mut fingers = Vec::new();
        for i in 0..FINGER_BITS {
            if let Some(owner) = ring_owner(o, key.wrapping_add(1u64.wrapping_shl(i))) {
                if owner != peer && fingers.last() != Some(&owner) {
                    fingers.push(owner);
                }
            }
        }
        fingers.dedup();
        fingers
    }

    /// The routing the memo replaced, kept as its oracle: every hop rebuilds
    /// the current peer's successor and finger table from the ring, through
    /// none of the overlay's own routing code.
    fn lookup_uncached(o: &ChordOverlay, from: PeerId, key: u64) -> Option<LookupResult> {
        let ring_key = |p: PeerId| o.keys.get(&p).copied();
        if ring_key(from).is_none() || o.ring.is_empty() {
            return None;
        }
        let owner = ring_owner(o, key)?;
        let mut path = Vec::new();
        let mut current = from;
        for _ in 0..=o.keys.len() {
            if current == owner {
                break;
            }
            let cur_key = ring_key(current)?;
            let succ = ring_owner(o, cur_key.wrapping_add(1))?;
            let succ_key = ring_key(succ)?;
            if ChordOverlay::in_arc(cur_key, succ_key, key) {
                path.push(succ);
                current = succ;
                continue;
            }
            let fingers = ring_fingers(o, current, cur_key);
            let mut next = succ;
            let mut best_dist = key.wrapping_sub(succ_key);
            for f in fingers {
                let fk = ring_key(f)?;
                let dist = key.wrapping_sub(fk);
                if dist < best_dist && f != current {
                    best_dist = dist;
                    next = f;
                }
            }
            if next == current {
                next = succ;
            }
            path.push(next);
            current = next;
        }
        if current != owner {
            return None;
        }
        if path.is_empty() {
            path.push(owner);
        }
        let messages = path.len();
        Some(LookupResult {
            owner,
            path,
            messages,
        })
    }

    #[test]
    fn finger_tables_and_successors_match_the_ring() {
        let mut o = overlay(64);
        o.remove_peer(PeerId(17));
        for peer in o.members() {
            let key = o.ring_key_of(peer).unwrap();
            assert_eq!(o.finger_table(peer), ring_fingers(&o, peer, key));
            assert_eq!(o.successor(peer), ring_owner(&o, key.wrapping_add(1)));
        }
        assert!(o.finger_table(PeerId(17)).is_empty());
    }

    #[test]
    fn memo_fills_on_route_and_drops_on_membership_change() {
        let mut o = overlay(64);
        let key = mix64(77);
        let want = lookup_uncached(&o, PeerId(9), key);
        assert_eq!(o.route(PeerId(9), key), want);
        assert!(!o.routes.is_empty());
        // A memoized read and a repeated route agree with the oracle.
        assert_eq!(o.lookup(PeerId(9), key), want);
        assert_eq!(o.route(PeerId(9), key), want);
        o.remove_peer(PeerId(63));
        assert!(o.routes.is_empty());
        assert_eq!(o.route(PeerId(9), key), lookup_uncached(&o, PeerId(9), key));
        o.add_peer(PeerId(63));
        assert!(o.routes.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn memoized_lookup_equals_uncached_under_churn(
            initial in 0u64..40,
            ops in proptest::collection::vec((0u8..8, 0u64..48, proptest::prelude::any::<u64>()), 1..120),
        ) {
            let mut o = overlay(initial);
            for (op, peer, key) in ops {
                let peer = PeerId(peer);
                match op {
                    0 => o.add_peer(peer),
                    1 => o.remove_peer(peer),
                    // From the owner of a member's own key.
                    2 => {
                        let key = o.ring_key_of(peer).unwrap_or(key);
                        let from = o.owner_of(key).unwrap_or(peer);
                        let want = lookup_uncached(&o, from, key);
                        proptest::prop_assert_eq!(o.lookup(from, key), want.clone());
                        proptest::prop_assert_eq!(o.route(from, key), want);
                    }
                    // From any peer, member or not (`None` for a non-member).
                    _ => {
                        let want = lookup_uncached(&o, peer, key);
                        if !o.contains(peer) {
                            proptest::prop_assert!(want.is_none());
                        }
                        proptest::prop_assert_eq!(o.lookup(peer, key), want.clone());
                        proptest::prop_assert_eq!(o.route(peer, key), want);
                    }
                }
            }
        }
    }

    #[test]
    fn in_arc_wraparound() {
        assert!(ChordOverlay::in_arc(10, 20, 15));
        assert!(!ChordOverlay::in_arc(10, 20, 25));
        assert!(ChordOverlay::in_arc(u64::MAX - 5, 5, 2));
        assert!(ChordOverlay::in_arc(u64::MAX - 5, 5, u64::MAX));
        assert!(!ChordOverlay::in_arc(u64::MAX - 5, 5, 100));
    }
}
