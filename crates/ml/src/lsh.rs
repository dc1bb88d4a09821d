//! Locality-sensitive hashing for cosine similarity (random hyperplanes).
//!
//! PACE peers "index the models using the centroids (based on locality
//! sensitive hashing)"; at prediction time "the algorithm retrieves the top k
//! 'nearest' models (with respect to the distance between the test data and
//! the models' centroids) from the index" (§2). This module provides that
//! index: items are keyed by a sparse centroid, signatures are sign patterns
//! of random-hyperplane projections, and queries return the top-k items by
//! exact distance among hash-collision candidates (falling back to scanning
//! when too few candidates collide, so recall never collapses).
//!
//! To avoid materializing dense random hyperplanes over a vocabulary-sized
//! space, hyperplane components are derived on the fly from a deterministic
//! 64-bit mix of `(seed, bit index, feature index)`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use textproc::SparseVector;

/// Configuration of the random-hyperplane LSH index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshConfig {
    /// Number of signature bits per band.
    pub bits_per_band: usize,
    /// Number of independent bands (hash tables).
    pub num_bands: usize,
    /// Seed from which all hyperplanes are derived.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            bits_per_band: 8,
            num_bands: 4,
            seed: 2010,
        }
    }
}

/// An LSH index mapping sparse key vectors to items of type `T`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshIndex<T> {
    config: LshConfig,
    /// One hash table per band: band signature → entry indices.
    tables: Vec<HashMap<u64, Vec<usize>>>,
    entries: Vec<(SparseVector, T)>,
    /// Every entry's band signatures, `num_bands` per entry in entry order.
    /// Projecting a key through the hyperplanes is the expensive part of an
    /// insert; keeping the result lets [`Self::compact`] re-file survivors
    /// instead of re-projecting them.
    signatures: Vec<u64>,
    /// Cached `‖key‖²` per entry, for the batched query path.
    norms_sq: Vec<f64>,
    /// Inverted postings over key features: feature → `(entry, value)`.
    /// Lets [`Self::query_batched`] compute every key dot product in one
    /// pass over the query's nonzeros instead of one merge-join per entry.
    postings: HashMap<u32, Vec<(u32, f64)>>,
    /// Tombstones: `live[i] == false` hides entry `i` from every query.
    /// Entries are append-only (hash tables and postings hold stable
    /// indices), so replacing an item's keys retires the old entries instead
    /// of removing them; see [`Self::retire`].
    live: Vec<bool>,
    /// Number of live entries.
    num_live: usize,
    /// The live entries of each item, so [`Self::retire`] goes straight to
    /// them. Looked up by key only, never iterated.
    by_item: HashMap<T, Vec<usize>>,
}

impl<T: Clone + Eq + Hash> LshIndex<T> {
    /// Creates an empty index.
    pub fn new(config: LshConfig) -> Self {
        let tables = (0..config.num_bands).map(|_| HashMap::new()).collect();
        Self {
            config,
            tables,
            entries: Vec::new(),
            signatures: Vec::new(),
            norms_sq: Vec::new(),
            postings: HashMap::new(),
            live: Vec::new(),
            num_live: 0,
            by_item: HashMap::new(),
        }
    }

    /// Number of indexed (live) items.
    pub fn len(&self) -> usize {
        self.num_live
    }

    /// Whether the index has no live items.
    pub fn is_empty(&self) -> bool {
        self.num_live == 0
    }

    /// The configuration in use.
    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// Inserts an item keyed by `key`.
    pub fn insert(&mut self, key: SparseVector, item: T) {
        for band in 0..self.config.num_bands {
            let sig = self.band_signature(&key, band);
            self.signatures.push(sig);
        }
        let norm_sq = key.norm_sq();
        self.file(key, item, norm_sq);
    }

    /// Appends an entry whose band signatures are already the tail of
    /// `signatures`, filing it under them in every table, in the postings
    /// and under its item.
    fn file(&mut self, key: SparseVector, item: T, norm_sq: f64) {
        let idx = self.entries.len();
        let bands = self.config.num_bands;
        for (table, &sig) in self.tables.iter_mut().zip(&self.signatures[idx * bands..]) {
            table.entry(sig).or_default().push(idx);
        }
        self.norms_sq.push(norm_sq);
        for (feature, value) in key.iter() {
            self.postings
                .entry(feature)
                .or_default()
                .push((idx as u32, value));
        }
        self.by_item.entry(item.clone()).or_default().push(idx);
        self.entries.push((key, item));
        self.live.push(true);
        self.num_live += 1;
    }

    /// Retires every live entry of `item` (tombstoning — the entry keeps its
    /// index but disappears from all queries). This is how an item whose
    /// keys changed is replaced: retire the old entries, insert the new
    /// ones. Returns the number of entries retired.
    ///
    /// When tombstones start to dominate, the index compacts itself (live
    /// entries are re-filed in their original relative order), so a
    /// long-running stream of replacements keeps query cost proportional to
    /// the *live* entry count, not the all-time insert count.
    pub fn retire(&mut self, item: &T) -> usize {
        let retired = self.by_item.remove(item).unwrap_or_default();
        for &idx in &retired {
            self.live[idx] = false;
        }
        self.num_live -= retired.len();
        let dead = self.entries.len() - self.num_live;
        if dead > self.num_live.max(16) {
            self.compact();
        }
        retired.len()
    }

    /// Rebuilds the index from its live entries only, dropping tombstones
    /// from the hash tables, postings and entry store. Live entries keep
    /// their relative order, so query tie-breaking is unchanged, and their
    /// stored signatures and norms, so nothing is projected again.
    fn compact(&mut self) {
        let old_entries = std::mem::take(&mut self.entries);
        let old_signatures = std::mem::take(&mut self.signatures);
        let old_norms_sq = std::mem::take(&mut self.norms_sq);
        let old_live = std::mem::take(&mut self.live);
        self.tables.iter_mut().for_each(HashMap::clear);
        self.postings.clear();
        self.by_item.clear();
        self.num_live = 0;
        let bands = self.config.num_bands;
        for (i, (key, item)) in old_entries.into_iter().enumerate() {
            if old_live[i] {
                self.signatures
                    .extend_from_slice(&old_signatures[i * bands..(i + 1) * bands]);
                self.file(key, item, old_norms_sq[i]);
            }
        }
    }

    /// Returns the indices of live candidate entries colliding with `query`
    /// in at least one band.
    fn candidates(&self, query: &SparseVector) -> Vec<usize> {
        let mut seen = vec![false; self.entries.len()];
        let mut out = Vec::new();
        for band in 0..self.config.num_bands {
            let sig = self.band_signature(query, band);
            if let Some(list) = self.tables[band].get(&sig) {
                for &idx in list {
                    if self.live[idx] && !seen[idx] {
                        seen[idx] = true;
                        out.push(idx);
                    }
                }
            }
        }
        out
    }

    /// Returns up to `k` items nearest to `query` (by Euclidean distance of the
    /// key vectors), preferring LSH candidates and falling back to a full scan
    /// when fewer than `k` candidates collide.
    pub fn query(&self, query: &SparseVector, k: usize) -> Vec<(&T, f64)> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut candidates = self.candidates(query);
        if candidates.len() < k {
            candidates = (0..self.entries.len()).filter(|&i| self.live[i]).collect();
        }
        let mut scored: Vec<(usize, f64)> = candidates
            .into_iter()
            .map(|i| (i, self.entries[i].0.distance(query)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
            .into_iter()
            .take(k)
            .map(|(i, d)| (&self.entries[i].1, d))
            .collect()
    }

    /// Batched variant of [`Self::query`], returning **identical** results.
    ///
    /// Differences are purely in evaluation strategy: entry norms are read
    /// from the cache instead of recomputed, the query norm is computed once,
    /// and when the candidate shortfall forces the full scan the dot products
    /// of *all* entries are accumulated in one pass over the query's nonzeros
    /// through the inverted postings (the same CSR scatter the batched tag
    /// scorer uses) instead of one merge-join per entry. Every per-entry sum
    /// adds the same intersection terms in the same ascending-feature order
    /// as `SparseVector::dot`, so the distances — and therefore the ranking —
    /// are bit-for-bit those of the scalar query.
    pub fn query_batched(&self, query: &SparseVector, k: usize) -> Vec<(&T, f64)> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let q_norm_sq = query.norm_sq();
        let distance =
            |i: usize, dot: f64| (self.norms_sq[i] + q_norm_sq - 2.0 * dot).max(0.0).sqrt();
        let candidates = self.candidates(query);
        let mut scored: Vec<(usize, f64)> = if candidates.len() < k {
            let mut dots = vec![0.0f64; self.entries.len()];
            for (feature, qv) in query.iter() {
                if let Some(column) = self.postings.get(&feature) {
                    for &(i, cv) in column {
                        dots[i as usize] += cv * qv;
                    }
                }
            }
            dots.into_iter()
                .enumerate()
                .filter(|&(i, _)| self.live[i])
                .map(|(i, dot)| (i, distance(i, dot)))
                .collect()
        } else {
            candidates
                .into_iter()
                .map(|i| (i, distance(i, self.entries[i].0.dot(query))))
                .collect()
        };
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
            .into_iter()
            .take(k)
            .map(|(i, d)| (&self.entries[i].1, d))
            .collect()
    }

    /// Exact (brute force) top-k query, for testing recall and the LSH-off
    /// ablation.
    pub fn query_exact(&self, query: &SparseVector, k: usize) -> Vec<(&T, f64)> {
        let mut scored: Vec<(usize, f64)> = (0..self.entries.len())
            .filter(|&i| self.live[i])
            .map(|i| (i, self.entries[i].0.distance(query)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
            .into_iter()
            .take(k)
            .map(|(i, d)| (&self.entries[i].1, d))
            .collect()
    }

    /// The signature of `v` in the given band.
    fn band_signature(&self, v: &SparseVector, band: usize) -> u64 {
        let mut sig = 0u64;
        for bit in 0..self.config.bits_per_band {
            if self.project(v, band, bit) >= 0.0 {
                sig |= 1 << bit;
            }
        }
        sig
    }

    /// Signed projection of `v` onto the pseudo-random hyperplane `(band, bit)`.
    fn project(&self, v: &SparseVector, band: usize, bit: usize) -> f64 {
        let plane_id = (band as u64) << 32 | bit as u64;
        v.iter()
            .map(|(idx, val)| hyperplane_component(self.config.seed, plane_id, idx) * val)
            .sum()
    }

    /// Full signature of a vector across all bands (useful for diagnostics).
    pub fn signature(&self, v: &SparseVector) -> Vec<u64> {
        (0..self.config.num_bands)
            .map(|b| self.band_signature(v, b))
            .collect()
    }
}

/// Deterministic pseudo-random hyperplane component in [-1, 1), derived from
/// (seed, hyperplane id, feature index) via a 64-bit finalizer (splitmix64).
fn hyperplane_component(seed: u64, plane_id: u64, feature: u32) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(plane_id)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(feature as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Map to [-1, 1).
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, dim: u32, nnz: usize) -> SparseVector {
        SparseVector::from_pairs(
            (0..nnz).map(|_| (rng.gen_range(0..dim), rng.gen_range(-1.0..1.0))),
        )
    }

    #[test]
    fn signatures_are_deterministic() {
        let idx = LshIndex::<u32>::new(LshConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let v = random_vec(&mut rng, 100, 10);
        assert_eq!(idx.signature(&v), idx.signature(&v));
    }

    #[test]
    fn identical_vectors_always_collide() {
        let mut idx = LshIndex::new(LshConfig::default());
        let v = SparseVector::from_pairs([(0, 1.0), (5, -2.0)]);
        idx.insert(v.clone(), "a");
        let hits = idx.query(&v, 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].0, "a");
        assert!(hits[0].1 < 1e-12);
    }

    #[test]
    fn query_returns_nearest_items() {
        let mut idx = LshIndex::new(LshConfig::default());
        for i in 0..20u32 {
            idx.insert(SparseVector::from_pairs([(0, i as f64)]), i);
        }
        let hits = idx.query(&SparseVector::from_pairs([(0, 7.2)]), 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(*hits[0].0, 7);
    }

    #[test]
    fn retired_entries_disappear_from_every_query_path() {
        let mut idx = LshIndex::new(LshConfig::default());
        for i in 0..10u32 {
            idx.insert(SparseVector::from_pairs([(0, i as f64)]), i);
        }
        assert_eq!(idx.len(), 10);
        // Replace item 3: retire its old key, insert a new one far away.
        let retired = idx.retire(&3);
        assert_eq!(retired, 1);
        assert_eq!(idx.len(), 9);
        idx.insert(SparseVector::from_pairs([(0, 100.0)]), 3);
        let probe = SparseVector::from_pairs([(0, 3.1)]);
        for hits in [
            idx.query(&probe, 3),
            idx.query_batched(&probe, 3),
            idx.query_exact(&probe, 3),
        ] {
            // The nearest live entries are 3's neighbours, not its old key.
            assert!(
                hits.iter().all(|(&item, d)| item != 3 || *d > 50.0),
                "stale key of item 3 still reachable: {:?}",
                hits.iter().map(|(i, d)| (**i, *d)).collect::<Vec<_>>()
            );
        }
        // query and query_batched still agree bit-for-bit with tombstones.
        let a: Vec<(u32, f64)> = idx
            .query(&probe, 5)
            .into_iter()
            .map(|(i, d)| (*i, d))
            .collect();
        let b: Vec<(u32, f64)> = idx
            .query_batched(&probe, 5)
            .into_iter()
            .map(|(i, d)| (*i, d))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_replacement_compacts_instead_of_accumulating_tombstones() {
        let mut idx = LshIndex::new(LshConfig::default());
        for i in 0..8u32 {
            idx.insert(SparseVector::from_pairs([(0, i as f64)]), i);
        }
        // Replace item 0's key many times, as incremental re-propagation does.
        for round in 0..100 {
            idx.retire(&0);
            idx.insert(SparseVector::from_pairs([(0, 0.1 * round as f64)]), 0);
        }
        assert_eq!(idx.len(), 8);
        // Compaction bounds the backing store: dead entries never exceed the
        // live count by more than the compaction slack.
        assert!(
            idx.entries.len() <= 2 * idx.len() + 16,
            "tombstones accumulated: {} entries for {} live",
            idx.entries.len(),
            idx.len()
        );
        // Queries still see exactly the live set.
        let hits = idx.query_exact(&SparseVector::from_pairs([(0, 3.0)]), 8);
        assert_eq!(hits.len(), 8);
    }

    #[test]
    fn replace_heavy_index_answers_like_a_freshly_built_one() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut idx = LshIndex::new(LshConfig::default());
        // The entries a fresh build would insert, in the replaced index's
        // entry order: survivors first-inserted-first, replacements appended.
        let mut model: Vec<(SparseVector, u32)> = Vec::new();
        for item in 0..40u32 {
            for _ in 0..3 {
                let key = random_vec(&mut rng, 60, 10);
                idx.insert(key.clone(), item);
                model.push((key, item));
            }
        }
        let mut compactions = 0;
        for _ in 0..400 {
            let item = rng.gen_range(0..40u32);
            let before = idx.entries.len();
            assert_eq!(idx.retire(&item), 3);
            if idx.entries.len() < before {
                compactions += 1;
            }
            model.retain(|(_, i)| *i != item);
            for _ in 0..3 {
                let key = random_vec(&mut rng, 60, 10);
                idx.insert(key.clone(), item);
                model.push((key, item));
            }
        }
        assert!(compactions >= 3, "compaction exercised: {compactions}");
        assert_eq!(idx.retire(&1_000), 0, "unknown items retire nothing");
        let mut fresh = LshIndex::new(LshConfig::default());
        for (key, item) in &model {
            fresh.insert(key.clone(), *item);
        }
        assert_eq!(idx.len(), fresh.len());
        let bits = |hits: Vec<(&u32, f64)>| -> Vec<(u32, u64)> {
            hits.into_iter().map(|(i, d)| (*i, d.to_bits())).collect()
        };
        for _ in 0..25 {
            let q = random_vec(&mut rng, 60, 10);
            for k in [1, 7, 36, 200] {
                assert_eq!(bits(idx.query(&q, k)), bits(fresh.query(&q, k)));
                assert_eq!(
                    bits(idx.query_batched(&q, k)),
                    bits(fresh.query_batched(&q, k))
                );
                assert_eq!(bits(idx.query_batched(&q, k)), bits(idx.query(&q, k)));
                assert_eq!(bits(idx.query_exact(&q, k)), bits(fresh.query_exact(&q, k)));
            }
        }
    }

    #[test]
    fn falls_back_to_scan_when_no_candidates() {
        // A single far-away item may not collide, but the fallback must find it.
        let mut idx = LshIndex::new(LshConfig {
            bits_per_band: 16,
            num_bands: 1,
            seed: 3,
        });
        idx.insert(SparseVector::from_pairs([(9, 100.0)]), "far");
        let hits = idx.query(&SparseVector::from_pairs([(0, 1.0)]), 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn lsh_topk_matches_exact_topk_reasonably() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut idx = LshIndex::new(LshConfig::default());
        let items: Vec<SparseVector> = (0..200).map(|_| random_vec(&mut rng, 50, 8)).collect();
        for (i, v) in items.iter().enumerate() {
            idx.insert(v.clone(), i);
        }
        let mut overlap = 0usize;
        let queries: Vec<SparseVector> = (0..20).map(|_| random_vec(&mut rng, 50, 8)).collect();
        for q in &queries {
            let approx: Vec<usize> = idx.query(q, 5).into_iter().map(|(i, _)| *i).collect();
            let exact: Vec<usize> = idx.query_exact(q, 5).into_iter().map(|(i, _)| *i).collect();
            overlap += approx.iter().filter(|i| exact.contains(i)).count();
        }
        // At least half of the exact top-5 should be recovered on average.
        assert!(overlap >= 50, "overlap {overlap}");
    }

    #[test]
    fn batched_query_is_identical_to_scalar_query() {
        let mut rng = StdRng::seed_from_u64(9);
        // Small bucket width forces both the candidate path and (with large k)
        // the full-scan fallback to be exercised.
        let mut idx = LshIndex::new(LshConfig::default());
        let items: Vec<SparseVector> = (0..150).map(|_| random_vec(&mut rng, 60, 12)).collect();
        for (i, v) in items.iter().enumerate() {
            idx.insert(v.clone(), i);
        }
        for _ in 0..30 {
            let q = random_vec(&mut rng, 60, 10);
            for k in [1, 5, 40, 200] {
                let scalar: Vec<(usize, u64)> = idx
                    .query(&q, k)
                    .into_iter()
                    .map(|(i, d)| (*i, d.to_bits()))
                    .collect();
                let batched: Vec<(usize, u64)> = idx
                    .query_batched(&q, k)
                    .into_iter()
                    .map(|(i, d)| (*i, d.to_bits()))
                    .collect();
                assert_eq!(scalar, batched, "k = {k}");
            }
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = LshIndex::<u32>::new(LshConfig::default());
        assert!(idx
            .query(&SparseVector::from_pairs([(0, 1.0)]), 3)
            .is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let mut idx = LshIndex::new(LshConfig::default());
        idx.insert(SparseVector::from_pairs([(0, 1.0)]), 1);
        assert!(idx
            .query(&SparseVector::from_pairs([(0, 1.0)]), 0)
            .is_empty());
    }

    #[test]
    fn similar_vectors_share_more_signature_bits_than_dissimilar() {
        let idx = LshIndex::<u32>::new(LshConfig {
            bits_per_band: 32,
            num_bands: 1,
            seed: 7,
        });
        let a = SparseVector::from_pairs((0..20).map(|i| (i, 1.0)));
        let near = SparseVector::from_pairs((0..20).map(|i| (i, if i == 0 { 0.9 } else { 1.0 })));
        let far =
            SparseVector::from_pairs((0..20).map(|i| (i, if i % 2 == 0 { -1.0 } else { 1.0 })));
        let sig = |v: &SparseVector| idx.signature(v)[0];
        let hamming = |x: u64, y: u64| (x ^ y).count_ones();
        assert!(hamming(sig(&a), sig(&near)) < hamming(sig(&a), sig(&far)));
    }
}
