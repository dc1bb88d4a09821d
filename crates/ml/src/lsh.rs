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
//! The scalar `LshIndex::query` (compiled for tests only) is the reference:
//! one merge-join distance per scored entry. The batched entry points,
//! [`LshIndex::query_batched`] and [`LshIndex::nearest_items`], share one
//! scoring core: a single pass over the query's nonzeros both projects it
//! onto the hyperplanes and prices every entry through the feature-indexed
//! postings. The fallback scan
//! guesses a threshold just above the `k`-th squared distance from a sample
//! and sorts only what lies under it, and item distances (the nearest of an
//! item's keys) are read from the same buffer through item slots resolved at
//! insert time. Both return the scalar results bit for bit.
//!
//! To avoid materializing dense random hyperplanes over a vocabulary-sized
//! space, hyperplane components are derived from a deterministic 64-bit mix
//! of `(seed, bit index, feature index)`. The index caches one row of them
//! (every band's and bit's component) per feature some key carries; a query
//! feature no key carries is mixed on the fly. [`LshIndex::signature`]
//! projects from scratch.
//!
//! Retiring an item tombstones its entries. Once the dead exceed an eighth of
//! the live, compaction renumbers the survivors in place: postings, band
//! tables and item slots are rewritten through one old-to-new map, so no
//! key is projected or filed again and a query never reads more than that
//! eighth of dead entries. A feature no live key carries any more loses its
//! column and cached row at the same time.

use crate::kernel::SCATTER_LIMIT;
#[cfg(test)]
use crate::multilabel::by_distance_ascending;
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

/// Marks a feature without a column in [`LshIndex::column_of`].
const NO_COLUMN: u32 = u32::MAX;

/// One key feature's inverted postings.
#[derive(Debug, Clone)]
struct Column {
    /// The feature the column belongs to.
    feature: u32,
    /// The entries whose key carries the feature, ascending.
    entries: Vec<u32>,
    /// Their values, parallel to `entries`.
    values: Vec<f64>,
}

impl Column {
    /// Adds the column's terms `value × qv` to `dots`, each to its entry's
    /// sum.
    #[inline]
    fn scatter(&self, qv: f64, dots: &mut [f64]) {
        for (&i, &cv) in self.entries.iter().zip(&self.values) {
            dots[i as usize] += cv * qv;
        }
    }

    /// Renumbers the postings through `renumbered` (old entry → new, or
    /// `u32::MAX` for a dropped one) and drops the dead.
    fn compact(&mut self, renumbered: &[u32]) {
        let mut kept = 0;
        for j in 0..self.entries.len() {
            let new = renumbered[self.entries[j] as usize];
            if new != u32::MAX {
                self.entries[kept] = new;
                self.values[kept] = self.values[j];
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        self.values.truncate(kept);
    }
}

/// `‖key‖² + ‖query‖² − 2·key·query`, clamped at zero.
#[inline]
fn clamped_distance_sq(key_norm_sq: f64, q_norm_sq: f64, dot: f64) -> f64 {
    (key_norm_sq + q_norm_sq - 2.0 * dot).max(0.0)
}

/// Entries the fallback scan samples to guess its threshold.
const SAMPLE: usize = 256;

/// The order key of a distance or squared distance: its bits without the
/// sign. Both are never NaN and never below zero, so keys order exactly as
/// the values do, and `-0.0` ties with `+0.0` as it does under
/// `partial_cmp`.
#[inline]
fn order_key(value: f64) -> u64 {
    value.to_bits() & (u64::MAX >> 1)
}

/// Keeps the `k` smallest of `ranked`, in ascending order. Its elements are
/// distinct, so the `k` smallest are one set whichever way they are found.
fn keep_first(ranked: &mut Vec<(u64, u32)>, k: usize) {
    if ranked.len() > k {
        ranked.select_nth_unstable(k - 1);
        ranked.truncate(k);
    }
    ranked.sort_unstable();
}

/// A query's dot product with every entry, and the entry distances priced
/// from it.
struct Priced<'a> {
    dots: Vec<f64>,
    q_norm_sq: f64,
    norms_sq: &'a [f64],
}

impl Priced<'_> {
    /// `SparseVector::distance_sq`'s expression clamped at zero, with the
    /// cached key norm: never NaN, since `f64::max(NaN, 0.0)` is `0.0`.
    #[inline]
    fn distance_sq(&self, entry: usize) -> f64 {
        clamped_distance_sq(self.norms_sq[entry], self.q_norm_sq, self.dots[entry])
    }

    /// [`Self::distance_sq`] of every entry, in entry order.
    fn distances_sq(&self) -> impl Iterator<Item = f64> + '_ {
        let q_norm_sq = self.q_norm_sq;
        (self.norms_sq.iter().zip(&self.dots))
            .map(move |(&norm_sq, &dot)| clamped_distance_sq(norm_sq, q_norm_sq, dot))
    }

    /// `SparseVector::distance`, bit for bit.
    #[inline]
    fn distance(&self, entry: usize) -> f64 {
        self.distance_sq(entry).sqrt()
    }
}

/// An LSH index mapping sparse key vectors to items of type `T`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshIndex<T> {
    config: LshConfig,
    /// One hash table per band: band signature → entry indices, ascending.
    tables: Vec<HashMap<u64, Vec<u32>>>,
    entries: Vec<(SparseVector, T)>,
    /// Cached `‖key‖²` per entry, for the batched query path.
    norms_sq: Vec<f64>,
    /// Per entry, the slot of its item in [`Self::item_entries`].
    item_of: Vec<u32>,
    /// Tombstones: `live[i] == false` hides entry `i` from every query until
    /// the next compaction drops it.
    live: Vec<bool>,
    /// Number of live entries.
    num_live: usize,
    /// Feature → column, for features below [`SCATTER_LIMIT`]; grown to the
    /// largest key feature. [`NO_COLUMN`] where no key ever carried it.
    column_of: Vec<u32>,
    /// Columns of key features at or past [`SCATTER_LIMIT`], which only a
    /// hostile frame carries.
    far_columns: HashMap<u32, u32>,
    /// Per column, the inverted postings. Lets [`Self::top_entries`]
    /// compute every key dot product in one pass over the query's nonzeros.
    /// Every column has at least one entry, live or not yet compacted.
    columns: Vec<Column>,
    /// Per column, the feature's hyperplane components: `num_bands ×
    /// bits_per_band` of them, band-major.
    rows: Vec<f64>,
    /// Per item slot, the item's live entries in ascending order.
    item_entries: Vec<Vec<u32>>,
    /// Slots of fully retired items, reused by the next new item.
    free_slots: Vec<u32>,
    /// Item → slot. Read at insert and retire only, never by a query.
    by_item: HashMap<T, u32>,
}

impl<T: Clone + Eq + Hash> LshIndex<T> {
    /// Creates an empty index.
    pub fn new(config: LshConfig) -> Self {
        let tables = (0..config.num_bands).map(|_| HashMap::new()).collect();
        Self {
            config,
            tables,
            entries: Vec::new(),
            norms_sq: Vec::new(),
            item_of: Vec::new(),
            live: Vec::new(),
            num_live: 0,
            column_of: Vec::new(),
            far_columns: HashMap::new(),
            columns: Vec::new(),
            rows: Vec::new(),
            item_entries: Vec::new(),
            free_slots: Vec::new(),
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

    /// The column of `feature`, if a key not yet compacted away carries it.
    #[inline]
    fn column(&self, feature: u32) -> Option<usize> {
        let column = match self.column_of.get(feature as usize) {
            Some(&c) => c,
            None if feature as usize >= SCATTER_LIMIT => *self.far_columns.get(&feature)?,
            None => NO_COLUMN,
        };
        (column != NO_COLUMN).then_some(column as usize)
    }

    /// The column of `feature`, opened (with its hyperplane row) if no key
    /// carried it before.
    fn column_or_open(&mut self, feature: u32) -> usize {
        if let Some(c) = self.column(feature) {
            return c;
        }
        let c = self.columns.len();
        self.columns.push(Column {
            feature,
            entries: Vec::new(),
            values: Vec::new(),
        });
        self.rows.extend(hyperplane_row(&self.config, feature));
        if (feature as usize) < SCATTER_LIMIT {
            if self.column_of.len() <= feature as usize {
                self.column_of.resize(feature as usize + 1, NO_COLUMN);
            }
            self.column_of[feature as usize] = c as u32;
        } else {
            self.far_columns.insert(feature, c as u32);
        }
        c
    }

    /// Projects `v` onto every hyperplane in one pass over its nonzeros and
    /// returns its band signatures, handing each nonzero that has a column
    /// to `on_column` on the way.
    ///
    /// Each projection adds the same `component × value` terms in the same
    /// ascending-feature order as [`Self::signature`]'s; the two sums can
    /// differ only in the sign of a zero, which `≥ 0.0` does not read, so
    /// the bits are exact. Features without a row are mixed on the fly.
    fn project_all(&self, v: &SparseVector, mut on_column: impl FnMut(usize, f64)) -> Vec<u64> {
        let bits = self.config.bits_per_band;
        let width = self.config.num_bands * bits;
        let mut sums = vec![0.0f64; width];
        let mut unseen = Vec::new();
        for (feature, value) in v.iter() {
            let row = match self.column(feature) {
                Some(c) => {
                    on_column(c, value);
                    &self.rows[c * width..(c + 1) * width]
                }
                None => {
                    unseen.clear();
                    unseen.extend(hyperplane_row(&self.config, feature));
                    &unseen[..]
                }
            };
            for (sum, &h) in sums.iter_mut().zip(row) {
                *sum += h * value;
            }
        }
        (0..self.config.num_bands)
            .map(|band| {
                sums[band * bits..(band + 1) * bits]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s >= 0.0)
                    .fold(0u64, |sig, (bit, _)| sig | 1 << bit)
            })
            .collect()
    }

    /// Inserts an item keyed by `key`.
    pub fn insert(&mut self, key: SparseVector, item: T) {
        let idx = self.entries.len() as u32;
        for (feature, value) in key.iter() {
            let c = self.column_or_open(feature);
            let column = &mut self.columns[c];
            column.entries.push(idx);
            column.values.push(value);
        }
        let signatures = self.project_all(&key, |_, _| {});
        for (table, sig) in self.tables.iter_mut().zip(signatures) {
            table.entry(sig).or_default().push(idx);
        }
        self.norms_sq.push(key.norm_sq());
        let slot = match self.by_item.get(&item) {
            Some(&slot) => slot,
            None => {
                let slot = self.free_slots.pop().unwrap_or_else(|| {
                    self.item_entries.push(Vec::new());
                    self.item_entries.len() as u32 - 1
                });
                self.by_item.insert(item.clone(), slot);
                slot
            }
        };
        self.item_entries[slot as usize].push(idx);
        self.item_of.push(slot);
        self.entries.push((key, item));
        self.live.push(true);
        self.num_live += 1;
    }

    /// Retires every live entry of `item` (tombstoning — the entry keeps its
    /// index but disappears from all queries). This is how an item whose
    /// keys changed is replaced: retire the old entries, insert the new
    /// ones. Returns the number of entries retired.
    ///
    /// Once the dead entries exceed an eighth of the live ones, the index
    /// compacts itself in place (survivors keep their relative order), so a
    /// long-running stream of replacements keeps query cost proportional to
    /// the *live* entry count, not the all-time insert count.
    pub fn retire(&mut self, item: &T) -> usize {
        let Some(slot) = self.by_item.remove(item) else {
            return 0;
        };
        let retired = std::mem::take(&mut self.item_entries[slot as usize]);
        self.free_slots.push(slot);
        for &idx in &retired {
            self.live[idx as usize] = false;
        }
        self.num_live -= retired.len();
        let dead = self.entries.len() - self.num_live;
        if dead > self.num_live / 8 {
            self.compact();
        }
        retired.len()
    }

    /// Drops the tombstones by renumbering the live entries in place: one
    /// old-to-new map rewrites the postings, the band tables and the item
    /// slots, and the per-entry stores keep their live rows. Live entries
    /// keep their relative order, so every list stays ascending and query
    /// tie-breaking is unchanged; nothing is projected or filed again. The
    /// columns left without postings are dropped with their rows.
    fn compact(&mut self) {
        let mut renumbered = vec![u32::MAX; self.entries.len()];
        let mut next = 0u32;
        for (new, &live) in renumbered.iter_mut().zip(&self.live) {
            if live {
                *new = next;
                next += 1;
            }
        }
        let renumber = |idx: &mut u32| {
            *idx = renumbered[*idx as usize];
            *idx != u32::MAX
        };
        for column in &mut self.columns {
            column.compact(&renumbered);
        }
        self.drop_empty_columns();
        for table in &mut self.tables {
            table.retain(|_, list| {
                list.retain_mut(renumber);
                !list.is_empty()
            });
        }
        for list in &mut self.item_entries {
            list.retain_mut(renumber);
        }
        let live = std::mem::take(&mut self.live);
        let mut keep = live.iter().copied();
        self.entries.retain(|_| keep.next() == Some(true));
        let mut keep = live.iter().copied();
        self.norms_sq.retain(|_| keep.next() == Some(true));
        let mut keep = live.iter().copied();
        self.item_of.retain(|_| keep.next() == Some(true));
        self.live = vec![true; self.num_live];
    }

    /// Drops the columns without postings, with their hyperplane rows and
    /// their features' lookups, and renumbers the rest in order.
    fn drop_empty_columns(&mut self) {
        let width = self.config.num_bands * self.config.bits_per_band;
        let mut kept = 0;
        for c in 0..self.columns.len() {
            let feature = self.columns[c].feature;
            let new = if self.columns[c].entries.is_empty() {
                NO_COLUMN
            } else {
                self.columns.swap(kept, c);
                self.rows
                    .copy_within(c * width..(c + 1) * width, kept * width);
                kept += 1;
                kept as u32 - 1
            };
            if (feature as usize) < SCATTER_LIMIT {
                self.column_of[feature as usize] = new;
            } else if new == NO_COLUMN {
                self.far_columns.remove(&feature);
            } else {
                self.far_columns.insert(feature, new);
            }
        }
        self.columns.truncate(kept);
        self.rows.truncate(kept * width);
    }

    /// The live entries colliding with a query of band signatures
    /// `signatures` in at least one band, in collision order: band by band,
    /// each bucket in ascending entry order, each entry at its first
    /// collision.
    fn colliding(&self, signatures: &[u64]) -> Vec<usize> {
        let mut seen = vec![0u64; self.entries.len().div_ceil(64)];
        let mut out = Vec::new();
        for (table, sig) in self.tables.iter().zip(signatures) {
            let Some(list) = table.get(sig) else {
                continue;
            };
            for &idx in list {
                let (word, bit) = (idx as usize / 64, 1u64 << (idx % 64));
                if self.live[idx as usize] && seen[word] & bit == 0 {
                    seen[word] |= bit;
                    out.push(idx as usize);
                }
            }
        }
        out
    }

    /// Returns the indices of live candidate entries colliding with `query`
    /// in at least one band.
    #[cfg(test)]
    fn candidates(&self, query: &SparseVector) -> Vec<usize> {
        self.colliding(&self.project_all(query, |_, _| {}))
    }

    /// Returns up to `k` items nearest to `query` (by Euclidean distance of the
    /// key vectors), preferring LSH candidates and falling back to a full scan
    /// when fewer than `k` candidates collide: the scalar oracle of
    /// [`Self::query_batched`].
    #[cfg(test)]
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
        scored.sort_by(|a, b| by_distance_ascending(a.1, b.1));
        scored
            .into_iter()
            .take(k)
            .map(|(i, d)| (&self.entries[i].1, d))
            .collect()
    }

    /// Returns up to `k` items nearest to `query` (by Euclidean distance of
    /// the key vectors), preferring LSH candidates and falling back to a full
    /// scan when fewer than `k` candidates collide. Identical to the scalar
    /// `query` (a test oracle); it shares its scoring core with
    /// [`Self::nearest_items`].
    pub fn query_batched(&self, query: &SparseVector, k: usize) -> Vec<(&T, f64)> {
        let (top, _) = self.top_entries(query, k);
        top.into_iter()
            .map(|(i, d)| (&self.entries[i].1, d))
            .collect()
    }

    /// The distinct items of [`Self::query_batched`]'s `k` entries, in
    /// first-appearance order, each with its distance to `query`: the minimum
    /// over *all* of the item's live keys, not only those among the `k`.
    ///
    /// This is "look up the `k` nearest keys, then rank their items by their
    /// nearest key" in one pass over the index. The fold runs over the
    /// item's keys in insertion order from `+∞` with `f64::min`, reading the
    /// same dot buffer as the ranking, so the result is bit-for-bit that of
    /// de-duplicating the scalar `query`'s hits and folding
    /// `SparseVector::distance` over each item's keys. Items are told apart
    /// by the slot each entry was given at insert, so no item is hashed.
    pub fn nearest_items(&self, query: &SparseVector, k: usize) -> Vec<(&T, f64)> {
        let (top, priced) = self.top_entries(query, k);
        let mut slots: Vec<u32> = Vec::with_capacity(top.len());
        let mut out: Vec<(&T, f64)> = Vec::with_capacity(top.len());
        for (i, _) in top {
            let slot = self.item_of[i];
            // At most `k` items: a linear scan beats hashing them.
            if slots.contains(&slot) {
                continue;
            }
            slots.push(slot);
            let d = self.item_entries[slot as usize]
                .iter()
                .map(|&j| priced.distance(j as usize))
                .fold(f64::INFINITY, f64::min);
            out.push((&self.entries[i].1, d));
        }
        out
    }

    /// The scoring core of every batched query: the top `k` live entries as
    /// `(entry, distance)`, chosen by the scalar `query`'s rules, and the
    /// distance of any entry to `query`.
    ///
    /// One pass over the query's nonzeros projects it onto the hyperplanes
    /// and accumulates its dot products with *every* entry through the
    /// postings (the same CSR scatter the batched tag scorer uses) into one
    /// buffer sized to the entry count. Each sum adds the same intersection
    /// terms in the same ascending-feature order as `SparseVector::dot`, and
    /// each distance evaluates `SparseVector::distance`'s expression with the
    /// cached key norm, so every distance is bit-for-bit the scalar one.
    /// Distances are never NaN (`f64::max(NaN, 0.0)` is `0.0`), so the order
    /// is total.
    ///
    /// When at least `k` entries collide, the colliding entries are stably
    /// sorted from their collision order, exactly as the scalar `query` does.
    /// Otherwise [`Self::nearest_live`] keeps what a stable sort of all live
    /// entries keeps of its first `k`.
    fn top_entries(&self, query: &SparseVector, k: usize) -> (Vec<(usize, f64)>, Priced<'_>) {
        let mut dots = vec![0.0f64; self.entries.len()];
        let signatures = self.project_all(query, |c, qv| self.columns[c].scatter(qv, &mut dots));
        let priced = Priced {
            dots,
            q_norm_sq: query.norm_sq(),
            norms_sq: &self.norms_sq,
        };
        if self.is_empty() || k == 0 {
            return (Vec::new(), priced);
        }
        let candidates = self.colliding(&signatures);
        let top = if candidates.len() < k {
            self.nearest_live(k, &priced)
        } else {
            // Ranked by (distance, collision position): a stable sort.
            let mut ranked: Vec<(u64, u32)> = (candidates.iter().enumerate())
                .map(|(at, &i)| (order_key(priced.distance(i)), at as u32))
                .collect();
            keep_first(&mut ranked, k);
            ranked
                .into_iter()
                .map(|(_, at)| {
                    let i = candidates[at as usize];
                    (i, priced.distance(i))
                })
                .collect()
        };
        (top, priced)
    }

    /// The first `k` live entries in `(distance, entry)` order — what a
    /// stable sort of the live entries by distance keeps of its first `k` —
    /// with their distances.
    ///
    /// The `k`-th distance is not discovered entry by entry. A stride sample
    /// of the live entries' squared distances guesses a threshold a little
    /// above the `k`-th one (the sample rank the `k`-th entry is expected
    /// at, plus two deviations); one pass keeps the live entries at or under
    /// it (widening the guess in the rare case that keeps fewer than `k`),
    /// and only the first `k` of those are sorted by `(distance, entry)`.
    /// Square roots are monotone, so a left-out entry, whose squared
    /// distance exceeds the threshold `t²`, lies at `d ≥ t`: unless `t`
    /// reaches the `k`-th kept distance, nothing left out can enter or tie
    /// into the first `k`. When it does, the entries that could are added
    /// before the cut.
    fn nearest_live(&self, k: usize, priced: &Priced<'_>) -> Vec<(usize, f64)> {
        const DEAD: u64 = u64::MAX;
        let keys: Vec<u64> = (priced.distances_sq().zip(&self.live))
            .map(|(s, &live)| if live { order_key(s) } else { DEAD })
            .collect();
        let mut sample: Vec<u64> = (keys.iter().step_by(keys.len().div_ceil(SAMPLE)))
            .copied()
            .filter(|&key| key != DEAD)
            .collect();
        // The sample rank of the `k`-th entry, plus twice its deviation.
        let expected = k * sample.len() / self.num_live;
        let mut rank = expected + 2 * (expected as f64).sqrt() as usize + 2;
        let ranked = |i: usize| (order_key(priced.distance(i)), i as u32);
        let (threshold, mut kept) = loop {
            // Dead entries, keyed `DEAD`, stay above every threshold.
            let threshold = if rank < sample.len() {
                *sample.select_nth_unstable(rank).1
            } else {
                DEAD - 1
            };
            let kept: Vec<(u64, u32)> = (keys.iter().enumerate())
                .filter(|&(_, &key)| key <= threshold)
                .map(|(i, _)| ranked(i))
                .collect();
            if kept.len() >= k || threshold == DEAD - 1 {
                break (threshold, kept);
            }
            rank = 2 * rank + 1;
        };
        let left_out = kept.len() < self.num_live;
        keep_first(&mut kept, k);
        let reachable = order_key(f64::from_bits(threshold).sqrt());
        if left_out && reachable <= kept[k - 1].0 {
            let cut = kept[k - 1].0;
            kept.extend(
                (keys.iter().enumerate())
                    .filter(|&(_, &key)| key > threshold && key != DEAD)
                    .map(|(i, _)| ranked(i))
                    .filter(|&(key, _)| key <= cut),
            );
            keep_first(&mut kept, k);
        }
        kept.into_iter()
            .map(|(_, i)| (i as usize, priced.distance(i as usize)))
            .collect()
    }

    /// Exact (brute force) top-k query, for testing recall.
    #[cfg(test)]
    pub fn query_exact(&self, query: &SparseVector, k: usize) -> Vec<(&T, f64)> {
        let mut scored: Vec<(usize, f64)> = (0..self.entries.len())
            .filter(|&i| self.live[i])
            .map(|i| (i, self.entries[i].0.distance(query)))
            .collect();
        scored.sort_by(|a, b| by_distance_ascending(a.1, b.1));
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
        v.iter()
            .map(|(idx, val)| {
                hyperplane_component(self.config.seed, plane_id(band, bit), idx) * val
            })
            .sum()
    }

    /// Full signature of a vector across all bands, projected from scratch
    /// without the cached rows (useful for diagnostics, and the reference
    /// the indexed signatures are tested against).
    pub fn signature(&self, v: &SparseVector) -> Vec<u64> {
        (0..self.config.num_bands)
            .map(|b| self.band_signature(v, b))
            .collect()
    }
}

/// The id of hyperplane `(band, bit)` in the component mix.
fn plane_id(band: usize, bit: usize) -> u64 {
    (band as u64) << 32 | bit as u64
}

/// `feature`'s component on every hyperplane of `config`, band-major: the
/// row [`LshIndex`] caches per key feature.
fn hyperplane_row(config: &LshConfig, feature: u32) -> impl Iterator<Item = f64> {
    let (seed, bits) = (config.seed, config.bits_per_band);
    (0..config.num_bands * bits)
        .map(move |j| hyperplane_component(seed, plane_id(j / bits, j % bits), feature))
}

/// Deterministic pseudo-random hyperplane component in [-1, 1], derived from
/// (seed, hyperplane id, feature index) via a 64-bit finalizer (splitmix64).
/// The upper end is reachable: `z as f64` rounds every `z > u64::MAX − 2¹⁰`
/// to `u64::MAX as f64`, which maps to exactly 1.0.
fn hyperplane_component(seed: u64, plane_id: u64, feature: u32) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(plane_id)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(feature as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Map to [-1, 1].
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::wild;
    use proptest::prelude::*;
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
        // Compaction bounds the backing store: dead entries never exceed an
        // eighth of the live ones.
        assert_dead_share_bounded(&idx);
        // Queries still see exactly the live set.
        let hits = idx.query_exact(&SparseVector::from_pairs([(0, 3.0)]), 8);
        assert_eq!(hits.len(), 8);
    }

    /// The compaction invariant: at most an eighth as many dead entries as
    /// live ones, and the postings and band tables hold exactly the entries
    /// the entry store holds.
    fn assert_dead_share_bounded<T: Clone + Eq + Hash>(idx: &LshIndex<T>) {
        let dead = idx.entries.len() - idx.len();
        assert!(
            dead <= idx.len() / 8,
            "{dead} dead entries for {} live",
            idx.len()
        );
        assert_eq!(idx.live.iter().filter(|&&l| l).count(), idx.len());
        let postings: usize = idx.columns.iter().map(|c| c.entries.len()).sum();
        let nonzeros: usize = idx.entries.iter().map(|(key, _)| key.nnz()).sum();
        assert_eq!(postings, nonzeros, "postings hold a compacted entry");
        assert_columns_are_carried(idx);
        for table in &idx.tables {
            let filed: usize = table.values().map(Vec::len).sum();
            assert_eq!(
                filed,
                idx.entries.len(),
                "a band table holds a compacted entry"
            );
        }
    }

    /// Every column has postings, its feature's lookup names it, its row is
    /// the feature's hyperplane row, and every key feature has a column.
    fn assert_columns_are_carried<T: Clone + Eq + Hash>(idx: &LshIndex<T>) {
        let width = idx.config.num_bands * idx.config.bits_per_band;
        assert_eq!(idx.rows.len(), idx.columns.len() * width);
        for (c, column) in idx.columns.iter().enumerate() {
            assert!(!column.entries.is_empty(), "column {c} has no postings");
            assert_eq!(idx.column(column.feature), Some(c));
            let row: Vec<u64> = hyperplane_row(&idx.config, column.feature)
                .map(f64::to_bits)
                .collect();
            let cached: Vec<u64> = idx.rows[c * width..(c + 1) * width]
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(cached, row, "column {c}'s row");
        }
        let looked_up = idx.column_of.iter().filter(|&&c| c != NO_COLUMN).count();
        assert_eq!(looked_up + idx.far_columns.len(), idx.columns.len());
        for (key, _) in &idx.entries {
            for (feature, _) in key.iter() {
                assert!(idx.column(feature).is_some(), "feature {feature}");
            }
        }
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
            assert_dead_share_bounded(&idx);
            model.retain(|(_, i)| *i != item);
            for _ in 0..3 {
                let key = random_vec(&mut rng, 60, 10);
                idx.insert(key.clone(), item);
                model.push((key, item));
            }
        }
        // 120 live entries allow 15 dead, five retirements' worth.
        assert!(compactions >= 60, "compaction exercised: {compactions}");
        assert_eq!(idx.retire(&1_000), 0, "unknown items retire nothing");
        let mut fresh = LshIndex::new(LshConfig::default());
        for (key, item) in &model {
            fresh.insert(key.clone(), *item);
        }
        assert_eq!(idx.len(), fresh.len());
        for _ in 0..25 {
            let q = random_vec(&mut rng, 60, 10);
            for k in [1, 7, 36, 200] {
                assert_eq!(bits(idx.query(&q, k)), bits(fresh.query(&q, k)));
                assert_eq!(
                    bits(idx.nearest_items(&q, k)),
                    bits(fresh.nearest_items(&q, k))
                );
                assert_batched_matches_scalar(&idx, &q, k);
                assert_eq!(bits(idx.query_exact(&q, k)), bits(fresh.query_exact(&q, k)));
            }
        }
    }

    #[test]
    fn fallback_admits_a_left_out_entry_that_ties_the_kth_distance() {
        // Two keys whose squared distances to the empty query differ by one
        // ulp while their distances round to the same value.
        let near = SparseVector::from_pairs([(0, 1.0), (1, f64::from_bits(0x3FE6_6666_6666_6669))]);
        let tied = SparseVector::from_pairs([(0, 1.0), (1, f64::from_bits(0x3FE6_6666_6666_666A))]);
        assert!(near.norm_sq() < tied.norm_sq());
        assert_eq!(near.norm_sq().sqrt(), tied.norm_sq().sqrt());
        let mut idx = LshIndex::new(LshConfig {
            bits_per_band: 24,
            num_bands: 2,
            seed: 13,
        });
        // The tied key comes first in entry order, so it wins the tie, though
        // the sampled threshold (the near keys' squared distance) leaves it
        // out of the first pass.
        idx.insert(tied, 0u32);
        for item in 1..300 {
            idx.insert(near.clone(), item);
        }
        let query = SparseVector::new();
        for k in [1, 2, 5] {
            assert!(idx.candidates(&query).len() < k, "k = {k} must scan");
            assert_batched_matches_scalar(&idx, &query, k);
            assert_eq!(*idx.query_batched(&query, k)[0].0, 0);
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

    /// Hits as comparable bits.
    fn bits<T: Clone>(hits: Vec<(&T, f64)>) -> Vec<(T, u64)> {
        hits.into_iter()
            .map(|(i, d)| (i.clone(), d.to_bits()))
            .collect()
    }

    /// The composition [`LshIndex::nearest_items`] replaces: the scalar
    /// query's hits de-duplicated in hit order, each item at the `f64::min`
    /// fold of `SparseVector::distance` over its live keys in entry order.
    fn nearest_items_oracle<T: Clone + Eq + Hash>(
        idx: &LshIndex<T>,
        q: &SparseVector,
        k: usize,
    ) -> Vec<(T, u64)> {
        let mut out: Vec<(T, u64)> = Vec::new();
        for (item, _) in idx.query(q, k) {
            if out.iter().any(|(seen, _)| seen == item) {
                continue;
            }
            let d = (0..idx.entries.len())
                .filter(|&i| idx.live[i] && idx.entries[i].1 == *item)
                .map(|i| idx.entries[i].0.distance(q))
                .fold(f64::INFINITY, f64::min);
            out.push((item.clone(), d.to_bits()));
        }
        out
    }

    /// Both batched entry points against their scalar compositions.
    fn assert_batched_matches_scalar<T: Clone + Eq + Hash + std::fmt::Debug>(
        idx: &LshIndex<T>,
        q: &SparseVector,
        k: usize,
    ) {
        assert_eq!(
            bits(idx.query_batched(q, k)),
            bits(idx.query(q, k)),
            "k = {k}"
        );
        assert_eq!(
            bits(idx.nearest_items(q, k)),
            nearest_items_oracle(idx, q, k),
            "k = {k}"
        );
    }

    #[test]
    fn batched_query_is_identical_to_scalar_query() {
        let mut rng = StdRng::seed_from_u64(9);
        // Small bucket width forces both the candidate path and (with large k)
        // the full-scan fallback to be exercised. Three keys per item, so
        // item distances fold over keys outside the top k.
        let mut idx = LshIndex::new(LshConfig::default());
        let keys: Vec<SparseVector> = (0..150).map(|_| random_vec(&mut rng, 60, 12)).collect();
        for (i, v) in keys.iter().enumerate() {
            idx.insert(v.clone(), i / 3);
        }
        let (mut candidate, mut fallback) = (0, 0);
        for _ in 0..30 {
            let q = random_vec(&mut rng, 60, 10);
            for k in [1, 5, 40, 200] {
                if idx.candidates(&q).len() < k {
                    fallback += 1;
                } else {
                    candidate += 1;
                }
                assert_batched_matches_scalar(&idx, &q, k);
            }
        }
        assert!(candidate > 0 && fallback > 0, "{candidate} / {fallback}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn nearest_items_is_the_deduplicated_scalar_query(
            ops in prop::collection::vec((0u32..10, wild::vector(16), 0u8..6), 0..90),
            queries in prop::collection::vec(wild::vector(16), 0..4),
            k in 1usize..40,
            bands in 1usize..4,
        ) {
            // Narrow bands collide often, so both the candidate path and the
            // fallback are taken across cases.
            let mut idx = LshIndex::new(LshConfig {
                bits_per_band: 3,
                num_bands: bands,
                seed: 11,
            });
            for (item, key, op) in ops {
                match op {
                    // Retires tombstone entries, and compact once the dead
                    // exceed an eighth of the live.
                    0 | 1 => {
                        idx.retire(&item);
                        assert_dead_share_bounded(&idx);
                    }
                    // Equal keys under different items: distance ties.
                    2 => {
                        idx.insert(key.clone(), item);
                        idx.insert(key, (item + 1) % 10);
                    }
                    _ => idx.insert(key, item),
                }
            }
            let empty = SparseVector::new();
            let unseen = SparseVector::from_pairs([(1_000, 1.0), (1_001, -2.0)]);
            for q in queries.iter().chain([&empty, &unseen]) {
                for k in [k, 1, 36] {
                    assert_batched_matches_scalar(&idx, q, k);
                }
            }
        }

        #[test]
        fn indexed_signatures_equal_the_from_scratch_ones(
            keys in prop::collection::vec(wild::vector(40), 0..12),
            queries in prop::collection::vec(wild::vector(80), 0..6),
            bits in 1usize..65,
            bands in 1usize..5,
            far in 0u8..2,
        ) {
            let mut idx = LshIndex::new(LshConfig {
                bits_per_band: bits,
                num_bands: bands,
                seed: 5,
            });
            // Keys at or past the dense column table, as a hostile frame's.
            let beyond = |v: &SparseVector| {
                SparseVector::from_pairs(
                    v.iter().map(|(f, x)| (f + SCATTER_LIMIT as u32 - 20, x)),
                )
            };
            for (item, key) in keys.iter().enumerate() {
                let key = if far == 1 { beyond(key) } else { key.clone() };
                idx.insert(key.clone(), item);
                // A key's own signature is projected through the rows it
                // just opened.
                prop_assert_eq!(idx.project_all(&key, |_, _| {}), idx.signature(&key));
            }
            // Queries share some features with the keys and carry others no
            // key holds, which are projected on the fly. Retiring half the
            // keys compacts away the columns only they carried, and their
            // features are then projected on the fly too.
            let empty = SparseVector::new();
            for round in 0..2 {
                if round == 1 {
                    for item in (0..keys.len()).step_by(2) {
                        idx.retire(&item);
                    }
                    assert_dead_share_bounded(&idx);
                }
                for q in queries.iter().chain(&keys).chain([&empty]) {
                    let q = if far == 1 { beyond(q) } else { q.clone() };
                    prop_assert_eq!(idx.project_all(&q, |_, _| {}), idx.signature(&q));
                }
            }
        }
    }

    #[test]
    fn fallback_keeps_the_lowest_entries_among_ties_at_the_kth_distance() {
        // Wide bands: almost nothing collides, so every query scans.
        let mut idx = LshIndex::new(LshConfig {
            bits_per_band: 24,
            num_bands: 2,
            seed: 13,
        });
        let query = SparseVector::from_pairs([(0, 1.0)]);
        // Entry order interleaves five groups, each key on a feature of its
        // own so that hardly any collides with the query: keys at distance
        // √2 (the ties), nearer keys at √1.25, NaN keys (priced at distance
        // 0), farther keys at √5, and infinite keys (+∞).
        let tie = f64::sqrt(2.0);
        let group = |i: u32| i % 6;
        let mut near = 0;
        for i in 0..120u32 {
            let own = 10 + i;
            let key = match group(i) {
                0 | 3 => SparseVector::from_pairs([(own, 1.0)]),
                1 => SparseVector::from_pairs([(0, 1.5), (own, 1.0)]),
                2 => SparseVector::from_pairs([(own, 2.0)]),
                4 if i % 12 == 4 => SparseVector::from_pairs([(own, f64::INFINITY)]),
                4 => SparseVector::from_pairs([(own, f64::NAN)]),
                _ => SparseVector::from_pairs([(own, 2.0)]),
            };
            near += usize::from(group(i) == 1 || i % 12 == 10);
            idx.insert(key, i);
        }
        for k in [near + 1, near + 7, near + 30, 200] {
            assert!(idx.candidates(&query).len() < k, "k = {k} must scan");
            assert_batched_matches_scalar(&idx, &query, k);
            let hits = idx.query_batched(&query, k);
            assert_eq!(hits.len(), k.min(idx.len()));
            if k < 200 {
                // Every nearer entry, then the lowest-numbered ties.
                let ties: Vec<u32> = hits
                    .iter()
                    .filter(|(_, d)| *d == tie)
                    .map(|(&item, _)| item)
                    .collect();
                let expected: Vec<u32> = (0..120u32)
                    .filter(|&i| group(i) == 0 || group(i) == 3)
                    .take(k - near)
                    .collect();
                assert_eq!(ties, expected, "k = {k}");
            } else {
                // Everything, the infinite keys last in entry order.
                let infinite: Vec<u32> = hits
                    .iter()
                    .filter(|(_, d)| d.is_infinite())
                    .map(|(&item, _)| item)
                    .collect();
                let expected: Vec<u32> = (0..120u32).filter(|i| i % 12 == 4).collect();
                assert_eq!(infinite, expected);
                assert_eq!(hits.last().map(|(_, d)| *d), Some(f64::INFINITY));
            }
        }
        // Ties spread over a retired item's old entries and the compaction
        // that drops them.
        for i in (0..120u32).step_by(5) {
            idx.retire(&i);
        }
        for k in [1, 9, 40, 200] {
            assert_batched_matches_scalar(&idx, &query, k);
        }
    }

    #[test]
    fn queries_over_nan_valued_keys_return_in_one_order() {
        let mut idx = LshIndex::new(LshConfig::default());
        let query = SparseVector::from_pairs([(0, 1.0), (1, 0.5)]);
        // NaN on a feature of the key's own, NaN on a query feature, a NaN
        // key equal to nothing, infinite keys and finite keys, interleaved.
        for i in 0..60u32 {
            let own = 10 + i;
            let key = match i % 6 {
                0 => SparseVector::from_pairs([(own, f64::NAN)]),
                1 => SparseVector::from_pairs([(0, f64::NAN), (own, 1.0)]),
                2 => SparseVector::from_pairs([(0, 1.0), (1, 0.5)]),
                3 => SparseVector::from_pairs([(own, f64::INFINITY)]),
                4 => SparseVector::from_pairs([(0, f64::NAN), (1, f64::NAN)]),
                _ => SparseVector::from_pairs([(0, 0.5), (own, f64::from(i) / 10.0)]),
            };
            idx.insert(key, i);
        }
        for k in [1, 5, 17, 40, 60, 100] {
            let exact = idx.query_exact(&query, k);
            assert_eq!(exact.len(), k.min(idx.len()));
            for hits in [idx.query(&query, k), exact] {
                assert!(hits
                    .windows(2)
                    .all(|w| by_distance_ascending(w[0].1, w[1].1).is_le()));
                // `SparseVector::distance` clamps a NaN squared distance at
                // zero, so a NaN-valued key is priced at distance 0: no NaN
                // reaches the sort, and such keys tie with the exact match.
                for (&item, d) in &hits {
                    if matches!(item % 6, 0 | 1 | 4) {
                        assert_eq!(d.to_bits(), 0.0f64.to_bits(), "item {item}");
                    }
                }
            }
            assert_batched_matches_scalar(&idx, &query, k);
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
