//! K-means clustering of sparse document vectors.
//!
//! PACE peers "perform clustering on the training data" and propagate the
//! cluster centroids together with their linear model; the centroids act as a
//! compact sketch of the local data distribution that other peers use to decide
//! which models are relevant for a given test document.
//!
//! # Cost
//!
//! A fit pays for the points' nonzeros, not for the vocabulary or for the
//! centroids' (far longer) nonzero lists. Every `‖p‖²` is computed once per
//! fit and every `‖c‖²` once per centroid update. Each centroid sits in a
//! per-thread dense value table with a presence bitset, so `c·p` walks `p`'s
//! nonzeros in ascending order and adds `c_j · p_j` wherever `c` holds `j`:
//! the terms, order and operands of [`SparseVector::dot`]'s merge-join, from
//! `+0.0`. The distance is then finished through
//! [`SparseVector::distance_sq`]'s own expression. A new mean is built in one
//! pass over a dense accumulator with a presence bitset: `1.0·v` on a
//! feature's first sighting, `acc + 1.0·v` after it, and the entry dropped
//! when it becomes exactly `0.0`, as [`SparseVector::add`] prunes. It is read
//! back in ascending order and scaled by `1/n`, which gives the bits of
//! adding the members one by one with `add` and scaling the sum. k-means++
//! keeps each point's distance to its nearest chosen seed and folds in only
//! the newest seed.
//!
//! The tables grow to the largest feature this thread has clustered, and
//! each call clears only the entries it set. An index at or past 2²⁰, which
//! no vocabulary reaches, is looked up by binary search in the centroid and
//! accumulated in a sorted list of the call's own, so no index sizes an
//! allocation.

use crate::kernel::below_limit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use textproc::SparseVector;

/// K-means configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters `k` (clamped to the number of points).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence threshold on total centroid movement.
    pub tol: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 4,
            max_iter: 50,
            tol: 1e-6,
            seed: 17,
        }
    }
}

/// Result of running k-means: centroids and point assignments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeans {
    centroids: Vec<SparseVector>,
    assignments: Vec<usize>,
    inertia: f64,
}

thread_local! {
    /// [`KMeans::fit`]'s workspace. Every presence bit is clear between
    /// calls; the values behind clear bits are stale and never read.
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

#[derive(Default)]
struct Workspace {
    /// One table per centroid slot, holding that slot's centroid.
    centroids: Vec<Table>,
    /// The mean being built.
    mean: Accumulator,
}

/// Dense values over the features below 2²⁰, with a presence bitset.
#[derive(Default)]
struct Table {
    values: Vec<f64>,
    present: Vec<u64>,
}

impl Table {
    fn reserve(&mut self, width: usize) {
        if self.values.len() < width {
            self.values.resize(width, 0.0);
            self.present.resize(width.div_ceil(64), 0);
        }
    }

    #[inline]
    fn get(&self, j: usize) -> Option<f64> {
        (self.present[j / 64] >> (j % 64) & 1 != 0).then(|| self.values[j])
    }

    fn load(&mut self, v: &SparseVector) {
        for (&j, &x) in below_limit(v).iter().zip(v.values()) {
            let j = j as usize;
            self.values[j] = x;
            self.present[j / 64] |= 1 << (j % 64);
        }
    }

    fn unload(&mut self, v: &SparseVector) {
        for &j in below_limit(v) {
            let j = j as usize;
            self.present[j / 64] &= !(1 << (j % 64));
        }
    }

    /// `c·x` for the centroid `c` this table holds: `x`'s nonzeros in
    /// ascending order, `c_j · x_j` added wherever `c` holds `j`.
    fn dot(&self, c: &SparseVector, x: &SparseVector) -> f64 {
        let (xi, xv) = (x.indices(), x.values());
        let split = below_limit(x).len();
        let mut sum = 0.0;
        for (&j, &v) in xi[..split].iter().zip(xv) {
            if let Some(cj) = self.get(j as usize) {
                sum += cj * v;
            }
        }
        for (&j, &v) in xi[split..].iter().zip(&xv[split..]) {
            if let Ok(pos) = c.indices().binary_search(&j) {
                let cj = c.values()[pos];
                sum += cj * v;
            }
        }
        sum
    }
}

/// A mean's running sums: a table for the features below 2²⁰ and the
/// ascending pairs it is read back into.
#[derive(Default)]
struct Accumulator {
    sums: Table,
    pairs: Vec<(u32, f64)>,
}

impl Accumulator {
    /// The mean of `members`: bit for bit the sum `acc = acc.add(member)`
    /// over the members in order, scaled by `1/n`.
    fn mean<'a>(&mut self, members: impl Iterator<Item = &'a SparseVector>) -> SparseVector {
        let sums = &mut self.sums;
        // Running sums past the table, ascending.
        let mut beyond: Vec<(u32, f64)> = Vec::new();
        // The words of `sums.present` this call may have set.
        let (mut lo, mut hi) = (usize::MAX, 0);
        let mut n = 0usize;
        for x in members {
            n += 1;
            let below = below_limit(x);
            if let (Some(&first), Some(&last)) = (below.first(), below.last()) {
                lo = lo.min(first as usize / 64);
                hi = hi.max(last as usize / 64);
            }
            for (&j, &v) in below.iter().zip(x.values()) {
                let j = j as usize;
                let (word, bit) = (j / 64, 1u64 << (j % 64));
                let sum = if sums.present[word] & bit != 0 {
                    let acc = sums.values[j];
                    acc + 1.0 * v
                } else {
                    1.0 * v
                };
                if sum == 0.0 {
                    sums.present[word] &= !bit;
                } else {
                    sums.values[j] = sum;
                    sums.present[word] |= bit;
                }
            }
            let (xi, xv) = (x.indices(), x.values());
            for (&j, &v) in xi[below.len()..].iter().zip(&xv[below.len()..]) {
                match beyond.binary_search_by_key(&j, |&(f, _)| f) {
                    Ok(pos) => {
                        let acc = beyond[pos].1;
                        let sum = acc + 1.0 * v;
                        if sum == 0.0 {
                            beyond.remove(pos);
                        } else {
                            beyond[pos].1 = sum;
                        }
                    }
                    Err(pos) => {
                        let sum = 1.0 * v;
                        if sum != 0.0 {
                            beyond.insert(pos, (j, sum));
                        }
                    }
                }
            }
        }
        // Read back ascending, clearing every bit on the way.
        for word in lo..hi.saturating_add(1) {
            let mut bits = std::mem::take(&mut sums.present[word]);
            while bits != 0 {
                let j = word * 64 + bits.trailing_zeros() as usize;
                self.pairs.push((j as u32, sums.values[j]));
                bits &= bits - 1;
            }
        }
        self.pairs.append(&mut beyond);
        let mut mean = SparseVector::from_sorted_pairs(self.pairs.drain(..));
        if n > 0 {
            mean.scale(1.0 / n as f64);
        }
        mean
    }
}

/// A fit's centroids with their squared norms, centroid `c` held in
/// `tables[c]`.
struct Centroids<'w> {
    vectors: Vec<SparseVector>,
    norms_sq: Vec<f64>,
    tables: &'w mut [Table],
}

impl Centroids<'_> {
    fn push(&mut self, c: SparseVector, norm_sq: f64) {
        self.tables[self.vectors.len()].load(&c);
        self.vectors.push(c);
        self.norms_sq.push(norm_sq);
    }

    /// `‖c − x‖²` through [`SparseVector::distance_sq`]'s expression.
    fn distance_sq(&self, c: usize, x: &SparseVector, x_norm_sq: f64) -> f64 {
        self.norms_sq[c] + x_norm_sq - 2.0 * self.tables[c].dot(&self.vectors[c], x)
    }

    /// The first nearest centroid and its squared distance.
    fn nearest(&self, x: &SparseVector, x_norm_sq: f64) -> (usize, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for c in 0..self.vectors.len() {
            let d = self.distance_sq(c, x, x_norm_sq);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }

    /// Moves centroid `c` to `to`; returns [`SparseVector::distance`] moved.
    fn replace(&mut self, c: usize, to: SparseVector) -> f64 {
        let to_norm_sq = to.norm_sq();
        let moved = self.distance_sq(c, &to, to_norm_sq).max(0.0).sqrt();
        self.tables[c].unload(&self.vectors[c]);
        self.tables[c].load(&to);
        self.vectors[c] = to;
        self.norms_sq[c] = to_norm_sq;
        moved
    }

    /// Clears the tables and hands the centroids over.
    fn finish(self) -> Vec<SparseVector> {
        for (table, c) in self.tables.iter_mut().zip(&self.vectors) {
            table.unload(c);
        }
        self.vectors
    }
}

impl KMeans {
    /// Runs k-means++ initialization followed by Lloyd's algorithm.
    ///
    /// # Panics
    /// Panics if `points` is empty or `config.k == 0`.
    pub fn fit(points: &[SparseVector], config: &KMeansConfig) -> Self {
        assert!(!points.is_empty(), "cannot cluster an empty set");
        assert!(config.k > 0, "k must be positive");
        let k = config.k.min(points.len());
        let width = points
            .iter()
            .filter_map(|p| below_limit(p).last())
            .max()
            .map_or(0, |&j| j as usize + 1);
        WORKSPACE.with(|workspace| {
            let Workspace {
                centroids: tables,
                mean,
            } = &mut *workspace.borrow_mut();
            if tables.len() < k {
                tables.resize_with(k, Table::default);
            }
            for table in &mut tables[..k] {
                table.reserve(width);
            }
            mean.sums.reserve(width);
            let mut centroids = Centroids {
                vectors: Vec::with_capacity(k),
                norms_sq: Vec::with_capacity(k),
                tables: &mut tables[..k],
            };
            let norms_sq: Vec<f64> = points.iter().map(SparseVector::norm_sq).collect();
            let mut rng = StdRng::seed_from_u64(config.seed);
            Self::kmeanspp_init(points, &norms_sq, k, &mut rng, &mut centroids);
            let mut assignments = vec![0usize; points.len()];
            let mut inertia = f64::INFINITY;

            for _ in 0..config.max_iter {
                // Assignment step.
                let mut new_inertia = 0.0;
                for ((p, &p_norm_sq), a) in points.iter().zip(&norms_sq).zip(&mut assignments) {
                    let (best, dist) = centroids.nearest(p, p_norm_sq);
                    *a = best;
                    new_inertia += dist;
                }
                // Update step; an empty cluster keeps its old centroid.
                let mut movement = 0.0;
                for c in 0..k {
                    if assignments.iter().all(|&a| a != c) {
                        continue;
                    }
                    let members = points
                        .iter()
                        .zip(&assignments)
                        .filter(|&(_, &a)| a == c)
                        .map(|(p, _)| p);
                    movement += centroids.replace(c, mean.mean(members));
                }
                inertia = new_inertia;
                if movement < config.tol {
                    break;
                }
            }
            Self {
                centroids: centroids.finish(),
                assignments,
                inertia,
            }
        })
    }

    /// k-means++ seeding. `d2[i]` is point `i`'s squared distance to its
    /// nearest seed so far, folded over the seeds in the order they were
    /// chosen.
    fn kmeanspp_init(
        points: &[SparseVector],
        norms_sq: &[f64],
        k: usize,
        rng: &mut StdRng,
        centroids: &mut Centroids<'_>,
    ) {
        let first = rng.gen_range(0..points.len());
        centroids.push(points[first].clone(), norms_sq[first]);
        let mut d2 = vec![f64::INFINITY; points.len()];
        while centroids.vectors.len() < k {
            let newest = centroids.vectors.len() - 1;
            for ((p, &p_norm_sq), d) in points.iter().zip(norms_sq).zip(&mut d2) {
                let dist = centroids.distance_sq(newest, p, p_norm_sq);
                if dist < *d {
                    *d = dist;
                }
            }
            let total: f64 = d2.iter().sum();
            if total <= f64::EPSILON {
                // All remaining points coincide with existing centroids.
                let i = rng.gen_range(0..points.len());
                centroids.push(points[i].clone(), norms_sq[i]);
                continue;
            }
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            centroids.push(points[chosen].clone(), norms_sq[chosen]);
        }
    }

    fn nearest(centroids: &[SparseVector], p: &SparseVector) -> (usize, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = c.distance_sq(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        (best, best_d)
    }

    /// The cluster centroids.
    pub fn centroids(&self) -> &[SparseVector] {
        &self.centroids
    }

    /// Cluster index assigned to each input point (same order as the input).
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Sum of squared distances of points to their assigned centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Index of the centroid nearest to `x`.
    pub fn predict(&self, x: &SparseVector) -> usize {
        Self::nearest(&self.centroids, x).0
    }
}

/// The fit [`KMeans::fit`] replaced, kept as its oracle: every distance
/// recomputes both norms and merge-joins the dot product, every mean is one
/// allocating `add` per member, and k-means++ recomputes each point's
/// nearest seed over all seeds every round.
#[cfg(test)]
mod oracle {
    use super::KMeans;
    use super::KMeansConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use textproc::SparseVector;

    pub(super) fn fit(points: &[SparseVector], config: &KMeansConfig) -> KMeans {
        assert!(!points.is_empty(), "cannot cluster an empty set");
        assert!(config.k > 0, "k must be positive");
        let k = config.k.min(points.len());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = kmeanspp_init(points, k, &mut rng);
        let mut assignments = vec![0usize; points.len()];
        let mut inertia = f64::INFINITY;

        for _ in 0..config.max_iter {
            let mut new_inertia = 0.0;
            for (i, p) in points.iter().enumerate() {
                let (best, dist) = KMeans::nearest(&centroids, p);
                assignments[i] = best;
                new_inertia += dist;
            }
            let mut movement = 0.0;
            for (c, centroid) in centroids.iter_mut().enumerate() {
                let members = points
                    .iter()
                    .zip(&assignments)
                    .filter(|&(_, &a)| a == c)
                    .map(|(p, _)| p);
                if assignments.iter().all(|&a| a != c) {
                    continue;
                }
                let mut new_centroid = SparseVector::new();
                let mut n = 0usize;
                for p in members {
                    new_centroid = new_centroid.add(p);
                    n += 1;
                }
                new_centroid.scale(1.0 / n as f64);
                movement += centroid.distance(&new_centroid);
                *centroid = new_centroid;
            }
            inertia = new_inertia;
            if movement < config.tol {
                break;
            }
        }
        KMeans {
            centroids,
            assignments,
            inertia,
        }
    }

    fn kmeanspp_init(points: &[SparseVector], k: usize, rng: &mut StdRng) -> Vec<SparseVector> {
        let mut centroids = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..points.len())].clone());
        while centroids.len() < k {
            let d2: Vec<f64> = points
                .iter()
                .map(|p| KMeans::nearest(&centroids, p).1)
                .collect();
            let total: f64 = d2.iter().sum();
            if total <= f64::EPSILON {
                centroids.push(points[rng.gen_range(0..points.len())].clone());
                continue;
            }
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            centroids.push(points[chosen].clone());
        }
        centroids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blob(center: (f64, f64), n: usize, seed: u64) -> Vec<SparseVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                SparseVector::from_pairs([
                    (0, center.0 + rng.gen_range(-0.2..0.2)),
                    (1, center.1 + rng.gen_range(-0.2..0.2)),
                ])
            })
            .collect()
    }

    #[test]
    fn separates_two_well_separated_blobs() {
        let mut pts = blob((5.0, 5.0), 30, 1);
        pts.extend(blob((-5.0, -5.0), 30, 2));
        let km = KMeans::fit(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        // All points of each blob must share a cluster.
        let first = km.assignments()[0];
        assert!(km.assignments()[..30].iter().all(|&a| a == first));
        let second = km.assignments()[30];
        assert!(km.assignments()[30..].iter().all(|&a| a == second));
        assert_ne!(first, second);
    }

    #[test]
    fn k_clamped_to_number_of_points() {
        let pts = blob((0.0, 0.0), 3, 3);
        let km = KMeans::fit(
            &pts,
            &KMeansConfig {
                k: 10,
                ..Default::default()
            },
        );
        assert_eq!(km.centroids().len(), 3);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut pts = blob((5.0, 5.0), 20, 4);
        pts.extend(blob((-5.0, -5.0), 20, 5));
        pts.extend(blob((5.0, -5.0), 20, 6));
        let one = KMeans::fit(
            &pts,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            },
        );
        let three = KMeans::fit(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        );
        assert!(three.inertia() < one.inertia());
    }

    #[test]
    fn predict_assigns_to_nearest_centroid() {
        let mut pts = blob((5.0, 5.0), 20, 7);
        pts.extend(blob((-5.0, -5.0), 20, 8));
        let km = KMeans::fit(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        let near_first = SparseVector::from_pairs([(0, 4.9), (1, 5.1)]);
        assert_eq!(km.predict(&near_first), km.assignments()[0]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = blob((1.0, 1.0), 25, 9);
        let a = KMeans::fit(&pts, &KMeansConfig::default());
        let b = KMeans::fit(&pts, &KMeansConfig::default());
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn identical_points_do_not_panic() {
        let pts = vec![SparseVector::from_pairs([(0, 1.0)]); 5];
        let km = KMeans::fit(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        );
        assert_eq!(km.centroids().len(), 3);
        assert!(km.inertia() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        KMeans::fit(&[], &KMeansConfig::default());
    }

    /// `v`'s bits; an optimized build reads every NaN as the one NaN (Rust
    /// leaves unspecified which NaN an operation on two NaNs returns, and an
    /// optimizer may order such operands differently in the two paths).
    fn value_bits(v: f64) -> u64 {
        if v.is_nan() && cfg!(not(debug_assertions)) {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// `got` equals `want` in every assignment and in the bits of every
    /// centroid entry and of the inertia.
    fn assert_same_fit(got: &KMeans, want: &KMeans) {
        assert_eq!(got.assignments(), want.assignments());
        assert_eq!(value_bits(got.inertia()), value_bits(want.inertia()));
        assert_eq!(got.centroids().len(), want.centroids().len());
        for (g, w) in got.centroids().iter().zip(want.centroids()) {
            assert_eq!(g.indices(), w.indices());
            let bits = |v: &SparseVector| {
                v.values()
                    .iter()
                    .map(|&x| value_bits(x))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(g), bits(w));
        }
    }

    fn assert_fit_equals_oracle(points: &[SparseVector], config: &KMeansConfig) {
        assert_same_fit(&KMeans::fit(points, config), &oracle::fit(points, config));
    }

    #[test]
    fn fit_equals_the_oracle_on_blobs() {
        let mut pts = blob((5.0, 5.0), 20, 11);
        pts.extend(blob((-5.0, -5.0), 20, 12));
        pts.extend(blob((5.0, -5.0), 20, 13));
        for k in 1..=5 {
            for seed in 0..4 {
                let config = KMeansConfig {
                    k,
                    seed,
                    ..Default::default()
                };
                assert_fit_equals_oracle(&pts, &config);
            }
        }
    }

    #[test]
    fn a_mean_that_cancels_to_zero_drops_the_entry_and_restarts_it() {
        // One cluster: feature 0 sums to exactly 0.0 after two members and
        // is sighted afresh by the third; feature 1 cancels for good.
        let pts = vec![
            SparseVector::from_pairs([(0, 1.5), (1, 2.0), (3, 1.0)]),
            SparseVector::from_pairs([(0, -1.5), (1, -2.0)]),
            SparseVector::from_pairs([(0, 0.75), (3, 1.0)]),
        ];
        let config = KMeansConfig {
            k: 1,
            ..Default::default()
        };
        let km = KMeans::fit(&pts, &config);
        assert_eq!(km.centroids()[0].indices(), &[0, 3]);
        assert_fit_equals_oracle(&pts, &config);
    }

    #[test]
    fn fit_equals_the_oracle_past_two_to_the_twenty() {
        let top = u32::MAX;
        let v = |pairs: &[(u32, f64)]| SparseVector::from_pairs(pairs.iter().copied());
        let pts = vec![
            v(&[(3, 2.0), (1 << 20, 0.5), (top - 1, 1.5), (top, 1.0)]),
            v(&[((1 << 20) - 1, 1.0), (1 << 20, -0.5), (top, -1.0)]),
            v(&[(top - 2, 3.0)]),
            v(&[(3, 1.0), (top - 1, -1.5), (top, 2.0)]),
            SparseVector::new(),
            v(&[(top, -0.5)]),
            v(&[((1 << 20) - 1, 4.0)]),
        ];
        for k in 1..=pts.len() {
            for seed in 0..3 {
                let config = KMeansConfig {
                    k,
                    seed,
                    ..Default::default()
                };
                assert_fit_equals_oracle(&pts, &config);
            }
        }
    }

    /// Up to twelve points drawn with repetition from a pool of up to six
    /// vectors: wild values (NaN, ±∞, underflow), values that cancel, empty
    /// vectors, indices on both sides of 2²⁰.
    fn arb_points() -> impl Strategy<Value = Vec<SparseVector>> {
        let value = (0u8..4, crate::kernel::wild::value(), 0u8..4).prop_map(|(pick, wild, c)| {
            if pick == 0 {
                wild
            } else {
                [1.0, -1.0, 0.5, -1.5][c as usize]
            }
        });
        let index = (0u8..8, 0u32..12).prop_map(|(pick, j)| match pick {
            0 => (1 << 20) - 6 + j,
            1 => u32::MAX - j,
            _ => j,
        });
        let vector = prop::collection::vec((index, value), 0..6).prop_map(SparseVector::from_pairs);
        (
            prop::collection::vec(vector, 1..7),
            prop::collection::vec(0usize..6, 1..13),
        )
            .prop_map(|(pool, picks)| {
                picks
                    .iter()
                    .map(|&i| pool[i % pool.len()].clone())
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn fit_equals_the_oracle(points in arb_points(), k in 1usize..9, seed in 0u64..32) {
            let config = KMeansConfig { k, seed, max_iter: 12, ..Default::default() };
            assert_fit_equals_oracle(&points, &config);
        }
    }
}
