//! CSR-native linear SVM training.
//!
//! The scalar [`LinearSvmTrainer`] entry points take a `&[SparseVector]` and
//! re-derive everything per call: the problem dimension, the DCD diagonal
//! `Q_ii = x_i·x_i + 1`, the shuffled visit orders, and one fresh allocation
//! each for the weight buffer, the dual variables and the ±1 label vector.
//! Driven one-vs-all over a tag universe, all of that is recomputed once *per
//! tag* even though none of it depends on the tag: the diagonal is a property
//! of the data alone, and — because every per-tag trainer seeds its RNG with
//! the same `seed` — the pass-`p` shuffle order is **identical across tags**.
//!
//! [`CsrLinearTrainer`] hoists the tag-independent state out of the per-tag
//! loop: it borrows the dataset as a [`CsrMatrix`] (one contiguous row arena
//! instead of two heap allocations per document), computes the diagonal and
//! the feature support once (and can borrow both across parallel workers via
//! [`CsrLinearTrainer::with_shared`]), replays the identical per-pass shuffle
//! stream from a memory-bounded shared cache, and reuses one weight/dual/label
//! scratch across all fits. The solver loops stream CSR rows through the
//! bounds-check-free row kernels ([`CsrMatrix::row_dot_dense`] /
//! [`CsrMatrix::row_axpy_into`]). A fit's weights can only become nonzero
//! where a row or the warm model holds a feature, so the finished model is
//! read out of the dense scratch at the feature support (joined with the warm
//! model's nonzeros), never over the whole dimension.
//!
//! # Equivalence contract
//!
//! For every `(trainer, dataset, labels)`, [`CsrLinearTrainer::train`] and
//! [`CsrLinearTrainer::train_warm`] produce models **bit-identical** to the
//! scalar `LinearSvmTrainer::train` / `LinearSvmTrainer::train_warm` (test
//! oracles) on the same data: every floating-point operation happens in the
//! same sequence (row kernels accumulate in stored order, shared shuffle
//! orders replay the exact per-tag RNG streams, the shared diagonal holds
//! the same bits the per-call recomputation would produce). The scalar path
//! is kept untouched as the reference, compiled for tests only; the
//! property tests below and the protocol equivalence suite in `p2pclassify`
//! pin the contract.

use super::{LinearSvm, LinearSvmTrainer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;
use textproc::CsrMatrix;

/// The XOR applied to the trainer seed by the warm refit's RNG (shared with
/// the scalar oracle in `linear.rs`).
pub(crate) const WARM_SEED_XOR: u64 = 0x57A8_57A8;

/// Memory budget for one cache's retained shuffle orders. The cache keeps at
/// most `budget / (4 · n)` passes (never fewer than [`MIN_CACHED_PASSES`]),
/// so small/medium problems — where the `O(n)` shuffle is a double-digit
/// fraction of an `O(n · nnz)` solve pass — replay every pass for free,
/// while a huge corpus cannot pin `O(max_iter · n)` memory.
const ORDER_CACHE_BYTES: usize = 4 << 20;

/// Floor on the retained-pass cap (most tags converge within a few passes).
const MIN_CACHED_PASSES: usize = 8;

/// A replayable shuffle-order cache for one RNG stream: the `p`-th order of
/// every fit is the permutation the scalar solver's `order.shuffle(&mut
/// rng)` produces on its `p`-th pass — every per-tag solver seeds
/// identically, so all tags replay the same stream. The first `cap` passes
/// are materialized once and shared by every fit; a fit that runs longer
/// continues the stream through its own private tail ([`OrderStream`]),
/// keeping memory bounded by [`ORDER_CACHE_BYTES`] regardless of `max_iter`.
#[derive(Debug)]
struct OrderCache {
    rng: StdRng,
    state: Vec<u32>,
    cached: Vec<Vec<u32>>,
    cap: usize,
}

impl OrderCache {
    fn new(seed: u64, n: usize) -> Self {
        let cap = (ORDER_CACHE_BYTES / (4 * n.max(1))).max(MIN_CACHED_PASSES);
        Self::with_cap(seed, n, cap)
    }

    fn with_cap(seed: u64, n: usize, cap: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            state: (0..n as u32).collect(),
            cached: Vec::new(),
            cap,
        }
    }

    /// Starts replaying the stream from pass 0 for one fit.
    fn stream(&mut self) -> OrderStream<'_> {
        OrderStream {
            cache: self,
            pass: 0,
            tail: None,
        }
    }
}

/// One fit's cursor over the shared shuffle stream (see [`OrderCache`]).
#[derive(Debug)]
struct OrderStream<'c> {
    cache: &'c mut OrderCache,
    pass: usize,
    /// Private `(state, rng)` continuation for passes beyond the cache cap,
    /// seeded from the cache's state at the cap — so the stream stays the
    /// exact scalar RNG stream without growing the shared cache.
    tail: Option<(Vec<u32>, StdRng)>,
}

impl OrderStream<'_> {
    /// The visit order of the next pass. The Fisher–Yates swap sequence
    /// depends only on the RNG stream, not the element type, so `Vec<u32>`
    /// replays the scalar solver's `Vec<usize>` shuffles exactly.
    fn next_order(&mut self) -> &[u32] {
        let pass = self.pass;
        self.pass += 1;
        if pass < self.cache.cap {
            while self.cache.cached.len() <= pass {
                self.cache.state.shuffle(&mut self.cache.rng);
                self.cache.cached.push(self.cache.state.clone());
            }
            &self.cache.cached[pass]
        } else {
            // Sequential consumption guarantees the cache is filled to its
            // cap here, so `cache.state`/`cache.rng` hold exactly the
            // post-cap stream position this fit must continue from.
            let tail = self
                .tail
                .get_or_insert_with(|| (self.cache.state.clone(), self.cache.rng.clone()));
            tail.0.shuffle(&mut tail.1);
            &tail.0
        }
    }
}

/// A reusable CSR-native training context over one dataset: create it once
/// per (trainer, dataset), then fit every tag's binary problem through it.
#[derive(Debug)]
pub struct CsrLinearTrainer<'a> {
    trainer: &'a LinearSvmTrainer,
    csr: &'a CsrMatrix,
    /// DCD diagonal `Q_ii = x_i·x_i + 1`, shared by every tag (and, via
    /// [`Self::with_shared`], by every parallel worker).
    q: Cow<'a, [f64]>,
    /// Every feature some row stores, ascending: shared like `q`.
    support: Cow<'a, [u32]>,
    cold_orders: OrderCache,
    warm_orders: OrderCache,
    // Scratch reused across fits: the dense weights, duals and labels, and
    // the features and entries a model is read out of `w` through.
    w: Vec<f64>,
    alpha: Vec<f64>,
    y: Vec<f64>,
    features: Vec<u32>,
    entries: (Vec<u32>, Vec<f64>),
}

impl<'a> CsrLinearTrainer<'a> {
    /// Builds the shared training context: one pass over the matrix each for
    /// the DCD diagonal and the feature support; shuffle orders are cached
    /// lazily as passes run, with retention bounded by a fixed memory budget
    /// (fits running past the cached passes continue the stream through a
    /// private tail).
    pub fn new(trainer: &'a LinearSvmTrainer, csr: &'a CsrMatrix) -> Self {
        Self::build(
            trainer,
            csr,
            Cow::Owned(Self::dcd_diagonal(csr)),
            Cow::Owned(Self::feature_support(csr)),
        )
    }

    /// Like [`Self::new`] but borrowing a precomputed [`Self::dcd_diagonal`]
    /// and [`Self::feature_support`], so parallel tag chunks (one context per
    /// worker for the mutable scratch) share them instead of recomputing
    /// them per worker.
    ///
    /// # Panics
    /// Panics when `q.len()` differs from the number of rows. Debug builds
    /// also panic when `support` is not the matrix's feature support.
    pub fn with_shared(
        trainer: &'a LinearSvmTrainer,
        csr: &'a CsrMatrix,
        q: &'a [f64],
        support: &'a [u32],
    ) -> Self {
        assert_eq!(q.len(), csr.num_rows(), "diagonal must cover every row");
        debug_assert_eq!(support, Self::feature_support(csr), "feature support");
        Self::build(trainer, csr, Cow::Borrowed(q), Cow::Borrowed(support))
    }

    /// The DCD diagonal `Q_ii = x_i·x_i + 1` of a matrix — label-independent
    /// (bit-identical to what every scalar per-tag fit recomputes), so it is
    /// computed once per dataset and shared.
    pub fn dcd_diagonal(csr: &CsrMatrix) -> Vec<f64> {
        (0..csr.num_rows())
            .map(|i| csr.row_norm_sq(i) + 1.0)
            .collect()
    }

    /// Every feature some row of `csr` stores, ascending — the only
    /// features a fit on `csr` can give a nonzero weight (a warm fit adds
    /// its warm model's), so models are read out of the solver's dense
    /// scratch there and nowhere else.
    pub fn feature_support(csr: &CsrMatrix) -> Vec<u32> {
        let mut seen = vec![0u64; csr.dim().div_ceil(64)];
        for i in 0..csr.num_rows() {
            for &j in csr.row(i).0 {
                seen[j as usize / 64] |= 1 << (j % 64);
            }
        }
        let mut support = Vec::with_capacity(seen.iter().map(|w| w.count_ones() as usize).sum());
        for (word, &bits) in seen.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                support.push((word * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        support
    }

    fn build(
        trainer: &'a LinearSvmTrainer,
        csr: &'a CsrMatrix,
        q: Cow<'a, [f64]>,
        support: Cow<'a, [u32]>,
    ) -> Self {
        let n = csr.num_rows();
        Self {
            trainer,
            csr,
            q,
            support,
            cold_orders: OrderCache::new(trainer.seed, n),
            warm_orders: OrderCache::new(trainer.seed ^ WARM_SEED_XOR, n),
            w: Vec::new(),
            alpha: Vec::new(),
            y: Vec::new(),
            features: Vec::new(),
            entries: (Vec::new(), Vec::new()),
        }
    }

    /// The matrix this context trains over.
    pub fn matrix(&self) -> &CsrMatrix {
        self.csr
    }

    /// Fills the ±1 label scratch from a boolean mask.
    fn fill_labels(y: &mut Vec<f64>, ys: &[bool]) {
        y.clear();
        y.extend(ys.iter().map(|&b| if b { 1.0 } else { -1.0 }));
    }

    /// Trains a linear SVM on the context's rows against `ys` with dual
    /// coordinate descent for the L1-loss (hinge) SVM — Hsieh et al. 2008,
    /// the LIBLINEAR default — bit-identical to the scalar
    /// `LinearSvmTrainer::train` on the same data.
    ///
    /// # Panics
    /// Panics when `ys.len()` differs from the number of rows or is zero.
    pub fn train(&mut self, ys: &[bool]) -> LinearSvm {
        assert_eq!(
            self.csr.num_rows(),
            ys.len(),
            "xs and ys must have equal length"
        );
        assert!(!ys.is_empty(), "cannot train on an empty dataset");
        self.train_dcd(ys)
    }

    /// Warm refit from `warm`'s weights: Pegasos-style stochastic
    /// sub-gradient passes ([`LinearSvmTrainer::warm_passes`]), bit-identical
    /// to the scalar `LinearSvmTrainer::train_warm` on the same data
    /// (including the delegation to the cold solver below
    /// [`LinearSvmTrainer::warm_min_examples`]).
    ///
    /// # Panics
    /// Panics when `ys.len()` differs from the number of rows or is zero.
    pub fn train_warm(&mut self, ys: &[bool], warm: &LinearSvm) -> LinearSvm {
        assert_eq!(
            self.csr.num_rows(),
            ys.len(),
            "xs and ys must have equal length"
        );
        assert!(!ys.is_empty(), "cannot train on an empty dataset");
        let n = self.csr.num_rows();
        if n < self.trainer.warm_min_examples {
            // Tiny problem: the exact cold solve (same delegation as the
            // scalar path).
            return self.train(ys);
        }
        let trainer = self.trainer;
        let csr = self.csr;
        let dim = csr.dim().max(warm.dim());
        let lambda = 1.0 / (trainer.c * n as f64);
        Self::fill_labels(&mut self.y, ys);
        let y = &self.y;
        let w = &mut self.w;
        w.clear();
        w.resize(dim, 0.0);
        warm.scatter_into(w);
        let mut bias = warm.bias();
        // Pegasos clock starts one epoch in; lazy regularization scale — both
        // exactly as in the scalar warm path.
        let mut t = n;
        let mut scale = 1.0f64;
        let mut orders = self.warm_orders.stream();
        for _pass in 0..trainer.warm_passes.max(1) {
            let order = orders.next_order();
            for &i in order {
                let i = i as usize;
                t += 1;
                let eta = 1.0 / (lambda * t as f64);
                let yi = y[i];
                let margin = yi * (scale * csr.row_dot_dense(i, w) + bias);
                scale *= 1.0 - eta * lambda;
                if scale < 1e-9 {
                    for wj in w.iter_mut() {
                        *wj *= scale;
                    }
                    scale = 1.0;
                }
                if margin < 1.0 {
                    let step = eta * yi / scale;
                    csr.row_axpy_into(i, step, w);
                    bias += eta * yi * 0.1;
                }
            }
        }
        // Only the data's and the warm model's features can be nonzero;
        // the final scale is applied as they are read out.
        union_into(&self.support, warm.indices(), &mut self.features);
        let features = &self.features;
        extract(dim, w, features, |v| v * scale, bias, &mut self.entries)
    }

    /// Dual coordinate descent over CSR rows; mirrors the scalar
    /// `train_dcd` operation for operation.
    fn train_dcd(&mut self, ys: &[bool]) -> LinearSvm {
        let trainer = self.trainer;
        let csr = self.csr;
        let n = csr.num_rows();
        let dim = csr.dim();
        let bias_index = dim;
        let q = &self.q;
        Self::fill_labels(&mut self.y, ys);
        let y = &self.y;
        let w = &mut self.w;
        w.clear();
        w.resize(dim + 1, 0.0);
        let alpha = &mut self.alpha;
        alpha.clear();
        alpha.resize(n, 0.0);
        let mut orders = self.cold_orders.stream();
        for _pass in 0..trainer.max_iter {
            let order = orders.next_order();
            let mut max_pg: f64 = 0.0;
            for &i in order {
                let i = i as usize;
                if q[i] == 0.0 {
                    continue;
                }
                // G = y_i * (w·x_i + w_bias) - 1; the row kernel accumulates
                // in stored order, identical to `dot_dense`.
                let wx = csr.row_dot_dense(i, w) + w[bias_index];
                let g = y[i] * wx - 1.0;
                let pg = if alpha[i] == 0.0 {
                    g.min(0.0)
                } else if alpha[i] >= trainer.c {
                    g.max(0.0)
                } else {
                    g
                };
                max_pg = max_pg.max(pg.abs());
                if pg.abs() > 1e-12 {
                    let old = alpha[i];
                    alpha[i] = (old - g / q[i]).clamp(0.0, trainer.c);
                    let delta = (alpha[i] - old) * y[i];
                    if delta != 0.0 {
                        csr.row_axpy_into(i, delta, w);
                        w[bias_index] += delta;
                    }
                }
            }
            if max_pg < trainer.tol {
                break;
            }
        }
        let bias = w[bias_index];
        extract(dim, w, &self.support, |v| v, bias, &mut self.entries)
    }
}

/// The model whose weights are the nonzero `value(w[j])` over `features`
/// (ascending, and covering every nonzero of `w[..dim]`). One pass writes
/// every candidate into `entries` and advances past the nonzero ones only,
/// so the pass has no data-dependent branch; the model copies the kept
/// prefix out at its exact size.
fn extract(
    dim: usize,
    w: &[f64],
    features: &[u32],
    value: impl Fn(f64) -> f64,
    bias: f64,
    entries: &mut (Vec<u32>, Vec<f64>),
) -> LinearSvm {
    let (indices, values) = entries;
    if indices.len() < features.len() {
        indices.resize(features.len(), 0);
        values.resize(features.len(), 0.0);
    }
    let mut kept = 0;
    for &j in features {
        let v = value(w[j as usize]);
        indices[kept] = j;
        values[kept] = v;
        kept += usize::from(v != 0.0);
    }
    LinearSvm::from_parts(dim, indices[..kept].to_vec(), values[..kept].to_vec(), bias)
}

/// Writes the union of two ascending index lists into `out`, ascending.
fn union_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut k) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(k)) {
        out.push(x.min(y));
        i += usize::from(x <= y);
        k += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[k..]);
}

#[cfg(test)]
mod tests {
    use super::super::test_util;
    use super::*;
    use proptest::prelude::*;
    use textproc::SparseVector;

    fn assert_bit_identical(a: &LinearSvm, b: &LinearSvm) {
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.indices(), b.indices());
        let bits = |m: &LinearSvm| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.bias().to_bits(), b.bias().to_bits());
    }

    #[test]
    fn csr_dcd_matches_scalar_bitwise() {
        let (xs, ys) = test_util::separable(150, 31);
        let trainer = LinearSvmTrainer::default();
        let scalar = trainer.train(&xs, &ys);
        let csr = CsrMatrix::from_vectors(&xs);
        let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
        assert_bit_identical(&ctx.train(&ys), &scalar);
        // A second fit through the same (reused) scratch is identical too.
        assert_bit_identical(&ctx.train(&ys), &scalar);
    }

    #[test]
    fn csr_warm_matches_scalar_bitwise_including_small_problem_delegation() {
        let trainer = LinearSvmTrainer::default();
        // Large problem: real warm SGD.
        let (xs, ys) = test_util::separable(200, 33);
        let cold = trainer.train(&xs, &ys);
        let scalar_warm = trainer.train_warm(&xs, &ys, &cold);
        let csr = CsrMatrix::from_vectors(&xs);
        let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
        assert_bit_identical(&ctx.train_warm(&ys, &cold), &scalar_warm);
        // Small problem: both paths must delegate to the cold solver.
        let (sx, sy) = test_util::separable(20, 34);
        let small_cold = trainer.train(&sx, &sy);
        let scalar_small = trainer.train_warm(&sx, &sy, &small_cold);
        let small_csr = CsrMatrix::from_vectors(&sx);
        let mut small_ctx = CsrLinearTrainer::new(&trainer, &small_csr);
        assert_bit_identical(&small_ctx.train_warm(&sy, &small_cold), &scalar_small);
    }

    #[test]
    fn interleaved_cold_and_warm_fits_share_one_context() {
        // One context must serve alternating cold/warm fits (as the one-vs-all
        // warm driver does when new tags are cold-trained among warm refits)
        // without the order caches cross-contaminating.
        let trainer = LinearSvmTrainer::default();
        let (xs, ys) = test_util::separable(150, 35);
        let flipped: Vec<bool> = ys.iter().map(|&b| !b).collect();
        let cold_a = trainer.train(&xs, &ys);
        let csr = CsrMatrix::from_vectors(&xs);
        let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
        assert_bit_identical(&ctx.train(&ys), &cold_a);
        assert_bit_identical(
            &ctx.train_warm(&flipped, &cold_a),
            &trainer.train_warm(&xs, &flipped, &cold_a),
        );
        assert_bit_identical(&ctx.train(&flipped), &trainer.train(&xs, &flipped));
    }

    #[test]
    fn warm_fits_extract_a_warm_support_outside_the_data() {
        // The data stores features 0 and 1; the warm model also holds 4 and
        // 8, past the data's dimension, so only the joined support finds
        // them. The scalar path reads its model off the whole dense vector.
        let trainer = LinearSvmTrainer::default();
        let (xs, ys) = test_util::separable(100, 36);
        let warm = LinearSvm::from_dense(&[0.5, -0.25, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, -1.0], 0.1);
        let csr = CsrMatrix::from_vectors(&xs);
        assert_eq!(CsrLinearTrainer::feature_support(&csr), [0, 1]);
        let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
        let fast = ctx.train_warm(&ys, &warm);
        assert_bit_identical(&fast, &trainer.train_warm(&xs, &ys, &warm));
        assert_eq!(fast.dim(), 9);
        assert_eq!(fast.indices(), [0, 1, 4, 8]);
        // A cold fit afterwards reuses the scratch the warm fit dirtied.
        assert_bit_identical(&ctx.train(&ys), &trainer.train(&xs, &ys));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        let trainer = LinearSvmTrainer::default();
        let csr = CsrMatrix::from_vectors(&[]);
        CsrLinearTrainer::new(&trainer, &csr).train(&[]);
    }

    #[test]
    fn order_stream_replays_the_scalar_shuffle_stream_across_the_cache_cap() {
        // Reference: the scalar solver's per-fit shuffle sequence.
        let n = 17usize;
        let passes = 12usize;
        let reference: Vec<Vec<usize>> = {
            let mut rng = StdRng::seed_from_u64(99);
            let mut order: Vec<usize> = (0..n).collect();
            (0..passes)
                .map(|_| {
                    order.shuffle(&mut rng);
                    order.clone()
                })
                .collect()
        };
        // A tiny cap forces the private-tail continuation mid-stream; two
        // consecutive fits must both replay the full reference sequence.
        let mut cache = OrderCache::with_cap(99, n, 4);
        for _fit in 0..2 {
            let mut stream = cache.stream();
            for expected in &reference {
                let got: Vec<usize> = stream.next_order().iter().map(|&i| i as usize).collect();
                assert_eq!(&got, expected);
            }
        }
        assert_eq!(cache.cached.len(), 4, "retention is bounded by the cap");
    }

    fn arb_dataset() -> impl Strategy<Value = (Vec<SparseVector>, Vec<bool>)> {
        prop::collection::vec(
            (
                prop::collection::vec((0u32..24, -2.0f64..2.0), 0..8),
                any::<bool>(),
            ),
            1..40,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(pairs, label)| (SparseVector::from_pairs(pairs), label))
                .unzip()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn csr_trainer_equivalence_property(
            data in arb_dataset(),
            seed in 0u64..64,
        ) {
            let (xs, ys) = data;
            let trainer = LinearSvmTrainer {
                seed,
                max_iter: 20,
                ..Default::default()
            };
            let scalar = trainer.train(&xs, &ys);
            let csr = CsrMatrix::from_vectors(&xs);
            let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
            let fast = ctx.train(&ys);
            prop_assert_eq!(&scalar, &fast);
            assert_bit_identical(&scalar, &fast);
            // Warm refits stay equivalent as well (both may delegate to cold
            // on small n — the delegation thresholds are shared).
            let warm_scalar = trainer.train_warm(&xs, &ys, &scalar);
            let warm_fast = ctx.train_warm(&ys, &scalar);
            prop_assert_eq!(&warm_scalar, &warm_fast);
            prop_assert_eq!(warm_scalar.bias().to_bits(), warm_fast.bias().to_bits());
        }

        #[test]
        fn csr_warm_fits_equal_scalar_from_any_warm_model(
            data in arb_dataset(),
            warm in (prop::collection::vec((0u8..3, -2.0f64..2.0), 0..32), -1.0f64..1.0),
            seed in 0u64..64,
        ) {
            // Warm SGD on every size, from a model whose support may lie
            // anywhere relative to the data's.
            let (xs, ys) = data;
            let trainer = LinearSvmTrainer {
                seed,
                warm_min_examples: 1,
                ..Default::default()
            };
            let (weights, bias) = warm;
            let weights: Vec<f64> =
                weights.iter().map(|&(pick, w)| if pick == 0 { w } else { 0.0 }).collect();
            let warm = LinearSvm::from_dense(&weights, bias);
            let csr = CsrMatrix::from_vectors(&xs);
            let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
            assert_bit_identical(&ctx.train_warm(&ys, &warm), &trainer.train_warm(&xs, &ys, &warm));
            assert_bit_identical(&ctx.train(&ys), &trainer.train(&xs, &ys));
        }
    }
}
