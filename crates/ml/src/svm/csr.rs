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
//! instead of two heap allocations per document), computes the diagonal once
//! (and can borrow it across parallel workers via [`CsrLinearTrainer::with_diagonal`]),
//! replays the identical per-pass shuffle stream from a memory-bounded
//! shared cache, and reuses one weight/dual/label scratch across all fits.
//! The solver loops stream CSR rows through the bounds-check-free row
//! kernels ([`CsrMatrix::row_dot_dense`] / [`CsrMatrix::row_axpy_into`]).
//!
//! # Equivalence contract
//!
//! For every `(trainer, dataset, labels)`, [`CsrLinearTrainer::train`] and
//! [`CsrLinearTrainer::train_warm`] produce models **bit-identical** to
//! [`LinearSvmTrainer::train`] / [`LinearSvmTrainer::train_warm`] on the same
//! data: every floating-point operation happens in the same sequence (row
//! kernels accumulate in stored order, shared shuffle orders replay the exact
//! per-tag RNG streams, the shared diagonal holds the same bits the per-call
//! recomputation would produce). The scalar path is kept untouched as the
//! reference; the property tests below and the protocol equivalence suite in
//! `p2pclassify` pin the contract.

use super::{LinearSvm, LinearSvmTrainer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use textproc::CsrMatrix;

/// The XOR applied to the trainer seed by [`LinearSvmTrainer::train_warm`]'s
/// RNG (kept in sync with `linear.rs`).
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
    /// [`Self::with_diagonal`], by every parallel worker).
    q: std::borrow::Cow<'a, [f64]>,
    cold_orders: OrderCache,
    warm_orders: OrderCache,
    // Scratch reused across fits (the output model copies out of `w`).
    w: Vec<f64>,
    alpha: Vec<f64>,
    y: Vec<f64>,
}

impl<'a> CsrLinearTrainer<'a> {
    /// Builds the shared training context: one pass over the matrix for the
    /// DCD diagonal; shuffle orders are cached lazily as passes run, with
    /// retention bounded by a fixed memory budget (fits running past the
    /// cached passes continue the stream through a private tail).
    pub fn new(trainer: &'a LinearSvmTrainer, csr: &'a CsrMatrix) -> Self {
        Self::build(
            trainer,
            csr,
            std::borrow::Cow::Owned(Self::dcd_diagonal(csr)),
        )
    }

    /// Like [`Self::new`] but borrowing a precomputed [`Self::dcd_diagonal`],
    /// so parallel tag chunks (one context per worker for the mutable
    /// scratch) share one diagonal instead of recomputing it per worker.
    ///
    /// # Panics
    /// Panics when `q.len()` differs from the number of rows.
    pub fn with_diagonal(trainer: &'a LinearSvmTrainer, csr: &'a CsrMatrix, q: &'a [f64]) -> Self {
        assert_eq!(q.len(), csr.num_rows(), "diagonal must cover every row");
        Self::build(trainer, csr, std::borrow::Cow::Borrowed(q))
    }

    /// The DCD diagonal `Q_ii = x_i·x_i + 1` of a matrix — label-independent
    /// (bit-identical to what every scalar per-tag fit recomputes), so it is
    /// computed once per dataset and shared.
    pub fn dcd_diagonal(csr: &CsrMatrix) -> Vec<f64> {
        (0..csr.num_rows())
            .map(|i| csr.row_norm_sq(i) + 1.0)
            .collect()
    }

    fn build(
        trainer: &'a LinearSvmTrainer,
        csr: &'a CsrMatrix,
        q: std::borrow::Cow<'a, [f64]>,
    ) -> Self {
        let n = csr.num_rows();
        Self {
            trainer,
            csr,
            q,
            cold_orders: OrderCache::new(trainer.seed, n),
            warm_orders: OrderCache::new(trainer.seed ^ WARM_SEED_XOR, n),
            w: Vec::new(),
            alpha: Vec::new(),
            y: Vec::new(),
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

    /// Trains a linear SVM on the context's rows against `ys` — bit-identical
    /// to [`LinearSvmTrainer::train`] on the same data.
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

    /// Warm refit from `warm`'s weights — bit-identical to
    /// [`LinearSvmTrainer::train_warm`] on the same data (including the
    /// small-problem delegation to the cold solver).
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
        let dim = csr.dim().max(warm.weights().len());
        let lambda = 1.0 / (trainer.c * n as f64);
        Self::fill_labels(&mut self.y, ys);
        let y = &self.y;
        let w = &mut self.w;
        w.clear();
        w.extend_from_slice(warm.weights());
        w.resize(dim, 0.0);
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
        for wj in w.iter_mut() {
            *wj *= scale;
        }
        LinearSvm::from_weights(w.clone(), bias)
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
        LinearSvm::from_weights(w[..dim].to_vec(), bias)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util;
    use super::*;
    use proptest::prelude::*;
    use textproc::SparseVector;

    fn assert_bit_identical(a: &LinearSvm, b: &LinearSvm) {
        assert_eq!(a.weights().len(), b.weights().len());
        for (x, y) in a.weights().iter().zip(b.weights()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
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
            for (a, b) in scalar.weights().iter().zip(fast.weights()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(scalar.bias().to_bits(), fast.bias().to_bits());
            // Warm refits stay equivalent as well (both may delegate to cold
            // on small n — the delegation thresholds are shared).
            let warm_scalar = trainer.train_warm(&xs, &ys, &scalar);
            let warm_fast = ctx.train_warm(&ys, &scalar);
            prop_assert_eq!(&warm_scalar, &warm_fast);
            prop_assert_eq!(warm_scalar.bias().to_bits(), warm_fast.bias().to_bits());
        }
    }
}
