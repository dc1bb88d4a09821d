//! Linear SVM trained cold with dual coordinate descent and refit warm with
//! Pegasos-style stochastic sub-gradient descent.
//!
//! PACE uses "the state-of-the-art linear SVM algorithm to reduce computation
//! and communication cost": a linear model is one weight per feature, so
//! propagating it to other peers costs `O(m)` instead of `O(#SV · m)`. A
//! trained [`LinearSvm`] stores only its nonzero weights (a peer's model
//! touches the features its documents hold, a fraction of the vocabulary)
//! with the dimension it was trained at; the solvers work on a dense
//! scratch and extract the nonzeros when they finish.

use super::BinaryClassifier;
#[cfg(test)]
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use serde::{Deserialize, Serialize};
use textproc::SparseVector;

/// Hyper-parameters for linear SVM training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearSvmTrainer {
    /// Soft-margin cost parameter `C` (dual) / `1/(λ·n)` (warm SGD).
    pub c: f64,
    /// Maximum number of passes over the data (dual solver).
    pub max_iter: usize,
    /// Convergence tolerance on the projected gradient (dual solver).
    pub tol: f64,
    /// RNG seed controlling example shuffling.
    pub seed: u64,
    /// Number of SGD passes run by a warm refit
    /// ([`super::CsrLinearTrainer::train_warm`]). Warm-starting from an
    /// existing weight vector converges in far fewer passes than a cold fit,
    /// which is what makes the incremental training path cheap.
    #[serde(default = "default_warm_passes")]
    pub warm_passes: usize,
    /// Below this many examples a warm refit delegates to the cold fit: on
    /// tiny problems the exact dual solve is itself cheap
    /// and strictly more accurate than a handful of SGD steps, so the warm
    /// path only pays off on collections at least this large.
    #[serde(default = "default_warm_min_examples")]
    pub warm_min_examples: usize,
}

fn default_warm_passes() -> usize {
    8
}

fn default_warm_min_examples() -> usize {
    64
}

impl Default for LinearSvmTrainer {
    fn default() -> Self {
        Self {
            c: 1.0,
            max_iter: 100,
            tol: 1e-4,
            seed: 7,
            warm_passes: default_warm_passes(),
            warm_min_examples: default_warm_min_examples(),
        }
    }
}

/// A trained linear SVM: `decision(x) = w · x + b`, with `w` stored as its
/// nonzero weights.
///
/// Invariants kept by every constructor: `indices` strictly increase and
/// stay below `dim`, `values` is parallel to them, and no value is exactly
/// `0.0` (a NaN is kept, as a dense vector's `!= 0.0` test keeps it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Builds a model from a dense weight vector and bias: the dimension is
    /// `weights.len()` and the entries that are not exactly `0.0` are kept.
    pub fn from_dense(weights: &[f64], bias: f64) -> Self {
        let (indices, values) = weights
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0.0)
            .map(|(j, &w)| (j as u32, w))
            .unzip();
        Self::from_parts(weights.len(), indices, values, bias)
    }

    /// Builds a model from its nonzero weights.
    ///
    /// # Panics
    /// Debug builds panic when the invariants above do not hold.
    pub(crate) fn from_parts(dim: usize, indices: Vec<u32>, values: Vec<f64>, bias: f64) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(indices.last().map_or(true, |&j| (j as usize) < dim));
        debug_assert!(values.iter().all(|&w| w != 0.0));
        Self {
            dim,
            indices,
            values,
            bias,
        }
    }

    /// The dimension the model was trained or decoded at: one past the
    /// largest feature its weight vector spans.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Features with a nonzero weight, ascending.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The nonzero weights, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Number of non-zero weights (a proxy for model sparsity).
    pub fn nonzero_weights(&self) -> usize {
        self.indices.len()
    }

    /// The weights as a dense vector of length [`Self::dim`].
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.dim];
        self.scatter_into(&mut w);
        w
    }

    /// Writes the nonzero weights into `dense` at their features.
    ///
    /// # Panics
    /// Panics when `dense` is shorter than the largest stored feature.
    pub fn scatter_into(&self, dense: &mut [f64]) {
        for (&j, &w) in self.indices.iter().zip(&self.values) {
            dense[j as usize] = w;
        }
    }
}

impl BinaryClassifier for LinearSvm {
    /// `w·x + b`, the products `w_j · x_j` summed from `+0.0` over the
    /// features both hold, in ascending order. A dense `x.dot_dense(w)`
    /// also adds `0.0 · x_j` for every other `x_j`, which changes a sum
    /// only when `x_j` is infinite or NaN.
    fn decision(&self, x: &SparseVector) -> f64 {
        let (xi, xv) = (x.indices(), x.values());
        let mut sum = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < xi.len() {
            match self.indices[a].cmp(&xi[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    let w = self.values[a];
                    sum += w * xv[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        sum + self.bias
    }

    fn wire_size(&self) -> usize {
        // The nonzero weights as (index, value) pairs plus the bias, matching
        // how PACE counts model transfer cost.
        self.nonzero_weights() * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
            + std::mem::size_of::<f64>()
    }
}

/// The scalar trainers: the oracles [`super::CsrLinearTrainer`] is held to.
#[cfg(test)]
impl LinearSvmTrainer {
    /// Trains a linear SVM on `(xs, ys)` with dual coordinate descent for the
    /// L1-loss (hinge) SVM — Hsieh et al. 2008, the LIBLINEAR default.
    /// Deterministic given the seed.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` have different lengths or are empty.
    pub fn train(&self, xs: &[SparseVector], ys: &[bool]) -> LinearSvm {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert!(!xs.is_empty(), "cannot train on an empty dataset");
        let dim = xs
            .iter()
            .map(SparseVector::dim_lower_bound)
            .max()
            .unwrap_or(0);
        self.train_dcd(xs, ys, dim)
    }

    /// Incrementally refits a model on a (typically grown) dataset: primal
    /// stochastic sub-gradient descent starts from `warm`'s weight vector and
    /// runs only [`Self::warm_passes`] passes instead of a full cold
    /// optimization.
    ///
    /// This is the warm-start contract the streaming session layer relies on:
    /// the result is *not* bit-identical to a cold [`Self::train`] on the same
    /// data — it trades exact re-optimization for an `O(warm_passes · nnz)`
    /// update — but the accuracy gap is bounded by the session regression
    /// suite (incremental within 5 % of the full-retrain reference).
    /// Deterministic for a fixed `(seed, warm, data)`.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` have different lengths or are empty.
    pub fn train_warm(&self, xs: &[SparseVector], ys: &[bool], warm: &LinearSvm) -> LinearSvm {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert!(!xs.is_empty(), "cannot train on an empty dataset");
        if xs.len() < self.warm_min_examples {
            // Tiny problem: the exact cold solve is cheaper than SGD steps
            // worth taking and has no approximation gap.
            return self.train(xs, ys);
        }
        let dim = xs
            .iter()
            .map(SparseVector::dim_lower_bound)
            .max()
            .unwrap_or(0)
            .max(warm.dim);
        let n = xs.len();
        let lambda = 1.0 / (self.c * n as f64);
        let mut w = vec![0.0; dim];
        warm.scatter_into(&mut w);
        let mut bias = warm.bias;
        let mut rng = StdRng::seed_from_u64(self.seed ^ super::csr::WARM_SEED_XOR);
        let mut order: Vec<usize> = (0..n).collect();
        // Start the Pegasos clock one full epoch in: the warm weights stand in
        // for a completed cold pass, so the early (large) learning rates do
        // not wipe out the starting point.
        let mut t = n;
        // The regularization shrink multiplies the *whole* weight vector each
        // step; applying it lazily as a scalar (`w_true = scale · w`) keeps
        // every step O(nnz) instead of O(dim). Over the whole run the scale
        // only decays to ≈ 1/(1 + warm_passes), so no re-materialization
        // guard is needed beyond a defensive floor.
        let mut scale = 1.0f64;
        for _pass in 0..self.warm_passes.max(1) {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (lambda * t as f64);
                let y = if ys[i] { 1.0 } else { -1.0 };
                let margin = y * (scale * xs[i].dot_dense(&w) + bias);
                scale *= 1.0 - eta * lambda;
                if scale < 1e-9 {
                    for wj in &mut w {
                        *wj *= scale;
                    }
                    scale = 1.0;
                }
                if margin < 1.0 {
                    let step = eta * y / scale;
                    for (idx, v) in xs[i].iter() {
                        w[idx as usize] += step * v;
                    }
                    bias += eta * y * 0.1;
                }
            }
        }
        for wj in &mut w {
            *wj *= scale;
        }
        LinearSvm::from_dense(&w, bias)
    }

    /// Dual coordinate descent for the L1-loss SVM with an augmented bias
    /// feature (a constant 1.0 appended to every example).
    fn train_dcd(&self, xs: &[SparseVector], ys: &[bool], dim: usize) -> LinearSvm {
        let n = xs.len();
        let bias_index = dim; // virtual constant feature
        let mut w = vec![0.0; dim + 1];
        let mut alpha = vec![0.0; n];
        // Q_ii = x_i·x_i + 1 (for the bias feature).
        let q: Vec<f64> = xs.iter().map(|x| x.norm_sq() + 1.0).collect();
        let y: Vec<f64> = ys.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);

        for _pass in 0..self.max_iter {
            order.shuffle(&mut rng);
            let mut max_pg: f64 = 0.0;
            for &i in &order {
                if q[i] == 0.0 {
                    continue;
                }
                // G = y_i * (w·x_i + w_bias) - 1
                let wx = xs[i].dot_dense(&w[..dim]) + w[bias_index];
                let g = y[i] * wx - 1.0;
                // Projected gradient.
                let pg = if alpha[i] == 0.0 {
                    g.min(0.0)
                } else if alpha[i] >= self.c {
                    g.max(0.0)
                } else {
                    g
                };
                max_pg = max_pg.max(pg.abs());
                if pg.abs() > 1e-12 {
                    let old = alpha[i];
                    alpha[i] = (old - g / q[i]).clamp(0.0, self.c);
                    let delta = (alpha[i] - old) * y[i];
                    if delta != 0.0 {
                        for (idx, v) in xs[i].iter() {
                            w[idx as usize] += delta * v;
                        }
                        w[bias_index] += delta;
                    }
                }
            }
            if max_pg < self.tol {
                break;
            }
        }
        LinearSvm::from_dense(&w[..dim], w[bias_index])
    }
}

#[cfg(test)]
mod tests {
    use super::super::{accuracy_on, test_util};
    use super::*;

    #[test]
    fn dcd_separates_linearly_separable_data() {
        let (xs, ys) = test_util::separable(200, 1);
        let model = LinearSvmTrainer::default().train(&xs, &ys);
        assert!(accuracy_on(&model, &xs, &ys) > 0.97);
    }

    #[test]
    fn generalizes_to_unseen_points() {
        let (xs, ys) = test_util::separable(300, 3);
        let (train_x, test_x) = xs.split_at(200);
        let (train_y, test_y) = ys.split_at(200);
        let model = LinearSvmTrainer::default().train(train_x, train_y);
        assert!(accuracy_on(&model, test_x, test_y) > 0.95);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let (xs, ys) = test_util::separable(100, 4);
        let a = LinearSvmTrainer::default().train(&xs, &ys);
        let b = LinearSvmTrainer::default().train(&xs, &ys);
        assert_eq!(a, b);
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let xs = vec![
            SparseVector::from_pairs([(0, 1.0)]),
            SparseVector::from_pairs([(0, 2.0)]),
        ];
        let ys = vec![true, true];
        let model = LinearSvmTrainer::default().train(&xs, &ys);
        assert!(model.predict(&xs[0]));
        assert!(model.predict(&xs[1]));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        LinearSvmTrainer::default().train(&[], &[]);
    }

    #[test]
    fn wire_size_reflects_sparsity() {
        let (xs, ys) = test_util::separable(50, 5);
        let model = LinearSvmTrainer::default().train(&xs, &ys);
        assert!(model.wire_size() >= std::mem::size_of::<f64>());
        assert!(model.wire_size() <= (2 + 1) * 12 + 8 + 12);
    }

    #[test]
    fn warm_start_preserves_accuracy_on_grown_data() {
        let (xs, ys) = test_util::separable(300, 8);
        let (old_x, new_x) = xs.split_at(200);
        let (old_y, new_y) = ys.split_at(200);
        let trainer = LinearSvmTrainer::default();
        let cold = trainer.train(old_x, old_y);
        // Fold the new examples in by warm-starting on the full set.
        let warm = trainer.train_warm(&xs, &ys, &cold);
        assert!(accuracy_on(&warm, &xs, &ys) > 0.93);
        assert!(accuracy_on(&warm, new_x, new_y) > 0.9);
    }

    #[test]
    fn warm_start_is_deterministic_and_learns_new_structure() {
        // A cold model that knows nothing about feature 3 picks up a new
        // class concentrated there after a warm refit.
        let (mut xs, mut ys) = test_util::separable(120, 9);
        let cold = LinearSvmTrainer::default().train(&xs, &ys);
        for i in 0..40 {
            xs.push(SparseVector::from_pairs([(3, 1.0 + 0.01 * i as f64)]));
            ys.push(true);
        }
        let trainer = LinearSvmTrainer::default();
        let a = trainer.train_warm(&xs, &ys, &cold);
        let b = trainer.train_warm(&xs, &ys, &cold);
        assert_eq!(a, b, "warm fit must be deterministic for a seed");
        assert!(a.predict(&SparseVector::from_pairs([(3, 1.2)])));
    }

    #[test]
    fn c_controls_margin_softness() {
        // With tiny C the model barely fits the data; with large C it fits it
        // well. Just assert training succeeds and large C is at least as good.
        let (xs, ys) = test_util::separable(100, 6);
        let trainer = |c| LinearSvmTrainer {
            c,
            ..LinearSvmTrainer::default()
        };
        let loose = trainer(1e-4).train(&xs, &ys);
        let tight = trainer(10.0).train(&xs, &ys);
        assert!(accuracy_on(&tight, &xs, &ys) >= accuracy_on(&loose, &xs, &ys));
    }
}
