//! Kernel SVM trained with a simplified SMO solver.
//!
//! CEMPaR's peers each construct "a non-linear SVM model using its local
//! training data"; the resulting support vectors are the only artifact that is
//! propagated (once) to a super-peer, where models are cascaded. This module
//! provides that local model and exposes its support vectors for the cascade.

use super::BinaryClassifier;
use crate::kernel::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use textproc::SparseVector;

/// A support vector retained by a trained [`KernelSvm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupportVector {
    /// The training vector.
    pub vector: SparseVector,
    /// Its binary label.
    pub label: bool,
    /// The dual coefficient `alpha` (always > 0 for a retained SV).
    pub alpha: f64,
}

impl SupportVector {
    /// Approximate bytes on the wire (document vector + label + alpha).
    pub fn wire_size(&self) -> usize {
        self.vector.wire_size() + 1 + std::mem::size_of::<f64>()
    }
}

/// Hyper-parameters for SMO training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelSvmTrainer {
    /// Soft-margin cost parameter `C`.
    pub c: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Maximum number of passes without any alpha change before stopping.
    pub max_passes: usize,
    /// Hard cap on optimization sweeps (protects against pathological data).
    pub max_iter: usize,
    /// RNG seed for the second-alpha choice.
    pub seed: u64,
}

impl Default for KernelSvmTrainer {
    fn default() -> Self {
        Self {
            c: 1.0,
            kernel: Kernel::default(),
            tol: 1e-3,
            max_passes: 5,
            max_iter: 200,
            seed: 13,
        }
    }
}

/// A trained kernel SVM: `decision(x) = Σ alpha_i y_i K(sv_i, x) + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSvm {
    support_vectors: Vec<SupportVector>,
    bias: f64,
    kernel: Kernel,
}

impl KernelSvm {
    /// Builds a model directly from support vectors (used by the cascade when a
    /// merged model is assembled from the SVs of several peers).
    pub fn from_support_vectors(
        support_vectors: Vec<SupportVector>,
        bias: f64,
        kernel: Kernel,
    ) -> Self {
        Self {
            support_vectors,
            bias,
            kernel,
        }
    }

    /// The retained support vectors.
    pub fn support_vectors(&self) -> &[SupportVector] {
        &self.support_vectors
    }

    /// Number of support vectors.
    pub fn num_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    /// The kernel this model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Whether `other` is this model bit for bit: same kernel, bias, and
    /// support vectors (indices, value and alpha bits, labels) in the same
    /// order. Stricter than `==`, which compares floats by value (`NaN ≠
    /// NaN`, `-0.0 == 0.0`); two bit-equal models compute bit-equal
    /// decisions and merges.
    pub fn bit_eq(&self, other: &Self) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        self.kernel.bits() == other.kernel.bits()
            && same(self.bias, other.bias)
            && self.support_vectors.len() == other.support_vectors.len()
            && self
                .support_vectors
                .iter()
                .zip(&other.support_vectors)
                .all(|(a, b)| {
                    a.label == b.label
                        && same(a.alpha, b.alpha)
                        && a.vector.indices() == b.vector.indices()
                        && a.vector
                            .values()
                            .iter()
                            .zip(b.vector.values())
                            .all(|(&x, &y)| same(x, y))
                })
    }
}

impl BinaryClassifier for KernelSvm {
    fn decision(&self, x: &SparseVector) -> f64 {
        let mut sum = self.bias;
        for sv in &self.support_vectors {
            let y = if sv.label { 1.0 } else { -1.0 };
            sum += sv.alpha * y * self.kernel.eval(&sv.vector, x);
        }
        sum
    }

    fn wire_size(&self) -> usize {
        self.support_vectors
            .iter()
            .map(SupportVector::wire_size)
            .sum::<usize>()
            + std::mem::size_of::<f64>()
    }
}

impl KernelSvmTrainer {
    /// Creates a trainer with the given kernel and default settings.
    pub fn with_kernel(kernel: Kernel) -> Self {
        Self {
            kernel,
            ..Self::default()
        }
    }

    /// Trains a kernel SVM on `(xs, ys)` with simplified SMO.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` have different lengths or are empty.
    pub fn train(&self, xs: &[SparseVector], ys: &[bool]) -> KernelSvm {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert!(!xs.is_empty(), "cannot train on an empty dataset");
        if xs.len() == 1 {
            return self.single_example_model(xs, ys);
        }
        // Precompute the kernel matrix; per-peer local datasets are small
        // (tens to a few hundred documents), so O(n²) memory is acceptable.
        let k = gram_matrix(self.kernel, xs);
        self.train_smo(xs, ys, &k)
    }

    /// [`Self::train`] against a caller-provided Gram matrix (row-major
    /// `n × n`, as [`gram_matrix`] builds it).
    ///
    /// The Gram matrix depends only on the kernel and the data — not on the
    /// labels — so a one-vs-all reduction over `T` tags can compute it once
    /// and share it across every per-tag fit instead of re-evaluating all
    /// `n²` kernel entries per tag ([`crate::multilabel::OneVsAllTrainer::train_kernel_shared`]).
    /// Given `gram == gram_matrix(self.kernel, xs)`, the trained model is
    /// bit-identical to [`Self::train`]'s.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` have different lengths or are empty, or when
    /// `gram.len() != xs.len()²`.
    pub fn train_with_gram(&self, xs: &[SparseVector], ys: &[bool], gram: &[f64]) -> KernelSvm {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert!(!xs.is_empty(), "cannot train on an empty dataset");
        assert_eq!(gram.len(), xs.len() * xs.len(), "gram matrix must be n × n");
        if xs.len() == 1 {
            return self.single_example_model(xs, ys);
        }
        self.train_smo(xs, ys, gram)
    }

    /// SMO needs at least two points; a single example degenerates to a
    /// one-nearest-prototype decision around it.
    fn single_example_model(&self, xs: &[SparseVector], ys: &[bool]) -> KernelSvm {
        KernelSvm {
            support_vectors: vec![SupportVector {
                vector: xs[0].clone(),
                label: ys[0],
                alpha: 1.0,
            }],
            bias: 0.0,
            kernel: self.kernel,
        }
    }

    /// The simplified-SMO optimization loop over a precomputed Gram matrix.
    fn train_smo(&self, xs: &[SparseVector], ys: &[bool], k: &[f64]) -> KernelSvm {
        let n = xs.len();
        let y: Vec<f64> = ys.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let kij = |i: usize, j: usize| k[i * n + j];

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let decision = |alpha: &[f64], b: f64, idx: usize| -> f64 {
            let mut s = b;
            for i in 0..n {
                if alpha[i] != 0.0 {
                    s += alpha[i] * y[i] * kij(i, idx);
                }
            }
            s
        };

        let mut passes = 0;
        let mut iter = 0;
        while passes < self.max_passes && iter < self.max_iter {
            iter += 1;
            let mut num_changed = 0;
            for i in 0..n {
                let ei = decision(&alpha, b, i) - y[i];
                let violates_kkt = (y[i] * ei < -self.tol && alpha[i] < self.c)
                    || (y[i] * ei > self.tol && alpha[i] > 0.0);
                if !violates_kkt {
                    continue;
                }
                // Pick j != i at random (simplified SMO heuristic).
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = decision(&alpha, b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
                    (
                        (aj_old - ai_old).max(0.0),
                        (self.c + aj_old - ai_old).min(self.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - self.c).max(0.0),
                        (ai_old + aj_old).min(self.c),
                    )
                };
                if (hi - lo).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj_new = aj_old - y[j] * (ei - ej) / eta;
                aj_new = aj_new.clamp(lo, hi);
                if (aj_new - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai_new = ai_old + y[i] * y[j] * (aj_old - aj_new);
                alpha[i] = ai_new;
                alpha[j] = aj_new;

                let b1 = b
                    - ei
                    - y[i] * (ai_new - ai_old) * kij(i, i)
                    - y[j] * (aj_new - aj_old) * kij(i, j);
                let b2 = b
                    - ej
                    - y[i] * (ai_new - ai_old) * kij(i, j)
                    - y[j] * (aj_new - aj_old) * kij(j, j);
                b = if ai_new > 0.0 && ai_new < self.c {
                    b1
                } else if aj_new > 0.0 && aj_new < self.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                num_changed += 1;
            }
            if num_changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        let support_vectors = (0..n)
            .filter(|&i| alpha[i] > 1e-8)
            .map(|i| SupportVector {
                vector: xs[i].clone(),
                label: ys[i],
                alpha: alpha[i],
            })
            .collect();
        KernelSvm {
            support_vectors,
            bias: b,
            kernel: self.kernel,
        }
    }
}

/// Precomputes the symmetric Gram matrix `K[i·n + j] = K(x_i, x_j)` in
/// row-major order, hoisted out of the SMO trainer so label-independent
/// consumers (the one-vs-all reduction) can share one matrix across tags.
///
/// Row `j` up to the diagonal is one [`Kernel::eval_row`] of `x_j` against
/// `x_0 ..= x_j`, which yields `eval(x_i, x_j)` for every `i ≤ j`, and each
/// value is mirrored across the diagonal: the very pairs, operand order and
/// bits of the pairwise `eval` loop this replaced, one scatter per row
/// instead of one merge-join per pair.
pub fn gram_matrix(kernel: Kernel, xs: &[SparseVector]) -> Vec<f64> {
    let n = xs.len();
    let mut k = vec![0.0; n * n];
    for j in 0..n {
        kernel.eval_row(&xs[j], &xs[..=j], &mut k[j * n..=j * n + j]);
        for i in 0..j {
            k[i * n + j] = k[j * n + i];
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::super::{accuracy_on, test_util};
    use super::*;

    #[test]
    fn rbf_svm_solves_xor() {
        let (xs, ys) = test_util::xor(120, 11);
        let trainer = KernelSvmTrainer {
            kernel: Kernel::Rbf { gamma: 1.0 },
            c: 10.0,
            ..Default::default()
        };
        let model = trainer.train(&xs, &ys);
        assert!(
            accuracy_on(&model, &xs, &ys) > 0.9,
            "accuracy {}",
            accuracy_on(&model, &xs, &ys)
        );
    }

    #[test]
    fn linear_kernel_separates_separable_data() {
        let (xs, ys) = test_util::separable(120, 12);
        let trainer = KernelSvmTrainer::with_kernel(Kernel::Linear);
        let model = trainer.train(&xs, &ys);
        assert!(accuracy_on(&model, &xs, &ys) > 0.95);
    }

    #[test]
    fn support_vectors_are_a_subset_of_training_data() {
        let (xs, ys) = test_util::separable(80, 13);
        let model = KernelSvmTrainer::default().train(&xs, &ys);
        assert!(model.num_support_vectors() > 0);
        assert!(model.num_support_vectors() <= xs.len());
        for sv in model.support_vectors() {
            assert!(sv.alpha > 0.0);
            assert!(xs.contains(&sv.vector));
        }
    }

    #[test]
    fn generalizes_to_held_out_xor_points() {
        let (xs, ys) = test_util::xor(240, 14);
        let (train_x, test_x) = xs.split_at(160);
        let (train_y, test_y) = ys.split_at(160);
        let trainer = KernelSvmTrainer {
            kernel: Kernel::Rbf { gamma: 1.0 },
            c: 10.0,
            ..Default::default()
        };
        let model = trainer.train(train_x, train_y);
        assert!(accuracy_on(&model, test_x, test_y) > 0.85);
    }

    #[test]
    fn from_support_vectors_roundtrip() {
        let (xs, ys) = test_util::separable(60, 15);
        let model = KernelSvmTrainer::default().train(&xs, &ys);
        let rebuilt = KernelSvm::from_support_vectors(
            model.support_vectors().to_vec(),
            model.bias(),
            model.kernel(),
        );
        for x in &xs {
            assert!((model.decision(x) - rebuilt.decision(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn wire_size_grows_with_support_vectors() {
        let (xs, ys) = test_util::separable(60, 16);
        let model = KernelSvmTrainer::default().train(&xs, &ys);
        assert!(model.wire_size() >= model.num_support_vectors() * 9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        KernelSvmTrainer::default().train(&[], &[]);
    }

    /// The pairwise fill `gram_matrix` replaced, kept as its oracle: each
    /// `(i, j ≥ i)` pair evaluated once and mirrored.
    fn gram_matrix_pairwise(kernel: Kernel, xs: &[SparseVector]) -> Vec<f64> {
        let n = xs.len();
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let v = kernel.eval(&xs[i], &xs[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        k
    }

    #[test]
    fn gram_matrix_equals_the_pairwise_loop_bit_for_bit() {
        let bits = |k: Vec<f64>| k.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let (mut xs, _) = test_util::xor(40, 18);
        // Non-finite and underflowing entries, a disjoint support, an empty
        // vector and one indexed past everything else.
        xs.push(SparseVector::from_pairs([(0, f64::NAN), (1, 1e-200)]));
        xs.push(SparseVector::from_pairs([(1, -1e-200), (5, f64::INFINITY)]));
        xs.push(SparseVector::from_pairs([
            (0, -f64::NAN),
            (5, f64::NEG_INFINITY),
        ]));
        xs.push(SparseVector::from_pairs([(7, 1.0)]));
        xs.push(SparseVector::new());
        xs.push(SparseVector::from_pairs([(1, 0.5), (9_000, 2.0)]));
        for kernel in crate::kernel::wild::KERNELS {
            for n in [0, 1, 2, xs.len()] {
                assert_eq!(
                    bits(gram_matrix(kernel, &xs[..n])),
                    bits(gram_matrix_pairwise(kernel, &xs[..n])),
                    "{kernel:?}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn shared_gram_training_is_bit_identical_to_inline_precomputation() {
        let (xs, ys) = test_util::xor(80, 17);
        let trainer = KernelSvmTrainer {
            kernel: Kernel::Rbf { gamma: 1.0 },
            ..Default::default()
        };
        let inline = trainer.train(&xs, &ys);
        let gram = gram_matrix(trainer.kernel, &xs);
        let shared = trainer.train_with_gram(&xs, &ys, &gram);
        assert_eq!(inline.bias().to_bits(), shared.bias().to_bits());
        assert_eq!(inline.num_support_vectors(), shared.num_support_vectors());
        for (a, b) in inline
            .support_vectors()
            .iter()
            .zip(shared.support_vectors())
        {
            assert_eq!(a.vector, b.vector);
            assert_eq!(a.label, b.label);
            assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
        }
        // The flipped label mask trains a different model off the same Gram.
        let flipped: Vec<bool> = ys.iter().map(|&b| !b).collect();
        let other = trainer.train_with_gram(&xs, &flipped, &gram);
        assert_eq!(
            other.bias().to_bits(),
            trainer.train(&xs, &flipped).bias().to_bits()
        );
        // Single-example degenerate case goes through the same prototype path.
        let one = trainer.train_with_gram(&xs[..1], &ys[..1], &gram[..1]);
        assert_eq!(one.num_support_vectors(), 1);
    }
}
