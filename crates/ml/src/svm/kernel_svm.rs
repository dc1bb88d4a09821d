//! Kernel SVM trained with a simplified SMO solver.
//!
//! CEMPaR's peers each construct "a non-linear SVM model using its local
//! training data"; the resulting support vectors are the only artifact that is
//! propagated (once) to a super-peer, where models are cascaded. This module
//! provides that local model and exposes its support vectors for the cascade.
//! The kernel is the dot product: on L2-normalized TF-IDF vectors, which are
//! close to linearly separable, it fits the small per-peer collections better
//! than a narrow RBF and keeps the cascade's support-vector sets compact.
//!
//! Training fills a Gram matrix by rows ([`gram_matrix`], each row one walk
//! of per-feature postings chains, so a pair costs the features its vectors
//! share) and runs simplified SMO over it; a cascade merge hands
//! [`KernelSvmTrainer::train_with_gram`] blocks of one Gram matrix shared by
//! several pools. Each SMO decision value sums over the current support set
//! only — the indices with a nonzero dual, kept ascending with their `α·y` —
//! and reads the contiguous Gram row, which the mirrored fill makes bitwise
//! equal to the column; the result is bit for bit that of a full scan of the
//! column.

use super::BinaryClassifier;
use crate::kernel::{below_limit, SCATTER_LIMIT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
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

/// KKT violation tolerance.
const TOL: f64 = 1e-3;
/// Number of passes without any alpha change before SMO stops.
const MAX_PASSES: usize = 5;
/// Hard cap on optimization sweeps (protects against pathological data).
const MAX_ITER: usize = 200;

/// Hyper-parameters for SMO training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelSvmTrainer {
    /// Soft-margin cost parameter `C`.
    pub c: f64,
    /// RNG seed for the second-alpha choice.
    pub seed: u64,
}

impl Default for KernelSvmTrainer {
    fn default() -> Self {
        Self { c: 1.0, seed: 13 }
    }
}

/// A trained kernel SVM: `decision(x) = Σ alpha_i y_i (sv_i · x) + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSvm {
    support_vectors: Vec<SupportVector>,
    bias: f64,
}

impl KernelSvm {
    /// Builds a model directly from support vectors (used by the cascade when a
    /// merged model is assembled from the SVs of several peers).
    pub fn from_support_vectors(support_vectors: Vec<SupportVector>, bias: f64) -> Self {
        Self {
            support_vectors,
            bias,
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

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Whether `other` is this model bit for bit: same bias and
    /// support vectors (indices, value and alpha bits, labels) in the same
    /// order. Stricter than `==`, which compares floats by value (`NaN ≠
    /// NaN`, `-0.0 == 0.0`); two bit-equal models compute bit-equal
    /// decisions and merges.
    pub fn bit_eq(&self, other: &Self) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        same(self.bias, other.bias)
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
            sum += sv.alpha * y * sv.vector.dot(x);
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
        let k = gram_matrix(xs);
        self.train_smo(xs, ys, &k)
    }

    /// [`Self::train`] against a caller-provided Gram matrix (row-major
    /// `n × n`, as [`gram_matrix`] builds it).
    ///
    /// The Gram matrix depends only on the data — not on the labels — so a
    /// one-vs-all reduction over `T` tags can compute it once and share it
    /// across every per-tag fit instead of re-evaluating all `n²` kernel
    /// entries per tag ([`crate::multilabel::OneVsAllTrainer::train_kernel_shared`]).
    /// Given `gram == gram_matrix(xs)`, the trained model is bit-identical
    /// to [`Self::train`]'s.
    ///
    /// The matrix must be mirrored bit for bit (`gram[i·n + j]` and
    /// `gram[j·n + i]` have the same bits), as [`gram_matrix`] builds it:
    /// the solver reads an entry from whichever of the two is contiguous.
    /// Debug builds check this.
    ///
    /// # Panics
    /// Panics when `xs` and `ys` have different lengths or are empty, or when
    /// `gram.len() != xs.len()²`.
    pub fn train_with_gram(&self, xs: &[SparseVector], ys: &[bool], gram: &[f64]) -> KernelSvm {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert!(!xs.is_empty(), "cannot train on an empty dataset");
        let n = xs.len();
        assert_eq!(gram.len(), n * n, "gram matrix must be n × n");
        debug_assert!(
            (0..n).all(|i| (0..i).all(|j| gram[i * n + j].to_bits() == gram[j * n + i].to_bits())),
            "gram matrix must be mirrored bit for bit"
        );
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
        }
    }

    /// The simplified-SMO optimization loop over a precomputed, mirrored
    /// Gram matrix.
    ///
    /// A decision value is `b` plus `α_i·y_i·K(i, idx)` over the indices
    /// with `α_i != 0.0`, in ascending order. [`Duals`] keeps exactly those
    /// indices and each one's `α_i·y_i`, and the sum reads `K(i, idx)` from
    /// the contiguous row `idx`, which the mirror makes bitwise equal to
    /// column `idx`: the same terms in the same order as a walk over all `n`
    /// indices of a strided column, so the same bits.
    fn train_smo(&self, xs: &[SparseVector], ys: &[bool], k: &[f64]) -> KernelSvm {
        let n = xs.len();
        let y: Vec<f64> = ys.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let kij = |i: usize, j: usize| k[i * n + j];
        let row = |idx: usize| &k[idx * n..(idx + 1) * n];

        let mut duals = Duals::new(n);
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut passes = 0;
        let mut iter = 0;
        while passes < MAX_PASSES && iter < MAX_ITER {
            iter += 1;
            let mut num_changed = 0;
            for i in 0..n {
                let ei = duals.decision(row(i), b) - y[i];
                let alpha_i = duals.alpha[i];
                let violates_kkt =
                    (y[i] * ei < -TOL && alpha_i < self.c) || (y[i] * ei > TOL && alpha_i > 0.0);
                if !violates_kkt {
                    continue;
                }
                // Pick j != i at random (simplified SMO heuristic).
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = duals.decision(row(j), b) - y[j];
                let (ai_old, aj_old) = (alpha_i, duals.alpha[j]);
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
                duals.set(i, ai_new, y[i]);
                duals.set(j, aj_new, y[j]);

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
            .filter(|&i| duals.alpha[i] > 1e-8)
            .map(|i| SupportVector {
                vector: xs[i].clone(),
                label: ys[i],
                alpha: duals.alpha[i],
            })
            .collect();
        KernelSvm {
            support_vectors,
            bias: b,
        }
    }
}

/// SMO's dual variables, with the terms of a decision value kept ready.
struct Duals {
    alpha: Vec<f64>,
    /// `alpha[i] · y[i]`: the product the decision sum forms first.
    alpha_y: Vec<f64>,
    /// The indices with `alpha != 0.0`, ascending (a NaN counts, `-0.0`
    /// does not).
    support: Vec<usize>,
}

impl Duals {
    fn new(n: usize) -> Self {
        Self {
            alpha: vec![0.0; n],
            alpha_y: vec![0.0; n],
            support: Vec::new(),
        }
    }

    /// Sets `alpha[i]` for a label `y_i = ±1`.
    fn set(&mut self, i: usize, alpha: f64, y_i: f64) {
        if (self.alpha[i] != 0.0) != (alpha != 0.0) {
            match self.support.binary_search(&i) {
                Ok(pos) => {
                    self.support.remove(pos);
                }
                Err(pos) => self.support.insert(pos, i),
            }
        }
        self.alpha[i] = alpha;
        self.alpha_y[i] = alpha * y_i;
    }

    /// `b + Σ alpha_i·y_i·K(i, idx)` over the support in ascending order,
    /// given Gram row `idx`.
    fn decision(&self, k_row: &[f64], b: f64) -> f64 {
        let mut s = b;
        for &i in &self.support {
            s += self.alpha_y[i] * k_row[i];
        }
        s
    }
}

thread_local! {
    /// [`gram_matrix`]'s scratch: the per-feature chain heads and the
    /// postings they point into. `heads[f]` is one plus the position, in
    /// `postings`, of the latest vector linked that stores feature `f`, or
    /// 0 when none does. Both are empty between calls (each call clears
    /// what it set) and keep only their capacity: the heads grow to the
    /// largest feature ever chained on this thread, the postings to the
    /// most nonzeros one call held, so a call costs its vectors' nonzeros,
    /// not the vocabulary.
    static SCRATCH: RefCell<(Vec<u32>, Vec<Posting>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// One stored nonzero of a [`gram_matrix`] call: the vector holding it,
/// its value, and one plus the position of the previous vector's nonzero
/// at the same feature (0 ends the chain).
#[derive(Clone, Copy)]
struct Posting {
    id: u32,
    next: u32,
    value: f64,
}

/// Precomputes the symmetric Gram matrix `K[i·n + j] = x_i · x_j` in
/// row-major order, hoisted out of the SMO trainer so label-independent
/// consumers (the one-vs-all reduction, a region's re-cascade) can share one
/// matrix across tags.
///
/// Row `j` up to the diagonal holds `x_i.dot(x_j)` for every `i ≤ j`,
/// mirrored across the diagonal, which makes row `i` and column `i`
/// bitwise equal, as the SMO solver relies on. The row is filled by
/// postings: each of `x_j`'s nonzeros, in ascending index order, walks its
/// feature's chain through `x_0 .. x_j`, adding `z_f · x_f` (`z = x_i`) into
/// entry `i`, and is then linked into that chain; the diagonal sums
/// `x_f · x_f` alongside. Entry `i` therefore sums the products the
/// merge-join `x_i.dot(x_j)` forms — the same operands in the same order,
/// from `+0.0`, in ascending index order: the bits of the pairwise `dot`
/// loop, paid for by the nonzeros the vectors share rather than by all of
/// theirs.
///
/// Features below 2²⁰ keep their chain heads in a per-thread table; any
/// other index (a hostile frame can carry any `u32`) keeps it in a sorted
/// list of the call's own, so no index sizes an allocation.
pub fn gram_matrix(xs: &[SparseVector]) -> Vec<f64> {
    let n = xs.len();
    let mut k = vec![0.0; n * n];
    let nnz: usize = xs.iter().map(SparseVector::nnz).sum();
    assert!(u32::try_from(nnz).is_ok(), "fewer than 2³² stored nonzeros");
    // Chain heads of the features past the table, by feature.
    let mut beyond: Vec<(u32, u32)> = Vec::new();
    SCRATCH.with(|scratch| {
        let (heads, postings) = &mut *scratch.borrow_mut();
        let top = xs.iter().filter_map(|x| below_limit(x).last()).max();
        if let Some(&top) = top {
            if heads.len() <= top as usize {
                heads.resize(top as usize + 1, 0);
            }
        }
        postings.reserve(nnz);
        for (j, x) in xs.iter().enumerate() {
            let row = &mut k[j * n..=j * n + j];
            let mut diagonal = 0.0;
            for (f, xv) in x.iter() {
                let head = chain_head(heads, &mut beyond, f);
                let mut p = *head;
                while p != 0 {
                    // Copied out, so `value` is the multiply's first operand
                    // in unoptimized builds too: a load folded into the
                    // multiply swaps the operands, and with them which NaN a
                    // NaN · NaN product returns.
                    let Posting { id, next, value } = postings[p as usize - 1];
                    row[id as usize] += value * xv;
                    p = next;
                }
                diagonal += xv * xv;
                postings.push(Posting {
                    id: j as u32,
                    next: *head,
                    value: xv,
                });
                *head = postings.len() as u32;
            }
            row[j] = diagonal;
            for i in 0..j {
                k[i * n + j] = k[j * n + i];
            }
        }
        for x in xs {
            for &f in below_limit(x) {
                heads[f as usize] = 0;
            }
        }
        postings.clear();
    });
    k
}

/// The chain head of feature `f`: its slot in the thread's table below
/// 2²⁰, its entry in the call's sorted `beyond` list (inserted at 0 on
/// first sight) otherwise.
#[inline]
fn chain_head<'h>(heads: &'h mut [u32], beyond: &'h mut Vec<(u32, u32)>, f: u32) -> &'h mut u32 {
    if (f as usize) < SCATTER_LIMIT {
        return &mut heads[f as usize];
    }
    let p = match beyond.binary_search_by_key(&f, |&(g, _)| g) {
        Ok(p) => p,
        Err(p) => {
            beyond.insert(p, (f, 0));
            p
        }
    };
    &mut beyond[p].1
}

#[cfg(test)]
mod tests {
    use super::super::{accuracy_on, test_util};
    use super::*;

    #[test]
    fn linear_kernel_separates_separable_data() {
        let (xs, ys) = test_util::separable(120, 12);
        let model = KernelSvmTrainer::default().train(&xs, &ys);
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
    fn from_support_vectors_roundtrip() {
        let (xs, ys) = test_util::separable(60, 15);
        let model = KernelSvmTrainer::default().train(&xs, &ys);
        let rebuilt =
            KernelSvm::from_support_vectors(model.support_vectors().to_vec(), model.bias());
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
    fn gram_matrix_pairwise(xs: &[SparseVector]) -> Vec<f64> {
        let n = xs.len();
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let v = xs[i].dot(&xs[j]);
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
        for n in [0, 1, 2, xs.len()] {
            assert_eq!(
                bits(gram_matrix(&xs[..n])),
                bits(gram_matrix_pairwise(&xs[..n])),
                "n = {n}"
            );
        }
    }

    #[test]
    fn gram_matrix_handles_indices_past_two_to_the_twenty() {
        let bits = |k: Vec<f64>| k.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let top = u32::MAX;
        let v = |pairs: &[(u32, f64)]| SparseVector::from_pairs(pairs.iter().copied());
        let xs = [
            v(&[
                (3, 2.0),
                (1 << 20, 0.5),
                (top - 1, 1.5),
                (top, f64::INFINITY),
            ]),
            v(&[((1 << 20) - 1, 1.0), (1 << 20, -2.0), (top, 1.0)]),
            v(&[(top - 2, 3.0)]),
            v(&[(3, 1.0), (top - 1, -1.0), (top, f64::NAN)]),
            SparseVector::new(),
            v(&[(top, -0.5)]),
            v(&[((1 << 20) - 1, 4.0)]),
        ];
        for n in 0..=xs.len() {
            assert_eq!(
                bits(gram_matrix(&xs[..n])),
                bits(gram_matrix_pairwise(&xs[..n])),
                "n = {n}"
            );
        }
    }

    /// The solver `train_smo` replaced, kept as its oracle: every decision
    /// value walks all `n` indices of a strided Gram column.
    fn train_smo_full_scan(
        trainer: &KernelSvmTrainer,
        xs: &[SparseVector],
        ys: &[bool],
        k: &[f64],
    ) -> KernelSvm {
        let n = xs.len();
        let y: Vec<f64> = ys.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let kij = |i: usize, j: usize| k[i * n + j];

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(trainer.seed);
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
        while passes < MAX_PASSES && iter < MAX_ITER {
            iter += 1;
            let mut num_changed = 0;
            for i in 0..n {
                let ei = decision(&alpha, b, i) - y[i];
                let violates_kkt = (y[i] * ei < -TOL && alpha[i] < trainer.c)
                    || (y[i] * ei > TOL && alpha[i] > 0.0);
                if !violates_kkt {
                    continue;
                }
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = decision(&alpha, b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
                    (
                        (aj_old - ai_old).max(0.0),
                        (trainer.c + aj_old - ai_old).min(trainer.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - trainer.c).max(0.0),
                        (ai_old + aj_old).min(trainer.c),
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
                b = if ai_new > 0.0 && ai_new < trainer.c {
                    b1
                } else if aj_new > 0.0 && aj_new < trainer.c {
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
        }
    }

    fn assert_smo_matches_full_scan(trainer: &KernelSvmTrainer, xs: &[SparseVector], ys: &[bool]) {
        let gram = gram_matrix(xs);
        let got = trainer.train_with_gram(xs, ys, &gram);
        let want = train_smo_full_scan(trainer, xs, ys, &gram);
        assert!(
            got.bit_eq(&want),
            "bias {} vs {}, {} vs {} SVs",
            got.bias(),
            want.bias(),
            got.num_support_vectors(),
            want.num_support_vectors()
        );
    }

    #[test]
    fn smo_over_the_support_set_equals_the_full_scan_on_trained_data() {
        let (xs, ys) = test_util::xor(120, 11);
        let trainer = KernelSvmTrainer {
            c: 10.0,
            ..Default::default()
        };
        assert_smo_matches_full_scan(&trainer, &xs, &ys);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        #[test]
        fn smo_over_the_support_set_equals_the_full_scan(
            pool in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..6, -1.5f64..1.5), 1..5),
                    crate::kernel::wild::vector(6),
                    proptest::prelude::any::<bool>(),
                    0u8..4,
                ),
                1..9,
            ),
            duplicates in proptest::collection::vec(0usize..9, 0..4),
            one_class in proptest::prelude::any::<bool>(),
            c in 0.05f64..20.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Mostly finite vectors (SMO does real work); one in four from
            // the non-finite strategy.
            let mut xs: Vec<SparseVector> = Vec::new();
            let mut ys: Vec<bool> = Vec::new();
            for (tame, wild, label, pick) in &pool {
                xs.push(if *pick == 0 {
                    wild.clone()
                } else {
                    SparseVector::from_pairs(tame.iter().copied())
                });
                ys.push(*label);
            }
            // Duplicate vectors (and `n = 2` from a one-vector pool).
            for &d in &duplicates {
                xs.push(xs[d % pool.len()].clone());
                ys.push(!ys[d % pool.len()]);
            }
            if xs.len() == 1 {
                xs.push(xs[0].clone());
                ys.push(!ys[0]);
            }
            if one_class {
                ys.iter_mut().for_each(|y| *y = true);
            }
            let trainer = KernelSvmTrainer { c, seed };
            assert_smo_matches_full_scan(&trainer, &xs, &ys);
        }
    }

    #[test]
    fn shared_gram_training_is_bit_identical_to_inline_precomputation() {
        let (xs, ys) = test_util::xor(80, 17);
        let trainer = KernelSvmTrainer::default();
        let inline = trainer.train(&xs, &ys);
        let gram = gram_matrix(&xs);
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
