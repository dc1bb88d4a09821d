//! Support vector machines.
//!
//! Two families are provided, matching the base classifiers of the two P2P
//! protocols in the paper:
//!
//! * [`LinearSvm`] — the "state-of-the-art linear SVM algorithm" PACE uses to
//!   reduce computation and communication cost. Trained with dual coordinate
//!   descent (Hsieh et al., 2008) or Pegasos-style stochastic sub-gradient
//!   descent.
//! * [`KernelSvm`] — the non-linear SVM each CEMPaR peer builds on its local
//!   training data, trained with a simplified SMO solver. Its support vectors
//!   are what is propagated to super-peers and cascaded.
//!
//! Both have a shared-storage training form for one-vs-all reductions:
//! [`CsrLinearTrainer`] drives every per-tag linear fit off one CSR arena
//! with tag-independent solver state hoisted out of the per-tag loop, and
//! [`KernelSvmTrainer::train_with_gram`] shares one precomputed Gram matrix
//! across tags. Both are bit-identical to the scalar entry points.

mod csr;
mod kernel_svm;
mod linear;

pub use csr::CsrLinearTrainer;
pub use kernel_svm::{gram_matrix, KernelSvm, KernelSvmTrainer, SupportVector};
pub use linear::{LinearSvm, LinearSvmTrainer};

use textproc::SparseVector;

/// A trained binary classifier producing a signed decision value.
pub trait BinaryClassifier {
    /// Signed decision value; positive means the positive class.
    fn decision(&self, x: &SparseVector) -> f64;

    /// Hard prediction derived from the decision value.
    fn predict(&self, x: &SparseVector) -> bool {
        self.decision(x) >= 0.0
    }

    /// Approximate size in bytes when this model is sent over the network.
    fn wire_size(&self) -> usize;
}

/// Accuracy of a classifier on a labeled set (fraction of correct hard
/// predictions). Returns 1.0 on an empty set.
#[cfg(test)]
pub fn accuracy_on<C: BinaryClassifier>(model: &C, xs: &[SparseVector], ys: &[bool]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
    if xs.is_empty() {
        return 1.0;
    }
    let correct = xs
        .iter()
        .zip(ys)
        .filter(|(x, &y)| model.predict(x) == y)
        .count();
    correct as f64 / xs.len() as f64
}

#[cfg(test)]
pub(crate) mod test_util {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use textproc::SparseVector;

    /// Generates a linearly separable 2-D problem with some margin.
    pub fn separable(n: usize, seed: u64) -> (Vec<SparseVector>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.gen_bool(0.5);
            let offset = if y { 1.0 } else { -1.0 };
            let x0 = offset + rng.gen_range(-0.4..0.4);
            let x1 = offset + rng.gen_range(-0.4..0.4);
            xs.push(SparseVector::from_pairs([(0, x0), (1, x1)]));
            ys.push(y);
        }
        (xs, ys)
    }

    /// Generates the XOR problem (not linearly separable): positive iff the
    /// two coordinates have the same sign.
    pub fn xor(n: usize, seed: u64) -> (Vec<SparseVector>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let x1: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let jitter0 = rng.gen_range(-0.2..0.2);
            let jitter1 = rng.gen_range(-0.2..0.2);
            xs.push(SparseVector::from_pairs([
                (0, x0 + jitter0),
                (1, x1 + jitter1),
            ]));
            ys.push((x0 > 0.0) == (x1 > 0.0));
        }
        (xs, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub(f64);
    impl BinaryClassifier for Stub {
        fn decision(&self, _x: &SparseVector) -> f64 {
            self.0
        }
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn default_predict_uses_sign_of_decision() {
        let x = SparseVector::new();
        assert!(Stub(0.5).predict(&x));
        assert!(Stub(0.0).predict(&x));
        assert!(!Stub(-0.1).predict(&x));
    }

    #[test]
    fn accuracy_on_empty_is_one() {
        assert_eq!(accuracy_on(&Stub(1.0), &[], &[]), 1.0);
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let xs = vec![SparseVector::new(), SparseVector::new()];
        let ys = vec![true, false];
        assert_eq!(accuracy_on(&Stub(1.0), &xs, &ys), 0.5);
    }
}
