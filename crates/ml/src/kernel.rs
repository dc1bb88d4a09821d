//! Kernel functions for the non-linear SVMs used by CEMPaR.
//!
//! [`Kernel::eval`] evaluates a single pair. The many-vector paths form
//! their dot products by postings and finish each through the same private
//! expression (`finish_dot`) with squared norms computed once:
//! [`crate::svm::gram_matrix`], which every kernel fit and cascade merge
//! builds its Gram matrix with, chains the vectors per feature; and
//! [`crate::BatchKernelScorer`] prices a query through its postings index.
//! Both are bit-identical to `eval`. `Kernel::eval_row` — one vector
//! scattered into a per-thread scratch, every other vector gathering its
//! own nonzeros — is the test oracle of both.

use serde::{Deserialize, Serialize};
#[cfg(test)]
use std::cell::RefCell;
use textproc::SparseVector;

#[cfg(test)]
thread_local! {
    /// [`Kernel::eval_row`]'s scatter of its fixed vector: `slot[j]` is one
    /// plus the position of index `j` among the vector's nonzeros, or 0 when
    /// `j` is absent — the membership mark and the value lookup in one
    /// `u32` per feature. All zero between calls (each call clears what it
    /// set) and grown only to the largest index ever scattered on this
    /// thread, so a call costs its vectors' nonzeros, not the vocabulary.
    static SCATTER: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Features below this index are kept in per-thread tables (4 MiB per
/// thread at most); a vocabulary is far smaller. Any larger index, which
/// only a hostile frame carries, is looked up by binary search instead.
pub(crate) const SCATTER_LIMIT: usize = 1 << 20;

/// `x`'s indices below [`SCATTER_LIMIT`], the ones a per-thread table holds
/// (all of them, unless a hostile frame's index lies beyond).
#[inline]
pub(crate) fn below_limit(x: &SparseVector) -> &[u32] {
    let xi = x.indices();
    match xi.last() {
        Some(&last) if (last as usize) >= SCATTER_LIMIT => {
            &xi[..xi.partition_point(|&f| (f as usize) < SCATTER_LIMIT)]
        }
        _ => xi,
    }
}

/// A Mercer kernel `K(x, z)` on sparse document vectors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// Plain dot product `x · z`.
    Linear,
    /// Radial basis function `exp(-gamma * ||x - z||²)`.
    Rbf {
        /// Width parameter; larger values make the kernel more local.
        gamma: f64,
    },
    /// Polynomial kernel `(gamma * x·z + coef0)^degree`.
    Polynomial {
        /// Scale applied to the dot product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
}

impl Default for Kernel {
    fn default() -> Self {
        // RBF is the usual default for text cascade SVMs; gamma = 1.0 works
        // well with L2-normalized TF-IDF vectors (||x - z||² ∈ [0, 2]).
        Kernel::Rbf { gamma: 1.0 }
    }
}

impl Kernel {
    /// Evaluates the kernel on two sparse vectors.
    ///
    /// Symmetric bit for bit, `eval(x, z) == eval(z, x)` in `to_bits`, for
    /// every input without NaN: the dot product is a sum, from `+0.0` in
    /// ascending index order, of products that commute, and RBF adds the two
    /// squared norms (`‖x‖² + ‖z‖²`), which also commutes. (With NaN inputs
    /// the value is NaN both ways, but which payload survives can depend on
    /// operand order.)
    pub fn eval(&self, x: &SparseVector, z: &SparseVector) -> f64 {
        self.finish_dot(x.dot(z), || (x.norm_sq(), z.norm_sq()))
    }

    /// `K(z, x)` for every `z` of `zs`, written to `out` — the row of
    /// [`Self::eval`]`(z, x)` values, bit for bit, given
    /// `x_norm_sq == x.norm_sq()` and `zs_norm_sq[k] == zs[k].norm_sq()`
    /// (only RBF reads them).
    ///
    /// `x` is scattered once into the thread's scratch; each `z` then walks
    /// its own nonzeros in ascending index order and multiplies those whose
    /// index the scratch marks as present in `x`, `z`'s value first. Those
    /// are the products the merge-join [`SparseVector::dot`] forms for
    /// `z.dot(x)`, with the same operands in the same order, summed in the
    /// same order from the same `+0.0`; RBF and polynomial kernels finish
    /// that dot through the same expression as `eval`. So the result equals
    /// `eval` for every input — non-finite values and products that
    /// underflow to `±0.0` included. The mark is what keeps that true: a
    /// dense scratch without it would add `0.0 · v` for each index only `z`
    /// holds, which is `NaN` when `v` is infinite.
    ///
    /// # Panics
    /// Panics when `out` or `zs_norm_sq` is not as long as `zs`.
    #[cfg(test)]
    pub(crate) fn eval_row(
        &self,
        x: &SparseVector,
        x_norm_sq: f64,
        zs: &[SparseVector],
        zs_norm_sq: &[f64],
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), zs.len(), "one output per row vector");
        assert_eq!(zs_norm_sq.len(), zs.len(), "one norm per row vector");
        let (xi, xv) = (x.indices(), x.values());
        // Only `x`'s indices below SCATTER_LIMIT are scattered, so no index
        // (a hostile frame can carry any `u32`) sizes an allocation; a `z`
        // index past the scratch's end is looked up in `x` by binary search.
        let beyond = |j: u32| xi.binary_search(&j).map_or(0, |p| p + 1);
        SCATTER.with(|scatter| {
            let mut slot = scatter.borrow_mut();
            let scattered = xi.partition_point(|&j| (j as usize) < SCATTER_LIMIT);
            if let Some(&last) = xi[..scattered].last() {
                if slot.len() <= last as usize {
                    slot.resize(last as usize + 1, 0);
                }
            }
            for (p, &j) in xi[..scattered].iter().enumerate() {
                slot[j as usize] = p as u32 + 1;
            }
            for ((z, &z_norm_sq), out) in zs.iter().zip(zs_norm_sq).zip(out) {
                let mut dot = 0.0;
                for (&j, &zv) in z.indices().iter().zip(z.values()) {
                    let p = slot
                        .get(j as usize)
                        .map_or_else(|| beyond(j), |&p| p as usize);
                    if p != 0 {
                        dot += zv * xv[p - 1];
                    }
                }
                *out = self.finish_dot(dot, || (z_norm_sq, x_norm_sq));
            }
            for &j in &xi[..scattered] {
                slot[j as usize] = 0;
            }
        });
    }

    /// The kernel value from the dot product of its two arguments and, for
    /// RBF only, their squared norms in argument order
    /// (`‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`, as [`SparseVector::distance_sq`]).
    #[inline]
    pub(crate) fn finish_dot(&self, dot: f64, norms_sq: impl FnOnce() -> (f64, f64)) -> f64 {
        match *self {
            Kernel::Linear => dot,
            Kernel::Rbf { gamma } => {
                let (a, b) = norms_sq();
                (-gamma * (a + b - 2.0 * dot).max(0.0)).exp()
            }
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * dot + coef0).powi(degree as i32),
        }
    }

    /// The kernel's identity by bit pattern (`PartialEq` compares the
    /// parameters by value).
    pub(crate) fn bits(&self) -> (u8, u64, u64, u32) {
        match *self {
            Kernel::Linear => (0, 0, 0, 0),
            Kernel::Rbf { gamma } => (1, gamma.to_bits(), 0, 0),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (2, gamma.to_bits(), coef0.to_bits(), degree),
        }
    }

    /// A human-readable name for logs and experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Linear => "linear",
            Kernel::Rbf { .. } => "rbf",
            Kernel::Polynomial { .. } => "polynomial",
        }
    }
}

/// Inputs that stress bit-exactness, shared by the kernel-row, Gram and
/// scorer tests.
#[cfg(test)]
pub(crate) mod wild {
    use super::Kernel;
    use proptest::prelude::*;
    use textproc::SparseVector;

    /// One kernel of each kind.
    pub(crate) const KERNELS: [Kernel; 3] = [
        Kernel::Linear,
        Kernel::Rbf { gamma: 0.7 },
        Kernel::Polynomial {
            gamma: 0.3,
            coef0: 1.0,
            degree: 3,
        },
    ];

    /// NaNs of both signs, infinities, zeros of both signs (dropped on
    /// construction) and magnitudes whose products underflow to `±0.0`,
    /// mixed with ordinary values.
    pub(crate) fn value() -> impl Strategy<Value = f64> {
        (0u8..16, -2.0f64..2.0).prop_map(|(pick, v)| match pick {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => 0.0,
            5 => -0.0,
            6 => 1e-200,
            7 => -1e-200,
            _ => v,
        })
    }

    /// Up to seven such values at indices below `max_dim`.
    pub(crate) fn vector(max_dim: u32) -> impl Strategy<Value = SparseVector> {
        prop::collection::vec((0..max_dim, value()), 0..8).prop_map(SparseVector::from_pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::wild::KERNELS;
    use super::*;
    use proptest::prelude::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    fn norms_sq(zs: &[SparseVector]) -> Vec<f64> {
        zs.iter().map(SparseVector::norm_sq).collect()
    }

    #[test]
    fn linear_kernel_is_dot_product() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(1, 3.0), (2, 4.0)]);
        assert_eq!(Kernel::Linear.eval(&a, &b), 6.0);
    }

    #[test]
    fn rbf_is_one_on_identical_inputs() {
        let a = v(&[(0, 0.5), (3, 1.5)]);
        let k = Kernel::Rbf { gamma: 0.7 };
        assert!((k.eval(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_decreases_with_distance() {
        let k = Kernel::Rbf { gamma: 1.0 };
        let a = v(&[(0, 1.0)]);
        let near = v(&[(0, 0.9)]);
        let far = v(&[(1, 1.0)]);
        assert!(k.eval(&a, &near) > k.eval(&a, &far));
        assert!(k.eval(&a, &far) > 0.0);
    }

    #[test]
    fn polynomial_kernel() {
        let k = Kernel::Polynomial {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        let a = v(&[(0, 1.0)]);
        let b = v(&[(0, 2.0)]);
        assert!((k.eval(&a, &b) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_symmetry() {
        let a = v(&[(0, 1.0), (2, -1.0), (7, 0.3)]);
        let b = v(&[(1, 2.0), (2, 0.5), (7, -1e-3)]);
        for k in KERNELS {
            // Bitwise: the Gram fill mirrors each evaluated pair.
            assert_eq!(k.eval(&a, &b).to_bits(), k.eval(&b, &a).to_bits(), "{k:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_is_bit_identical_to_pairwise_eval(
            x in super::wild::vector(24),
            zs in prop::collection::vec(super::wild::vector(24), 0..6),
            far in super::wild::vector(3),
            shift in 0u32..2,
        ) {
            // `far` moved past every other index: a disjoint support, and a
            // query indexed beyond every stored vector (or stored vectors
            // beyond the query), depending on which side it lands.
            let far = SparseVector::from_pairs(far.iter().map(|(j, v)| (j + 1000, v)));
            let mut rows = zs.clone();
            rows.push(far.clone());
            rows.push(SparseVector::new());
            rows.push(x.clone());
            let x = if shift == 1 { far } else { x };
            for kernel in KERNELS {
                let mut out = vec![0.0; rows.len()];
                kernel.eval_row(&x, x.norm_sq(), &rows, &norms_sq(&rows), &mut out);
                for (z, got) in rows.iter().zip(&out) {
                    prop_assert_eq!(got.to_bits(), kernel.eval(z, &x).to_bits(), "{:?}", kernel);
                }
            }
        }
    }

    #[test]
    fn row_handles_indices_past_the_scatter_limit() {
        let top = u32::MAX;
        let x = v(&[(3, 2.0), (top - 1, 0.5), (top, f64::INFINITY)]);
        let zs = [
            v(&[(3, 1.5), (top, 1.0)]),
            v(&[(top - 2, 1.0), (top - 1, -4.0)]),
            v(&[(top - 2, f64::INFINITY)]),
        ];
        for kernel in KERNELS {
            let mut out = [0.0; 3];
            kernel.eval_row(&x, x.norm_sq(), &zs, &norms_sq(&zs), &mut out);
            for (z, got) in zs.iter().zip(out) {
                assert_eq!(got.to_bits(), kernel.eval(z, &x).to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Kernel::Linear.name(), "linear");
        assert_eq!(Kernel::default().name(), "rbf");
    }
}
