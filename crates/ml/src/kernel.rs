//! The kernel of CEMPaR's SVMs: the dot product `x · z` of two sparse
//! document vectors.
//!
//! The many-vector paths form their dot products by postings:
//! [`crate::svm::gram_matrix`], which every kernel fit and cascade merge
//! builds its Gram matrix with, chains the vectors per feature; and
//! [`crate::BatchKernelScorer`] prices a query through its postings index.
//! Both are bit-identical to the merge-join [`SparseVector::dot`].
//! `dot_row` — one vector scattered into a per-thread scratch, every other
//! vector gathering its own nonzeros — is the test oracle of both.

#[cfg(test)]
use std::cell::RefCell;
use textproc::SparseVector;

#[cfg(test)]
thread_local! {
    /// [`dot_row`]'s scatter of its fixed vector: `slot[j]` is one
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

/// The dot product `x · z` for every `z` of `zs`, written to `out` — the
/// row of `z.dot(x)` values, bit for bit.
///
/// `x` is scattered once into the thread's scratch; each `z` then walks its
/// own nonzeros in ascending index order and multiplies those whose index
/// the scratch marks as present in `x`, `z`'s value first. Those are the
/// products the merge-join [`SparseVector::dot`] forms for `z.dot(x)`, with
/// the same operands in the same order, summed in the same order from the
/// same `+0.0`, so the result equals the merge-join for every input —
/// non-finite values and products that underflow to `±0.0` included. The
/// mark is what keeps that true: a dense scratch without it would add
/// `0.0 · v` for each index only `z` holds, which is `NaN` when `v` is
/// infinite.
///
/// # Panics
/// Panics when `out` is not as long as `zs`.
#[cfg(test)]
pub(crate) fn dot_row(x: &SparseVector, zs: &[SparseVector], out: &mut [f64]) {
    assert_eq!(out.len(), zs.len(), "one output per row vector");
    let (xi, xv) = (x.indices(), x.values());
    // Only `x`'s indices below SCATTER_LIMIT are scattered, so no index (a
    // hostile frame can carry any `u32`) sizes an allocation; a `z` index
    // past the scratch's end is looked up in `x` by binary search.
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
        for (z, out) in zs.iter().zip(out) {
            let mut dot = 0.0;
            for (&j, &zv) in z.indices().iter().zip(z.values()) {
                let p = slot
                    .get(j as usize)
                    .map_or_else(|| beyond(j), |&p| p as usize);
                if p != 0 {
                    dot += zv * xv[p - 1];
                }
            }
            *out = dot;
        }
        for &j in &xi[..scattered] {
            slot[j as usize] = 0;
        }
    });
}

/// Inputs that stress bit-exactness, shared by the kernel-row, Gram and
/// scorer tests.
#[cfg(test)]
pub(crate) mod wild {
    use proptest::prelude::*;
    use textproc::SparseVector;

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
    use super::*;
    use proptest::prelude::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn linear_kernel_is_dot_product() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(1, 3.0), (2, 4.0)]);
        let mut out = [0.0];
        dot_row(&a, std::slice::from_ref(&b), &mut out);
        assert_eq!(out, [6.0]);
        assert_eq!(a.dot(&b), 6.0);
    }

    #[test]
    fn kernel_symmetry() {
        let a = v(&[(0, 1.0), (2, -1.0), (7, 0.3)]);
        let b = v(&[(1, 2.0), (2, 0.5), (7, -1e-3)]);
        // Bitwise: the Gram fill mirrors each evaluated pair.
        assert_eq!(a.dot(&b).to_bits(), b.dot(&a).to_bits());
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
            let mut out = vec![0.0; rows.len()];
            dot_row(&x, &rows, &mut out);
            for (z, got) in rows.iter().zip(&out) {
                prop_assert_eq!(got.to_bits(), z.dot(&x).to_bits());
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
        let mut out = [0.0; 3];
        dot_row(&x, &zs, &mut out);
        for (z, got) in zs.iter().zip(out) {
            assert_eq!(got.to_bits(), z.dot(&x).to_bits());
        }
    }
}
