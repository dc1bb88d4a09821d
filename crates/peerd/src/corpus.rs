//! A small deterministic tagging corpus for the loopback harness and the
//! sim-vs-socket equivalence suite.
//!
//! Mirrors the generator `p2pclassify`'s equivalence suite uses: five
//! feature-aligned tags plus co-occurring combinations, so ensembles vote
//! over tags they only partially know. Both drivers are fed from this module
//! with the same seed — identical inputs are the precondition for demanding
//! identical outputs.

use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textproc::SparseVector;

/// Per-peer training datasets: `num_peers` slices of `per_peer` documents.
pub fn peer_data(num_peers: usize, per_peer: usize, seed: u64) -> Vec<MultiLabelDataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_peers)
        .map(|_| {
            let mut ds = MultiLabelDataset::new();
            for _ in 0..per_peer {
                let which = rng.gen_range(0..5u32);
                let a = 0.7 + rng.gen_range(0.0..0.6);
                let b = 0.7 + rng.gen_range(0.0..0.6);
                let (vector, tags): (SparseVector, Vec<TagId>) = match which {
                    0 => (SparseVector::from_pairs([(0, a)]), vec![1]),
                    1 => (SparseVector::from_pairs([(1, a)]), vec![2]),
                    2 => (SparseVector::from_pairs([(2, a), (0, 0.2)]), vec![3]),
                    3 => (SparseVector::from_pairs([(0, a), (1, b)]), vec![1, 2]),
                    _ => (SparseVector::from_pairs([(2, a), (3, b)]), vec![3, 4]),
                };
                ds.push(MultiLabelExample::new(vector, tags));
            }
            ds
        })
        .collect()
}

/// Untagged probe documents to auto-tag after training.
pub fn probes(count: usize, seed: u64) -> Vec<SparseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let nnz = rng.gen_range(1..4usize);
            SparseVector::from_pairs(
                (0..nnz).map(|_| (rng.gen_range(0..5u32), rng.gen_range(0.2..1.4f64))),
            )
        })
        .collect()
}
