//! `predict_batch` ≡ the sequential `predict` loop, for every protocol.
//!
//! A protocol may override `predict_batch` (local-only fans the requests out
//! across cores); whatever it does, the batch must return the same tag sets
//! in request order and account exactly the same traffic as one `predict`
//! per request. PACE's retrieval and vote combination are checked against a
//! reference oracle in `pace.rs`'s unit tests; the linear and kernel fast
//! paths every protocol trains and scores with are pinned against their
//! scalar references in `ml`'s own tests.

use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2pclassify::{
    Cempar, CemparConfig, Centralized, CentralizedConfig, LocalOnly, P2PTagClassifier, Pace,
    PaceConfig,
};
use p2psim::{P2PNetwork, PeerId, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textproc::SparseVector;

/// Per-peer datasets over a richer tag universe than the unit tests: five
/// feature-aligned tags plus co-occurring combinations, so ensembles vote
/// over tags they only partially know.
fn peer_data(num_peers: usize, per_peer: usize, seed: u64) -> Vec<MultiLabelDataset> {
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

fn probes(seed: u64) -> Vec<SparseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..40)
        .map(|_| {
            let nnz = rng.gen_range(1..4usize);
            SparseVector::from_pairs(
                (0..nnz).map(|_| (rng.gen_range(0..5u32), rng.gen_range(0.2..1.4f64))),
            )
        })
        .collect()
}

fn network(num_peers: usize) -> P2PNetwork {
    P2PNetwork::new(SimConfig {
        num_peers,
        horizon_secs: 100_000,
        ..Default::default()
    })
}

/// Checks `predict_batch` against the sequential per-request `predict` loop
/// on a fresh identically-trained instance.
fn assert_batch_equals_sequential<P, F>(num_peers: usize, seed: u64, make: F)
where
    P: P2PTagClassifier,
    F: Fn() -> P,
{
    let data = peer_data(num_peers, 14, seed);
    let probes = probes(seed ^ 0xAA);
    let requests: Vec<(PeerId, &SparseVector)> = probes
        .iter()
        .enumerate()
        .map(|(i, p)| (PeerId((i % num_peers) as u64), p))
        .collect();

    let mut net_seq = network(num_peers);
    let mut seq = make();
    seq.train(&mut net_seq, &data).unwrap();
    let sequential: Vec<_> = requests
        .iter()
        .map(|&(peer, x)| seq.predict(&mut net_seq, peer, x))
        .collect();

    let mut net_batch = network(num_peers);
    let mut batch = make();
    batch.train(&mut net_batch, &data).unwrap();
    let batched = batch.predict_batch(&mut net_batch, &requests);

    assert_eq!(sequential, batched);
    // Communication-for-communication: the batch path must account exactly
    // the same traffic as the sequential loop.
    assert_eq!(
        net_seq.stats().total_messages(),
        net_batch.stats().total_messages()
    );
    assert_eq!(
        net_seq.stats().total_bytes(),
        net_batch.stats().total_bytes()
    );
}

#[test]
fn pace_predict_batch_equals_sequential() {
    assert_batch_equals_sequential(12, 81, || Pace::new(PaceConfig::default()));
}

#[test]
fn local_only_predict_batch_equals_sequential() {
    assert_batch_equals_sequential(6, 82, LocalOnly::new);
}

#[test]
fn cempar_default_predict_batch_equals_sequential() {
    assert_batch_equals_sequential(16, 83, || {
        Cempar::new(CemparConfig {
            regions: 4,
            ..CemparConfig::default()
        })
    });
}

#[test]
fn centralized_default_predict_batch_equals_sequential() {
    assert_batch_equals_sequential(8, 84, || Centralized::new(CentralizedConfig::default()));
}
