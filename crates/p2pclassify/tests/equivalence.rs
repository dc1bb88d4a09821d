//! Scalar ↔ batched/CSR equivalence at the protocol level.
//!
//! The batched scoring engine (`ml::TagWeightMatrix`, `ml::BatchKernelScorer`),
//! the CSR-native / shared-Gram training engine
//! (`ml::svm::CsrLinearTrainer`, `OneVsAllTrainer::train_kernel_shared`) and
//! the parallel batch-prediction path must be drop-in replacements: for every
//! protocol, the `Batched` scoring backend and the `Csr` training backend must
//! produce *exactly* the same models, `TagPrediction`s and tag sets as the
//! pre-refactor `Scalar` loops — including through `refine()` and
//! `train_incremental` warm starts — and `predict_batch` must equal the
//! sequential per-document `predict` loop.

use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2pclassify::{
    Cempar, CemparConfig, Centralized, CentralizedConfig, LocalOnly, LocalOnlyConfig,
    P2PTagClassifier, Pace, PaceConfig, ScoringBackend, TrainingBackend, WireConfig,
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

/// The two ends being compared: the full pre-refactor reference stack
/// (scalar scoring + scalar training) against the full fast stack (batched
/// scoring + CSR/shared-Gram training). Any divergence anywhere in either
/// engine shows up as a score or prediction mismatch.
const REFERENCE: (ScoringBackend, TrainingBackend) =
    (ScoringBackend::Scalar, TrainingBackend::Scalar);
const FAST: (ScoringBackend, TrainingBackend) = (ScoringBackend::Batched, TrainingBackend::Csr);

/// Trains both stacks of a protocol on identical data/networks and checks
/// that scores and predictions agree exactly on every probe, from every peer.
fn assert_backends_agree<P, F>(num_peers: usize, seed: u64, make: F)
where
    P: P2PTagClassifier,
    F: Fn(ScoringBackend, TrainingBackend) -> P,
{
    let data = peer_data(num_peers, 14, seed);
    let mut net_scalar = network(num_peers);
    let mut net_batched = network(num_peers);
    let mut scalar = make(REFERENCE.0, REFERENCE.1);
    let mut batched = make(FAST.0, FAST.1);
    scalar.train(&mut net_scalar, &data).unwrap();
    batched.train(&mut net_batched, &data).unwrap();

    for (i, probe) in probes(seed ^ 0x55).iter().enumerate() {
        let peer = PeerId((i % num_peers) as u64);
        let s = scalar.scores(&mut net_scalar, peer, probe);
        let b = batched.scores(&mut net_batched, peer, probe);
        assert_eq!(s, b, "scores diverge on probe {i}");
        let sp = scalar.predict(&mut net_scalar, peer, probe);
        let bp = batched.predict(&mut net_batched, peer, probe);
        assert_eq!(sp, bp, "predictions diverge on probe {i}");
    }
}

/// The training-backend axis alone: identical (batched) scoring over models
/// trained by the scalar reference vs the CSR/shared-Gram engine.
fn assert_training_backends_agree<P, F>(num_peers: usize, seed: u64, make: F)
where
    P: P2PTagClassifier,
    F: Fn(ScoringBackend, TrainingBackend) -> P,
{
    let data = peer_data(num_peers, 14, seed);
    let mut net_a = network(num_peers);
    let mut net_b = network(num_peers);
    let mut scalar_trained = make(ScoringBackend::Batched, TrainingBackend::Scalar);
    let mut csr_trained = make(ScoringBackend::Batched, TrainingBackend::Csr);
    scalar_trained.train(&mut net_a, &data).unwrap();
    csr_trained.train(&mut net_b, &data).unwrap();
    for (i, probe) in probes(seed ^ 0x33).iter().enumerate() {
        let peer = PeerId((i % num_peers) as u64);
        assert_eq!(
            scalar_trained.scores(&mut net_a, peer, probe),
            csr_trained.scores(&mut net_b, peer, probe),
            "scores diverge on probe {i}"
        );
    }
    // Trained models must also ship identically (same wire accounting).
    assert_eq!(
        net_a.stats().total_bytes(),
        net_b.stats().total_bytes(),
        "training backends propagate byte-identical models"
    );
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

fn pace_with(backend: ScoringBackend, train_backend: TrainingBackend) -> Pace {
    Pace::new(PaceConfig {
        backend,
        train_backend,
        ..PaceConfig::default()
    })
}

fn cempar_with(regions: usize) -> impl Fn(ScoringBackend, TrainingBackend) -> Cempar {
    move |backend, train_backend| {
        Cempar::new(CemparConfig {
            backend,
            train_backend,
            regions,
            ..CemparConfig::default()
        })
    }
}

fn centralized_with(backend: ScoringBackend, train_backend: TrainingBackend) -> Centralized {
    Centralized::new(CentralizedConfig {
        backend,
        train_backend,
        ..CentralizedConfig::default()
    })
}

fn local_with(backend: ScoringBackend, train_backend: TrainingBackend) -> LocalOnly {
    LocalOnly::new(LocalOnlyConfig {
        backend,
        train_backend,
        ..LocalOnlyConfig::default()
    })
}

#[test]
fn pace_backends_agree() {
    assert_backends_agree(12, 71, pace_with);
}

#[test]
fn pace_backends_agree_without_lsh() {
    assert_backends_agree(10, 72, |backend, train_backend| {
        Pace::new(PaceConfig {
            backend,
            train_backend,
            use_lsh: false,
            ..PaceConfig::default()
        })
    });
}

#[test]
fn cempar_backends_agree() {
    assert_backends_agree(16, 73, cempar_with(4));
}

#[test]
fn centralized_backends_agree() {
    assert_backends_agree(8, 74, centralized_with);
}

#[test]
fn local_only_backends_agree() {
    assert_backends_agree(6, 75, local_with);
}

#[test]
fn pace_training_backends_agree() {
    assert_training_backends_agree(12, 76, pace_with);
}

#[test]
fn cempar_training_backends_agree() {
    assert_training_backends_agree(16, 77, cempar_with(4));
}

#[test]
fn centralized_training_backends_agree() {
    assert_training_backends_agree(8, 78, centralized_with);
}

#[test]
fn local_only_training_backends_agree() {
    assert_training_backends_agree(6, 79, local_with);
}

#[test]
fn pace_predict_batch_equals_sequential() {
    assert_batch_equals_sequential(12, 81, || Pace::new(PaceConfig::default()));
}

#[test]
fn local_only_predict_batch_equals_sequential() {
    assert_batch_equals_sequential(6, 82, || LocalOnly::new(LocalOnlyConfig::default()));
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

/// Trains both stacks, drives them through an identical sequence of
/// `refine()` calls followed by a `train_incremental` round, and checks
/// bit-identity of scores and predictions after *each* mutation — not just
/// after initial training. This pins the invariant that every model-rebuild
/// path (refinement retrain + re-propagation, warm-start incremental
/// training — both cold *and* warm CSR fits) keeps the fast structures in
/// lockstep with the scalar reference.
fn assert_backends_agree_through_refine_and_incremental<P, F>(num_peers: usize, seed: u64, make: F)
where
    P: P2PTagClassifier,
    F: Fn(ScoringBackend, TrainingBackend) -> P,
{
    let data = peer_data(num_peers, 14, seed);
    let mut net_s = network(num_peers);
    let mut net_b = network(num_peers);
    let mut scalar = make(REFERENCE.0, REFERENCE.1);
    let mut batched = make(FAST.0, FAST.1);
    scalar.train(&mut net_s, &data).unwrap();
    batched.train(&mut net_b, &data).unwrap();

    let assert_agree =
        |scalar: &P, batched: &P, net_s: &mut P2PNetwork, net_b: &mut P2PNetwork, stage: &str| {
            for (i, probe) in probes(seed ^ 0x77).iter().enumerate().take(12) {
                let peer = PeerId((i % num_peers) as u64);
                assert_eq!(
                    scalar.scores(net_s, peer, probe),
                    batched.scores(net_b, peer, probe),
                    "scores diverge after {stage} on probe {i}"
                );
                assert_eq!(
                    scalar.predict(net_s, peer, probe),
                    batched.predict(net_b, peer, probe),
                    "predictions diverge after {stage} on probe {i}"
                );
            }
        };

    // A sequence of refinements teaching a new tag plus corrections of an
    // existing one, spread over two peers.
    for i in 0..6 {
        let (v, tags): (SparseVector, Vec<TagId>) = if i % 2 == 0 {
            (
                SparseVector::from_pairs([(4, 1.0 + 0.1 * i as f64)]),
                vec![9],
            )
        } else {
            (SparseVector::from_pairs([(0, 0.9), (2, 0.5)]), vec![1, 3])
        };
        let ex = MultiLabelExample::new(v, tags);
        let peer = PeerId((i % 2 + 1) as u64);
        scalar.refine(&mut net_s, peer, &ex).unwrap();
        batched.refine(&mut net_b, peer, &ex).unwrap();
        assert_agree(
            &scalar,
            &batched,
            &mut net_s,
            &mut net_b,
            &format!("refine {i}"),
        );
    }

    // An incremental training round: two peers receive new arrivals, one of
    // them carrying a tag the ensemble has never seen. The touched peers'
    // datasets are large enough that the warm SGD path (not only the small-n
    // cold delegation) is exercised on the linear protocols.
    let mut new_data = vec![MultiLabelDataset::new(); num_peers];
    for i in 0..8 {
        new_data[0].push(MultiLabelExample::new(
            SparseVector::from_pairs([(3, 0.8 + 0.05 * i as f64)]),
            [4],
        ));
        new_data[num_peers - 1].push(MultiLabelExample::new(
            SparseVector::from_pairs([(5, 1.0 + 0.05 * i as f64)]),
            [11],
        ));
    }
    scalar.train_incremental(&mut net_s, &new_data).unwrap();
    batched.train_incremental(&mut net_b, &new_data).unwrap();
    assert_agree(
        &scalar,
        &batched,
        &mut net_s,
        &mut net_b,
        "train_incremental",
    );
    assert_eq!(
        net_s.stats().total_messages(),
        net_b.stats().total_messages(),
        "both backends account identical traffic"
    );
}

#[test]
fn pace_backends_agree_through_refine_and_incremental() {
    assert_backends_agree_through_refine_and_incremental(8, 91, pace_with);
}

/// Per-peer data over 24 features in four interest groups: a peer draws
/// mostly from its own group's six features and sometimes from the next
/// group's, so a query collides with part of the index, not all of it.
fn grouped_peer_data(num_peers: usize, per_peer: usize, seed: u64) -> Vec<MultiLabelDataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_peers)
        .map(|p| {
            let mut ds = MultiLabelDataset::new();
            for _ in 0..per_peer {
                let group = (p as u32 + u32::from(rng.gen_bool(0.2))) % 4;
                let nnz = rng.gen_range(2..5usize);
                let vector = SparseVector::from_pairs(
                    (0..nnz).map(|_| (group * 6 + rng.gen_range(0..6u32), rng.gen_range(0.3..1.5))),
                );
                let mut tags = vec![group];
                if vector.get(group * 6) > 0.9 {
                    tags.push(8 + group % 3);
                }
                ds.push(MultiLabelExample::new(vector, tags));
            }
            ds
        })
        .collect()
}

/// PACE at a scale where model retrieval is really selective: 150 peers
/// put ≈ 450 centroids in the index, against the 36 entries a query
/// over-fetches, so queries take both the collision path and the full-scan
/// fallback. Incremental rounds and refinements re-propagate models, which
/// tombstones their old centroids, and the round that touches every peer
/// compacts the index. After each stage the Scalar and Batched stacks must
/// score and predict identically, and `predict_batch` must equal the
/// sequential `predict` loop.
#[test]
fn pace_backends_agree_at_scale_through_tombstones_and_compaction() {
    let num_peers = 150;
    let data = grouped_peer_data(num_peers, 10, 111);
    let mut net_s = network(num_peers);
    let mut net_b = network(num_peers);
    let mut scalar = pace_with(REFERENCE.0, REFERENCE.1);
    let mut batched = pace_with(FAST.0, FAST.1);
    scalar.train(&mut net_s, &data).unwrap();
    batched.train(&mut net_b, &data).unwrap();

    // Probes spanning a whole group look like its centroids and collide
    // with many of them; documents like the peers' own collide with fewer,
    // and scattered ones mostly fall back to the full scan (features past
    // 23 are in no centroid).
    let mut rng = StdRng::seed_from_u64(112);
    let probes: Vec<SparseVector> = (0..12)
        .map(|i| SparseVector::from_pairs((0..6).map(|f| ((i % 4) * 6 + f, 0.5 + 0.1 * f as f64))))
        .chain(
            grouped_peer_data(4, 3, 112)
                .iter()
                .flat_map(|ds| ds.iter().map(|(x, _)| x.clone())),
        )
        .chain((0..16).map(|_| {
            let nnz = rng.gen_range(1..6usize);
            SparseVector::from_pairs(
                (0..nnz).map(|_| (rng.gen_range(0..61u32), rng.gen_range(0.2..1.4))),
            )
        }))
        .collect();
    let requests: Vec<(PeerId, &SparseVector)> = probes
        .iter()
        .enumerate()
        .map(|(i, p)| (PeerId((i * 37 % num_peers) as u64), p))
        .collect();
    let assert_agree = |scalar: &Pace,
                        batched: &Pace,
                        net_s: &mut P2PNetwork,
                        net_b: &mut P2PNetwork,
                        stage: &str| {
        for (i, &(peer, probe)) in requests.iter().enumerate() {
            assert_eq!(
                scalar.scores(net_s, peer, probe),
                batched.scores(net_b, peer, probe),
                "scores diverge after {stage} on probe {i}"
            );
        }
        let sequential: Vec<_> = requests
            .iter()
            .map(|&(peer, x)| scalar.predict(net_s, peer, x))
            .collect();
        assert_eq!(
            sequential,
            batched.predict_batch(net_b, &requests),
            "predictions diverge after {stage}"
        );
    };
    assert_agree(&scalar, &batched, &mut net_s, &mut net_b, "train");

    // Every peer, then every third peer, gets new examples.
    for (round, stride) in [1, 3].into_iter().enumerate() {
        let fresh = grouped_peer_data(num_peers, 3, 113 + round as u64);
        let new_data: Vec<MultiLabelDataset> = fresh
            .into_iter()
            .enumerate()
            .map(|(p, ds)| {
                if p % stride == 0 {
                    ds
                } else {
                    MultiLabelDataset::new()
                }
            })
            .collect();
        scalar.train_incremental(&mut net_s, &new_data).unwrap();
        batched.train_incremental(&mut net_b, &new_data).unwrap();
        let stage = format!("train_incremental round {round}");
        assert_agree(&scalar, &batched, &mut net_s, &mut net_b, &stage);
    }

    for (i, (x, tags)) in data[7].iter().take(4).enumerate() {
        let peer = PeerId((7 + 40 * i) as u64);
        let ex = MultiLabelExample::new(x.clone(), tags.iter().copied().chain([15]));
        scalar.refine(&mut net_s, peer, &ex).unwrap();
        batched.refine(&mut net_b, peer, &ex).unwrap();
    }
    assert_agree(&scalar, &batched, &mut net_s, &mut net_b, "refine");
}

#[test]
fn cempar_backends_agree_through_refine_and_incremental() {
    assert_backends_agree_through_refine_and_incremental(12, 92, cempar_with(3));
}

#[test]
fn local_only_backends_agree_through_refine_and_incremental() {
    assert_backends_agree_through_refine_and_incremental(6, 93, local_with);
}

#[test]
fn centralized_backends_agree_through_refine_and_incremental() {
    assert_backends_agree_through_refine_and_incremental(6, 94, centralized_with);
}

/// The wire-cost axis: the legacy `wire_size()` estimator against the real
/// measured codec at its lossless defaults. Lossless frames round-trip every
/// propagated model, query and response **bit-identically**, so switching the
/// accounting backend must change *no* score or prediction anywhere — through
/// initial training, refinements and incremental rounds. Only the byte
/// totals differ (that divergence is exactly what the codec makes
/// measurable); for the protocols that propagate models or data during
/// training, the measured training bytes must come in **below** the legacy
/// estimate (the delta-varint codec compresses, never inflates).
fn assert_wire_costs_agree<P, F>(num_peers: usize, seed: u64, charges_train_bytes: bool, make: F)
where
    P: P2PTagClassifier,
    F: Fn(WireConfig) -> P,
{
    let data = peer_data(num_peers, 14, seed);
    let mut net_e = network(num_peers);
    let mut net_m = network(num_peers);
    let mut estimated = make(WireConfig::estimated());
    let mut measured = make(WireConfig::default());
    estimated.train(&mut net_e, &data).unwrap();
    measured.train(&mut net_m, &data).unwrap();
    assert_eq!(
        net_e.stats().total_messages(),
        net_m.stats().total_messages(),
        "both wire backends send the same messages"
    );
    if charges_train_bytes {
        let est = net_e.stats().total_bytes();
        let meas = net_m.stats().total_bytes();
        assert!(
            meas < est,
            "measured training bytes ({meas}) must undercut the estimate ({est})"
        );
    }

    let assert_agree = |estimated: &P,
                        measured: &P,
                        net_e: &mut P2PNetwork,
                        net_m: &mut P2PNetwork,
                        stage: &str| {
        for (i, probe) in probes(seed ^ 0x5A).iter().enumerate().take(16) {
            let peer = PeerId((i % num_peers) as u64);
            assert_eq!(
                estimated.scores(net_e, peer, probe),
                measured.scores(net_m, peer, probe),
                "scores diverge after {stage} on probe {i}"
            );
            assert_eq!(
                estimated.predict(net_e, peer, probe),
                measured.predict(net_m, peer, probe),
                "predictions diverge after {stage} on probe {i}"
            );
        }
    };
    assert_agree(&estimated, &measured, &mut net_e, &mut net_m, "train");

    for i in 0..4 {
        let ex = MultiLabelExample::new(
            SparseVector::from_pairs([(4, 1.0 + 0.1 * i as f64)]),
            vec![9],
        );
        let peer = PeerId((i % 2 + 1) as u64);
        estimated.refine(&mut net_e, peer, &ex).unwrap();
        measured.refine(&mut net_m, peer, &ex).unwrap();
    }
    assert_agree(&estimated, &measured, &mut net_e, &mut net_m, "refine");

    let mut new_data = vec![MultiLabelDataset::new(); num_peers];
    for i in 0..6 {
        new_data[0].push(MultiLabelExample::new(
            SparseVector::from_pairs([(3, 0.8 + 0.05 * i as f64)]),
            [4],
        ));
    }
    estimated.train_incremental(&mut net_e, &new_data).unwrap();
    measured.train_incremental(&mut net_m, &new_data).unwrap();
    assert_agree(
        &estimated,
        &measured,
        &mut net_e,
        &mut net_m,
        "train_incremental",
    );
}

#[test]
fn pace_wire_costs_agree() {
    assert_wire_costs_agree(10, 101, true, |wire| {
        Pace::new(PaceConfig {
            wire,
            ..PaceConfig::default()
        })
    });
}

#[test]
fn cempar_wire_costs_agree() {
    assert_wire_costs_agree(16, 102, true, |wire| {
        Cempar::new(CemparConfig {
            wire,
            regions: 4,
            ..CemparConfig::default()
        })
    });
}

#[test]
fn centralized_wire_costs_agree() {
    assert_wire_costs_agree(8, 103, true, |wire| {
        Centralized::new(CentralizedConfig {
            wire,
            ..CentralizedConfig::default()
        })
    });
}

#[test]
fn local_only_wire_costs_agree() {
    assert_wire_costs_agree(6, 104, false, |wire| {
        LocalOnly::new(LocalOnlyConfig {
            wire,
            ..LocalOnlyConfig::default()
        })
    });
}

/// A large single-peer dataset forces the Centralized pooled warm refit onto
/// the real warm-SGD path (n ≥ warm_min_examples), pinning CSR warm-start
/// equivalence where it matters most.
#[test]
fn centralized_warm_sgd_training_backends_agree_at_scale() {
    let num_peers = 6;
    let data = peer_data(num_peers, 20, 95);
    let mut net_a = network(num_peers);
    let mut net_b = network(num_peers);
    let mut a = centralized_with(ScoringBackend::Batched, TrainingBackend::Scalar);
    let mut b = centralized_with(ScoringBackend::Batched, TrainingBackend::Csr);
    a.train(&mut net_a, &data).unwrap();
    b.train(&mut net_b, &data).unwrap();
    // Pool is now ~120 examples (> warm_min_examples = 64): this round warm
    // refits with real SGD passes on both backends.
    let mut new_data = vec![MultiLabelDataset::new(); num_peers];
    for i in 0..10 {
        new_data[2].push(MultiLabelExample::new(
            SparseVector::from_pairs([(6, 1.0 + 0.03 * i as f64)]),
            [13],
        ));
    }
    a.train_incremental(&mut net_a, &new_data).unwrap();
    b.train_incremental(&mut net_b, &new_data).unwrap();
    for (i, probe) in probes(96).iter().enumerate() {
        let peer = PeerId((i % num_peers) as u64);
        assert_eq!(
            a.scores(&mut net_a, peer, probe),
            b.scores(&mut net_b, peer, probe),
            "warm-SGD-trained scores diverge on probe {i}"
        );
    }
}
