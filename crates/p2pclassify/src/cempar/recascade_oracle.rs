//! The incremental re-cascade against its oracles: after every step of a
//! scripted session, each region's models and scorer decisions must equal a
//! from-scratch cascade of the region's current contributions, bit for bit —
//! under the monolithic [`Cempar`] and under the sans-io [`CemparCore`] —
//! and a refine batch, which re-cascades once at its end, must leave what
//! the same corrections applied one by one leave.

use super::*;
use crate::sansio::{CemparCore, ProtocolCore};
use ml::svm::BinaryClassifier;
use p2psim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The from-scratch cascade the incremental one must reproduce: every tag any
/// contributor carries, merged from its contributors' classifiers in
/// iteration order.
fn cascade_region_tags<'a>(
    config: &CemparConfig,
    contributed: impl Iterator<Item = &'a OneVsAllModel<KernelSvm>>,
) -> BTreeMap<TagId, KernelSvm> {
    let cascade = CascadeSvm::new(config.cascade.clone());
    let mut tags: BTreeMap<TagId, Vec<KernelSvm>> = BTreeMap::new();
    for model in contributed {
        for (tag, clf) in model.iter() {
            tags.entry(tag).or_default().push(clf.clone());
        }
    }
    tags.into_iter()
        .filter_map(|(tag, models)| cascade.merge(&models).map(|m| (tag, m)))
        .collect()
}

fn probes() -> Vec<SparseVector> {
    vec![
        SparseVector::from_pairs([(0, 1.0)]),
        SparseVector::from_pairs([(1, 0.7), (4, 0.4)]),
        SparseVector::from_pairs([(0, 0.3), (1, 0.9), (5, 1.2)]),
        SparseVector::from_pairs([(5, 1.0), (9, 2.0)]),
        SparseVector::new(),
    ]
}

/// One region's cascaded state equals the oracle over its contributions:
/// same tags, bit-equal models, bit-equal scorer decisions.
fn assert_matches_oracle<'a>(
    config: &CemparConfig,
    contributed: impl Iterator<Item = &'a OneVsAllModel<KernelSvm>>,
    cascade: &RegionCascade,
    step: &str,
) {
    assert!(cascade.dirty.is_empty(), "{step}: dirty tags left");
    let oracle = cascade_region_tags(config, contributed);
    let tags = |m: &BTreeMap<TagId, KernelSvm>| m.keys().copied().collect::<Vec<_>>();
    assert_eq!(tags(&cascade.regional), tags(&oracle), "{step}");
    for (tag, model) in &oracle {
        assert!(cascade.regional[tag].bit_eq(model), "{step}: tag {tag}");
    }
    for x in probes() {
        let got = cascade.scorer.decisions(&x);
        assert_eq!(got.len(), oracle.len(), "{step}");
        for ((tag, decision), (want_tag, model)) in got.into_iter().zip(&oracle) {
            assert_eq!(tag, *want_tag, "{step}");
            assert_eq!(
                decision.to_bits(),
                model.decision(&x).to_bits(),
                "{step}: tag {tag}"
            );
        }
    }
}

fn assert_cempar_matches_oracle(cempar: &Cempar, step: &str) {
    for state in cempar.regions.iter().flatten() {
        assert_matches_oracle(
            &cempar.config,
            state.contributed.values(),
            &state.cascade,
            step,
        );
    }
}

/// A document about topic `tag` (its feature is `tag - 1`), sometimes with a
/// second tag and feature.
fn example(rng: &mut StdRng, tag: TagId) -> MultiLabelExample {
    let mut pairs = vec![(tag - 1, 0.8 + rng.gen_range(0.0..0.4))];
    let mut tags = vec![tag];
    if rng.gen_bool(0.3) {
        let other = rng.gen_range(1..3);
        pairs.push((other - 1, 0.5 + rng.gen_range(0.0..0.4)));
        tags.push(other);
    }
    MultiLabelExample::new(SparseVector::from_pairs(pairs), tags)
}

/// A document about a topic drawn from `1..=max_tag`.
fn any_example(rng: &mut StdRng, max_tag: TagId) -> MultiLabelExample {
    let tag = rng.gen_range(1..=max_tag);
    example(rng, tag)
}

#[test]
fn cempar_recascade_equals_a_from_scratch_cascade_after_every_step() {
    const PEERS: usize = 16;
    let mut rng = StdRng::seed_from_u64(26);
    let mut net = P2PNetwork::new(SimConfig {
        num_peers: PEERS,
        horizon_secs: 100_000,
        ..Default::default()
    });
    let mut cempar = Cempar::new(CemparConfig {
        regions: 3,
        ..Default::default()
    });
    // Two peers of one region start with nothing, so their first
    // corrections cold-train one-example models (a single support vector
    // each): the same new tag on both leaves that tag's pool single-class.
    let (a, b) = (0..PEERS as u64)
        .flat_map(|a| (a + 1..PEERS as u64).map(move |b| (PeerId(a), PeerId(b))))
        .find(|&(a, b)| cempar.region_of_peer(a) == cempar.region_of_peer(b))
        .expect("16 peers over 3 regions share one");
    let others: Vec<PeerId> = (0..PEERS)
        .map(PeerId::from)
        .filter(|&p| p != a && p != b)
        .collect();
    let mut data = vec![MultiLabelDataset::new(); PEERS];
    for &p in &others {
        for _ in 0..8 {
            data[p.index()].push(any_example(&mut rng, 2));
        }
    }
    cempar.train(&mut net, &data).unwrap();
    assert_cempar_matches_oracle(&cempar, "train");

    let mut new_data = vec![MultiLabelDataset::new(); PEERS];
    for p in &others[..3] {
        for _ in 0..3 {
            new_data[p.index()].push(any_example(&mut rng, 3));
        }
    }
    cempar.train_incremental(&mut net, &new_data).unwrap();
    assert_cempar_matches_oracle(&cempar, "train_incremental");

    for i in 0..40 {
        let (peer, ex) = match i {
            // A tag new to a trained peer.
            3 => (others[4], example(&mut rng, 5)),
            // The two one-example peers, on the same new tag.
            6 => (a, example(&mut rng, 9)),
            7 => (b, example(&mut rng, 9)),
            _ => (
                others[rng.gen_range(0..others.len())],
                any_example(&mut rng, 3),
            ),
        };
        cempar.refine(&mut net, peer, &ex).unwrap();
        assert_cempar_matches_oracle(&cempar, &format!("refine {i}"));
        if i == 7 {
            let region = cempar.regions[cempar.region_of_peer(a)].as_ref().unwrap();
            let pooled = &region.cascade.regional[&9];
            assert!(
                pooled.support_vectors().iter().all(|sv| sv.label),
                "tag 9's pool is single-class"
            );
        }
        if i == 20 {
            // The super-peer of a's region crashes and loses the region; its
            // contributors re-contribute on the next incremental round.
            let sp = cempar.regions[cempar.region_of_peer(a)]
                .as_ref()
                .unwrap()
                .super_peer;
            cempar.on_crash_restart(&mut net, sp);
            assert_cempar_matches_oracle(&cempar, "crash");
            cempar
                .train_incremental(&mut net, &vec![MultiLabelDataset::new(); PEERS])
                .unwrap();
            assert_cempar_matches_oracle(&cempar, "re-contribution");
            let region = cempar.regions[cempar.region_of_peer(a)].as_ref().unwrap();
            assert!(region.contributed.contains_key(&a));
        }
    }
    // One batch over several regions, with a peer corrected twice: one
    // re-cascade at its end.
    let batch: Vec<(PeerId, MultiLabelExample)> = (0..8)
        .map(|i| {
            let peer = if i % 3 == 0 {
                a
            } else {
                others[i * 2 % others.len()]
            };
            (peer, any_example(&mut rng, 3))
        })
        .collect();
    let batch: Vec<(PeerId, &MultiLabelExample)> = batch.iter().map(|(p, x)| (*p, x)).collect();
    let results = cempar.refine_batch(&mut net, &batch);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    assert_cempar_matches_oracle(&cempar, "refine batch");
}

#[test]
fn core_recascade_equals_a_from_scratch_cascade_after_every_install() {
    let config = CemparConfig {
        regions: 2,
        ..Default::default()
    };
    let peers: Vec<PeerId> = (0..8).map(PeerId).collect();
    let mut observer = CemparCore::new(PeerId(0), peers, config.clone());
    let mut rng = StdRng::seed_from_u64(15);
    let directory = SuperPeerDirectory::new(config.regions);
    let check = |observer: &mut CemparCore, source, version, model: OneVsAllModel<KernelSvm>| {
        let parts = wire::encode_kernel_model(&model, WeightPrecision::F64);
        let frame = wire::encode_install(source, version, &[&parts]);
        observer.ingest(0, PeerId(source), &frame);
        let regions: Vec<usize> = observer.regions.keys().copied().collect();
        for region in regions {
            observer.ensure_cascade(region);
            let slot = &observer.regions[&region];
            let contributed = slot.contributed.values().map(|(_, m)| m);
            let step = format!("source {source} v{version}, region {region}");
            assert_matches_oracle(&config, contributed, &slot.cascade, &step);
        }
    };
    let mut data: Vec<MultiLabelDataset> = (0..7)
        .map(|_| {
            let mut ds = MultiLabelDataset::new();
            for _ in 0..6 {
                ds.push(any_example(&mut rng, 3));
            }
            ds
        })
        .collect();
    let train = |ds: &MultiLabelDataset| train_cempar_local(&config, ds).unwrap();
    let v1: Vec<OneVsAllModel<KernelSvm>> = data.iter().map(train).collect();
    for (source, model) in v1.iter().enumerate().skip(1) {
        check(&mut observer, source as u64, 1, model.clone());
    }
    // Newer versions: more data with a new tag, a model that lost a tag, and
    // one bit-identical to what is held (which dirties nothing).
    data[1].push(example(&mut rng, 6));
    check(&mut observer, 1, 2, train(&data[1]));
    let fewer = MultiLabelDataset::from_examples(
        (0..5)
            .map(|i| {
                MultiLabelExample::new(SparseVector::from_pairs([(0, 1.0 + 0.1 * i as f64)]), [1])
            })
            .collect(),
    );
    assert!(v1[2].num_tags() > train(&fewer).num_tags());
    check(&mut observer, 2, 2, train(&fewer));
    let region = directory.region_of_key(PeerId(3).ring_key());
    let parts = wire::encode_kernel_model(&v1[3], WeightPrecision::F64);
    observer.ingest(0, PeerId(3), &wire::encode_install(3, 2, &[&parts]));
    assert!(observer.regions[&region].cascade.dirty.is_empty());
    check(&mut observer, 3, 3, v1[3].clone());
    // A stale version installs nothing.
    check(&mut observer, 1, 1, v1[1].clone());
    check(&mut observer, 4, 2, train(&data[5]));
}

/// Two bit-equal local models: same tags, bit-equal classifiers and threshold.
fn models_bit_eq(a: &OneVsAllModel<KernelSvm>, b: &OneVsAllModel<KernelSvm>) -> bool {
    a.threshold().to_bits() == b.threshold().to_bits()
        && a.tags().eq(b.tags())
        && a.iter().zip(b.iter()).all(|((_, x), (_, y))| x.bit_eq(y))
}

/// Everything a correction can change, compared between a batched and a
/// one-by-one instance: every region (super-peer, contributions, cascaded
/// models and scorer decisions), the peers' local data and pending buffers,
/// the send path's counters and the network's per-kind traffic.
fn assert_same_state(
    (batched, batched_net): (&Cempar, &P2PNetwork),
    (oracle, oracle_net): (&Cempar, &P2PNetwork),
    step: &str,
) {
    assert_eq!(batched.regions.len(), oracle.regions.len(), "{step}");
    for (i, (got, want)) in batched.regions.iter().zip(&oracle.regions).enumerate() {
        let (got, want) = match (got, want) {
            (Some(got), Some(want)) => (got, want),
            (None, None) => continue,
            _ => panic!("{step}: region {i} populated on one side only"),
        };
        assert_eq!(got.super_peer, want.super_peer, "{step}: region {i}");
        let peers = |s: &RegionState| s.contributed.keys().copied().collect::<Vec<_>>();
        assert_eq!(peers(got), peers(want), "{step}: region {i}");
        for (peer, model) in &got.contributed {
            let held = &want.contributed[peer];
            assert!(models_bit_eq(model, held), "{step}: region {i}, {peer:?}");
        }
        assert!(got.cascade.dirty.is_empty(), "{step}: region {i} dirty");
        let tags = |c: &RegionCascade| c.regional.keys().copied().collect::<Vec<_>>();
        assert_eq!(
            tags(&got.cascade),
            tags(&want.cascade),
            "{step}: region {i}"
        );
        for (tag, model) in &got.cascade.regional {
            let held = &want.cascade.regional[tag];
            assert!(model.bit_eq(held), "{step}: region {i}, tag {tag}");
        }
        for x in probes() {
            let bits = |c: &RegionCascade| {
                let decisions = c.scorer.decisions(&x).into_iter();
                decisions.map(|(t, d)| (t, d.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(
                bits(&got.cascade),
                bits(&want.cascade),
                "{step}: region {i}"
            );
        }
    }
    assert_eq!(batched.local_data, oracle.local_data, "{step}");
    assert_eq!(batched.pending, oracle.pending, "{step}");
    assert_eq!(batched.link_stats(), oracle.link_stats(), "{step}");
    let (got, want) = (batched_net.stats(), oracle_net.stats());
    for &kind in MessageKind::all() {
        assert_eq!(got.kind(kind), want.kind(kind), "{step}: {kind:?}");
    }
    assert_eq!(got.total_bytes(), want.total_bytes(), "{step}");
    assert_eq!(got.total_messages(), want.total_messages(), "{step}");
    assert_eq!(got.faults, want.faults, "{step}");
}

/// Probe scores through the whole query path, as `(tag, score bits)` per
/// probe and querying peer. Queries send, so both sides query alike.
fn probe_score_bits(
    cempar: &Cempar,
    net: &mut P2PNetwork,
) -> Vec<Result<Vec<(TagId, u64)>, ProtocolError>> {
    let online: Vec<PeerId> = net.online_peers().collect();
    let mut scored = Vec::new();
    for peer in online.into_iter().step_by(3) {
        for x in probes() {
            let scores = cempar.scores(net, peer, &x);
            scored.push(scores.map(|s| s.iter().map(|p| (p.tag, p.score.to_bits())).collect()));
        }
    }
    scored
}

const BATCH_PEERS: usize = 24;

/// A trained CEMPaR instance over a churned network, with `cold` peers that
/// held no data at training time (they never contributed), after `wait`
/// seconds of churn. Deterministic: two calls build equal instances.
fn churned_cempar(faults: p2psim::FaultPlan, cold: &[PeerId], wait: u64) -> (Cempar, P2PNetwork) {
    use p2psim::churn::ChurnModel;
    let mut net = P2PNetwork::new(SimConfig {
        num_peers: BATCH_PEERS,
        churn: ChurnModel::Exponential {
            mean_session_secs: 900.0,
            mean_offline_secs: 300.0,
        },
        horizon_secs: 100_000,
        faults,
        ..Default::default()
    });
    let mut cempar = Cempar::new(CemparConfig {
        regions: 3,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(46);
    let mut data = vec![MultiLabelDataset::new(); BATCH_PEERS];
    for (i, ds) in data.iter_mut().enumerate() {
        if !cold.contains(&PeerId::from(i)) {
            for _ in 0..6 {
                ds.push(any_example(&mut rng, 3));
            }
        }
    }
    cempar.train(&mut net, &data).unwrap();
    net.advance(p2psim::SimTime::from_secs(wait));
    (cempar, net)
}

/// Applies `batch` to `batched` as one refine batch and to `oracle` one
/// correction at a time, then holds the two to the same results and state.
fn apply_both(
    batched: (&mut Cempar, &mut P2PNetwork),
    oracle: (&mut Cempar, &mut P2PNetwork),
    batch: &[(PeerId, MultiLabelExample)],
    step: &str,
) -> Vec<Result<(), ProtocolError>> {
    let batch: Vec<(PeerId, &MultiLabelExample)> = batch.iter().map(|(p, x)| (*p, x)).collect();
    let got = batched.0.refine_batch(batched.1, &batch);
    let want: Vec<_> = batch
        .iter()
        .map(|&(peer, x)| oracle.0.refine(oracle.1, peer, x))
        .collect();
    assert_eq!(got, want, "{step}");
    let got_scores = probe_score_bits(batched.0, batched.1);
    assert_eq!(got_scores, probe_score_bits(oracle.0, oracle.1), "{step}");
    assert!(
        got_scores.iter().any(Result::is_ok),
        "{step}: nothing scored"
    );
    assert_same_state((batched.0, batched.1), (oracle.0, oracle.1), step);
    got
}

#[test]
fn cempar_refine_batch_equals_refining_one_by_one() {
    let cold = [PeerId(5), PeerId(11), PeerId(17)];
    let wait = 900;
    let (mut batched, mut batched_net) = churned_cempar(Default::default(), &cold, wait);
    let (mut oracle, mut oracle_net) = churned_cempar(Default::default(), &cold, wait);
    assert_same_state((&batched, &batched_net), (&oracle, &oracle_net), "train");

    let net = &batched_net;
    let contributor = |p: &PeerId| {
        let region = batched.regions[batched.region_of_peer(*p)].as_ref();
        region.is_some_and(|s| s.contributed.contains_key(p))
    };
    let peers: Vec<PeerId> = (0..BATCH_PEERS).map(PeerId::from).collect();
    let online: Vec<PeerId> = peers
        .iter()
        .copied()
        .filter(|&p| net.is_online(p))
        .collect();
    let twice = *online
        .iter()
        .find(|p| contributor(p))
        .expect("an online contributor");
    let neighbour = *online
        .iter()
        .find(|&&p| {
            p != twice
                && contributor(&p)
                && batched.region_of_peer(p) == batched.region_of_peer(twice)
        })
        .expect("a second online contributor in its region");
    let elsewhere = *online
        .iter()
        .find(|&&p| contributor(&p) && batched.region_of_peer(p) != batched.region_of_peer(twice))
        .expect("an online contributor in another region");
    let never = *cold
        .iter()
        .find(|&&p| net.is_online(p))
        .expect("an online cold peer");
    let offline = *peers
        .iter()
        .find(|&&p| !net.is_online(p) && !cold.contains(&p))
        .expect("an offline peer with data");
    assert!(!contributor(&never));

    let mut rng = StdRng::seed_from_u64(47);
    let batch = vec![
        (twice, example(&mut rng, 1)),
        (neighbour, example(&mut rng, 2)),
        (offline, example(&mut rng, 1)),
        (twice, example(&mut rng, 3)),
        (never, example(&mut rng, 2)),
        (elsewhere, any_example(&mut rng, 3)),
        (twice, example(&mut rng, 4)),
    ];
    let offline_data = batched.local_data[offline.index()].clone();
    let results = apply_both(
        (&mut batched, &mut batched_net),
        (&mut oracle, &mut oracle_net),
        &batch,
        "batch",
    );
    for (i, result) in results.iter().enumerate() {
        let want = if i == 2 {
            Err(ProtocolError::PeerOffline)
        } else {
            Ok(())
        };
        assert_eq!(*result, want, "correction {i}");
    }
    // The offline correction left no trace; the cold peer now contributes.
    assert_eq!(batched.local_data[offline.index()], offline_data);
    assert_eq!(batched.local_data[twice.index()].len(), 6 + 3);
    let never_region = batched.regions[batched.region_of_peer(never)]
        .as_ref()
        .unwrap();
    assert!(never_region.contributed.contains_key(&never));

    let results = apply_both(
        (&mut batched, &mut batched_net),
        (&mut oracle, &mut oracle_net),
        &[],
        "empty batch",
    );
    assert!(results.is_empty());
}

#[test]
fn cempar_refine_batch_rolls_back_lost_propagations_like_refine() {
    let faults = p2psim::FaultPlan {
        loss: 0.3,
        ..Default::default()
    };
    let cold = [PeerId(3)];
    let (mut batched, mut batched_net) = churned_cempar(faults.clone(), &cold, 300);
    let (mut oracle, mut oracle_net) = churned_cempar(faults, &cold, 300);
    let mut rng = StdRng::seed_from_u64(48);
    let online: Vec<PeerId> = batched_net.online_peers().collect();
    let batch: Vec<(PeerId, MultiLabelExample)> = (0..24)
        .map(|i| (online[i * 5 % online.len()], any_example(&mut rng, 4)))
        .collect();
    let results = apply_both(
        (&mut batched, &mut batched_net),
        (&mut oracle, &mut oracle_net),
        &batch,
        "lossy batch",
    );
    let lost = |r: &Result<(), ProtocolError>| matches!(r, Err(ProtocolError::Delivery(_)));
    assert!(results.iter().any(lost), "{results:?}");
    assert!(results.iter().any(Result::is_ok), "{results:?}");
}

/// Tags merged so far in `peer`'s region.
fn merged_tags(cempar: &Cempar, peer: PeerId) -> usize {
    let region = cempar.regions[cempar.region_of_peer(peer)].as_ref();
    region.unwrap().cascade.merged_tags
}

#[test]
fn a_refine_batch_merges_each_dirty_tag_once() {
    const K: usize = 6;
    let (mut batched, mut batched_net) = churned_cempar(Default::default(), &[], 0);
    let (mut one_by_one, mut one_by_one_net) = churned_cempar(Default::default(), &[], 0);
    let first = PeerId(0);
    let region = batched.region_of_peer(first);
    let peers: Vec<PeerId> = (0..BATCH_PEERS)
        .map(PeerId::from)
        .filter(|&p| batched.region_of_peer(p) == region)
        .take(3)
        .collect();
    assert_eq!(peers.len(), 3);
    // K corrections in one region, on the same few tags.
    let mut rng = StdRng::seed_from_u64(49);
    let batch: Vec<(PeerId, MultiLabelExample)> = (0..K)
        .map(|i| {
            (
                peers[i % peers.len()],
                example(&mut rng, 1 + i as TagId % 2),
            )
        })
        .collect();

    // One by one: each correction is a one-element batch (refit, propagate,
    // re-cascade); its dirty set is read before its re-cascade.
    let before = merged_tags(&one_by_one, first);
    let mut dirtied: Vec<BTreeSet<TagId>> = Vec::new();
    for (peer, x) in &batch {
        one_by_one.correct(&mut one_by_one_net, *peer, x).unwrap();
        let state = one_by_one.regions[region].as_ref().unwrap();
        dirtied.push(state.cascade.dirty.clone());
        one_by_one.recascade();
    }
    let sequential = merged_tags(&one_by_one, first) - before;

    let before = merged_tags(&batched, first);
    let requests: Vec<(PeerId, &MultiLabelExample)> = batch.iter().map(|(p, x)| (*p, x)).collect();
    let results = batched.refine_batch(&mut batched_net, &requests);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let once = merged_tags(&batched, first) - before;

    let union: BTreeSet<TagId> = dirtied.iter().flatten().copied().collect();
    assert_eq!(sequential, dirtied.iter().map(BTreeSet::len).sum::<usize>());
    assert_eq!(once, union.len(), "each dirty tag merges once");
    assert!(
        once < sequential && sequential >= K,
        "{once} merges in a batch, {sequential} one by one"
    );
    assert_same_state(
        (&batched, &batched_net),
        (&one_by_one, &one_by_one_net),
        "counted batch",
    );
}
