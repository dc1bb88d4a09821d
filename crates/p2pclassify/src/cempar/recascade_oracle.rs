//! The incremental re-cascade against its oracle: after every step of a
//! scripted session, each region's models and scorer decisions must equal a
//! from-scratch cascade of the region's current contributions, bit for bit —
//! under the monolithic [`Cempar`] and under the sans-io [`CemparCore`].

use super::*;
use crate::sansio::{CemparCore, ProtocolCore};
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
        let parts = wire::encode_kernel_model(&model, config.wire.precision);
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
    let parts = wire::encode_kernel_model(&v1[3], config.wire.precision);
    observer.ingest(0, PeerId(3), &wire::encode_install(3, 2, &[&parts]));
    assert!(observer.regions[&region].cascade.dirty.is_empty());
    check(&mut observer, 3, 3, v1[3].clone());
    // A stale version installs nothing.
    check(&mut observer, 1, 1, v1[1].clone());
    check(&mut observer, 4, 2, train(&data[5]));
}
