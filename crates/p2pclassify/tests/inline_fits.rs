//! A single peer's fit is the unit of parallelism: the per-peer training
//! bodies run under `parallel::inline`, batches of peers fan out one level
//! up. Whichever way the work is cut, the bits must not move — the same
//! train → train_incremental → refine script yields identical network
//! statistics, link statistics and scores with one worker and with four.
//!
//! The worker override is process-global, so everything runs from a single
//! `#[test]` entry point.

use ml::{MultiLabelDataset, MultiLabelExample, TagId};
use p2pclassify::{
    Cempar, CemparConfig, LocalOnly, LocalOnlyConfig, P2PTagClassifier, Pace, PaceConfig,
};
use p2psim::churn::ChurnModel;
use p2psim::{P2PNetwork, PeerId, SimConfig, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textproc::SparseVector;

const PEERS: usize = 12;

fn example(rng: &mut StdRng) -> MultiLabelExample {
    let a = 0.7 + rng.gen_range(0.0..0.6);
    let b = 0.7 + rng.gen_range(0.0..0.6);
    let (vector, tags): (SparseVector, Vec<TagId>) = match rng.gen_range(0..5u32) {
        0 => (SparseVector::from_pairs([(0, a)]), vec![1]),
        1 => (SparseVector::from_pairs([(1, a)]), vec![2]),
        2 => (SparseVector::from_pairs([(2, a), (0, 0.2)]), vec![3]),
        3 => (SparseVector::from_pairs([(0, a), (1, b)]), vec![1, 2]),
        _ => (SparseVector::from_pairs([(2, a), (3, b)]), vec![3, 4]),
    };
    MultiLabelExample::new(vector, tags)
}

fn peer_data(per_peer: usize, rng: &mut StdRng) -> Vec<MultiLabelDataset> {
    (0..PEERS)
        .map(|_| MultiLabelDataset::from_examples((0..per_peer).map(|_| example(rng)).collect()))
        .collect()
}

/// Everything the script leaves behind that a caller can observe.
#[derive(Debug, PartialEq)]
struct Trail {
    network_stats: String,
    link_stats: String,
    score_bits: Vec<Option<Vec<(TagId, u64, u64)>>>,
}

fn run_script<P: P2PTagClassifier>(mut protocol: P, workers: usize) -> Trail {
    parallel::schedule::set_thread_override(Some(workers));
    let mut rng = StdRng::seed_from_u64(2010);
    let mut net = P2PNetwork::new(SimConfig {
        num_peers: PEERS,
        churn: ChurnModel::Exponential {
            mean_session_secs: 2_000.0,
            mean_offline_secs: 400.0,
        },
        horizon_secs: 100_000,
        ..Default::default()
    });
    protocol.train(&mut net, &peer_data(14, &mut rng)).unwrap();
    net.advance(SimTime::from_secs(300));
    protocol
        .train_incremental(&mut net, &peer_data(4, &mut rng))
        .unwrap();
    let mut refined = 0;
    while refined < 20 {
        net.advance(SimTime::from_secs(30));
        let peer = PeerId(rng.gen_range(0..PEERS as u64));
        if protocol.refine(&mut net, peer, &example(&mut rng)).is_ok() {
            refined += 1;
        }
    }
    let score_bits = (0..3 * PEERS)
        .map(|i| {
            let probe = example(&mut rng).vector;
            protocol
                .scores(&mut net, PeerId((i % PEERS) as u64), &probe)
                .ok()
                .map(|scores| {
                    scores
                        .iter()
                        .map(|p| (p.tag, p.score.to_bits(), p.confidence.to_bits()))
                        .collect()
                })
        })
        .collect();
    parallel::schedule::set_thread_override(None);
    Trail {
        network_stats: format!("{:?}", net.stats()),
        link_stats: format!("{:?}", protocol.link_stats()),
        score_bits,
    }
}

fn assert_worker_count_changes_no_bits<P: P2PTagClassifier>(make: impl Fn() -> P) {
    let one = run_script(make(), 1);
    let four = run_script(make(), 4);
    assert!(
        one.score_bits.iter().flatten().count() > PEERS,
        "the script must leave scores to compare"
    );
    assert_eq!(one, four);
}

#[test]
fn worker_count_changes_no_bits_of_a_train_increment_refine_script() {
    assert_worker_count_changes_no_bits(|| Pace::new(PaceConfig::default()));
    assert_worker_count_changes_no_bits(|| Cempar::new(CemparConfig::for_network(PEERS)));
    assert_worker_count_changes_no_bits(|| LocalOnly::new(LocalOnlyConfig::default()));
}
