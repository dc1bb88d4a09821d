//! `p2pclassify` legacy protocols: the `P2PTagClassifier` trait driven
//! directly on a `P2PNetwork`, below `doctagger`. The workload's own protocol
//! runs on a network of the workload's size; the other one on at most
//! [`OTHER_PROTOCOL_PEERS`] peers, so that every traced run reports both
//! without paying for a second full-size network.

use super::{Inputs, Sink};
use crate::clock;
use doctagger::ProtocolKind;
use ml::{MultiLabelDataset, MultiLabelExample};
use p2psim::{P2PNetwork, PeerId, SimConfig};
use std::hint::black_box;
use textproc::SparseVector;

/// Network size for the protocol the workload does not run.
const OTHER_PROTOCOL_PEERS: usize = 100;
/// One peer in this many receives a new document per incremental round —
/// about the share of peers a session epoch touches (0.2 manual × 16
/// documents per user over 5–6 epochs is half a document per peer and epoch).
/// The cost per touched peer depends on it: every round also pays for
/// propagation and, in CEMPaR, for re-merging the touched regions.
const TOUCHED_EVERY: usize = 3;
/// Corrections timed per protocol.
const REFINES: usize = 60;

/// Seconds per unit of work of the workload's own protocol, for attributing
/// the workload's phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// Cold training, per manually tagged document.
    pub train_per_doc: f64,
    /// Incremental training, per new document.
    pub incremental_per_doc: f64,
    /// Prediction, per request.
    pub predict_per_doc: f64,
    /// One correction.
    pub refine: f64,
}

fn probe(
    kind: &ProtocolKind,
    peers: usize,
    inputs: &Inputs,
    sink: &mut Sink<'_>,
    problems: &mut Vec<String>,
) -> UnitCosts {
    let name = |what: &str| format!("p2pclassify.{}.{what}", kind.name());
    let vectors = &inputs.vectorized;
    // No churn here: every peer is online, so every operation is real work.
    let mut net = P2PNetwork::new(SimConfig {
        num_peers: peers,
        seed: inputs.seed,
        ..SimConfig::default()
    });
    let data: Vec<MultiLabelDataset> = inputs.train_by_user[..peers]
        .iter()
        .map(|docs| vectors.dataset_of(docs))
        .collect();
    let train_docs: usize = data.iter().map(MultiLabelDataset::len).sum();
    let mut protocol = kind.build();

    let (trained, train_s) = sink.span(&name("train_s"), train_docs as u64, || {
        clock::time(|| protocol.train(&mut net, &data))
    });
    if let Err(e) = trained {
        problems.push(format!("{}: train failed: {e}", name("train_s")));
    }
    sink.value(&name("train_s"), train_s, "s", 1);

    // Incremental rounds: every third peer folds in one held-out document,
    // a different third each round.
    let mut round = 0usize;
    let touched = peers.div_ceil(TOUCHED_EVERY);
    let incremental_per_doc = sink.time(
        &name("train_incremental_ms_per_peer"),
        "ms",
        touched,
        || {
            let new: Vec<MultiLabelDataset> = (0..peers)
                .map(|p| {
                    let docs = &inputs.test_by_user[p];
                    if p % TOUCHED_EVERY == round % TOUCHED_EVERY && !docs.is_empty() {
                        vectors.dataset_of(&[docs[(round / TOUCHED_EVERY) % docs.len()]])
                    } else {
                        MultiLabelDataset::new()
                    }
                })
                .collect();
            round += 1;
            if let Err(e) = protocol.train_incremental(&mut net, black_box(&new)) {
                problems.push(format!("incremental training failed: {e}"));
            }
        },
    );

    let requests: Vec<(PeerId, &SparseVector)> = inputs
        .held_out
        .iter()
        .filter_map(|&doc| {
            let user = inputs.corpus.document(doc)?.user;
            (user < peers).then(|| (PeerId::from(user), vectors.vector(doc)))
        })
        .collect();
    let predict_per_doc = sink.time(&name("predict_us_per_doc"), "us", requests.len(), || {
        black_box(protocol.predict_batch(&mut net, black_box(&requests)));
    });

    let corrections: Vec<(PeerId, MultiLabelExample)> = (0..REFINES)
        .filter_map(|i| {
            let p = (i * 7) % peers;
            let docs = &inputs.test_by_user[p];
            docs.last()
                .map(|&doc| (PeerId::from(p), vectors.example(doc)))
        })
        .collect();
    let mut next = 0usize;
    let refine = sink.time(&name("refine_us"), "us", 1, || {
        let (peer, example) = &corrections[next % corrections.len()];
        next += 1;
        if let Err(e) = protocol.refine(&mut net, *peer, black_box(example)) {
            problems.push(format!("refine failed: {e}"));
        }
    });

    UnitCosts {
        train_per_doc: train_s / train_docs as f64,
        incremental_per_doc,
        predict_per_doc,
        refine,
    }
}

/// Runs the `p2pclassify.pace.*` and `p2pclassify.cempar.*` probes; returns
/// the unit costs of the workload's own protocol.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>, problems: &mut Vec<String>) -> UnitCosts {
    let mut own = UnitCosts::default();
    for kind in [ProtocolKind::pace(), ProtocolKind::cempar()] {
        let is_own = kind.name() == inputs.protocol.name();
        let peers = if is_own {
            inputs.peers
        } else {
            inputs.peers.min(OTHER_PROTOCOL_PEERS)
        };
        let costs = probe(&kind, peers, inputs, sink, problems);
        if is_own {
            own = costs;
        }
    }
    own
}
