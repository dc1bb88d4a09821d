//! Sim ↔ socket equivalence: one protocol body, two drivers, identical
//! results.
//!
//! For each of the four protocols, the same seeded scenario runs twice over
//! the *same* sans-io cores: once through the deterministic virtual-time
//! [`SimDriver`], once through a real peerd fleet on loopback TCP. After
//! both converge, the installed `(source, version)` sets and the prediction
//! scores for every probe must agree **exactly** (bit-for-bit `f64`s) — the
//! cores are order-independent by construction, so a real network's
//! arbitrary interleavings must not be observable in the results.

use p2pclassify::sansio::{
    CemparCore, CentralizedCore, LocalCore, LocalEffect, PaceCore, PeerCore, SimDriver,
};
use p2pclassify::{CemparConfig, CentralizedConfig, PaceConfig};
use p2psim::PeerId;
use peerd::corpus;
use peerd::LoopbackHarness;
use std::time::Duration;

const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);
const PREDICT_TIMEOUT: Duration = Duration::from_secs(20);

/// Per-peer installed `(source, version)` sets.
type Installed = Vec<Vec<(u64, u64)>>;
/// Per-probe prediction score lists.
type Scores = Vec<Vec<ml::multilabel::TagPrediction>>;

/// Runs the seeded scenario through the simulator: returns per-peer
/// installed sets and per-probe scores.
fn run_sim(
    mut driver: SimDriver,
    peers: &[PeerId],
    data: &[ml::MultiLabelDataset],
    probes: &[textproc::SparseVector],
) -> (Installed, Scores) {
    for (i, &peer) in peers.iter().enumerate() {
        driver.train(peer, &data[i]);
    }
    driver.run_until_quiescent();
    let installed = driver
        .cores()
        .iter()
        .map(|c| c.installed_versions())
        .collect();
    let mut scores = Vec::with_capacity(probes.len());
    for (i, probe) in probes.iter().enumerate() {
        let peer = peers[i % peers.len()];
        let request = driver.predict(peer, probe);
        driver.run_until_quiescent();
        let result = driver
            .effects()
            .iter()
            .find_map(|(p, e)| match e {
                LocalEffect::Prediction { request: r, scores } if *p == peer && *r == request => {
                    Some(scores.clone())
                }
                _ => None,
            })
            .expect("sim prediction completed");
        scores.push(result);
    }
    (installed, scores)
}

/// Runs the same scenario through a loopback peerd fleet, using the sim's
/// converged installed sets as the barrier.
fn run_socket(
    cores: Vec<PeerCore>,
    peers: &[PeerId],
    data: &[ml::MultiLabelDataset],
    probes: &[textproc::SparseVector],
    expected_installed: &[Vec<(u64, u64)>],
) -> (Installed, Scores) {
    let harness = LoopbackHarness::start(cores).expect("harness starts");
    for (i, &peer) in peers.iter().enumerate() {
        harness.train(peer, &data[i]).expect("train command");
    }
    let installed: Vec<Vec<(u64, u64)>> = peers
        .iter()
        .enumerate()
        .map(|(i, &peer)| {
            harness
                .wait_installed(peer, &expected_installed[i], CONVERGE_TIMEOUT)
                .expect("snapshot")
        })
        .collect();
    let scores: Vec<Vec<ml::multilabel::TagPrediction>> = probes
        .iter()
        .enumerate()
        .map(|(i, probe)| {
            let peer = peers[i % peers.len()];
            harness
                .predict(peer, probe, PREDICT_TIMEOUT)
                .expect("socket prediction completed")
        })
        .collect();
    harness.shutdown();
    (installed, scores)
}

/// The full axis for one protocol: same cores, two drivers, equal results.
fn assert_drivers_agree<F>(name: &str, peers: &[PeerId], make_fleet: F)
where
    F: Fn() -> Vec<PeerCore>,
{
    let data = corpus::peer_data(peers.len(), 12, 0xC0FFEE);
    let probes = corpus::probes(10, 0xBEEF);
    let (sim_installed, sim_scores) = run_sim(SimDriver::new(make_fleet()), peers, &data, &probes);
    let (socket_installed, socket_scores) =
        run_socket(make_fleet(), peers, &data, &probes, &sim_installed);
    assert_eq!(
        sim_installed, socket_installed,
        "{name}: installed model versions diverge between drivers"
    );
    for (i, (s, k)) in sim_scores.iter().zip(&socket_scores).enumerate() {
        assert_eq!(s, k, "{name}: probe {i} scores diverge between drivers");
    }
}

#[test]
fn pace_sim_and_socket_agree() {
    let peers: Vec<PeerId> = (0..4).map(PeerId).collect();
    assert_drivers_agree("pace", &peers, || {
        peers
            .iter()
            .map(|&p| PeerCore::Pace(PaceCore::new(p, peers.clone(), PaceConfig::default())))
            .collect()
    });
}

#[test]
fn cempar_sim_and_socket_agree() {
    let peers: Vec<PeerId> = (0..6).map(PeerId).collect();
    assert_drivers_agree("cempar", &peers, || {
        peers
            .iter()
            .map(|&p| PeerCore::Cempar(CemparCore::new(p, peers.clone(), CemparConfig::default())))
            .collect()
    });
}

#[test]
fn centralized_sim_and_socket_agree() {
    let peers: Vec<PeerId> = (0..4).map(PeerId).collect();
    assert_drivers_agree("centralized", &peers, || {
        peers
            .iter()
            .map(|&p| PeerCore::Centralized(CentralizedCore::new(p, CentralizedConfig::default())))
            .collect()
    });
}

#[test]
fn local_sim_and_socket_agree() {
    let peers: Vec<PeerId> = (0..3).map(PeerId).collect();
    assert_drivers_agree("local", &peers, || {
        peers
            .iter()
            .map(|&p| PeerCore::Local(LocalCore::new(p)))
            .collect()
    });
}

/// Anti-entropy works over real sockets too: a late-joining peer (empty
/// fleet member that missed training-time propagation) repairs itself by
/// digesting at a peer that has everything.
#[test]
fn pace_anti_entropy_repairs_over_sockets() {
    let peers: Vec<PeerId> = (0..3).map(PeerId).collect();
    let data = corpus::peer_data(peers.len(), 12, 0xC0FFEE);
    // Sim reference for what full convergence looks like.
    let fleet: Vec<PeerCore> = peers
        .iter()
        .map(|&p| PeerCore::Pace(PaceCore::new(p, peers.clone(), PaceConfig::default())))
        .collect();
    let mut sim = SimDriver::new(fleet.clone());
    for (i, &peer) in peers.iter().enumerate() {
        sim.train(peer, &data[i]);
    }
    sim.run_until_quiescent();
    let full = sim.cores()[0].installed_versions();

    let harness = LoopbackHarness::start(fleet).expect("harness starts");
    // Only peers 0 and 1 train; peer 2 receives their models passively but
    // contributes nothing, and peers 0/1 never hear about each other's
    // version bumps beyond the initial propagation.
    for (i, &peer) in peers.iter().take(2).enumerate() {
        harness.train(peer, &data[i]).expect("train");
    }
    let partial: Vec<(u64, u64)> = full
        .iter()
        .copied()
        .filter(|&(s, _)| s != peers[2].0)
        .collect();
    let got = harness
        .wait_installed(peers[2], &partial, CONVERGE_TIMEOUT)
        .expect("snapshot");
    assert_eq!(got, partial, "passive peer received both trained models");

    // Now peer 2 trains — everyone repairs to `full` via propagation, and an
    // extra digest exchange is a no-op (idempotent).
    harness.train(peers[2], &data[2]).expect("train");
    for &peer in &peers {
        let got = harness
            .wait_installed(peer, &full, CONVERGE_TIMEOUT)
            .expect("snapshot");
        assert_eq!(got, full, "{peer:?} converged to the full ensemble");
    }
    harness.anti_entropy(peers[0], peers[1]).expect("digest");
    std::thread::sleep(Duration::from_millis(100));
    for &peer in &peers {
        assert_eq!(harness.snapshot(peer).expect("snapshot").installed, full);
    }
    harness.shutdown();
}
