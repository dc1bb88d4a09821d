//! The daemon loop is event-driven: a command wakes it at once, core timers
//! fire from the poller's timeout alone, and losing the command sender ends
//! it. Each test fails (or hangs past its deadline) with a loop that needs a
//! periodic tick to make progress.

use p2pclassify::sansio::{PaceCore, PeerCore};
use p2pclassify::{PaceConfig, ReliabilityConfig};
use p2psim::PeerId;
use peerd::{command_channel, corpus, daemon, LoopbackHarness};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// A command round trip costs a wake-up, not a polling interval: hundreds of
/// sequential round trips on an idle fleet fit into a budget that a 5 ms
/// tick overruns four times over (≈ 10 ms expected).
#[test]
fn commands_are_answered_without_waiting_for_a_tick() {
    const BUDGET: Duration = Duration::from_millis(250);
    let peers: Vec<PeerId> = (0..3).map(PeerId).collect();
    let fleet = peers
        .iter()
        .map(|&p| PeerCore::Pace(PaceCore::new(p, peers.clone(), PaceConfig::default())))
        .collect();
    let harness = LoopbackHarness::start(fleet).expect("harness starts");
    let data = corpus::peer_data(peers.len(), 12, 0xC0FFEE);
    let everyone: Vec<(u64, u64)> = peers.iter().map(|p| (p.0, 1)).collect();
    for (i, &peer) in peers.iter().enumerate() {
        harness.train(peer, &data[i]).expect("train");
    }
    for &peer in &peers {
        let got = harness
            .wait_installed(peer, &everyone, Duration::from_secs(60))
            .expect("snapshot");
        assert_eq!(got, everyone, "{peer:?} converged");
    }

    // The fleet is idle from here on: every daemon sleeps in `epoll_wait`.
    let start = Instant::now();
    for i in 0..200 {
        harness.snapshot(peers[i % peers.len()]).expect("snapshot");
    }
    let snapshots = start.elapsed();
    assert!(
        snapshots < BUDGET,
        "200 snapshot round trips took {snapshots:?}"
    );

    let probes = corpus::probes(100, 0xBEEF);
    let start = Instant::now();
    for (i, probe) in probes.iter().enumerate() {
        harness
            .predict(peers[i % peers.len()], probe, Duration::from_secs(10))
            .expect("predict");
    }
    let predicts = start.elapsed();
    assert!(predicts < BUDGET, "100 predicts took {predicts:?}");
    harness.shutdown();
}

/// Core timers fire from the `epoll_wait` timeout alone. A reliable-mode
/// core sends to a peer nobody runs, so each retransmit deadline is armed by
/// the one before it; with no command and no socket traffic in between, the
/// whole chain must still have run by the time the single snapshot looks.
#[test]
fn timers_fire_with_no_command_or_socket_traffic() {
    let reliability = ReliabilityConfig {
        max_attempts: 3,
        backoff_base_ms: 5,
    };
    let config = PaceConfig {
        reliability: Some(reliability),
        ..PaceConfig::default()
    };
    let (alone, absent) = (PeerId(0), PeerId(1));
    let core = PeerCore::Pace(PaceCore::new(alone, vec![alone, absent], config));
    let harness = LoopbackHarness::start(vec![core]).expect("harness starts");
    let data = corpus::peer_data(1, 12, 0xC0FFEE);
    harness.train(alone, &data[0]).expect("train");

    // The retry budget is 5 + 10 + 20 ms; one wake-up could have fired one
    // timer of the chain, not all three.
    std::thread::sleep(Duration::from_millis(350));
    let snapshot = harness.snapshot(alone).expect("snapshot");
    assert_eq!(
        snapshot.gave_up, 1,
        "the undeliverable payload was given up"
    );
    assert_eq!(snapshot.link.gave_up, 1);
    assert_eq!(
        snapshot.link.retransmits,
        u64::from(reliability.max_attempts - 1)
    );
    harness.shutdown();
}

/// Dropping the command sender without `Shutdown` ends the daemon — after
/// the commands already queued — instead of leaving it spinning on a waker
/// that reports end-of-file forever.
#[test]
fn dropping_the_command_sender_ends_the_daemon() {
    let peer = PeerId(0);
    let core = PeerCore::Pace(PaceCore::new(peer, vec![peer], PaceConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addrs = BTreeMap::from([(peer.0, listener.local_addr().expect("addr"))]);
    let (commands, receiver) = command_channel().expect("command channel");
    let (exited_tx, exited_rx) = channel();
    let thread = std::thread::spawn(move || {
        daemon(core, listener, addrs, receiver);
        let _ = exited_tx.send(());
    });

    let (snapshot_tx, snapshot_rx) = channel();
    commands
        .send(peerd::Command::Snapshot(snapshot_tx))
        .expect("send");
    drop(commands);
    exited_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the daemon exits once its command sender is gone");
    thread.join().expect("daemon thread");
    snapshot_rx
        .try_recv()
        .expect("the command queued before the drop was still answered");
}
