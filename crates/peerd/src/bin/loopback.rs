//! Loopback smoke: a real multi-peer peerd session over 127.0.0.1.
//!
//! Spawns a fleet of peer daemons, trains each on its slice of a small
//! deterministic corpus, waits for model propagation to converge over real
//! TCP, then auto-tags a probe set end to end. Exits non-zero if convergence
//! or tagging fails — the CI quick-mode step runs this under a timeout.
//!
//! ```text
//! loopback [--quick] [--peers N]
//! ```
//!
//! `--quick` shrinks the corpus and probe count for CI; `--peers` sizes the
//! fleet (default 3).

use ml::TagId;
use p2pclassify::sansio::{CemparCore, CentralizedCore, LocalCore, PaceCore, PeerCore};
use p2pclassify::{CemparConfig, CentralizedConfig, PaceConfig};
use p2psim::PeerId;
use peerd::corpus;
use peerd::LoopbackHarness;
use std::time::Duration;

const CONVERGE_TIMEOUT: Duration = Duration::from_secs(30);
const PREDICT_TIMEOUT: Duration = Duration::from_secs(10);

fn fleet(protocol: &str, peers: &[PeerId]) -> Vec<PeerCore> {
    peers
        .iter()
        .map(|&p| match protocol {
            "pace" => PeerCore::Pace(PaceCore::new(p, peers.to_vec(), PaceConfig::default())),
            "cempar" => {
                PeerCore::Cempar(CemparCore::new(p, peers.to_vec(), CemparConfig::default()))
            }
            "centralized" => {
                PeerCore::Centralized(CentralizedCore::new(p, CentralizedConfig::default()))
            }
            "local" => PeerCore::Local(LocalCore::new(p)),
            other => panic!("unknown protocol {other}"),
        })
        .collect()
}

/// Runs one protocol session end to end. Returns the number of tags
/// assigned across the probe set, or an error string.
fn run_session(
    protocol: &str,
    peers: &[PeerId],
    per_peer: usize,
    num_probes: usize,
) -> Result<usize, String> {
    let data = corpus::peer_data(peers.len(), per_peer, 42);
    let harness =
        LoopbackHarness::start(fleet(protocol, peers)).map_err(|e| format!("start: {e}"))?;
    for (i, &peer) in peers.iter().enumerate() {
        harness
            .train(peer, &data[i])
            .map_err(|e| format!("train {peer:?}: {e}"))?;
    }
    // Convergence barrier: what each peer must end up holding.
    let everyone: Vec<(u64, u64)> = peers.iter().map(|p| (p.0, 1)).collect();
    for &peer in peers {
        let expected: Vec<(u64, u64)> = match protocol {
            // PACE: full replication at every peer.
            "pace" => everyone.clone(),
            // Local-only: own model only.
            "local" => vec![(peer.0, 1)],
            // Centralized: the server pools everything, clients hold only
            // their own contribution.
            "centralized" if peer.0 == 0 => everyone.clone(),
            "centralized" => vec![(peer.0, 1)],
            // CEMPaR: region-dependent — checked in aggregate below.
            _ => continue,
        };
        let got = harness
            .wait_installed(peer, &expected, CONVERGE_TIMEOUT)
            .map_err(|e| format!("snapshot {peer:?}: {e}"))?;
        if got != expected {
            return Err(format!(
                "{protocol}: {peer:?} converged to {got:?}, expected {expected:?}"
            ));
        }
    }
    if protocol == "cempar" {
        // Aggregate check: every contribution landed at exactly one
        // super-peer (plus the contributor's own ledger entry).
        let deadline = std::time::Instant::now() + CONVERGE_TIMEOUT;
        loop {
            let mut installed_at = std::collections::BTreeMap::new();
            for &peer in peers {
                let snapshot = harness
                    .snapshot(peer)
                    .map_err(|e| format!("snapshot {peer:?}: {e}"))?;
                for (source, version) in snapshot.installed {
                    installed_at
                        .entry(source)
                        .or_insert_with(Vec::new)
                        .push((peer.0, version));
                }
            }
            let all_landed = peers
                .iter()
                .all(|p| installed_at.get(&p.0).map_or(0, Vec::len) >= 1);
            if all_landed {
                break;
            }
            if std::time::Instant::now() >= deadline {
                return Err(format!(
                    "cempar: contributions never landed: {installed_at:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    // Auto-tag the probe corpus from a rotating peer.
    let probes = corpus::probes(num_probes, 7);
    let mut assigned = 0usize;
    for (i, probe) in probes.iter().enumerate() {
        let peer = peers[i % peers.len()];
        let scores = harness
            .predict(peer, probe, PREDICT_TIMEOUT)
            .map_err(|e| format!("predict at {peer:?}: {e}"))?;
        assigned += scores
            .iter()
            .filter(|p| p.score > 0.0)
            .map(|p| p.tag)
            .collect::<Vec<TagId>>()
            .len();
    }
    harness.shutdown();
    Ok(assigned)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let num_peers: usize = args
        .iter()
        .position(|a| a == "--peers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let (per_peer, num_probes) = if quick { (10, 8) } else { (14, 24) };
    let protocols: &[&str] = if quick {
        &["pace", "centralized"]
    } else {
        &["pace", "cempar", "centralized", "local"]
    };
    let peers: Vec<PeerId> = (0..num_peers as u64).map(PeerId).collect();

    let mut failed = false;
    for protocol in protocols {
        match run_session(protocol, &peers, per_peer, num_probes) {
            Ok(assigned) => {
                println!(
                    "loopback {protocol}: {num_peers} peers converged, \
                     {num_probes} probes tagged ({assigned} tag assignments)"
                );
                if assigned == 0 {
                    eprintln!("loopback {protocol}: no tags assigned across the probe set");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("loopback {protocol}: FAILED: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
