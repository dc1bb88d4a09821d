//! Hostile PACE frames over a real socket: a well-framed install envelope
//! whose centroids hold a NaN, or whose accuracy is no fraction, reaches a
//! running daemon through its TCP listener. The daemon must keep serving and
//! refuse both, holding what it held, while the same envelope unforged
//! installs.

use ml::codec::WeightPrecision;
use ml::multilabel::OneVsAllTrainer;
use ml::svm::LinearSvmTrainer;
use p2pclassify::sansio::{PaceCore, PeerCore};
use p2pclassify::{wire, PaceConfig};
use p2psim::PeerId;
use peerd::{corpus, encode_frame, LoopbackHarness};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use textproc::SparseVector;

const TIMEOUT: Duration = Duration::from_secs(20);
/// The accuracy and the centroid value the honest envelope carries; each
/// appears once in its frame, so a byte replace forges exactly that value.
const ACCURACY: f64 = 0.75;
const CENTROID_VALUE: f64 = 0.625;

/// `bytes` with the one little-endian encoding of `from` replaced by `to`'s.
fn forge_f64(bytes: &[u8], from: f64, to: f64) -> Vec<u8> {
    let from = from.to_le_bytes();
    let at: Vec<usize> = (0..bytes.len().saturating_sub(7))
        .filter(|&i| bytes[i..i + 8] == from)
        .collect();
    let [at] = at[..] else {
        panic!("the value appears {} times on the wire", at.len());
    };
    let mut forged = bytes.to_vec();
    forged[at..at + 8].copy_from_slice(&to.to_le_bytes());
    forged
}

#[test]
fn a_daemon_refuses_nan_centroid_and_out_of_range_accuracy_installs() {
    let peers: Vec<PeerId> = (0..2).map(PeerId).collect();
    let fleet = peers
        .iter()
        .map(|&p| PeerCore::Pace(PaceCore::new(p, peers.clone(), PaceConfig::default())))
        .collect();
    let harness = LoopbackHarness::start(fleet).expect("harness starts");
    let (target, source) = (peers[0], peers[1]);

    let data = &corpus::peer_data(1, 12, 0xC0FFEE)[0];
    let model = OneVsAllTrainer::default().train_linear_csr(data, &LinearSvmTrainer::default());
    let model_frame = wire::encode_pace_model(&model, ACCURACY, WeightPrecision::F64);
    let centroids = [SparseVector::from_pairs([(0, CENTROID_VALUE), (1, 0.5)])];
    let centroid_frame = wire::encode_centroids(&centroids);
    let huge_accuracy = forge_f64(&model_frame, ACCURACY, 1e9);
    let nan_centroid = forge_f64(&centroid_frame, CENTROID_VALUE, f64::NAN);
    let install = |version, parts: [&[u8]; 2]| {
        encode_frame(source.0, &wire::encode_install(source.0, version, &parts))
    };
    let installed = |version| {
        harness
            .wait_installed(target, &[(source.0, version)], TIMEOUT)
            .expect("the daemon answers snapshots")
    };

    // One connection carries, in order, both forged envelopes at version 3
    // and the honest envelope at version 2. The core installs only newer
    // versions, so version 2 lands only if neither forgery did.
    let addr = harness.addr(target).expect("target listens");
    let mut stream = TcpStream::connect(addr).expect("connect");
    for frame in [
        install(3, [&model_frame, &nan_centroid]),
        install(3, [&huge_accuracy, &centroid_frame]),
        install(2, [&model_frame, &centroid_frame]),
    ] {
        stream.write_all(&frame).expect("write");
    }
    assert_eq!(installed(2), [(source.0, 2)], "a forgery was installed");

    // The same envelope, unforged, installs.
    let honest = install(3, [&model_frame, &centroid_frame]);
    stream.write_all(&honest).expect("write");
    assert_eq!(installed(3), [(source.0, 3)]);
    drop(stream);
    harness.shutdown();
}
