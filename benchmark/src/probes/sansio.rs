//! `p2pclassify::sansio`: the per-peer cores, called directly and under
//! [`SimDriver`], on the inputs `peerd-loopback` feeds its daemons (cut from
//! this workload's corpus).

use super::{Inputs, Sink};
use crate::spec;
use crate::workloads::loopback::Scenario;
use p2pclassify::sansio::{Output, PeerCore, ProtocolCore, SimDriver};
use std::hint::black_box;

/// Runs the `sansio.*` probes. Returns seconds per local PACE predict, the
/// useful work inside a `peerd` predict round trip.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>) -> f64 {
    let spec = spec::loopback_spec(inputs.size);
    let s = Scenario::cut(&inputs.corpus, &inputs.vectorized, &spec);
    let rounds = s.rounds.len() as u64;

    // PACE: a fleet that has run every learn round.
    let mut pace = SimDriver::new(s.pace_fleet());
    for round in &s.rounds {
        for (p, data) in round.iter().enumerate() {
            pace.train(s.peers[p], data);
        }
        pace.run_until_quiescent();
    }
    let (frames, bytes) = pace.traffic();
    sink.value(
        "sansio.frames_per_round",
        frames as f64 / rounds as f64,
        "count",
        rounds as usize,
    );
    sink.value(
        "sansio.bytes_per_round",
        bytes as f64 / rounds as f64,
        "bytes",
        rounds as usize,
    );

    let (who, one_doc) = &s.refines[0];
    let trainer: PeerCore = pace.cores()[*who].clone();
    let mut install_frame = Vec::new();
    sink.time_prepared(
        "sansio.pace.train_us",
        "us",
        1,
        || trainer.clone(),
        |mut core| {
            for output in core.train(0, black_box(one_doc)) {
                if let Output::Emit { frame, .. } = output {
                    install_frame = frame;
                }
            }
        },
    );
    let receiver: PeerCore = pace.cores()[(who + 1) % s.peers.len()].clone();
    sink.time_prepared(
        "sansio.pace.ingest_install_us",
        "us",
        1,
        || receiver.clone(),
        |mut core| {
            black_box(core.ingest(0, s.peers[*who], black_box(&install_frame)));
        },
    );
    let mut predictor = trainer.clone();
    let pace_predict = sink.time("sansio.pace.predict_us", "us", s.probes.len(), || {
        for probe in &s.probes {
            black_box(predictor.predict(0, black_box(&probe.vector)));
        }
    });

    // Delivering a round's frames through the simulator's queue.
    let mut loaded = pace.clone();
    for (p, data) in s.rounds[0].iter().enumerate() {
        loaded.train(s.peers[p], data);
    }
    let queued = loaded.traffic().0 - frames;
    sink.time_prepared(
        "sansio.sim.step_ns",
        "ns",
        queued as usize,
        || loaded.clone(),
        |mut driver| while driver.step() {},
    );

    // CEMPaR: one learn round, then routed predicts.
    let mut cempar = SimDriver::new(s.cempar_fleet());
    for (p, &peer) in s.peers.iter().enumerate() {
        cempar.train(peer, &s.rounds[0][p]);
    }
    cempar.run_until_quiescent();
    let contributor: PeerCore = cempar.cores()[*who].clone();
    sink.time_prepared(
        "sansio.cempar.train_us",
        "us",
        1,
        || contributor.clone(),
        |mut core| {
            black_box(core.train(0, black_box(one_doc)));
        },
    );
    sink.time("sansio.cempar.predict_us", "us", s.probes.len(), || {
        for (i, probe) in s.probes.iter().enumerate() {
            cempar.predict(s.peers[i % s.peers.len()], black_box(&probe.vector));
            cempar.run_until_quiescent();
        }
        black_box(cempar.take_effects());
    });
    pace_predict
}
