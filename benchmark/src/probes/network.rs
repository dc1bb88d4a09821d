//! `p2psim`: building a network of the workload's size, sending and
//! broadcasting through it, DHT routing, advancing virtual time under the
//! workload's churn — and the event engine, which no session path uses yet.

use super::{Inputs, Sink};
use p2psim::engine::{Application, Context, Engine};
use p2psim::message::MessageKind;
use p2psim::physical::{PhysicalConfig, PhysicalNetwork};
use p2psim::{P2PNetwork, PeerId, SimConfig, SimTime};
use std::hint::black_box;

/// Virtual seconds per epoch, as in the sessions.
const EPOCH_SECS: u64 = 600;
/// Epochs of churn timeline the `advance` probe can replay before rebuilding.
const HORIZON_EPOCHS: u64 = 8;

fn config(inputs: &Inputs) -> SimConfig {
    SimConfig {
        num_peers: inputs.peers,
        churn: inputs.churn,
        horizon_secs: EPOCH_SECS * (HORIZON_EPOCHS + 1),
        seed: inputs.seed,
        ..SimConfig::default()
    }
}

/// Every peer pings its successor and answers pings, forever.
struct Ping {
    next: PeerId,
}

impl Application for Ping {
    type Payload = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.send(self.next, MessageKind::Other, 64, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: PeerId, hops: u32) {
        ctx.send(from, MessageKind::Other, 64, hops + 1);
    }
}

/// Runs the `p2psim.*` probes.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>) {
    let n = inputs.peers;
    sink.time("p2psim.network_build_ms", "ms", 1, || {
        black_box(P2PNetwork::new(config(inputs)));
    });

    let mut net = P2PNetwork::new(config(inputs));
    let online: Vec<PeerId> = net.online_peers().collect();
    let frame = vec![0xA5u8; 2_048];
    sink.time("p2psim.send_frame_ns", "ns", online.len(), || {
        for pair in online.windows(2) {
            black_box(
                net.send_frame(pair[0], pair[1], MessageKind::ModelPropagation, &frame)
                    .ok(),
            );
        }
    });
    sink.time("p2psim.broadcast_us", "us", 1, || {
        black_box(net.broadcast(online[0], MessageKind::ModelPropagation, frame.len()));
    });
    let mut hops = 0usize;
    let mut lookups = 0usize;
    sink.time("p2psim.dht_lookup_us", "us", online.len(), || {
        for (i, &from) in online.iter().enumerate() {
            let key = p2psim::peer::mix64(i as u64 ^ inputs.seed);
            if let Ok((_, h)) = net.dht_lookup(from, black_box(key)) {
                hops += h;
                lookups += 1;
            }
        }
    });
    sink.value(
        "p2psim.dht_lookup_hops_mean",
        hops as f64 / lookups.max(1) as f64,
        "count",
        lookups,
    );

    // Each measured call replays a fresh timeline; building it is not timed.
    sink.time_prepared(
        "p2psim.advance_ms_per_epoch",
        "ms",
        HORIZON_EPOCHS as usize,
        || P2PNetwork::new(config(inputs)),
        |mut net| {
            for _ in 0..HORIZON_EPOCHS {
                net.advance(SimTime::from_secs(EPOCH_SECS));
            }
        },
    );

    let mut engine = Engine::new(
        (0..n)
            .map(|i| Ping {
                next: PeerId::from((i + 1) % n),
            })
            .collect(),
        PhysicalNetwork::new(PhysicalConfig::default()),
        inputs.seed,
    );
    engine.set_churn_logging(false);
    const EVENTS: u64 = 50_000;
    let secs_per_event = sink.time("p2psim.engine_event_ns", "ns", EVENTS as usize, || {
        black_box(engine.run(SimTime(u64::MAX), EVENTS));
    });
    sink.value(
        "p2psim.engine_events_per_s",
        1.0 / secs_per_event,
        "1/s",
        EVENTS as usize,
    );
}
