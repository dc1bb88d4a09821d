//! Discrete-event simulation engine.
//!
//! The engine drives a set of per-peer [`Application`] state machines through
//! time: applications send messages (delivered after the physical network's
//! latency + transmission delay), set timers, and react to churn events. All
//! traffic is accounted in [`SimStats`], giving the realistic message-level
//! simulation that P2PDMT inherits from OverSim.
//!
//! # Steady-state memory model
//!
//! The event loop is allocation-free once warm. Event payloads live in a
//! free-listed slab (`EventPool`); the priority queue orders small `Copy`
//! `EventKey`s (time, seq, slot), so pushing and popping never moves a
//! payload and a popped slot is immediately recycled. `Context` action
//! buffers are taken from and returned to the engine around every callback,
//! and the online set is a [`PeerBitset`] that churn events update in place.
//! After the initial ramp-up (slab, heap and buffers grown to the run's
//! high-water mark) processing an event performs zero heap allocations —
//! `tests/steady_state_allocs.rs` pins this with a counting allocator.

use crate::bitset::{Ones, PeerBitset};
use crate::churn::ChurnTimeline;
use crate::logging::ActivityLog;
use crate::message::{Envelope, MessageKind};
use crate::peer::PeerId;
use crate::physical::PhysicalNetwork;
use crate::stats::SimStats;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A per-peer protocol/application state machine.
pub trait Application {
    /// Message payload exchanged between instances of this application.
    type Payload: Clone;

    /// Called once when the peer first comes online.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Payload>) {}

    /// Called when a message addressed to this peer is delivered.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Payload>,
        from: PeerId,
        payload: Self::Payload,
    );

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Payload>, _timer: u64) {}

    /// Called when this peer goes offline due to churn.
    fn on_stop(&mut self, _ctx: &mut Context<'_, Self::Payload>) {}
}

/// The side effects an application may request during a callback.
enum Action<P> {
    Send {
        to: PeerId,
        kind: MessageKind,
        size_bytes: usize,
        payload: P,
    },
    SetTimer {
        delay: SimTime,
        timer: u64,
    },
    Log {
        category: String,
        message: String,
    },
}

/// Handle given to application callbacks for interacting with the simulation.
pub struct Context<'a, P> {
    self_id: PeerId,
    now: SimTime,
    actions: Vec<Action<P>>,
    rng: &'a mut StdRng,
    online: &'a PeerBitset,
}

impl<'a, P> Context<'a, P> {
    /// The peer this callback runs on.
    pub fn self_id(&self) -> PeerId {
        self.self_id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-run random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Whether a peer is currently online (snapshot at callback time).
    pub fn is_online(&self, peer: PeerId) -> bool {
        self.online.contains(peer)
    }

    /// Iterates all currently online peers in ascending id order.
    ///
    /// The iterator borrows the engine's cached online bitset (lifetime
    /// `'a`), not the context, so callbacks can keep sending messages while
    /// iterating. Nothing is allocated — this replaces the `Vec<PeerId>`
    /// the pre-scale engine rebuilt on every call.
    pub fn online_peers(&self) -> Ones<'a> {
        self.online.ones()
    }

    /// Sends a message to another peer.
    pub fn send(&mut self, to: PeerId, kind: MessageKind, size_bytes: usize, payload: P) {
        self.actions.push(Action::Send {
            to,
            kind,
            size_bytes,
            payload,
        });
    }

    /// Schedules `on_timer(timer)` after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, timer: u64) {
        self.actions.push(Action::SetTimer { delay, timer });
    }

    /// Appends an entry to the activity log.
    pub fn log(&mut self, category: impl Into<String>, message: impl Into<String>) {
        self.actions.push(Action::Log {
            category: category.into(),
            message: message.into(),
        });
    }
}

/// A scheduled simulation event.
enum EventKind<P> {
    Deliver(Envelope<P>),
    Timer { peer: PeerId, timer: u64 },
    PeerOnline(PeerId),
    PeerOffline(PeerId),
}

/// The heap entry: event ordering data plus the slab slot holding the
/// payload. `Copy`, 24 bytes — sifting the `BinaryHeap` never moves an
/// envelope.
#[derive(Clone, Copy, PartialEq, Eq)]
struct EventKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `seq` is unique per event, so ordering ignores the slot: replays
        // with a recycled (hence differently-numbered) slab are identical.
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Free-listed slab of pending event payloads.
///
/// `alloc` reuses a free slot when one exists and only grows the backing
/// `Vec` when the number of in-flight events exceeds the previous high-water
/// mark; `take` moves the payload out and recycles the slot. A slot is
/// `None` exactly while it sits on the free list, so a stale key could only
/// ever observe `None` — `take` panics rather than resurrecting a payload.
struct EventPool<P> {
    slots: Vec<Option<EventKind<P>>>,
    free: Vec<u32>,
}

impl<P> EventPool<P> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, kind: EventKind<P>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event pool exceeds u32 slots");
                self.slots.push(Some(kind));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> EventKind<P> {
        let kind = self.slots[slot as usize]
            .take()
            .expect("event slot taken twice — stale key");
        self.free.push(slot);
        kind
    }

    #[cfg(test)]
    fn high_water_mark(&self) -> usize {
        self.slots.len()
    }
}

/// The discrete-event engine hosting one application instance per peer.
pub struct Engine<A: Application> {
    apps: Vec<A>,
    online: PeerBitset,
    started: Vec<bool>,
    queue: BinaryHeap<Reverse<EventKey>>,
    pool: EventPool<A::Payload>,
    action_buf: Vec<Action<A::Payload>>,
    physical: PhysicalNetwork,
    stats: SimStats,
    log: ActivityLog,
    log_churn: bool,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    events_processed: u64,
}

impl<A: Application> Engine<A> {
    /// Creates an engine with one application per peer; all peers start online
    /// at time zero (use [`Engine::apply_churn`] for churn).
    pub fn new(apps: Vec<A>, physical: PhysicalNetwork, seed: u64) -> Self {
        let n = apps.len();
        let mut engine = Self {
            apps,
            online: PeerBitset::full(n),
            started: vec![false; n],
            queue: BinaryHeap::new(),
            pool: EventPool::new(),
            action_buf: Vec::new(),
            physical,
            stats: SimStats::new(),
            log: ActivityLog::default(),
            log_churn: true,
            now: SimTime::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            events_processed: 0,
        };
        for i in 0..n {
            engine.push_event(SimTime::ZERO, EventKind::PeerOnline(PeerId::from(i)));
        }
        engine
    }

    /// Number of peers.
    pub fn num_peers(&self) -> usize {
        self.apps.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The activity log.
    pub fn log(&self) -> &ActivityLog {
        &self.log
    }

    /// Enables or disables the engine's own join/leave log entries.
    ///
    /// Application [`Context::log`] calls are always honored; this gates only
    /// the two strings the engine itself allocates per churn event — the one
    /// remaining steady-state allocation source at scale.
    pub fn set_churn_logging(&mut self, enabled: bool) {
        self.log_churn = enabled;
    }

    /// Immutable access to a peer's application state (for assertions).
    pub fn app(&self, peer: PeerId) -> &A {
        &self.apps[peer.index()]
    }

    /// Whether the peer is currently online.
    pub fn is_online(&self, peer: PeerId) -> bool {
        self.online.contains(peer)
    }

    /// Number of peers currently online. O(1).
    #[cfg(test)]
    pub fn num_online(&self) -> usize {
        self.online.len()
    }

    /// Schedules the online/offline events of a churn timeline.
    ///
    /// Peers not online at time zero according to the timeline are taken
    /// offline immediately.
    pub fn apply_churn(&mut self, timeline: &ChurnTimeline) {
        for event in timeline.events() {
            let kind = if event.online {
                EventKind::PeerOnline(event.peer)
            } else {
                EventKind::PeerOffline(event.peer)
            };
            self.push_event(event.time, kind);
        }
        for i in 0..self.num_peers() {
            let p = PeerId::from(i);
            if !timeline.is_online(p, SimTime::ZERO) {
                self.push_event(SimTime::ZERO, EventKind::PeerOffline(p));
            }
        }
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind<A::Payload>) {
        self.seq += 1;
        let slot = self.pool.alloc(kind);
        self.queue.push(Reverse(EventKey {
            time,
            seq: self.seq,
            slot,
        }));
    }

    /// Runs until the event queue is empty, the time horizon is reached, or
    /// `max_events` events have been processed. Returns the number of events
    /// processed by this call.
    pub fn run(&mut self, horizon: SimTime, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events {
            let Some(Reverse(key)) = self.queue.pop() else {
                break;
            };
            if key.time > horizon {
                // Put it back for a later run() call and stop. The payload
                // stays in its slot; only the Copy key moves.
                self.queue.push(Reverse(key));
                break;
            }
            self.now = key.time;
            processed += 1;
            self.events_processed += 1;
            match self.pool.take(key.slot) {
                EventKind::PeerOnline(p) => {
                    let newly_started = !self.started[p.index()];
                    self.online.insert(p);
                    if self.log_churn {
                        self.log.log(self.now, Some(p), "join", "peer online");
                    }
                    if newly_started {
                        self.started[p.index()] = true;
                        self.dispatch(p, |app, ctx| app.on_start(ctx));
                    }
                }
                EventKind::PeerOffline(p) => {
                    self.online.remove(p);
                    if self.log_churn {
                        self.log.log(self.now, Some(p), "leave", "peer offline");
                    }
                    self.dispatch(p, |app, ctx| app.on_stop(ctx));
                }
                EventKind::Timer { peer, timer } => {
                    if self.online.contains(peer) {
                        self.dispatch(peer, |app, ctx| app.on_timer(ctx, timer));
                    }
                }
                EventKind::Deliver(env) => {
                    let latency = self.now.saturating_sub(env.sent_at);
                    if self.online.contains(env.to) {
                        self.stats.record_delivery(
                            env.from,
                            env.to,
                            env.kind,
                            env.size_bytes,
                            latency,
                        );
                        let (from, payload, to) = (env.from, env.payload, env.to);
                        self.dispatch(to, |app, ctx| app.on_message(ctx, from, payload));
                    } else {
                        self.stats.record_drop(env.from, env.kind, env.size_bytes);
                    }
                }
            }
        }
        processed
    }

    fn dispatch<F>(&mut self, peer: PeerId, f: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Payload>),
    {
        // The action buffer shuttles between the engine and the context:
        // taken here, handed back (still with its capacity) after draining.
        let mut ctx = Context {
            self_id: peer,
            now: self.now,
            actions: std::mem::take(&mut self.action_buf),
            rng: &mut self.rng,
            online: &self.online,
        };
        f(&mut self.apps[peer.index()], &mut ctx);
        let mut actions = ctx.actions;
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    to,
                    kind,
                    size_bytes,
                    payload,
                } => {
                    let delay = self.physical.delivery_delay(peer, to, size_bytes);
                    let env = Envelope {
                        from: peer,
                        to,
                        kind,
                        size_bytes,
                        sent_at: self.now,
                        payload,
                    };
                    let at = self.now + delay;
                    self.push_event(at, EventKind::Deliver(env));
                }
                Action::SetTimer { delay, timer } => {
                    let at = self.now + delay;
                    self.push_event(at, EventKind::Timer { peer, timer });
                }
                Action::Log { category, message } => {
                    self.log.log(self.now, Some(peer), category, message);
                }
            }
        }
        self.action_buf = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the full queue with a generous event cap.
    fn run_to_completion<A: Application>(e: &mut Engine<A>) -> u64 {
        e.run(SimTime(u64::MAX), 10_000_000)
    }
    use crate::churn::ChurnModel;
    use crate::physical::PhysicalNetwork;

    /// A simple application: peer 0 pings every other peer on start; peers
    /// respond with a pong; everyone counts what they received.
    #[derive(Default)]
    struct PingPong {
        pings_received: usize,
        pongs_received: usize,
    }

    #[derive(Clone, PartialEq, Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Application for PingPong {
        type Payload = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.self_id() == PeerId(0) {
                for p in ctx.online_peers() {
                    if p != ctx.self_id() {
                        ctx.send(p, MessageKind::Other, 32, Msg::Ping);
                    }
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: PeerId, payload: Msg) {
            match payload {
                Msg::Ping => {
                    self.pings_received += 1;
                    ctx.send(from, MessageKind::Other, 32, Msg::Pong);
                }
                Msg::Pong => self.pongs_received += 1,
            }
        }
    }

    fn engine(n: usize) -> Engine<PingPong> {
        let apps = (0..n).map(|_| PingPong::default()).collect();
        Engine::new(apps, PhysicalNetwork::default(), 1)
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut e = engine(10);
        run_to_completion(&mut e);
        assert_eq!(e.app(PeerId(0)).pongs_received, 9);
        for i in 1..10u64 {
            assert_eq!(e.app(PeerId(i)).pings_received, 1);
        }
        assert_eq!(e.stats().total_messages(), 18);
        assert_eq!(e.stats().delivery_rate(), 1.0);
        assert!(e.now() > SimTime::ZERO);
    }

    #[test]
    fn horizon_limits_processing() {
        let mut e = engine(10);
        // Nothing can be delivered in the first microsecond except the start events.
        e.run(SimTime::from_micros(1), 1_000_000);
        assert_eq!(e.app(PeerId(0)).pongs_received, 0);
        run_to_completion(&mut e);
        assert_eq!(e.app(PeerId(0)).pongs_received, 9);
    }

    #[test]
    fn offline_peers_drop_messages() {
        struct Broadcaster;
        impl Application for Broadcaster {
            type Payload = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.self_id() == PeerId(0) {
                    // Deliberately send to every peer id, even offline ones.
                    for i in 0..4u64 {
                        if i != 0 {
                            ctx.send(PeerId(i), MessageKind::Other, 16, ());
                        }
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: PeerId, _p: ()) {}
        }
        let apps = (0..4).map(|_| Broadcaster).collect();
        let mut e = Engine::new(apps, PhysicalNetwork::default(), 2);
        // Take peer 3 offline for the whole run.
        let timeline = ChurnTimeline::generate(ChurnModel::None, 4, SimTime::from_secs(1_000), 3);
        e.apply_churn(&timeline);
        e.push_event(SimTime::ZERO, EventKind::PeerOffline(PeerId(3)));
        run_to_completion(&mut e);
        assert_eq!(e.stats().total_dropped(), 1);
        assert!(e.stats().delivery_rate() < 1.0);
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Default)]
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl Application for TimerApp {
            type Payload = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimTime::from_millis(20), 2);
                ctx.set_timer(SimTime::from_millis(10), 1);
                ctx.set_timer(SimTime::from_millis(30), 3);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: PeerId, _p: ()) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, timer: u64) {
                self.fired.push(timer);
            }
        }
        let mut e = Engine::new(vec![TimerApp::default()], PhysicalNetwork::default(), 3);
        run_to_completion(&mut e);
        assert_eq!(e.app(PeerId(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn churned_out_peers_do_not_receive() {
        let mut e = engine(20);
        let timeline = ChurnTimeline::generate(
            ChurnModel::Exponential {
                mean_session_secs: 0.05,
                mean_offline_secs: 10.0,
            },
            20,
            SimTime::from_secs(100),
            5,
        );
        e.apply_churn(&timeline);
        run_to_completion(&mut e);
        // With peers mostly offline, some of peer 0's pings must be dropped
        // (peer 0 itself may also churn out, in which case nothing is sent).
        let stats = e.stats();
        assert!(stats.total_dropped() > 0 || stats.total_messages() == 0);
    }

    #[test]
    fn event_cap_is_respected() {
        let mut e = engine(50);
        let processed = e.run(SimTime(u64::MAX), 10);
        assert_eq!(processed, 10);
    }

    #[test]
    fn slab_recycles_slots_without_growing() {
        // One ping-pong pair bouncing a message back and forth keeps exactly
        // one message in flight: the slab must stay at its ramp-up size no
        // matter how many events are processed.
        #[derive(Default)]
        struct Bouncer {
            bounces: u64,
        }
        impl Application for Bouncer {
            type Payload = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                if ctx.self_id() == PeerId(0) {
                    ctx.send(PeerId(1), MessageKind::Other, 8, 0);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: PeerId, n: u64) {
                self.bounces += 1;
                if n < 500 {
                    ctx.send(from, MessageKind::Other, 8, n + 1);
                }
            }
        }
        let apps = (0..2).map(|_| Bouncer::default()).collect();
        let mut e = Engine::new(apps, PhysicalNetwork::default(), 7);
        run_to_completion(&mut e);
        let total = e.app(PeerId(0)).bounces + e.app(PeerId(1)).bounces;
        assert_eq!(total, 501);
        // Ramp-up: 2 PeerOnline events + 1 in-flight message. Steady state
        // recycles those slots for all ~500 subsequent deliveries.
        assert!(
            e.pool.high_water_mark() <= 3,
            "slab grew to {} slots for a 1-message-in-flight workload",
            e.pool.high_water_mark()
        );
    }

    #[test]
    fn num_online_tracks_churn() {
        let mut e = engine(10);
        run_to_completion(&mut e);
        assert_eq!(e.num_online(), 10);
        e.push_event(e.now(), EventKind::PeerOffline(PeerId(4)));
        run_to_completion(&mut e);
        assert_eq!(e.num_online(), 9);
        assert!(!e.is_online(PeerId(4)));
    }
}
