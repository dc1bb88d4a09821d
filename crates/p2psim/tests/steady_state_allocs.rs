//! Steady-state allocation and peer-memory growth of the event loop (the
//! memory model in `p2psim::engine`'s module docs). A churn-heavy gossip
//! application runs at 500 and 2 000 peers under a counting global allocator:
//! after a warm-up phase, a measured phase of the same traffic must allocate
//! at most [`ALLOCS_PER_EVENT_CEILING`] times per event, and peak live bytes
//! per peer at 2 000 peers may exceed the 500-peer figure by at most
//! [`PER_PEER_GROWTH_SLACK`]. The counter is process-global, so this file
//! holds exactly one test.

use p2psim::churn::{ChurnModel, ChurnTimeline};
use p2psim::engine::{Application, Context, Engine};
use p2psim::message::MessageKind;
use p2psim::physical::{PhysicalConfig, PhysicalNetwork};
use p2psim::time::SimTime;
use p2psim::PeerId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Room for one-off growth (a heap doubling past the warm-up high-water
/// mark) without letting a per-event allocation through.
const ALLOCS_PER_EVENT_CEILING: f64 = 0.05;

/// Lets fixed overheads amortize unevenly while still failing any O(n²)
/// per-peer structure.
const PER_PEER_GROWTH_SLACK: f64 = 1.25;

/// `(peers, warm-up events, measured events)`, ascending.
const SIZES: [(usize, u64, u64); 2] = [(500, 100_000, 100_000), (2_000, 200_000, 200_000)];

const SEED: u64 = 2010;
const FANOUT: usize = 4;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: delegates every operation to `System`; the counter updates have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `layout` unchanged to `System.alloc`, which upholds the
    // GlobalAlloc contract; the counters never touch the returned block.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: the caller passes the `(ptr, layout)` pair `alloc` returned, and
    // both go to `System.dealloc` unchanged; counting reads only the size.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    // SAFETY: delegates to `System.realloc` with the caller's
    // `(ptr, layout, new_size)` untouched; counters change only on success.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // The old block is released before the new one counts: an
            // in-place growth never has both live.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Gossips on a timer to a fixed stride of neighbors: timers, sends,
/// receipt and churn, with no RNG and no allocation per event.
struct GossipApp {
    id: usize,
    num_peers: usize,
    received: u64,
}

impl Application for GossipApp {
    type Payload = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimTime::from_millis(500), 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _timer: u64) {
        for k in 1..=FANOUT {
            let to = (self.id + k * 31 + 1) % self.num_peers;
            if to != self.id {
                ctx.send(PeerId::from(to), MessageKind::Other, 64, k as u64);
            }
        }
        ctx.set_timer(SimTime::from_millis(500), 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: PeerId, _payload: u64) {
        self.received += 1;
    }
}

/// `n` gossip peers under exponential churn, with the engine's churn-log
/// strings (its one per-event allocation source) disabled.
fn build_engine(n: usize) -> Engine<GossipApp> {
    let apps = (0..n)
        .map(|id| GossipApp {
            id,
            num_peers: n,
            received: 0,
        })
        .collect();
    let physical = PhysicalNetwork::new(PhysicalConfig {
        seed: SEED,
        ..PhysicalConfig::default()
    });
    let mut engine = Engine::new(apps, physical, SEED);
    engine.set_churn_logging(false);
    let churn = ChurnModel::Exponential {
        mean_session_secs: 600.0,
        mean_offline_secs: 120.0,
    };
    let horizon = SimTime::from_secs(3_600);
    engine.apply_churn(&ChurnTimeline::generate(churn, n, horizon, SEED ^ 0x5CA1E));
    engine
}

/// The measured phase's allocations per event and the whole run's peak live
/// bytes per peer, above what was live before the engine was built.
fn steady_state(n: usize, warmup: u64, measured: u64) -> (f64, f64) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut engine = build_engine(n);
    let horizon = SimTime::from_secs(3_600);
    assert_eq!(engine.run(horizon, warmup), warmup);
    ALLOCS.store(0, Relaxed);
    assert_eq!(engine.run(horizon, measured), measured);
    let allocs_per_event = ALLOCS.load(Relaxed) as f64 / measured as f64;
    let bytes_per_peer = (PEAK.load(Relaxed) - base) as f64 / n as f64;
    let received: u64 = (0..n).map(|i| engine.app(PeerId::from(i)).received).sum();
    assert!(received > 0, "no gossip delivered at {n} peers");
    (allocs_per_event, bytes_per_peer)
}

#[test]
fn warm_event_loop_allocates_nothing_and_peer_memory_grows_linearly() {
    let mut bytes_per_peer = Vec::new();
    for (n, warmup, measured) in SIZES {
        let (allocs_per_event, bpp) = steady_state(n, warmup, measured);
        assert!(
            allocs_per_event <= ALLOCS_PER_EVENT_CEILING,
            "steady-state allocs/event at {n} peers is {allocs_per_event:.4}, \
             ceiling {ALLOCS_PER_EVENT_CEILING}"
        );
        bytes_per_peer.push(bpp);
    }
    let (small, big) = (bytes_per_peer[0], bytes_per_peer[1]);
    assert!(
        big <= small * PER_PEER_GROWTH_SLACK,
        "super-linear peer memory: {big:.1} bytes/peer at 2k peers vs {small:.1} at 500"
    );
}
