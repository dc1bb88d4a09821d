//! Deterministic fault injection: message loss, burst loss, latency spikes,
//! frame corruption, partitions and crash-restarts.
//!
//! The polite simulator drops a message only when its target is offline;
//! every real P2P deployment also lives with lossy links, congestion bursts,
//! bisected networks and processes that die mid-protocol. A [`FaultPlan`]
//! describes those hazards declaratively; a [`FaultState`] executes it from
//! its **own** seeded RNG streams, so
//!
//! * replays are bit-identical (same seed ⇒ same faults at the same sends),
//! * the crash schedule is a function of the seed and the clock alone (it
//!   draws from a stream of its own, never from the per-send stream), so
//!   protocols that send different amounts of traffic crash alike,
//! * enabling faults never perturbs the protocol/overlay RNG streams, and
//! * a fully disabled plan (the default) consumes **zero** RNG draws and
//!   takes an early-return path — runs with `FaultPlan::default()` are
//!   bit-identical to runs built before this module existed.
//!
//! Partition windows are purely schedule-driven (no randomness at all):
//! a window names a time span and a peer-set bisection, either by raw index
//! or — overlay-aware — by DHT ring key, so a chord network can be split at
//! a ring pivot exactly like a real backbone cut would.
//!
//! Crash-restarts are distinct from churn: a churned peer leaves gracefully
//! and returns with its state intact, while a crashed peer stays online but
//! loses its in-memory protocol state and must recover (see the
//! `p2pclassify` anti-entropy layer). The fault layer only *schedules*
//! crashes; wiping state is the protocol layer's job.

use crate::peer::PeerId;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Salt xored into the simulation seed so the fault stream is independent of
/// every other consumer of the seed (overlay, churn, protocols).
const FAULT_SEED_SALT: u64 = 0xF_A170_CA5C;

/// Salt of the crash schedule's own stream. Crash times and victims never
/// share a stream with the per-send draws, so the schedule is the same
/// however much traffic the protocol sends between two sweeps.
const CRASH_SEED_SALT: u64 = 0xC8A5_11ED_5EED;

/// Gilbert–Elliott two-state burst-loss channel: the link oscillates between
/// a good state (no extra loss) and a bad state dropping `loss` of messages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstLoss {
    /// Per-send probability of entering the bad state from the good state.
    pub enter: f64,
    /// Per-send probability of leaving the bad state back to good.
    pub exit: f64,
    /// Loss probability while in the bad state.
    pub loss: f64,
}

/// Latency degradation: occasional spikes plus uniform jitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyFaults {
    /// Per-send probability of a latency spike.
    pub spike_probability: f64,
    /// Extra one-way delay added by a spike, in milliseconds.
    pub spike_ms: f64,
    /// Uniform jitter in `[0, jitter_ms)` added to every delivery.
    pub jitter_ms: f64,
}

/// Bit-level frame damage applied to delivered byte frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorruptionFaults {
    /// Per-frame probability of corruption.
    pub probability: f64,
    /// Given corruption, probability the frame is truncated instead of
    /// bit-flipped.
    pub truncation: f64,
}

/// How a partition window splits the peer set in two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionScope {
    /// Peers with index `< pivot` on one side, the rest on the other.
    Index {
        /// First peer index of the second side.
        pivot: usize,
    },
    /// Overlay-aware bisection: peers whose DHT ring key is `< pivot_key` on
    /// one side — a cut through the chord ring rather than the id space.
    Ring {
        /// First ring key of the second side.
        pivot_key: u64,
    },
}

impl PartitionScope {
    /// Which side of the bisection `peer` falls on.
    pub fn side(&self, peer: PeerId) -> bool {
        match *self {
            PartitionScope::Index { pivot } => peer.index() < pivot,
            PartitionScope::Ring { pivot_key } => peer.ring_key() < pivot_key,
        }
    }
}

/// A network partition over a closed-open time window `[start, end)`:
/// messages crossing the bisection during the window are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// Window start, in simulated seconds.
    pub start_secs: u64,
    /// Window end (heal time), in simulated seconds.
    pub end_secs: u64,
    /// The bisection.
    pub scope: PartitionScope,
}

impl PartitionWindow {
    /// Whether the window is active at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        let s = now.as_secs_f64();
        s >= self.start_secs as f64 && s < self.end_secs as f64
    }

    /// Whether `from → to` crosses the bisection.
    pub fn severs(&self, from: PeerId, to: PeerId) -> bool {
        self.scope.side(from) != self.scope.side(to)
    }
}

/// Crash-restart schedule: exponential inter-arrival times with a bound on
/// the total number of crashes (so a long horizon cannot melt the network).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashSchedule {
    /// Mean seconds between crash events.
    pub mean_interval_secs: f64,
    /// Maximum number of crash events over the whole run.
    pub max_crashes: u64,
}

/// A declarative fault scenario. The default is **everything off** — and a
/// disabled plan is guaranteed RNG-neutral, so it cannot perturb a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Independent per-send loss probability (0.0 = off).
    pub loss: f64,
    /// Gilbert–Elliott burst-loss channel.
    pub burst: Option<BurstLoss>,
    /// Latency spikes and jitter.
    pub latency: Option<LatencyFaults>,
    /// Frame corruption (applies to byte-frame sends only).
    pub corruption: Option<CorruptionFaults>,
    /// Scheduled partition windows (deterministic, no RNG draws).
    pub partitions: Vec<PartitionWindow>,
    /// Crash-restart schedule.
    pub crashes: Option<CrashSchedule>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            loss: 0.0,
            burst: None,
            latency: None,
            corruption: None,
            partitions: Vec::new(),
            crashes: None,
        }
    }
}

impl FaultPlan {
    /// Whether any knob is enabled. A plan that is not active takes the
    /// early-return path on every hook and consumes no randomness.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.burst.is_some()
            || self.latency.is_some()
            || self.corruption.is_some()
            || !self.partitions.is_empty()
            || self.crashes.is_some()
    }

    /// A moderate all-hazards plan used by tests and the chaos bench grid.
    pub fn chaos(loss: f64, partition: Option<PartitionWindow>, crashes: bool) -> Self {
        Self {
            loss,
            burst: (loss > 0.0).then_some(BurstLoss {
                enter: 0.05,
                exit: 0.5,
                loss: (3.0 * loss).min(0.9),
            }),
            latency: Some(LatencyFaults {
                spike_probability: 0.02,
                spike_ms: 400.0,
                jitter_ms: 5.0,
            }),
            corruption: (loss > 0.0).then_some(CorruptionFaults {
                probability: loss / 4.0,
                truncation: 0.3,
            }),
            partitions: partition.into_iter().collect(),
            crashes: crashes.then_some(CrashSchedule {
                mean_interval_secs: 600.0,
                max_crashes: 8,
            }),
        }
    }
}

/// Why the fault layer dropped a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDrop {
    /// Independent (or burst-state) random loss.
    Loss {
        /// Whether the Gilbert–Elliott chain was in its bad state.
        burst: bool,
    },
    /// The send crossed an active partition bisection.
    Partitioned,
}

/// The fault layer's verdict on one send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendFault {
    /// Deliver, with extra delay from spikes/jitter (zero when latency
    /// faults are off).
    Deliver {
        /// Additional one-way delay.
        extra_latency: SimTime,
        /// Whether a latency spike fired (for stats).
        spiked: bool,
    },
    /// Drop the message.
    Drop(FaultDrop),
}

/// Executes a [`FaultPlan`] from dedicated seeded RNG streams.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// Per-send draws: loss, bursts, latency, corruption.
    rng: StdRng,
    /// Crash times and victims.
    crash_rng: StdRng,
    /// Gilbert–Elliott chain state: `true` = bad (bursting).
    burst_bad: bool,
    /// Next scheduled crash time (lazily drawn).
    next_crash: Option<SimTime>,
    crashes_emitted: u64,
}

impl FaultState {
    /// Builds the executor for `plan`, deriving its RNGs from the simulation
    /// seed (salted, so they are independent of every other seed consumer
    /// and of each other).
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            crash_rng: StdRng::seed_from_u64(seed ^ CRASH_SEED_SALT),
            burst_bad: false,
            next_crash: None,
            crashes_emitted: 0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault knob is enabled.
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Adjudicates one send at time `now`. Partition checks draw no
    /// randomness; loss/burst/latency draw from the fault stream in a fixed
    /// order so replays agree. Only the inactive-plan check is inlined into
    /// the send loops (every copy of an n² propagation asks).
    #[inline]
    pub fn on_send(&mut self, now: SimTime, from: PeerId, to: PeerId) -> SendFault {
        if !self.plan.is_active() {
            return SendFault::Deliver {
                extra_latency: SimTime::ZERO,
                spiked: false,
            };
        }
        self.on_send_active(now, from, to)
    }

    /// [`Self::on_send`] under a plan with at least one knob enabled.
    fn on_send_active(&mut self, now: SimTime, from: PeerId, to: PeerId) -> SendFault {
        for w in &self.plan.partitions {
            if w.active_at(now) && w.severs(from, to) {
                return SendFault::Drop(FaultDrop::Partitioned);
            }
        }
        if let Some(b) = self.plan.burst {
            // Advance the chain once per send, then apply the state's loss.
            let flip = if self.burst_bad { b.exit } else { b.enter };
            if self.rng.gen_bool(flip.clamp(0.0, 1.0)) {
                self.burst_bad = !self.burst_bad;
            }
            if self.burst_bad && self.rng.gen_bool(b.loss.clamp(0.0, 1.0)) {
                return SendFault::Drop(FaultDrop::Loss { burst: true });
            }
        }
        if self.plan.loss > 0.0 && self.rng.gen_bool(self.plan.loss.clamp(0.0, 1.0)) {
            return SendFault::Drop(FaultDrop::Loss { burst: false });
        }
        let mut extra_ms = 0.0;
        let mut spiked = false;
        if let Some(l) = self.plan.latency {
            if l.spike_probability > 0.0 && self.rng.gen_bool(l.spike_probability.clamp(0.0, 1.0)) {
                extra_ms += l.spike_ms.max(0.0);
                spiked = true;
            }
            if l.jitter_ms > 0.0 {
                extra_ms += self.rng.gen_unit_f64() * l.jitter_ms;
            }
        }
        SendFault::Deliver {
            extra_latency: SimTime::from_secs_f64(extra_ms / 1e3),
            spiked,
        }
    }

    /// Possibly damages a delivered byte frame. `None` means intact;
    /// `Some((bytes, truncated))` is the frame as the receiver sees it.
    /// Damage is guaranteed to change the bytes (a "corruption" that leaves
    /// the frame identical would silently under-count).
    #[inline]
    pub fn corrupt_frame(&mut self, frame: &[u8]) -> Option<(Vec<u8>, bool)> {
        let c = self.plan.corruption?;
        if frame.is_empty() || c.probability <= 0.0 {
            return None;
        }
        self.corrupt_frame_with(c, frame)
    }

    /// [`Self::corrupt_frame`] for a non-empty frame under corruption `c`.
    fn corrupt_frame_with(&mut self, c: CorruptionFaults, frame: &[u8]) -> Option<(Vec<u8>, bool)> {
        if !self.rng.gen_bool(c.probability.clamp(0.0, 1.0)) {
            return None;
        }
        if self.rng.gen_bool(c.truncation.clamp(0.0, 1.0)) {
            let keep = self.rng.gen_range(0..frame.len());
            Some((frame[..keep].to_vec(), true))
        } else {
            let mut out = frame.to_vec();
            let flips = self.rng.gen_range(1..=3usize);
            let mut done: [usize; 3] = [usize::MAX; 3];
            let mut n = 0;
            while n < flips {
                // Distinct bit positions, so flips can never cancel out and
                // restore the original frame.
                let bit = self.rng.gen_range(0..out.len() * 8);
                if done[..n].contains(&bit) {
                    continue;
                }
                done[n] = bit;
                n += 1;
                out[bit / 8] ^= 1 << (bit % 8);
            }
            Some((out, false))
        }
    }

    /// Emits every crash event scheduled in `(from, to]` into `out`.
    /// Victims are drawn uniformly over the peer set; the caller decides
    /// what a crash of an offline peer means (typically a no-op). Times and
    /// victims come from the crash stream, so sends judged between two calls
    /// do not move the schedule.
    pub fn crashes_between(
        &mut self,
        from: SimTime,
        to: SimTime,
        num_peers: usize,
        out: &mut Vec<PeerId>,
    ) {
        let Some(c) = self.plan.crashes else {
            return;
        };
        if num_peers == 0 || c.mean_interval_secs <= 0.0 {
            return;
        }
        if self.next_crash.is_none() {
            let gap = self.draw_exponential(c.mean_interval_secs);
            self.next_crash = Some(from + gap);
        }
        while self.crashes_emitted < c.max_crashes {
            let at = self.next_crash.expect("initialized above");
            if at > to {
                break;
            }
            out.push(PeerId::from(self.crash_rng.gen_range(0..num_peers)));
            self.crashes_emitted += 1;
            let gap = self.draw_exponential(c.mean_interval_secs);
            self.next_crash = Some(at + gap);
        }
    }

    /// Partition windows that healed (ended) in `(from, to]`.
    pub fn healed_between(&self, from: SimTime, to: SimTime) -> Vec<PartitionWindow> {
        self.plan
            .partitions
            .iter()
            .filter(|w| {
                let end = w.end_secs as f64;
                end > from.as_secs_f64() && end <= to.as_secs_f64()
            })
            .copied()
            .collect()
    }

    /// The fault stream's next draw, without consuming it — lets tests pin
    /// that two send paths left the stream in the same state.
    #[cfg(test)]
    pub(crate) fn peek_next_draw(&self) -> u64 {
        rand::RngCore::next_u64(&mut self.rng.clone())
    }

    /// Exponential draw from the crash stream with the given mean, as a
    /// [`SimTime`] gap of at least one millisecond (so schedules always
    /// advance).
    fn draw_exponential(&mut self, mean_secs: f64) -> SimTime {
        let u = self.crash_rng.gen_unit_f64();
        let secs = -mean_secs * (1.0_f64 - u).max(f64::MIN_POSITIVE).ln();
        SimTime::from_secs_f64(secs.max(1e-3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn active_plan() -> FaultPlan {
        FaultPlan {
            loss: 0.2,
            burst: Some(BurstLoss {
                enter: 0.1,
                exit: 0.4,
                loss: 0.8,
            }),
            latency: Some(LatencyFaults {
                spike_probability: 0.1,
                spike_ms: 200.0,
                jitter_ms: 10.0,
            }),
            corruption: Some(CorruptionFaults {
                probability: 0.5,
                truncation: 0.4,
            }),
            partitions: vec![PartitionWindow {
                start_secs: 100,
                end_secs: 200,
                scope: PartitionScope::Index { pivot: 4 },
            }],
            crashes: Some(CrashSchedule {
                mean_interval_secs: 50.0,
                max_crashes: 5,
            }),
        }
    }

    #[test]
    fn default_plan_is_inactive() {
        assert!(!FaultPlan::default().is_active());
        assert!(active_plan().is_active());
    }

    #[test]
    fn disabled_plan_draws_no_randomness() {
        let mut a = FaultState::new(FaultPlan::default(), 7);
        let mut b = StdRng::seed_from_u64(7 ^ FAULT_SEED_SALT);
        let mut crash_b = StdRng::seed_from_u64(7 ^ CRASH_SEED_SALT);
        for i in 0..100usize {
            let v = a.on_send(SimTime::from_secs(i as u64), PeerId(0), PeerId(1));
            assert_eq!(
                v,
                SendFault::Deliver {
                    extra_latency: SimTime::ZERO,
                    spiked: false
                }
            );
            assert!(a.corrupt_frame(&[1, 2, 3]).is_none());
            let mut crashed = Vec::new();
            a.crashes_between(SimTime::ZERO, SimTime::from_secs(3_600), 10, &mut crashed);
            assert!(crashed.is_empty());
        }
        // Neither internal stream was ever advanced.
        assert_eq!(a.rng.next_u64(), b.next_u64());
        assert_eq!(a.crash_rng.next_u64(), crash_b.next_u64());
    }

    #[test]
    fn crash_schedule_does_not_depend_on_traffic() {
        // The same sweep of the clock, once with no sends judged and once
        // with 10 000 sends judged before every sweep step.
        let schedule = |sends_per_step: u64| {
            let mut s = FaultState::new(active_plan(), 42);
            let mut crashed = Vec::new();
            let mut prev = SimTime::ZERO;
            for step in 1..=36u64 {
                let now = SimTime::from_secs(step * 100);
                for i in 0..sends_per_step {
                    s.on_send(prev, PeerId(i % 8), PeerId((i + 3) % 8));
                }
                let mut victims = Vec::new();
                s.crashes_between(prev, now, 8, &mut victims);
                crashed.extend(victims.into_iter().map(|p| (step, p)));
                prev = now;
            }
            crashed
        };
        let quiet = schedule(0);
        assert!(!quiet.is_empty(), "no crash drawn");
        assert_eq!(quiet, schedule(10_000));
    }

    #[test]
    fn replays_are_bit_identical() {
        let run = || {
            let mut s = FaultState::new(active_plan(), 42);
            let mut verdicts = Vec::new();
            let mut crashed = Vec::new();
            for i in 0..500u64 {
                let now = SimTime::from_millis(i * 500);
                verdicts.push(s.on_send(now, PeerId(i % 8), PeerId((i + 3) % 8)));
                if let Some((bytes, trunc)) = s.corrupt_frame(&[0xD7, 1, 2, 3, 4, 5, 6, 7]) {
                    verdicts.push(SendFault::Deliver {
                        extra_latency: SimTime::from_millis(bytes.len() as u64),
                        spiked: trunc,
                    });
                }
            }
            s.crashes_between(SimTime::ZERO, SimTime::from_secs(3_600), 8, &mut crashed);
            (verdicts, crashed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partition_severs_only_cross_side_sends_during_window() {
        let mut s = FaultState::new(
            FaultPlan {
                partitions: vec![PartitionWindow {
                    start_secs: 10,
                    end_secs: 20,
                    scope: PartitionScope::Index { pivot: 4 },
                }],
                ..FaultPlan::default()
            },
            1,
        );
        let during = SimTime::from_secs(15);
        let after = SimTime::from_secs(25);
        assert_eq!(
            s.on_send(during, PeerId(0), PeerId(5)),
            SendFault::Drop(FaultDrop::Partitioned)
        );
        // Same side: unaffected.
        assert!(matches!(
            s.on_send(during, PeerId(0), PeerId(1)),
            SendFault::Deliver { .. }
        ));
        // Healed: unaffected.
        assert!(matches!(
            s.on_send(after, PeerId(0), PeerId(5)),
            SendFault::Deliver { .. }
        ));
    }

    #[test]
    fn ring_scope_is_overlay_aware() {
        let scope = PartitionScope::Ring {
            pivot_key: u64::MAX / 2,
        };
        let mut low = 0;
        for i in 0..64u64 {
            if scope.side(PeerId(i)) {
                low += 1;
            }
        }
        // Ring keys are well spread, so the bisection is non-trivial.
        assert!(low > 8 && low < 56, "ring bisection degenerate: {low}/64");
    }

    #[test]
    fn corruption_always_changes_the_frame() {
        let mut s = FaultState::new(
            FaultPlan {
                corruption: Some(CorruptionFaults {
                    probability: 1.0,
                    truncation: 0.5,
                }),
                ..FaultPlan::default()
            },
            3,
        );
        let frame = vec![0xD7u8, 1, 3, 9, 9, 9, 9, 9];
        for _ in 0..200 {
            let (damaged, truncated) = s.corrupt_frame(&frame).expect("probability 1.0");
            assert_ne!(damaged, frame, "corruption must change the bytes");
            if truncated {
                assert!(damaged.len() < frame.len());
            } else {
                assert_eq!(damaged.len(), frame.len());
            }
        }
        assert!(s.corrupt_frame(&[]).is_none(), "empty frames are immune");
    }

    #[test]
    fn crash_schedule_respects_bound_and_window() {
        let mut s = FaultState::new(active_plan(), 9);
        let mut all = Vec::new();
        // Sweep in small increments: events land in exactly one window.
        let mut prev = SimTime::ZERO;
        for step in 1..=360u64 {
            let now = SimTime::from_secs(step * 10);
            let before = all.len();
            s.crashes_between(prev, now, 16, &mut all);
            let _ = before;
            prev = now;
        }
        assert!(all.len() <= 5, "max_crashes exceeded: {}", all.len());
        assert!(
            !all.is_empty(),
            "mean 50s over an hour should crash someone"
        );
        assert!(all.iter().all(|p| p.index() < 16));
    }

    #[test]
    fn healed_between_reports_window_ends_once() {
        let s = FaultState::new(active_plan(), 2);
        assert!(s
            .healed_between(SimTime::ZERO, SimTime::from_secs(150))
            .is_empty());
        let healed = s.healed_between(SimTime::from_secs(150), SimTime::from_secs(250));
        assert_eq!(healed.len(), 1);
        assert_eq!(healed[0].end_secs, 200);
        assert!(s
            .healed_between(SimTime::from_secs(250), SimTime::from_secs(350))
            .is_empty());
    }
}
