//! Churn (peer arrival/departure) models.
//!
//! P2PDMT supports configuring the "churn model(s)" and simulating node
//! failures (Figure 2); the demonstration varies the "churn/attrition rate of
//! the P2P network" (§3). A churn model samples alternating online sessions
//! and offline periods for every peer; the resulting [`ChurnTimeline`] answers
//! "is peer *p* alive at time *t*?" and yields the join/leave event stream for
//! the discrete-event engine.

use crate::peer::PeerId;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A peer lifetime model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnModel {
    /// All peers stay online for the whole simulation.
    None,
    /// Exponentially distributed session and offline durations (the classic
    /// OverSim "LifetimeChurn" model).
    Exponential {
        /// Mean online-session duration in seconds.
        mean_session_secs: f64,
        /// Mean offline duration in seconds.
        mean_offline_secs: f64,
    },
    /// Pareto (heavy-tailed) session lengths with exponential downtime, which
    /// better matches measured P2P lifetimes (a few long-lived peers, many
    /// short-lived ones).
    Pareto {
        /// Shape parameter (> 1 for a finite mean); 2.0 is a common choice.
        shape: f64,
        /// Minimum (scale) session length in seconds.
        min_session_secs: f64,
        /// Mean offline duration in seconds.
        mean_offline_secs: f64,
    },
}

impl ChurnModel {
    /// Samples one online-session duration.
    pub fn sample_session(&self, rng: &mut StdRng) -> SimTime {
        match *self {
            ChurnModel::None => SimTime::from_secs(u64::MAX / 4),
            ChurnModel::Exponential {
                mean_session_secs, ..
            } => SimTime::from_secs_f64(sample_exponential(rng, mean_session_secs)),
            ChurnModel::Pareto {
                shape,
                min_session_secs,
                ..
            } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                SimTime::from_secs_f64(min_session_secs / u.powf(1.0 / shape.max(1.01)))
            }
        }
    }

    /// Samples one offline-period duration.
    pub fn sample_offline(&self, rng: &mut StdRng) -> SimTime {
        match *self {
            ChurnModel::None => SimTime::ZERO,
            ChurnModel::Exponential {
                mean_offline_secs, ..
            }
            | ChurnModel::Pareto {
                mean_offline_secs, ..
            } => SimTime::from_secs_f64(sample_exponential(rng, mean_offline_secs)),
        }
    }

    /// Expected long-run fraction of time a peer is online.
    #[cfg(test)]
    pub fn expected_availability(&self) -> f64 {
        match *self {
            ChurnModel::None => 1.0,
            ChurnModel::Exponential {
                mean_session_secs,
                mean_offline_secs,
            } => mean_session_secs / (mean_session_secs + mean_offline_secs),
            ChurnModel::Pareto {
                shape,
                min_session_secs,
                mean_offline_secs,
            } => {
                let mean_session = if shape > 1.0 {
                    shape * min_session_secs / (shape - 1.0)
                } else {
                    min_session_secs * 10.0
                };
                mean_session / (mean_session + mean_offline_secs)
            }
        }
    }
}

fn sample_exponential(rng: &mut StdRng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// A join or leave event produced by a churn timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the event happens.
    pub time: SimTime,
    /// Which peer it concerns.
    pub peer: PeerId,
    /// `true` for a join (peer comes online), `false` for a leave.
    pub online: bool,
}

/// Precomputed alternating online/offline intervals for every peer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnTimeline {
    /// Sorted per-peer online intervals `[start, end)`.
    intervals: Vec<Vec<(SimTime, SimTime)>>,
    horizon: SimTime,
}

impl ChurnTimeline {
    /// Generates a timeline for `num_peers` peers over `[0, horizon)`.
    ///
    /// Every peer starts online at a random phase of its first session so the
    /// network does not empty out synchronously.
    pub fn generate(model: ChurnModel, num_peers: usize, horizon: SimTime, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut intervals = Vec::with_capacity(num_peers);
        for _ in 0..num_peers {
            let mut peer_intervals = Vec::new();
            if matches!(model, ChurnModel::None) {
                peer_intervals.push((SimTime::ZERO, horizon));
                intervals.push(peer_intervals);
                continue;
            }
            let mut t = SimTime::ZERO;
            // Random initial phase: the first session is partially elapsed.
            let first = model.sample_session(&mut rng);
            let elapsed = SimTime::from_micros(rng.gen_range(0..=first.as_micros().max(1)));
            let mut session_remaining = first.saturating_sub(elapsed);
            loop {
                let end = (t + session_remaining).min(horizon);
                if end > t {
                    // A zero-length offline period (possible when the sampled
                    // offline duration truncates to zero, e.g. `mean <= 0.0`)
                    // would otherwise produce two adjacent intervals touching
                    // at `t` — and a leave + join event pair at the same
                    // instant. Merge them into one continuous session.
                    match peer_intervals.last_mut() {
                        Some(&mut (_, ref mut prev_end)) if *prev_end == t => *prev_end = end,
                        _ => peer_intervals.push((t, end)),
                    }
                }
                t = end + model.sample_offline(&mut rng);
                if t >= horizon {
                    break;
                }
                session_remaining = model.sample_session(&mut rng);
            }
            intervals.push(peer_intervals);
        }
        Self { intervals, horizon }
    }

    /// Number of peers covered by this timeline.
    pub fn num_peers(&self) -> usize {
        self.intervals.len()
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Whether `peer` is online at `time`.
    pub fn is_online(&self, peer: PeerId, time: SimTime) -> bool {
        self.intervals
            .get(peer.index())
            .map(|iv| iv.iter().any(|&(s, e)| s <= time && time < e))
            .unwrap_or(false)
    }

    /// All peers online at `time`.
    pub fn online_peers(&self, time: SimTime) -> Vec<PeerId> {
        (0..self.num_peers())
            .map(PeerId::from)
            .filter(|&p| self.is_online(p, time))
            .collect()
    }

    /// Produces the time-ordered stream of join/leave events.
    pub fn events(&self) -> Vec<ChurnEvent> {
        let mut out = Vec::new();
        for (i, iv) in self.intervals.iter().enumerate() {
            for &(s, e) in iv {
                out.push(ChurnEvent {
                    time: s,
                    peer: PeerId::from(i),
                    online: true,
                });
                if e < self.horizon {
                    out.push(ChurnEvent {
                        time: e,
                        peer: PeerId::from(i),
                        online: false,
                    });
                }
            }
        }
        // Deterministic tie-break: at equal times, order by peer and emit a
        // leave (`online == false`) before a join, so consumers that apply
        // the stream in order never conclude a peer ended up offline from a
        // same-instant leave/join pair. (Zero-gap intervals are already
        // merged at generation time; this also covers same-instant events of
        // different origins.)
        out.sort_by_key(|e| (e.time, e.peer, e.online));
        out
    }

    /// Mean number of online intervals per peer — a proxy for the churn rate.
    #[cfg(test)]
    pub fn mean_sessions_per_peer(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(Vec::len).sum::<usize>() as f64 / self.intervals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_churn_keeps_everyone_online() {
        let tl = ChurnTimeline::generate(ChurnModel::None, 10, SimTime::from_secs(100), 1);
        assert_eq!(tl.online_peers(SimTime::from_secs(50)).len(), 10);
        assert_eq!(tl.online_peers(SimTime::from_secs(99)).len(), 10);
        assert!(tl.events().iter().all(|e| e.online));
    }

    #[test]
    fn exponential_churn_availability_matches_expectation() {
        let model = ChurnModel::Exponential {
            mean_session_secs: 300.0,
            mean_offline_secs: 100.0,
        };
        let tl = ChurnTimeline::generate(model, 400, SimTime::from_secs(2_000), 42);
        // Expected availability 0.75; sample mid-simulation with tolerance.
        let a = tl.online_peers(SimTime::from_secs(1_000)).len() as f64 / 400.0;
        assert!(
            (a - model.expected_availability()).abs() < 0.12,
            "availability {a}"
        );
    }

    #[test]
    fn higher_churn_means_more_sessions() {
        let calm = ChurnTimeline::generate(
            ChurnModel::Exponential {
                mean_session_secs: 1_000.0,
                mean_offline_secs: 100.0,
            },
            100,
            SimTime::from_secs(2_000),
            7,
        );
        let stormy = ChurnTimeline::generate(
            ChurnModel::Exponential {
                mean_session_secs: 50.0,
                mean_offline_secs: 50.0,
            },
            100,
            SimTime::from_secs(2_000),
            7,
        );
        assert!(stormy.mean_sessions_per_peer() > calm.mean_sessions_per_peer());
    }

    #[test]
    fn events_alternate_and_are_ordered() {
        let tl = ChurnTimeline::generate(
            ChurnModel::Exponential {
                mean_session_secs: 60.0,
                mean_offline_secs: 60.0,
            },
            20,
            SimTime::from_secs(600),
            3,
        );
        let events = tl.events();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // is_online must agree with the interval events for a few probes.
        for t in [0u64, 100, 300, 599] {
            let time = SimTime::from_secs(t);
            for p in 0..20u64 {
                let _ = tl.is_online(PeerId(p), time); // must not panic
            }
        }
    }

    #[test]
    fn pareto_sessions_respect_minimum() {
        let model = ChurnModel::Pareto {
            shape: 2.0,
            min_session_secs: 30.0,
            mean_offline_secs: 30.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            assert!(model.sample_session(&mut rng) >= SimTime::from_secs(30));
        }
        assert!(model.expected_availability() > 0.5);
    }

    #[test]
    fn zero_gap_offline_periods_merge_into_one_session() {
        // With a zero mean offline duration every sampled gap truncates to
        // zero: pre-fix this produced chains of adjacent intervals and
        // same-instant leave/join event pairs that could leave a peer
        // "offline" for in-order consumers of the event stream.
        let model = ChurnModel::Exponential {
            mean_session_secs: 50.0,
            mean_offline_secs: 0.0,
        };
        let tl = ChurnTimeline::generate(model, 30, SimTime::from_secs(1_000), 11);
        // Adjacent intervals merged: each peer has exactly one continuous
        // session reaching the horizon, so the only events are initial joins.
        assert!(tl.events().iter().all(|e| e.online));
        assert!((tl.mean_sessions_per_peer() - 1.0).abs() < 1e-12);
        for p in 0..30u64 {
            assert!(tl.is_online(PeerId(p), SimTime::from_secs(999)));
        }
    }

    #[test]
    fn same_instant_events_order_leave_before_join() {
        // Replaying the event stream in order must reproduce is_online at
        // every event time: a peer with a leave and a join at the same
        // instant must come out online (leave sorts first).
        let model = ChurnModel::Exponential {
            mean_session_secs: 40.0,
            mean_offline_secs: 20.0,
        };
        let tl = ChurnTimeline::generate(model, 50, SimTime::from_secs(2_000), 13);
        let events = tl.events();
        for w in events.windows(2) {
            assert!((w[0].time, w[0].peer, w[0].online) < (w[1].time, w[1].peer, w[1].online));
        }
        let mut online = [false; 50];
        let mut i = 0;
        while i < events.len() {
            let t = events[i].time;
            let mut j = i;
            while j < events.len() && events[j].time == t {
                online[events[j].peer.index()] = events[j].online;
                j += 1;
            }
            for p in 0..50u64 {
                assert_eq!(
                    online[p as usize],
                    tl.is_online(PeerId(p), t),
                    "replayed state diverges for peer {p} at {t}"
                );
            }
            i = j;
        }
    }

    #[test]
    fn unknown_peer_is_offline() {
        let tl = ChurnTimeline::generate(ChurnModel::None, 2, SimTime::from_secs(10), 1);
        assert!(!tl.is_online(PeerId(99), SimTime::from_secs(1)));
    }
}
