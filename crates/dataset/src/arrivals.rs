//! Arrival times for a streaming document workload.
//!
//! The paper's workflow is ongoing — "P2PDocTagger will automatically update
//! the classification model(s) in the back-end" as documents keep arriving and
//! users keep refining (§2) — so the streaming session layer needs a *when*
//! for every document, not just a *what*. This module assigns each corpus
//! document an arrival time from a per-user Poisson process with **interest
//! drift**: early arrivals are drawn from a user's core interests (the popular
//! tags the generator gave them), later arrivals shift toward rarer,
//! exploratory topics. Golder & Huberman observe exactly this dynamic in
//! collaborative tagging systems — stable early vocabularies, drifting tails —
//! and it is what makes incremental model updates non-trivial: the examples a
//! model sees late are *not* distributed like the ones it warm-started from.

use crate::corpus::{Corpus, DocumentId};
use crate::error::{self, SpecError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Flash-crowd bursts layered on the per-user Poisson arrival processes.
///
/// Each burst models a self-exciting spike targeted at one tag's community of
/// documents: an external trigger (a news event, a popular link) makes
/// documents about that topic arrive in a dense front-loaded window instead
/// of spread across the horizon. Every burst picks an onset and a target tag;
/// each document carrying that tag is pulled into the burst window with
/// probability [`Self::attraction`], landing at a quadratically-decaying
/// offset after the onset (the spike peaks immediately, then cools).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstSpec {
    /// Number of flash-crowd events over the horizon.
    pub num_bursts: usize,
    /// Width of each burst window in seconds (capped at the horizon).
    pub width_secs: f64,
    /// Probability that a document carrying the burst's target tag is pulled
    /// into the burst window, in `[0, 1]`.
    pub attraction: f64,
}

impl Default for BurstSpec {
    fn default() -> Self {
        Self {
            num_bursts: 3,
            width_secs: 120.0,
            attraction: 0.8,
        }
    }
}

/// Parameters of the arrival-time generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// Length of the arrival window in (simulated) seconds; every document
    /// arrives in `[0, horizon_secs)`.
    pub horizon_secs: f64,
    /// Interest drift in `[0, 1]`: `0.0` shuffles each user's documents
    /// uniformly over time, `1.0` orders them strictly from core-interest
    /// (popular-tag) documents to exploratory (rare-tag) ones.
    pub drift: f64,
    /// Flash-crowd bursts layered on the Poisson processes (`None` keeps the
    /// smooth arrival model and generates bit-identically to earlier versions
    /// of this crate).
    pub bursts: Option<BurstSpec>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ArrivalSpec {
    fn default() -> Self {
        Self {
            horizon_secs: 3_600.0,
            drift: 0.6,
            bursts: None,
            seed: 42,
        }
    }
}

impl ArrivalSpec {
    /// Validates every field, returning a typed error naming the first
    /// offending field instead of clamping silently or panicking inside
    /// generation.
    pub fn validate(&self) -> Result<(), SpecError> {
        error::positive("horizon_secs", self.horizon_secs)?;
        error::unit_interval("drift", self.drift)?;
        if let Some(b) = &self.bursts {
            error::nonzero("num_bursts", b.num_bursts)?;
            error::positive("width_secs", b.width_secs)?;
            error::unit_interval("attraction", b.attraction)?;
        }
        Ok(())
    }
}

/// One document arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival time in microseconds since the start of the session (the
    /// resolution the p2psim clock uses).
    pub time_micros: u64,
    /// The arriving document.
    pub doc: DocumentId,
}

/// Arrival times for every document of a corpus, sorted by time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalTimeline {
    /// All arrivals sorted by `(time_micros, doc)`.
    arrivals: Vec<Arrival>,
    /// Arrival time per document id (parallel to the corpus).
    per_doc_micros: Vec<u64>,
    horizon_secs: f64,
}

impl ArrivalTimeline {
    /// Generates arrival times for every document of `corpus`, panicking
    /// (with the validation error's message) if the spec is invalid. Use
    /// [`Self::try_generate`] to handle invalid specs gracefully.
    pub fn generate(corpus: &Corpus, spec: &ArrivalSpec) -> Self {
        Self::try_generate(corpus, spec).unwrap_or_else(|e| panic!("invalid ArrivalSpec: {e}"))
    }

    /// Generates arrival times for every document of `corpus`, rejecting
    /// invalid specs with a typed [`SpecError`].
    ///
    /// Each user's arrival instants are a homogeneous Poisson process on
    /// `[0, horizon)` conditioned on the user's document count — i.e. sorted
    /// uniform order statistics, which is the exact conditional distribution.
    /// The user's documents are then matched to those instants in drift
    /// order: a document's drift rank mixes its mean tag-popularity rank
    /// (corpus tag ids are popularity-ordered by the generator) with uniform
    /// noise, weighted by [`ArrivalSpec::drift`]. Finally, any configured
    /// [`BurstSpec`] flash crowds are layered on top, re-timing a fraction of
    /// each burst's target-tag documents into a dense spike window.
    pub fn try_generate(corpus: &Corpus, spec: &ArrivalSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let drift = spec.drift;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let num_tags = corpus.num_tags().max(1) as f64;
        let mut per_doc_micros = vec![0u64; corpus.len()];
        for docs in corpus.documents_by_user() {
            if docs.is_empty() {
                continue;
            }
            // Conditioned Poisson process: n sorted uniforms over the window.
            let mut times: Vec<u64> = (0..docs.len())
                .map(|_| (rng.gen_range(0.0..spec.horizon_secs) * 1e6) as u64)
                .collect();
            times.sort_unstable();
            // Drift rank: popular-tag documents first, exploratory ones last.
            let mut ranked: Vec<(f64, DocumentId)> = docs
                .iter()
                .map(|&d| {
                    let tags = corpus.tag_ids_of(d);
                    let mean_rank = if tags.is_empty() {
                        0.5
                    } else {
                        tags.iter().map(|&t| t as f64).sum::<f64>() / tags.len() as f64 / num_tags
                    };
                    let noise: f64 = rng.gen_range(0.0..1.0);
                    (drift * mean_rank + (1.0 - drift) * noise, d)
                })
                .collect();
            ranked.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            for (&t, &(_, d)) in times.iter().zip(&ranked) {
                per_doc_micros[d] = t;
            }
        }

        // Flash-crowd bursts: re-time target-tag documents into spikes.
        if let Some(bursts) = &spec.bursts {
            if corpus.num_tags() > 0 && !corpus.is_empty() {
                let horizon_micros = (spec.horizon_secs * 1e6) as u64;
                for _ in 0..bursts.num_bursts {
                    let width = bursts.width_secs.min(spec.horizon_secs);
                    let onset = if spec.horizon_secs > width {
                        rng.gen_range(0.0..spec.horizon_secs - width)
                    } else {
                        0.0
                    };
                    let target = rng.gen_range(0..corpus.num_tags()) as u32;
                    for (doc, micros) in per_doc_micros.iter_mut().enumerate() {
                        if !corpus.tag_ids_of(doc).contains(&target)
                            || !rng.gen_bool(bursts.attraction)
                        {
                            continue;
                        }
                        // Front-loaded spike: squaring the uniform offset
                        // concentrates arrivals right after the onset, with a
                        // decaying tail across the window (self-excitation
                        // cooling off).
                        let u: f64 = rng.gen_range(0.0..1.0);
                        let t = ((onset + width * u * u) * 1e6) as u64;
                        *micros = t.min(horizon_micros.saturating_sub(1));
                    }
                }
            }
        }

        let mut arrivals: Vec<Arrival> = per_doc_micros
            .iter()
            .enumerate()
            .map(|(doc, &time_micros)| Arrival { time_micros, doc })
            .collect();
        arrivals.sort_by_key(|a| (a.time_micros, a.doc));
        Ok(Self {
            arrivals,
            per_doc_micros,
            horizon_secs: spec.horizon_secs,
        })
    }

    /// Number of arrivals (= corpus documents).
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The arrival window length in seconds.
    pub fn horizon_secs(&self) -> f64 {
        self.horizon_secs
    }

    /// All arrivals, sorted by time.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// The arrival time of one document, in seconds.
    pub fn arrival_secs(&self, doc: DocumentId) -> f64 {
        self.per_doc_micros[doc] as f64 / 1e6
    }

    /// The documents arriving in `[from, to)` microseconds, in arrival order.
    /// Integer bounds let epoch drivers partition the timeline without
    /// float-rounding gaps or overlaps at window boundaries.
    pub fn arrivals_between_micros(&self, from: u64, to: u64) -> &[Arrival] {
        let lo = self.arrivals.partition_point(|a| a.time_micros < from);
        let hi = self.arrivals.partition_point(|a| a.time_micros < to);
        &self.arrivals[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusGenerator, CorpusSpec};

    fn corpus() -> Corpus {
        CorpusGenerator::new(CorpusSpec::tiny()).generate()
    }

    #[test]
    fn every_document_arrives_exactly_once_inside_the_horizon() {
        let c = corpus();
        let tl = ArrivalTimeline::generate(&c, &ArrivalSpec::default());
        assert_eq!(tl.len(), c.len());
        let mut docs: Vec<DocumentId> = tl.arrivals().iter().map(|a| a.doc).collect();
        docs.sort_unstable();
        docs.dedup();
        assert_eq!(docs.len(), c.len());
        for a in tl.arrivals() {
            assert!((a.time_micros as f64 / 1e6) < tl.horizon_secs());
        }
        for w in tl.arrivals().windows(2) {
            assert!(w[0].time_micros <= w[1].time_micros);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let c = corpus();
        let a = ArrivalTimeline::generate(&c, &ArrivalSpec::default());
        let b = ArrivalTimeline::generate(&c, &ArrivalSpec::default());
        assert_eq!(a.arrivals(), b.arrivals());
        let other = ArrivalTimeline::generate(
            &c,
            &ArrivalSpec {
                seed: 7,
                ..Default::default()
            },
        );
        assert_ne!(a.arrivals(), other.arrivals());
    }

    #[test]
    fn windows_partition_the_timeline() {
        let c = corpus();
        let tl = ArrivalTimeline::generate(&c, &ArrivalSpec::default());
        let h = (tl.horizon_secs() * 1e6) as u64;
        let total: usize = (0..4)
            .map(|i| tl.arrivals_between_micros(i * h / 4, (i + 1) * h / 4).len())
            .sum();
        assert_eq!(total, tl.len());
        assert!(tl.arrivals_between_micros(h, h * 2).is_empty());
    }

    fn bursty_spec(seed: u64) -> ArrivalSpec {
        ArrivalSpec {
            bursts: Some(BurstSpec {
                num_bursts: 2,
                width_secs: 180.0,
                attraction: 0.9,
            }),
            seed,
            ..ArrivalSpec::default()
        }
    }

    #[test]
    fn bursts_preserve_the_timeline_invariants() {
        let c = corpus();
        let tl = ArrivalTimeline::generate(&c, &bursty_spec(42));
        assert_eq!(tl.len(), c.len());
        let mut docs: Vec<DocumentId> = tl.arrivals().iter().map(|a| a.doc).collect();
        docs.sort_unstable();
        docs.dedup();
        assert_eq!(docs.len(), c.len(), "every document arrives exactly once");
        for a in tl.arrivals() {
            assert!((a.time_micros as f64 / 1e6) < tl.horizon_secs());
        }
        for w in tl.arrivals().windows(2) {
            assert!(w[0].time_micros <= w[1].time_micros);
        }
    }

    #[test]
    fn bursts_concentrate_arrivals_into_spike_windows() {
        // The densest burst-width window of a bursty timeline must hold
        // clearly more arrivals than the densest window of the smooth one.
        let c = corpus();
        let spec = bursty_spec(42);
        let width_micros = (spec.bursts.as_ref().unwrap().width_secs * 1e6) as u64;
        let densest = |tl: &ArrivalTimeline| {
            tl.arrivals()
                .iter()
                .map(|a| {
                    tl.arrivals_between_micros(
                        a.time_micros,
                        a.time_micros.saturating_add(width_micros),
                    )
                    .len()
                })
                .max()
                .unwrap_or(0)
        };
        let smooth = ArrivalTimeline::generate(&c, &ArrivalSpec::default());
        let bursty = ArrivalTimeline::generate(&c, &spec);
        assert!(
            densest(&bursty) > densest(&smooth),
            "bursty densest window {} not denser than smooth {}",
            densest(&bursty),
            densest(&smooth)
        );
    }

    /// Same seed ⇒ identical `Arrival` sequence; different seed ⇒ different
    /// order. Guards the RNG threading through the burst layer: bursts draw
    /// from the same seeded stream, so replays must stay bit-identical.
    #[test]
    fn bursty_timelines_replay_deterministically() {
        let c = corpus();
        let a = ArrivalTimeline::generate(&c, &bursty_spec(7));
        let b = ArrivalTimeline::generate(&c, &bursty_spec(7));
        assert_eq!(a.arrivals(), b.arrivals());
        let other = ArrivalTimeline::generate(&c, &bursty_spec(8));
        assert_ne!(a.arrivals(), other.arrivals());
    }

    #[test]
    fn no_bursts_reproduces_the_legacy_stream() {
        // `bursts: None` must not consume randomness: legacy seeds keep
        // generating bit-identical timelines.
        let c = corpus();
        let plain = ArrivalTimeline::generate(&c, &ArrivalSpec::default());
        let explicit = ArrivalTimeline::generate(
            &c,
            &ArrivalSpec {
                bursts: None,
                ..ArrivalSpec::default()
            },
        );
        assert_eq!(plain.arrivals(), explicit.arrivals());
    }

    #[test]
    fn validation_rejects_bad_specs_with_typed_errors() {
        use crate::error::SpecError;
        let c = corpus();
        let bad_horizon = ArrivalSpec {
            horizon_secs: 0.0,
            ..ArrivalSpec::default()
        };
        assert_eq!(
            bad_horizon.validate(),
            Err(SpecError::NonPositive {
                field: "horizon_secs",
                value: 0.0
            })
        );
        assert!(ArrivalTimeline::try_generate(&c, &bad_horizon).is_err());
        let bad_drift = ArrivalSpec {
            drift: 1.2,
            ..ArrivalSpec::default()
        };
        assert_eq!(
            bad_drift.validate(),
            Err(SpecError::UnitInterval {
                field: "drift",
                value: 1.2
            })
        );
        let bad_burst = ArrivalSpec {
            bursts: Some(BurstSpec {
                attraction: -0.5,
                ..BurstSpec::default()
            }),
            ..ArrivalSpec::default()
        };
        assert_eq!(
            bad_burst.validate(),
            Err(SpecError::UnitInterval {
                field: "attraction",
                value: -0.5
            })
        );
        let zero_bursts = ArrivalSpec {
            bursts: Some(BurstSpec {
                num_bursts: 0,
                ..BurstSpec::default()
            }),
            ..ArrivalSpec::default()
        };
        assert_eq!(
            zero_bursts.validate(),
            Err(SpecError::ZeroCount {
                field: "num_bursts"
            })
        );
    }

    #[test]
    fn full_drift_orders_each_user_from_popular_to_rare_tags() {
        let c = corpus();
        let spec = ArrivalSpec {
            drift: 1.0,
            ..Default::default()
        };
        let tl = ArrivalTimeline::generate(&c, &spec);
        let num_tags = c.num_tags() as f64;
        let mean_rank = |docs: &[DocumentId]| -> f64 {
            let ranks: Vec<f64> = docs
                .iter()
                .map(|&d| {
                    let tags = c.tag_ids_of(d);
                    tags.iter().map(|&t| t as f64).sum::<f64>() / tags.len() as f64 / num_tags
                })
                .collect();
            ranks.iter().sum::<f64>() / ranks.len().max(1) as f64
        };
        // Pool the early and late halves over all users: early arrivals must
        // skew toward popular (low-rank) tags.
        let mut early = Vec::new();
        let mut late = Vec::new();
        for docs in c.documents_by_user() {
            let mut by_time = docs.clone();
            by_time.sort_by_key(|&d| (tl.arrival_secs(d) * 1e6) as u64);
            let mid = by_time.len() / 2;
            early.extend_from_slice(&by_time[..mid]);
            late.extend_from_slice(&by_time[mid..]);
        }
        assert!(
            mean_rank(&early) + 0.02 < mean_rank(&late),
            "early {} late {}",
            mean_rank(&early),
            mean_rank(&late)
        );
    }
}
