//! Workload construction shared by the experiments, scenario and chaos runners.

use dataset::{BurstSpec, CommunitySpec, Corpus, CorpusGenerator, CorpusSpec, TrainTestSplit};
use doctagger::{AutoTagOutcome, DocTaggerConfig, P2PDocTagger, ProtocolKind, SessionConfig};
use p2pclassify::CemparConfig;
use p2psim::churn::ChurnModel;
use p2psim::SimConfig;

/// Scale of a generated workload. Experiments default to [`Scale::Demo`];
/// tests and the sweeps use [`Scale::Small`] to keep run times reasonable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few hundred documents — unit-test sized.
    Small,
    /// A couple of thousand documents, tens of peers — the default experiment
    /// scale (a scaled-down analogue of the filtered del.icio.us crawl).
    Demo,
}

/// Builds the corpus spec for a workload of `num_users` users at a scale.
pub fn corpus_spec(num_users: usize, scale: Scale, seed: u64) -> CorpusSpec {
    match scale {
        Scale::Small => CorpusSpec {
            num_tags: 8,
            num_users,
            min_docs_per_user: 12,
            max_docs_per_user: 20,
            words_per_doc: 40,
            words_per_tag: 25,
            background_vocab: 200,
            interests_per_user: 4,
            seed,
            ..CorpusSpec::default()
        },
        Scale::Demo => CorpusSpec {
            num_tags: 12,
            num_users,
            // The demo filters users with 50–199 bookmarks; we keep the same
            // shape but cap at 90 so a full sweep finishes in minutes.
            min_docs_per_user: 50,
            max_docs_per_user: 90,
            words_per_doc: 60,
            words_per_tag: 30,
            background_vocab: 400,
            interests_per_user: 5,
            seed,
            ..CorpusSpec::default()
        },
    }
}

/// A named adversarial-workload scenario: a bundle of skew knobs layered on
/// the standard corpus shape of a [`Scale`]. The matrix isolates each skew
/// mechanism (tag-popularity exponent, interest communities, re-tagging
/// imitation, flash-crowd bursts) and then combines them, so regressions can
/// be attributed to a single generator feature.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the row key of table C1).
    pub name: &'static str,
    /// Tag-popularity Zipf exponent (1.0 = the benign default).
    pub tag_zipf_exponent: f64,
    /// User interest communities (`None` = independent users).
    pub communities: Option<CommunitySpec>,
    /// Golder–Huberman re-tagging/imitation strength in `[0, 1]`.
    pub imitation: f64,
    /// Flash-crowd bursts layered on the arrival timeline (`None` = smooth
    /// Poisson arrivals).
    pub bursts: Option<BurstSpec>,
    /// Peer churn applied over the session replay (`None` = fully available
    /// network; the overlay-churn regime turns this on so the routing
    /// architectures — chord-dht vs super-peer — are separated by it).
    pub churn: ChurnModel,
}

impl ScenarioSpec {
    /// The benign baseline: every skew knob disabled. Generates bit-identically
    /// to the pre-scenario workloads.
    pub fn benign() -> Self {
        Self {
            name: "benign",
            tag_zipf_exponent: 1.0,
            communities: None,
            imitation: 0.0,
            bursts: None,
            churn: ChurnModel::None,
        }
    }

    /// The full scenario matrix the `scenarios` bin sweeps.
    pub fn matrix() -> Vec<Self> {
        vec![
            Self::benign(),
            Self {
                name: "zipf-heavy",
                tag_zipf_exponent: 1.7,
                ..Self::benign()
            },
            Self {
                name: "communities",
                communities: Some(CommunitySpec {
                    num_communities: 4,
                    tag_overlap: 0.25,
                    cross_community_ratio: 0.1,
                }),
                ..Self::benign()
            },
            Self {
                name: "imitation",
                imitation: 0.7,
                ..Self::benign()
            },
            Self {
                name: "flash-crowd",
                bursts: Some(BurstSpec {
                    num_bursts: 3,
                    width_secs: 180.0,
                    attraction: 0.85,
                }),
                ..Self::benign()
            },
            Self {
                name: "combined",
                tag_zipf_exponent: 1.5,
                communities: Some(CommunitySpec {
                    num_communities: 4,
                    tag_overlap: 0.25,
                    cross_community_ratio: 0.1,
                }),
                imitation: 0.5,
                bursts: Some(BurstSpec {
                    num_bursts: 2,
                    width_secs: 180.0,
                    attraction: 0.8,
                }),
                ..Self::benign()
            },
            Self {
                name: "overlay-churn",
                churn: ChurnModel::Exponential {
                    mean_session_secs: 600.0,
                    mean_offline_secs: 120.0,
                },
                ..Self::benign()
            },
        ]
    }

    /// Looks up a scenario from the matrix by name.
    pub fn named(name: &str) -> Option<Self> {
        Self::matrix().into_iter().find(|s| s.name == name)
    }

    /// `true` when the scenario skews tag popularity beyond the benign
    /// baseline — the regime where the head/tail split separates protocols.
    pub fn is_skewed(&self) -> bool {
        self.tag_zipf_exponent > 1.0 || self.imitation > 0.0
    }

    /// The corpus spec for this scenario at a network size and scale: the
    /// standard [`corpus_spec`] shape with this scenario's skew knobs applied.
    pub fn corpus_spec(&self, num_users: usize, scale: Scale, seed: u64) -> CorpusSpec {
        CorpusSpec {
            tag_zipf_exponent: self.tag_zipf_exponent,
            communities: self.communities.clone(),
            imitation: self.imitation,
            ..corpus_spec(num_users, scale, seed)
        }
    }

    /// The session configuration for this scenario: a streaming replay with
    /// this scenario's burst layer on the arrival timeline and its churn
    /// model (churn-free except in the overlay-churn regime, where routing
    /// architecture under membership flux is the variable under test).
    pub fn session_config(&self, epochs: usize, seed: u64) -> SessionConfig {
        SessionConfig {
            epochs,
            bursts: self.bursts.clone(),
            churn: self.churn,
            incremental: true,
            seed,
            ..SessionConfig::default()
        }
    }
}

/// A generated workload: corpus + 20/80 split (or a custom fraction).
pub struct Workload {
    /// The generated corpus. Every system ingesting it shares its documents
    /// (a [`Corpus`] is a shared handle).
    pub corpus: Corpus,
    /// The train/test split.
    pub split: TrainTestSplit,
}

impl Workload {
    /// Generates the standard workload (20 % training, per the demo protocol).
    pub fn generate(num_users: usize, scale: Scale, seed: u64) -> Self {
        Self::generate_with_fraction(num_users, scale, seed, 0.2)
    }

    /// Generates a workload with a custom training fraction.
    pub fn generate_with_fraction(
        num_users: usize,
        scale: Scale,
        seed: u64,
        train_fraction: f64,
    ) -> Self {
        let corpus = CorpusGenerator::new(corpus_spec(num_users, scale, seed)).generate();
        let split = TrainTestSplit::stratified_by_user(&corpus, train_fraction, seed ^ 0xABCD);
        Self { corpus, split }
    }
}

/// The protocols compared throughout the evaluation, with configurations
/// scaled to the network size.
pub fn standard_protocols(num_peers: usize) -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Cempar(CemparConfig::for_network(num_peers)),
        ProtocolKind::pace(),
        ProtocolKind::centralized(),
        ProtocolKind::local_only(),
    ]
}

/// Result of one end-to-end system run.
pub struct RunResult {
    /// Protocol name.
    pub protocol: String,
    /// Auto-tagging outcome (metrics + failure counts).
    pub outcome: AutoTagOutcome,
    /// Bytes exchanged during the learning phase only.
    pub train_bytes: u64,
    /// Bytes exchanged in total (learning + tagging).
    pub total_bytes: u64,
    /// Mean bytes sent per peer over the whole run.
    pub bytes_per_peer: f64,
    /// Largest number of bytes received by any single peer (hotspot load).
    pub hotspot_bytes: u64,
    /// Mean DHT lookup hops observed (0 for protocols that never route).
    pub mean_hops: f64,
}

/// Runs one protocol end to end on a workload, optionally under churn, and
/// returns quality + communication numbers.
pub fn run_system(
    workload: &Workload,
    protocol: ProtocolKind,
    churn: Option<ChurnModel>,
    seed: u64,
) -> RunResult {
    let name = protocol.name().to_string();
    let num_peers = workload.corpus.num_users().max(1);
    let network = churn.map(|churn| SimConfig {
        num_peers,
        churn,
        horizon_secs: 2_000_000,
        seed,
        ..SimConfig::default()
    });
    let mut system = P2PDocTagger::new(DocTaggerConfig {
        protocol,
        network,
        seed,
        ..DocTaggerConfig::default()
    });
    system.ingest(&workload.corpus);
    system.learn(&workload.split).expect("learning succeeds");
    let train_bytes = system.network_stats().total_bytes();
    let outcome = system.auto_tag_all().expect("auto tagging runs");
    let stats = system.network_stats();
    RunResult {
        protocol: name,
        outcome,
        train_bytes,
        total_bytes: stats.total_bytes(),
        bytes_per_peer: stats.mean_bytes_sent_per_peer(),
        hotspot_bytes: stats.max_bytes_received_by_any_peer(),
        mean_hops: stats.mean_lookup_hops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workload_runs_every_protocol() {
        let workload = Workload::generate(8, Scale::Small, 1);
        for protocol in standard_protocols(8) {
            let result = run_system(&workload, protocol, None, 1);
            assert!(
                result.outcome.metrics.micro_f1() > 0.3,
                "{}",
                result.protocol
            );
            assert_eq!(result.outcome.failed, 0);
        }
    }

    #[test]
    fn scenario_matrix_names_are_unique_and_resolvable() {
        let matrix = ScenarioSpec::matrix();
        assert_eq!(matrix.len(), 7);
        let mut names: Vec<_> = matrix.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
        for s in &matrix {
            assert_eq!(ScenarioSpec::named(s.name).as_ref(), Some(s));
            // Every scenario yields a valid corpus spec at both scales.
            s.corpus_spec(6, Scale::Small, 7).validate().unwrap();
            s.corpus_spec(6, Scale::Demo, 7).validate().unwrap();
        }
        assert_eq!(ScenarioSpec::named("no-such-scenario"), None);
    }

    #[test]
    fn benign_scenario_reproduces_the_standard_workload() {
        let benign = ScenarioSpec::benign();
        assert!(!benign.is_skewed());
        assert_eq!(
            benign.corpus_spec(8, Scale::Small, 3),
            corpus_spec(8, Scale::Small, 3)
        );
        assert!(ScenarioSpec::named("zipf-heavy").unwrap().is_skewed());
        assert!(ScenarioSpec::named("imitation").unwrap().is_skewed());
    }

    #[test]
    fn custom_fraction_changes_the_split() {
        let a = Workload::generate_with_fraction(6, Scale::Small, 2, 0.1);
        let b = Workload::generate_with_fraction(6, Scale::Small, 2, 0.4);
        assert!(a.split.train.len() < b.split.train.len());
    }
}
