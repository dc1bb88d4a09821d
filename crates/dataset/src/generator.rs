//! Generative model for the synthetic delicious-like corpus.
//!
//! Each tag is a "topic" with its own characteristic vocabulary; a document's
//! text is a mixture of the vocabularies of its tags plus shared background
//! words. Crucially — as the paper stresses — the tag names themselves are
//! **never** placed in the document text, so tags cannot be produced by
//! indexing the documents' words; they must be *learned* from tagged examples.
//!
//! The stream is frozen: every experiment golden, `BENCH_*.json` and benchmark
//! fingerprint is generated from it, so a spec and seed yield the same corpus
//! bit for bit, from the same `StdRng` draws in the same order. Generation
//! pays for those draws and little else. Weight vectors that never change
//! during a run — the within-topic word Zipf weights (one table for every
//! topic), the global tag weights, each community's pool weights and each
//! user's interest weights — are sampling tables built once, their totals
//! summed once in index order, as a per-draw sum would sum them. The
//! imitation urn changes after every document, so each of its draws sums it
//! afresh. Sampling keeps the subtractive walk; a binary search over a
//! cumulative table would pick another index at bucket edges. Each document's
//! text is spelled into one reused buffer and copied out exactly sized.

use crate::corpus::Corpus;
use crate::error::{self, SpecError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// User interest *communities*: overlapping per-community tag pools with
/// occasional cross-community exploration.
///
/// Santos-Neto et al. measure interest-sharing clusters in real tagging
/// systems — users group around shared vocabularies, with limited overlap
/// between groups — and Cattuto et al. find the same community structure
/// emerging in tag co-occurrence networks. With communities enabled, users
/// are assigned round-robin to `num_communities` groups; each group owns an
/// interleaved share of the tag universe (so every community sees both head
/// and tail tags) extended by `tag_overlap` into its ring neighbor's share,
/// and a user's interests are drawn from their community's pool except for a
/// `cross_community_ratio` fraction of globally-sampled draws.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommunitySpec {
    /// Number of interest communities; users are assigned round-robin, so
    /// membership always covers all users (and all communities, when there
    /// are at least as many users as communities).
    pub num_communities: usize,
    /// Fraction of the ring-neighbor community's tag pool shared into each
    /// community's pool, in `[0, 1]` (`0.0` = disjoint pools).
    pub tag_overlap: f64,
    /// Probability that an interest draw escapes the user's community pool
    /// and samples the global tag distribution instead, in `[0, 1]`.
    pub cross_community_ratio: f64,
}

impl Default for CommunitySpec {
    fn default() -> Self {
        Self {
            num_communities: 4,
            tag_overlap: 0.25,
            cross_community_ratio: 0.1,
        }
    }
}

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Number of distinct tags (topics).
    pub num_tags: usize,
    /// Number of users (peers' owners).
    pub num_users: usize,
    /// Minimum documents per user (the demo filters users with ≥ 50).
    pub min_docs_per_user: usize,
    /// Maximum documents per user, exclusive (the demo filters users with < 200).
    pub max_docs_per_user: usize,
    /// Words drawn for each document body.
    pub words_per_doc: usize,
    /// Size of each tag's characteristic vocabulary.
    pub words_per_tag: usize,
    /// Size of the shared background vocabulary.
    pub background_vocab: usize,
    /// Probability that a word position is filled from the background vocabulary.
    pub background_ratio: f64,
    /// Maximum number of tags per document (at least 1 is always assigned).
    pub max_tags_per_doc: usize,
    /// Number of topics each user is interested in (interest locality).
    pub interests_per_user: usize,
    /// Probability that a document's tags are drawn from the *global* tag
    /// distribution instead of the user's interests — users stumble upon new
    /// topics they have not manually tagged before, which is exactly the case
    /// where collaborative knowledge from other peers is needed.
    pub exploration_ratio: f64,
    /// Zipf exponent of the global tag-popularity distribution.
    pub tag_zipf_exponent: f64,
    /// User interest communities (`None` keeps the independent-users model
    /// and generates bit-identically to earlier versions of this crate).
    pub communities: Option<CommunitySpec>,
    /// Re-tagging/imitation strength in `[0, 1]` (`0.0` disables imitation
    /// and generates bit-identically to earlier versions of this crate).
    ///
    /// Golder & Huberman observe that a document's later taggings imitate the
    /// tag distribution already attached to it, so per-document tag sets
    /// *stabilize* instead of growing, and that corpus-wide tag popularity
    /// develops a power law through the same copying dynamic. With imitation
    /// enabled, each document receives a bounded stream of tagging events:
    /// every event after the first copies one of the document's earlier
    /// taggings with probability `imitation` (within-document stabilization),
    /// and fresh draws imitate the corpus-wide tagging history so far with
    /// probability `imitation` (preferential attachment) before falling back
    /// to the interest/exploration draw. Higher imitation therefore produces
    /// both fewer distinct tags per document and heavier global skew.
    pub imitation: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        Self {
            num_tags: 20,
            num_users: 32,
            min_docs_per_user: 50,
            max_docs_per_user: 200,
            words_per_doc: 80,
            words_per_tag: 40,
            background_vocab: 400,
            background_ratio: 0.35,
            max_tags_per_doc: 3,
            interests_per_user: 6,
            exploration_ratio: 0.35,
            tag_zipf_exponent: 1.0,
            communities: None,
            imitation: 0.0,
            seed: 42,
        }
    }
}

impl CorpusSpec {
    /// A small spec for unit tests and doc examples (hundreds of documents).
    pub fn tiny() -> Self {
        Self {
            num_tags: 6,
            num_users: 8,
            min_docs_per_user: 12,
            max_docs_per_user: 20,
            words_per_doc: 40,
            words_per_tag: 25,
            background_vocab: 150,
            interests_per_user: 3,
            ..Self::default()
        }
    }

    /// Validates every field, returning a typed error naming the first
    /// offending field instead of clamping silently or panicking deep inside
    /// generation.
    pub fn validate(&self) -> Result<(), SpecError> {
        error::nonzero("num_tags", self.num_tags)?;
        error::nonzero("num_users", self.num_users)?;
        if self.min_docs_per_user >= self.max_docs_per_user {
            return Err(SpecError::DocsPerUserRange {
                min: self.min_docs_per_user,
                max: self.max_docs_per_user,
            });
        }
        error::nonzero("words_per_doc", self.words_per_doc)?;
        error::nonzero("words_per_tag", self.words_per_tag)?;
        error::nonzero("background_vocab", self.background_vocab)?;
        error::nonzero("max_tags_per_doc", self.max_tags_per_doc)?;
        error::nonzero("interests_per_user", self.interests_per_user)?;
        error::unit_interval("background_ratio", self.background_ratio)?;
        error::unit_interval("exploration_ratio", self.exploration_ratio)?;
        error::unit_interval("imitation", self.imitation)?;
        error::positive("tag_zipf_exponent", self.tag_zipf_exponent)?;
        if let Some(c) = &self.communities {
            error::nonzero("num_communities", c.num_communities)?;
            error::unit_interval("tag_overlap", c.tag_overlap)?;
            error::unit_interval("cross_community_ratio", c.cross_community_ratio)?;
        }
        Ok(())
    }
}

/// Tag names used for readability in examples and the tag cloud; generated
/// names (`topic17`) are used beyond the list length.
const TAG_NAME_POOL: &[&str] = &[
    "programming",
    "rust",
    "database",
    "web",
    "design",
    "music",
    "travel",
    "photography",
    "science",
    "politics",
    "cooking",
    "sports",
    "machine-learning",
    "security",
    "networking",
    "art",
    "history",
    "finance",
    "health",
    "games",
    "linux",
    "education",
    "video",
    "howto",
    "reference",
    "opensource",
    "research",
    "blog",
    "news",
    "tools",
];

/// The synthetic-corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    spec: CorpusSpec,
}

impl CorpusGenerator {
    /// Creates a generator for the given spec, panicking (with the
    /// validation error's message) if the spec is invalid. Use
    /// [`Self::try_new`] to handle invalid specs gracefully.
    pub fn new(spec: CorpusSpec) -> Self {
        Self::try_new(spec).unwrap_or_else(|e| panic!("invalid CorpusSpec: {e}"))
    }

    /// Creates a generator for the given spec, rejecting invalid specs with a
    /// typed [`SpecError`].
    pub fn try_new(spec: CorpusSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(Self { spec })
    }

    /// The spec in use.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// The community index of every user (round-robin over the configured
    /// community count, capped at the user count so no community index is
    /// unreachable), or `None` when communities are disabled. Deterministic:
    /// derived from the spec without consuming randomness.
    pub fn community_assignments(&self) -> Option<Vec<usize>> {
        let c = self.spec.communities.as_ref()?;
        let k = c.num_communities.min(self.spec.num_users).max(1);
        Some((0..self.spec.num_users).map(|u| u % k).collect())
    }

    /// Each community's tag pool (sorted tag ids), or `None` when communities
    /// are disabled. Community `c` owns the interleaved share `t % k == c` of
    /// the tag universe — so every community sees both head and tail tags —
    /// extended by `tag_overlap` of its ring neighbor's most popular tags.
    /// The pools jointly cover the whole tag universe.
    pub fn community_tag_pools(&self) -> Option<Vec<Vec<usize>>> {
        let c = self.spec.communities.as_ref()?;
        let k = c.num_communities.min(self.spec.num_users).max(1);
        let own: Vec<Vec<usize>> = (0..k)
            .map(|i| (i..self.spec.num_tags).step_by(k).collect())
            .collect();
        let pools = (0..k)
            .map(|i| {
                let mut pool = own[i].clone();
                let neighbor = &own[(i + 1) % k];
                let shared = (c.tag_overlap * neighbor.len() as f64).ceil() as usize;
                pool.extend_from_slice(&neighbor[..shared.min(neighbor.len())]);
                pool.sort_unstable();
                pool.dedup();
                pool
            })
            .collect();
        Some(pools)
    }

    /// Generates the corpus.
    pub fn generate(&self) -> Corpus {
        let spec = &self.spec;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut corpus = Corpus::new();

        // Tag names and per-tag vocabularies. Word tokens are synthetic but
        // pronounceable-ish ("datab3x17") so the Porter stemmer and stop-word
        // filter see realistic-looking input without ever seeing the tag name.
        let tag_names: Vec<String> = (0..spec.num_tags)
            .map(|i| {
                TAG_NAME_POOL
                    .get(i)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("topic{i}"))
            })
            .collect();
        for name in &tag_names {
            corpus.intern_tag(name);
        }
        // Tokens must survive the preprocessing pipeline (which drops tokens
        // containing digits), so numeric indices are encoded as syllables.
        let tag_vocab: Vec<Vec<String>> = (0..spec.num_tags)
            .map(|t| {
                (0..spec.words_per_tag)
                    .map(|w| format!("{}{}", synth_stem(t, w), syllables(w)))
                    .collect()
            })
            .collect();
        let background: Vec<String> = (0..spec.background_vocab)
            .map(|w| format!("zq{}", syllables(w)))
            .collect();
        // Zipf-ish within-topic word choice: low indices more common. Every
        // topic vocabulary has `words_per_tag` words, so one table serves all.
        let word_zipf = WeightTable::new(
            (1..=spec.words_per_tag)
                .map(|i| 1.0 / (i as f64).powf(WORD_ZIPF_EXPONENT))
                .collect(),
        );

        // Zipf weights over tags: tag popularity rank == tag index.
        let tag_weights = WeightTable::new(
            (0..spec.num_tags)
                .map(|i| 1.0 / ((i + 1) as f64).powf(spec.tag_zipf_exponent))
                .collect(),
        );

        // Community structure (None = independent users, the legacy model).
        // Both paths must consume identical randomness when communities are
        // disabled so legacy seeds keep generating bit-identical corpora.
        let assignments = self.community_assignments();
        let pools = self.community_tag_pools();
        let pool_weights: Option<Vec<WeightTable>> = pools.as_ref().map(|pools| {
            pools
                .iter()
                .map(|pool| {
                    WeightTable::new(pool.iter().map(|&t| tag_weights.weights[t]).collect())
                })
                .collect()
        });
        let cross_ratio = spec
            .communities
            .as_ref()
            .map_or(0.0, |c| c.cross_community_ratio);

        // Corpus-wide tagging history for imitation: a Polya urn seeded with
        // the Zipf prior (every tag stays reachable, and reinforcement
        // amplifies the head instead of washing it out toward uniform). It
        // changes after every document, so each draw sums it afresh.
        let imitating = spec.imitation > 0.0;
        let mut urn: Vec<f64> = tag_weights.weights.clone();

        // Scratch reused across documents: each document's text is spelled
        // into `text` and handed on as an exactly sized copy.
        let mut text = String::new();
        let mut doc_tag_list: Vec<usize> = Vec::new();
        let mut events: Vec<usize> = Vec::new();

        for user in 0..spec.num_users {
            // Each user focuses on a few topics, sampled by global popularity
            // within their community's tag pool (or the whole universe).
            let community = assignments.as_ref().map(|a| a[user]);
            let (pool, pool_w): (&[usize], &WeightTable) = match (&pools, &pool_weights, community)
            {
                (Some(p), Some(w), Some(c)) => (&p[c], &w[c]),
                _ => (&[], &tag_weights),
            };
            let mut interests = BTreeSet::new();
            let universe = if pool.is_empty() {
                spec.num_tags
            } else {
                pool.len()
            };
            let want = spec.interests_per_user.clamp(1, universe);
            let mut guard = 0;
            while interests.len() < want && guard < 10_000 {
                let t = if pool.is_empty() {
                    tag_weights.sample(&mut rng)
                } else if cross_ratio > 0.0 && rng.gen_bool(cross_ratio) {
                    // Cross-community exploration: a few interests come from
                    // the global distribution, not the community pool.
                    tag_weights.sample(&mut rng)
                } else {
                    pool[pool_w.sample(&mut rng)]
                };
                interests.insert(t);
                guard += 1;
            }
            let interests: Vec<usize> = interests.into_iter().collect();
            let interest_weights =
                WeightTable::new(interests.iter().map(|&t| tag_weights.weights[t]).collect());

            let num_docs = rng.gen_range(spec.min_docs_per_user..spec.max_docs_per_user);
            for _ in 0..num_docs {
                let num_doc_tags = rng.gen_range(1..=spec.max_tags_per_doc.max(1));
                // Exploration: some documents are about topics outside the
                // user's usual interests (newly discovered content).
                let explore = rng.gen_bool(spec.exploration_ratio);
                let fresh_draw = |rng: &mut StdRng| {
                    if explore {
                        tag_weights.sample(rng)
                    } else {
                        interests[interest_weights.sample(rng)]
                    }
                };
                let mut doc_tags = BTreeSet::new();
                if imitating {
                    // A bounded stream of tagging events: later events copy
                    // the document's earlier taggings with probability
                    // `imitation` (so the distinct set stabilizes — G&H), and
                    // fresh draws imitate the corpus-wide urn with the same
                    // probability (preferential attachment) before falling
                    // back to the interest/exploration draw.
                    events.clear();
                    for _ in 0..num_doc_tags * 2 + 2 {
                        let t = if !events.is_empty() && rng.gen_bool(spec.imitation) {
                            *events.choose(&mut rng).expect("non-empty")
                        } else if rng.gen_bool(spec.imitation) {
                            sample_weighted(&urn, urn.iter().sum(), &mut rng)
                        } else {
                            fresh_draw(&mut rng)
                        };
                        events.push(t);
                        if doc_tags.len() < num_doc_tags || doc_tags.contains(&t) {
                            doc_tags.insert(t);
                        }
                    }
                    for &t in &doc_tags {
                        urn[t] += 1.0;
                    }
                } else {
                    let mut guard = 0;
                    while doc_tags.len() < num_doc_tags && guard < 1_000 {
                        doc_tags.insert(fresh_draw(&mut rng));
                        guard += 1;
                    }
                }
                doc_tag_list.clear();
                doc_tag_list.extend(doc_tags.iter().copied());
                text.clear();
                for i in 0..spec.words_per_doc {
                    let word = if rng.gen_bool(spec.background_ratio) {
                        background.choose(&mut rng).expect("non-empty")
                    } else {
                        let &t = doc_tag_list.choose(&mut rng).expect("at least one tag");
                        &tag_vocab[t][word_zipf.sample(&mut rng)]
                    };
                    if i > 0 {
                        text.push(' ');
                    }
                    text.push_str(word);
                }
                let tag_name_set: BTreeSet<String> =
                    doc_tag_list.iter().map(|&t| tag_names[t].clone()).collect();
                corpus.push_document(user, text.as_str().to_owned(), tag_name_set);
            }
        }
        corpus
    }
}

/// A deterministic consonant-vowel stem so synthetic words look like words.
fn synth_stem(tag: usize, word: usize) -> String {
    const CONS: &[char] = &[
        'b', 'd', 'f', 'g', 'k', 'l', 'm', 'n', 'p', 'r', 's', 't', 'v', 'z',
    ];
    const VOWELS: &[char] = &['a', 'e', 'i', 'o', 'u'];
    let mut s = String::new();
    let mut x = (tag as u64 + 1)
        .wrapping_mul(2654435761)
        .wrapping_add(word as u64);
    for i in 0..4 {
        let set = if i % 2 == 0 { CONS } else { VOWELS };
        s.push(set[(x % set.len() as u64) as usize]);
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 3;
    }
    s
}

/// Encodes a non-negative number as consonant-vowel syllables ("0" → "ba",
/// "27" → "firu", …) so synthetic word tokens contain no digits and are not
/// filtered out by the tokenizer.
fn syllables(mut n: usize) -> String {
    const CONS: &[char] = &['b', 'd', 'f', 'g', 'k', 'l', 'm', 'n', 'p', 'r'];
    const VOWELS: &[char] = &['a', 'e', 'i', 'o', 'u'];
    let mut s = String::new();
    loop {
        let digit = n % 10;
        s.push(CONS[digit]);
        s.push(VOWELS[(n / 10) % 5]);
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s
}

/// Zipf exponent of the within-topic word choice.
const WORD_ZIPF_EXPONENT: f64 = 1.1;

/// A weight vector that never changes during generation, with its total
/// summed once, in index order, as a per-draw `iter().sum()` would sum it.
struct WeightTable {
    weights: Vec<f64>,
    total: f64,
}

impl WeightTable {
    fn new(weights: Vec<f64>) -> Self {
        let total = weights.iter().sum();
        Self { weights, total }
    }

    /// Samples an index proportionally to the weights.
    fn sample(&self, rng: &mut StdRng) -> usize {
        sample_weighted(&self.weights, self.total, rng)
    }
}

/// Samples an index proportionally to `weights`, whose sum is `total`.
///
/// The walk subtracts each weight from one uniform draw in index order. A
/// binary search over a cumulative table can pick a different index when the
/// draw lands within rounding of a bucket edge, so it would not reproduce the
/// stream by construction.
fn sample_weighted(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// The generator as it was before the sampling tables, kept verbatim as the
/// oracle that the table-driven body must reproduce bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The generator body before its sampling tables: per-draw sums,
    /// `zipf_index` and `words.join(" ")`.
    pub(super) fn generate(generator: &CorpusGenerator) -> Corpus {
        let spec = &generator.spec;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut corpus = Corpus::new();

        // Tag names and per-tag vocabularies. Word tokens are synthetic but
        // pronounceable-ish ("datab3x17") so the Porter stemmer and stop-word
        // filter see realistic-looking input without ever seeing the tag name.
        let tag_names: Vec<String> = (0..spec.num_tags)
            .map(|i| {
                TAG_NAME_POOL
                    .get(i)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("topic{i}"))
            })
            .collect();
        for name in &tag_names {
            corpus.intern_tag(name);
        }
        // Tokens must survive the preprocessing pipeline (which drops tokens
        // containing digits), so numeric indices are encoded as syllables.
        let tag_vocab: Vec<Vec<String>> = (0..spec.num_tags)
            .map(|t| {
                (0..spec.words_per_tag)
                    .map(|w| format!("{}{}", synth_stem(t, w), syllables(w)))
                    .collect()
            })
            .collect();
        let background: Vec<String> = (0..spec.background_vocab)
            .map(|w| format!("zq{}", syllables(w)))
            .collect();

        // Zipf weights over tags: tag popularity rank == tag index.
        let tag_weights: Vec<f64> = (0..spec.num_tags)
            .map(|i| 1.0 / ((i + 1) as f64).powf(spec.tag_zipf_exponent))
            .collect();

        // Community structure (None = independent users, the legacy model).
        // Both paths must consume identical randomness when communities are
        // disabled so legacy seeds keep generating bit-identical corpora.
        let assignments = generator.community_assignments();
        let pools = generator.community_tag_pools();
        let pool_weights: Option<Vec<Vec<f64>>> = pools.as_ref().map(|pools| {
            pools
                .iter()
                .map(|pool| pool.iter().map(|&t| tag_weights[t]).collect())
                .collect()
        });
        let cross_ratio = spec
            .communities
            .as_ref()
            .map_or(0.0, |c| c.cross_community_ratio);

        // Corpus-wide tagging history for imitation: a Polya urn seeded with
        // the Zipf prior (every tag stays reachable, and reinforcement
        // amplifies the head instead of washing it out toward uniform).
        let imitating = spec.imitation > 0.0;
        let mut urn: Vec<f64> = tag_weights.clone();

        for user in 0..spec.num_users {
            // Each user focuses on a few topics, sampled by global popularity
            // within their community's tag pool (or the whole universe).
            let community = assignments.as_ref().map(|a| a[user]);
            let (pool, pool_w): (&[usize], &[f64]) = match (&pools, &pool_weights, community) {
                (Some(p), Some(w), Some(c)) => (&p[c], &w[c]),
                _ => (&[], &[]),
            };
            let mut interests = BTreeSet::new();
            let universe = if pool.is_empty() {
                spec.num_tags
            } else {
                pool.len()
            };
            let want = spec.interests_per_user.clamp(1, universe);
            let mut guard = 0;
            while interests.len() < want && guard < 10_000 {
                let t = if pool.is_empty() {
                    sample_weighted(&tag_weights, &mut rng)
                } else if cross_ratio > 0.0 && rng.gen_bool(cross_ratio) {
                    // Cross-community exploration: a few interests come from
                    // the global distribution, not the community pool.
                    sample_weighted(&tag_weights, &mut rng)
                } else {
                    pool[sample_weighted(pool_w, &mut rng)]
                };
                interests.insert(t);
                guard += 1;
            }
            let interests: Vec<usize> = interests.into_iter().collect();
            let interest_weights: Vec<f64> = interests.iter().map(|&t| tag_weights[t]).collect();

            let num_docs = rng.gen_range(spec.min_docs_per_user..spec.max_docs_per_user);
            for _ in 0..num_docs {
                let num_doc_tags = rng.gen_range(1..=spec.max_tags_per_doc.max(1));
                // Exploration: some documents are about topics outside the
                // user's usual interests (newly discovered content).
                let explore = rng.gen_bool(spec.exploration_ratio);
                let fresh_draw = |rng: &mut StdRng| {
                    if explore {
                        sample_weighted(&tag_weights, rng)
                    } else {
                        interests[sample_weighted(&interest_weights, rng)]
                    }
                };
                let mut doc_tags = BTreeSet::new();
                if imitating {
                    // A bounded stream of tagging events: later events copy
                    // the document's earlier taggings with probability
                    // `imitation` (so the distinct set stabilizes — G&H), and
                    // fresh draws imitate the corpus-wide urn with the same
                    // probability (preferential attachment) before falling
                    // back to the interest/exploration draw.
                    let mut events: Vec<usize> = Vec::new();
                    for _ in 0..num_doc_tags * 2 + 2 {
                        let t = if !events.is_empty() && rng.gen_bool(spec.imitation) {
                            *events.choose(&mut rng).expect("non-empty")
                        } else if rng.gen_bool(spec.imitation) {
                            sample_weighted(&urn, &mut rng)
                        } else {
                            fresh_draw(&mut rng)
                        };
                        events.push(t);
                        if doc_tags.len() < num_doc_tags || doc_tags.contains(&t) {
                            doc_tags.insert(t);
                        }
                    }
                    for &t in &doc_tags {
                        urn[t] += 1.0;
                    }
                } else {
                    let mut guard = 0;
                    while doc_tags.len() < num_doc_tags && guard < 1_000 {
                        doc_tags.insert(fresh_draw(&mut rng));
                        guard += 1;
                    }
                }
                let doc_tag_list: Vec<usize> = doc_tags.iter().copied().collect();
                let mut words = Vec::with_capacity(spec.words_per_doc);
                for _ in 0..spec.words_per_doc {
                    if rng.gen_bool(spec.background_ratio) {
                        words.push(background.choose(&mut rng).expect("non-empty").clone());
                    } else {
                        let &t = doc_tag_list.choose(&mut rng).expect("at least one tag");
                        // Zipf-ish within-topic word choice: low indices more common.
                        let v = &tag_vocab[t];
                        let idx = zipf_index(v.len(), 1.1, &mut rng);
                        words.push(v[idx].clone());
                    }
                }
                let text = words.join(" ");
                let tag_name_set: BTreeSet<String> =
                    doc_tag_list.iter().map(|&t| tag_names[t].clone()).collect();
                corpus.push_document(user, text, tag_name_set);
            }
        }
        corpus
    }

    /// Samples an index proportionally to `weights`.
    fn sample_weighted(weights: &[f64], rng: &mut StdRng) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Samples an index in `[0, n)` with Zipf weight `1/(i+1)^s`.
    fn zipf_index(n: usize, s: f64, rng: &mut StdRng) -> usize {
        // Small n: direct inverse-CDF sampling is fine.
        let total: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(s)).sum();
        let mut x = rng.gen_range(0.0..total);
        for i in 1..=n {
            let w = 1.0 / (i as f64).powf(s);
            if x < w {
                return i - 1;
            }
            x -= w;
        }
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let spec = CorpusSpec::tiny();
        let corpus = CorpusGenerator::new(spec.clone()).generate();
        assert_eq!(corpus.num_users(), spec.num_users);
        assert_eq!(corpus.num_tags(), spec.num_tags);
        assert!(corpus.len() >= spec.num_users * spec.min_docs_per_user);
        assert!(corpus.len() < spec.num_users * spec.max_docs_per_user);
        for docs in corpus.documents_by_user() {
            assert!(docs.len() >= spec.min_docs_per_user);
            assert!(docs.len() < spec.max_docs_per_user);
        }
    }

    #[test]
    fn documents_have_tags_and_text() {
        let corpus = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        for d in corpus.documents() {
            assert!(!d.tags.is_empty());
            assert!(d.tags.len() <= CorpusSpec::tiny().max_tags_per_doc);
            assert!(d.text.split_whitespace().count() >= 10);
        }
        assert!(corpus.mean_tags_per_document() > 1.0);
    }

    #[test]
    fn tag_names_never_appear_in_text() {
        let corpus = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        for d in corpus.documents().iter().take(100) {
            for tag in &d.tags {
                assert!(!d.text.contains(tag), "tag {tag} leaked into document text");
            }
        }
    }

    #[test]
    fn tag_popularity_is_skewed() {
        let corpus = CorpusGenerator::new(CorpusSpec::default()).generate();
        let freq = corpus.tag_frequencies();
        let max = freq.values().copied().max().unwrap() as f64;
        let min = freq.values().copied().min().unwrap_or(0) as f64;
        assert!(max > 3.0 * min.max(1.0), "max {max} min {min}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        let b = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        let b = CorpusGenerator::new(CorpusSpec {
            seed: 999,
            ..CorpusSpec::tiny()
        })
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "max_docs_per_user")]
    fn invalid_spec_panics() {
        CorpusGenerator::new(CorpusSpec {
            min_docs_per_user: 10,
            max_docs_per_user: 10,
            ..CorpusSpec::tiny()
        })
        .generate();
    }

    #[test]
    fn validation_rejects_each_bad_field_with_a_typed_error() {
        use crate::error::SpecError;
        let base = CorpusSpec::tiny();
        assert_eq!(base.validate(), Ok(()));
        let cases: Vec<(CorpusSpec, SpecError)> = vec![
            (
                CorpusSpec {
                    min_docs_per_user: 10,
                    max_docs_per_user: 10,
                    ..base.clone()
                },
                SpecError::DocsPerUserRange { min: 10, max: 10 },
            ),
            (
                CorpusSpec {
                    num_tags: 0,
                    ..base.clone()
                },
                SpecError::ZeroCount { field: "num_tags" },
            ),
            (
                CorpusSpec {
                    tag_zipf_exponent: 0.0,
                    ..base.clone()
                },
                SpecError::NonPositive {
                    field: "tag_zipf_exponent",
                    value: 0.0,
                },
            ),
            (
                CorpusSpec {
                    imitation: 1.5,
                    ..base.clone()
                },
                SpecError::UnitInterval {
                    field: "imitation",
                    value: 1.5,
                },
            ),
            (
                CorpusSpec {
                    exploration_ratio: -0.1,
                    ..base.clone()
                },
                SpecError::UnitInterval {
                    field: "exploration_ratio",
                    value: -0.1,
                },
            ),
            (
                CorpusSpec {
                    communities: Some(CommunitySpec {
                        num_communities: 0,
                        ..CommunitySpec::default()
                    }),
                    ..base.clone()
                },
                SpecError::ZeroCount {
                    field: "num_communities",
                },
            ),
            (
                CorpusSpec {
                    communities: Some(CommunitySpec {
                        tag_overlap: 2.0,
                        ..CommunitySpec::default()
                    }),
                    ..base.clone()
                },
                SpecError::UnitInterval {
                    field: "tag_overlap",
                    value: 2.0,
                },
            ),
        ];
        for (spec, expected) in cases {
            assert_eq!(spec.validate(), Err(expected.clone()));
            assert_eq!(CorpusGenerator::try_new(spec).err(), Some(expected));
        }
    }

    fn community_spec() -> CorpusSpec {
        CorpusSpec {
            communities: Some(CommunitySpec {
                num_communities: 3,
                tag_overlap: 0.0,
                cross_community_ratio: 0.0,
            }),
            exploration_ratio: 0.0,
            ..CorpusSpec::tiny()
        }
    }

    #[test]
    fn community_assignments_cover_all_users_and_pools_cover_all_tags() {
        let spec = community_spec();
        let generator = CorpusGenerator::new(spec.clone());
        let assignments = generator.community_assignments().unwrap();
        assert_eq!(assignments.len(), spec.num_users);
        let k = 3;
        for c in 0..k {
            assert!(assignments.contains(&c), "community {c} empty");
        }
        let pools = generator.community_tag_pools().unwrap();
        let mut union: BTreeSet<usize> = BTreeSet::new();
        for pool in &pools {
            assert!(!pool.is_empty());
            union.extend(pool.iter().copied());
        }
        assert_eq!(union.len(), spec.num_tags, "pools must cover the universe");
    }

    #[test]
    fn disjoint_communities_confine_each_users_tags_to_their_pool() {
        // With no overlap, no cross-community draws and no exploration, every
        // document's tags must come from its owner's community pool.
        let generator = CorpusGenerator::new(community_spec());
        let corpus = generator.generate();
        let assignments = generator.community_assignments().unwrap();
        let pools = generator.community_tag_pools().unwrap();
        for d in corpus.documents() {
            let pool: BTreeSet<u32> = pools[assignments[d.user]]
                .iter()
                .map(|&t| t as u32)
                .collect();
            for id in corpus.tag_ids_of(d.id) {
                assert!(
                    pool.contains(&id),
                    "user {} (community {}) tagged outside their pool: tag {id}",
                    d.user,
                    assignments[d.user]
                );
            }
        }
    }

    #[test]
    fn tag_overlap_lets_neighboring_communities_share_tags() {
        let spec = CorpusSpec {
            communities: Some(CommunitySpec {
                num_communities: 3,
                tag_overlap: 0.5,
                cross_community_ratio: 0.0,
            }),
            ..CorpusSpec::tiny()
        };
        let pools = CorpusGenerator::new(spec).community_tag_pools().unwrap();
        for (i, pool) in pools.iter().enumerate() {
            let neighbor: BTreeSet<usize> = pools[(i + 1) % pools.len()].iter().copied().collect();
            let shared = pool.iter().filter(|t| neighbor.contains(t)).count();
            assert!(shared > 0, "community {i} shares nothing with its neighbor");
        }
    }

    #[test]
    fn imitation_stabilizes_per_document_tag_sets() {
        let base = CorpusSpec {
            max_tags_per_doc: 4,
            ..CorpusSpec::tiny()
        };
        let plain = CorpusGenerator::new(base.clone()).generate();
        let imitated = CorpusGenerator::new(CorpusSpec {
            imitation: 0.9,
            ..base
        })
        .generate();
        assert!(
            imitated.mean_tags_per_document() < plain.mean_tags_per_document(),
            "imitation {} vs plain {}",
            imitated.mean_tags_per_document(),
            plain.mean_tags_per_document()
        );
        for d in imitated.documents() {
            assert!(!d.tags.is_empty());
        }
    }

    #[test]
    fn imitation_skews_global_tag_popularity() {
        // Preferential attachment: the top tag's share of all taggings grows
        // with imitation strength.
        let top_share = |imitation: f64| {
            let corpus = CorpusGenerator::new(CorpusSpec {
                imitation,
                ..CorpusSpec::tiny()
            })
            .generate();
            let freq = corpus.tag_frequencies();
            let total: usize = freq.values().sum();
            let max = freq.values().copied().max().unwrap_or(0);
            max as f64 / total.max(1) as f64
        };
        assert!(
            top_share(0.9) > top_share(0.0),
            "imitation 0.9 share {} vs baseline {}",
            top_share(0.9),
            top_share(0.0)
        );
    }

    #[test]
    fn zero_imitation_and_no_communities_reproduce_the_legacy_stream() {
        // The benign scenario must be bit-identical to the pre-scenario
        // generator: the new knobs may not consume randomness when disabled.
        let corpus = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        let explicit = CorpusGenerator::new(CorpusSpec {
            communities: None,
            imitation: 0.0,
            ..CorpusSpec::tiny()
        })
        .generate();
        assert_eq!(corpus, explicit);
    }

    /// `benchmark/src/spec.rs`'s session corpus shape (`pace-session`,
    /// `cempar-session`).
    fn session_shape(peers: usize, seed: u64) -> CorpusSpec {
        CorpusSpec {
            num_tags: 24,
            num_users: peers,
            min_docs_per_user: 12,
            max_docs_per_user: 20,
            words_per_doc: 40,
            words_per_tag: 25,
            background_vocab: 300,
            interests_per_user: 5,
            seed,
            ..CorpusSpec::default()
        }
    }

    /// `benchmark/src/spec.rs`'s `bulk-learn` corpus shape.
    fn bulk_shape(peers: usize, seed: u64) -> CorpusSpec {
        CorpusSpec {
            num_tags: 48,
            words_per_doc: 60,
            ..session_shape(peers, seed)
        }
    }

    /// `benchmark/src/spec.rs`'s `peerd-loopback` corpus shape (four users
    /// per daemon).
    fn loopback_shape(daemons: usize, seed: u64) -> CorpusSpec {
        CorpusSpec {
            num_tags: 12,
            num_users: daemons * 4,
            min_docs_per_user: 30,
            max_docs_per_user: 31,
            words_per_doc: 60,
            words_per_tag: 30,
            background_vocab: 400,
            interests_per_user: 5,
            seed,
            ..CorpusSpec::default()
        }
    }

    /// Specs that between them take every branch of the generator.
    fn oracle_specs() -> Vec<(&'static str, CorpusSpec)> {
        let tiny = CorpusSpec::tiny();
        let communities = |tag_overlap, cross_community_ratio| {
            Some(CommunitySpec {
                num_communities: 3,
                tag_overlap,
                cross_community_ratio,
            })
        };
        vec![
            ("tiny", tiny.clone()),
            (
                "demo",
                CorpusSpec {
                    num_users: 12,
                    seed: 2010,
                    ..CorpusSpec::default()
                },
            ),
            ("pace-session", session_shape(40, 2010)),
            ("cempar-session", session_shape(100, 2010)),
            ("cempar-session seed 7", session_shape(100, 7)),
            ("bulk-learn", bulk_shape(60, 2010)),
            ("peerd-loopback", loopback_shape(4, 2010)),
            (
                "communities",
                CorpusSpec {
                    communities: Some(CommunitySpec::default()),
                    ..tiny.clone()
                },
            ),
            (
                "overlapping communities, cross draws",
                CorpusSpec {
                    communities: communities(0.5, 0.3),
                    ..tiny.clone()
                },
            ),
            (
                "more communities than tags",
                CorpusSpec {
                    num_tags: 3,
                    communities: Some(CommunitySpec {
                        num_communities: 5,
                        ..CommunitySpec::default()
                    }),
                    ..tiny.clone()
                },
            ),
            (
                "imitation 0.5",
                CorpusSpec {
                    imitation: 0.5,
                    ..tiny.clone()
                },
            ),
            (
                "imitation 0.9 in communities",
                CorpusSpec {
                    imitation: 0.9,
                    max_tags_per_doc: 4,
                    communities: communities(0.25, 0.1),
                    ..tiny.clone()
                },
            ),
            (
                "no exploration",
                CorpusSpec {
                    exploration_ratio: 0.0,
                    ..tiny.clone()
                },
            ),
            (
                "exploration only",
                CorpusSpec {
                    exploration_ratio: 1.0,
                    ..tiny.clone()
                },
            ),
            (
                "no background",
                CorpusSpec {
                    background_ratio: 0.0,
                    ..tiny.clone()
                },
            ),
            (
                "background only",
                CorpusSpec {
                    background_ratio: 1.0,
                    ..tiny.clone()
                },
            ),
            (
                "one word per tag",
                CorpusSpec {
                    words_per_tag: 1,
                    ..tiny.clone()
                },
            ),
            (
                "more tags per document than tags",
                CorpusSpec {
                    max_tags_per_doc: 10,
                    ..tiny.clone()
                },
            ),
        ]
    }

    #[test]
    fn sampling_tables_reproduce_the_oracle_corpus() {
        for (name, spec) in oracle_specs() {
            let generator = CorpusGenerator::new(spec);
            let expected = oracle::generate(&generator);
            let corpus = generator.generate();
            assert_eq!(corpus.len(), expected.len(), "{name}: document count");
            for (got, want) in corpus.documents().iter().zip(expected.documents()) {
                assert_eq!(got, want, "{name}: document {}", want.id);
            }
            assert_eq!(corpus, expected, "{name}");
        }
    }

    #[test]
    fn document_texts_are_exactly_sized() {
        for (name, spec) in oracle_specs() {
            for d in CorpusGenerator::new(spec).generate().documents() {
                assert_eq!(
                    d.text.capacity(),
                    d.text.len(),
                    "{name}: document {} keeps spare capacity",
                    d.id
                );
            }
        }
    }

    /// FNV-1a over every document's user, text and tag names, in order.
    fn fingerprint(corpus: &Corpus) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for d in corpus.documents() {
            eat(&(d.user as u64).to_le_bytes());
            eat(d.text.as_bytes());
            for tag in &d.tags {
                eat(&[0xff]);
                eat(tag.as_bytes());
            }
            eat(&[0xfe]);
        }
        h
    }

    #[test]
    fn bulk_shaped_corpus_matches_its_pinned_fingerprint() {
        let corpus = CorpusGenerator::new(bulk_shape(60, 2010)).generate();
        assert_eq!(
            (corpus.len(), fingerprint(&corpus)),
            (935, 0xcf45_6f79_6f98_ff4e),
            "the corpus stream moved: every experiment golden, every BENCH_*.json \
             and every benchmark fingerprint was generated from it, so all of them \
             move too"
        );
    }
}
