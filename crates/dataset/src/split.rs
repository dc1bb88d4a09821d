//! Train/test splitting following the demo protocol.
//!
//! "20 percent of the documents with tags are used for training the automated
//! tagger, while tags of the remaining 80 percent documents are removed to be
//! tagged by P2PDocTagger" (§3). The split is stratified per user so that every
//! peer keeps roughly the same training fraction — each peer contributes "a
//! small number of tagged documents".

use crate::corpus::{Corpus, DocumentId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A train/test partition of a corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainTestSplit {
    /// Documents whose tags remain visible (manually tagged by users).
    pub train: Vec<DocumentId>,
    /// Documents whose tags are hidden and must be predicted.
    pub test: Vec<DocumentId>,
}

impl TrainTestSplit {
    /// Splits `corpus` with `train_fraction` of each user's documents used for
    /// training (at least one per user when the user has any documents).
    ///
    /// # Panics
    /// Panics unless `0.0 < train_fraction < 1.0`.
    pub fn stratified_by_user(corpus: &Corpus, train_fraction: f64, seed: u64) -> Self {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train_fraction must be in (0, 1)"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for mut docs in corpus.documents_by_user() {
            if docs.is_empty() {
                continue;
            }
            docs.shuffle(&mut rng);
            let n_train = ((docs.len() as f64 * train_fraction).round() as usize)
                .clamp(1, docs.len().saturating_sub(1).max(1));
            for (i, d) in docs.into_iter().enumerate() {
                if i < n_train {
                    train.push(d);
                } else {
                    test.push(d);
                }
            }
        }
        train.sort_unstable();
        test.sort_unstable();
        Self { train, test }
    }

    /// The demo protocol: 20 % training, 80 % testing.
    pub fn demo_protocol(corpus: &Corpus, seed: u64) -> Self {
        Self::stratified_by_user(corpus, 0.2, seed)
    }

    /// Fraction of documents in the training set.
    pub fn train_fraction(&self) -> f64 {
        let total = self.train.len() + self.test.len();
        if total == 0 {
            return 0.0;
        }
        self.train.len() as f64 / total as f64
    }

    /// Training documents belonging to a given user.
    #[cfg(test)]
    pub fn train_docs_of_user(&self, corpus: &Corpus, user: usize) -> Vec<DocumentId> {
        self.train
            .iter()
            .copied()
            .filter(|&d| corpus.document(d).map(|doc| doc.user) == Some(user))
            .collect()
    }

    /// Test documents belonging to a given user.
    #[cfg(test)]
    pub fn test_docs_of_user(&self, corpus: &Corpus, user: usize) -> Vec<DocumentId> {
        self.test
            .iter()
            .copied()
            .filter(|&d| corpus.document(d).map(|doc| doc.user) == Some(user))
            .collect()
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
    fn split_is_a_partition() {
        let c = corpus();
        let s = TrainTestSplit::demo_protocol(&c, 1);
        assert_eq!(s.train.len() + s.test.len(), c.len());
        let mut all: Vec<_> = s.train.iter().chain(s.test.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), c.len());
    }

    #[test]
    fn demo_protocol_is_roughly_twenty_percent() {
        let c = corpus();
        let s = TrainTestSplit::demo_protocol(&c, 2);
        let f = s.train_fraction();
        assert!((0.15..=0.25).contains(&f), "train fraction {f}");
    }

    #[test]
    fn every_user_has_training_documents() {
        let c = corpus();
        let s = TrainTestSplit::demo_protocol(&c, 3);
        for user in 0..c.num_users() {
            assert!(
                !s.train_docs_of_user(&c, user).is_empty(),
                "user {user} has no training docs"
            );
            assert!(
                !s.test_docs_of_user(&c, user).is_empty(),
                "user {user} has no test docs"
            );
        }
    }

    #[test]
    fn split_is_deterministic() {
        let c = corpus();
        assert_eq!(
            TrainTestSplit::demo_protocol(&c, 7),
            TrainTestSplit::demo_protocol(&c, 7)
        );
        assert_ne!(
            TrainTestSplit::demo_protocol(&c, 7),
            TrainTestSplit::demo_protocol(&c, 8)
        );
    }

    #[test]
    fn fraction_parameter_is_respected() {
        let c = corpus();
        let s = TrainTestSplit::stratified_by_user(&c, 0.5, 4);
        let f = s.train_fraction();
        assert!((0.4..=0.6).contains(&f), "train fraction {f}");
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn invalid_fraction_panics() {
        TrainTestSplit::stratified_by_user(&corpus(), 1.5, 0);
    }
}
