//! The shared lexicon mapping words to numeric ids.
//!
//! Every peer represents a word by its id ("the attribute id represents the
//! word id", §2). The vocabulary is the only piece of preprocessing state that
//! must be consistent across peers; in the simulator it is built once from the
//! corpus generator (in a deployment it would be agreed upon via a shared
//! dictionary or feature hashing).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Bidirectional word ↔ id mapping with document-frequency statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    word_to_id: HashMap<String, u32>,
    id_to_word: Vec<String>,
    /// Number of documents each word id appeared in (for IDF weighting).
    doc_freq: Vec<u32>,
    /// Number of documents observed while fitting.
    num_docs: u64,
    /// When `true`, unknown words are no longer added by [`Self::observe_document`].
    frozen: bool,
}

impl Vocabulary {
    /// Creates an empty, unfrozen vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct words (the lexicon size `m`).
    pub fn len(&self) -> usize {
        self.id_to_word.len()
    }

    /// Returns `true` when no word has been added.
    pub fn is_empty(&self) -> bool {
        self.id_to_word.is_empty()
    }

    /// Number of documents observed during fitting.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Freezes the vocabulary: subsequently observed unknown words are ignored
    /// instead of being assigned new ids.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Returns the id of `word`, inserting it if absent and not frozen.
    pub fn get_or_insert(&mut self, word: &str) -> Option<u32> {
        if let Some(&id) = self.word_to_id.get(word) {
            return Some(id);
        }
        if self.frozen {
            return None;
        }
        let id = self.id_to_word.len() as u32;
        self.word_to_id.insert(word.to_string(), id);
        self.id_to_word.push(word.to_string());
        self.doc_freq.push(0);
        Some(id)
    }

    /// Returns the id of `word` if it is known.
    pub fn id_of(&self, word: &str) -> Option<u32> {
        self.word_to_id.get(word).copied()
    }

    /// Returns the word with the given id.
    pub fn word_of(&self, id: u32) -> Option<&str> {
        self.id_to_word.get(id as usize).map(String::as_str)
    }

    /// Document frequency of the word with the given id.
    pub fn doc_freq(&self, id: u32) -> u32 {
        self.doc_freq.get(id as usize).copied().unwrap_or(0)
    }

    /// Smoothed inverse document frequency of a word id:
    /// `ln((1 + N) / (1 + df)) + 1`.
    pub fn idf(&self, id: u32) -> f64 {
        let n = self.num_docs as f64;
        let df = self.doc_freq(id) as f64;
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }

    /// Observes one document's tokens: updates ids and document frequencies.
    ///
    /// Returns the per-document term counts keyed by word id, in ascending
    /// id order (a `BTreeMap`, so every consumer iterates deterministically
    /// — hash order must never reach an accumulation).
    pub fn observe_document<'a, I>(&mut self, tokens: I) -> BTreeMap<u32, u32>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for tok in tokens {
            if let Some(id) = self.get_or_insert(tok) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        self.observe_ids(counts.keys().copied());
        counts
    }

    /// Counts one fitted document given the distinct ids of its terms.
    pub(crate) fn observe_ids(&mut self, distinct: impl IntoIterator<Item = u32>) {
        for id in distinct {
            self.doc_freq[id as usize] += 1;
        }
        self.num_docs += 1;
    }

    /// Converts tokens of an already-fitted document into term counts without
    /// touching document frequencies (used at transform/prediction time).
    /// Counts come back in ascending id order, like
    /// [`Self::observe_document`].
    pub fn count_tokens<'a, I>(&self, tokens: I) -> BTreeMap<u32, u32>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for tok in tokens {
            if let Some(id) = self.id_of(tok) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Iterates over `(word, id)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> + '_ {
        self.id_to_word
            .iter()
            .enumerate()
            .map(|(i, w)| (w.as_str(), i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut v = Vocabulary::new();
        assert_eq!(v.get_or_insert("alpha"), Some(0));
        assert_eq!(v.get_or_insert("beta"), Some(1));
        assert_eq!(v.get_or_insert("alpha"), Some(0));
        assert_eq!(v.len(), 2);
        assert_eq!(v.word_of(1), Some("beta"));
        assert_eq!(v.id_of("gamma"), None);
    }

    #[test]
    fn frozen_vocabulary_rejects_new_words() {
        let mut v = Vocabulary::new();
        v.get_or_insert("alpha");
        v.freeze();
        assert_eq!(v.get_or_insert("beta"), None);
        assert_eq!(v.get_or_insert("alpha"), Some(0));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn observe_document_updates_doc_freq() {
        let mut v = Vocabulary::new();
        let c1 = v.observe_document(["cat", "dog", "cat"]);
        let c2 = v.observe_document(["dog", "fish"]);
        assert_eq!(c1[&v.id_of("cat").unwrap()], 2);
        assert_eq!(c2[&v.id_of("fish").unwrap()], 1);
        assert_eq!(v.doc_freq(v.id_of("cat").unwrap()), 1);
        assert_eq!(v.doc_freq(v.id_of("dog").unwrap()), 2);
        assert_eq!(v.num_docs(), 2);
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let mut v = Vocabulary::new();
        v.observe_document(["common", "rare"]);
        v.observe_document(["common"]);
        v.observe_document(["common"]);
        let rare = v.idf(v.id_of("rare").unwrap());
        let common = v.idf(v.id_of("common").unwrap());
        assert!(rare > common);
    }

    #[test]
    fn count_tokens_ignores_unknown() {
        let mut v = Vocabulary::new();
        v.observe_document(["known"]);
        v.freeze();
        let counts = v.count_tokens(["known", "unknown", "known"]);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&0], 2);
    }
}
