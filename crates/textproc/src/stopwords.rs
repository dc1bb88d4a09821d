//! Stop-word and sensitive-word filtering.
//!
//! The paper removes both generic stop words ("that contain little recognition
//! value (e.g., a, for, and, not, etc)") and *user-specified sensitive words*
//! from all documents before any information is shared with other peers.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Default English stop-word list (a compact, standard IR list).
pub const DEFAULT_STOP_WORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "aren",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "couldn",
    "did",
    "didn",
    "do",
    "does",
    "doesn",
    "doing",
    "don",
    "dont",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "hadn",
    "has",
    "hasn",
    "have",
    "haven",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "isn",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "ought",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "shouldn",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "wasn",
    "we",
    "were",
    "weren",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "won",
    "would",
    "wouldn",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// Filters out stop words and user-specified sensitive words.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StopWordFilter {
    stop_words: HashSet<String>,
    sensitive_words: HashSet<String>,
}

impl Default for StopWordFilter {
    fn default() -> Self {
        Self::english()
    }
}

impl StopWordFilter {
    /// Creates a filter with the default English stop-word list and no
    /// sensitive words.
    pub fn english() -> Self {
        Self {
            stop_words: DEFAULT_STOP_WORDS.iter().map(|s| s.to_string()).collect(),
            sensitive_words: HashSet::new(),
        }
    }

    /// Registers a user-specified sensitive word; sensitive words are removed
    /// from documents before any vector is built, so they never leave the peer.
    pub fn add_sensitive_word(&mut self, word: impl Into<String>) {
        self.sensitive_words.insert(word.into().to_lowercase());
    }

    /// Returns `true` if `word` should be removed.
    pub fn is_filtered(&self, word: &str) -> bool {
        self.stop_words.contains(word) || self.sensitive_words.contains(word)
    }

    /// Retains only the tokens that pass the filter.
    pub fn filter(&self, tokens: Vec<String>) -> Vec<String> {
        tokens
            .into_iter()
            .filter(|t| !self.is_filtered(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_list_filters_common_words() {
        let f = StopWordFilter::english();
        assert!(f.is_filtered("the"));
        assert!(f.is_filtered("and"));
        assert!(f.is_filtered("not"));
        assert!(!f.is_filtered("peer"));
    }

    #[test]
    fn sensitive_words_are_filtered() {
        let mut f = StopWordFilter::english();
        f.add_sensitive_word("Confidential");
        assert!(f.is_filtered("confidential"));
        assert!(!f.is_filtered("public"));
    }

    #[test]
    fn filter_removes_tokens() {
        let mut f = StopWordFilter::english();
        f.add_sensitive_word("salary");
        let toks = vec![
            "the".to_string(),
            "salary".to_string(),
            "report".to_string(),
        ];
        assert_eq!(f.filter(toks), vec!["report".to_string()]);
    }
}
