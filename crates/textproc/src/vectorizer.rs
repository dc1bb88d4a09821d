//! The end-to-end preprocessing pipeline: tokenize → filter → stem → vectorize.
//!
//! Mirrors the "Document preprocessing" box of Figure 1: the output of the
//! pipeline is the sparse bag-of-words vector that is the only document
//! representation ever handled by the learning and P2P layers.
//!
//! The vectorizing paths (`fit`, `transform(_batch)`, `fit_transform`) scan
//! each text once. Per token they pay a split, one probe of a call-local memo
//! keyed by the token's *raw* bytes, and one count into a dense per-id
//! scratch; normalizing, filtering, stemming and the vocabulary lookup run
//! only on the first occurrence of each raw spelling in the call. At the end
//! of a document only its distinct ids are sorted.

use crate::porter::PorterStemmer;
use crate::sparse::SparseVector;
use crate::stopwords::StopWordFilter;
use crate::tokenizer::{raw_runs, Tokenizer};
use crate::vocabulary::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Complete preprocessing pipeline producing sparse document vectors:
/// English stop words, Porter stemming, TF-IDF weights, L2-normalized.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PreprocessPipeline {
    tokenizer: Tokenizer,
    stop_words: StopWordFilter,
    stemmer: PorterStemmer,
    vocabulary: Vocabulary,
}

/// Call-local scratch of the scanner over texts that live for `'t`: reused
/// token and stem buffers, the memo from each distinct raw run (a slice of
/// the call's texts) to its term id (`None`: dropped or unknown; lookup-only,
/// never iterated), the current document's count per term id with the ids it
/// touched, and its `(id, tf)` pairs.
#[derive(Default)]
struct Scratch<'t> {
    token: String,
    stem: Vec<u8>,
    memo: HashMap<&'t str, Option<u32>>,
    counts: Vec<u32>,
    touched: Vec<u32>,
    tf: Vec<(u32, f64)>,
}

impl PreprocessPipeline {
    /// Creates an unfitted pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Mutable access to the stop-word / sensitive-word filter, e.g. for
    /// registering user-specified sensitive words before fitting.
    pub fn stop_words_mut(&mut self) -> &mut StopWordFilter {
        &mut self.stop_words
    }

    /// Tokenizes, filters and stems a raw document into processed terms.
    pub fn terms(&self, text: &str) -> Vec<String> {
        let (mut terms, mut stem) = (Vec::new(), Vec::new());
        self.tokenizer.scan(text, |token| {
            terms.extend(self.term_of(token, &mut stem).map(str::to_string));
        });
        terms
    }

    /// The processed term of one token (stop- and sensitive-word filter,
    /// Porter stem into the reused `stem`); `None` when dropped.
    fn term_of<'a>(&self, token: &'a str, stem: &'a mut Vec<u8>) -> Option<&'a str> {
        (!self.stop_words.is_filtered(token)).then(|| self.stemmer.stem_into(token, stem))
    }

    /// Scans `text` once, leaving its terms' `(id, tf)` pairs, ascending by id,
    /// in `s.tf`. The token rules, [`Self::term_of`] and `id_of` (term to id)
    /// run once per *distinct raw run* of the call: a run's term depends on its
    /// bytes alone, so a repeat is one memo probe and one count. An inserting
    /// `id_of` still hands out ids in first-seen order, since a term's first
    /// occurrence is the first occurrence of one of its raw spellings.
    fn scan_tf<'t>(
        &self,
        text: &'t str,
        s: &mut Scratch<'t>,
        mut id_of: impl FnMut(&str) -> Option<u32>,
    ) {
        let Scratch {
            token,
            stem,
            memo,
            counts,
            touched,
            tf,
        } = s;
        raw_runs(text, |raw| {
            let id = *memo.entry(raw).or_insert_with(|| {
                let term = self.tokenizer.token(raw, token);
                let id = term
                    .and_then(|t| self.term_of(t, stem))
                    .and_then(&mut id_of);
                if let Some(id) = id {
                    let len = counts.len().max(id as usize + 1);
                    counts.resize(len, 0);
                }
                id
            });
            if let Some(id) = id {
                let count = &mut counts[id as usize];
                if *count == 0 {
                    touched.push(id);
                }
                *count += 1;
            }
        });
        // Only the distinct ids are sorted; a count is the exact sum of the
        // occurrences' 1.0s, and taking it leaves the dense scratch all zero.
        touched.sort_unstable();
        tf.clear();
        let take = |id: u32| (id, f64::from(std::mem::take(&mut counts[id as usize])));
        tf.extend(touched.drain(..).map(take));
    }

    /// The fitting pass: observes `docs` in order, growing the vocabulary and
    /// its document frequencies, and hands `each` every document's `(id, tf)`s.
    fn observe<'a, I: IntoIterator<Item = &'a str>>(
        &mut self,
        docs: I,
        mut each: impl FnMut(&[(u32, f64)]),
    ) {
        // Moved out for the pass so that the scanner can borrow `self` shared.
        let mut vocabulary = std::mem::take(&mut self.vocabulary);
        let mut s = Scratch::default();
        for doc in docs {
            self.scan_tf(doc, &mut s, |term| vocabulary.get_or_insert(term));
            vocabulary.observe_ids(s.tf.iter().map(|&(id, _)| id));
            each(&s.tf);
        }
        self.vocabulary = vocabulary;
    }

    /// Fits the vocabulary on a corpus and freezes it.
    pub fn fit<'a, I>(&mut self, docs: I)
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.observe(docs, |_| {});
        self.vocabulary.freeze();
    }

    /// Turns a term-frequency vector into its L2-normalized tf·idf, in place.
    fn reweight(v: &mut SparseVector, idf: impl Fn(u32) -> f64) {
        v.map_values(|id, tf| tf * idf(id));
        v.l2_normalize();
    }

    /// The idf of every word id, computed once for a batch.
    fn idf_table(&self) -> Vec<f64> {
        let ids = 0..self.vocabulary.len() as u32;
        ids.map(|id| self.vocabulary.idf(id)).collect()
    }

    /// Scans one document against the fitted vocabulary and weights it.
    fn vectorize<'t>(
        &self,
        text: &'t str,
        s: &mut Scratch<'t>,
        idf: impl Fn(u32) -> f64,
    ) -> SparseVector {
        self.scan_tf(text, s, |term| self.vocabulary.id_of(term));
        let mut v = SparseVector::from_sorted_pairs(s.tf.iter().copied());
        Self::reweight(&mut v, idf);
        v
    }

    /// Transforms a document into its sparse feature vector using the fitted
    /// vocabulary (unknown words are ignored).
    pub fn transform(&self, text: &str) -> SparseVector {
        self.vectorize(text, &mut Scratch::default(), |id| self.vocabulary.idf(id))
    }

    /// Transforms a batch of documents with the fitted vocabulary, in input
    /// order, sharing one memo and one idf table across the batch.
    pub fn transform_batch(&self, docs: &[&str]) -> Vec<SparseVector> {
        let (idf, mut s) = (self.idf_table(), Scratch::default());
        let vectorize = |doc| self.vectorize(doc, &mut s, |id| idf[id as usize]);
        docs.iter().copied().map(vectorize).collect()
    }

    /// Fits on the corpus and returns the vector of every document, in order.
    ///
    /// Every document is scanned once: the fitting pass leaves its term
    /// frequencies in its final vector, and once the document frequencies are
    /// complete those vectors are re-weighted in place — bit-identical to
    /// [`Self::fit`] followed by [`Self::transform_batch`].
    pub fn fit_transform<'a, I>(&mut self, docs: I) -> Vec<SparseVector>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let docs = docs.into_iter();
        let mut vectors = Vec::with_capacity(docs.size_hint().0);
        self.observe(docs, |tf| {
            vectors.push(SparseVector::from_sorted_pairs(tf.iter().copied()))
        });
        self.vocabulary.freeze();
        let idf = self.idf_table();
        let reweight = |v| Self::reweight(v, |id| idf[id as usize]);
        vectors.iter_mut().for_each(reweight);
        vectors
    }

    /// Size of the fitted lexicon.
    pub fn lexicon_size(&self) -> usize {
        self.vocabulary.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCS: [&str; 3] = [
        "Distributed peer to peer networks share resources among peers.",
        "Support vector machines learn classification models from training documents.",
        "Tagging documents with collaborative tags eases document retrieval.",
    ];

    /// `terms` as it was before the one-pass scanner: the public tokenizer,
    /// filter and stemmer composed per document.
    fn oracle_terms(filter: &StopWordFilter, text: &str) -> Vec<String> {
        let mut terms = filter.filter(Tokenizer::new().tokenize(text));
        PorterStemmer::new().stem_all(&mut terms);
        terms
    }

    /// What `fit` + `transform` were before the one-pass scanner:
    /// [`oracle_terms`] and the public vocabulary counters, twice over the
    /// corpus. Kept as the oracle the scanner is held to.
    fn oracle(filter: &StopWordFilter, docs: &[&str]) -> (Vocabulary, Vec<SparseVector>) {
        let terms = |text: &str| oracle_terms(filter, text);
        let mut vocabulary = Vocabulary::new();
        for doc in docs {
            vocabulary.observe_document(terms(doc).iter().map(String::as_str));
        }
        vocabulary.freeze();
        let vectors = docs
            .iter()
            .map(|doc| {
                let counts = vocabulary.count_tokens(terms(doc).iter().map(String::as_str));
                let mut v = SparseVector::from_sorted_pairs(
                    counts
                        .iter()
                        .map(|(&id, &tf)| (id, tf as f64 * vocabulary.idf(id))),
                );
                v.l2_normalize();
                v
            })
            .collect();
        (vocabulary, vectors)
    }

    fn assert_bit_identical(got: &[SparseVector], want: &[SparseVector], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (d, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.indices(), w.indices(), "{what}: doc {d}");
            let bits =
                |v: &SparseVector| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}: doc {d}");
        }
    }

    fn assert_same_vocabulary(got: &Vocabulary, want: &Vocabulary, what: &str) {
        assert_eq!(got.num_docs(), want.num_docs(), "{what}");
        let entries = |v: &Vocabulary| {
            v.iter()
                .map(|(word, id)| (word.to_string(), id, v.doc_freq(id)))
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(got), entries(want), "{what}");
    }

    #[test]
    fn one_pass_scanner_matches_the_two_pass_oracle_bit_for_bit() {
        let docs = [
            "Peers don't share the peers' documents; PEERS tag tagging tagged documents.",
            "",
            "x86 ipv6 42 4chan a I ok ok ok",
            "İstanbul İİ straße Müller naïve λόγος 中文 中文 ٣٣٣",
            "supercalifragilisticexpialidociousandthensomemorelettersontop short",
            "salary Salary SALARY's classification classifications",
            "   ,,, !! '' ' ",
            "tagging the tagged tags of a tagger, and the peers' peer",
        ];
        let mut filter = StopWordFilter::english();
        filter.add_sensitive_word("salary");
        let (vocabulary, want) = oracle(&filter, &docs);
        let pipeline = || {
            let mut p = PreprocessPipeline::new();
            p.stop_words_mut().add_sensitive_word("salary");
            p
        };

        let mut one_pass = pipeline();
        let got = one_pass.fit_transform(docs);
        assert_same_vocabulary(one_pass.vocabulary(), &vocabulary, "fit_transform");
        assert_bit_identical(&got, &want, "fit_transform");

        let mut two_step = pipeline();
        two_step.fit(docs);
        assert_same_vocabulary(two_step.vocabulary(), &vocabulary, "fit");
        assert_bit_identical(&two_step.transform_batch(&docs), &want, "transform_batch");
        let singly: Vec<_> = docs.iter().map(|d| two_step.transform(d)).collect();
        assert_bit_identical(&singly, &want, "transform");

        for doc in docs {
            assert_eq!(one_pass.terms(doc), oracle_terms(&filter, doc), "{doc:?}");
        }
    }

    #[test]
    fn raw_spellings_of_one_term_share_its_id_through_their_own_memo_entries() {
        let p = PreprocessPipeline::new();
        let mut vocabulary = Vocabulary::new();
        let mut s = Scratch::default();
        p.scan_tf("Peer PEER peer's Peer peer's", &mut s, |term| {
            vocabulary.get_or_insert(term)
        });
        let id = vocabulary.id_of("peer").expect("the stem of all three");
        assert_eq!(vocabulary.len(), 1);
        assert_eq!(s.tf, [(id, 5.0)]);
        assert_eq!(s.memo.len(), 3);
        for raw in ["Peer", "PEER", "peer's"] {
            assert_eq!(s.memo[raw], Some(id), "{raw}");
        }
    }

    #[test]
    fn fit_one_per_document_equals_one_fit_over_all() {
        let mut fitted = PreprocessPipeline::new();
        fitted.fit_transform(DOCS);
        let mut by_hand = PreprocessPipeline::new();
        for doc in DOCS {
            by_hand.observe([doc], |_| {});
        }
        by_hand.vocabulary.freeze();
        // The memo is call-local: sharing it across documents or not, same state.
        assert_same_vocabulary(fitted.vocabulary(), by_hand.vocabulary(), "per document");
        assert_eq!(fitted.transform(DOCS[0]), by_hand.transform(DOCS[0]));
    }

    #[test]
    fn transform_matches_unsorted_reference_and_is_deterministic() {
        // Regression for the BTreeMap conversion of the vocabulary count
        // maps: the sorted construction path must produce exactly the
        // vector the sort-and-merge `from_pairs` reference builds, and
        // repeated transforms must be bit-identical (hash order used to be
        // the only thing standing between this and nondeterminism).
        let mut p = PreprocessPipeline::new();
        p.fit(DOCS);
        for doc in DOCS {
            let v = p.transform(doc);
            let counts = p
                .vocabulary
                .count_tokens(p.terms(doc).iter().map(String::as_str));
            let mut reference = SparseVector::from_pairs(counts.iter().map(|(&id, &tf)| {
                let tf = tf as f64;
                (id, tf * p.vocabulary.idf(id))
            }));
            reference.l2_normalize();
            assert_eq!(v, reference);
            let again = p.transform(doc);
            assert_eq!(v.indices(), again.indices());
            assert!(v
                .values()
                .iter()
                .zip(again.values())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            // Indices come out strictly ascending (the BTreeMap guarantee
            // the sorted constructor relies on).
            assert!(v.indices().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn fit_transform_produces_nonempty_vectors() {
        let mut p = PreprocessPipeline::new();
        let vs = p.fit_transform(DOCS);
        assert_eq!(vs.len(), 3);
        for v in &vs {
            assert!(v.nnz() > 0);
            assert!((v.norm() - 1.0).abs() < 1e-9, "L2 normalized by default");
        }
        assert!(p.lexicon_size() > 10);
    }

    #[test]
    fn stop_words_never_reach_the_vocabulary() {
        let mut p = PreprocessPipeline::new();
        p.fit(DOCS.iter().copied());
        assert!(p.vocabulary().id_of("the").is_none());
        assert!(p.vocabulary().id_of("to").is_none());
    }

    #[test]
    fn stemming_merges_inflected_forms() {
        let mut p = PreprocessPipeline::new();
        p.fit(DOCS.iter().copied());
        // "documents" and "document" should map to the same stem id.
        let v = p.vocabulary();
        assert!(v.id_of("document").is_some());
        assert!(v.id_of("documents").is_none());
    }

    #[test]
    fn sensitive_words_are_removed() {
        let mut p = PreprocessPipeline::new();
        p.stop_words_mut().add_sensitive_word("classification");
        p.fit(DOCS.iter().copied());
        assert!(p.vocabulary().id_of("classif").is_none());
    }

    #[test]
    fn unknown_words_are_ignored_at_transform_time() {
        let mut p = PreprocessPipeline::new();
        p.fit(DOCS.iter().copied());
        let v = p.transform("zzzz qqqq totally unseen words");
        // Only "words" overlaps (stemmed "word" is not in corpus) — vector may be empty.
        assert!(v.nnz() <= 2);
    }

    #[test]
    fn tfidf_downweights_ubiquitous_terms() {
        let mut p = PreprocessPipeline::new();
        let corpus = [
            "shared term alpha",
            "shared term beta",
            "shared term gamma",
            "shared unique delta",
        ];
        p.fit(corpus.iter().copied());
        let v = p.transform("shared unique");
        let shared = p.vocabulary().id_of("share").unwrap();
        let unique = p.vocabulary().id_of("uniqu").unwrap();
        // Both terms occur once, so L2 scales them alike: the ratio is the idfs'.
        let ratio = v.get(unique) / v.get(shared);
        let idf = |id| p.vocabulary().idf(id);
        assert!(ratio > 1.0, "{ratio}");
        assert!((ratio - idf(unique) / idf(shared)).abs() < 1e-12, "{ratio}");
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }
}
