//! The end-to-end preprocessing pipeline: tokenize → filter → stem → vectorize.
//!
//! Mirrors the "Document preprocessing" box of Figure 1: the output of the
//! pipeline is the sparse bag-of-words vector that is the only document
//! representation ever handled by the learning and P2P layers.

use crate::porter::PorterStemmer;
use crate::sparse::SparseVector;
use crate::stopwords::StopWordFilter;
use crate::tokenizer::Tokenizer;
use crate::vocabulary::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Term weighting schemes for document vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Weighting {
    /// Raw term frequency (the paper's "value of the attributes represents the
    /// word frequency in the documents").
    Tf,
    /// Term frequency scaled by smoothed inverse document frequency.
    #[default]
    TfIdf,
    /// 1.0 if the word occurs, 0.0 otherwise.
    Binary,
    /// `1 + ln(tf)` sub-linear term frequency.
    LogTf,
}

/// Builder for [`PreprocessPipeline`].
#[derive(Debug, Clone, Default)]
pub struct PreprocessPipelineBuilder {
    tokenizer: Tokenizer,
    stop_words: Option<StopWordFilter>,
    weighting: Weighting,
    l2_normalize: bool,
    stemming: bool,
}

impl PreprocessPipelineBuilder {
    /// Creates a builder with default components (English stop words, Porter
    /// stemming, TF-IDF weighting, L2 normalization).
    pub fn new() -> Self {
        Self {
            tokenizer: Tokenizer::default(),
            stop_words: None,
            weighting: Weighting::TfIdf,
            l2_normalize: true,
            stemming: true,
        }
    }

    /// Overrides the tokenizer.
    pub fn tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Overrides the stop-word / sensitive-word filter.
    pub fn stop_words(mut self, filter: StopWordFilter) -> Self {
        self.stop_words = Some(filter);
        self
    }

    /// Selects the term weighting scheme.
    pub fn weighting(mut self, weighting: Weighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Enables or disables L2 normalization of the final vectors.
    pub fn l2_normalize(mut self, enabled: bool) -> Self {
        self.l2_normalize = enabled;
        self
    }

    /// Enables or disables Porter stemming.
    pub fn stemming(mut self, enabled: bool) -> Self {
        self.stemming = enabled;
        self
    }

    /// Builds the pipeline.
    pub fn build(self) -> PreprocessPipeline {
        PreprocessPipeline {
            tokenizer: self.tokenizer,
            stop_words: self.stop_words.unwrap_or_default(),
            stemmer: PorterStemmer::new(),
            vocabulary: Vocabulary::new(),
            weighting: self.weighting,
            l2_normalize: self.l2_normalize,
            stemming: self.stemming,
        }
    }
}

/// Complete preprocessing pipeline producing sparse document vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreprocessPipeline {
    tokenizer: Tokenizer,
    stop_words: StopWordFilter,
    stemmer: PorterStemmer,
    vocabulary: Vocabulary,
    weighting: Weighting,
    l2_normalize: bool,
    stemming: bool,
}

/// Call-local scratch of the scanner: reused run and stem buffers, the memo
/// from each distinct scanned run to its term id (`None`: dropped or unknown;
/// lookup-only, never iterated) and the current document's `(id, tf)` pairs.
#[derive(Default)]
struct Scratch {
    run: String,
    stem: Vec<u8>,
    memo: HashMap<String, Option<u32>>,
    tf: Vec<(u32, f64)>,
}

impl Default for PreprocessPipeline {
    fn default() -> Self {
        PreprocessPipelineBuilder::new().build()
    }
}

impl PreprocessPipeline {
    /// Creates a pipeline with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a builder for customizing the pipeline.
    pub fn builder() -> PreprocessPipelineBuilder {
        PreprocessPipelineBuilder::new()
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The configured weighting scheme.
    pub fn weighting(&self) -> Weighting {
        self.weighting
    }

    /// Mutable access to the stop-word / sensitive-word filter, e.g. for
    /// registering user-specified sensitive words before fitting.
    pub fn stop_words_mut(&mut self) -> &mut StopWordFilter {
        &mut self.stop_words
    }

    /// Tokenizes, filters and stems a raw document into processed terms.
    pub fn terms(&self, text: &str) -> Vec<String> {
        let (mut terms, mut stem) = (Vec::new(), Vec::new());
        self.tokenizer.scan(text, &mut String::new(), |run| {
            terms.extend(self.term_of(run, &mut stem).map(str::to_string));
        });
        terms
    }

    /// The processed term of one scanned run (token rules, stop- and sensitive-
    /// word filter, Porter stem into the reused `stem`); `None` when dropped.
    fn term_of<'a>(&self, run: &'a str, stem: &'a mut Vec<u8>) -> Option<&'a str> {
        let kept = self.tokenizer.keeps(run) && !self.stop_words.is_filtered(run);
        kept.then(|| match self.stemming {
            true => self.stemmer.stem_into(run, stem),
            false => run,
        })
    }

    /// Scans `text` once, leaving its terms' `(id, tf)` pairs, ascending by id,
    /// in `s.tf`. [`Self::term_of`] and `id_of` (term to id) run once per
    /// *distinct run* of the call, later occurrences being one memo probe; an
    /// inserting `id_of` still hands out ids in first-seen order, since a
    /// term's first occurrence is the first occurrence of its run.
    fn scan_tf(&self, text: &str, s: &mut Scratch, mut id_of: impl FnMut(&str) -> Option<u32>) {
        s.tf.clear();
        self.tokenizer.scan(text, &mut s.run, |run| {
            let id = s.memo.get(run).copied().unwrap_or_else(|| {
                let id = self.term_of(run, &mut s.stem).and_then(&mut id_of);
                s.memo.insert(run.to_string(), id);
                id
            });
            s.tf.extend(id.map(|id| (id, 1.0)));
        });
        s.tf.sort_unstable_by_key(|&(id, _)| id);
        // Run-length count: a repeat is folded into the first pair of its id.
        s.tf.dedup_by(|next, kept| (next.0 == kept.0).then(|| kept.1 += next.1).is_some());
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

    /// Observes a document, growing the vocabulary (fit step). Returns nothing;
    /// use [`Self::transform`] afterwards, or [`Self::fit_transform`] for both.
    pub fn fit_one(&mut self, text: &str) {
        self.observe([text], |_| {});
    }

    /// Fits the vocabulary on a corpus and freezes it.
    pub fn fit<'a, I>(&mut self, docs: I)
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.observe(docs, |_| {});
        self.vocabulary.freeze();
    }

    /// Turns a term-frequency vector into the configured weighting, in place.
    fn reweight(&self, v: &mut SparseVector, idf: impl Fn(u32) -> f64) {
        match self.weighting {
            Weighting::Tf => {}
            Weighting::Binary => v.map_values(|_, _| 1.0),
            Weighting::LogTf => v.map_values(|_, tf| 1.0 + tf.ln()),
            Weighting::TfIdf => v.map_values(|id, tf| tf * idf(id)),
        }
        if self.l2_normalize {
            v.l2_normalize();
        }
    }

    /// The idf of every word id, computed once for a batch.
    fn idf_table(&self) -> Vec<f64> {
        let ids = 0..self.vocabulary.len() as u32;
        ids.map(|id| self.vocabulary.idf(id)).collect()
    }

    /// Scans one document against the fitted vocabulary and weights it.
    fn vectorize(&self, text: &str, s: &mut Scratch, idf: impl Fn(u32) -> f64) -> SparseVector {
        self.scan_tf(text, s, |term| self.vocabulary.id_of(term));
        let mut v = SparseVector::from_sorted_pairs(s.tf.iter().copied());
        self.reweight(&mut v, idf);
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
        let vectorize = |doc: &&str| self.vectorize(doc, &mut s, |id| idf[id as usize]);
        docs.iter().map(vectorize).collect()
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
        let reweight = |v| self.reweight(v, |id| idf[id as usize]);
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
    fn oracle_terms(
        tokenizer: &Tokenizer,
        filter: &StopWordFilter,
        stemming: bool,
        text: &str,
    ) -> Vec<String> {
        let mut terms = filter.filter(tokenizer.tokenize(text));
        if stemming {
            PorterStemmer::new().stem_all(&mut terms);
        }
        terms
    }

    /// What `fit` + `transform` were before the one-pass scanner:
    /// [`oracle_terms`] and the public vocabulary counters, twice over the
    /// corpus. Kept as the oracle the scanner is held to.
    fn oracle(
        tokenizer: &Tokenizer,
        filter: &StopWordFilter,
        stemming: bool,
        weighting: Weighting,
        l2: bool,
        docs: &[&str],
    ) -> (Vocabulary, Vec<SparseVector>) {
        let terms = |text: &str| oracle_terms(tokenizer, filter, stemming, text);
        let mut vocabulary = Vocabulary::new();
        for doc in docs {
            vocabulary.observe_document(terms(doc).iter().map(String::as_str));
        }
        vocabulary.freeze();
        let vectors = docs
            .iter()
            .map(|doc| {
                let counts = vocabulary.count_tokens(terms(doc).iter().map(String::as_str));
                let mut v = SparseVector::from_sorted_pairs(counts.iter().map(|(&id, &tf)| {
                    let tf = tf as f64;
                    let w = match weighting {
                        Weighting::Tf => tf,
                        Weighting::Binary => 1.0,
                        Weighting::LogTf => 1.0 + tf.ln(),
                        Weighting::TfIdf => tf * vocabulary.idf(id),
                    };
                    (id, w)
                }));
                if l2 {
                    v.l2_normalize();
                }
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
        let tokenizers = [
            Tokenizer::default(),
            Tokenizer {
                lowercase: false,
                min_len: 1,
                max_len: 12,
                keep_numeric: true,
            },
        ];
        let weightings = [
            Weighting::Tf,
            Weighting::TfIdf,
            Weighting::Binary,
            Weighting::LogTf,
        ];
        for tokenizer in &tokenizers {
            for weighting in weightings {
                for (stemming, l2) in [(true, true), (true, false), (false, true), (false, false)] {
                    let what = format!("{tokenizer:?} {weighting:?} stem={stemming} l2={l2}");
                    let (vocabulary, want) =
                        oracle(tokenizer, &filter, stemming, weighting, l2, &docs);
                    let pipeline = || {
                        PreprocessPipeline::builder()
                            .tokenizer(tokenizer.clone())
                            .stop_words(filter.clone())
                            .weighting(weighting)
                            .stemming(stemming)
                            .l2_normalize(l2)
                            .build()
                    };

                    let mut one_pass = pipeline();
                    let got = one_pass.fit_transform(docs);
                    assert_same_vocabulary(one_pass.vocabulary(), &vocabulary, &what);
                    assert_bit_identical(&got, &want, &what);

                    let mut two_step = pipeline();
                    two_step.fit(docs);
                    assert_same_vocabulary(two_step.vocabulary(), &vocabulary, &what);
                    assert_bit_identical(&two_step.transform_batch(&docs), &want, &what);
                    let singly: Vec<_> = docs.iter().map(|d| two_step.transform(d)).collect();
                    assert_bit_identical(&singly, &want, &what);

                    for doc in docs {
                        let want = oracle_terms(tokenizer, &filter, stemming, doc);
                        assert_eq!(one_pass.terms(doc), want, "{what}: {doc:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn fit_one_per_document_equals_one_fit_over_all() {
        let mut fitted = PreprocessPipeline::new();
        fitted.fit_transform(DOCS);
        let mut by_hand = PreprocessPipeline::new();
        for doc in DOCS {
            by_hand.fit_one(doc);
        }
        by_hand.vocabulary.freeze();
        // The memo is call-local: sharing it across documents or not, same state.
        assert_same_vocabulary(fitted.vocabulary(), by_hand.vocabulary(), "fit_one");
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
    fn tf_weighting_counts_occurrences() {
        let mut p = PreprocessPipeline::builder()
            .weighting(Weighting::Tf)
            .l2_normalize(false)
            .build();
        p.fit(["peer peer peer network"]);
        let v = p.transform("peer peer network");
        let id = p.vocabulary().id_of("peer").unwrap();
        assert_eq!(v.get(id), 2.0);
    }

    #[test]
    fn binary_weighting_is_zero_or_one() {
        let mut p = PreprocessPipeline::builder()
            .weighting(Weighting::Binary)
            .l2_normalize(false)
            .build();
        p.fit(["alpha alpha beta"]);
        let v = p.transform("alpha alpha alpha beta");
        for (_, w) in v.iter() {
            assert_eq!(w, 1.0);
        }
    }

    #[test]
    fn tfidf_downweights_ubiquitous_terms() {
        let mut p = PreprocessPipeline::builder()
            .weighting(Weighting::TfIdf)
            .l2_normalize(false)
            .build();
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
        assert!(v.get(unique) > v.get(shared));
    }
}
