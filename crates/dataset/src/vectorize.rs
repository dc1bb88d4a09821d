//! Bridging the raw corpus to the learning layer.
//!
//! Runs the full preprocessing pipeline (Figure 1: tokenize → stop words →
//! Porter stemming → TF-IDF sparse vectors) over a corpus and packages the
//! result as [`ml::MultiLabelExample`]s keyed by document id, ready to be
//! distributed over peers.

use crate::corpus::{Corpus, DocumentId};
use crate::split::TrainTestSplit;
use ml::{MultiLabelDataset, MultiLabelExample};
use std::collections::BTreeSet;
use textproc::{PreprocessPipeline, SparseVector, Weighting};

/// A corpus whose documents have been vectorized with a shared vocabulary.
#[derive(Debug, Clone)]
pub struct VectorizedCorpus {
    vectors: Vec<SparseVector>,
    tags: Vec<BTreeSet<u32>>,
    pipeline: PreprocessPipeline,
}

impl VectorizedCorpus {
    /// Vectorizes every document of `corpus` with a TF-IDF pipeline fitted on
    /// the whole corpus (the shared lexicon all peers agree on).
    pub fn build(corpus: &Corpus) -> Self {
        Self::build_with_weighting(corpus, Weighting::TfIdf)
    }

    /// Vectorizes with an explicit weighting scheme.
    pub fn build_with_weighting(corpus: &Corpus, weighting: Weighting) -> Self {
        let mut pipeline = PreprocessPipeline::builder().weighting(weighting).build();
        let texts: Vec<&str> = corpus.documents().iter().map(|d| d.text.as_str()).collect();
        let vectors = pipeline.fit_transform(texts.iter().copied());
        let tags = corpus
            .documents()
            .iter()
            .map(|d| corpus.tag_ids_of(d.id))
            .collect();
        Self {
            vectors,
            tags,
            pipeline,
        }
    }

    /// The fitted preprocessing pipeline (shared lexicon).
    pub fn pipeline(&self) -> &PreprocessPipeline {
        &self.pipeline
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Size of the fitted lexicon.
    pub fn lexicon_size(&self) -> usize {
        self.pipeline.lexicon_size()
    }

    /// The sparse vector of a document.
    pub fn vector(&self, doc: DocumentId) -> &SparseVector {
        &self.vectors[doc]
    }

    /// The tag-id set of a document.
    pub fn tags(&self, doc: DocumentId) -> &BTreeSet<u32> {
        &self.tags[doc]
    }

    /// A labeled example for a document. The example's vector **shares
    /// storage** with this corpus (`SparseVector` clones are reference-count
    /// bumps), so building per-peer datasets from a vectorized corpus — the
    /// doctagger ingest/learn path — never copies the underlying entries.
    pub fn example(&self, doc: DocumentId) -> MultiLabelExample {
        MultiLabelExample::new(self.vectors[doc].clone(), self.tags[doc].iter().copied())
    }

    /// A labeled dataset over the given documents (e.g. a peer's local
    /// training data or the train side of a split).
    pub fn dataset_of(&self, docs: &[DocumentId]) -> MultiLabelDataset {
        docs.iter().map(|&d| self.example(d)).collect()
    }

    /// Convenience: the train and test datasets of a split.
    pub fn split_datasets(&self, split: &TrainTestSplit) -> (MultiLabelDataset, MultiLabelDataset) {
        (self.dataset_of(&split.train), self.dataset_of(&split.test))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusGenerator, CorpusSpec};

    fn vectorized() -> (Corpus, VectorizedCorpus) {
        let corpus = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        let v = VectorizedCorpus::build(&corpus);
        (corpus, v)
    }

    #[test]
    fn every_document_gets_a_nonempty_vector() {
        let (corpus, v) = vectorized();
        assert_eq!(v.len(), corpus.len());
        assert!(v.lexicon_size() > 50);
        for d in 0..v.len() {
            assert!(v.vector(d).nnz() > 0, "document {d} has an empty vector");
            assert!(!v.tags(d).is_empty());
        }
    }

    #[test]
    fn build_is_unchanged_against_the_two_pass_oracle() {
        // The composition `VectorizedCorpus::build` ran before the one-pass
        // ingest: public tokenizer, filter, stemmer and vocabulary counters,
        // twice over the corpus. Lexicon, statistics and every vector must
        // agree with it bit for bit, and the tags with the corpus.
        use textproc::{PorterStemmer, StopWordFilter, Tokenizer, Vocabulary};
        let (corpus, v) = vectorized();
        let (tokenizer, filter) = (Tokenizer::default(), StopWordFilter::english());
        let terms = |text: &str| {
            let mut terms = filter.filter(tokenizer.tokenize(text));
            PorterStemmer::new().stem_all(&mut terms);
            terms
        };
        let mut vocabulary = Vocabulary::new();
        for d in corpus.documents() {
            vocabulary.observe_document(terms(&d.text).iter().map(String::as_str));
        }
        let fitted = v.pipeline().vocabulary();
        assert_eq!(fitted.num_docs(), vocabulary.num_docs());
        assert!(fitted.iter().eq(vocabulary.iter()), "lexicon differs");
        for (_, id) in fitted.iter() {
            assert_eq!(fitted.doc_freq(id), vocabulary.doc_freq(id));
        }
        for d in corpus.documents() {
            let counts = vocabulary.count_tokens(terms(&d.text).iter().map(String::as_str));
            let mut want = SparseVector::from_sorted_pairs(
                counts
                    .iter()
                    .map(|(&id, &tf)| (id, f64::from(tf) * vocabulary.idf(id))),
            );
            want.l2_normalize();
            let got = v.vector(d.id);
            assert_eq!(got.indices(), want.indices(), "document {}", d.id);
            let bits =
                |v: &SparseVector| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "document {}", d.id);
            assert_eq!(*v.tags(d.id), corpus.tag_ids_of(d.id));
        }
    }

    #[test]
    fn examples_carry_the_right_tags() {
        let (corpus, v) = vectorized();
        for d in corpus.documents().iter().take(20) {
            let ex = v.example(d.id);
            assert_eq!(ex.tags, corpus.tag_ids_of(d.id));
        }
    }

    #[test]
    fn examples_share_vector_storage_with_the_corpus() {
        let (_, v) = vectorized();
        for d in 0..v.len().min(10) {
            assert!(
                v.example(d).vector.shares_storage_with(v.vector(d)),
                "example {d} copied its vector instead of sharing it"
            );
        }
    }

    #[test]
    fn split_datasets_partition_the_corpus() {
        let (corpus, v) = vectorized();
        let split = TrainTestSplit::demo_protocol(&corpus, 5);
        let (train, test) = v.split_datasets(&split);
        assert_eq!(train.len() + test.len(), corpus.len());
        assert!(train.len() < test.len());
    }

    #[test]
    fn documents_with_same_tag_are_more_similar() {
        // The generative model must make tags learnable: same-tag documents
        // should on average be closer (cosine) than different-tag documents.
        let (corpus, v) = vectorized();
        let docs = corpus.documents();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in (0..docs.len()).step_by(7) {
            for j in (i + 1..docs.len()).step_by(11) {
                let sim = v.vector(i).cosine(v.vector(j));
                if docs[i].tags.intersection(&docs[j].tags).next().is_some() {
                    same.push(sim);
                } else {
                    diff.push(sim);
                }
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        assert!(
            mean(&same) > mean(&diff) + 0.05,
            "same {} diff {}",
            mean(&same),
            mean(&diff)
        );
    }
}
