//! # textproc — document preprocessing for P2PDocTagger
//!
//! This crate implements the "Document preprocessing" stage of the P2PDocTagger
//! pipeline (Figure 1 of the paper):
//!
//! 1. **Tokenization** of raw text into lower-cased word tokens
//!    ([`tokenizer::Tokenizer`]).
//! 2. **Stop-word and sensitive-word filtering** — words with little recognition
//!    value (a, for, and, not, …) as well as user-specified sensitive words are
//!    removed ([`stopwords::StopWordFilter`]).
//! 3. **Porter stemming** — words are normalized to remove the commoner
//!    morphological and inflexional endings ([`porter::PorterStemmer`]).
//! 4. **Vectorization** — documents are represented as multidimensional sparse
//!    feature vectors, where the attribute id is the word id and the value is a
//!    weight derived from the word frequency in the document
//!    ([`vectorizer::PreprocessPipeline`], [`sparse::SparseVector`]).
//!
//! The resulting vectors intentionally discard word order and the original
//! surface forms; as the paper argues, only word ids and frequencies are ever
//! shared with other peers, which limits what can be reconstructed from them.
//!
//! ## Quick example
//!
//! ```
//! use textproc::prelude::*;
//!
//! let docs = [
//!     "Peer to peer networks share resources among autonomous peers.",
//!     "Support vector machines learn a classification model from training data.",
//! ];
//! let mut pipeline = PreprocessPipeline::builder()
//!     .weighting(Weighting::TfIdf)
//!     .build();
//! let vectors = pipeline.fit_transform(docs.iter().copied());
//! assert_eq!(vectors.len(), 2);
//! assert!(vectors[0].nnz() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csr;
pub mod porter;
pub mod sparse;
pub mod stopwords;
pub mod tokenizer;
pub mod vectorizer;
pub mod vocabulary;

/// Convenient re-exports of the most commonly used preprocessing types.
pub mod prelude {
    pub use crate::csr::CsrMatrix;
    pub use crate::porter::PorterStemmer;
    pub use crate::sparse::SparseVector;
    pub use crate::stopwords::StopWordFilter;
    pub use crate::tokenizer::Tokenizer;
    pub use crate::vectorizer::{PreprocessPipeline, PreprocessPipelineBuilder, Weighting};
    pub use crate::vocabulary::Vocabulary;
}

pub use csr::CsrMatrix;
pub use porter::PorterStemmer;
pub use sparse::{SparseVector, StorageKey};
pub use stopwords::StopWordFilter;
pub use tokenizer::Tokenizer;
pub use vectorizer::{PreprocessPipeline, PreprocessPipelineBuilder, Weighting};
pub use vocabulary::Vocabulary;
