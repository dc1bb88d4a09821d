//! # ml — machine-learning substrate for P2PDocTagger
//!
//! P2PDocTagger poses automated tagging as classification (§2 of the paper):
//! a function `f : X → Y` mapping document vectors to tag sets is learned from
//! tagged examples. The multi-label problem is reduced to many one-vs-all
//! binary problems, each solved with an SVM. The two P2P classification
//! protocols the system plugs in are built from the primitives in this crate:
//!
//! * **CEMPaR** needs dual-form (kernel) SVMs, whose support vectors are what
//!   travels, and the *cascade SVM* merge of peer-local models
//!   ([`svm::KernelSvm`], [`cascade`]). The kernel is the dot product.
//! * **PACE** needs linear SVMs, k-means cluster centroids of the local data
//!   and a locality-sensitive-hashing index over model centroids
//!   ([`svm::LinearSvm`], [`kmeans`], [`lsh`]).
//!
//! Evaluation metrics for both single-label and multi-label predictions live in
//! [`metrics`]; the one-vs-all multi-label reduction lives in [`multilabel`].
//! The batched scoring engine — CSR-packed per-tag linear models and
//! shared-kernel-row scoring, bit-for-bit identical to the scalar per-tag
//! loops — lives in [`batch`]. The binary wire codec every propagated model,
//! example and prediction payload travels through (delta-varint indices,
//! lossless `f64` value blocks) lives in [`codec`].
//!
//! ```
//! use ml::prelude::*;
//! use textproc::SparseVector;
//!
//! // A linearly separable toy problem: tag 0 on one side, tag 1 on the other.
//! let xs = [
//!     SparseVector::from_pairs([(0u32, 1.0), (1, 1.0)]),
//!     SparseVector::from_pairs([(0u32, -1.0), (1, -1.0)]),
//! ];
//! let data = MultiLabelDataset::from_examples(vec![
//!     MultiLabelExample::new(xs[0].clone(), [0]),
//!     MultiLabelExample::new(xs[1].clone(), [1]),
//! ]);
//! let model = OneVsAllTrainer::default().train_linear_csr(&data, &LinearSvmTrainer::default());
//! let tag0 = model.classifier(0).unwrap();
//! assert!(tag0.predict(&xs[0]));
//! assert!(!tag0.predict(&xs[1]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cascade;
pub mod codec;
pub mod data;
mod distinct;
mod kernel;
pub mod kmeans;
pub mod lsh;
pub mod metrics;
pub mod multilabel;
pub mod svm;

/// Common re-exports.
pub mod prelude {
    pub use crate::batch::{BatchKernelScorer, TagWeightMatrix};
    pub use crate::cascade::{CascadeConfig, CascadeSvm};
    pub use crate::data::{MultiLabelDataset, MultiLabelExample, TagId};
    pub use crate::kmeans::{KMeans, KMeansConfig};
    pub use crate::lsh::{LshConfig, LshIndex};
    pub use crate::metrics::{BinaryMetrics, GroupedMetrics, HeadTailSplit, MultiLabelMetrics};
    pub use crate::multilabel::{OneVsAllModel, OneVsAllTrainer, TagPrediction};
    pub use crate::svm::{
        BinaryClassifier, KernelSvm, KernelSvmTrainer, LinearSvm, LinearSvmTrainer,
    };
}

pub use batch::{BatchKernelScorer, TagWeightMatrix};
pub use codec::{ByteReader, CodecError, WeightPrecision};
pub use data::{MultiLabelDataset, MultiLabelExample, TagId};
pub use metrics::{BinaryMetrics, GroupedMetrics, HeadTailSplit, MultiLabelMetrics};
pub use multilabel::{OneVsAllModel, OneVsAllTrainer, TagPrediction};
pub use svm::{BinaryClassifier, KernelSvm, KernelSvmTrainer, LinearSvm, LinearSvmTrainer};
