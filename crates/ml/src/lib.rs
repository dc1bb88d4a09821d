//! # ml — machine-learning substrate for P2PDocTagger
//!
//! P2PDocTagger poses automated tagging as classification (§2 of the paper):
//! a function `f : X → Y` mapping document vectors to tag sets is learned from
//! tagged examples. The multi-label problem is reduced to many one-vs-all
//! binary problems, each solved with an SVM. The two P2P classification
//! protocols the system plugs in are built from the primitives in this crate:
//!
//! * **CEMPaR** needs non-linear (kernel) SVMs and the *cascade SVM* merge of
//!   peer-local models ([`svm::KernelSvm`], [`cascade`]).
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
//! optional weight quantization, guarded top-k pruning) lives in [`codec`].
//!
//! ```
//! use ml::prelude::*;
//! use textproc::SparseVector;
//!
//! // A linearly separable toy problem.
//! let xs = vec![
//!     SparseVector::from_pairs([(0u32, 1.0), (1, 1.0)]),
//!     SparseVector::from_pairs([(0u32, -1.0), (1, -1.0)]),
//! ];
//! let ys = vec![true, false];
//! let model = LinearSvmTrainer::default().train(&xs, &ys);
//! assert!(model.predict(&xs[0]));
//! assert!(!model.predict(&xs[1]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cascade;
pub mod codec;
pub mod data;
mod distinct;
pub mod kernel;
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
    pub use crate::kernel::Kernel;
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
pub use kernel::Kernel;
pub use metrics::{BinaryMetrics, GroupedMetrics, HeadTailSplit, MultiLabelMetrics};
pub use multilabel::{OneVsAllModel, OneVsAllTrainer, TagPrediction};
pub use svm::{BinaryClassifier, KernelSvm, KernelSvmTrainer, LinearSvm, LinearSvmTrainer};
