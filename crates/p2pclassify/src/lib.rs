//! # p2pclassify — P2P classification protocols for automated tagging
//!
//! P2PDocTagger treats the P2P classification algorithm as "a pluggable
//! component" (§2). This crate provides the two protocols the paper deploys,
//! plus the baselines the claims are measured against:
//!
//! * [`cempar::Cempar`] — **CEMPaR** (Ang et al., ECML/PKDD 2009):
//!   cascade-SVM classification over a DHT. Every peer trains a non-linear SVM
//!   per tag on its local data and propagates the support vectors *once* to a
//!   deterministically located super-peer; super-peers cascade the local models
//!   into regional models; untagged documents are sent to the super-peers,
//!   whose regional models vote (weighted majority) on the tags.
//! * [`pace::Pace`] — **PACE** (Ang et al., DASFAA 2010): an adaptive ensemble
//!   of linear SVMs. Every peer trains a linear SVM per tag plus k-means
//!   centroids of its local data and propagates models + centroids to all
//!   peers; receivers index models by centroid with LSH and, at prediction
//!   time, let the top-k nearest models vote, weighted by their accuracy and
//!   distance to the test document.
//! * [`centralized::Centralized`] — the centralized upper bound / anti-pattern:
//!   all raw training vectors are shipped to one server peer which trains a
//!   single model; queries go to the server (single point of failure).
//! * [`local::LocalOnly`] — the no-collaboration lower bound: each peer learns
//!   from its own few tagged documents only.
//!
//! All protocols implement [`protocol::P2PTagClassifier`] and run on the
//! [`p2psim::P2PNetwork`] facade so that every byte they exchange is accounted
//! and churn affects them realistically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cempar;
pub mod centralized;
pub mod error;
pub mod local;
pub mod pace;
pub mod protocol;
pub mod reliable;
pub mod sansio;
pub mod wire;

/// Common re-exports.
pub mod prelude {
    pub use crate::cempar::{Cempar, CemparConfig};
    pub use crate::centralized::{Centralized, CentralizedConfig};
    pub use crate::error::ProtocolError;
    pub use crate::local::LocalOnly;
    pub use crate::pace::{Pace, PaceConfig};
    pub use crate::protocol::{P2PTagClassifier, PeerDataMap};
    pub use crate::reliable::{LinkStats, ReliableLink};
    pub use crate::wire::ReliabilityConfig;
}

pub use cempar::{Cempar, CemparConfig};
pub use centralized::{Centralized, CentralizedConfig};
pub use error::ProtocolError;
pub use local::LocalOnly;
pub use pace::{Pace, PaceConfig};
pub use protocol::{P2PTagClassifier, PeerDataMap};
pub use reliable::{LinkStats, ReliableLink};
pub use wire::ReliabilityConfig;
