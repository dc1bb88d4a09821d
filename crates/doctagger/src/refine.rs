//! Tag-refinement bookkeeping.
//!
//! "On the discovery of mismatched tags on documents, users can use the tagging
//! interface to modify the assigned tags … Upon the refinement of tags,
//! P2PDocTagger will automatically update the classification model(s) in the
//! back-end, to adapt to their personal preference for future tagging" (§2).
//! The model update itself is performed by the protocol's `refine` method; this
//! module records the corrections so the system (and the refinement experiment
//! E8) can reason about how much user effort was spent and what changed.

use dataset::DocumentId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One user correction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Refinement {
    /// The corrected document.
    pub doc: DocumentId,
    /// The peer/user that made the correction.
    pub user: usize,
    /// Tags before the correction (as assigned automatically).
    pub before: BTreeSet<String>,
    /// Tags after the correction.
    pub after: BTreeSet<String>,
}

impl Refinement {
    /// Tags the user added.
    pub fn added(&self) -> BTreeSet<String> {
        self.after.difference(&self.before).cloned().collect()
    }

    /// Tags the user removed.
    pub fn removed(&self) -> BTreeSet<String> {
        self.before.difference(&self.after).cloned().collect()
    }
}

/// The record of all corrections made in a session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RefinementLog {
    refinements: Vec<Refinement>,
}

impl RefinementLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a correction.
    pub fn record(&mut self, refinement: Refinement) {
        self.refinements.push(refinement);
    }

    /// Number of recorded corrections (including no-ops).
    pub fn len(&self) -> usize {
        self.refinements.len()
    }

    /// Whether no corrections were recorded.
    pub fn is_empty(&self) -> bool {
        self.refinements.is_empty()
    }

    /// All corrections, in order.
    pub fn iter(&self) -> impl Iterator<Item = &Refinement> {
        self.refinements.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn added_and_removed() {
        let r = Refinement {
            doc: 1,
            user: 0,
            before: tags(&["rust", "web"]),
            after: tags(&["rust", "database"]),
        };
        assert_eq!(r.added(), tags(&["database"]));
        assert_eq!(r.removed(), tags(&["web"]));
    }

    #[test]
    fn noop_detection() {
        let r = Refinement {
            doc: 1,
            user: 0,
            before: tags(&["a"]),
            after: tags(&["a"]),
        };
        assert!(r.added().is_empty() && r.removed().is_empty());
    }

    #[test]
    fn log_aggregates() {
        let mut log = RefinementLog::new();
        log.record(Refinement {
            doc: 1,
            user: 0,
            before: tags(&["a"]),
            after: tags(&["a", "b"]),
        });
        log.record(Refinement {
            doc: 2,
            user: 1,
            before: tags(&["c"]),
            after: tags(&["c"]),
        });
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }
}
