//! The document library: browse, search and filter tagged documents.
//!
//! Mirrors the "Library" navigation component of the demo UI, "where all
//! tagged documents are tracked to allow users to browse or search documents
//! using tags" (§3).

use dataset::DocumentId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How a document's tags were produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TagSource {
    /// Entered by the user (manual tagging or the initial training set).
    Manual,
    /// Assigned by the automated tagger.
    Automatic,
    /// Corrected by the user after automatic tagging.
    Refined,
}

/// One library record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibraryEntry {
    /// The document.
    pub doc: DocumentId,
    /// The owning user/peer.
    pub user: usize,
    /// Current tags (names).
    pub tags: BTreeSet<String>,
    /// Provenance of the current tag set.
    pub source: TagSource,
}

/// The tagged-document library.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DocumentLibrary {
    entries: BTreeMap<DocumentId, LibraryEntry>,
}

impl DocumentLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked documents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records (or replaces) the tags of a document.
    pub fn assign(
        &mut self,
        doc: DocumentId,
        user: usize,
        tags: BTreeSet<String>,
        source: TagSource,
    ) {
        self.entries.insert(
            doc,
            LibraryEntry {
                doc,
                user,
                tags,
                source,
            },
        );
    }

    /// The entry for a document, if tracked.
    pub fn entry(&self, doc: DocumentId) -> Option<&LibraryEntry> {
        self.entries.get(&doc)
    }

    /// The current tags of a document (empty set when untracked).
    pub fn tags_of(&self, doc: DocumentId) -> BTreeSet<String> {
        self.entries
            .get(&doc)
            .map(|e| e.tags.clone())
            .unwrap_or_default()
    }

    /// Iterates over all entries, ordered by document id.
    pub fn iter(&self) -> impl Iterator<Item = &LibraryEntry> {
        self.entries.values()
    }

    /// Documents carrying the given tag.
    pub fn search(&self, tag: &str) -> Vec<DocumentId> {
        self.entries
            .values()
            .filter(|e| e.tags.contains(tag))
            .map(|e| e.doc)
            .collect()
    }

    /// Documents carrying **all** of the given tags (AND filter).
    pub fn filter_all(&self, tags: &[&str]) -> Vec<DocumentId> {
        self.entries
            .values()
            .filter(|e| tags.iter().all(|t| e.tags.contains(*t)))
            .map(|e| e.doc)
            .collect()
    }

    /// Documents carrying **any** of the given tags (OR filter).
    pub fn filter_any(&self, tags: &[&str]) -> Vec<DocumentId> {
        self.entries
            .values()
            .filter(|e| tags.iter().any(|t| e.tags.contains(*t)))
            .map(|e| e.doc)
            .collect()
    }

    /// All tags with the number of documents carrying each.
    pub fn tag_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for e in self.entries.values() {
            for t in &e.tags {
                *out.entry(t.clone()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Number of documents whose tags came from the automated tagger.
    pub fn auto_tagged_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.source == TagSource::Automatic)
            .count()
    }

    /// Number of documents whose tags were refined by the user.
    #[cfg(test)]
    pub fn refined_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.source == TagSource::Refined)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn sample_library() -> DocumentLibrary {
        let mut lib = DocumentLibrary::new();
        lib.assign(0, 0, tags(&["rust", "programming"]), TagSource::Manual);
        lib.assign(1, 0, tags(&["rust", "web"]), TagSource::Automatic);
        lib.assign(2, 1, tags(&["music"]), TagSource::Automatic);
        lib.assign(3, 1, tags(&["music", "web"]), TagSource::Refined);
        lib
    }

    #[test]
    fn search_by_tag() {
        let lib = sample_library();
        assert_eq!(lib.search("rust"), vec![0, 1]);
        assert_eq!(lib.search("music"), vec![2, 3]);
        assert!(lib.search("unknown").is_empty());
    }

    #[test]
    fn and_or_filters() {
        let lib = sample_library();
        assert_eq!(lib.filter_all(&["rust", "web"]), vec![1]);
        assert_eq!(lib.filter_any(&["programming", "music"]), vec![0, 2, 3]);
        assert_eq!(lib.filter_all(&[]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tag_counts() {
        let lib = sample_library();
        let counts = lib.tag_counts();
        assert_eq!(counts["rust"], 2);
        assert_eq!(counts["web"], 2);
        assert_eq!(counts["programming"], 1);
    }

    #[test]
    fn provenance_counts() {
        let lib = sample_library();
        assert_eq!(lib.auto_tagged_count(), 2);
        assert_eq!(lib.refined_count(), 1);
        assert_eq!(lib.len(), 4);
    }

    #[test]
    fn reassignment_replaces_tags() {
        let mut lib = sample_library();
        lib.assign(1, 0, tags(&["database"]), TagSource::Refined);
        assert_eq!(lib.tags_of(1), tags(&["database"]));
        assert_eq!(lib.len(), 4);
        assert!(lib.search("web").contains(&3));
        assert!(!lib.search("web").contains(&1));
    }

    #[test]
    fn untracked_document_has_no_tags() {
        let lib = sample_library();
        assert!(lib.tags_of(99).is_empty());
        assert!(lib.entry(99).is_none());
    }
}
