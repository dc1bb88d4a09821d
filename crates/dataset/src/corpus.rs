//! Corpus data structures: documents, tags, users.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a document within a corpus.
pub type DocumentId = usize;

/// Identifier of a user (a peer's human owner) within a corpus.
pub type UserId = usize;

/// A text document with its ground-truth tags and owning user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Dense id within the corpus.
    pub id: DocumentId,
    /// The owning user (documents never leave the user's peer as raw text).
    pub user: UserId,
    /// The raw text (what the preprocessing pipeline consumes).
    pub text: String,
    /// Ground-truth tag names, as assigned by the user.
    pub tags: BTreeSet<String>,
}

/// A collection of documents with a registry of tag names.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    documents: Vec<Document>,
    tag_names: Vec<String>,
    tag_ids: BTreeMap<String, u32>,
    num_users: usize,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a tag name and returns its dense id.
    pub fn intern_tag(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.tag_ids.get(name) {
            return id;
        }
        let id = self.tag_names.len() as u32;
        self.tag_names.push(name.to_string());
        self.tag_ids.insert(name.to_string(), id);
        id
    }

    /// The id of a tag name, if registered.
    pub fn tag_id(&self, name: &str) -> Option<u32> {
        self.tag_ids.get(name).copied()
    }

    /// The name of a tag id.
    pub fn tag_name(&self, id: u32) -> Option<&str> {
        self.tag_names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct tags.
    pub fn num_tags(&self) -> usize {
        self.tag_names.len()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Adds a document, interning its tags, and returns its id.
    pub fn push_document(
        &mut self,
        user: UserId,
        text: String,
        tags: BTreeSet<String>,
    ) -> DocumentId {
        let id = self.documents.len();
        for t in &tags {
            self.intern_tag(t);
        }
        self.num_users = self.num_users.max(user + 1);
        self.documents.push(Document {
            id,
            user,
            text,
            tags,
        });
        id
    }

    /// All documents, ordered by id.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// A document by id.
    pub fn document(&self, id: DocumentId) -> Option<&Document> {
        self.documents.get(id)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The tag-id set of a document.
    pub fn tag_ids_of(&self, id: DocumentId) -> BTreeSet<u32> {
        // Inserted one by one: a handful of ids goes straight into one leaf,
        // where `collect` would first buffer and sort them in a `Vec`.
        let mut ids = BTreeSet::new();
        for tag in &self.documents[id].tags {
            ids.extend(self.tag_id(tag));
        }
        ids
    }

    /// Documents owned by each user, ordered by user id.
    pub fn documents_by_user(&self) -> Vec<Vec<DocumentId>> {
        let mut out = vec![Vec::new(); self.num_users];
        for d in &self.documents {
            out[d.user].push(d.id);
        }
        out
    }

    /// Number of documents carrying each tag, keyed by tag id.
    pub fn tag_frequencies(&self) -> BTreeMap<u32, usize> {
        let mut out = BTreeMap::new();
        for d in &self.documents {
            for t in &d.tags {
                if let Some(id) = self.tag_id(t) {
                    *out.entry(id).or_insert(0) += 1;
                }
            }
        }
        out
    }

    /// Mean number of tags per document.
    pub fn mean_tags_per_document(&self) -> f64 {
        if self.documents.is_empty() {
            return 0.0;
        }
        self.documents.iter().map(|d| d.tags.len()).sum::<usize>() as f64
            / self.documents.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn push_and_lookup() {
        let mut c = Corpus::new();
        let id = c.push_document(
            0,
            "rust systems programming".into(),
            tags(&["rust", "code"]),
        );
        assert_eq!(id, 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.num_tags(), 2);
        assert_eq!(c.num_users(), 1);
        assert_eq!(c.document(0).unwrap().user, 0);
        assert!(c.tag_id("rust").is_some());
        assert_eq!(c.tag_name(c.tag_id("rust").unwrap()), Some("rust"));
    }

    #[test]
    fn interning_is_idempotent() {
        let mut c = Corpus::new();
        let a = c.intern_tag("web");
        let b = c.intern_tag("web");
        assert_eq!(a, b);
        assert_eq!(c.num_tags(), 1);
    }

    #[test]
    fn tag_ids_of_document() {
        let mut c = Corpus::new();
        c.push_document(0, "a".into(), tags(&["x", "y"]));
        c.push_document(1, "b".into(), tags(&["y"]));
        let ids = c.tag_ids_of(0);
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&c.tag_id("y").unwrap()));
    }

    #[test]
    fn per_user_grouping_and_frequencies() {
        let mut c = Corpus::new();
        c.push_document(0, "a".into(), tags(&["x"]));
        c.push_document(1, "b".into(), tags(&["x", "y"]));
        c.push_document(0, "c".into(), tags(&["y"]));
        let by_user = c.documents_by_user();
        assert_eq!(by_user.len(), 2);
        assert_eq!(by_user[0], vec![0, 2]);
        assert_eq!(by_user[1], vec![1]);
        let freq = c.tag_frequencies();
        assert_eq!(freq[&c.tag_id("x").unwrap()], 2);
        assert_eq!(freq[&c.tag_id("y").unwrap()], 2);
        assert!((c.mean_tags_per_document() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::new();
        assert!(c.is_empty());
        assert_eq!(c.mean_tags_per_document(), 0.0);
        assert!(c.tag_frequencies().is_empty());
    }
}
