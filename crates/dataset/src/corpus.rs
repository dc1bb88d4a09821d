//! Corpus data structures: documents, tags, users.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
///
/// A `Corpus` is a shared, immutable handle: its contents sit behind one
/// [`Arc`], so [`Clone`] bumps a reference count and every clone reads the
/// same documents. The mutators ([`Self::push_document`],
/// [`Self::intern_tag`]) copy on write: a corpus that owns its contents
/// alone (a generator building one) mutates them in place, and mutating a
/// shared clone first copies the contents, so the other holders never see
/// the change. [`Self::shares_storage_with`] tells whether two handles still
/// read one copy. Equality compares contents, not handles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    contents: Arc<Contents>,
}

/// What a [`Corpus`] handle points at.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Contents {
    documents: Vec<Document>,
    tag_names: Vec<String>,
    tag_ids: BTreeMap<String, u32>,
    num_users: usize,
}

impl Contents {
    /// Registers (or looks up) a tag name and returns its dense id.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.tag_ids.get(name) {
            return id;
        }
        let id = self.tag_names.len() as u32;
        self.tag_names.push(name.to_string());
        self.tag_ids.insert(name.to_string(), id);
        id
    }
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this handle reads the same contents as `other` — two clones
    /// of one corpus report `true` until one of them is mutated.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.contents, &other.contents)
    }

    /// Registers (or looks up) a tag name and returns its dense id. Looking
    /// up a registered name never copies a shared corpus.
    pub fn intern_tag(&mut self, name: &str) -> u32 {
        match self.tag_id(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.contents).intern(name),
        }
    }

    /// The id of a tag name, if registered.
    pub fn tag_id(&self, name: &str) -> Option<u32> {
        self.contents.tag_ids.get(name).copied()
    }

    /// The name of a tag id.
    pub fn tag_name(&self, id: u32) -> Option<&str> {
        self.contents.tag_names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct tags.
    pub fn num_tags(&self) -> usize {
        self.contents.tag_names.len()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.contents.num_users
    }

    /// Adds a document, interning its tags, and returns its id.
    pub fn push_document(
        &mut self,
        user: UserId,
        text: String,
        tags: BTreeSet<String>,
    ) -> DocumentId {
        let contents = Arc::make_mut(&mut self.contents);
        let id = contents.documents.len();
        for t in &tags {
            contents.intern(t);
        }
        contents.num_users = contents.num_users.max(user + 1);
        contents.documents.push(Document {
            id,
            user,
            text,
            tags,
        });
        id
    }

    /// All documents, ordered by id.
    pub fn documents(&self) -> &[Document] {
        &self.contents.documents
    }

    /// A document by id.
    pub fn document(&self, id: DocumentId) -> Option<&Document> {
        self.contents.documents.get(id)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.contents.documents.len()
    }

    /// Whether the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.contents.documents.is_empty()
    }

    /// The tag-id set of a document.
    pub fn tag_ids_of(&self, id: DocumentId) -> BTreeSet<u32> {
        // Inserted one by one: a handful of ids goes straight into one leaf,
        // where `collect` would first buffer and sort them in a `Vec`.
        let mut ids = BTreeSet::new();
        for tag in &self.contents.documents[id].tags {
            ids.extend(self.tag_id(tag));
        }
        ids
    }

    /// Documents owned by each user, ordered by user id.
    pub fn documents_by_user(&self) -> Vec<Vec<DocumentId>> {
        let mut out = vec![Vec::new(); self.contents.num_users];
        for d in &self.contents.documents {
            out[d.user].push(d.id);
        }
        out
    }

    /// Number of documents carrying each tag, keyed by tag id.
    #[cfg(test)]
    pub fn tag_frequencies(&self) -> BTreeMap<u32, usize> {
        let mut out = BTreeMap::new();
        for d in &self.contents.documents {
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
        let documents = &self.contents.documents;
        if documents.is_empty() {
            return 0.0;
        }
        documents.iter().map(|d| d.tags.len()).sum::<usize>() as f64 / documents.len() as f64
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
    fn clones_share_storage_until_mutated() {
        let mut a = Corpus::new();
        a.push_document(0, "rust code".into(), tags(&["rust"]));
        let b = a.clone();
        assert!(b.shares_storage_with(&a));
        assert_eq!(b, a);

        // A new document on a shared clone: copied on write.
        let mut pushed = a.clone();
        pushed.push_document(2, "web page".into(), tags(&["web"]));
        assert!(!pushed.shares_storage_with(&a));
        assert!(b.shares_storage_with(&a), "the other holders still share");
        assert_eq!((a.len(), a.num_users(), a.num_tags()), (1, 1, 1));
        assert_eq!(
            (pushed.len(), pushed.num_users(), pushed.num_tags()),
            (2, 3, 2)
        );
        assert!(a.tag_id("web").is_none());

        // A new tag on a shared clone: copied on write; a known one is a
        // lookup and keeps sharing.
        let mut interned = a.clone();
        assert_eq!(interned.intern_tag("rust"), a.tag_id("rust").unwrap());
        assert!(interned.shares_storage_with(&a));
        interned.intern_tag("brand-new");
        assert!(!interned.shares_storage_with(&a));
        assert!(a.tag_id("brand-new").is_none());
        assert_eq!(a.num_tags(), 1);

        // Equality compares contents, not handles.
        let mut rebuilt = Corpus::new();
        rebuilt.push_document(0, "rust code".into(), tags(&["rust"]));
        assert!(!rebuilt.shares_storage_with(&a));
        assert_eq!(rebuilt, a);
        assert_ne!(pushed, a);
        assert_ne!(interned, a);
    }

    #[test]
    fn a_sole_owner_mutates_in_place() {
        let mut c = Corpus::new();
        c.push_document(0, "a".into(), tags(&["x"]));
        let before = Arc::as_ptr(&c.contents);
        c.push_document(1, "b".into(), tags(&["y"]));
        c.intern_tag("z");
        assert_eq!(Arc::as_ptr(&c.contents), before);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::new();
        assert!(c.is_empty());
        assert_eq!(c.mean_tags_per_document(), 0.0);
        assert!(c.tag_frequencies().is_empty());
    }
}
