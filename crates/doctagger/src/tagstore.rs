//! Tag persistence as file metadata.
//!
//! "Once tags are assigned, they are saved as the files' meta-data, which are
//! supported by numerous operating systems such as GNU/Linux, Mac OS X,
//! Microsoft Windows, etc. In addition to P2PDocTagger, other PIM systems can
//! access these tags for file organization/retrieval" (§2). The store models an
//! extended-attribute (xattr) namespace keyed by file path; it is an in-memory
//! map with an export format other tools could consume, so the simulation does
//! not touch the real filesystem.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The xattr namespace used for tags (mirrors `user.xdg.tags` on Linux).
pub const TAG_ATTRIBUTE: &str = "user.p2pdoctagger.tags";

/// An in-memory file-metadata tag store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TagStore {
    files: BTreeMap<String, BTreeSet<String>>,
}

impl TagStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of files with at least one tag.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Replaces the tag set of a file (removing the entry when `tags` is empty).
    pub fn set_tags<I, S>(&mut self, path: &str, tags: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let set: BTreeSet<String> = tags.into_iter().map(Into::into).collect();
        if set.is_empty() {
            self.files.remove(path);
        } else {
            self.files.insert(path.to_string(), set);
        }
    }

    /// The tags of a file (empty when the file has none).
    pub fn tags_of(&self, path: &str) -> BTreeSet<String> {
        self.files.get(path).cloned().unwrap_or_default()
    }

    /// Renders a file's tags as the value another PIM tool would read from the
    /// extended attribute (comma-separated, sorted).
    pub fn xattr_value(&self, path: &str) -> Option<String> {
        self.files
            .get(path)
            .map(|tags| tags.iter().cloned().collect::<Vec<_>>().join(","))
    }

    /// Exports the whole store as `(path, attribute, value)` triples, the shape
    /// a `setfattr --restore` style dump would have.
    pub fn export(&self) -> Vec<(String, String, String)> {
        self.files
            .keys()
            .map(|path| {
                (
                    path.clone(),
                    TAG_ATTRIBUTE.to_string(),
                    self.xattr_value(path).unwrap_or_default(),
                )
            })
            .collect()
    }

    /// Imports triples previously produced by [`Self::export`]; unknown
    /// attributes are ignored.
    pub fn import(&mut self, triples: &[(String, String, String)]) {
        for (path, attr, value) in triples {
            if attr != TAG_ATTRIBUTE {
                continue;
            }
            self.set_tags(path, value.split(',').filter(|s| !s.is_empty()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_remove() {
        let mut store = TagStore::new();
        store.set_tags("/home/u/doc.pdf", ["rust", "paper"]);
        assert_eq!(store.tags_of("/home/u/doc.pdf").len(), 2);
        store.set_tags("/home/u/doc.pdf", ["rust"]);
        assert_eq!(store.tags_of("/home/u/doc.pdf").len(), 1);
        store.set_tags("/home/u/doc.pdf", Vec::<String>::new());
        assert!(store.is_empty());
    }

    #[test]
    fn xattr_value_is_sorted_and_comma_separated() {
        let mut store = TagStore::new();
        store.set_tags("a", ["zebra", "alpha"]);
        assert_eq!(store.xattr_value("a").unwrap(), "alpha,zebra");
        assert!(store.xattr_value("missing").is_none());
    }

    #[test]
    fn export_import_roundtrip() {
        let mut store = TagStore::new();
        store.set_tags("a", ["x", "y"]);
        store.set_tags("b", ["z"]);
        let dump = store.export();
        let mut restored = TagStore::new();
        restored.import(&dump);
        assert_eq!(restored.tags_of("a"), store.tags_of("a"));
        assert_eq!(restored.tags_of("b"), store.tags_of("b"));
        assert_eq!(restored.len(), 2);
    }

    #[test]
    fn empty_tag_set_removes_entry() {
        let mut store = TagStore::new();
        store.set_tags("a", ["x"]);
        store.set_tags("a", Vec::<String>::new());
        assert!(store.is_empty());
    }

    #[test]
    fn import_ignores_foreign_attributes() {
        let mut store = TagStore::new();
        store.import(&[(
            "a".to_string(),
            "user.other.attr".to_string(),
            "x,y".to_string(),
        )]);
        assert!(store.is_empty());
    }
}
