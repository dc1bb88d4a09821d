//! Labeled-example containers shared by the learning and P2P layers.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use textproc::{CsrMatrix, SparseVector};

/// Identifier of a tag in the global tag universe `Y`.
pub type TagId = u32;

/// A document vector together with its assigned tag set.
///
/// This is the unit of training data exchanged (in feature-vector form only —
/// never raw text) between the tagging system and the classification layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiLabelExample {
    /// Preprocessed sparse document vector.
    pub vector: SparseVector,
    /// Tags assigned to the document (possibly empty).
    pub tags: BTreeSet<TagId>,
}

impl MultiLabelExample {
    /// Creates an example from a vector and any iterable of tag ids.
    pub fn new<I: IntoIterator<Item = TagId>>(vector: SparseVector, tags: I) -> Self {
        Self {
            vector,
            tags: tags.into_iter().collect(),
        }
    }

    /// Approximate wire size in bytes when the vector and tag list are shipped
    /// to another peer (used for communication-cost accounting).
    pub fn wire_size(&self) -> usize {
        example_wire_size(&self.vector, &self.tags)
    }
}

/// The wire-cost model of one (vector, tag set) example — shared by
/// [`MultiLabelExample::wire_size`] and [`MultiLabelDataset::wire_size`] so
/// the per-example and aggregate accountings cannot diverge.
fn example_wire_size(vector: &SparseVector, tags: &BTreeSet<TagId>) -> usize {
    vector.wire_size() + tags.len() * std::mem::size_of::<TagId>() + 4
}

/// A collection of multi-label examples with helpers for the one-vs-all
/// reduction described in §2 of the paper.
///
/// Vectors and tag sets are stored as parallel arrays (structure-of-arrays)
/// so the one-vs-all trainer and the batched scoring engine can borrow the
/// whole feature-vector slice once via [`Self::vectors`] instead of cloning
/// the corpus per tag.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MultiLabelDataset {
    vectors: Vec<SparseVector>,
    tags: Vec<BTreeSet<TagId>>,
}

impl MultiLabelDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dataset from a vector of examples.
    pub fn from_examples(examples: Vec<MultiLabelExample>) -> Self {
        examples.into_iter().collect()
    }

    /// Adds an example.
    pub fn push(&mut self, example: MultiLabelExample) {
        self.vectors.push(example.vector);
        self.tags.push(example.tags);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The feature vectors of every example, in insertion order. This is the
    /// borrow-once view the one-vs-all trainer and the batched scorers use:
    /// per-tag training only needs a label mask on top of this shared slice.
    pub fn vectors(&self) -> &[SparseVector] {
        &self.vectors
    }

    /// The tag sets of every example, parallel to [`Self::vectors`].
    pub fn tag_sets(&self) -> &[BTreeSet<TagId>] {
        &self.tags
    }

    /// The `i`-th example, reassembled by cloning (prefer the borrowed
    /// [`Self::vectors`] / [`Self::tag_sets`] views on hot paths).
    pub fn example(&self, i: usize) -> MultiLabelExample {
        MultiLabelExample {
            vector: self.vectors[i].clone(),
            tags: self.tags[i].clone(),
        }
    }

    /// Iterates over `(vector, tag set)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&SparseVector, &BTreeSet<TagId>)> {
        self.vectors.iter().zip(self.tags.iter())
    }

    /// Per-tag positive-example counts over the whole dataset, computed in one
    /// pass.
    pub fn tag_counts(&self) -> std::collections::BTreeMap<TagId, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for tags in &self.tags {
            for &t in tags {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The one-against-all label mask for `tag`: `mask[i]` is `true` iff
    /// example `i` carries the tag. Pair with [`Self::vectors`] for a
    /// zero-copy one-vs-all view.
    pub fn label_mask(&self, tag: TagId) -> Vec<bool> {
        self.tags.iter().map(|t| t.contains(&tag)).collect()
    }

    /// [`Self::label_mask`] into a caller-provided buffer, so a loop over the
    /// tag universe reuses one allocation instead of allocating per tag.
    pub fn label_mask_into(&self, tag: TagId, mask: &mut Vec<bool>) {
        mask.clear();
        mask.extend(self.tags.iter().map(|t| t.contains(&tag)));
    }

    /// Produces the one-against-all binary view for `tag`: the feature-vector
    /// slice is borrowed (shared by every tag), only the boolean label mask is
    /// per-tag.
    pub fn one_vs_all(&self, tag: TagId) -> (&[SparseVector], Vec<bool>) {
        (&self.vectors, self.label_mask(tag))
    }

    /// Materializes the feature vectors as a row-major [`CsrMatrix`] — the
    /// contiguous borrow-once layout the CSR-native training path
    /// ([`crate::multilabel::OneVsAllTrainer::train_linear_csr`]) iterates.
    /// Built in one `O(nnz)` pass; the matrix is a snapshot (it does not track
    /// later pushes).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_vectors(&self.vectors)
    }

    /// Merges another dataset into this one.
    pub fn extend_from(&mut self, other: &MultiLabelDataset) {
        self.vectors.extend_from_slice(&other.vectors);
        self.tags.extend_from_slice(&other.tags);
    }

    /// Keeps only the first `len` examples (no-op when already shorter) —
    /// used to roll back speculatively appended examples.
    pub fn truncate(&mut self, len: usize) {
        self.vectors.truncate(len);
        self.tags.truncate(len);
    }

    /// Total wire size of the dataset if shipped raw to another peer.
    pub fn wire_size(&self) -> usize {
        self.iter().map(|(v, t)| example_wire_size(v, t)).sum()
    }

    /// Splits the dataset into `n` nearly equal chunks (for distributing among
    /// peers in tests).
    pub fn chunks(&self, n: usize) -> Vec<MultiLabelDataset> {
        assert!(n > 0, "cannot split into zero chunks");
        let mut out = vec![MultiLabelDataset::new(); n];
        for (i, (v, t)) in self.iter().enumerate() {
            out[i % n].vectors.push(v.clone());
            out[i % n].tags.push(t.clone());
        }
        out
    }
}

impl FromIterator<MultiLabelExample> for MultiLabelDataset {
    fn from_iter<T: IntoIterator<Item = MultiLabelExample>>(iter: T) -> Self {
        let mut out = Self::new();
        for ex in iter {
            out.push(ex);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(tags: &[TagId]) -> MultiLabelExample {
        MultiLabelExample::new(SparseVector::from_pairs([(0, 1.0)]), tags.iter().copied())
    }

    #[test]
    fn tag_universe_and_counts() {
        let ds = MultiLabelDataset::from_examples(vec![ex(&[1, 2]), ex(&[2]), ex(&[3])]);
        assert_eq!(ds.len(), 3);
        let counts = ds.tag_counts();
        assert_eq!(counts.get(&2), Some(&2));
        assert_eq!(counts.get(&9), None);
    }

    #[test]
    fn one_vs_all_labels() {
        let ds = MultiLabelDataset::from_examples(vec![ex(&[1]), ex(&[2]), ex(&[1, 2])]);
        let (xs, ys) = ds.one_vs_all(1);
        assert_eq!(xs.len(), 3);
        assert_eq!(ys, vec![true, false, true]);
        assert_eq!(ds.vectors(), xs);
        assert_eq!(ds.label_mask(1), ys);
        let mut mask = Vec::new();
        ds.label_mask_into(2, &mut mask);
        assert_eq!(mask, ds.label_mask(2));
        ds.label_mask_into(1, &mut mask);
        assert_eq!(mask, ys, "buffer is reusable across tags");
    }

    #[test]
    fn csr_snapshot_matches_vectors() {
        let mut ds = MultiLabelDataset::from_examples(vec![ex(&[1]), ex(&[2])]);
        ds.push(MultiLabelExample::new(
            SparseVector::from_pairs([(3, 2.0), (7, -1.0)]),
            [4],
        ));
        let csr = ds.to_csr();
        assert_eq!(csr.num_rows(), ds.len());
        for (i, v) in ds.vectors().iter().enumerate() {
            assert_eq!(&csr.row_vector(i), v);
        }
    }

    #[test]
    fn chunks_cover_all_examples() {
        let ds = MultiLabelDataset::from_examples(vec![ex(&[1]); 10]);
        let chunks = ds.chunks(3);
        assert_eq!(chunks.len(), 3);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn wire_size_is_positive() {
        let ds = MultiLabelDataset::from_examples(vec![ex(&[1, 2])]);
        assert!(ds.wire_size() > 0);
    }

    #[test]
    fn example_roundtrips_through_parallel_arrays() {
        let ds = MultiLabelDataset::from_examples(vec![ex(&[1, 3]), ex(&[2])]);
        assert_eq!(ds.example(0), ex(&[1, 3]));
        assert_eq!(ds.example(1), ex(&[2]));
        assert_eq!(ds.tag_sets()[0], BTreeSet::from([1, 3]));
    }
}
