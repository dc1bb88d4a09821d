//! First-appearance ids for distinct vectors — the one way the kernel-model
//! consumers find the support vectors several tags share.
//!
//! A document is a support vector of several of its tags, so a kernel
//! one-vs-all model holds the same vector many times. The codec writes each
//! distinct vector once, a cascade merge evaluates one Gram matrix over the
//! distinct vectors of its pools, and the batched scorer evaluates one
//! kernel row entry per distinct vector; all three number the vectors with
//! [`DistinctIds`], in the order they first appear.
//!
//! Distinct means different indices or different value bits. Clones share
//! storage (`SparseVector` clones are reference-count bumps, and a decoded
//! model hands every tag its dictionary entry's allocation), so a vector is
//! looked up by [`SparseVector::storage_key`] first, and its content is
//! hashed only the first time its storage is seen. Content-equal vectors in
//! separate storage still get one id, so the ids never depend on how the
//! vectors were stored.
//!
//! The storage map is keyed by addresses: it is only ever looked up, never
//! iterated (addresses differ from run to run), and only while the borrowed
//! vectors are alive.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use textproc::{SparseVector, StorageKey};

/// Numbers distinct vectors in first-appearance order, per class: vectors
/// of different classes (the scorer's kernels) never share an id.
#[derive(Debug)]
pub(crate) struct DistinctIds<'a, C> {
    by_storage: HashMap<(C, StorageKey), u32, BuildHasherDefault<AddressHasher>>,
    by_content: HashMap<ContentKey<'a, C>, u32>,
    len: u32,
}

impl<'a, C: Copy + Eq + Hash> DistinctIds<'a, C> {
    pub(crate) fn new() -> Self {
        Self {
            by_storage: HashMap::default(),
            by_content: HashMap::new(),
            len: 0,
        }
    }

    /// `v`'s id within `class`, and whether `v` is the first of its content
    /// (its id is then the number of ids handed out before it).
    pub(crate) fn id(&mut self, class: C, v: &'a SparseVector) -> (u32, bool) {
        let storage = (class, v.storage_key());
        if let Some(&id) = self.by_storage.get(&storage) {
            return (id, false);
        }
        let next = self.len;
        let id = *self
            .by_content
            .entry(ContentKey { class, vector: v })
            .or_insert(next);
        self.by_storage.insert(storage, id);
        let first = id == next;
        if first {
            self.len += 1;
        }
        (id, first)
    }
}

/// A vector and its class, equal by indices and value bits — the
/// granularity at which kernel values coincide. It borrows the vector, so a
/// lookup allocates nothing.
#[derive(Debug, Clone, Copy)]
struct ContentKey<'a, C> {
    class: C,
    vector: &'a SparseVector,
}

impl<C: Eq> PartialEq for ContentKey<'_, C> {
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class
            && self.vector.indices() == other.vector.indices()
            && self
                .vector
                .values()
                .iter()
                .zip(other.vector.values())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl<C: Eq> Eq for ContentKey<'_, C> {}

impl<C: Hash> Hash for ContentKey<'_, C> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.class.hash(state);
        self.vector.indices().hash(state);
        // Value bits go in through a stack buffer, 32 per `write`: one
        // `write_u64` per value costs half again as much.
        let mut bytes = [0u8; 256];
        for values in self.vector.values().chunks(32) {
            for (slot, v) in bytes.chunks_exact_mut(8).zip(values) {
                slot.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            state.write(&bytes[..8 * values.len()]);
        }
    }
}

/// A multiply–rotate hasher for the storage map's few machine words. Its
/// keys are allocation addresses, which no input controls, so it needs no
/// protection against chosen collisions; the content map, whose keys a
/// frame does control, keeps the default hasher.
#[derive(Debug, Default)]
struct AddressHasher(u64);

impl AddressHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for AddressHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn ids_follow_first_appearance_by_content_whatever_the_storage() {
        let a = v(&[(0, 1.0), (4, -0.5)]);
        let a_copy = v(&[(0, 1.0), (4, -0.5)]);
        let b = v(&[(0, 1.0), (4, 0.5)]);
        let nan = v(&[(2, f64::NAN)]);
        let neg_nan = v(&[(2, -f64::NAN)]);
        let empty = SparseVector::new();
        let a_clone = a.clone();
        let mut ids = DistinctIds::new();
        let seq = [&a, &b, &a_copy, &a_clone, &nan, &neg_nan, &empty, &b];
        let got: Vec<(u32, bool)> = seq.iter().map(|x| ids.id((), x)).collect();
        assert_eq!(
            got,
            [
                (0, true),
                (1, true),
                (0, false),
                (0, false),
                (2, true),
                (3, true),
                (4, true),
                (1, false)
            ]
        );
        assert_eq!(ids.id((), &v(&[(9, 1.0)])), (5, true));
    }

    #[test]
    fn classes_keep_equal_vectors_apart() {
        let a = v(&[(1, 2.0)]);
        let mut ids = DistinctIds::new();
        assert_eq!(ids.id(7u8, &a), (0, true));
        assert_eq!(ids.id(9u8, &a), (1, true));
        assert_eq!(ids.id(7u8, &a.clone()), (0, false));
    }
}
