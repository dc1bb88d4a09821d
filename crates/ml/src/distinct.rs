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

/// Numbers distinct vectors in first-appearance order.
#[derive(Debug)]
pub(crate) struct DistinctIds<'a> {
    by_storage: HashMap<StorageKey, u32, BuildHasherDefault<AddressHasher>>,
    by_content: HashMap<ContentKey<'a>, u32>,
    len: u32,
}

impl<'a> DistinctIds<'a> {
    pub(crate) fn new() -> Self {
        Self {
            by_storage: HashMap::default(),
            by_content: HashMap::new(),
            len: 0,
        }
    }

    /// `v`'s id, and whether `v` is the first of its content (its id is
    /// then the number of ids handed out before it).
    pub(crate) fn id(&mut self, v: &'a SparseVector) -> (u32, bool) {
        let storage = v.storage_key();
        if let Some(&id) = self.by_storage.get(&storage) {
            return (id, false);
        }
        let next = self.len;
        let id = *self.by_content.entry(ContentKey(v)).or_insert(next);
        self.by_storage.insert(storage, id);
        let first = id == next;
        if first {
            self.len += 1;
        }
        (id, first)
    }
}

/// A vector, equal by indices and value bits — the granularity at which
/// kernel values coincide. It borrows the vector, so a lookup allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
struct ContentKey<'a>(&'a SparseVector);

impl PartialEq for ContentKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.indices() == other.0.indices()
            && self
                .0
                .values()
                .iter()
                .zip(other.0.values())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for ContentKey<'_> {}

impl Hash for ContentKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.indices().hash(state);
        // Value bits go in through a stack buffer, 32 per `write`: one
        // `write_u64` per value costs half again as much.
        let mut bytes = [0u8; 256];
        for values in self.0.values().chunks(32) {
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
        let got: Vec<(u32, bool)> = seq.iter().map(|x| ids.id(x)).collect();
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
        assert_eq!(ids.id(&v(&[(9, 1.0)])), (5, true));
    }
}
