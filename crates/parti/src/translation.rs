//! The translation table: global index → (owner rank, owner-local index).
//!
//! PARTI kept these distributed for scale; here the table is globally
//! known (it is read-only preprocessing output, and the paper's
//! partition assignment is likewise globally known after the sequential
//! partitioning step), and every rank borrows the one copy.

use std::borrow::Cow;

/// Ownership map for one distributed index space (one mesh level).
#[derive(Debug, Clone)]
pub struct Translation<'a> {
    /// Global index → owning rank.
    pub owner: Cow<'a, [u32]>,
    /// Global index → local index on the owner.
    pub local: Cow<'a, [u32]>,
}

impl<'a> Translation<'a> {
    /// Borrow the ownership arrays of a partitioned level (e.g.
    /// `eul3d_partition::PartitionedMesh::{owner, owner_local}`).
    pub fn new(owner: &'a [u32], local: &'a [u32]) -> Translation<'a> {
        assert_eq!(owner.len(), local.len());
        Translation {
            owner: Cow::Borrowed(owner),
            local: Cow::Borrowed(local),
        }
    }

    /// Build from a bare partition vector, assigning owner-local indices
    /// in ascending global order (the same convention as
    /// `eul3d_partition::PartitionedMesh`).
    pub fn from_parts(parts: &[u32], nparts: usize) -> Translation<'static> {
        let mut counters = vec![0u32; nparts];
        let mut local = vec![0u32; parts.len()];
        for (g, &p) in parts.iter().enumerate() {
            local[g] = counters[p as usize];
            counters[p as usize] += 1;
        }
        Translation {
            owner: Cow::Owned(parts.to_vec()),
            local: Cow::Owned(local),
        }
    }

    pub fn len(&self) -> usize {
        self.owner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    #[inline]
    pub fn owner_of(&self, global: u32) -> usize {
        self.owner[global as usize] as usize
    }

    #[inline]
    pub fn local_of(&self, global: u32) -> u32 {
        self.local[global as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parts_assigns_dense_locals() {
        let parts = vec![0, 1, 0, 1, 1, 0];
        let t = Translation::from_parts(&parts, 2);
        assert_eq!(t.len(), 6);
        // Rank 0 owns globals 0,2,5 -> locals 0,1,2
        assert_eq!(t.local_of(0), 0);
        assert_eq!(t.local_of(2), 1);
        assert_eq!(t.local_of(5), 2);
        // Rank 1 owns globals 1,3,4 -> locals 0,1,2
        assert_eq!(t.local_of(1), 0);
        assert_eq!(t.local_of(3), 1);
        assert_eq!(t.local_of(4), 2);
        assert_eq!(t.owner_of(4), 1);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        Translation::new(&[0], &[0, 1]);
    }
}
