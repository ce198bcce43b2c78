//! Common mesh types: boundary conditions, boundary faces, and a compact
//! CSR (compressed sparse row) adjacency container.

use crate::vec3::Vec3;

/// Boundary-condition class attached to a boundary face.
///
/// EUL3D distinguishes solid (slip) walls from characteristic far-field
/// boundaries; everything else in the paper's cases is one of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcKind {
    /// Inviscid slip wall: only the pressure flux acts through the face.
    Wall,
    /// Characteristic far-field boundary driven by the freestream state.
    FarField,
    /// Symmetry plane; treated identically to a slip wall by the solver
    /// but tagged separately so meshes can report their composition.
    Symmetry,
}

/// A boundary triangle with its outward area normal.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryFace {
    /// Vertex indices, wound so the right-hand rule gives the outward normal.
    pub v: [u32; 3],
    /// Outward area vector (magnitude = face area).
    pub normal: Vec3,
    /// Boundary-condition class.
    pub kind: BcKind,
}

/// Compressed sparse row structure: `items[offsets[i]..offsets[i+1]]` are
/// the entries attached to row `i`.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    pub offsets: Vec<u32>,
    pub items: Vec<u32>,
}

impl Csr {
    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.items[lo..hi]
    }

    /// Degree (entry count) of row `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Build a CSR from `(row, item)` pairs with `nrows` rows using a
    /// counting sort; pair order within a row follows input order.
    /// Allocates the two result arrays and nothing else: the offsets
    /// double as the fill cursors, shifted by one row.
    pub fn from_pairs(nrows: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        // Count row `r` into slot `r + 2`; after the prefix sum slot
        // `r + 1` holds the start of row `r`.
        let mut offsets = vec![0u32; nrows + 2];
        for (r, _) in pairs.clone() {
            offsets[r as usize + 2] += 1;
        }
        for i in 2..nrows + 2 {
            offsets[i] += offsets[i - 1];
        }
        let mut items = vec![0u32; offsets[nrows + 1] as usize];
        // Filling row `r` advances slot `r + 1` from the row's start to
        // its end — the start of row `r + 1`, which is what slot `r + 1`
        // of a CSR holds. Slot 0 stays 0; the last slot is spare.
        for (r, it) in pairs {
            let c = &mut offsets[r as usize + 1];
            items[*c as usize] = it;
            *c += 1;
        }
        offsets.truncate(nrows + 1);
        Csr { offsets, items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_from_pairs() {
        let pairs = [(0u32, 10u32), (2, 20), (0, 11), (2, 21), (2, 22)];
        let csr = Csr::from_pairs(3, pairs.iter().copied());
        assert_eq!(csr.len(), 3);
        assert_eq!(csr.row(0), &[10, 11]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[20, 21, 22]);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 0);
        assert_eq!(csr.degree(2), 3);
    }

    #[test]
    fn csr_empty() {
        let csr = Csr::from_pairs(0, std::iter::empty());
        assert!(csr.is_empty());
        let csr2 = Csr::default();
        assert!(csr2.is_empty());
    }
}
