//! The structure-of-arrays per-vertex field container.
//!
//! [`SoaState`] stores an `nc`-component field of `n` vertices
//! **plane-major**: component `c` of vertex `i` lives at flat index
//! `c * n + i`, so each component is one contiguous, SIMD-friendly
//! plane. This is the layout every hot kernel in `eul3d-kernels`
//! operates on, and the layout the PARTI halo exchanges pack with
//! per-variable strides.
//!
//! Element-wise whole-array operations (`flat`/`flat_mut`) are
//! layout-agnostic, which is what keeps checkpoint snapshots, rollback
//! copies and the multigrid forcing arithmetic unchanged. Anything
//! per-vertex goes through the row accessors ([`SoaState::get5`],
//! [`SoaState::set_row`], …), and anything per-component through the
//! plane accessors.

use std::ops::Range;

use crate::gas::NVAR;

/// One plane-major per-vertex field: `nc` contiguous planes of `n`
/// values each. The conserved variables use `nc = 5`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaState {
    data: Vec<f64>,
    n: usize,
    nc: usize,
}

impl SoaState {
    /// Zero-filled field of `n` vertices × `nc` components.
    pub fn new(n: usize, nc: usize) -> SoaState {
        assert!(nc > 0, "a field needs at least one component");
        SoaState {
            data: vec![0.0; n * nc],
            n,
            nc,
        }
    }

    /// Build from an interleaved AoS array (`aos[i * nc + c]`).
    pub fn from_aos(aos: &[f64], nc: usize) -> SoaState {
        assert!(
            nc > 0 && aos.len().is_multiple_of(nc),
            "AoS length must be n × nc"
        );
        let n = aos.len() / nc;
        let mut s = SoaState::new(n, nc);
        for i in 0..n {
            for c in 0..nc {
                s.data[c * n + i] = aos[i * nc + c];
            }
        }
        s
    }

    /// Export to an interleaved AoS array (`out[i * nc + c]`) — the
    /// checkpoint file format.
    pub fn to_aos(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n * self.nc];
        for i in 0..self.n {
            for c in 0..self.nc {
                out[i * self.nc + c] = self.data[c * self.n + i];
            }
        }
        out
    }

    /// Vertex count `n`.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Component count `nc`.
    #[inline(always)]
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// The whole backing array (`nc * n`), plane-major. Element-wise use
    /// only — index arithmetic belongs in the accessors.
    #[inline(always)]
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// Mutable whole backing array, plane-major.
    #[inline(always)]
    pub fn flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Component plane `c` (contiguous, length `n`).
    #[inline(always)]
    pub fn plane(&self, c: usize) -> &[f64] {
        &self.data[c * self.n..(c + 1) * self.n]
    }

    /// Mutable component plane `c`.
    #[inline(always)]
    pub fn plane_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.n..(c + 1) * self.n]
    }

    /// Component planes `cs` (contiguous, length `cs.len() * n`).
    #[inline(always)]
    pub fn planes(&self, cs: Range<usize>) -> &[f64] {
        &self.data[cs.start * self.n..cs.end * self.n]
    }

    /// Mutable component planes `cs`.
    #[inline(always)]
    pub fn planes_mut(&mut self, cs: Range<usize>) -> &mut [f64] {
        &mut self.data[cs.start * self.n..cs.end * self.n]
    }

    /// Component `c` of vertex `i`.
    #[inline(always)]
    pub fn get(&self, i: usize, c: usize) -> f64 {
        self.data[c * self.n + i]
    }

    /// Overwrite component `c` of vertex `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, c: usize, v: f64) {
        self.data[c * self.n + i] = v;
    }

    /// Add to component `c` of vertex `i`.
    #[inline(always)]
    pub fn add(&mut self, i: usize, c: usize, v: f64) {
        self.data[c * self.n + i] += v;
    }

    /// The 5 conserved variables of vertex `i` (requires `nc == 5`).
    #[inline(always)]
    pub fn get5(&self, i: usize) -> [f64; 5] {
        debug_assert_eq!(self.nc, NVAR);
        let (n, d) = (self.n, &self.data);
        [d[i], d[n + i], d[2 * n + i], d[3 * n + i], d[4 * n + i]]
    }

    /// Overwrite all 5 conserved variables of vertex `i`.
    #[inline(always)]
    pub fn set5(&mut self, i: usize, row: &[f64; 5]) {
        debug_assert_eq!(self.nc, NVAR);
        let n = self.n;
        self.data[i] = row[0];
        self.data[n + i] = row[1];
        self.data[2 * n + i] = row[2];
        self.data[3 * n + i] = row[3];
        self.data[4 * n + i] = row[4];
    }

    /// Copy vertex `i`'s components into `out` (`out.len() == nc`).
    #[inline]
    pub fn row(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.nc);
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = self.data[c * self.n + i];
        }
    }

    /// Overwrite vertex `i`'s components from `row` (`row.len() == nc`).
    #[inline]
    pub fn set_row(&mut self, i: usize, row: &[f64]) {
        assert_eq!(row.len(), self.nc);
        for (c, &v) in row.iter().enumerate() {
            self.data[c * self.n + i] = v;
        }
    }

    /// Set every vertex to the same component row (freestream init).
    pub fn fill_rows(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.nc);
        for (c, &v) in row.iter().enumerate() {
            self.plane_mut(c).iter_mut().for_each(|x| *x = v);
        }
    }

    /// Zero (or constant-fill) the whole field.
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Whole-field copy from a same-shape field.
    pub fn copy_from(&mut self, src: &SoaState) {
        assert!(self.n == src.n && self.nc == src.nc, "shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Copy the owned prefix (`n_owned` vertices of every plane) from a
    /// same-shape field.
    pub fn copy_owned_from(&mut self, src: &SoaState, n_owned: usize) {
        assert!(self.n == src.n && self.nc == src.nc, "shape mismatch");
        assert!(n_owned <= self.n);
        let n = self.n;
        for c in 0..self.nc {
            self.data[c * n..c * n + n_owned].copy_from_slice(&src.data[c * n..c * n + n_owned]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aos_round_trip_is_identity() {
        let aos: Vec<f64> = (0..30).map(|x| x as f64 * 0.25).collect();
        let s = SoaState::from_aos(&aos, 5);
        assert_eq!(s.n(), 6);
        assert_eq!(s.to_aos(), aos);
        // Plane-major placement: component 1 of vertex 2 is aos[2*5+1].
        assert_eq!(s.get(2, 1), aos[11]);
        assert_eq!(s.plane(1)[2], aos[11]);
    }

    #[test]
    fn rows_and_planes_agree() {
        let mut s = SoaState::new(4, 5);
        s.set5(3, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.get5(3), [1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut row = [0.0; 5];
        s.row(3, &mut row);
        assert_eq!(row, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.plane(4)[3], 5.0);
        s.add(3, 4, 0.5);
        assert_eq!(s.get(3, 4), 5.5);
    }

    #[test]
    fn owned_prefix_copy_leaves_ghosts_alone() {
        let mut a = SoaState::new(3, 2);
        let mut b = SoaState::new(3, 2);
        b.fill(7.0);
        a.fill(1.0);
        a.copy_owned_from(&b, 2);
        // Owned prefix (vertices 0, 1) copied in both planes; ghost
        // vertex 2 untouched.
        for c in 0..2 {
            assert_eq!(a.plane(c), &[7.0, 7.0, 1.0]);
        }
    }

    #[test]
    fn fill_rows_sets_constant_state() {
        let mut s = SoaState::new(3, 5);
        s.fill_rows(&[1.0, 0.1, 0.2, 0.3, 2.5]);
        for i in 0..3 {
            assert_eq!(s.get5(i), [1.0, 0.1, 0.2, 0.3, 2.5]);
        }
    }
}
