//! Inter-grid transfer operators for multigrid on *unrelated* meshes.
//!
//! Following §2.3–2.4 of the paper, information moves between any two
//! meshes of the multigrid sequence through **four interpolation addresses
//! and four interpolation weights per vertex**: for each vertex of the
//! destination mesh, the containing tetrahedron in the source mesh is
//! found by the adjacency walk ([`crate::search`]) and its four vertices
//! and barycentric weights are stored. The same static operator serves
//! both directions:
//!
//! * **interpolation** (prolongation) — destination value = Σ wₖ · source
//!   value at address k;
//! * **restriction** — its transpose: source accumulates Σ wₖ · destination
//!   value (conservative scatter of residuals to the coarse grid).

use crate::mesh::TetMesh;
use crate::search::{face_neighbors, SearchTables};

/// Interpolation operator from a *source* mesh onto the vertices of a
/// *destination* mesh: `addr[v]` are four source-vertex indices and
/// `w[v]` the matching weights for destination vertex `v`.
#[derive(Debug, Clone)]
pub struct InterpOps {
    pub addr: Vec<[u32; 4]>,
    pub w: Vec<[f64; 4]>,
    /// Number of vertices in the source mesh (for transpose bounds).
    pub nsrc: usize,
}

impl InterpOps {
    /// Build the operator by locating every destination vertex in the
    /// source mesh. Queries are seeded with the previous hit, which makes
    /// the whole pass nearly linear (the paper prices it at one or two
    /// flow-solution cycles).
    pub fn build(src: &TetMesh, dst: &TetMesh) -> InterpOps {
        let tables = SearchTables::with_neighbors(src, face_neighbors(src));
        InterpOps::located(src, &tables, dst)
    }

    /// [`InterpOps::build`] over search tables already built for `src`
    /// (a multigrid sequence builds one set per level for both of the
    /// level's operators). The walk stays one sequential pass: each
    /// query seeds from the previous hit, and a point on a face shared by
    /// two tets lands in whichever the walk reaches first.
    pub(crate) fn located(src: &TetMesh, tables: &SearchTables, dst: &TetMesh) -> InterpOps {
        let mut addr = Vec::with_capacity(dst.nverts());
        let mut w = Vec::with_capacity(dst.nverts());
        let mut seed = 0usize;
        for &p in &dst.coords {
            let r = tables.locate(src, p, seed);
            seed = r.tet;
            addr.push(src.tets[r.tet]);
            w.push(r.bary);
        }
        InterpOps {
            addr,
            w,
            nsrc: src.nverts(),
        }
    }

    /// Number of destination vertices.
    #[inline]
    pub fn ndst(&self) -> usize {
        self.addr.len()
    }

    /// Interpolate one scalar plane from source to destination:
    /// `out[v] = Σₖ w[v][k] · src[addr[v][k]]`. Plane-major fields call
    /// this once per component.
    pub fn interpolate(&self, src: &[f64], out: &mut [f64]) {
        assert_eq!(src.len(), self.nsrc);
        assert_eq!(out.len(), self.ndst());
        for ((o, a), w) in out.iter_mut().zip(&self.addr).zip(&self.w) {
            let mut acc = 0.0;
            for k in 0..4 {
                acc += w[k] * src[a[k] as usize];
            }
            *o = acc;
        }
    }

    /// Transpose-interpolate (restrict) one scalar plane: scatter each
    /// destination value to its four source addresses with the same
    /// weights, *accumulating* into `out` (callers zero it when
    /// appropriate). This is the conservative residual-collection
    /// operator of the FAS scheme.
    pub fn restrict_transpose(&self, dstv: &[f64], out: &mut [f64]) {
        assert_eq!(dstv.len(), self.ndst());
        assert_eq!(out.len(), self.nsrc);
        for ((&val, a), w) in dstv.iter().zip(&self.addr).zip(&self.w) {
            for k in 0..4 {
                out[a[k] as usize] += w[k] * val;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::unit_box;

    #[test]
    fn interpolation_reproduces_linear_fields() {
        let coarse = unit_box(3, 0.15, 1);
        let fine = unit_box(6, 0.15, 2);
        let ops = InterpOps::build(&coarse, &fine);
        // f(x,y,z) = 2x - 3y + z + 0.5 is exactly representable by linear
        // interpolation on tets.
        let f = |p: crate::vec3::Vec3| 2.0 * p.x - 3.0 * p.y + p.z + 0.5;
        let src: Vec<f64> = coarse.coords.iter().map(|&p| f(p)).collect();
        let mut out = vec![0.0; fine.nverts()];
        ops.interpolate(&src, &mut out);
        for (v, &p) in fine.coords.iter().enumerate() {
            assert!(
                (out[v] - f(p)).abs() < 1e-9,
                "linear field must interpolate exactly at {p:?}"
            );
        }
    }

    #[test]
    fn transpose_conserves_totals() {
        let coarse = unit_box(3, 0.1, 3);
        let fine = unit_box(5, 0.1, 4);
        let ops = InterpOps::build(&coarse, &fine);
        let dstv: Vec<f64> = (0..fine.nverts()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut out = vec![0.0; coarse.nverts()];
        ops.restrict_transpose(&dstv, &mut out);
        let total_in: f64 = dstv.iter().sum();
        let total_out: f64 = out.iter().sum();
        // Weights sum to 1 per destination vertex, so totals match exactly.
        assert!((total_in - total_out).abs() < 1e-9 * total_in.abs().max(1.0));
    }
}
