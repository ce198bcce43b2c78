//! Median-dual metrics: the edge coefficients `η_ij` (dual-face area
//! vectors) and the dual control volumes that turn the Galerkin linear-tet
//! discretization into the edge-based central scheme of EUL3D.
//!
//! For each tetrahedron and each of its six edges `(a, b)`, the piece of
//! the median-dual interface between the control volumes of `a` and `b`
//! inside that tet is the (generally non-planar) quadrilateral
//!
//! ```text
//!   m  = midpoint(a, b)
//!   f1 = centroid of face (a, b, c)
//!   g  = centroid of the tet
//!   f2 = centroid of face (a, b, d)
//! ```
//!
//! wound `m → f1 → g → f2`, where `(c, d)` are the remaining vertices
//! ordered so `(a, b, c, d)` is an even permutation of the tet's
//! (positively-oriented) vertex list. With that convention the area vector
//! points from `a` toward `b`; accumulating the pieces over all tets
//! sharing an edge yields `η_ab`. Because every control volume is closed,
//! the identity
//!
//! ```text
//!   Σ_edges ±η  +  Σ_boundary-faces S/3  =  0       (per vertex)
//! ```
//!
//! holds to round-off — this is what guarantees exact freestream
//! preservation in the solver, and it is what the property tests check.

use crate::error::MeshError;
use crate::topology::{edge_index, TET_EDGES};
use crate::types::Csr;
use crate::vec3::{tet_volume, tri_area_vec, Vec3};

/// Accumulate the dual-face area vector for every edge.
///
/// `fwd` holds the edges as forward rows
/// ([`crate::topology::forward_edges`]); each tet edge is found by a scan
/// of its lower endpoint's row. Tets add their pieces in order, six edges
/// each in `TET_EDGES` order; all tets must be positively oriented. A tet
/// edge absent from `fwd` is reported as [`MeshError::EdgeMissing`]
/// instead of panicking.
pub fn edge_coefficients(
    coords: &[Vec3],
    tets: &[[u32; 4]],
    fwd: &Csr,
) -> Result<Vec<Vec3>, MeshError> {
    let mut coef = vec![Vec3::ZERO; fwd.items.len()];
    for t in tets {
        let p = [
            coords[t[0] as usize],
            coords[t[1] as usize],
            coords[t[2] as usize],
            coords[t[3] as usize],
        ];
        let g = (p[0] + p[1] + p[2] + p[3]) / 4.0;
        for le in &TET_EDGES {
            let (a, b) = (t[le[0]], t[le[1]]);
            let (pa, pb, pc, pd) = (p[le[0]], p[le[1]], p[le[2]], p[le[3]]);
            let m = (pa + pb) * 0.5;
            let f1 = (pa + pb + pc) / 3.0;
            let f2 = (pa + pb + pd) / 3.0;
            // Quad (m, f1, g, f2) split into triangles (m, f1, g), (m, g, f2).
            let piece = tri_area_vec(m, f1, g) + tri_area_vec(m, g, f2);
            let Some(e) = edge_index(fwd, a, b) else {
                return Err(MeshError::EdgeMissing { a, b });
            };
            // `piece` points a → b; flip when the stored edge is (b, a).
            if a < b {
                coef[e] += piece;
            } else {
                coef[e] -= piece;
            }
        }
    }
    Ok(coef)
}

/// Median-dual control volume of every vertex: each tet contributes a
/// quarter of its volume to each of its four vertices (barycentric
/// subdivision of a simplex is equal-volume).
pub fn dual_volumes(coords: &[Vec3], tets: &[[u32; 4]], nverts: usize) -> Vec<f64> {
    let mut vol = vec![0.0; nverts];
    for t in tets {
        let v = tet_volume(
            coords[t[0] as usize],
            coords[t[1] as usize],
            coords[t[2] as usize],
            coords[t[3] as usize],
        );
        let quarter = v / 4.0;
        for &k in t {
            vol[k as usize] += quarter;
        }
    }
    vol
}

/// Per-vertex closure residual `Σ ±η + Σ S/3`; the max norm over vertices
/// should be round-off-small for a valid mesh. Exposed for validation and
/// property tests.
pub fn closure_residual(
    nverts: usize,
    edges: &[[u32; 2]],
    edge_coef: &[Vec3],
    bfaces: &[(Vec3, [u32; 3])],
) -> Vec<Vec3> {
    let mut acc = vec![Vec3::ZERO; nverts];
    for (e, &[a, b]) in edges.iter().enumerate() {
        acc[a as usize] += edge_coef[e];
        acc[b as usize] -= edge_coef[e];
    }
    for (normal, verts) in bfaces {
        let third = *normal / 3.0;
        for &v in verts {
            acc[v as usize] += third;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{boundary_faces, edge_list, forward_edges, tet_neighbors, vertex_tets};

    fn unit_tet() -> (Vec<Vec3>, Vec<[u32; 4]>) {
        (
            vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
            ],
            vec![[0, 1, 2, 3]],
        )
    }

    #[test]
    fn unit_tet_edge_coefficient_orientation() {
        let (coords, tets) = unit_tet();
        let fwd = forward_edges(&tets, &vertex_tets(4, &tets));
        let edges = edge_list(&fwd);
        let coef = edge_coefficients(&coords, &tets, &fwd).expect("complete edge list");
        for (e, &[a, b]) in edges.iter().enumerate() {
            let dir = coords[b as usize] - coords[a as usize];
            assert!(
                coef[e].dot(dir) > 0.0,
                "edge ({a},{b}) coefficient should point a->b"
            );
        }
        // Hand-computed value for edge (0,1) of the canonical tet.
        let e01 = edge_index(&fwd, 0, 1).unwrap();
        let expect = Vec3::new(1.0 / 12.0, 1.0 / 24.0, 1.0 / 24.0);
        assert!((coef[e01] - expect).norm() < 1e-14);
    }

    #[test]
    fn missing_edge_is_a_typed_error() {
        let (coords, tets) = unit_tet();
        let mut edges = edge_list(&forward_edges(&tets, &vertex_tets(4, &tets)));
        edges.retain(|e| e != &[0, 1]);
        let fwd = Csr::from_pairs(4, edges.iter().map(|&[a, b]| (a, b)));
        assert_eq!(
            edge_coefficients(&coords, &tets, &fwd),
            Err(MeshError::EdgeMissing { a: 0, b: 1 })
        );
    }

    #[test]
    fn unit_tet_dual_volumes() {
        let (coords, tets) = unit_tet();
        let vol = dual_volumes(&coords, &tets, 4);
        for v in vol {
            assert!((v - 1.0 / 24.0).abs() < 1e-15);
        }
    }

    #[test]
    fn unit_tet_closure() {
        let (coords, tets) = unit_tet();
        let vt = vertex_tets(4, &tets);
        let fwd = forward_edges(&tets, &vt);
        let edges = edge_list(&fwd);
        let coef = edge_coefficients(&coords, &tets, &fwd).expect("complete edge list");
        let nbrs = tet_neighbors(&tets, &vt).expect("one tet is conforming");
        let bf: Vec<(Vec3, [u32; 3])> = boundary_faces(&tets, &nbrs)
            .into_iter()
            .map(|f| {
                let s = tri_area_vec(
                    coords[f[0] as usize],
                    coords[f[1] as usize],
                    coords[f[2] as usize],
                );
                (s, f)
            })
            .collect();
        let res = closure_residual(4, &edges, &coef, &bf);
        for r in res {
            assert!(r.norm() < 1e-14, "dual surface must close: {r:?}");
        }
    }
}
