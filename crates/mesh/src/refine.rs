//! Uniform ("red") refinement of tetrahedral meshes: every tet splits
//! into 8 children through its edge midpoints (Bey's scheme, with the
//! shortest-diagonal choice for the interior octahedron).
//!
//! The paper's multigrid deliberately uses *unrelated* meshes, but §2.3
//! notes that "new finer meshes can be introduced by adaptive
//! refinement". Uniform refinement provides (a) nested fine levels for
//! the nested-vs-unrelated transfer ablation, and (b) mesh families for
//! grid-convergence studies.

use crate::mesh::TetMesh;
use crate::topology::edge_index;
use crate::types::{BcKind, Csr};
use crate::vec3::Vec3;

/// Uniformly refine a mesh: one new vertex per edge, 8 child tets per
/// parent tet, boundary tags inherited from parent faces.
pub fn refine_uniform(mesh: &TetMesh) -> TetMesh {
    let nold = mesh.nverts();
    // New vertex numbering: originals first, then one midpoint per edge
    // (midpoint of edge e gets index nold + e — conforming by
    // construction because edges are globally unique).
    let mut coords: Vec<Vec3> = Vec::with_capacity(nold + mesh.nedges());
    coords.extend_from_slice(&mesh.coords);
    for (e, &[a, b]) in mesh.edges.iter().enumerate() {
        debug_assert_eq!(coords.len(), nold + e);
        coords.push((mesh.coords[a as usize] + mesh.coords[b as usize]) * 0.5);
    }
    // The sorted edge list as forward rows: row `a` starts at `a`'s first
    // edge, so a row position is an edge index.
    let fwd = Csr::from_pairs(nold, mesh.edges.iter().map(|&[a, b]| (a, b)));
    let mid = |a: u32, b: u32| -> u32 {
        match edge_index(&fwd, a, b) {
            Some(e) => (nold + e) as u32,
            None => unreachable!("edge {a}-{b} missing from the extracted edge list"),
        }
    };

    let mut tets: Vec<[u32; 4]> = Vec::with_capacity(mesh.ntets() * 8);
    for t in &mesh.tets {
        let [v0, v1, v2, v3] = *t;
        let m01 = mid(v0, v1);
        let m02 = mid(v0, v2);
        let m03 = mid(v0, v3);
        let m12 = mid(v1, v2);
        let m13 = mid(v1, v3);
        let m23 = mid(v2, v3);

        // Four corner tets.
        tets.push([v0, m01, m02, m03]);
        tets.push([m01, v1, m12, m13]);
        tets.push([m02, m12, v2, m23]);
        tets.push([m03, m13, m23, v3]);

        // Interior octahedron: pick the shortest of the three diagonals
        // (m01–m23, m02–m13, m03–m12) for the best-shaped children.
        let d = |a: u32, b: u32| coords[a as usize].dist(coords[b as usize]);
        let d1 = d(m01, m23);
        let d2 = d(m02, m13);
        let d3 = d(m03, m12);
        if d1 <= d2 && d1 <= d3 {
            tets.push([m01, m23, m02, m03]);
            tets.push([m01, m23, m03, m13]);
            tets.push([m01, m23, m13, m12]);
            tets.push([m01, m23, m12, m02]);
        } else if d2 <= d3 {
            tets.push([m02, m13, m01, m03]);
            tets.push([m02, m13, m03, m23]);
            tets.push([m02, m13, m23, m12]);
            tets.push([m02, m13, m12, m01]);
        } else {
            tets.push([m03, m12, m01, m02]);
            tets.push([m03, m12, m02, m23]);
            tets.push([m03, m12, m23, m13]);
            tets.push([m03, m12, m13, m01]);
        }
    }

    // Child boundary faces inherit the parent face's BC kind. Each
    // parent face (a, b, c) yields exactly four children.
    let mut kinds: Vec<([u32; 3], BcKind)> = Vec::with_capacity(mesh.bfaces.len() * 4);
    let key = |x: u32, y: u32, z: u32| -> [u32; 3] {
        let mut k = [x, y, z];
        k.sort_unstable();
        k
    };
    for f in &mesh.bfaces {
        let [a, b, c] = f.v;
        let (mab, mac, mbc) = (mid(a, b), mid(a, c), mid(b, c));
        for child in [
            key(a, mab, mac),
            key(b, mab, mbc),
            key(c, mac, mbc),
            key(mab, mac, mbc),
        ] {
            kinds.push((child, f.kind));
        }
    }
    kinds.sort_unstable_by_key(|&(k, _)| k);

    let mut refined = match TetMesh::from_tets(coords, tets, |_, _| BcKind::FarField) {
        Ok(m) => m,
        Err(e) => unreachable!("uniform refinement produced an invalid mesh: {e}"),
    };
    for f in &mut refined.bfaces {
        let mut k = f.v;
        k.sort_unstable();
        f.kind = match kinds.binary_search_by_key(&k, |&(k, _)| k) {
            Ok(i) => kinds[i].1,
            Err(_) => unreachable!("child boundary face without a parent"),
        };
    }
    refined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{bump_channel, unit_box, BumpSpec};
    use crate::stats::MeshStats;

    #[test]
    fn refinement_multiplies_counts() {
        let m = unit_box(2, 0.1, 3);
        let r = refine_uniform(&m);
        assert_eq!(r.ntets(), 8 * m.ntets());
        assert_eq!(r.nverts(), m.nverts() + m.nedges());
        assert_eq!(r.bfaces.len(), 4 * m.bfaces.len());
    }

    #[test]
    fn refinement_preserves_volume_exactly() {
        let m = unit_box(3, 0.2, 5);
        let r = refine_uniform(&m);
        assert!((r.total_volume() - m.total_volume()).abs() < 1e-12);
    }

    #[test]
    fn refined_mesh_is_valid() {
        let m = bump_channel(&BumpSpec {
            nx: 8,
            ny: 4,
            nz: 3,
            ..BumpSpec::default()
        });
        let r = refine_uniform(&m);
        let s = MeshStats::compute(&r);
        assert!(s.is_valid(), "{}", s.summary());
    }

    #[test]
    fn bc_kinds_are_inherited_by_area() {
        let m = bump_channel(&BumpSpec {
            nx: 6,
            ny: 3,
            nz: 2,
            ..BumpSpec::default()
        });
        let r = refine_uniform(&m);
        let area = |mesh: &TetMesh, kind: BcKind| -> f64 {
            mesh.bfaces
                .iter()
                .filter(|f| f.kind == kind)
                .map(|f| f.normal.norm())
                .sum()
        };
        for kind in [BcKind::Wall, BcKind::FarField, BcKind::Symmetry] {
            let a0 = area(&m, kind);
            let a1 = area(&r, kind);
            assert!(
                (a0 - a1).abs() < 1e-10 * a0.max(1.0),
                "{kind:?} area {a0} vs {a1}"
            );
        }
    }

    #[test]
    fn double_refinement_works() {
        let m = unit_box(2, 0.15, 7);
        let r2 = refine_uniform(&refine_uniform(&m));
        assert_eq!(r2.ntets(), 64 * m.ntets());
        assert!(MeshStats::compute(&r2).is_valid());
    }

    #[test]
    fn refined_vertices_include_originals_unchanged() {
        let m = unit_box(3, 0.1, 1);
        let r = refine_uniform(&m);
        for (i, p) in m.coords.iter().enumerate() {
            assert_eq!(r.coords[i], *p);
        }
    }
}
