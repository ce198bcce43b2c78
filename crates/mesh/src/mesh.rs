//! The [`TetMesh`] container: geometry, the edge-based data structure, and
//! boundary faces, plus the derived-metric build pipeline.

use crate::dual::{closure_residual, dual_volumes, edge_coefficients};
use crate::error::MeshError;
use crate::topology::{
    boundary_faces, edge_list, forward_edges, tet_neighbors, vertex_degrees, vertex_tets,
};
use crate::types::{BcKind, BoundaryFace};
use crate::vec3::{tet_volume, tri_area_vec, Vec3};

/// An unstructured tetrahedral mesh in the edge-based representation used
/// by EUL3D. Constructed via [`TetMesh::from_tets`] (or the generators in
/// [`crate::gen`]); all derived quantities are built eagerly because the
/// solver treats them as static preprocessed data (§2.4 of the paper).
#[derive(Debug, Clone)]
pub struct TetMesh {
    /// Vertex coordinates.
    pub coords: Vec<Vec3>,
    /// Tetrahedra as vertex quadruples, all positively oriented.
    pub tets: Vec<[u32; 4]>,
    /// Unique undirected edges `[a, b]`, `a < b`, lexicographically sorted.
    pub edges: Vec<[u32; 2]>,
    /// Dual-face area vector per edge, oriented `a → b`.
    pub edge_coef: Vec<Vec3>,
    /// Boundary triangles with outward normals and BC tags.
    pub bfaces: Vec<BoundaryFace>,
    /// Median-dual control volume per vertex.
    pub vol: Vec<f64>,
}

impl TetMesh {
    /// Build a mesh (and all derived metrics) from raw vertices and tets.
    ///
    /// Tets with negative volume are repaired by swapping two vertices;
    /// degenerate (zero-volume) tets, out-of-range vertex references,
    /// orphan vertices (no incident tet) and faces held by three or more
    /// tets are rejected as typed [`MeshError`]s instead of panicking.
    /// Edges, dual metrics and boundary faces all come from one vertex →
    /// tet incidence ([`crate::topology::vertex_tets`]). `classify`
    /// assigns a boundary condition to each boundary face from its
    /// centroid and outward unit normal.
    pub fn from_tets(
        coords: Vec<Vec3>,
        tets: Vec<[u32; 4]>,
        classify: impl Fn(Vec3, Vec3) -> BcKind,
    ) -> Result<TetMesh, MeshError> {
        Self::build(coords, tets, classify, false).map(|(mesh, _)| mesh)
    }

    /// [`TetMesh::from_tets`], also handing back the face-neighbour
    /// table ([`tet_neighbors`]) the boundary faces were found from, so
    /// a point locator over the mesh need not rebuild it.
    pub(crate) fn from_tets_with_neighbors(
        coords: Vec<Vec3>,
        tets: Vec<[u32; 4]>,
        classify: impl Fn(Vec3, Vec3) -> BcKind,
    ) -> Result<(TetMesh, Vec<[u32; 4]>), MeshError> {
        Self::build(coords, tets, classify, true)
    }

    /// The one build behind both constructors: the neighbour table comes
    /// back empty unless `keep_neighbors` asks for it.
    fn build(
        coords: Vec<Vec3>,
        mut tets: Vec<[u32; 4]>,
        classify: impl Fn(Vec3, Vec3) -> BcKind,
        keep_neighbors: bool,
    ) -> Result<(TetMesh, Vec<[u32; 4]>), MeshError> {
        // Validate indices, then orient all tets positively.
        for t in &mut tets {
            for &vtx in t.iter() {
                if vtx as usize >= coords.len() {
                    return Err(MeshError::VertexOutOfRange {
                        vertex: vtx,
                        nverts: coords.len(),
                    });
                }
            }
            let v = tet_volume(
                coords[t[0] as usize],
                coords[t[1] as usize],
                coords[t[2] as usize],
                coords[t[3] as usize],
            );
            if v == 0.0 {
                return Err(MeshError::DegenerateTet { tet: *t });
            }
            if v < 0.0 {
                t.swap(2, 3);
            }
        }

        let vt = vertex_tets(coords.len(), &tets);
        if !tets.is_empty() {
            if let Some(orphan) = (0..vt.len()).find(|&v| vt.degree(v) == 0) {
                return Err(MeshError::OrphanVertex { vertex: orphan });
            }
        }
        let fwd = forward_edges(&tets, &vt);
        let nbrs = tet_neighbors(&tets, &vt)?;
        let faces = boundary_faces(&tets, &nbrs);
        // The incidence, and the neighbours unless kept, go before the
        // metric arrays are allocated, which keeps them out of the
        // set-up's peak.
        drop(vt);
        let nbrs = if keep_neighbors { nbrs } else { Vec::new() };
        let edge_coef = edge_coefficients(&coords, &tets, &fwd)?;
        let edges = edge_list(&fwd);
        drop(fwd);
        let vol = dual_volumes(&coords, &tets, coords.len());

        let bfaces = faces
            .into_iter()
            .map(|f| {
                let a = coords[f[0] as usize];
                let b = coords[f[1] as usize];
                let c = coords[f[2] as usize];
                let normal = tri_area_vec(a, b, c);
                let centroid = (a + b + c) / 3.0;
                let unit = normal.normalized().unwrap_or(Vec3::ZERO);
                BoundaryFace {
                    v: f,
                    normal,
                    kind: classify(centroid, unit),
                }
            })
            .collect();

        let mesh = TetMesh {
            coords,
            tets,
            edges,
            edge_coef,
            bfaces,
            vol,
        };
        Ok((mesh, nbrs))
    }

    /// Check that every vertex's median-dual surface closes: the
    /// residual `Σ ±η + Σ S/3` must stay below `tol` in max norm
    /// (round-off-small for any watertight mesh). Returns the worst
    /// offender as a typed error.
    pub fn validate_closure(&self, tol: f64) -> Result<(), MeshError> {
        let bf: Vec<(Vec3, [u32; 3])> = self.bfaces.iter().map(|f| (f.normal, f.v)).collect();
        let res = closure_residual(self.nverts(), &self.edges, &self.edge_coef, &bf);
        let worst = res
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()));
        match worst {
            Some((vertex, r)) if r.norm() >= tol => Err(MeshError::OpenDualSurface {
                vertex,
                residual: r.norm(),
            }),
            _ => Ok(()),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn nverts(&self) -> usize {
        self.coords.len()
    }

    /// Number of unique edges.
    #[inline]
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Number of tetrahedra.
    #[inline]
    pub fn ntets(&self) -> usize {
        self.tets.len()
    }

    /// Total mesh volume (sum of dual volumes == sum of tet volumes).
    pub fn total_volume(&self) -> f64 {
        self.vol.iter().sum()
    }

    /// The maximum vertex degree (number of incident edges).
    pub fn max_degree(&self) -> usize {
        vertex_degrees(self.nverts(), &self.edges)
            .into_iter()
            .max()
            .unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far(_: Vec3, _: Vec3) -> BcKind {
        BcKind::FarField
    }

    #[test]
    fn from_tets_repairs_orientation() {
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        // Negatively oriented input.
        let mesh = TetMesh::from_tets(coords, vec![[0, 1, 3, 2]], far).expect("valid mesh");
        let t = mesh.tets[0];
        let v = tet_volume(
            mesh.coords[t[0] as usize],
            mesh.coords[t[1] as usize],
            mesh.coords[t[2] as usize],
            mesh.coords[t[3] as usize],
        );
        assert!(v > 0.0);
        assert_eq!(mesh.nverts(), 4);
        assert_eq!(mesh.nedges(), 6);
        assert_eq!(mesh.bfaces.len(), 4);
        assert!((mesh.total_volume() - 1.0 / 6.0).abs() < 1e-14);
    }

    #[test]
    fn degenerate_tet_is_a_typed_error_not_a_panic() {
        // Four collinear points: zero volume, no orientation to repair.
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
        ];
        let err = TetMesh::from_tets(coords, vec![[0, 1, 2, 3]], far);
        assert_eq!(
            err.err(),
            Some(MeshError::DegenerateTet { tet: [0, 1, 2, 3] })
        );
    }

    #[test]
    fn coplanar_tet_is_a_typed_error_not_a_panic() {
        // Four coplanar (z = 0) but non-collinear points — an "inverted
        // flat" tet no vertex swap can repair.
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
        ];
        let err = TetMesh::from_tets(coords, vec![[0, 1, 2, 3]], far);
        assert!(matches!(err, Err(MeshError::DegenerateTet { .. })));
    }

    #[test]
    fn out_of_range_vertex_is_a_typed_error() {
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        ];
        let err = TetMesh::from_tets(coords, vec![[0, 1, 2, 7]], far);
        assert_eq!(
            err.err(),
            Some(MeshError::VertexOutOfRange {
                vertex: 7,
                nverts: 3
            })
        );
    }

    #[test]
    fn orphan_vertex_is_a_typed_error() {
        // Vertex 4 exists but no tet touches it.
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(9.0, 9.0, 9.0),
        ];
        let err = TetMesh::from_tets(coords, vec![[0, 1, 2, 3]], far);
        assert_eq!(err.err(), Some(MeshError::OrphanVertex { vertex: 4 }));
    }

    #[test]
    fn face_shared_by_three_tets_is_a_typed_error() {
        // Three tets fanned around face (1,2,3): apexes 0 and 5 on one
        // side of it, 4 on the other.
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-0.5, -0.5, -0.5),
        ];
        let tets = vec![[0, 1, 2, 3], [1, 2, 3, 4], [5, 1, 2, 3]];
        let err = TetMesh::from_tets(coords.clone(), tets.clone(), far);
        assert_eq!(
            err.err(),
            Some(MeshError::NonConformingFace { face: [1, 2, 3] })
        );
        // The first two alone are a conforming mesh.
        let mesh = TetMesh::from_tets(coords[..5].to_vec(), tets[..2].to_vec(), far)
            .expect("two tets share one face");
        assert_eq!(mesh.bfaces.len(), 6);
    }

    #[test]
    fn closure_validation_passes_and_detects_tampering() {
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let mut mesh = TetMesh::from_tets(coords, vec![[0, 1, 2, 3]], far).expect("valid mesh");
        assert_eq!(mesh.validate_closure(1e-12), Ok(()));
        // Corrupt one edge coefficient: the dual surface opens.
        mesh.edge_coef[0] += Vec3::new(0.5, 0.0, 0.0);
        assert!(matches!(
            mesh.validate_closure(1e-12),
            Err(MeshError::OpenDualSurface { .. })
        ));
    }

    #[test]
    fn max_degree_of_tet() {
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let mesh = TetMesh::from_tets(coords, vec![[0, 1, 2, 3]], far).expect("valid mesh");
        assert_eq!(mesh.max_degree(), 3);
    }

    #[test]
    fn boundary_normals_point_outward() {
        let coords = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let mesh = TetMesh::from_tets(coords, vec![[0, 1, 2, 3]], far).expect("valid mesh");
        let centroid = (mesh.coords[0] + mesh.coords[1] + mesh.coords[2] + mesh.coords[3]) / 4.0;
        for f in &mesh.bfaces {
            let fc = (mesh.coords[f.v[0] as usize]
                + mesh.coords[f.v[1] as usize]
                + mesh.coords[f.v[2] as usize])
                / 3.0;
            assert!(
                f.normal.dot(fc - centroid) > 0.0,
                "normal must point outward"
            );
        }
    }
}
