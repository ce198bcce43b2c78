//! Typed mesh-construction errors. A malformed mesh — user-supplied or
//! produced by a broken preprocessing step — used to fire `assert!`s deep
//! inside the build pipeline; every such condition is now a
//! [`MeshError`] so callers (and the CLI) can reject the input
//! gracefully.

use std::fmt;

/// Everything [`crate::TetMesh::from_tets`] and the derived-metric
/// builders can reject.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshError {
    /// A tetrahedron with (exactly) zero volume: its four vertices are
    /// coplanar, so it has no valid orientation and no dual metrics.
    DegenerateTet { tet: [u32; 4] },
    /// A tet references a vertex index outside the coordinate array.
    VertexOutOfRange { vertex: u32, nverts: usize },
    /// An edge `(a, b)` used by a tet is absent from the edge list
    /// handed to the metric builder.
    EdgeMissing { a: u32, b: u32 },
    /// A face (sorted vertex triple) held by three or more tetrahedra: the
    /// tets do not form a conforming mesh, so the face has no one
    /// neighbour across it.
    NonConformingFace { face: [u32; 3] },
    /// A vertex no tetrahedron touches: it would carry a zero control
    /// volume and poison the local time step.
    OrphanVertex { vertex: usize },
    /// The median-dual surface of `vertex` does not close: the closure
    /// residual `Σ ±η + Σ S/3` exceeded the round-off tolerance.
    OpenDualSurface { vertex: usize, residual: f64 },
    /// A partition map is inconsistent with the mesh it claims to
    /// partition (wrong length, or a part index out of range).
    InconsistentPartition { detail: String },
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::DegenerateTet { tet } => {
                write!(f, "degenerate (zero-volume) tetrahedron {tet:?}")
            }
            MeshError::VertexOutOfRange { vertex, nverts } => write!(
                f,
                "tetrahedron references vertex {vertex}, but the mesh has only {nverts} vertices"
            ),
            MeshError::EdgeMissing { a, b } => {
                write!(f, "tet edge ({a}, {b}) missing from the edge list")
            }
            MeshError::NonConformingFace { face } => {
                write!(f, "face {face:?} is shared by more than two tetrahedra")
            }
            MeshError::OrphanVertex { vertex } => write!(
                f,
                "vertex {vertex} belongs to no tetrahedron (zero control volume)"
            ),
            MeshError::OpenDualSurface { vertex, residual } => write!(
                f,
                "dual surface of vertex {vertex} does not close (residual {residual:.3e})"
            ),
            MeshError::InconsistentPartition { detail } => {
                write!(f, "inconsistent partition: {detail}")
            }
        }
    }
}

impl std::error::Error for MeshError {}
