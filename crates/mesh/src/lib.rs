//! Unstructured tetrahedral meshes with the *edge-based data structure*
//! used by EUL3D (Mavriplis, Das, Saltz, Vermeland, SC'92).
//!
//! The solver in `eul3d-core` never loops over elements: all interior work
//! is expressed as loops over the **edge list**, where every edge `(i, j)`
//! carries a dual-face area vector ("edge coefficient") `η_ij` accumulated
//! from the median-dual pieces of the tetrahedra sharing the edge. This
//! crate builds that structure, plus:
//!
//! * synthetic mesh generators (jittered split-hex lattices mapped onto a
//!   box, a transonic bump channel, and a swept-bump "wing-like" body) —
//!   the stand-in for the paper's advancing-front aircraft meshes;
//! * boundary faces with outward area normals and boundary-condition tags;
//! * median-dual vertex volumes;
//! * multigrid **sequences of unrelated meshes** and the inter-grid
//!   interpolation operators (4 addresses + 4 weights per vertex, found by
//!   the tet-adjacency walk described in §2.4 of the paper);
//! * mesh statistics/validation and legacy-VTK export.
//!
//! ```
//! use eul3d_mesh::gen::{bump_channel, BumpSpec};
//! use eul3d_mesh::stats::MeshStats;
//!
//! let mesh = bump_channel(&BumpSpec { nx: 8, ny: 4, nz: 3, ..Default::default() });
//! assert!(MeshStats::compute(&mesh).is_valid());
//! // The edge-based structure: every edge knows its dual-face normal.
//! assert_eq!(mesh.edges.len(), mesh.edge_coef.len());
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod dual;
pub mod error;
pub mod gen;
pub mod par;
pub mod refine;
pub mod search;
pub mod sequence;
pub mod stats;
pub mod topology;
pub mod transfer;
pub mod types;
pub mod vec3;
pub mod vtk;

mod mesh;

pub use error::MeshError;
pub use mesh::TetMesh;
pub use sequence::MeshSequence;
pub use stats::MeshStats;
pub use transfer::InterpOps;
pub use types::{BcKind, BoundaryFace, Csr};
pub use vec3::Vec3;
