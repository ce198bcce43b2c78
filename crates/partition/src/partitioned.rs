//! Per-rank local meshes with ghost vertices — the distributed data
//! layout of §4.1: "the partitioning of the input data causes each of the
//! processors to perform the computation on a separate part of the mesh",
//! with cross-partition edges referencing *ghost* copies of off-processor
//! vertices that the PARTI schedules keep coherent.
//!
//! Conventions:
//! * every **vertex** is owned by exactly one rank (`parts[v]`);
//! * every **edge** is computed by exactly one rank — the owner of its
//!   first endpoint — accumulating into ghost slots for off-rank
//!   endpoints (flushed by `scatter_add`);
//! * every **boundary face** is computed by the owner of its first vertex;
//! * local numbering puts the `n_owned` owned vertices first (in global
//!   order) followed by the ghosts (in ascending global id).

use std::sync::Arc;

use eul3d_mesh::{BoundaryFace, TetMesh, Vec3};

/// One rank's share of the mesh.
#[derive(Debug, Clone)]
pub struct RankMesh {
    pub rank: usize,
    /// Global ids of owned vertices; local id = position.
    pub owned_globals: Vec<u32>,
    /// Global ids of ghost vertices; local id = `n_owned + position`.
    pub ghost_globals: Vec<u32>,
    /// Edges in local numbering; computed by this rank.
    pub edges: Vec<[u32; 2]>,
    /// Edge coefficient per local edge, oriented local `a → b`.
    pub edge_coef: Vec<Vec3>,
    /// Boundary faces in local numbering; computed by this rank.
    pub bfaces: Vec<BoundaryFace>,
    /// Median-dual volume of owned vertices.
    pub vol: Vec<f64>,
}

impl RankMesh {
    pub fn n_owned(&self) -> usize {
        self.owned_globals.len()
    }

    pub fn n_ghost(&self) -> usize {
        self.ghost_globals.len()
    }

    /// Total local slots (owned + ghost) — the length of every local
    /// per-vertex array.
    pub fn n_local(&self) -> usize {
        self.n_owned() + self.n_ghost()
    }
}

/// The full partitioned mesh: all rank meshes plus the global ownership
/// ("translation") tables consumed by the PARTI inspector. A rank's
/// level shares its `RankMesh` instead of copying it.
#[derive(Debug, Clone)]
pub struct PartitionedMesh {
    pub ranks: Vec<Arc<RankMesh>>,
    /// Global vertex → owning rank.
    pub owner: Vec<u32>,
    /// Global vertex → local index on its owner.
    pub owner_local: Vec<u32>,
    pub nparts: usize,
}

impl PartitionedMesh {
    /// Split `mesh` according to the vertex partition `parts`.
    pub fn build(mesh: &TetMesh, parts: &[u32], nparts: usize) -> PartitionedMesh {
        assert_eq!(parts.len(), mesh.nverts());
        assert!(parts.iter().all(|&p| (p as usize) < nparts));

        // Owned vertex lists and owner-local numbering.
        let mut owned_globals: Vec<Vec<u32>> = vec![Vec::new(); nparts];
        let mut owner_local = vec![0u32; mesh.nverts()];
        for (v, &p) in parts.iter().enumerate() {
            owner_local[v] = owned_globals[p as usize].len() as u32;
            owned_globals[p as usize].push(v as u32);
        }

        // Assign edges and boundary faces to the owner of their first
        // endpoint; collect per-rank ghost sets.
        let mut rank_edges: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        for (e, &[a, _b]) in mesh.edges.iter().enumerate() {
            rank_edges[parts[a as usize] as usize].push(e);
        }
        let mut rank_faces: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        for (f, face) in mesh.bfaces.iter().enumerate() {
            rank_faces[parts[face.v[0] as usize] as usize].push(f);
        }

        let mut ranks = Vec::with_capacity(nparts);
        for r in 0..nparts {
            let mut ghost_set: Vec<u32> = Vec::new();
            let note_ghost = |v: u32, ghost_set: &mut Vec<u32>| {
                if parts[v as usize] as usize != r {
                    ghost_set.push(v);
                }
            };
            for &e in &rank_edges[r] {
                let [a, b] = mesh.edges[e];
                note_ghost(a, &mut ghost_set);
                note_ghost(b, &mut ghost_set);
            }
            for &f in &rank_faces[r] {
                for &v in &mesh.bfaces[f].v {
                    note_ghost(v, &mut ghost_set);
                }
            }
            ghost_set.sort_unstable();
            ghost_set.dedup();

            // Local numbering: owned first, then ghosts.
            let n_owned = owned_globals[r].len();
            let local_of = |v: u32| -> u32 {
                if parts[v as usize] as usize == r {
                    owner_local[v as usize]
                } else {
                    let g = ghost_set.binary_search(&v).expect("ghost missing");
                    (n_owned + g) as u32
                }
            };

            let edges: Vec<[u32; 2]> = rank_edges[r]
                .iter()
                .map(|&e| mesh.edges[e].map(&local_of))
                .collect();
            let edge_coef = rank_edges[r].iter().map(|&e| mesh.edge_coef[e]).collect();
            let bfaces = rank_faces[r]
                .iter()
                .map(|&f| {
                    let face = mesh.bfaces[f];
                    BoundaryFace {
                        v: face.v.map(&local_of),
                        ..face
                    }
                })
                .collect();
            let vol = owned_globals[r]
                .iter()
                .map(|&v| mesh.vol[v as usize])
                .collect();

            ranks.push(Arc::new(RankMesh {
                rank: r,
                owned_globals: owned_globals[r].clone(),
                ghost_globals: ghost_set,
                edges,
                edge_coef,
                bfaces,
                vol,
            }));
        }

        PartitionedMesh {
            ranks,
            owner: parts.to_vec(),
            owner_local,
            nparts,
        }
    }

    /// Total ghost slots across ranks — the replicated-data overhead.
    pub fn total_ghosts(&self) -> usize {
        self.ranks.iter().map(|r| r.n_ghost()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatRsb, PartitionOptions, Partitioner};
    use eul3d_mesh::gen::unit_box;

    fn split_box(n: usize, nparts: usize) -> (TetMesh, PartitionedMesh) {
        let m = unit_box(n, 0.15, 8);
        let parts = FlatRsb
            .partition(
                m.nverts(),
                &m.edges,
                &PartitionOptions::new(nparts).seed(3).lanczos_iters(25),
            )
            .unwrap()
            .assignment;
        let pm = PartitionedMesh::build(&m, &parts, nparts);
        (m, pm)
    }

    #[test]
    fn every_vertex_owned_once() {
        let (m, pm) = split_box(4, 4);
        let mut owned = vec![0usize; m.nverts()];
        for rm in &pm.ranks {
            for &g in &rm.owned_globals {
                owned[g as usize] += 1;
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    #[test]
    fn every_edge_assigned_once() {
        let (m, pm) = split_box(4, 4);
        let total: usize = pm.ranks.iter().map(|r| r.edges.len()).sum();
        assert_eq!(total, m.nedges());
        let total_faces: usize = pm.ranks.iter().map(|r| r.bfaces.len()).sum();
        assert_eq!(total_faces, m.bfaces.len());
    }

    #[test]
    fn local_indices_in_range_and_consistent() {
        let (_m, pm) = split_box(4, 3);
        for rm in &pm.ranks {
            let nl = rm.n_local() as u32;
            for &[a, b] in &rm.edges {
                assert!(a < nl && b < nl);
            }
            for f in &rm.bfaces {
                assert!(f.v.iter().all(|&v| v < nl));
            }
            // Owner/local tables agree with the rank's own view.
            for (l, &g) in rm.owned_globals.iter().enumerate() {
                assert_eq!(pm.owner[g as usize] as usize, rm.rank);
                assert_eq!(pm.owner_local[g as usize] as usize, l);
            }
            for &g in &rm.ghost_globals {
                assert_ne!(pm.owner[g as usize] as usize, rm.rank);
            }
        }
    }

    #[test]
    fn edge_coefficients_preserved_globally() {
        // Reassembling Σ ±η per global vertex from all rank meshes must
        // equal the serial mesh's assembly (the closure residual minus
        // boundary terms).
        let (m, pm) = split_box(3, 3);
        let mut global = vec![Vec3::ZERO; m.nverts()];
        for (e, &[a, b]) in m.edges.iter().enumerate() {
            global[a as usize] += m.edge_coef[e];
            global[b as usize] -= m.edge_coef[e];
        }
        let mut dist = vec![Vec3::ZERO; m.nverts()];
        for rm in &pm.ranks {
            let to_global = |l: u32| -> u32 {
                if (l as usize) < rm.n_owned() {
                    rm.owned_globals[l as usize]
                } else {
                    rm.ghost_globals[l as usize - rm.n_owned()]
                }
            };
            for (e, &[a, b]) in rm.edges.iter().enumerate() {
                dist[to_global(a) as usize] += rm.edge_coef[e];
                dist[to_global(b) as usize] -= rm.edge_coef[e];
            }
        }
        for (g, d) in global.iter().zip(&dist) {
            assert!((*g - *d).norm() < 1e-14);
        }
    }

    #[test]
    fn ghosts_shrink_with_fewer_parts() {
        let (_, pm1) = split_box(4, 2);
        let (_, pm2) = split_box(4, 8);
        assert!(pm1.total_ghosts() < pm2.total_ghosts());
    }

    #[test]
    fn single_part_has_no_ghosts() {
        let m = unit_box(3, 0.1, 1);
        let parts = vec![0u32; m.nverts()];
        let pm = PartitionedMesh::build(&m, &parts, 1);
        assert_eq!(pm.total_ghosts(), 0);
        assert_eq!(pm.ranks[0].edges.len(), m.nedges());
    }
}
