//! Node and edge reordering (§4.2): "the edge list was reordered such
//! that all the edges incident on a vertex are listed consecutively …
//! we also performed node renumbering which causes data associated with
//! nodes linked by mesh edges to be stored in nearby memory locations.
//! These optimizations alone improved the single node computational rate
//! by a factor of two."
//!
//! [`TetMesh`] already stores its edge list sorted by (renumbered) vertex
//! ids, so *applying* a good node ordering automatically yields the
//! vertex-clustered edge order. This module provides:
//!
//! * [`rcm_order`] — reverse Cuthill–McKee bandwidth-reducing numbering;
//! * [`apply_vertex_order`] — rebuild a mesh under a new numbering;
//! * [`shuffle_vertices`] / [`shuffle_edges`] — adversarial orders used by
//!   the reordering ablation bench to measure the cache effect.

use eul3d_mesh::{BcKind, TetMesh};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::spectral::Graph;

/// Reverse Cuthill–McKee ordering of the mesh's vertex graph. Returns
/// `order` such that `order[new_id] = old_id`. Handles disconnected
/// graphs by restarting BFS from the lowest-degree unvisited vertex.
pub fn rcm_order(nverts: usize, edges: &[[u32; 2]]) -> Vec<u32> {
    let g = Graph::from_edges(nverts, edges);
    let mut visited = vec![false; nverts];
    let mut order: Vec<u32> = Vec::with_capacity(nverts);

    // Vertices by ascending degree, for seed selection.
    let mut by_degree: Vec<u32> = (0..nverts as u32).collect();
    by_degree.sort_by_key(|&v| g.degree(v as usize));

    let mut queue = std::collections::VecDeque::new();
    for &seed in &by_degree {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<u32> = g
                .neighbors(v as usize)
                .iter()
                .copied()
                .filter(|&u| !visited[u as usize])
                .collect();
            nbrs.sort_by_key(|&u| g.degree(u as usize));
            for u in nbrs {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Random vertex order, the adversarial baseline for the §4.2 ablation.
pub fn random_order(nverts: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..nverts as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// Rebuild a mesh with vertices renumbered by `order` (`order[new] =
/// old`). All derived structures (edge list — and hence edge order —
/// dual metrics, adjacency) are regenerated under the new numbering;
/// boundary-condition tags are preserved.
pub fn apply_vertex_order(mesh: &TetMesh, order: &[u32]) -> TetMesh {
    assert_eq!(order.len(), mesh.nverts());
    let mut new_of_old = vec![u32::MAX; mesh.nverts()];
    for (new, &old) in order.iter().enumerate() {
        new_of_old[old as usize] = new as u32;
    }
    assert!(
        new_of_old.iter().all(|&x| x != u32::MAX),
        "order must be a permutation"
    );
    let coords = order.iter().map(|&old| mesh.coords[old as usize]).collect();
    let tets = mesh
        .tets
        .iter()
        .map(|t| t.map(|v| new_of_old[v as usize]))
        .collect();

    // Carry BC tags over by face key (sorted new-numbered triple).
    let mut kinds: std::collections::HashMap<[u32; 3], BcKind> =
        std::collections::HashMap::with_capacity(mesh.bfaces.len());
    for f in &mesh.bfaces {
        let mut key = f.v.map(|v| new_of_old[v as usize]);
        key.sort_unstable();
        kinds.insert(key, f.kind);
    }
    let mut rebuilt = match TetMesh::from_tets(coords, tets, |_, _| BcKind::FarField) {
        Ok(m) => m,
        Err(e) => unreachable!("renumbering produced an invalid mesh: {e}"),
    };
    for f in &mut rebuilt.bfaces {
        let mut key = f.v;
        key.sort_unstable();
        f.kind = *kinds.get(&key).expect("boundary face lost in renumbering");
    }
    rebuilt
}

/// Randomly permute the *edge array* (and coefficients) in place,
/// destroying the vertex-clustered edge order while keeping the mesh
/// semantically identical. Adversarial baseline for the edge-reordering
/// half of the §4.2 ablation.
pub fn shuffle_edges(mesh: &mut TetMesh, seed: u64) {
    let mut perm: Vec<usize> = (0..mesh.nedges()).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    mesh.edges = perm.iter().map(|&e| mesh.edges[e]).collect();
    mesh.edge_coef = perm.iter().map(|&e| mesh.edge_coef[e]).collect();
}

/// Renumber vertices randomly: the "no locality" starting point the
/// paper's reordering fixed. Returns the rebuilt mesh.
pub fn shuffle_vertices(mesh: &TetMesh, seed: u64) -> TetMesh {
    apply_vertex_order(mesh, &random_order(mesh.nverts(), seed))
}

/// Bandwidth of the edge list: max |a - b| over edges. RCM reduces it;
/// random orders inflate it. Used to quantify reordering quality.
pub fn edge_bandwidth(edges: &[[u32; 2]]) -> u32 {
    edges.iter().map(|&[a, b]| b - a).max().unwrap_or(0)
}

/// Mean |a - b| over edges; a locality proxy closer to what caches see.
pub fn mean_edge_span(edges: &[[u32; 2]]) -> f64 {
    if edges.is_empty() {
        return 0.0;
    }
    edges.iter().map(|&[a, b]| (b - a) as f64).sum::<f64>() / edges.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_mesh::gen::{bump_channel, unit_box, BumpSpec};
    use eul3d_mesh::stats::MeshStats;

    #[test]
    fn rcm_is_a_permutation() {
        let m = unit_box(4, 0.15, 1);
        let order = rcm_order(m.nverts(), &m.edges);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..m.nverts() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_span_vs_random() {
        let m = unit_box(6, 0.15, 2);
        let shuffled = shuffle_vertices(&m, 3);
        let rcm = apply_vertex_order(&shuffled, &rcm_order(shuffled.nverts(), &shuffled.edges));
        let span_rand = mean_edge_span(&shuffled.edges);
        let span_rcm = mean_edge_span(&rcm.edges);
        assert!(
            span_rcm < 0.5 * span_rand,
            "RCM span {span_rcm} should beat random span {span_rand}"
        );
    }

    #[test]
    fn reordered_mesh_is_equivalent() {
        let m = bump_channel(&BumpSpec {
            nx: 10,
            ny: 4,
            nz: 4,
            ..BumpSpec::default()
        });
        let r = shuffle_vertices(&m, 7);
        let sm = MeshStats::compute(&m);
        let sr = MeshStats::compute(&r);
        assert!(sr.is_valid());
        assert_eq!(sm.nverts, sr.nverts);
        assert_eq!(sm.nedges, sr.nedges);
        assert_eq!(sm.ntets, sr.ntets);
        assert_eq!(sm.walls, sr.walls);
        assert_eq!(sm.farfield, sr.farfield);
        assert_eq!(sm.symmetry, sr.symmetry);
        assert!((sm.total_volume - sr.total_volume).abs() < 1e-12);
    }

    #[test]
    fn shuffle_edges_keeps_mesh_valid() {
        let mut m = unit_box(4, 0.1, 4);
        let before = MeshStats::compute(&m);
        shuffle_edges(&mut m, 11);
        let after = MeshStats::compute(&m);
        assert!(after.is_valid());
        assert_eq!(before.nedges, after.nedges);
        // closure is invariant under edge permutation
        assert!(after.closure_max < 1e-12);
    }

    #[test]
    fn bandwidth_helpers() {
        assert_eq!(edge_bandwidth(&[[0, 5], [2, 3]]), 5);
        assert!((mean_edge_span(&[[0, 5], [2, 3]]) - 3.0).abs() < 1e-12);
        assert_eq!(edge_bandwidth(&[]), 0);
    }
}
