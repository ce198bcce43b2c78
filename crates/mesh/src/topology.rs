//! Topology extraction: unique edge lists, vertex–vertex adjacency, tet
//! face neighbours, and boundary-face discovery.

use std::collections::HashMap;

use crate::types::Csr;

/// The six edges of a tetrahedron as local vertex pairs `(a, b)`, together
/// with the remaining pair `(c, d)` ordered so that `(a, b, c, d)` is an
/// even permutation of `(0, 1, 2, 3)`. The even ordering is what gives the
/// median-dual face piece for the edge a consistent `a → b` orientation in
/// positively-oriented tets (see [`crate::dual`]).
pub const TET_EDGES: [[usize; 4]; 6] = [
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [1, 2, 0, 3],
    [1, 3, 2, 0],
    [2, 3, 0, 1],
];

/// The four faces of a tetrahedron, wound so that for a positively-oriented
/// tet the right-hand rule gives the **outward** normal. `TET_FACES[k]` is
/// the face opposite local vertex `k`.
pub const TET_FACES: [[usize; 3]; 4] = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]];

/// Extract the unique undirected edge list of a tet mesh. Each edge is
/// stored as `[a, b]` with `a < b`; the list is sorted lexicographically,
/// which clusters the edges incident to low-numbered vertices (the cache
/// ordering of §4.2 falls out of vertex numbering alone).
pub fn extract_edges(tets: &[[u32; 4]]) -> Vec<[u32; 2]> {
    let mut edges: Vec<[u32; 2]> = Vec::with_capacity(tets.len() * 6);
    for t in tets {
        for le in &TET_EDGES {
            let a = t[le[0]];
            let b = t[le[1]];
            edges.push(if a < b { [a, b] } else { [b, a] });
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Locate the index of edge `(a, b)` (any order) in a lexicographically
/// sorted edge list built by [`extract_edges`].
#[inline]
pub fn find_edge(edges: &[[u32; 2]], a: u32, b: u32) -> Option<usize> {
    let key = if a < b { [a, b] } else { [b, a] };
    edges.binary_search(&key).ok()
}

/// Vertex → neighbour-vertex CSR adjacency: row `i` lists the other
/// endpoint of every edge incident to `i`, **in ascending edge order**
/// ([`Csr::from_pairs`] keeps input order within a row). A gather over
/// row `i` therefore visits `i`'s neighbours in exactly the order an
/// edge loop over `edges` would have scattered into slot `i` — the
/// property the solver's vertex-gather kernels rely on to reproduce the
/// edge loops bit for bit.
pub fn vertex_vertex_adjacency(nverts: usize, edges: &[[u32; 2]]) -> Csr {
    // `flat_map` of a clonable closure over a slice iterator is Clone.
    Csr::from_pairs(nverts, edges.iter().flat_map(|&[a, b]| [(a, b), (b, a)]))
}

/// Incident-edge count of every vertex.
pub fn vertex_degrees(nverts: usize, edges: &[[u32; 2]]) -> Vec<u32> {
    let mut deg = vec![0u32; nverts];
    for &[a, b] in edges {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    deg
}

/// Key identifying a face independent of winding: the sorted vertex triple.
#[inline]
fn face_key(mut f: [u32; 3]) -> [u32; 3] {
    f.sort_unstable();
    f
}

/// For every tet, the tet sharing each of its four faces (`TET_FACES`
/// order), or `u32::MAX` when the face lies on the boundary.
pub fn tet_neighbors(tets: &[[u32; 4]]) -> Vec<[u32; 4]> {
    let mut map: HashMap<[u32; 3], (u32, u8)> = HashMap::with_capacity(tets.len() * 2);
    let mut nbrs = vec![[u32::MAX; 4]; tets.len()];
    for (ti, t) in tets.iter().enumerate() {
        for (fi, lf) in TET_FACES.iter().enumerate() {
            let key = face_key([t[lf[0]], t[lf[1]], t[lf[2]]]);
            match map.remove(&key) {
                Some((other_t, other_f)) => {
                    nbrs[ti][fi] = other_t;
                    nbrs[other_t as usize][other_f as usize] = ti as u32;
                }
                None => {
                    map.insert(key, (ti as u32, fi as u8));
                }
            }
        }
    }
    nbrs
}

/// Faces that belong to exactly one tet, returned as oriented (outward)
/// vertex triples in `TET_FACES` winding.
pub fn boundary_faces(tets: &[[u32; 4]]) -> Vec<[u32; 3]> {
    let mut map: HashMap<[u32; 3], [u32; 3]> = HashMap::with_capacity(tets.len());
    for t in tets {
        for lf in &TET_FACES {
            let oriented = [t[lf[0]], t[lf[1]], t[lf[2]]];
            let key = face_key(oriented);
            if map.remove(&key).is_none() {
                map.insert(key, oriented);
            }
        }
    }
    let mut out: Vec<[u32; 3]> = map.into_values().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tets sharing face (1,2,3).
    fn two_tets() -> Vec<[u32; 4]> {
        vec![[0, 1, 2, 3], [1, 2, 3, 4]]
    }

    #[test]
    fn edges_of_single_tet() {
        let edges = extract_edges(&[[0, 1, 2, 3]]);
        assert_eq!(edges.len(), 6);
        assert_eq!(edges, vec![[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]);
    }

    #[test]
    fn shared_edges_are_deduplicated() {
        let edges = extract_edges(&two_tets());
        // 6 + 6 edges with 3 shared (1-2, 1-3, 2-3) => 9 unique.
        assert_eq!(edges.len(), 9);
    }

    #[test]
    fn find_edge_both_orders() {
        let edges = extract_edges(&two_tets());
        let e = find_edge(&edges, 2, 1).unwrap();
        assert_eq!(edges[e], [1, 2]);
        assert_eq!(find_edge(&edges, 1, 2), Some(e));
        assert_eq!(find_edge(&edges, 0, 4), None);
    }

    #[test]
    fn vertex_adjacency_rows_follow_edge_order() {
        let edges = extract_edges(&two_tets());
        let adj = vertex_vertex_adjacency(5, &edges);
        assert_eq!(adj.row(0), &[1, 2, 3]);
        assert_eq!(adj.row(1), &[0, 2, 3, 4]);
        assert_eq!(adj.row(4), &[1, 2, 3]);
        // every edge appears exactly twice across all rows
        assert_eq!(adj.items.len(), edges.len() * 2);
        let deg = vertex_degrees(5, &edges);
        for (i, &d) in deg.iter().enumerate() {
            assert_eq!(adj.degree(i), d as usize);
        }
        // A shuffled, unsorted edge list: rows keep the list's order,
        // not the neighbour ids' order.
        let adj = vertex_vertex_adjacency(4, &[[3, 0], [0, 2], [1, 0]]);
        assert_eq!(adj.row(0), &[3, 2, 1]);
        assert_eq!(adj.row(3), &[0]);
    }

    #[test]
    fn neighbors_of_two_tets() {
        let nbrs = tet_neighbors(&two_tets());
        // tet 0's face opposite vertex 0 is (1,2,3): shared with tet 1.
        assert_eq!(nbrs[0][0], 1);
        assert_eq!(nbrs[0][1], u32::MAX);
        // tet 1 = [1,2,3,4]; its face opposite local vertex 3 (value 4) is
        // (1,2,3) in some winding: shared with tet 0.
        assert_eq!(nbrs[1][3], 0);
    }

    #[test]
    fn boundary_of_single_tet_is_all_faces() {
        let bf = boundary_faces(&[[0, 1, 2, 3]]);
        assert_eq!(bf.len(), 4);
    }

    #[test]
    fn boundary_of_two_tets_drops_shared_face() {
        let bf = boundary_faces(&two_tets());
        assert_eq!(bf.len(), 6);
        for f in &bf {
            let mut k = *f;
            k.sort_unstable();
            assert_ne!(k, [1, 2, 3], "shared face must not be on the boundary");
        }
    }
}
