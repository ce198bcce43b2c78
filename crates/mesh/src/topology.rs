//! Topology extraction: unique edge lists, vertex–vertex adjacency, tet
//! face neighbours, and boundary-face discovery — all walked from one
//! vertex → tet incidence ([`vertex_tets`]), so no builder sorts a global
//! list or hashes a face.

use crate::error::MeshError;
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

/// Vertex → tet incidence: row `v` lists every tet containing `v`, in
/// ascending tet order. Every other topology builder walks these rows.
pub fn vertex_tets(nverts: usize, tets: &[[u32; 4]]) -> Csr {
    Csr::from_pairs(
        nverts,
        tets.iter()
            .enumerate()
            .flat_map(|(ti, t)| t.map(|v| (v, ti as u32))),
    )
}

/// The unique undirected edges as forward-neighbour rows: row `a` lists
/// every `b > a` sharing a tet with `a`, ascending. Concatenated, the rows
/// are the lexicographically sorted edge list `[a, b]`, `a < b`, which
/// clusters the edges incident to low-numbered vertices (the cache
/// ordering of §4.2 falls out of vertex numbering alone), and
/// `offsets[a]` is the index of `a`'s first edge in that list. `vt` must
/// be the tets' [`vertex_tets`].
pub fn forward_edges(tets: &[[u32; 4]], vt: &Csr) -> Csr {
    let nverts = vt.len();
    // `seen[b] == a` marks `b` as already in row `a`.
    let mut seen = vec![u32::MAX; nverts];
    let mut offsets = Vec::with_capacity(nverts + 1);
    let mut items = Vec::new();
    offsets.push(0u32);
    for a in 0..nverts as u32 {
        let start = items.len();
        for &ti in vt.row(a as usize) {
            for &b in &tets[ti as usize] {
                if b > a && seen[b as usize] != a {
                    seen[b as usize] = a;
                    items.push(b);
                }
            }
        }
        items[start..].sort_unstable();
        offsets.push(items.len() as u32);
    }
    Csr { offsets, items }
}

/// The edge list spelled out by forward rows: `[a, b]` for every `b` in
/// row `a`, in row order.
pub fn edge_list(fwd: &Csr) -> Vec<[u32; 2]> {
    let mut edges = Vec::with_capacity(fwd.items.len());
    for a in 0..fwd.len() {
        edges.extend(fwd.row(a).iter().map(|&b| [a as u32, b]));
    }
    edges
}

/// Index of edge `(a, b)` (either order) in the edge list of the forward
/// rows `fwd`: a scan of the lower endpoint's short row.
#[inline]
pub fn edge_index(fwd: &Csr, a: u32, b: u32) -> Option<usize> {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let lo = lo as usize;
    if lo >= fwd.len() {
        return None;
    }
    let k = fwd.row(lo).iter().position(|&x| x == hi)?;
    Some(fwd.offsets[lo] as usize + k)
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

/// For every tet, the tet sharing each of its four faces (`TET_FACES`
/// order), or `u32::MAX` when the face lies on the boundary. `vt` must be
/// the tets' [`vertex_tets`].
///
/// Each face is searched once, from the lowest tet holding it: its
/// partner is the one later tet in the incidence row of the face's first
/// vertex that also holds the other two, and both slots are filled. A
/// face held by three or more tets is a [`MeshError::NonConformingFace`].
pub fn tet_neighbors(tets: &[[u32; 4]], vt: &Csr) -> Result<Vec<[u32; 4]>, MeshError> {
    let mut nbrs = vec![[u32::MAX; 4]; tets.len()];
    // `upto[v]`: entries of row `v` up to and including the current tet,
    // so `row(v)[upto[v]..]` are the later tets holding `v`.
    let mut upto = vec![0u32; vt.len()];
    for (ti, t) in tets.iter().enumerate() {
        for &v in t {
            upto[v as usize] += 1;
        }
        for (fi, lf) in TET_FACES.iter().enumerate() {
            if nbrs[ti][fi] != u32::MAX {
                continue;
            }
            let [x, y, z] = lf.map(|k| t[k]);
            // A lower tet holding this face would have filled the slot,
            // so only later tets can.
            let later = &vt.row(x as usize)[upto[x as usize] as usize..];
            let mut holders = later.iter().filter(|&&s| {
                let sv = &tets[s as usize];
                sv.contains(&y) && sv.contains(&z)
            });
            let Some(&s) = holders.next() else { continue };
            if holders.next().is_some() {
                let mut face = [x, y, z];
                face.sort_unstable();
                return Err(MeshError::NonConformingFace { face });
            }
            nbrs[ti][fi] = s;
            // The partner's face is the one opposite its vertex off this face.
            let sv = tets[s as usize];
            if let Some(fs) = sv.iter().position(|&v| v != x && v != y && v != z) {
                nbrs[s as usize][fs] = ti as u32;
            }
        }
    }
    Ok(nbrs)
}

/// Faces with no neighbour across them (`nbrs` from [`tet_neighbors`]),
/// returned sorted as oriented (outward) vertex triples in `TET_FACES`
/// winding.
pub fn boundary_faces(tets: &[[u32; 4]], nbrs: &[[u32; 4]]) -> Vec<[u32; 3]> {
    let mut out = Vec::new();
    for (t, n) in tets.iter().zip(nbrs) {
        for (lf, &other) in TET_FACES.iter().zip(n) {
            if other == u32::MAX {
                out.push(lf.map(|k| t[k]));
            }
        }
    }
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

    fn edges_of(nverts: usize, tets: &[[u32; 4]]) -> Vec<[u32; 2]> {
        edge_list(&forward_edges(tets, &vertex_tets(nverts, tets)))
    }

    #[test]
    fn incidence_rows_list_tets_in_order() {
        let vt = vertex_tets(5, &two_tets());
        assert_eq!(vt.row(0), &[0]);
        assert_eq!(vt.row(2), &[0, 1]);
        assert_eq!(vt.row(4), &[1]);
    }

    #[test]
    fn edges_of_single_tet() {
        let edges = edges_of(4, &[[0, 1, 2, 3]]);
        assert_eq!(edges, vec![[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]);
    }

    #[test]
    fn shared_edges_are_deduplicated() {
        // 6 + 6 edges with 3 shared (1-2, 1-3, 2-3) => 9 unique, sorted
        // whatever the tets' vertex order.
        let edges = edges_of(5, &[[3, 1, 0, 2], [4, 2, 1, 3]]);
        let mut expect = edges_of(5, &two_tets());
        assert_eq!(edges.len(), 9);
        assert_eq!(edges, expect);
        expect.sort_unstable();
        assert_eq!(edges, expect);
    }

    #[test]
    fn edge_index_both_orders() {
        let tets = two_tets();
        let fwd = forward_edges(&tets, &vertex_tets(5, &tets));
        let edges = edge_list(&fwd);
        let e = edge_index(&fwd, 2, 1).unwrap();
        assert_eq!(edges[e], [1, 2]);
        assert_eq!(edge_index(&fwd, 1, 2), Some(e));
        assert_eq!(edge_index(&fwd, 3, 4), Some(edges.len() - 1));
        assert_eq!(edge_index(&fwd, 0, 4), None);
        assert_eq!(edge_index(&fwd, 9, 4), None);
    }

    #[test]
    fn vertex_adjacency_rows_follow_edge_order() {
        let edges = edges_of(5, &two_tets());
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
        let tets = two_tets();
        let nbrs = tet_neighbors(&tets, &vertex_tets(5, &tets)).unwrap();
        // tet 0's face opposite vertex 0 is (1,2,3): shared with tet 1.
        assert_eq!(nbrs[0][0], 1);
        assert_eq!(nbrs[0][1], u32::MAX);
        // tet 1 = [1,2,3,4]; its face opposite local vertex 3 (value 4) is
        // (1,2,3) in some winding: shared with tet 0.
        assert_eq!(nbrs[1][3], 0);
    }

    fn boundary_of(nverts: usize, tets: &[[u32; 4]]) -> Vec<[u32; 3]> {
        boundary_faces(
            tets,
            &tet_neighbors(tets, &vertex_tets(nverts, tets)).unwrap(),
        )
    }

    #[test]
    fn boundary_of_single_tet_is_all_faces() {
        let bf = boundary_of(4, &[[0, 1, 2, 3]]);
        assert_eq!(bf, vec![[0, 1, 3], [0, 2, 1], [0, 3, 2], [1, 2, 3]]);
    }

    #[test]
    fn boundary_of_two_tets_drops_shared_face() {
        let bf = boundary_of(5, &two_tets());
        assert_eq!(bf.len(), 6);
        for f in &bf {
            let mut k = *f;
            k.sort_unstable();
            assert_ne!(k, [1, 2, 3], "shared face must not be on the boundary");
        }
    }

    #[test]
    fn face_of_three_tets_is_a_typed_error() {
        // Three tets fanned around face (1,2,3), in every order.
        let fan = [[0, 1, 2, 3], [1, 2, 3, 4], [1, 3, 2, 5]];
        for tets in [fan, [fan[2], fan[0], fan[1]], [fan[1], fan[2], fan[0]]] {
            assert_eq!(
                tet_neighbors(&tets, &vertex_tets(6, &tets)).err(),
                Some(MeshError::NonConformingFace { face: [1, 2, 3] })
            );
        }
    }
}
