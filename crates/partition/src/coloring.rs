//! Greedy edge colouring (§3.1): split the edge loop into groups such
//! that within a group no two edges touch the same vertex, so each group
//! vectorizes (no recurrence) and can be work-shared across CPUs without
//! write conflicts.

use eul3d_mesh::TetMesh;

/// Edge colouring result: `groups[c]` lists the edge indices of colour
/// `c`, each internally sorted (the ascending order keeps the cache
/// behaviour of the underlying edge numbering).
#[derive(Debug, Clone)]
pub struct EdgeColoring {
    pub groups: Vec<Vec<u32>>,
}

impl EdgeColoring {
    /// Number of colours.
    pub fn ncolors(&self) -> usize {
        self.groups.len()
    }

    /// Total edges across groups.
    pub fn nedges(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Length of the shortest group — the paper cares about this because
    /// it bounds the vector length per CPU once groups are subdivided.
    pub fn min_group_len(&self) -> usize {
        self.groups.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Greedy colouring: scan edges in order, give each the smallest colour
/// not already used at either endpoint. Uses per-vertex 128-bit colour
/// masks with a spill path for (pathological) vertices needing more than
/// 128 colours.
pub fn color_edges(mesh: &TetMesh) -> EdgeColoring {
    color_edge_list(mesh.nverts(), &mesh.edges)
}

/// Colour an arbitrary edge list over `nverts` vertices.
pub fn color_edge_list(nverts: usize, edges: &[[u32; 2]]) -> EdgeColoring {
    let mut masks = vec![0u128; nverts];
    // Spill colours (≥ 128) per vertex; empty in practice for tet meshes,
    // whose vertex degrees are a few tens.
    let mut spill: std::collections::HashMap<(u32, u32), ()> = std::collections::HashMap::new();
    let mut colors: Vec<u32> = Vec::with_capacity(edges.len());
    let mut ncolors = 0u32;
    for &[a, b] in edges {
        let used = masks[a as usize] | masks[b as usize];
        let mut c = (!used).trailing_zeros();
        if c >= 128 {
            // Fall back to a linear probe through the spill table.
            c = 128;
            while spill.contains_key(&(a, c)) || spill.contains_key(&(b, c)) {
                c += 1;
            }
            spill.insert((a, c), ());
            spill.insert((b, c), ());
        } else {
            let bit = 1u128 << c;
            masks[a as usize] |= bit;
            masks[b as usize] |= bit;
        }
        ncolors = ncolors.max(c + 1);
        colors.push(c);
    }
    let mut groups = vec![Vec::new(); ncolors as usize];
    for (e, &c) in colors.iter().enumerate() {
        groups[c as usize].push(e as u32);
    }
    EdgeColoring { groups }
}

/// Check that a colouring is a valid recurrence-free grouping of exactly
/// the edges of `edges` (a mesh's, or any grid's). Returns `Err`
/// describing the first violation. One pass over the groups: a vertex is
/// stamped with the group that last touched it.
pub fn validate_coloring(edges: &[[u32; 2]], coloring: &EdgeColoring) -> Result<(), String> {
    let nverts = edges.iter().map(|&[a, b]| a.max(b) as usize + 1).max();
    let mut stamp = vec![usize::MAX; nverts.unwrap_or(0)];
    let mut seen = vec![false; edges.len()];
    for (c, group) in coloring.groups.iter().enumerate() {
        for &e in group {
            let e = e as usize;
            if e >= edges.len() {
                return Err(format!("group {c} references edge {e} out of range"));
            }
            if seen[e] {
                return Err(format!("edge {e} appears twice"));
            }
            seen[e] = true;
            for v in edges[e] {
                if std::mem::replace(&mut stamp[v as usize], c) == c {
                    return Err(format!("group {c}: vertex {v} touched twice"));
                }
            }
        }
    }
    if let Some(e) = seen.iter().position(|&s| !s) {
        return Err(format!("edge {e} never coloured"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_mesh::gen::{bump_channel, unit_box, BumpSpec};

    #[test]
    fn coloring_is_valid_on_jittered_box() {
        let m = unit_box(6, 0.2, 3);
        let c = color_edges(&m);
        validate_coloring(&m.edges, &c).unwrap();
        assert_eq!(c.nedges(), m.nedges());
    }

    #[test]
    fn color_count_is_paper_scale() {
        // The paper reports "typically 20 to 30" groups; greedy colouring
        // of a tet mesh lands in the same few-tens range.
        let m = unit_box(8, 0.2, 5);
        let c = color_edges(&m);
        assert!(
            c.ncolors() >= m.max_degree(),
            "needs at least max-degree colours"
        );
        assert!(
            c.ncolors() < 64,
            "greedy colour count {} unexpectedly high",
            c.ncolors()
        );
    }

    #[test]
    fn coloring_bump_channel() {
        let m = bump_channel(&BumpSpec::default());
        let c = color_edges(&m);
        validate_coloring(&m.edges, &c).unwrap();
    }

    #[test]
    fn single_tet_needs_three_colors() {
        let m = {
            use eul3d_mesh::{BcKind, Vec3};
            eul3d_mesh::TetMesh::from_tets(
                vec![
                    Vec3::ZERO,
                    Vec3::new(1.0, 0.0, 0.0),
                    Vec3::new(0.0, 1.0, 0.0),
                    Vec3::new(0.0, 0.0, 1.0),
                ],
                vec![[0, 1, 2, 3]],
                |_, _| BcKind::FarField,
            )
            .expect("valid mesh")
        };
        let c = color_edges(&m);
        // K4 edge-chromatic number is 3.
        assert_eq!(c.ncolors(), 3);
        validate_coloring(&m.edges, &c).unwrap();
    }

    #[test]
    fn validator_rejects_conflicts() {
        let m = unit_box(2, 0.0, 0);
        let mut c = color_edges(&m);
        // Merge all groups into one: must conflict.
        let all: Vec<u32> = (0..m.nedges() as u32).collect();
        c.groups = vec![all];
        assert!(validate_coloring(&m.edges, &c).is_err());
    }

    #[test]
    fn validator_rejects_missing_edges() {
        let m = unit_box(2, 0.0, 0);
        let mut c = color_edges(&m);
        c.groups.last_mut().unwrap().pop();
        assert!(validate_coloring(&m.edges, &c).is_err());
    }

    /// A path 0-1-2-3 and one triangle 4-5-6: edges 0..=2 and 3..=5.
    const EDGES: [[u32; 2]; 6] = [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [4, 6]];

    fn check(groups: &[&[u32]]) -> Result<(), String> {
        let c = EdgeColoring {
            groups: groups.iter().map(|g| g.to_vec()).collect(),
        };
        validate_coloring(&EDGES, &c)
    }

    #[test]
    fn validator_accepts_a_proper_colouring() {
        assert_eq!(check(&[&[0, 2, 3], &[1, 4], &[5]]), Ok(()));
    }

    #[test]
    fn validator_names_an_edge_out_of_range() {
        let err = check(&[&[0, 2, 3], &[1, 6, 4], &[5]]);
        assert_eq!(err, Err("group 1 references edge 6 out of range".into()));
    }

    #[test]
    fn validator_names_an_edge_coloured_twice() {
        let err = check(&[&[0, 2, 3], &[1, 4], &[5, 3]]);
        assert_eq!(err, Err("edge 3 appears twice".into()));
    }

    #[test]
    fn validator_names_a_vertex_touched_twice_in_a_group() {
        // Edges 2 = [2, 3] and 1 = [1, 2] share vertex 2, the second
        // endpoint of the edge that finds the clash.
        assert_eq!(
            check(&[&[0, 3], &[2, 1, 4], &[5]]),
            Err("group 1: vertex 2 touched twice".into())
        );
        // Edges 3 = [4, 5] and 5 = [4, 6] share vertex 4, a first
        // endpoint; a vertex used in an earlier group is no clash.
        assert_eq!(
            check(&[&[0, 2, 4], &[1, 3, 5]]),
            Err("group 1: vertex 4 touched twice".into())
        );
    }

    #[test]
    fn validator_names_the_first_edge_never_coloured() {
        let err = check(&[&[0, 2], &[1, 4], &[5]]);
        assert_eq!(err, Err("edge 3 never coloured".into()));
    }
}
