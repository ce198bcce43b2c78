//! Recursive spectral bisection (RSB) partitioning, the strategy the
//! paper uses for the Touchstone Delta runs (§4.1, reference \[10\]).
//!
//! Each recursion computes the Fiedler vector of the subgraph induced by
//! the current vertex set, sorts the vertices by Fiedler value and splits
//! them at the weighted median so child part counts can be any integers
//! (not just powers of two). As the paper observes (§2.4, §6), this is
//! *expensive* — comparable to a whole flow solution — which our Table-2
//! harness reports too.

use crate::spectral::{fiedler_vector_tol, Graph};

/// The flat-RSB driver behind the [`crate::FlatRsb`] partitioner:
/// recursion over induced subgraphs, with the per-bisection Lanczos
/// iteration counts summed for the plan. Returns the part id of every
/// vertex and that sum.
pub(crate) fn rsb_with_stats(
    nverts: usize,
    edges: &[[u32; 2]],
    nparts: usize,
    lanczos_iters: usize,
    tol: f64,
    seed: u64,
) -> (Vec<u32>, usize) {
    assert!(nparts >= 1);
    let mut parts = vec![0u32; nverts];
    let mut fiedler_iters = 0usize;
    if nparts == 1 || nverts == 0 {
        return (parts, fiedler_iters);
    }
    let all: Vec<u32> = (0..nverts as u32).collect();
    // Scratch global→local map shared across bisections: each bisection
    // overwrites the slots of exactly the vertices it owns, and its edge
    // list touches no others, so stale entries are never read.
    let mut local_of = vec![0u32; nverts];
    let mut stack = vec![(all, edges.to_vec(), 0u32, nparts)];
    while let Some((verts, sub_edges, base, np)) = stack.pop() {
        if np == 1 || verts.len() <= 1 {
            for &v in &verts {
                parts[v as usize] = base;
            }
            continue;
        }
        let np_left = np / 2;
        let np_right = np - np_left;
        let (left, right, le, re, iters) = bisect(
            &verts,
            &sub_edges,
            np_left,
            np_right,
            lanczos_iters,
            tol,
            seed,
            &mut local_of,
        );
        fiedler_iters += iters;
        stack.push((left, le, base, np_left));
        stack.push((right, re, base + np_left as u32, np_right));
    }
    (parts, fiedler_iters)
}

/// Bisect one vertex subset along its Fiedler vector at the weighted
/// median. Returns the two subsets, the edge lists induced on each, and
/// the Lanczos iterations the Fiedler solve used.
#[allow(clippy::type_complexity)]
#[allow(clippy::too_many_arguments)]
fn bisect(
    verts: &[u32],
    edges: &[[u32; 2]],
    w_left: usize,
    w_right: usize,
    lanczos_iters: usize,
    tol: f64,
    seed: u64,
    local_of: &mut [u32],
) -> (Vec<u32>, Vec<u32>, Vec<[u32; 2]>, Vec<[u32; 2]>, usize) {
    let n = verts.len();
    // Local renumbering for the subgraph, through the caller's dense
    // scratch map (every edge endpoint is in `verts` by construction).
    for (l, &g) in verts.iter().enumerate() {
        local_of[g as usize] = l as u32;
    }
    let local_edges: Vec<[u32; 2]> = edges
        .iter()
        .map(|&[a, b]| [local_of[a as usize], local_of[b as usize]])
        .collect();
    let g = Graph::from_edges(n, &local_edges);
    let solve = fiedler_vector_tol(&g, lanczos_iters, tol, seed);
    let f = solve.vector;

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        f[a as usize]
            .partial_cmp(&f[b as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    let cut = n * w_left / (w_left + w_right);
    let left: Vec<u32> = order[..cut].iter().map(|&l| verts[l as usize]).collect();
    let right: Vec<u32> = order[cut..].iter().map(|&l| verts[l as usize]).collect();

    let mut side = vec![false; n];
    for &l in &order[..cut] {
        side[l as usize] = true;
    }
    let mut le = Vec::new();
    let mut re = Vec::new();
    for &[a, b] in &local_edges {
        match (side[a as usize], side[b as usize]) {
            (true, true) => le.push([verts[a as usize], verts[b as usize]]),
            (false, false) => re.push([verts[a as usize], verts[b as usize]]),
            _ => {} // cut edge: dropped from both induced subgraphs
        }
    }
    (left, right, le, re, solve.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::PartitionQuality;
    use eul3d_mesh::gen::unit_box;

    /// Flat RSB through the modern entry point, positional-style.
    fn flat(nverts: usize, edges: &[[u32; 2]], nparts: usize, iters: usize, seed: u64) -> Vec<u32> {
        rsb_with_stats(nverts, edges, nparts, iters, 0.0, seed).0
    }

    #[test]
    fn rsb_balances_a_box() {
        let m = unit_box(6, 0.15, 2);
        let p = flat(m.nverts(), &m.edges, 4, 30, 1);
        let q = PartitionQuality::compute(&p, 4, &m.edges);
        assert!(q.max_imbalance < 1.10, "imbalance {:?}", q);
        assert!(q.cut_edges > 0);
        // RSB on a box should cut far fewer edges than random assignment.
        let pr = crate::random_partition(m.nverts(), 4, 1);
        let qr = PartitionQuality::compute(&pr, 4, &m.edges);
        assert!(
            (q.cut_edges as f64) < 0.5 * qr.cut_edges as f64,
            "rsb {} vs random {}",
            q.cut_edges,
            qr.cut_edges
        );
    }

    #[test]
    fn rsb_handles_non_power_of_two() {
        let m = unit_box(5, 0.1, 3);
        let p = flat(m.nverts(), &m.edges, 3, 25, 2);
        let q = PartitionQuality::compute(&p, 3, &m.edges);
        assert!(q.max_imbalance < 1.15, "{q:?}");
        for r in 0..3u32 {
            assert!(p.contains(&r), "part {r} empty");
        }
    }

    #[test]
    fn rsb_single_part_is_identity() {
        let m = unit_box(3, 0.0, 0);
        let p = flat(m.nverts(), &m.edges, 1, 10, 0);
        assert!(p.iter().all(|&x| x == 0));
    }

    #[test]
    fn rsb_two_parts_splits_geometry() {
        // On a box graph the spectral split should be roughly geometric:
        // the two halves' centroids must be well separated.
        let m = unit_box(6, 0.0, 0);
        let p = flat(m.nverts(), &m.edges, 2, 40, 4);
        let centroid = |part: u32| {
            let pts: Vec<_> = m
                .coords
                .iter()
                .zip(&p)
                .filter(|(_, &r)| r == part)
                .map(|(c, _)| *c)
                .collect();
            pts.iter().fold(eul3d_mesh::Vec3::ZERO, |a, &b| a + b) / pts.len() as f64
        };
        let d = centroid(0).dist(centroid(1));
        assert!(
            d > 0.25,
            "halves should be spatially separated, centroid dist {d}"
        );
    }
}
