//! Kernighan–Lin-style boundary refinement: a greedy local-improvement
//! pass run after a global partitioner (RSB/RCB). The paper's §6 calls
//! for "more efficient … partitioners"; KL refinement is the classic
//! cheap way to claw back cut edges without re-running the spectral
//! machinery.
//!
//! The variant here is a balance-constrained single-move pass (Fiduccia–
//! Mattheyses flavoured): repeatedly move the boundary vertex with the
//! best gain (external − internal degree) to its most-connected
//! neighbouring part, provided the move keeps both parts within the
//! balance tolerance. Passes repeat until no positive-gain move exists.

use crate::spectral::Graph;

/// Refine `parts` in place; returns the number of vertices moved.
///
/// `tol` is the allowed size ratio above the ideal part size (e.g. 1.05
/// allows parts 5% over ideal). Gains are recomputed lazily per pass —
/// this is the simple O(passes · boundary · degree) formulation, plenty
/// for preprocessing-scale work.
pub fn kl_refine(
    nverts: usize,
    edges: &[[u32; 2]],
    parts: &mut [u32],
    nparts: usize,
    tol: f64,
    max_passes: usize,
) -> usize {
    assert_eq!(parts.len(), nverts);
    let g = Graph::from_edges(nverts, edges);
    let ideal = nverts as f64 / nparts as f64;
    let cap = (ideal * tol).floor().max(1.0) as usize;

    let mut sizes = vec![0usize; nparts];
    for &p in parts.iter() {
        sizes[p as usize] += 1;
    }

    let mut moved_total = 0usize;
    let mut counts = vec![0u32; nparts];
    for _pass in 0..max_passes {
        let mut moved_this_pass = 0usize;
        for v in 0..nverts {
            let home = parts[v] as usize;
            if sizes[home] <= 1 {
                continue;
            }
            // Connectivity of v to each part.
            let mut touched: Vec<u32> = Vec::with_capacity(8);
            for &u in g.neighbors(v) {
                let p = parts[u as usize];
                if counts[p as usize] == 0 {
                    touched.push(p);
                }
                counts[p as usize] += 1;
            }
            let internal = counts[home];
            // Best external destination with positive gain and room.
            let mut best: Option<(u32, u32)> = None; // (gain surrogate, part)
            for &p in &touched {
                if p as usize == home {
                    continue;
                }
                let external = counts[p as usize];
                if external > internal
                    && sizes[p as usize] < cap
                    && best.map(|(g0, _)| external > g0).unwrap_or(true)
                {
                    best = Some((external, p));
                }
            }
            for &p in &touched {
                counts[p as usize] = 0;
            }
            if let Some((_, dest)) = best {
                sizes[home] -= 1;
                sizes[dest as usize] += 1;
                parts[v] = dest;
                moved_this_pass += 1;
            }
        }
        moved_total += moved_this_pass;
        if moved_this_pass == 0 {
            break;
        }
    }
    moved_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::recount;
    use crate::{random_partition, FlatRsb, PartitionOptions, Partitioner};
    use eul3d_mesh::gen::unit_box;

    #[test]
    fn kl_improves_a_random_partition_dramatically() {
        let m = unit_box(6, 0.15, 2);
        let nparts = 4;
        let mut parts = random_partition(m.nverts(), nparts, 3);
        let before = recount(&parts, nparts, &m.edges);
        let moved = kl_refine(m.nverts(), &m.edges, &mut parts, nparts, 1.30, 12);
        let after = recount(&parts, nparts, &m.edges);
        assert!(moved > 0);
        assert!(
            after.edge_cut < before.edge_cut / 2,
            "KL should at least halve a random cut: {} -> {}",
            before.edge_cut,
            after.edge_cut
        );
        assert!(after.balance <= 1.35, "{:?}", after.balance);
    }

    #[test]
    fn kl_does_not_hurt_a_good_partition() {
        let m = unit_box(6, 0.15, 4);
        let nparts = 4;
        let mut parts = FlatRsb
            .partition(m.nverts(), &m.edges, &PartitionOptions::new(nparts).seed(1))
            .unwrap()
            .assignment;
        let before = recount(&parts, nparts, &m.edges);
        kl_refine(m.nverts(), &m.edges, &mut parts, nparts, 1.10, 8);
        let after = recount(&parts, nparts, &m.edges);
        assert!(after.edge_cut <= before.edge_cut);
        assert!(after.balance < 1.15);
    }

    #[test]
    fn kl_respects_the_balance_cap() {
        // A path graph where all-in-one-part would be the zero-cut
        // optimum: the cap must prevent collapse.
        let n = 40;
        let edges: Vec<[u32; 2]> = (0..n - 1).map(|i| [i as u32, i as u32 + 1]).collect();
        let mut parts: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        kl_refine(n, &edges, &mut parts, 2, 1.10, 20);
        let q = recount(&parts, 2, &edges);
        assert!(q.balance <= 1.15, "{}", q.balance);
        // An alternating partition cuts every edge; KL should fix most.
        assert!(q.edge_cut < 10, "cut {}", q.edge_cut);
    }

    #[test]
    fn kl_never_empties_a_part() {
        let m = unit_box(3, 0.1, 1);
        let nparts = 8;
        let mut parts = random_partition(m.nverts(), nparts, 9);
        kl_refine(m.nverts(), &m.edges, &mut parts, nparts, 1.5, 10);
        for p in 0..nparts as u32 {
            assert!(parts.contains(&p), "part {p} emptied");
        }
    }
}
