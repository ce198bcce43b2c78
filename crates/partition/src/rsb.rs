//! Recursive spectral bisection (RSB) partitioning, the strategy the
//! paper uses for the Touchstone Delta runs (§4.1, reference \[10\]).
//!
//! Each recursion computes the Fiedler vector of the subgraph induced by
//! the current vertex set, sorts the vertices by Fiedler value and splits
//! them at the weighted median so child part counts can be any integers
//! (not just powers of two). As the paper observes (§2.4, §6), this is
//! *expensive* — comparable to a whole flow solution — which our Table-2
//! harness reports too.

use crate::bisection::{recursive_bisection, Split};
use crate::spectral::{lanczos_fiedler, Graph};

/// The flat-RSB partition behind [`crate::FlatRsb`]: every bisection
/// runs Lanczos on its whole induced subgraph and cuts the Fiedler order
/// at the weighted median. Returns the part id of every vertex and the
/// summed Lanczos iterations.
pub(crate) fn rsb(
    nverts: usize,
    edges: &[[u32; 2]],
    nparts: usize,
    lanczos_iters: usize,
    seed: u64,
) -> (Vec<u32>, usize) {
    recursive_bisection(
        nverts,
        edges,
        nparts,
        |verts, local_edges, w_left, w_right| {
            let n = verts.len();
            let g = Graph::from_edges(n, local_edges);
            let solve = lanczos_fiedler(n, |x, y| g.laplacian_matvec(x, y), lanczos_iters, seed);
            let f = solve.vector;
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by(|&a, &b| {
                f[a as usize]
                    .partial_cmp(&f[b as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            Split {
                order,
                cut: n * w_left / (w_left + w_right),
                iterations: solve.iterations,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::recount;
    use eul3d_mesh::gen::unit_box;

    fn flat(nverts: usize, edges: &[[u32; 2]], nparts: usize, iters: usize, seed: u64) -> Vec<u32> {
        rsb(nverts, edges, nparts, iters, seed).0
    }

    #[test]
    fn rsb_balances_a_box() {
        let m = unit_box(6, 0.15, 2);
        let p = flat(m.nverts(), &m.edges, 4, 30, 1);
        let q = recount(&p, 4, &m.edges);
        assert!(q.balance < 1.10, "imbalance {:?}", q);
        assert!(q.edge_cut > 0);
        // RSB on a box should cut far fewer edges than random assignment.
        let pr = crate::random_partition(m.nverts(), 4, 1);
        let qr = recount(&pr, 4, &m.edges);
        assert!(
            (q.edge_cut as f64) < 0.5 * qr.edge_cut as f64,
            "rsb {} vs random {}",
            q.edge_cut,
            qr.edge_cut
        );
    }

    #[test]
    fn rsb_handles_non_power_of_two() {
        let m = unit_box(5, 0.1, 3);
        let p = flat(m.nverts(), &m.edges, 3, 25, 2);
        let q = recount(&p, 3, &m.edges);
        assert!(q.balance < 1.15, "{q:?}");
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
