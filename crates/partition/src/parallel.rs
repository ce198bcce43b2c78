//! A **parallel partitioner** — the paper's own future-work item (§6:
//! "More research is required in this area in order to develop more
//! efficient and parallel partitioners").
//!
//! Distributed recursive coordinate bisection running SPMD on the
//! simulated machine: vertices are block-distributed over the ranks;
//! at each of `log2(nparts)` rounds every group of vertices finds its
//! bounding box (all-reduce max), picks the longest axis, locates the
//! median by iterative distributed bisection (counting reductions), and
//! splits. Vertices never move — only their group labels refine — so the
//! only traffic is `O(log nparts · iterations)` small reductions.

use eul3d_delta::{run_spmd, MachineRun, Rank};
use eul3d_mesh::Vec3;

/// Median-search bisection iterations (each halves the coordinate
/// interval; 40 reaches ~1e-12 of the box extent).
const MEDIAN_ITERS: usize = 40;

/// Partition `coords` into `nparts` (a power of two) pieces by
/// distributed RCB over `nranks` simulated ranks. Returns the part label
/// of every vertex (assembled from the ranks' blocks).
pub fn parallel_rcb(coords: &[Vec3], nparts: usize, nranks: usize) -> Vec<u32> {
    assert!(
        nparts.is_power_of_two(),
        "parallel RCB needs a power-of-two part count"
    );
    assert!(nranks >= 1);
    let n = coords.len();
    let depth = nparts.trailing_zeros() as usize;

    let run: MachineRun<(usize, Vec<u32>)> = run_spmd(nranks, |rank| {
        // Block distribution of the vertex ids.
        let lo = n * rank.id / rank.nranks;
        let hi = n * (rank.id + 1) / rank.nranks;
        let mine = &coords[lo..hi];
        let mut labels = vec![0u32; mine.len()];

        for d in 0..depth {
            let ngroups = 1usize << d;
            split_round(rank, mine, &mut labels, ngroups);
        }
        (lo, labels)
    });

    let mut parts = vec![0u32; n];
    for (lo, labels) in run.results {
        parts[lo..lo + labels.len()].copy_from_slice(&labels);
    }
    parts
}

/// One bisection round: every current group splits in two along its
/// longest axis at its (distributed) median.
fn split_round(rank: &mut Rank, mine: &[Vec3], labels: &mut [u32], ngroups: usize) {
    // Per-group bounding boxes: all_reduce_max of (max, -min) per axis.
    let mut acc = vec![f64::NEG_INFINITY; ngroups * 6];
    for (p, &g) in mine.iter().zip(labels.iter()) {
        let b = g as usize * 6;
        acc[b] = acc[b].max(p.x);
        acc[b + 1] = acc[b + 1].max(p.y);
        acc[b + 2] = acc[b + 2].max(p.z);
        acc[b + 3] = acc[b + 3].max(-p.x);
        acc[b + 4] = acc[b + 4].max(-p.y);
        acc[b + 5] = acc[b + 5].max(-p.z);
    }
    let bbox = rank.all_reduce_max(&acc);

    // Longest axis and initial bisection interval per group.
    let mut axis = vec![0usize; ngroups];
    let mut lo = vec![0.0f64; ngroups];
    let mut hi = vec![0.0f64; ngroups];
    let mut ext0 = vec![0.0f64; ngroups];
    for g in 0..ngroups {
        let b = g * 6;
        let ext = [
            bbox[b] + bbox[b + 3],
            bbox[b + 1] + bbox[b + 4],
            bbox[b + 2] + bbox[b + 5],
        ];
        let a = if ext[0] >= ext[1] && ext[0] >= ext[2] {
            0
        } else if ext[1] >= ext[2] {
            1
        } else {
            2
        };
        axis[g] = a;
        lo[g] = -bbox[b + 3 + a];
        hi[g] = bbox[b + a];
        ext0[g] = hi[g] - lo[g];
    }

    // Group populations (for the median target).
    let mut counts = vec![0.0f64; ngroups];
    for &g in labels.iter() {
        counts[g as usize] += 1.0;
    }
    let totals = rank.all_reduce_sum(&counts);

    // Distributed median by bisection: count how many fall below `mid`.
    let mut mid = vec![0.0f64; ngroups];
    for _ in 0..MEDIAN_ITERS {
        for g in 0..ngroups {
            mid[g] = 0.5 * (lo[g] + hi[g]);
        }
        let mut below = vec![0.0f64; ngroups];
        for (p, &g) in mine.iter().zip(labels.iter()) {
            if p.axis(axis[g as usize]) < mid[g as usize] {
                below[g as usize] += 1.0;
            }
        }
        let below = rank.all_reduce_sum(&below);
        for g in 0..ngroups {
            if below[g] < totals[g] / 2.0 {
                lo[g] = mid[g];
            } else {
                hi[g] = mid[g];
            }
        }
    }

    // Lattice-aligned meshes put whole planes of vertices at one
    // coordinate; a pure threshold split would dump each such tie-plane
    // entirely on one side of the median, unbalancing the halves. Count
    // strict-belows and ties around the converged median, then send just
    // enough ties left (in global vertex order, so the result is
    // independent of the rank count) to hit the half-population target.
    let mut tol = vec![0.0f64; ngroups];
    for g in 0..ngroups {
        tol[g] = ext0[g].abs().max(1e-300) * 1e-9;
    }
    // One reduction carries the strict-below totals and the per-rank tie
    // layout (for the global-order prefix offsets).
    let mut payload = vec![0.0f64; ngroups * (1 + rank.nranks)];
    for (p, &g) in mine.iter().zip(labels.iter()) {
        let grp = g as usize;
        let c = p.axis(axis[grp]);
        if c < mid[grp] - tol[grp] {
            payload[grp] += 1.0;
        } else if c <= mid[grp] + tol[grp] {
            payload[ngroups * (1 + rank.id) + grp] += 1.0;
        }
    }
    let red = rank.all_reduce_sum(&payload);

    // How many of MY ties go left: the global tie take-count, minus the
    // ties held by lower-numbered ranks.
    let mut my_take = vec![0.0f64; ngroups];
    for g in 0..ngroups {
        let below_strict = red[g];
        let target = (totals[g] / 2.0).floor();
        let ties_total: f64 = (0..rank.nranks).map(|r| red[ngroups * (1 + r) + g]).sum();
        let take = (target - below_strict).clamp(0.0, ties_total);
        let my_offset: f64 = (0..rank.id).map(|r| red[ngroups * (1 + r) + g]).sum();
        let ties_mine = red[ngroups * (1 + rank.id) + g];
        my_take[g] = (take - my_offset).clamp(0.0, ties_mine);
    }

    // Refine labels: left half keeps 2g, right half becomes 2g+1.
    let mut taken = vec![0.0f64; ngroups];
    for (p, g) in mine.iter().zip(labels.iter_mut()) {
        let grp = *g as usize;
        let c = p.axis(axis[grp]);
        let side = if c < mid[grp] - tol[grp] {
            0
        } else if c <= mid[grp] + tol[grp] && taken[grp] < my_take[grp] {
            taken[grp] += 1.0;
            0
        } else {
            1
        };
        *g = (*g << 1) | side;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::recount;
    use crate::rcb::rcb_partition;
    use eul3d_mesh::gen::unit_box;

    #[test]
    fn parallel_rcb_balances_and_covers() {
        let m = unit_box(6, 0.15, 3);
        let parts = parallel_rcb(&m.coords, 8, 4);
        let q = recount(&parts, 8, &m.edges);
        assert!(q.balance < 1.10, "imbalance {}", q.balance);
        for p in 0..8u32 {
            assert!(parts.contains(&p), "part {p} empty");
        }
    }

    #[test]
    fn parallel_rcb_quality_comparable_to_serial_rcb() {
        let m = unit_box(6, 0.15, 5);
        let pp = parallel_rcb(&m.coords, 8, 5);
        let sp = rcb_partition(&m.coords, 8);
        let qp = recount(&pp, 8, &m.edges);
        let qs = recount(&sp, 8, &m.edges);
        assert!(
            (qp.edge_cut as f64) < 1.4 * qs.edge_cut as f64,
            "parallel cut {} vs serial {}",
            qp.edge_cut,
            qs.edge_cut
        );
    }

    #[test]
    fn rank_count_does_not_change_the_partition() {
        let m = unit_box(5, 0.2, 9);
        let a = parallel_rcb(&m.coords, 4, 1);
        let b = parallel_rcb(&m.coords, 4, 7);
        assert_eq!(
            a, b,
            "the algorithm is deterministic in the data, not the ranks"
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let m = unit_box(3, 0.0, 0);
        parallel_rcb(&m.coords, 6, 2);
    }

    #[test]
    fn communication_is_logarithmic_reductions_only() {
        // Count the traffic: only collectives, no point-to-point halo.
        let m = unit_box(5, 0.15, 2);
        let n = m.nverts();
        let coords = m.coords.clone();
        let run = run_spmd(4, move |rank| {
            let lo = n * rank.id / rank.nranks;
            let hi = n * (rank.id + 1) / rank.nranks;
            let mine = &coords[lo..hi];
            let mut labels = vec![0u32; mine.len()];
            for d in 0..3usize {
                split_round(rank, mine, &mut labels, 1 << d);
            }
        });
        for c in &run.counters {
            assert_eq!(
                c.sent[eul3d_delta::CommClass::Halo as usize].messages,
                0,
                "no halo traffic"
            );
        }
        // Collective rounds: 3 depths × (1 bbox + 1 counts + 40 medians
        // + 1 tie-resolution).
        let collectives =
            run.counters[1].sent[eul3d_delta::CommClass::Collective as usize].messages;
        assert!(collectives <= 3 * (MEDIAN_ITERS as u64 + 3));
    }
}
