//! The two vertex-gather kernels against the edge-scatter kernels they
//! replaced on the solver path: `to_bits` equality on random edge lists,
//! so the ordering argument in `verts.rs` is checked, not just stated.
//!
//! The edge kernels stay in the crate as exactly this oracle (and as
//! the referee's probe target).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use eul3d_kernels::{
    jst_gather_verts, jst_pass1_edges, neighbour_sum_verts, smooth_accumulate_edges, EdgeSpan,
    ScatterAccess, DEFAULT_LANES, NVAR,
};
use eul3d_mesh::topology::vertex_vertex_adjacency;
use eul3d_mesh::Csr;
use proptest::prelude::*;

/// Values that stress the bit-identity argument: both zeros (equal
/// endpoints give `+0.0` one way round and `−0.0` the other),
/// subnormals, magnitudes far enough apart to round, and exact repeats.
const PALETTE: [f64; 12] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.0,
    -1.0,
    1.0 / 3.0,
    1e150,
    -1e150,
    1e-150,
    0.1,
];

/// One drawn value: a palette entry, or (index past the palette) the
/// accompanying uniform draw.
fn value((pick, uniform): (usize, f64)) -> f64 {
    PALETTE.get(pick).copied().unwrap_or(uniform)
}

/// `raw` folded onto `n` vertices with self-loops dropped, in one of
/// three orders: lexicographic (a mesh's own), reversed with the
/// endpoints swapped (descending ids), or as drawn (shuffled). Vertices
/// `≥ live` are never an endpoint, so isolated rows occur whenever
/// `live < n`.
fn edge_list(n: usize, live: usize, raw: &[(u32, u32)], order: u8) -> Vec<[u32; 2]> {
    let live = live.clamp(1, n) as u32;
    let mut edges: Vec<[u32; 2]> = raw
        .iter()
        .map(|&(a, b)| [a % live, b % live])
        .filter(|[a, b]| a != b)
        .collect();
    match order {
        0 => edges.sort_unstable(),
        1 => {
            edges.sort_unstable();
            edges.reverse();
            edges.iter_mut().for_each(|e| e.swap(0, 1));
        }
        _ => {}
    }
    edges
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Run `f` against fresh targets of the given lengths, each filled
/// with `fill`.
fn run(fill: f64, sizes: &[usize], f: impl Fn(&ScatterAccess)) -> Vec<Vec<f64>> {
    let mut bufs: Vec<Vec<f64>> = sizes.iter().map(|&len| vec![fill; len]).collect();
    {
        let mut refs: Vec<&mut [f64]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
        f(&ScatterAccess::new(&mut refs));
    }
    bufs
}

/// A gather into NaN-filled targets: rows it does not visit stay NaN,
/// so a stray or missing store cannot hide.
fn gather(sizes: &[usize], f: impl Fn(&ScatterAccess)) -> Vec<Vec<f64>> {
    run(f64::NAN, sizes, f)
}

/// The edge-loop oracle: zero-filled targets, one serial span.
fn scatter(sizes: &[usize], f: impl Fn(&ScatterAccess)) -> Vec<Vec<f64>> {
    run(0.0, sizes, f)
}

/// Rows `0..k` then `k..n` of a gather, into one set of targets.
fn gather_split(
    sizes: &[usize],
    n: usize,
    k: usize,
    f: impl Fn(std::ops::Range<usize>, &ScatterAccess),
) -> Vec<Vec<f64>> {
    gather(sizes, |s| {
        f(0..k, s);
        f(k..n, s);
    })
}

fn adjacency(n: usize, edges: &[[u32; 2]]) -> Csr {
    let adj = vertex_vertex_adjacency(n, edges);
    assert_eq!(adj.len(), n);
    assert_eq!(adj.items.len(), 2 * edges.len());
    adj
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    // SAFETY (every kernel call below): single-threaded; every plane is
    // sized `nc * n`, every edge endpoint is `< n`, and the adjacency is
    // built over the same `n` and edge list.

    #[test]
    fn neighbour_sum_matches_the_edge_scatter(
        n in 1usize..47,
        live in 1usize..47,
        raw in collection::vec((0u32..1000, 0u32..1000), 0..160),
        order in 0u8..3,
        draws in collection::vec((0usize..18, -2.0f64..2.0), NVAR * 47),
        k in 0usize..47,
    ) {
        let edges = edge_list(n, live, &raw, order);
        let adj = adjacency(n, &edges);
        let res: Vec<f64> = draws[..NVAR * n].iter().copied().map(value).collect();
        let sizes = [NVAR * n];

        let want = scatter(&sizes, |s| unsafe {
            smooth_accumulate_edges(
                &EdgeSpan::Range(0..edges.len()), &edges, &res, n, s, DEFAULT_LANES,
            )
        });
        let got = gather(&sizes, |s| unsafe { neighbour_sum_verts(0..n, &adj, &res, n, s) });
        prop_assert_eq!(bits(&got[0]), bits(&want[0]));

        let split = gather_split(&sizes, n, k.min(n), |r, s| unsafe {
            neighbour_sum_verts(r, &adj, &res, n, s)
        });
        prop_assert_eq!(bits(&split[0]), bits(&want[0]));
    }

    #[test]
    fn jst_gather_matches_the_edge_scatter(
        n in 1usize..47,
        live in 1usize..47,
        raw in collection::vec((0u32..1000, 0u32..1000), 0..160),
        order in 0u8..3,
        draws in collection::vec((0usize..18, -2.0f64..2.0), (NVAR + 1) * 47),
        k in 0usize..47,
    ) {
        let edges = edge_list(n, live, &raw, order);
        let adj = adjacency(n, &edges);
        let vals: Vec<f64> = draws.iter().copied().map(value).collect();
        let (w, p) = (&vals[..NVAR * n], &vals[NVAR * n..(NVAR + 1) * n]);
        let sizes = [NVAR * n, 2 * n];

        let want = scatter(&sizes, |s| unsafe {
            jst_pass1_edges(&EdgeSpan::Range(0..edges.len()), &edges, w, p, n, s, DEFAULT_LANES)
        });
        let got = gather(&sizes, |s| unsafe { jst_gather_verts(0..n, &adj, w, p, n, s) });
        prop_assert_eq!(bits(&got[0]), bits(&want[0]), "lapl");
        prop_assert_eq!(bits(&got[1]), bits(&want[1]), "sens");

        let split = gather_split(&sizes, n, k.min(n), |r, s| unsafe {
            jst_gather_verts(r, &adj, w, p, n, s)
        });
        prop_assert_eq!(bits(&split[0]), bits(&want[0]), "lapl, split at {}", k.min(n));
        prop_assert_eq!(bits(&split[1]), bits(&want[1]), "sens, split at {}", k.min(n));
    }
}

/// A sub-range call writes its own rows and nothing else.
#[test]
fn a_sub_range_touches_only_its_rows() {
    let n = 7;
    let edges = [[0u32, 1], [1, 2], [2, 3], [5, 6], [6, 0]];
    let adj = adjacency(n, &edges);
    let res: Vec<f64> = (0..NVAR * n).map(|i| i as f64).collect();
    let out = gather(&[NVAR * n], |s| unsafe {
        neighbour_sum_verts(2..5, &adj, &res, n, s)
    });
    for c in 0..NVAR {
        for i in 0..n {
            let x = out[0][c * n + i];
            assert_eq!(x.is_nan(), !(2..5).contains(&i), "plane {c} row {i}: {x}");
        }
    }
    // Row 4 is isolated: its sum is +0.0, not left unwritten.
    assert_eq!(out[0][4].to_bits(), 0.0f64.to_bits());
}
