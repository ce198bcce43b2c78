//! Property tests of the preprocessing algorithms over random graphs
//! (not just meshes): connected random graphs are built from a random
//! spanning tree plus extra edges.

use proptest::prelude::*;

use eul3d_partition::coloring::{color_edge_list, validate_coloring};
use eul3d_partition::reorder::{random_order, rcm_order};
use eul3d_partition::{
    coarsen, heavy_edge_matching, kl_refine, multilevel_bisect, FlatRsb, MultilevelParams,
    MultilevelRsb, PartitionOptions, PartitionPlan, Partitioner, WeightedGraph,
};

/// A connected random graph: spanning tree + `extra` random edges.
fn arb_graph(n: usize) -> impl Strategy<Value = Vec<[u32; 2]>> {
    (
        proptest::collection::vec(0u64..u64::MAX, n.saturating_sub(1)),
        proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..2 * n),
    )
        .prop_map(move |(tree_picks, extras)| {
            let mut edges: Vec<[u32; 2]> = Vec::new();
            for (i, pick) in tree_picks.iter().enumerate() {
                let v = (i + 1) as u32;
                let parent = (pick % (i as u64 + 1)) as u32;
                edges.push(if parent < v { [parent, v] } else { [v, parent] });
            }
            for (a, b) in extras {
                if a != b {
                    edges.push(if a < b { [a, b] } else { [b, a] });
                }
            }
            edges.sort_unstable();
            edges.dedup();
            edges
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Greedy colouring of arbitrary graphs: no two edges in one colour
    /// share a vertex; colour count bounded by 2Δ−1.
    #[test]
    fn coloring_valid_on_random_graphs(edges in arb_graph(30)) {
        let n = 30;
        let coloring = color_edge_list(n, &edges);
        prop_assert!(validate_coloring(&edges, &coloring).is_ok());
        let mut deg = vec![0usize; n];
        for &[a, b] in &edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let max_deg = deg.iter().copied().max().unwrap_or(0);
        prop_assert!(coloring.ncolors() <= (2 * max_deg).max(1));
    }

    /// RSB on arbitrary connected graphs: full cover, sane balance.
    #[test]
    fn rsb_on_random_graphs(edges in arb_graph(40), nparts in 2usize..6) {
        let n = 40;
        let opts = PartitionOptions::new(nparts).lanczos_iters(25).seed(3);
        let plan = FlatRsb.partition(n, &edges, &opts).unwrap();
        prop_assert_eq!(plan.assignment.len(), n);
        let cut = edges
            .iter()
            .filter(|&&[a, b]| plan.assignment[a as usize] != plan.assignment[b as usize])
            .count();
        prop_assert!(plan.balance < 1.4, "imbalance {}", plan.balance);
        prop_assert_eq!(plan.edge_cut, cut);
    }

    /// Heavy-edge matching is a valid matching: an involution whose
    /// matched pairs are actual graph edges.
    #[test]
    fn matching_valid_on_random_graphs(edges in arb_graph(32)) {
        let g = WeightedGraph::unit_from_edges(32, &edges);
        let mate = heavy_edge_matching(&g, u64::MAX);
        prop_assert_eq!(mate.len(), 32);
        for v in 0..32u32 {
            let m = mate[v as usize];
            prop_assert_eq!(mate[m as usize], v, "mate[] must be an involution");
            if m != v {
                prop_assert!(
                    g.adj(v as usize).any(|(u, _)| u == m),
                    "matched pair ({v},{m}) is not an edge"
                );
            }
        }
    }

    /// Coarsening conserves both vertex weight and (edge weight +
    /// collapsed matched-pair weight) exactly, level to level.
    #[test]
    fn coarsen_conserves_weight_on_random_graphs(edges in arb_graph(40)) {
        let g = WeightedGraph::unit_from_edges(40, &edges);
        let mate = heavy_edge_matching(&g, u64::MAX);
        let (cg, cmap) = coarsen(&g, &mate);
        prop_assert_eq!(cg.total_vweight(), g.total_vweight());
        let collapsed: u64 = (0..40u32)
            .filter(|&v| mate[v as usize] > v)
            .map(|v| {
                g.adj(v as usize)
                    .find(|&(u, _)| u == mate[v as usize])
                    .map(|(_, w)| w)
                    .unwrap_or(0)
            })
            .sum();
        prop_assert_eq!(cg.total_eweight() + collapsed, g.total_eweight());
        for v in 0..40usize {
            prop_assert!((cmap[v] as usize) < cg.nverts());
            prop_assert_eq!(cmap[v], cmap[mate[v] as usize]);
        }
    }

    /// Multilevel bisection balance stays within the configured
    /// tolerance band of flat RSB's: both sides nonempty and neither
    /// side exceeds the tolerance-scaled target.
    #[test]
    fn multilevel_bisect_balanced_on_random_graphs(edges in arb_graph(48), seed in 0u64..20) {
        let n = 48usize;
        let g = WeightedGraph::unit_from_edges(n, &edges);
        let p = MultilevelParams {
            coarsen_target: 8,
            refine_passes: 4,
            balance_tol: 1.10,
            lanczos_iters: 30,
            seed,
        };
        let (side, _iters) = multilevel_bisect(&g, 1, 1, &p);
        let left = side.iter().filter(|&&s| s).count();
        let right = n - left;
        prop_assert!(left > 0 && right > 0);
        // Weighted split with tol 1.10 on unit weights: each side at
        // most ceil(1.10 * n/2) + 1 vertices (slack for the last move).
        let cap = ((n as f64 / 2.0) * 1.10).ceil() as usize + 1;
        prop_assert!(left <= cap && right <= cap, "split {left}/{right} vs cap {cap}");
    }

    /// Boundary refinement never worsens the bisection cut, from any
    /// starting split on any graph.
    #[test]
    fn refine_never_worsens_on_random_graphs(edges in arb_graph(40), seed in 0u64..50) {
        use eul3d_partition::multilevel::{bisection_cut, refine_bisection};
        let n = 40usize;
        let g = WeightedGraph::unit_from_edges(n, &edges);
        // A random (likely bad) initial split, roughly half-half.
        let start = eul3d_partition::random_partition(n, 2, seed);
        let mut side: Vec<bool> = start.iter().map(|&p| p == 0).collect();
        if side.iter().all(|&s| s) { side[0] = false; }
        if side.iter().all(|&s| !s) { side[0] = true; }
        let before = bisection_cut(&g, &side);
        refine_bisection(&g, &mut side, g.total_vweight() / 2, 1.3, 6);
        let after = bisection_cut(&g, &side);
        prop_assert!(after <= before, "refine worsened cut {before} -> {after}");
        prop_assert!(side.iter().any(|&s| s) && side.iter().any(|&s| !s));
    }

    /// Same seed, same inputs: the full PartitionPlan is byte-identical
    /// for both partitioner implementations.
    #[test]
    fn plans_deterministic_on_random_graphs(edges in arb_graph(36), nparts in 2usize..5, seed in 0u64..20) {
        let opts = PartitionOptions::new(nparts).lanczos_iters(25).seed(seed);
        let a = FlatRsb.partition(36, &edges, &opts).unwrap();
        let b = FlatRsb.partition(36, &edges, &opts).unwrap();
        prop_assert_eq!(a, b);
        let c = MultilevelRsb.partition(36, &edges, &opts).unwrap();
        let d = MultilevelRsb.partition(36, &edges, &opts).unwrap();
        prop_assert_eq!(c, d);
    }

    /// KL refinement never increases the cut and keeps every part
    /// nonempty.
    #[test]
    fn kl_monotone_on_random_graphs(edges in arb_graph(36), seed in 0u64..50) {
        let n = 36;
        let nparts = 3;
        let mut parts = eul3d_partition::random_partition(n, nparts, seed);
        let opts = PartitionOptions::new(nparts);
        let before = PartitionPlan::from_assignment(parts.clone(), &edges, &opts, 0);
        kl_refine(n, &edges, &mut parts, nparts, 1.4, 6);
        let after = PartitionPlan::from_assignment(parts.clone(), &edges, &opts, 0);
        prop_assert!(after.edge_cut <= before.edge_cut);
        for p in 0..nparts as u32 {
            prop_assert!(parts.contains(&p));
        }
    }

    /// RCM is always a permutation, on any graph.
    #[test]
    fn rcm_is_permutation_on_random_graphs(edges in arb_graph(25)) {
        let order = rcm_order(25, &edges);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..25u32).collect::<Vec<_>>());
    }

    /// random_order is a permutation for any seed.
    #[test]
    fn random_order_is_permutation(n in 1usize..100, seed in 0u64..1000) {
        let order = random_order(n, seed);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
    }
}
