//! A tour of the §2.4 preprocessing pipeline — everything EUL3D runs
//! *before* the flow solver: mesh generation, the edge-based data
//! structure, colouring (vector machines), partitioning (distributed
//! machines), node/edge reordering (cache), and the inter-grid
//! interpolation search.
//!
//! ```sh
//! cargo run --release --example preprocessing_tour
//! ```

use eul3d::mesh::gen::{bump_channel, BumpSpec};
use eul3d::mesh::stats::MeshStats;
use eul3d::mesh::InterpOps;
use eul3d::partition::reorder::{apply_vertex_order, mean_edge_span, rcm_order, shuffle_vertices};
use eul3d::partition::{color_edges, validate_coloring, FlatRsb, PartitionOptions, Partitioner};

fn main() {
    // 1. Mesh generation (stand-in for the advancing-front generator).
    let spec = BumpSpec {
        nx: 20,
        ny: 8,
        nz: 6,
        jitter: 0.15,
        ..BumpSpec::default()
    };
    let mesh = bump_channel(&spec);
    let stats = MeshStats::compute(&mesh);
    println!("1. mesh: {}", stats.summary());
    assert!(stats.is_valid());

    // 2. Edge-based data structure: the closure identity that underlies
    //    freestream preservation.
    println!(
        "2. edge structure: {} edges, dual-surface closure max {:.2e}",
        stats.nedges, stats.closure_max
    );

    // 3. Colouring for the vector/shared-memory path.
    let coloring = color_edges(&mesh);
    validate_coloring(&mesh.edges, &coloring).unwrap();
    println!(
        "3. colouring: {} groups, sizes {}..{}",
        coloring.ncolors(),
        coloring.min_group_len(),
        coloring.groups.iter().map(Vec::len).max().unwrap()
    );

    // 4. Partitioning for the distributed path (RSB, reference [10]).
    let nparts = 8;
    let opts = PartitionOptions::new(nparts).lanczos_iters(40).seed(1);
    let plan = FlatRsb
        .partition(mesh.nverts(), &mesh.edges, &opts)
        .unwrap();
    println!(
        "4. RSB into {nparts}: cut {:.1}% of edges, imbalance {:.3}, surface/volume {:.2}",
        100.0 * (plan.edge_cut as f64 / mesh.nedges() as f64),
        plan.balance,
        plan.surface_to_volume
    );

    // 5. Node/edge reordering (§4.2).
    let scrambled = shuffle_vertices(&mesh, 9);
    let ordered = apply_vertex_order(&scrambled, &rcm_order(scrambled.nverts(), &scrambled.edges));
    println!(
        "5. reordering: mean edge span {:.0} (random) -> {:.0} (RCM)",
        mean_edge_span(&scrambled.edges),
        mean_edge_span(&ordered.edges)
    );

    // 6. Inter-grid interpolation search (4 addresses + 4 weights per
    //    vertex, found by walking the tet adjacency).
    let coarse = bump_channel(&spec.coarsened());
    let t0 = std::time::Instant::now();
    let ops = InterpOps::build(&coarse, &mesh);
    println!(
        "6. transfer operators: {} fine vertices located in the {}-vertex coarse mesh in {:.3}s",
        ops.ndst(),
        coarse.nverts(),
        t0.elapsed().as_secs_f64()
    );
    println!("\npreprocessing pipeline complete — ready for the flow solver.");
}
