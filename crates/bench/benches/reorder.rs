//! The §4.2 ablation: node and edge reordering vs randomized orders.
//! "These optimizations alone improved the single node computational
//! rate by a factor of two" on the i860's small cache; modern caches are
//! kinder, but the ordered variant must still win measurably.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use eul3d_core::gas::{GAMMA, NVAR};
use eul3d_core::{SoaState, SolverConfig};
use eul3d_kernels::{EdgeSpan, ScatterAccess};
use eul3d_mesh::gen::{bump_channel, BumpSpec};
use eul3d_mesh::TetMesh;
use eul3d_partition::reorder::{apply_vertex_order, rcm_order, shuffle_edges, shuffle_vertices};

fn state_for(mesh: &TetMesh) -> (SoaState, Vec<f64>) {
    let fs = SolverConfig::default().freestream();
    let n = mesh.nverts();
    let mut w = SoaState::new(n, NVAR);
    w.fill_rows(&fs.w);
    let mut p = vec![0.0; n];
    let s = ScatterAccess::new(&mut [&mut p]);
    // SAFETY: single-threaded; `w` holds 5n values, `p` holds n.
    unsafe { eul3d_kernels::pressure_verts(0..n, GAMMA, w.flat(), n, &s) };
    (w, p)
}

fn bench_reorder(c: &mut Criterion) {
    // Large enough that vertex arrays exceed L1/L2 on most hosts.
    let base = bump_channel(&BumpSpec {
        nx: 40,
        ny: 16,
        nz: 14,
        jitter: 0.15,
        ..Default::default()
    });
    let shuffled_nodes = shuffle_vertices(&base, 99);
    let rcm = apply_vertex_order(
        &shuffled_nodes,
        &rcm_order(shuffled_nodes.nverts(), &shuffled_nodes.edges),
    );
    let mut shuffled_edges = rcm.clone();
    shuffle_edges(&mut shuffled_edges, 7);

    let mut group = c.benchmark_group("reorder_section_4_2");
    group.throughput(Throughput::Elements(base.nedges() as u64));
    group.sample_size(20);

    for (name, mesh) in [
        ("ordered_rcm", &rcm),
        ("generator_order", &base),
        ("random_nodes", &shuffled_nodes),
        ("random_edges", &shuffled_edges),
    ] {
        let (w, p) = state_for(mesh);
        let n = mesh.nverts();
        let lanes = SolverConfig::default().lanes;
        let span = EdgeSpan::Range(0..mesh.nedges());
        group.bench_function(name, |b| {
            let mut q = vec![0.0; n * NVAR];
            b.iter(|| {
                q.fill(0.0);
                let s = ScatterAccess::new(&mut [&mut q]);
                // SAFETY: single-threaded; arrays sized by the mesh.
                unsafe {
                    eul3d_kernels::conv_flux_edges(
                        &span,
                        &mesh.edges,
                        &mesh.edge_coef,
                        w.flat(),
                        &p,
                        n,
                        &s,
                        lanes,
                    )
                };
                black_box(&q);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reorder);
criterion_main!(benches);
