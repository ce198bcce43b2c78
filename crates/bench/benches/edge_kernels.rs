//! Micro-benchmarks of the compute-intensive edge loops ("the majority
//! of the computations made in EUL3D are in loops over the edges of the
//! mesh", §3.1): convective flux, the two dissipation passes, spectral
//! radii, and residual-averaging accumulation — the plane-major
//! `eul3d_kernels` entry points every solver backend executes (the two
//! pure neighbour sums, dissipation pass 1 and the smoothing
//! accumulation, as the vertex gathers the solver runs them as). The
//! AoS-vs-SoA comparison is the `kernels` bin's job.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use eul3d_core::gas::{GAMMA, NVAR};
use eul3d_core::{SoaState, SolverConfig};
use eul3d_kernels::{EdgeSpan, ScatterAccess};
use eul3d_mesh::gen::{bump_channel, BumpSpec};
use eul3d_mesh::topology::vertex_vertex_adjacency;
use eul3d_mesh::TetMesh;

/// Run a kernel body with scatter access to `targets`.
///
/// SAFETY (every `unsafe` kernel call in this file): single-threaded, one
/// span over all edges or vertices, and every array (and the adjacency)
/// is sized by the same mesh.
fn scatter(targets: &mut [&mut [f64]], f: impl FnOnce(&ScatterAccess)) {
    f(&ScatterAccess::new(targets));
}

fn workload() -> (TetMesh, SoaState, Vec<f64>) {
    let mesh = bump_channel(&BumpSpec {
        nx: 24,
        ny: 10,
        nz: 8,
        jitter: 0.15,
        ..Default::default()
    });
    let cfg = SolverConfig::default();
    let fs = cfg.freestream();
    let n = mesh.nverts();
    let mut w = SoaState::new(n, NVAR);
    for (i, c) in mesh.coords.iter().enumerate() {
        let s = 1.0 + 0.05 * (c.x * 3.0).sin() * (c.y * 5.0).cos();
        w.set5(i, &fs.w.map(|x| x * s));
    }
    let mut p = vec![0.0; n];
    scatter(&mut [&mut p], |s| unsafe {
        eul3d_kernels::pressure_verts(0..n, GAMMA, w.flat(), n, s)
    });
    (mesh, w, p)
}

fn bench_edges(c: &mut Criterion) {
    let (mesh, w, p) = workload();
    let (edges, coef) = (&mesh.edges[..], &mesh.edge_coef[..]);
    let n = mesh.nverts();
    let lanes = SolverConfig::default().lanes;
    let span = EdgeSpan::Range(0..edges.len());
    let adj = vertex_vertex_adjacency(n, edges);
    let mut group = c.benchmark_group("edge_kernels");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(20);

    group.bench_function("convective_flux", |b| {
        let mut q = vec![0.0; n * NVAR];
        b.iter(|| {
            q.fill(0.0);
            scatter(&mut [&mut q], |s| unsafe {
                eul3d_kernels::conv_flux_edges(&span, edges, coef, w.flat(), &p, n, s, lanes)
            });
            black_box(&q);
        });
    });

    // Pass-1 accumulators, also the operands of the pass-2 bench.
    let mut lapl = vec![0.0; n * NVAR];
    let mut sens = vec![0.0; n * 2];
    group.bench_function("dissipation_pass1_laplacian", |b| {
        b.iter(|| {
            scatter(&mut [&mut lapl, &mut sens], |s| unsafe {
                eul3d_kernels::jst_gather_verts(0..n, &adj, w.flat(), &p, n, s)
            });
            black_box(&lapl);
        });
    });

    group.bench_function("dissipation_pass2_blend", |b| {
        let mut nu = vec![0.0; n];
        scatter(&mut [&mut nu], |s| unsafe {
            eul3d_kernels::sensor_verts(0..n, &sens, n, s)
        });
        let mut diss = vec![0.0; n * NVAR];
        b.iter(|| {
            diss.fill(0.0);
            scatter(&mut [&mut diss], |s| unsafe {
                eul3d_kernels::jst_pass2_edges(
                    &span,
                    edges,
                    coef,
                    GAMMA,
                    0.5,
                    1.0 / 16.0,
                    w.flat(),
                    &p,
                    &lapl,
                    &nu,
                    n,
                    s,
                    lanes,
                )
            });
            black_box(&diss);
        });
    });

    group.bench_function("spectral_radii", |b| {
        let mut lam = vec![0.0; n];
        b.iter(|| {
            lam.fill(0.0);
            scatter(&mut [&mut lam], |s| unsafe {
                eul3d_kernels::radii_edges_soa(&span, edges, coef, GAMMA, w.flat(), &p, n, s, lanes)
            });
            black_box(&lam);
        });
    });

    group.bench_function("smooth_accumulate", |b| {
        let mut acc = vec![0.0; n * NVAR];
        b.iter(|| {
            scatter(&mut [&mut acc], |s| unsafe {
                eul3d_kernels::neighbour_sum_verts(0..n, &adj, w.flat(), n, s)
            });
            black_box(&acc);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_edges);
criterion_main!(benches);
