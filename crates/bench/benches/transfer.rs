//! Cost of the §2.4 inter-grid preprocessing (the graph-traversal search
//! that builds the 4-address/4-weight operators — priced by the paper at
//! "one or two flow solution cycles") and of applying the transfers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use eul3d_core::gas::NVAR;
use eul3d_mesh::gen::{bump_channel, BumpSpec};
use eul3d_mesh::InterpOps;

fn bench_transfer(c: &mut Criterion) {
    let fine = bump_channel(&BumpSpec {
        nx: 24,
        ny: 10,
        nz: 8,
        jitter: 0.12,
        ..Default::default()
    });
    let coarse = bump_channel(&BumpSpec {
        nx: 12,
        ny: 5,
        nz: 4,
        jitter: 0.12,
        seed: 43,
        ..Default::default()
    });

    let mut group = c.benchmark_group("intergrid_transfer");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fine.nverts() as u64));

    group.bench_function("build_search_fine_from_coarse", |b| {
        b.iter(|| black_box(InterpOps::build(&coarse, &fine)));
    });
    group.bench_function("build_search_coarse_from_fine", |b| {
        b.iter(|| black_box(InterpOps::build(&fine, &coarse)));
    });

    let to_fine = InterpOps::build(&coarse, &fine);
    let src = vec![1.0; coarse.nverts() * NVAR];
    let mut dst = vec![0.0; fine.nverts() * NVAR];
    // The solver transfers plane-major fields one component plane at a
    // time; so does this.
    let (nc, nf) = (coarse.nverts(), fine.nverts());
    group.bench_function("interpolate_5vars", |b| {
        b.iter(|| {
            for (s, d) in src.chunks(nc).zip(dst.chunks_mut(nf)) {
                to_fine.interpolate(s, d);
            }
            black_box(&dst);
        });
    });
    let fine_res = vec![1.0; fine.nverts() * NVAR];
    let mut coarse_acc = vec![0.0; coarse.nverts() * NVAR];
    group.bench_function("restrict_transpose_5vars", |b| {
        b.iter(|| {
            coarse_acc.fill(0.0);
            for (s, d) in fine_res.chunks(nf).zip(coarse_acc.chunks_mut(nc)) {
                to_fine.restrict_transpose(s, d);
            }
            black_box(&coarse_acc);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_transfer);
criterion_main!(benches);
