//! PARTI runtime costs: the inspector (`localize`), the gather/scatter
//! executors, and the §4.3 optimizations (incremental schedules and
//! message aggregation) measured as moved-bytes/messages trade-offs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use eul3d_delta::{run_spmd, CommClass};
use eul3d_parti::{localize, GhostRegistry, Schedule, Translation};

const NRANKS: usize = 8;
const OWNED: usize = 512;

fn block_translation() -> Translation {
    let parts: Vec<u32> = (0..NRANKS * OWNED).map(|g| (g / OWNED) as u32).collect();
    Translation::from_parts(&parts, NRANKS)
}

/// Each rank needs the last 64 entries of its left neighbour.
fn required(id: usize) -> (Vec<u32>, Vec<u32>) {
    let prev = (id + NRANKS - 1) % NRANKS;
    let globals: Vec<u32> = (0..64)
        .map(|k| (prev * OWNED + OWNED - 64 + k) as u32)
        .collect();
    let slots: Vec<u32> = (0..64).map(|k| (OWNED + k) as u32).collect();
    (globals, slots)
}

fn bench_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("parti");
    group.sample_size(10);

    group.bench_function("localize_8_ranks", |b| {
        b.iter(|| {
            run_spmd(NRANKS, |r| {
                let trans = block_translation();
                let (g, s) = required(r.id);
                black_box(localize(r, &trans, &g, &s, 100, CommClass::Halo).nghosts())
            })
        });
    });

    group.bench_function("gather_100_rounds", |b| {
        b.iter(|| {
            run_spmd(NRANKS, |r| {
                let trans = block_translation();
                let (g, s) = required(r.id);
                let sched = localize(r, &trans, &g, &s, 100, CommClass::Halo);
                let mut data = vec![r.id as f64; (OWNED + 64) * 5];
                for _ in 0..100 {
                    sched.gather_planes(r, &mut data, 5);
                }
                black_box(data[OWNED])
            })
        });
    });

    group.bench_function("scatter_add_100_rounds", |b| {
        b.iter(|| {
            run_spmd(NRANKS, |r| {
                let trans = block_translation();
                let (g, s) = required(r.id);
                let sched = localize(r, &trans, &g, &s, 100, CommClass::Halo);
                let mut data = vec![1.0; (OWNED + 64) * 5];
                for _ in 0..100 {
                    sched.scatter_add_planes(r, &mut data, 5);
                }
                black_box(data[0])
            })
        });
    });

    group.finish();

    // The §4.3 numbers (not timing): incremental schedules remove
    // duplicate fetches; merged schedules halve message counts.
    let run = run_spmd(NRANKS, |r| {
        let trans = block_translation();
        let (g, s) = required(r.id);
        let mut reg = GhostRegistry::new();
        let (g1, s1) = reg.filter_new(&g, &s);
        let full1 = localize(r, &trans, &g1, &s1, 200, CommClass::Halo);
        // A second loop needing the same data plus 16 new entries.
        let prev = (r.id + NRANKS - 1) % NRANKS;
        let mut g2 = g.clone();
        let mut s2 = s.clone();
        for k in 0..16 {
            g2.push((prev * OWNED + k) as u32);
            s2.push((OWNED + 64 + k) as u32);
        }
        let (gi, si) = reg.filter_new(&g2, &s2);
        let incr = localize(r, &trans, &gi, &si, 300, CommClass::Halo);
        let merged = Schedule::merge(&[&full1, &incr], 400, CommClass::Halo);
        (
            full1.nghosts(),
            incr.nghosts(),
            merged.nghosts(),
            merged.recvs.len(),
        )
    });
    let (full, incr, merged, msgs) = run.results[0];
    eprintln!(
        "incremental schedules: first fetch {full} ghosts, second loop adds only {incr} \
         (vs {} duplicated); merged executor: {merged} ghosts in {msgs} message(s)/peer",
        full + 16
    );
}

criterion_group!(benches, bench_schedules);
criterion_main!(benches);
