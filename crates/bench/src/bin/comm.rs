//! `comm` — communication-layer microbenchmark emitting `BENCH_comm.json`.
//!
//! Times the plane-major PARTI executors the solver runs
//! (`gather_planes` / `scatter_add_planes` over a ring halo) and the four
//! `Rank` collectives on the simulated Delta, and records the pool
//! behaviour the tentpole guarantees: fresh buffer allocations happen
//! during warm-up only, steady-state rounds are allocation-free.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `EUL3D_BENCH_ROUNDS` | timed rounds per section | 200 |
//! | `EUL3D_BENCH_OUT` | output path | `BENCH_comm.json` |
//!
//! `--smoke` caps the rounds at 20 for CI.

use std::time::Instant;

use eul3d_delta::{run_spmd, CommClass};
use eul3d_parti::{localize, Schedule, Translation};

const NRANKS: usize = 8;
const OWNED: usize = 512;
const GHOSTS: usize = 64;
const NC: usize = 5;
const COLLECTIVE_LEN: usize = 256;
/// One full root rotation: the rotating-root collectives only reach pool
/// balance once every rank has been root.
const WARM_ROUNDS: usize = NRANKS;

/// Block ownership: rank r owns globals `[r*OWNED, (r+1)*OWNED)`.
fn block_translation() -> Translation {
    let parts: Vec<u32> = (0..NRANKS * OWNED).map(|g| (g / OWNED) as u32).collect();
    Translation::from_parts(&parts, NRANKS)
}

/// Ring halo: each rank ghosts the last `GHOSTS` entries of its left
/// neighbour into local slots `[OWNED, OWNED+GHOSTS)`.
fn ring_schedule(rank: &mut eul3d_delta::Rank) -> Schedule {
    let trans = block_translation();
    let prev = (rank.id + NRANKS - 1) % NRANKS;
    let globals: Vec<u32> = (0..GHOSTS)
        .map(|k| (prev * OWNED + OWNED - GHOSTS + k) as u32)
        .collect();
    let slots: Vec<u32> = (0..GHOSTS).map(|k| (OWNED + k) as u32).collect();
    localize(rank, &trans, &globals, &slots, 100, CommClass::Halo)
}

struct Section {
    name: &'static str,
    rounds: usize,
    /// Slowest rank's steady-round wall time — the machine's completion time.
    max_rank_seconds: f64,
    msgs_per_round: u64,
    bytes_per_round: u64,
    warm_allocs: u64,
    steady_allocs: u64,
}

/// Run one section: per rank, `setup` builds per-rank state (schedules,
/// data arrays) once, then `WARM_ROUNDS` untimed rounds and `rounds`
/// timed rounds of `op` run against it. Message/byte rates are taken from
/// counter deltas over the timed rounds only.
fn section<S, G, F>(name: &'static str, rounds: usize, setup: G, op: F) -> Section
where
    G: Fn(&mut eul3d_delta::Rank) -> S + Sync,
    F: Fn(&mut eul3d_delta::Rank, &mut S, usize) + Sync,
{
    let run = run_spmd(NRANKS, |rank| {
        let mut st = setup(rank);
        for i in 0..WARM_ROUNDS {
            op(rank, &mut st, i);
        }
        let warm = rank.counters.comm_allocs;
        let before = rank.counters.clone();
        let t0 = Instant::now();
        for i in 0..rounds {
            op(rank, &mut st, WARM_ROUNDS + i);
        }
        let d = rank.counters.delta_since(&before);
        (
            t0.elapsed().as_secs_f64(),
            warm,
            d.total_messages(),
            d.total_bytes(),
            d.comm_allocs,
        )
    });
    let max_rank_seconds = run.results.iter().map(|&(s, ..)| s).fold(0.0f64, f64::max);
    let warm_allocs: u64 = run.results.iter().map(|&(_, w, ..)| w).sum();
    let msgs: u64 = run.results.iter().map(|&(_, _, m, ..)| m).sum();
    let bytes: u64 = run.results.iter().map(|&(_, _, _, b, _)| b).sum();
    let steady_allocs: u64 = run.results.iter().map(|&(.., a)| a).sum();
    Section {
        name,
        rounds,
        max_rank_seconds,
        msgs_per_round: msgs / rounds.max(1) as u64,
        bytes_per_round: bytes / rounds.max(1) as u64,
        warm_allocs,
        steady_allocs,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rounds: usize = std::env::var("EUL3D_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    if smoke {
        rounds = rounds.min(20);
    }
    let out_path =
        std::env::var("EUL3D_BENCH_OUT").unwrap_or_else(|_| "BENCH_comm.json".to_string());

    let halo_setup = |rank: &mut eul3d_delta::Rank| {
        let sched = ring_schedule(rank);
        let data = vec![1.0 + rank.id as f64; (OWNED + GHOSTS) * NC];
        (sched, data)
    };
    let coll_setup = |rank: &mut eul3d_delta::Rank| vec![1.0 + rank.id as f64; COLLECTIVE_LEN];

    let sections = [
        section(
            "gather",
            rounds,
            halo_setup,
            |rank, (sched, data): &mut (Schedule, Vec<f64>), _| {
                sched.gather_planes(rank, data, NC);
            },
        ),
        section(
            "scatter_add",
            rounds,
            halo_setup,
            |rank, (sched, data): &mut (Schedule, Vec<f64>), _| {
                sched.scatter_add_planes(rank, data, NC);
            },
        ),
        section("all_reduce_sum", rounds, coll_setup, |rank, vals, _| {
            rank.all_reduce_sum_in_place(vals);
            // Keep magnitudes bounded over hundreds of rounds.
            vals.iter_mut().for_each(|x| *x /= NRANKS as f64);
        }),
        section("all_reduce_max", rounds, coll_setup, |rank, vals, _| {
            rank.all_reduce_max_in_place(vals);
        }),
        section("broadcast", rounds, coll_setup, |rank, vals, i| {
            rank.broadcast_in_place(i % NRANKS, vals);
        }),
        section(
            "gather_to_root",
            rounds,
            |rank: &mut eul3d_delta::Rank| (vec![1.0 + rank.id as f64; COLLECTIVE_LEN], Vec::new()),
            |rank, (vals, out): &mut (Vec<f64>, Vec<f64>), i| {
                rank.gather_to_root_into(i % NRANKS, vals, out);
            },
        ),
    ];

    // Schedule executors and the solver's collectives must be
    // allocation-free after warm-up; gather_to_root allocates its output
    // vector by design, so it is reported but not enforced.
    for s in &sections {
        if s.name != "gather_to_root" {
            assert_eq!(
                s.steady_allocs, 0,
                "{}: steady-state rounds allocated {} fresh comm buffers",
                s.name, s.steady_allocs
            );
        }
        let per_round = if s.rounds > 0 {
            s.max_rank_seconds / s.rounds as f64
        } else {
            0.0
        };
        println!(
            "{:<16} {:>6} rounds  {:>10.3e} s/round  {:>6} msgs/round  {:>9} B/round  allocs warm {} steady {}",
            s.name, s.rounds, per_round, s.msgs_per_round, s.bytes_per_round, s.warm_allocs, s.steady_allocs
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"nranks\": {NRANKS}, \"owned\": {OWNED}, \"ghosts\": {GHOSTS}, \"nc\": {NC}, \"collective_len\": {COLLECTIVE_LEN}, \"warm_rounds\": {WARM_ROUNDS}, \"rounds\": {rounds}, \"smoke\": {smoke}}},\n"
    ));
    json.push_str("  \"sections\": [\n");
    for (k, s) in sections.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rounds\": {}, \"max_rank_seconds\": {:.6e}, \"msgs_per_round\": {}, \"bytes_per_round\": {}, \"warm_allocs\": {}, \"steady_allocs\": {}}}{}\n",
            s.name,
            s.rounds,
            s.max_rank_seconds,
            s.msgs_per_round,
            s.bytes_per_round,
            s.warm_allocs,
            s.steady_allocs,
            if k + 1 < sections.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_comm.json");
    println!("wrote {out_path}");
}
