//! `obs` — observability-overhead benchmark emitting `BENCH_obs.json`.
//!
//! Times the same distributed guarded V-cycle workload twice — tracing
//! disarmed (the default [`eul3d_obs::NullTracer`] path) and with a
//! [`eul3d_obs::RingTracer`] armed on every rank — and reports the
//! overhead the armed ring adds to end-to-end wall time. A raw
//! record-throughput microbenchmark (ns per emitted event, Null vs
//! Ring) isolates the per-event cost, and the workload's phase counters
//! land in the output as a [`eul3d_obs::MetricsRegistry`] export.
//!
//! Timings are min-of-repeats: arming must not change modeled timelines
//! or results, so the fastest repeat of each configuration is the
//! cleanest estimate of its true cost.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `EUL3D_BENCH_REPEATS` | repeats per configuration | 5 |
//! | `EUL3D_BENCH_OUT` | output path | `BENCH_obs.json` |
//!
//! The case is `eul3d solve`'s flags and `--config` over the harness
//! base (16 V-cycles; at most 8 under `--smoke`, which shrinks it for
//! CI); `--ranks N` runs it on N ranks, 2 to 8 (default 8).
//! `--gate PCT` exits nonzero when the armed-ring overhead exceeds
//! `PCT` percent (the CI gate uses 5).

use std::time::Instant;

use eul3d_bench::{base, configure, exit_2, ranks_flag, RANKS_SWEEP};
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::{RunConfig, Strategy};
use eul3d_mesh::MeshSequence;
use eul3d_obs as obs;
use eul3d_obs::Tracer;

const EMIT_ROUNDS: usize = 1_000_000;

/// Min-of-repeats wall time of one run configuration, plus the trace
/// volume of the last repeat (zero when disarmed).
fn time_runs(
    setup: &DistSetup,
    rc: &RunConfig,
    repeats: usize,
    capacity: Option<usize>,
) -> (f64, u64, u64, Vec<eul3d_core::PhaseCounters>) {
    let mut best = f64::INFINITY;
    let mut events = 0u64;
    let mut dropped = 0u64;
    let mut counters = Vec::new();
    for _ in 0..repeats {
        let opts = DistOptions {
            trace_capacity: capacity,
            ..DistOptions::for_run(rc, eul3d_core::env_seed(7))
        };
        let t0 = Instant::now();
        let r = run_distributed(setup, rc.solver, rc.strategy, rc.cycles, opts);
        best = best.min(t0.elapsed().as_secs_f64());
        events = r
            .run
            .results
            .iter()
            .map(|o| o.trace.len() as u64)
            .sum::<u64>();
        dropped = r.run.results.iter().map(|o| o.trace_dropped).sum::<u64>();
        counters = r.phase_counters();
    }
    (best, events, dropped, counters)
}

/// ns/event of the bare emit path with `tracer` armed on this thread.
fn emit_ns(tracer: Box<dyn Tracer>) -> f64 {
    obs::install(tracer);
    let t0 = Instant::now();
    for k in 0..EMIT_ROUNDS {
        obs::emit(obs::Event::MsgSend {
            peer: (k % 7) as u32,
            tag: 100,
            bytes: 4096,
        });
    }
    let dt = t0.elapsed().as_secs_f64();
    obs::take();
    dt * 1e9 / EMIT_ROUNDS as f64
}

fn main() {
    let (mut rc, (smoke, gate, ranks)) =
        configure(base(16, Strategy::VCycle), &[RANKS_SWEEP], |a| {
            let gate = a.get_str("gate").map(|v| v.parse::<f64>());
            (a.has("smoke"), gate, ranks_flag(a, &[8]))
        });
    let gate = gate.map(|g| g.unwrap_or_else(|_| exit_2("--gate takes a number")));
    let nranks = match ranks[..] {
        [n @ 2..=8] => n,
        _ => exit_2("obs --ranks takes one rank count from 2 to 8"),
    };
    let repeats: usize = std::env::var("EUL3D_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let out_path =
        std::env::var("EUL3D_BENCH_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_string());

    if smoke {
        rc.cycles = rc.cycles.min(8);
    }
    rc.nranks = nranks;
    println!(
        "obs: bump channel nx={}, {} levels, {} cycles, {} on {} simulated ranks, {} repeats",
        rc.mesh.nx,
        rc.levels,
        rc.cycles,
        rc.strategy.label(),
        nranks,
        repeats
    );
    let seq = MeshSequence::bump_sequence(&rc.mesh, rc.levels);
    let setup = DistSetup::for_run(seq, &rc, eul3d_core::env_seed(7)).unwrap_or_else(|e| exit_2(e));

    let (t_null, _, _, _) = time_runs(&setup, &rc, repeats, None);
    let (t_ring, events, dropped, counters) =
        time_runs(&setup, &rc, repeats, Some(obs::DEFAULT_RING_CAPACITY));
    let overhead_pct = (t_ring - t_null) / t_null * 100.0;
    println!("  disarmed (Null) {t_null:>9.4} s");
    println!("  armed    (Ring) {t_ring:>9.4} s   {events} events, {dropped} dropped");
    println!("  overhead        {overhead_pct:>8.2} %");

    let null_ns = emit_ns(Box::new(obs::NullTracer));
    let ring_ns = emit_ns(Box::new(obs::RingTracer::new(obs::DEFAULT_RING_CAPACITY)));
    println!("  emit path       Null {null_ns:.2} ns/event, Ring {ring_ns:.2} ns/event");

    // The workload's per-phase accounting, aggregated over ranks through
    // the registry (same-name counters add).
    let mut reg = obs::MetricsRegistry::new();
    for pc in &counters {
        pc.to_metrics(&mut reg);
    }

    let json = format!(
        "{{\n  \"config\": {{\"nx\": {}, \"levels\": {}, \"cycles\": {}, \"nranks\": {}, \"repeats\": {}, \"ring_capacity\": {}, \"smoke\": {}}},\n  \"workload\": {{\"null_seconds\": {:.6e}, \"ring_seconds\": {:.6e}, \"overhead_pct\": {:.3}, \"events\": {}, \"dropped\": {}}},\n  \"emit_ns\": {{\"null\": {:.3}, \"ring\": {:.3}}},\n  \"metrics\": {}\n}}\n",
        rc.mesh.nx,
        rc.levels,
        rc.cycles,
        nranks,
        repeats,
        obs::DEFAULT_RING_CAPACITY,
        smoke,
        t_null,
        t_ring,
        overhead_pct,
        events,
        dropped,
        null_ns,
        ring_ns,
        reg.to_json(),
    );
    std::fs::write(&out_path, json).expect("write BENCH_obs.json");
    println!("wrote {out_path}");

    if let Some(limit) = gate {
        assert!(
            overhead_pct < limit,
            "armed RingTracer overhead {overhead_pct:.2}% exceeds the {limit}% gate"
        );
        println!("gate: overhead {overhead_pct:.2}% < {limit}% — ok");
    }
}
