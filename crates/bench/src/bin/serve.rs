//! `serve` — solver-as-a-service benchmark emitting `BENCH_serve.json`.
//!
//! Spawns the eul3d-serve engine on a Unix socket in-process, drives it
//! with a client loadgen over a pool of distinct configurations, and
//! reports service metrics: end-to-end jobs/sec, p50/p99 submit→done
//! latency split by cache path, and the cache hit rate. The headline
//! number is the **hit/miss latency ratio** — how much faster the
//! content-addressed cache serves a byte-identical result than
//! recomputing it.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `EUL3D_BENCH_REPEATS` | hit rounds over the config pool | 20 |
//! | `EUL3D_BENCH_OUT` | output path | `BENCH_serve.json` |
//! | `EUL3D_SEED` | engine partitioner seed | 7 |
//!
//! `--smoke` shrinks the pool and rounds for CI; `--gate X` exits
//! nonzero unless cache-hit serving is at least `X`× faster than
//! recompute (the CI gate uses 10). `--gate-journal P` exits nonzero
//! when the write-ahead journal + durable result store adds more than
//! `P`% wall time to the same forced-recompute workload (the CI gate
//! uses 5).

use std::path::Path;
use std::time::Instant;

use eul3d_bench::gate_arg;
use eul3d_serve::engine::EngineConfig;
use eul3d_serve::json::JObj;
use eul3d_serve::{client, server};

/// Latency samples in seconds → (p50, p99).
fn percentiles(samples: &mut [f64]) -> (f64, f64) {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (at(0.50), at(0.99))
}

/// One timed submission; returns (latency s, was cache hit).
fn timed_submit(sock: &Path, config: &str, force: bool) -> (f64, bool) {
    let t0 = Instant::now();
    let lines = client::submit_and_collect(sock, config, "solve", force, false)
        .expect("submission round-trip");
    let dt = t0.elapsed().as_secs_f64();
    let hit = lines
        .iter()
        .rev()
        .find_map(|l| {
            let o = JObj::parse(l).ok()?;
            (o.str_of("event") == Some("done")).then(|| o.str_of("cache") == Some("hit"))
        })
        .unwrap_or_else(|| panic!("job did not finish: {lines:?}"));
    (dt, hit)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = gate_arg(&args, "--gate");
    let gate_journal = gate_arg(&args, "--gate-journal");
    let rounds: usize = std::env::var("EUL3D_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 5 } else { 20 });
    let out_path =
        std::env::var("EUL3D_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());

    let pool_size = if smoke { 3 } else { 6 };
    let (nx, cycles_base) = if smoke { (8, 3) } else { (12, 8) };
    let pool: Vec<String> = (0..pool_size)
        .map(|k| {
            format!(
                "[run]\nlevels = 2\ncycles = {}\n[mesh]\nnx = {nx}\nny = 4\nnz = 3\n",
                cycles_base + k
            )
        })
        .collect();

    let mut sock = std::env::temp_dir();
    sock.push(format!("eul3d-bench-serve-{}.sock", std::process::id()));
    let mut srv = server::spawn(
        &sock,
        EngineConfig {
            workers: 2,
            queue_cap: 64,
            cache_cap: 64,
            seed: eul3d_core::env_seed(7),
            retry_after_ms_per_queued: 10,
            ..EngineConfig::default()
        },
    )
    .expect("bind benchmark socket");
    println!(
        "serve: {pool_size} configs (nx={nx}), {rounds} hit rounds, 2 workers, socket {}",
        sock.display()
    );

    // Warm phase: every config computed once — these are the misses.
    let mut miss_lat: Vec<f64> = Vec::new();
    for cfg in &pool {
        let (dt, hit) = timed_submit(&sock, cfg, false);
        assert!(!hit, "cold cache must miss");
        miss_lat.push(dt);
    }
    // A few forced recomputes sharpen the miss sample without polluting
    // the hit phase.
    for cfg in pool.iter().take(if smoke { 1 } else { 3 }) {
        let (dt, hit) = timed_submit(&sock, cfg, true);
        assert!(!hit, "forced submissions recompute");
        miss_lat.push(dt);
    }

    // Hit phase: the whole pool, `rounds` times over.
    let mut hit_lat: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for cfg in &pool {
            let (dt, hit) = timed_submit(&sock, cfg, false);
            assert!(hit, "warmed cache must hit");
            hit_lat.push(dt);
        }
    }
    let hit_wall = t0.elapsed().as_secs_f64();

    // Journal-overhead phase: the same forced-recompute workload
    // through a plain engine and a durable one (write-ahead journal,
    // checkpoint-log lifecycle, result-store fsyncs on the hot path);
    // best-of-N walls denoise scheduler and disk jitter. The jobs are
    // compute-dominated (hundreds of ms) so the gate measures the
    // journal's proportional cost at realistic job sizes — the ~1 ms
    // of fsyncs per job would swamp the few-ms latency pool above.
    let overhead_rounds = if smoke { 2 } else { 3 };
    let ocycles = if smoke { 40 } else { 80 };
    let opool: Vec<String> = (0..2)
        .map(|k| {
            format!(
                "[run]\nlevels = 2\ncycles = {}\n[mesh]\nnx = 12\nny = 6\nnz = 5\n",
                ocycles + k
            )
        })
        .collect();
    let seed = eul3d_core::env_seed(7);
    let run_pool = |state_dir: Option<std::path::PathBuf>, tag: &str| -> f64 {
        let mut jsock = std::env::temp_dir();
        jsock.push(format!(
            "eul3d-bench-serve-{tag}-{}.sock",
            std::process::id()
        ));
        let mut jsrv = server::spawn(
            &jsock,
            EngineConfig {
                workers: 2,
                queue_cap: 64,
                cache_cap: 64,
                seed,
                retry_after_ms_per_queued: 10,
                state_dir,
                ..EngineConfig::default()
            },
        )
        .expect("bind overhead socket");
        let mut best = f64::INFINITY;
        for _ in 0..overhead_rounds {
            let t0 = Instant::now();
            for cfg in &opool {
                let (_, hit) = timed_submit(&jsock, cfg, true);
                assert!(!hit, "forced submissions recompute");
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        jsrv.shutdown();
        best
    };
    let state =
        std::env::temp_dir().join(format!("eul3d-bench-serve-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let plain_wall = run_pool(None, "plain");
    let durable_wall = run_pool(Some(state.clone()), "durable");
    let _ = std::fs::remove_dir_all(&state);
    let overhead_pct = (durable_wall - plain_wall) / plain_wall * 100.0;

    let stats_line = client::request_one(&sock, &eul3d_serve::Request::Stats).expect("stats");
    let stats = JObj::parse(&stats_line).expect("stats parse");
    let hits = stats.u64_of("cache_hits").unwrap_or(0);
    let misses = stats.u64_of("cache_misses").unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    let jobs = miss_lat.len() + hit_lat.len();
    let jobs_per_sec = hit_lat.len() as f64 / hit_wall;
    let (hit_p50, hit_p99) = percentiles(&mut hit_lat);
    let (miss_p50, miss_p99) = percentiles(&mut miss_lat);
    let speedup = miss_p50 / hit_p50;
    println!(
        "  jobs            {jobs} total, {:.1} hit-jobs/sec",
        jobs_per_sec
    );
    println!(
        "  hit  latency    p50 {:.3e} s   p99 {:.3e} s",
        hit_p50, hit_p99
    );
    println!(
        "  miss latency    p50 {:.3e} s   p99 {:.3e} s",
        miss_p50, miss_p99
    );
    println!(
        "  cache           {hits} hits / {misses} misses ({:.1}% hit rate)",
        hit_rate * 100.0
    );
    println!("  hit speedup     {speedup:.1}x over recompute");
    println!(
        "  journal         plain {plain_wall:.3} s, durable {durable_wall:.3} s ({overhead_pct:+.1}% overhead)"
    );

    let json = format!(
        "{{\n  \"config\": {{\"pool\": {pool_size}, \"nx\": {nx}, \"cycles_base\": {cycles_base}, \"rounds\": {rounds}, \"workers\": 2, \"smoke\": {smoke}}},\n  \"throughput\": {{\"jobs\": {jobs}, \"hit_jobs_per_sec\": {jobs_per_sec:.3}}},\n  \"latency_seconds\": {{\"hit_p50\": {hit_p50:.6e}, \"hit_p99\": {hit_p99:.6e}, \"miss_p50\": {miss_p50:.6e}, \"miss_p99\": {miss_p99:.6e}}},\n  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.4}, \"hit_speedup\": {speedup:.2}}},\n  \"journal\": {{\"rounds\": {overhead_rounds}, \"jobs\": 2, \"cycles\": {ocycles}, \"plain_wall_s\": {plain_wall:.6e}, \"durable_wall_s\": {durable_wall:.6e}, \"overhead_pct\": {overhead_pct:.2}}}\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");

    srv.shutdown();

    if let Some(min_ratio) = gate {
        assert!(
            speedup >= min_ratio,
            "cache-hit serving is only {speedup:.1}x faster than recompute; gate requires {min_ratio}x"
        );
        println!("gate: hit speedup {speedup:.1}x >= {min_ratio}x — ok");
    }
    if let Some(max_pct) = gate_journal {
        assert!(
            overhead_pct <= max_pct,
            "durability costs {overhead_pct:.1}% wall time on recompute; gate allows {max_pct}%"
        );
        println!("gate: journal overhead {overhead_pct:+.1}% <= {max_pct}% — ok");
    }
}
