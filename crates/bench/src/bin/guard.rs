//! `guard` — health-guard sweep emitting `BENCH_guard.json`.
//!
//! Three questions, answered on the same hardware-independent cases the
//! other sweeps use:
//!
//! 1. **Steady overhead** — what the per-cycle finite/positivity scans
//!    and divergence checks cost on a healthy run (wall clock and flop
//!    fraction), serial and guarded side by side.
//! 2. **Backoff cost** — on the seeded diverging case (stretched bump,
//!    over-aggressive CFL) swept across target CFLs: how many backoff
//!    epochs the guard spends, how many cycles it replays, and where the
//!    CFL lands.
//! 3. **Distributed parity** — the same diverging case through the
//!    simulated-Delta driver: recovery epochs, modeled cost, and the
//!    pool-allocation tail that must stay flat after a numeric rollback.
//!
//! The healthy case is `eul3d solve`'s flags and `--config` over the
//! harness base (20 V-cycles); `--smoke` shrinks it for CI (NX ≤ 16,
//! ≤ 3 levels, ≤ 10 cycles). `EUL3D_BENCH_OUT` is the output path
//! (default `BENCH_guard.json`).

use std::time::Instant;

use eul3d_bench::{base, configure, exit_2};
use eul3d_core::dist::{run_distributed_with_faults, DistOptions, DistSetup, FaultOptions};
use eul3d_core::executor::Phase;
use eul3d_core::health::{GuardConfig, GuardOutcome};
use eul3d_core::{MultigridSolver, RunPlan, SolverConfig, SolverError, Strategy};
use eul3d_delta::CostModel;
use eul3d_mesh::gen::BumpSpec;
use eul3d_mesh::MeshSequence;

/// The seeded diverging case from the guard tests: a tapered bump whose
/// stretched cells go non-finite within a handful of cycles at CFL 30.
fn stretched_seq() -> MeshSequence {
    let spec = BumpSpec {
        nx: 10,
        ny: 4,
        nz: 3,
        taper: 0.6,
        jitter: 0.1,
        ..BumpSpec::default()
    };
    MeshSequence::bump_sequence(&spec, 2)
}

fn stretched_cfg(cfl: f64) -> SolverConfig {
    SolverConfig {
        mach: 0.5,
        cfl,
        ..SolverConfig::default()
    }
}

fn sweep_guard() -> GuardConfig {
    GuardConfig {
        cfl_backoff: 0.25,
        // Park the CFL at the backoff floor so the sweep reports the
        // reduction itself, not re-ramp progress.
        reramp_after: 100,
        ..GuardConfig::default()
    }
}

/// `cycles` committed cycles of `mg` under `guard`.
fn guarded(
    mg: &mut MultigridSolver,
    cycles: usize,
    guard: &GuardConfig,
) -> Result<(Vec<f64>, GuardOutcome), SolverError> {
    let plan = RunPlan {
        guard: Some(guard),
        ..RunPlan::cycles(cycles)
    };
    let (history, outcome) = mg.run(plan, &mut |_, _| {})?;
    Ok((history, outcome.expect("an armed guard reports")))
}

struct CflPoint {
    target_cfl: f64,
    recovered: bool,
    backoffs: usize,
    replayed_cycles: usize,
    final_cfl: f64,
    seconds: f64,
}

fn main() {
    let (mut rc, smoke) = configure(base(20, Strategy::VCycle), &[], |a| a.has("smoke"));
    if smoke {
        rc.mesh.set_nx(rc.mesh.nx.min(16));
        rc.levels = rc.levels.min(3);
        rc.cycles = rc.cycles.min(10);
    }
    let out_path =
        std::env::var("EUL3D_BENCH_OUT").unwrap_or_else(|_| "BENCH_guard.json".to_string());

    // 1. Steady overhead on a healthy run.
    println!(
        "guard overhead: bump channel nx={}, {} levels, {} cycles, {}",
        rc.mesh.nx,
        rc.levels,
        rc.cycles,
        rc.strategy.label()
    );
    let mut bare = MultigridSolver::for_run(&rc, 0).unwrap_or_else(|e| exit_2(e));
    let t0 = Instant::now();
    let h_bare = bare.solve(rc.cycles);
    let bare_s = t0.elapsed().as_secs_f64();

    let mut mg_guarded = MultigridSolver::for_run(&rc, 0).unwrap_or_else(|e| exit_2(e));
    let t1 = Instant::now();
    let healthy = rc.guard.unwrap_or_default();
    let (h_guard, outcome) = guarded(&mut mg_guarded, rc.cycles, &healthy)
        .expect("the healthy case must not trip the guard");
    let guarded_s = t1.elapsed().as_secs_f64();
    assert!(
        outcome.transcript.is_empty(),
        "healthy case backed off: {:?}",
        outcome.transcript
    );
    assert_eq!(h_bare.len(), h_guard.len());

    let total_flops = mg_guarded.counter.flops();
    let guard_flops = mg_guarded.counter.comp[Phase::Guard.index()].flops;
    let overhead_pct = 100.0 * (guarded_s / bare_s - 1.0);
    let flop_pct = 100.0 * guard_flops / total_flops;
    println!(
        "  unguarded {bare_s:.3}s, guarded {guarded_s:.3}s ({overhead_pct:+.1}% wall, {flop_pct:.2}% of flops)"
    );

    // 2. Backoff cost across target CFLs on the diverging case.
    let sweep_cycles = 12;
    let guard = sweep_guard();
    let mut points = Vec::new();
    for cfl in [2.8, 10.0, 30.0, 60.0] {
        let mut mg = MultigridSolver::new(stretched_seq(), stretched_cfg(cfl), Strategy::VCycle);
        let t = Instant::now();
        let res = guarded(&mut mg, sweep_cycles, &guard);
        let seconds = t.elapsed().as_secs_f64();
        let p = match res {
            Ok((_, o)) => CflPoint {
                target_cfl: cfl,
                recovered: true,
                backoffs: o.transcript.len(),
                replayed_cycles: o
                    .transcript
                    .iter()
                    .map(|e| e.cycle - e.rollback_to.unwrap_or(0))
                    .sum(),
                final_cfl: o.final_cfl,
                seconds,
            },
            Err(e) => {
                println!("  cfl {cfl}: {e}");
                CflPoint {
                    target_cfl: cfl,
                    recovered: false,
                    backoffs: guard.max_retries,
                    replayed_cycles: 0,
                    final_cfl: f64::NAN,
                    seconds,
                }
            }
        };
        println!(
            "  cfl {:>5.1}: {} backoff(s), {} replayed cycle(s), final cfl {:.3}, {:.3}s",
            p.target_cfl, p.backoffs, p.replayed_cycles, p.final_cfl, p.seconds
        );
        points.push(p);
    }

    // 3. Distributed parity on the diverging case.
    let nranks = 4;
    let setup = DistSetup::new(stretched_seq(), nranks, 20, eul3d_core::env_seed(7));
    let fopts = FaultOptions {
        recv_timeout_ms: 60_000,
        guard: Some(guard),
        ..FaultOptions::default()
    };
    let t2 = Instant::now();
    let r = run_distributed_with_faults(
        &setup,
        stretched_cfg(30.0),
        Strategy::VCycle,
        sweep_cycles,
        DistOptions::default(),
        &fopts,
    )
    .expect("the distributed guard must recover the CFL-30 case");
    let dist_s = t2.elapsed().as_secs_f64();
    let o = r.guard_outcome().expect("guarded run records an outcome");
    let epochs = r
        .run
        .counters
        .iter()
        .map(|c| c.recoveries)
        .max()
        .unwrap_or(0);
    let model = CostModel::delta_i860();
    let modeled = model.evaluate(&r.cycle_counters());
    let mut steady_tail_flat = true;
    for (_, out) in r.instances() {
        let a = &out.cycle_allocs;
        for i in a.len().saturating_sub(3)..a.len() {
            steady_tail_flat &= a[i] == a[i - 1];
        }
    }
    assert!(
        steady_tail_flat,
        "cycles after the numeric rollback must stay allocation-free"
    );
    println!(
        "distributed (4 ranks): {} recovery epoch(s), {} backoff(s), modeled {:.2}s, wall {:.2}s, alloc tail flat",
        epochs,
        o.transcript.len(),
        modeled.total_seconds,
        dist_s
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"nx\": {}, \"levels\": {}, \"cycles\": {}, \"sweep_cycles\": {sweep_cycles}, \"cfl_backoff\": {}, \"smoke\": {smoke}}},\n",
        rc.mesh.nx, rc.levels, rc.cycles, guard.cfl_backoff
    ));
    json.push_str(&format!(
        "  \"overhead\": {{\"unguarded_seconds\": {bare_s:.6e}, \"guarded_seconds\": {guarded_s:.6e}, \"wall_overhead_pct\": {overhead_pct:.3}, \"guard_flop_pct\": {flop_pct:.4}}},\n"
    ));
    json.push_str("  \"cfl_sweep\": [\n");
    for (k, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"target_cfl\": {}, \"recovered\": {}, \"backoffs\": {}, \"replayed_cycles\": {}, \"final_cfl\": {}, \"seconds\": {:.6e}}}{}\n",
            p.target_cfl,
            p.recovered,
            p.backoffs,
            p.replayed_cycles,
            if p.final_cfl.is_finite() {
                format!("{}", p.final_cfl)
            } else {
                "null".to_string()
            },
            p.seconds,
            if k + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"distributed\": {{\"nranks\": {nranks}, \"recovery_epochs\": {epochs}, \"backoffs\": {}, \"modeled_seconds\": {:.4}, \"wall_seconds\": {dist_s:.4}, \"steady_tail_flat\": {steady_tail_flat}}}\n",
        o.transcript.len(),
        modeled.total_seconds
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_guard.json");
    println!("wrote {out_path}");
}
