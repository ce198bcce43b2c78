//! `delta_w64` and `hybrid_w64`: the same partitioned mesh through
//! `run_distributed` on the channel transport and on shared-memory
//! windows.

use eul3d_core::dist::{run_distributed, DistBackend, DistOptions, DistRunResult, DistSetup};
use eul3d_core::{PhaseCounters, Strategy};
use eul3d_mesh::MeshSequence;

use crate::solver::{matches_reference, reached, CycleRuns};
use crate::spec::{solver_config, Problem, Target, LANCZOS_ITERS, NPAR};
use crate::trace::Tracer;

/// Spec to a partitioned machine ready to cycle: mesh sequence, flat RSB
/// of every level over `NPAR` ranks, per-rank meshes.
pub fn setup(problem: &Problem) -> DistSetup {
    DistSetup::new(
        MeshSequence::bump_sequence(&problem.spec, problem.levels),
        NPAR,
        LANCZOS_ITERS,
        problem.spec.seed,
    )
}

pub fn options(backend: DistBackend) -> DistOptions {
    DistOptions {
        backend,
        ..DistOptions::default()
    }
}

pub fn cycle_run(
    setup: &DistSetup,
    cycles: usize,
    opts: DistOptions,
    tr: &mut Tracer,
) -> DistRunResult {
    tr.timed("core.dist.run_distributed", || {
        run_distributed(setup, solver_config(), Strategy::WCycle, cycles, opts)
    })
    .0
}

/// Messages and bytes all ranks sent during the cycles of `r` (setup
/// traffic subtracted).
pub fn cycle_traffic(r: &DistRunResult) -> (u64, u64) {
    r.cycle_counters().iter().fold((0, 0), |(m, b), c| {
        (m + c.total_messages(), b + c.total_bytes())
    })
}

/// Rank-summed executor counters of `r`.
pub fn summed_counters(r: &DistRunResult) -> PhaseCounters {
    let mut sum = PhaseCounters::default();
    for c in r.phase_counters() {
        sum.merge(&c);
    }
    sum
}

/// Set up `setups` times, then run the reference's cycle count `repeats`
/// times on the last setup. Each repeat must be finite, reach `target` at
/// its last cycle, repeat the first repeat's fingerprint, and track the
/// serial `reference` over its first cycles.
pub fn run(
    backend: DistBackend,
    problem: &Problem,
    reference: &[f64],
    target: Target,
    repeats: usize,
    setups: usize,
    tr: &mut Tracer,
) -> CycleRuns {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..setups.max(1) {
        let (s, dt) = tr.timed("setup", || setup(problem));
        setup_s.push(dt);
        last = Some(s);
    }
    let Some(dsetup) = last else { unreachable!() };
    let cycles = reference.len();
    let mut out = CycleRuns::new(setup_s);
    for _ in 0..repeats {
        let r = cycle_run(&dsetup, cycles, options(backend), tr);
        let h = r.history();
        let ok = h.len() == cycles && reached(h, target) && matches_reference(h, reference);
        out.check(h, ok);
        out.cycle_s.push(r.wall_seconds / cycles as f64);
    }
    out
}
