//! `serial_w64` and `shared_w64`: the same mesh, cycle and target through
//! `MultigridSolver::new` and `MultigridSolver::new_shared`.

use eul3d_core::{MultigridSolver, PhaseCounters, Strategy};
use eul3d_mesh::MeshSequence;

use crate::spec::{solver_config, Problem, Target, NPAR};
use crate::stats::history_fnv;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Serial,
    Shared,
}

/// Spec to a solver ready to cycle: mesh sequence with its inter-grid
/// search, level states, and on the shared path the edge colouring and
/// worker pool of every level.
pub fn build(exec: Exec, problem: &Problem) -> MultigridSolver {
    let seq = MeshSequence::bump_sequence(&problem.spec, problem.levels);
    match exec {
        Exec::Serial => MultigridSolver::new(seq, solver_config(), Strategy::WCycle),
        Exec::Shared => MultigridSolver::new_shared(seq, solver_config(), Strategy::WCycle, NPAR)
            .unwrap_or_else(|e| panic!("shared executor setup failed: {e}")),
    }
}

/// One cycle run: residual history, wall seconds of every cycle.
pub struct Solve {
    pub history: Vec<f64>,
    pub cycle_s: Vec<f64>,
}

/// Finite throughout and at the target.
pub fn reached(history: &[f64], target: Target) -> bool {
    let finite = !history.is_empty() && history.iter().all(|r| r.is_finite());
    match target {
        Target::Drop { orders, .. } => {
            finite && history[history.len() - 1] <= history[0] * 10f64.powf(-orders)
        }
        Target::Cycles(n) => finite && history.len() == n,
    }
}

/// Cycle `mg` until `target`; a non-finite residual ends the run.
pub fn solve(mg: &mut MultigridSolver, target: Target, tr: &mut Tracer) -> Solve {
    let (cap, floor) = match target {
        Target::Drop { orders, cap } => (cap, 10f64.powf(-orders)),
        Target::Cycles(n) => (n, 0.0),
    };
    let span = tr.begin("core.multigrid.solve");
    let mut history: Vec<f64> = Vec::with_capacity(cap);
    let mut cycle_s = Vec::with_capacity(cap);
    while history.len() < cap {
        let (r, dt) = tr.timed("core.multigrid.cycle", || mg.cycle());
        history.push(r);
        cycle_s.push(dt);
        if !r.is_finite() || (floor > 0.0 && r <= history[0] * floor) {
            break;
        }
    }
    tr.end(span);
    Solve { history, cycle_s }
}

/// What a solver workload measured, on any backend.
pub struct CycleRuns {
    pub setup_s: Vec<f64>,
    /// Seconds per cycle: every cycle of every repeat where the solver
    /// runs in this process, `wall_seconds / cycles` of each repeat where
    /// `run_distributed` owns the loop (that includes the in-run schedule
    /// build; `parti.build_s` sizes its share).
    pub cycle_s: Vec<f64>,
    /// Cycles to the target and history fingerprint of the first repeat.
    pub cycles: usize,
    pub fnv: u64,
    pub attempted: usize,
    pub failed: usize,
    /// Executor counters of the last in-process solve.
    pub counters: Option<PhaseCounters>,
}

impl CycleRuns {
    pub fn new(setup_s: Vec<f64>) -> CycleRuns {
        CycleRuns {
            setup_s,
            cycle_s: Vec::new(),
            cycles: 0,
            fnv: 0,
            attempted: 0,
            failed: 0,
            counters: None,
        }
    }

    /// Count one repeat: `ok` is its own checks; its cycle count and
    /// fingerprint must also repeat the first repeat's exactly.
    pub fn check(&mut self, history: &[f64], ok: bool) {
        let fnv = history_fnv(history);
        if self.attempted == 0 {
            self.cycles = history.len();
            self.fnv = fnv;
        }
        let repeats = history.len() == self.cycles && fnv == self.fnv;
        self.attempted += 1;
        self.failed += usize::from(!(ok && repeats));
    }
}

/// Build `setups` times (the last `repeats` of them go on to solve),
/// checking each solve against `target`, against the first repeat
/// (cycle count and fingerprint must repeat exactly) and, when given,
/// against the first cycles of a serial `reference` history.
pub fn run(
    exec: Exec,
    problem: &Problem,
    target: Target,
    repeats: usize,
    setups: usize,
    reference: Option<&[f64]>,
    tr: &mut Tracer,
) -> CycleRuns {
    let setups = setups.max(repeats);
    let mut out = CycleRuns::new(Vec::new());
    for i in 0..setups {
        let (mut mg, dt) = tr.timed("setup", || build(exec, problem));
        out.setup_s.push(dt);
        if i < setups - repeats {
            continue;
        }
        let s = solve(&mut mg, target, tr);
        let ok = reached(&s.history, target)
            && reference.is_none_or(|r| matches_reference(&s.history, r));
        out.check(&s.history, ok);
        out.cycle_s.extend(s.cycle_s);
        out.counters = Some(mg.counter);
    }
    out
}

/// Cycles of a parallel history held against the serial reference, and
/// the relative tolerance: what `tests/parallel_equivalence.rs` asserts.
pub const REFERENCE_CYCLES: usize = 5;
const REFERENCE_RTOL: f64 = 1e-8;

pub fn matches_reference(history: &[f64], reference: &[f64]) -> bool {
    let n = REFERENCE_CYCLES.min(reference.len());
    history.len() >= n
        && history[..n]
            .iter()
            .zip(&reference[..n])
            .all(|(a, b)| (a - b).abs() <= REFERENCE_RTOL * b.abs())
}

/// The in-process serial reference of a parallel workload: the history
/// to `target` on the same spec, untimed and untraced.
pub fn serial_reference(problem: &Problem, target: Target) -> Vec<f64> {
    let mut mg = build(Exec::Serial, problem);
    solve(&mut mg, target, &mut Tracer::new(false)).history
}
