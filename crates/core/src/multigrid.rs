//! The FAS multigrid solver (§2.3) on *unrelated* meshes or agglomerated
//! cells ([`Grids`]): one [`Hierarchy`] for the cycle in [`crate::fas`]
//! — on the mesh sequence, state down by direct interpolation, residuals
//! down through the transpose of the prolongation operator, corrections
//! up by interpolation — plus the one run loop ([`MultigridSolver::run`]:
//! guard, resume, durability) and the full-multigrid start-up around it.

use eul3d_mesh::gen::bump_channel;
use eul3d_mesh::{MeshSequence, TetMesh};
use eul3d_obs as obs;
use eul3d_partition::coloring::color_edge_list;

use crate::agglo::Agglomeration;
use crate::ckstore::{DurabilitySink, JobCheckpoint};
use crate::config::SolverConfig;
use crate::counters::{PhaseCounters, FLOPS_TRANSFER_VERT};
use crate::error::{Eul3dError, SolverError};
use crate::executor::{count_vertex_loop, Executor, Phase, SerialExecutor};
use crate::fas::{self, Hierarchy};
use crate::gas::NVAR;
use crate::health::{GuardConfig, GuardLoop, GuardOutcome};
use crate::level::{eval_total_residual, time_step, LevelState, SolverGrid};
use crate::runconfig::RunConfig;
use crate::shared::{self, SharedExecutor};
use crate::soa::SoaState;

/// Solution strategy, as compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fine grid only.
    SingleGrid,
    /// One time step per level per cycle.
    VCycle,
    /// Recursive cycle weighting the coarse grids more heavily.
    WCycle,
}

impl Strategy {
    /// Recursion multiplicity γ (coarse-level visits per fine visit).
    pub fn gamma(self) -> usize {
        match self {
            Strategy::WCycle => 2,
            _ => 1,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Strategy::SingleGrid => "single grid",
            Strategy::VCycle => "V-cycle",
            Strategy::WCycle => "W-cycle",
        }
    }
}

/// How a [`MultigridSolver`]'s coarse levels are made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coarsening {
    /// Independent coarser meshes of the same domain (the paper's §2.3).
    #[default]
    Sequence,
    /// Dual control volumes of the fine mesh fused into cells
    /// ([`crate::agglo`]).
    Agglo,
}

/// The grids a [`MultigridSolver`] cycles on, finest first.
pub enum Grids {
    /// The paper's sequence of unrelated meshes, with the §2.4
    /// interpolation operators between them.
    Sequence(MeshSequence),
    /// The fine mesh and the levels agglomerated from it.
    Agglo(Agglomeration),
}

impl From<MeshSequence> for Grids {
    fn from(seq: MeshSequence) -> Grids {
        Grids::Sequence(seq)
    }
}

impl Grids {
    /// The fine mesh, which every kind shares.
    pub fn fine(&self) -> &TetMesh {
        match self {
            Grids::Sequence(seq) => &seq.meshes[0],
            Grids::Agglo(agg) => &agg.mesh,
        }
    }

    /// Every level as the time step sees it, finest first.
    pub fn levels(&self) -> Vec<&dyn SolverGrid> {
        match self {
            Grids::Sequence(seq) => seq.meshes.iter().map(|m| m as &dyn SolverGrid).collect(),
            Grids::Agglo(agg) => (0..=agg.coarse.len()).map(|l| agg.grid(l)).collect(),
        }
    }
}

/// Events of one multigrid cycle, in execution order — the Figure-1
/// schedule ("Euler time steps are depicted by E, interpolations by I").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleEvent {
    /// An Euler time step on a level (E).
    Step(usize),
    /// Restriction of state + residuals from `from` to `from + 1`.
    Restrict(usize),
    /// Interpolation of corrections from `to + 1` back to `to` (I).
    Prolong(usize),
}

/// What one [`MultigridSolver::run`] arms besides cycling. Everything
/// but the cycle count is optional: [`RunPlan::cycles`] is the plain
/// solve.
#[derive(Default)]
pub struct RunPlan<'a> {
    /// Committed cycles the run ends at, a resumed prefix included.
    pub cycles: usize,
    /// The solver-health guard: after every cycle the fine state is
    /// scanned for non-finite / non-physical entries and the residual
    /// checked for divergence; a bad verdict rolls the fine state back
    /// to the last snapshot (every `snapshot_every` cycles) and backs
    /// the CFL off by `cfl_backoff`, up to `max_retries` times. After
    /// `reramp_after` clean cycles the CFL steps back toward the target.
    pub guard: Option<&'a GuardConfig>,
    /// Continue from this committed prefix instead of the current
    /// state; without one, the sink's resume point. Either is used only
    /// if it passes [`JobCheckpoint::fit`] — a misfit runs from the
    /// current state (callers that must refuse one check it first).
    pub resume: Option<JobCheckpoint>,
    /// Persist a [`JobCheckpoint`] through the sink every `.1`
    /// committed cycles (0 = never).
    pub durability: Option<(&'a mut dyn DurabilitySink, usize)>,
}

impl RunPlan<'_> {
    /// `n` plain cycles.
    pub fn cycles(n: usize) -> Self {
        RunPlan {
            cycles: n,
            ..RunPlan::default()
        }
    }
}

/// The multigrid EUL3D solver.
pub struct MultigridSolver {
    pub grids: Grids,
    pub cfg: SolverConfig,
    pub strategy: Strategy,
    pub levels: Vec<LevelState>,
    pub counter: PhaseCounters,
    /// When set, every cycle appends its event schedule here.
    pub record_events: bool,
    pub events: Vec<CycleEvent>,
    /// When present, time steps run through the shared-memory executors
    /// (one per level) — the paper's actual C90 configuration,
    /// which ran the full multigrid cycle under autotasking (§3.2).
    shared: Option<Vec<SharedExecutor>>,
}

impl MultigridSolver {
    pub fn new(grids: impl Into<Grids>, cfg: SolverConfig, strategy: Strategy) -> MultigridSolver {
        let grids = grids.into();
        let levels = grids
            .levels()
            .into_iter()
            .map(|g| LevelState::new(g, &cfg))
            .collect();
        MultigridSolver {
            grids,
            cfg,
            strategy,
            levels,
            counter: PhaseCounters::default(),
            record_events: false,
            events: Vec::new(),
            shared: None,
        }
    }

    /// Multigrid with every level's loops executed through the
    /// shared-memory path on a team of `ncpus` members. Fails if any
    /// level's edge colouring does not validate.
    pub fn new_shared(
        grids: impl Into<Grids>,
        cfg: SolverConfig,
        strategy: Strategy,
        ncpus: usize,
    ) -> Result<MultigridSolver, String> {
        let grids = grids.into();
        // One resident team for the whole solver: the levels run one
        // after another, never at once.
        let team = shared::build_team(ncpus)?;
        let execs = grids
            .levels()
            .into_iter()
            .map(|g| {
                let coloring = color_edge_list(g.grid_nverts(), g.grid_edges());
                SharedExecutor::with_team(g, coloring, team.clone())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut mg = MultigridSolver::new(grids, cfg, strategy);
        mg.shared = Some(execs);
        Ok(mg)
    }

    /// The solver a configured run asks for: its mesh family under
    /// `rc.coarsening`, its scheme and strategy — serial for `threads`
    /// 0, else on a shared-memory team of `threads` members.
    pub fn for_run(rc: &RunConfig, threads: usize) -> Result<MultigridSolver, Eul3dError> {
        let grids: Grids = match rc.coarsening {
            Coarsening::Sequence => MeshSequence::bump_sequence(&rc.mesh, rc.levels).into(),
            Coarsening::Agglo => {
                Grids::Agglo(Agglomeration::new(bump_channel(&rc.mesh), rc.levels))
            }
        };
        match threads {
            0 => Ok(MultigridSolver::new(grids, rc.solver, rc.strategy)),
            n => MultigridSolver::new_shared(grids, rc.solver, rc.strategy, n)
                .map_err(|e| SolverError::Coloring(e).into()),
        }
    }

    /// One full cycle of the configured strategy; returns the fine-grid
    /// density-residual norm.
    pub fn cycle(&mut self) -> f64 {
        self.events.clear();
        self.drive(None);
        self.levels[0].density_residual_norm(&self.grids.fine().vol)
    }

    /// Run `n` cycles, returning the residual history.
    pub fn solve(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.cycle()).collect()
    }

    /// The one run loop: cycles until `plan.cycles` are committed, with
    /// whatever `plan` arms. `on_cycle(cycle, residual)` fires once per
    /// committed cycle — first for a resumed prefix, then live — and
    /// never for a cycle the guard rejects; when a later verdict rolls
    /// the run back, the replayed cycles report again (the hook mirrors
    /// what actually executed). The service streams progress from it and
    /// checks cancellation inside it: the hook may unwind (e.g. via
    /// `FaultSignal`) and the solver stays coherent, because the cycle
    /// it interrupts is already committed.
    ///
    /// Returns the committed history (a resumed prefix included) and,
    /// when the guard was armed, its outcome. Only the guard fails:
    /// [`SolverError::RetriesExhausted`] once `max_retries` backoffs did
    /// not save the run. The configured CFL is restored either way.
    pub fn run(
        &mut self,
        plan: RunPlan<'_>,
        on_cycle: &mut dyn FnMut(usize, f64),
    ) -> Result<(Vec<f64>, Option<GuardOutcome>), SolverError> {
        let RunPlan {
            cycles: n,
            guard,
            resume,
            mut durability,
        } = plan;
        if let Some(g) = guard {
            g.validate()?;
        }
        let mut history = Vec::with_capacity(n);
        let resume = resume
            .or_else(|| {
                durability
                    .as_mut()
                    .and_then(|(sink, _)| sink.resume_point())
            })
            .filter(|ck| ck.fit(self.levels[0].n, n).is_ok());
        if let Some(ck) = resume {
            self.levels[0].w = SoaState::from_aos(&ck.w, NVAR);
            for (c, &r) in ck.history.iter().enumerate() {
                on_cycle(c, r);
            }
            history.extend_from_slice(&ck.history);
            if let Some((sink, _)) = durability.as_mut() {
                sink.resumed(ck.cycles_done);
            }
        }
        let target_cfl = self.cfg.cfl;
        // The fine-level `w` is the only state that persists between
        // cycles (every coarse level is rebuilt from it by restriction),
        // so one snapshot of it makes a guard rollback exact — and an
        // unguarded run allocates none.
        let mut guarded = guard.map(|g| {
            let mut gl = GuardLoop::new(target_cfl, g);
            gl.monitor.rebuild(&history);
            (gl, (self.levels[0].w.clone(), history.len()))
        });
        while history.len() < n {
            let c = history.len();
            if let Some((gl, (snap_w, snap_cycle))) = &mut guarded {
                if c.is_multiple_of(gl.cfg.snapshot_every) {
                    snap_w.copy_from(&self.levels[0].w);
                    *snap_cycle = c;
                }
                self.cfg.cfl = gl.gs.ctl.current;
            }
            let r = self.cycle();
            if let Some((gl, (snap_w, snap_cycle))) = &mut guarded {
                let fine = &self.levels[0];
                let verdict = gl.score(self.cfg.gamma, &fine.w, fine.n, r, &mut self.counter);
                if verdict.is_bad() {
                    obs::emit(obs::Event::GuardVerdict {
                        cycle: c as u64,
                        severity: verdict.severity(),
                    });
                    if gl.spent() {
                        self.cfg.cfl = target_cfl;
                        return Err(SolverError::RetriesExhausted {
                            cycle: c,
                            verdict,
                            transcript: std::mem::take(&mut gl.gs.transcript),
                            max_retries: gl.cfg.max_retries,
                        });
                    }
                    gl.gs.back_off(c, Some(*snap_cycle), verdict);
                    self.levels[0].w.copy_from(snap_w);
                    history.truncate(*snap_cycle);
                    gl.monitor.rebuild(&history);
                    continue;
                }
                gl.keep(r);
            }
            history.push(r);
            // Persist before announcing the cycle: once a caller has
            // observed `on_cycle(c)`, cycle c is durable — the service's
            // journal relies on exactly that ordering. The final cycle is
            // never checkpointed (completion is the terminal record).
            if let Some((sink, every)) = durability.as_mut() {
                let done = c + 1;
                if *every > 0 && done.is_multiple_of(*every) && done < n {
                    sink.checkpoint(&JobCheckpoint::new(history.clone(), &self.levels[0].w));
                }
            }
            on_cycle(c, r);
        }
        self.cfg.cfl = target_cfl;
        Ok((history, guarded.map(|(gl, _)| gl.outcome(None))))
    }

    /// Fine-grid conserved state (plane-major).
    pub fn state(&self) -> &crate::soa::SoaState {
        &self.levels[0].w
    }

    /// Full-multigrid (FMG) start-up: converge the coarsest grid first,
    /// then repeatedly interpolate the *solution* one level finer and run
    /// `cycles_per_level` cycles of the configured strategy on the
    /// sub-hierarchy — "mesh sequencing", the standard complement to the
    /// paper's scheme (its §2.3 notes new finer meshes can be introduced
    /// on top of a converged sequence, e.g. by adaptive refinement).
    ///
    /// Afterwards the fine grid starts from a coarse-grid solution
    /// instead of an impulsive freestream, which removes most of the
    /// startup transient.
    pub fn fmg_init(&mut self, cycles_per_level: usize) {
        self.drive(Some(cycles_per_level));
    }

    /// Run one cycle — or, given `fmg` cycles per level, the FMG start-up
    /// — on this solver's hierarchy. The only place the grid kind and the
    /// executor family are chosen; everything below is generic over them.
    fn drive(&mut self, fmg: Option<usize>) {
        let strategy = self.strategy;
        let events = self.record_events.then_some(&mut self.events);
        let (cfg, counter) = (&self.cfg, &mut self.counter);
        let levels = &mut self.levels[..];
        let serial = &mut vec![SerialExecutor; levels.len()];
        match (&self.grids, &mut self.shared) {
            (Grids::Sequence(grids), Some(execs)) => Levels {
                grids,
                cfg,
                levels,
                counter,
                execs,
            }
            .start(strategy, fmg, events),
            (Grids::Sequence(grids), None) => Levels {
                grids,
                cfg,
                levels,
                counter,
                execs: serial,
            }
            .start(strategy, fmg, events),
            (Grids::Agglo(grids), Some(execs)) => Levels {
                grids,
                cfg,
                levels,
                counter,
                execs,
            }
            .start(strategy, fmg, events),
            (Grids::Agglo(grids), None) => Levels {
                grids,
                cfg,
                levels,
                counter,
                execs: serial,
            }
            .start(strategy, fmg, events),
        }
    }
}

/// What one kind of coarse grid decides in the cycle: the grid each
/// level time-steps on, and the transfers between levels `l` and `l + 1`
/// of `levels` (as [`Hierarchy`] states them). Each transfer charges its
/// own work; all run serially on every backend (they are a small
/// fraction of the work, and the paper's tables fold them into the
/// cycle).
pub(crate) trait LevelGrids {
    type Grid: SolverGrid + ?Sized;
    fn grid(&self, l: usize) -> &Self::Grid;
    fn restrict_state(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters);
    fn restrict_residual(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters);
    fn prolong_correction(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters);
    /// State up, for full multigrid: set level `l`'s `w` from level
    /// `l + 1`'s.
    fn prolong_state(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters);
}

/// A [`MultigridSolver`]'s levels on grids `G`, each driven through its
/// own executor: the [`Hierarchy`] of either kind of coarse grid.
struct Levels<'a, G, E> {
    grids: &'a G,
    cfg: &'a SolverConfig,
    levels: &'a mut [LevelState],
    counter: &'a mut PhaseCounters,
    /// One executor per level.
    execs: &'a mut [E],
}

impl<G: LevelGrids, E: Executor> Levels<'_, G, E> {
    /// One cycle of `strategy` — or, given `fmg` cycles per level, the
    /// full-multigrid start-up: the coarsest level relaxes alone (its
    /// forcing is zero), and every finer one starts from the full state
    /// (not a correction) of the level below and drives its own
    /// sub-hierarchy.
    fn start(
        &mut self,
        strategy: Strategy,
        fmg: Option<usize>,
        mut events: Option<&mut Vec<CycleEvent>>,
    ) {
        let (top, cycles) = match fmg {
            Some(cycles_per_level) => (self.nlevels() - 1, cycles_per_level),
            None => (0, 1),
        };
        for l in (0..=top).rev() {
            if l < top {
                self.grids.prolong_state(l, self.levels, self.counter);
                self.levels[l].forcing.fill(0.0);
            }
            for _ in 0..cycles {
                fas::cycle(self, strategy, l, events.as_deref_mut());
            }
        }
    }
}

impl<G: LevelGrids, E: Executor> Hierarchy for Levels<'_, G, E> {
    fn nlevels(&self) -> usize {
        self.levels.len()
    }

    fn owned(&self, l: usize) -> usize {
        self.levels[l].n
    }

    fn state(&mut self, l: usize) -> &mut LevelState {
        &mut self.levels[l]
    }

    fn time_step(&mut self, l: usize) {
        time_step(
            self.grids.grid(l),
            &mut self.levels[l],
            self.cfg,
            l > 0,
            &mut self.execs[l],
            self.counter,
        );
    }

    fn eval_total_residual(&mut self, l: usize) {
        eval_total_residual(
            self.grids.grid(l),
            &mut self.levels[l],
            self.cfg,
            l > 0,
            &mut self.execs[l],
            self.counter,
        );
    }

    fn restrict_state(&mut self, l: usize) {
        self.grids.restrict_state(l, self.levels, self.counter);
    }

    fn restrict_residual(&mut self, l: usize) {
        self.grids.restrict_residual(l, self.levels, self.counter);
    }

    fn prolong_correction(&mut self, l: usize) {
        self.grids.prolong_correction(l, self.levels, self.counter);
    }
}

/// Apply `op(fine, coarse, plane)` to every component plane of levels
/// `l` and `l + 1`, charged as one transfer loop over level `counted`'s
/// vertices.
fn transfer(
    levels: &mut [LevelState],
    l: usize,
    counted: usize,
    counter: &mut PhaseCounters,
    op: impl Fn(&mut LevelState, &mut LevelState, usize),
) {
    let (fine, coarse) = levels.split_at_mut(l + 1);
    for c in 0..NVAR {
        op(&mut fine[l], &mut coarse[0], c);
    }
    count_vertex_loop(
        counter,
        Phase::Transfer,
        levels[counted].n,
        FLOPS_TRANSFER_VERT,
    );
}

/// The mesh sequence: the 4-address/4-weight interpolation operators of
/// §2.4 between unrelated meshes.
impl LevelGrids for MeshSequence {
    type Grid = TetMesh;

    fn grid(&self, l: usize) -> &TetMesh {
        &self.meshes[l]
    }

    /// Direct interpolation onto coarse vertices.
    fn restrict_state(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters) {
        transfer(levels, l, l + 1, counter, |fine, coarse, c| {
            self.to_coarse[l].interpolate(fine.w.plane(c), coarse.w.plane_mut(c))
        });
    }

    /// Transpose of prolongation.
    fn restrict_residual(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters) {
        transfer(levels, l, l, counter, |fine, coarse, c| {
            self.to_fine[l].restrict_transpose(fine.res.plane(c), coarse.corr.plane_mut(c))
        });
    }

    fn prolong_correction(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters) {
        transfer(levels, l, l, counter, |fine, coarse, c| {
            self.to_fine[l].interpolate(coarse.corr.plane(c), fine.corr.plane_mut(c))
        });
    }

    fn prolong_state(&self, l: usize, levels: &mut [LevelState], counter: &mut PhaseCounters) {
        transfer(levels, l, l, counter, |fine, coarse, c| {
            self.to_fine[l].interpolate(coarse.w.plane(c), fine.w.plane_mut(c))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eul3d_mesh::gen::BumpSpec;

    fn bump_seq(levels: usize) -> MeshSequence {
        let spec = BumpSpec {
            nx: 16,
            ny: 6,
            nz: 4,
            jitter: 0.12,
            ..BumpSpec::default()
        };
        MeshSequence::bump_sequence(&spec, levels)
    }

    #[test]
    fn freestream_generates_no_coarse_corrections() {
        // "as the residuals are driven to zero on the fine grid, no
        // corrections will be generated by the coarse grid" (§2.3): at
        // exact freestream the cycle must be a no-op.
        let seq = MeshSequence::box_sequence(6, 3, 0.15, 11);
        let cfg = SolverConfig::default();
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::VCycle);
        let before = mg.levels[0].w.clone();
        let r = mg.cycle();
        assert!(r < 1e-11, "freestream residual {r}");
        for (a, b) in mg.levels[0].w.flat().iter().zip(before.flat()) {
            assert!((a - b).abs() < 1e-9, "no corrections at convergence");
        }
    }

    #[test]
    fn v_cycle_converges_faster_than_single_grid() {
        let cycles = 25;
        let run = |strategy: Strategy| -> Vec<f64> {
            let seq = bump_seq(3);
            let cfg = SolverConfig {
                mach: 0.5,
                ..SolverConfig::default()
            };
            let mut mg = MultigridSolver::new(seq, cfg, strategy);
            mg.solve(cycles)
        };
        let sg = run(Strategy::SingleGrid);
        let v = run(Strategy::VCycle);
        let ratio_sg = sg.last().unwrap() / sg[0];
        let ratio_v = v.last().unwrap() / v[0];
        assert!(
            ratio_v < ratio_sg,
            "V-cycle ({ratio_v:.3e}) must beat single grid ({ratio_sg:.3e}) per cycle"
        );
    }

    #[test]
    fn w_cycle_does_more_work_per_cycle_than_v() {
        let mut mg_v = MultigridSolver::new(
            MeshSequence::box_sequence(6, 3, 0.1, 3),
            SolverConfig::default(),
            Strategy::VCycle,
        );
        let mut mg_w = MultigridSolver::new(
            MeshSequence::box_sequence(6, 3, 0.1, 3),
            SolverConfig::default(),
            Strategy::WCycle,
        );
        mg_v.cycle();
        mg_w.cycle();
        assert!(
            mg_w.counter.flops() > mg_v.counter.flops(),
            "W ({}) must cost more than V ({})",
            mg_w.counter.flops(),
            mg_v.counter.flops()
        );
    }

    /// A 3-level hierarchy of either kind over the same bump channel.
    fn bump_grids(kind: Coarsening) -> Grids {
        let spec = BumpSpec {
            nx: 16,
            ny: 6,
            nz: 4,
            jitter: 0.12,
            ..BumpSpec::default()
        };
        match kind {
            Coarsening::Sequence => MeshSequence::bump_sequence(&spec, 3).into(),
            Coarsening::Agglo => Grids::Agglo(Agglomeration::new(bump_channel(&spec), 3)),
        }
    }

    #[test]
    fn shared_multigrid_matches_serial_multigrid() {
        // The paper's C90 configuration: the whole W-cycle under the
        // team, on either kind of coarse grid. Block ownership keeps
        // every accumulation order, so it is the serial recursion bit
        // for bit.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        for (kind, ncpus) in [(Coarsening::Sequence, 3), (Coarsening::Agglo, 2)] {
            let mut serial = MultigridSolver::new(bump_grids(kind), cfg, Strategy::WCycle);
            let hs = serial.solve(4);
            let mut shared =
                MultigridSolver::new_shared(bump_grids(kind), cfg, Strategy::WCycle, ncpus)
                    .unwrap();
            let hp = shared.solve(4);
            for (a, b) in hs.iter().zip(&hp) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} histories: {a} vs {b}");
            }
            for (x, y) in serial.state().flat().iter().zip(shared.state().flat()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind:?} states diverge");
            }
            // Flop accounting is backend-independent: identical, not close.
            assert_eq!(serial.counter.flops(), shared.counter.flops(), "{kind:?}");
        }
    }

    #[test]
    fn fmg_startup_removes_the_impulsive_transient() {
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        for kind in [Coarsening::Sequence, Coarsening::Agglo] {
            let cold_start = {
                let mut mg = MultigridSolver::new(bump_grids(kind), cfg, Strategy::WCycle);
                mg.cycle()
            };
            let fmg_start = {
                let mut mg = MultigridSolver::new(bump_grids(kind), cfg, Strategy::WCycle);
                mg.fmg_init(15);
                mg.cycle()
            };
            assert!(
                fmg_start < 0.4 * cold_start,
                "{kind:?}: FMG first-cycle residual {fmg_start:.3e} should be far below cold start {cold_start:.3e}"
            );
        }
    }

    #[test]
    fn fmg_then_cycles_converges_with_less_total_work() {
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let mut cold = MultigridSolver::new(bump_seq(3), cfg, Strategy::WCycle);
        let cold_hist = cold.solve(25);

        let mut warm = MultigridSolver::new(bump_seq(3), cfg, Strategy::WCycle);
        warm.fmg_init(10);
        let warm_hist = warm.solve(10);
        assert!(
            warm_hist.last().unwrap() <= &(cold_hist.last().unwrap() * 3.0),
            "FMG ({:.2e} after {:.2e} flops) should compete with cold start ({:.2e} after {:.2e} flops)",
            warm_hist.last().unwrap(),
            warm.counter.flops(),
            cold_hist.last().unwrap(),
            cold.counter.flops()
        );
        assert!(warm.counter.flops() < cold.counter.flops());
    }

    #[test]
    fn nested_sequence_also_converges() {
        // The paper's unrelated meshes vs refinement-nested meshes: both
        // must drive the fine grid.
        use eul3d_mesh::gen::BumpSpec;
        let spec = BumpSpec {
            nx: 8,
            ny: 4,
            nz: 3,
            jitter: 0.1,
            ..BumpSpec::default()
        };
        let seq = MeshSequence::nested_bump_sequence(&spec, 3);
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
        let hist = mg.solve(40);
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.12),
            "nested-sequence multigrid must converge: {:?}",
            (hist[0], hist.last().unwrap())
        );
    }

    #[test]
    fn multigrid_solution_stays_physical() {
        let seq = bump_seq(3);
        let cfg = SolverConfig {
            mach: 0.675,
            ..SolverConfig::default()
        };
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
        let hist = mg.solve(20);
        assert!(hist.iter().all(|r| r.is_finite()));
        for i in 0..mg.levels[0].n {
            assert!(mg.state().get(i, 0) > 0.05, "density positive at {i}");
        }
        assert!(hist.last().unwrap() < &(hist[0] * 0.8));
    }

    /// The issue's seeded diverging case: a tapered (stretched) bump at
    /// an over-aggressive CFL. The unguarded driver goes non-finite in a
    /// handful of cycles; the guard must back off, roll back, and finish.
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

    fn aggressive_cfg() -> SolverConfig {
        SolverConfig {
            mach: 0.5,
            cfl: 30.0,
            ..SolverConfig::default()
        }
    }

    /// [`MultigridSolver::run`] with only the guard armed.
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

    #[test]
    fn guard_recovers_where_the_unguarded_run_diverges() {
        let cycles = 12;
        let mut bare = MultigridSolver::new(stretched_seq(), aggressive_cfg(), Strategy::VCycle);
        let h = bare.solve(cycles);
        assert!(
            h.iter().any(|x| !x.is_finite()),
            "seed case must actually diverge unguarded: {h:?}"
        );

        let guard = GuardConfig {
            cfl_backoff: 0.25,
            // Keep the CFL parked at the backoff floor so the outcome
            // shows the reduction (re-ramp behavior has its own test).
            reramp_after: 100,
            ..GuardConfig::default()
        };
        let mut mg = MultigridSolver::new(stretched_seq(), aggressive_cfg(), Strategy::VCycle);
        let (hist, outcome) = guarded(&mut mg, cycles, &guard).expect("guard must recover");
        assert_eq!(hist.len(), cycles);
        assert!(hist.iter().all(|x| x.is_finite()), "{hist:?}");
        assert!(
            !outcome.transcript.is_empty(),
            "recovery must go through at least one backoff epoch"
        );
        assert!(outcome.final_cfl < outcome.target_cfl);
        assert_eq!(outcome.target_cfl, 30.0);
        assert_eq!(outcome.exhausted, None);
        assert_eq!(
            crate::health::check_state(aggressive_cfg().gamma, &mg.levels[0].w, mg.levels[0].n),
            crate::health::HealthVerdict::Healthy
        );
        // The user-visible config is restored to the requested target.
        assert_eq!(mg.cfg.cfl, 30.0);
        // Guard work is visible in the per-phase accounting.
        assert!(mg.counter.comp[Phase::Guard.index()].flops > 0.0);
    }

    #[test]
    fn guard_outcome_across_target_cfls_on_the_stretched_case() {
        // The backoff cost of each target CFL over 12 V-cycles: the
        // stable targets run untouched; CFL 30 trips at cycle 3, backs
        // off once to 7.5 and replays 3 cycles; CFL 60 trips at cycle 0
        // and lands at 15 with nothing to replay.
        let guard = GuardConfig {
            cfl_backoff: 0.25,
            reramp_after: 100,
            ..GuardConfig::default()
        };
        for (cfl, backoffs, replayed, final_cfl) in [
            (2.8, 0, 0, 2.8),
            (10.0, 0, 0, 10.0),
            (30.0, 1, 3, 7.5),
            (60.0, 1, 0, 15.0),
        ] {
            let cfg = SolverConfig {
                cfl,
                ..aggressive_cfg()
            };
            let mut mg = MultigridSolver::new(stretched_seq(), cfg, Strategy::VCycle);
            let (history, outcome) = guarded(&mut mg, 12, &guard)
                .unwrap_or_else(|e| panic!("cfl {cfl} must recover: {e}"));
            assert!(
                history.iter().all(|x| x.is_finite()),
                "cfl {cfl}: {history:?}"
            );
            let t = &outcome.transcript;
            assert_eq!(t.len(), backoffs, "cfl {cfl}: backoffs");
            let replays: usize = t.iter().map(|e| e.cycle - e.rollback_to.unwrap_or(0)).sum();
            assert_eq!(replays, replayed, "cfl {cfl}: replayed cycles");
            assert_eq!(outcome.final_cfl, final_cfl, "cfl {cfl}: final CFL");
        }
    }

    #[test]
    fn guard_exhausts_retries_into_a_typed_error() {
        // A backoff factor this timid cannot rescue CFL 30 in two tries
        // (30 -> 28.5 -> 27.1, all far beyond the stability limit).
        let guard = GuardConfig {
            max_retries: 2,
            cfl_backoff: 0.95,
            ..GuardConfig::default()
        };
        let mut mg = MultigridSolver::new(stretched_seq(), aggressive_cfg(), Strategy::VCycle);
        let err = guarded(&mut mg, 20, &guard).expect_err("must exhaust");
        match err {
            SolverError::RetriesExhausted {
                verdict,
                transcript,
                max_retries,
                ..
            } => {
                assert!(verdict.is_bad());
                assert_eq!(transcript.len(), 2);
                assert_eq!(max_retries, 2);
                // Each retry recorded a strictly decreasing CFL.
                assert!(transcript[0].cfl_after > transcript[1].cfl_after);
            }
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(mg.cfg.cfl, 30.0, "target CFL restored even on failure");
    }

    #[test]
    fn guarded_serial_and_shared_agree_on_every_decision() {
        // The CFL schedule is pure configuration arithmetic, so serial
        // and shared must take bit-identical backoff decisions even
        // though their residuals differ in the last bits.
        let guard = GuardConfig {
            cfl_backoff: 0.25,
            ..GuardConfig::default()
        };
        let cycles = 12;
        let mut serial = MultigridSolver::new(stretched_seq(), aggressive_cfg(), Strategy::VCycle);
        let (hs, os) = guarded(&mut serial, cycles, &guard).expect("serial recovers");
        let mut shared =
            MultigridSolver::new_shared(stretched_seq(), aggressive_cfg(), Strategy::VCycle, 3)
                .expect("colouring validates");
        let (hp, op) = guarded(&mut shared, cycles, &guard).expect("shared recovers");

        assert_eq!(os.transcript.len(), op.transcript.len());
        for (a, b) in os.transcript.iter().zip(&op.transcript) {
            assert_eq!(a.cycle, b.cycle);
            assert_eq!(a.rollback_to, b.rollback_to);
            assert_eq!(
                a.verdict.canonical().severity(),
                b.verdict.canonical().severity()
            );
            assert_eq!(a.cfl_before.to_bits(), b.cfl_before.to_bits());
            assert_eq!(a.cfl_after.to_bits(), b.cfl_after.to_bits());
        }
        assert_eq!(os.final_cfl.to_bits(), op.final_cfl.to_bits());
        for (a, b) in hs.iter().zip(&hp) {
            assert!(
                (a - b).abs() < 1e-9 * a.abs().max(1e-30),
                "histories diverge after recovery: {a} vs {b}"
            );
        }
    }

    #[test]
    fn guard_is_a_no_op_on_a_healthy_run() {
        // Same cycles, same answer, empty transcript, CFL untouched.
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let mut bare = MultigridSolver::new(bump_seq(2), cfg, Strategy::VCycle);
        let hb = bare.solve(6);
        let mut mg = MultigridSolver::new(bump_seq(2), cfg, Strategy::VCycle);
        let (hg, outcome) = guarded(&mut mg, 6, &GuardConfig::default()).expect("healthy run");
        assert!(outcome.transcript.is_empty());
        assert_eq!(outcome.final_cfl.to_bits(), outcome.target_cfl.to_bits());
        for (a, b) in hb.iter().zip(&hg) {
            assert_eq!(a.to_bits(), b.to_bits(), "guard must not perturb the solve");
        }
    }

    #[test]
    fn guard_reramps_cfl_back_to_target_after_clean_cycles() {
        let guard = GuardConfig {
            cfl_backoff: 0.25,
            reramp_after: 3,
            ..GuardConfig::default()
        };
        // Diverges at CFL 30, recovers at 7.5; with re-ramp every 3 clean
        // cycles the controller climbs 7.5 -> 30 (capped) well within 30
        // cycles... and promptly diverges again at 30, backing off anew.
        // Run long enough to see at least one re-ramp step in the final
        // CFL trajectory: final CFL must sit strictly above the first
        // backoff floor.
        let mut mg = MultigridSolver::new(stretched_seq(), aggressive_cfg(), Strategy::VCycle);
        let (_, outcome) = guarded(&mut mg, 10, &guard).expect("recovers");
        let floor = outcome
            .transcript
            .iter()
            .map(|e| e.cfl_after)
            .fold(f64::INFINITY, f64::min);
        assert!(
            outcome.final_cfl > floor,
            "re-ramp must lift the CFL above the deepest backoff ({floor}) by the end: {}",
            outcome.final_cfl
        );
    }

    fn single_grid(mesh: eul3d_mesh::TetMesh, cfg: SolverConfig) -> MultigridSolver {
        MultigridSolver::new(
            MeshSequence::from_meshes(vec![mesh]),
            cfg,
            Strategy::SingleGrid,
        )
    }

    #[test]
    fn single_grid_converges_on_subsonic_bump() {
        let spec = BumpSpec {
            nx: 16,
            ny: 6,
            nz: 4,
            jitter: 0.12,
            ..BumpSpec::default()
        };
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let mut solver = single_grid(eul3d_mesh::gen::bump_channel(&spec), cfg);
        let hist = solver.solve(120);
        let start = hist[..3].iter().cloned().fold(0.0f64, f64::max);
        let end = hist.last().copied().unwrap();
        assert!(
            end < 0.1 * start,
            "residual must fall on the bump case: {start:.3e} -> {end:.3e}"
        );
        // Physicality of the converged-ish state.
        for i in 0..solver.levels[0].n {
            assert!(solver.state().get(i, 0) > 0.1, "density stays positive");
        }
    }

    /// A unit box whose density is disturbed so there is a transient to
    /// converge.
    fn disturbed_box(refine: usize, seed: u64, cfg: SolverConfig) -> MultigridSolver {
        let mut solver = single_grid(eul3d_mesh::gen::unit_box(refine, 0.15, seed), cfg);
        let w = &mut solver.levels[0].w;
        for i in 0..w.n() {
            w.set(i, 0, w.get(i, 0) * (1.0 + 0.01 * ((i % 7) as f64 - 3.0)));
        }
        solver
    }

    #[test]
    fn residual_history_is_finite_and_decreasing_overall() {
        let cfg = SolverConfig {
            mach: 0.4,
            ..SolverConfig::default()
        };
        let hist = disturbed_box(4, 7, cfg).solve(40);
        assert!(hist.iter().all(|r| r.is_finite()));
        assert!(hist.last().unwrap() < &hist[0]);
    }

    #[test]
    fn flop_counter_grows_linearly_with_cycles() {
        let mesh = eul3d_mesh::gen::unit_box(3, 0.1, 1);
        let mut solver = single_grid(mesh, SolverConfig::default());
        solver.cycle();
        let one = solver.counter.flops();
        solver.cycle();
        let two = solver.counter.flops();
        assert!((two - 2.0 * one).abs() < 1e-6 * one);
    }

    #[test]
    fn resume_continues_the_run_exactly() {
        // 10 uninterrupted cycles against 5, a checkpoint, and 5 more
        // from it on a fresh solver: the same history and state, bit for
        // bit, on one level and on a W-cycle (whose coarse levels the
        // checkpoint does not carry).
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let fresh: [&dyn Fn() -> MultigridSolver; 2] = [&|| disturbed_box(4, 3, cfg), &|| {
            MultigridSolver::new(bump_seq(3), cfg, Strategy::WCycle)
        }];
        for make in fresh {
            let mut whole = make();
            let reference = whole.solve(10);

            let mut first = make();
            let h5 = first.solve(5);
            let ck = JobCheckpoint::new(h5, first.state());
            let mut second = make();
            // A disturbed start must not leak in: the checkpoint replaces it.
            second.levels[0].w.set(0, 0, 7.0);
            let mut seen = Vec::new();
            let plan = RunPlan {
                resume: Some(ck),
                ..RunPlan::cycles(10)
            };
            let (history, outcome) = second.run(plan, &mut |c, r| seen.push((c, r))).unwrap();
            assert!(outcome.is_none());
            let bits = |h: &[f64]| h.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&history), bits(&reference));
            assert_eq!(seen.len(), 10, "the prefix replays, then the live cycles");
            assert!(seen.iter().enumerate().all(|(k, &(c, _))| c == k));
            assert_eq!(bits(whole.state().flat()), bits(second.state().flat()));
        }
    }

    #[test]
    fn a_misfit_resume_point_is_ignored() {
        let cfg = SolverConfig::default();
        let reference = disturbed_box(3, 3, cfg).solve(3);
        let ck = |w: Vec<f64>, history: Vec<f64>| JobCheckpoint {
            cycles_done: history.len() as u64,
            history,
            w,
        };
        let n = disturbed_box(3, 3, cfg).levels[0].n;
        for (bad, why) in [
            (ck(vec![1.0; 7], vec![1.0]), "wrong mesh"),
            (ck(vec![1.0; n * NVAR], vec![1.0; 4]), "past the run's end"),
            (ck(vec![f64::NAN; n * NVAR], vec![1.0]), "non-finite"),
        ] {
            assert!(bad.fit(n, 3).is_err(), "{why}");
            let mut mg = disturbed_box(3, 3, cfg);
            let plan = RunPlan {
                resume: Some(bad),
                ..RunPlan::cycles(3)
            };
            let (history, _) = mg.run(plan, &mut |_, _| {}).unwrap();
            assert_eq!(history, reference, "{why}: runs from the current state");
        }
    }

    #[test]
    fn guard_runs_on_from_a_resumed_prefix() {
        // The start state is all a resume point sets: the guard snapshots
        // it, never rolls back past it, and keeps the prefix.
        let guard = GuardConfig {
            cfl_backoff: 0.25,
            reramp_after: 100,
            ..GuardConfig::default()
        };
        let mut first = MultigridSolver::new(stretched_seq(), aggressive_cfg(), Strategy::VCycle);
        let (h3, _) = guarded(&mut first, 3, &guard).unwrap();
        let ck = JobCheckpoint::new(h3.clone(), first.state());
        let mut mg = MultigridSolver::new(stretched_seq(), aggressive_cfg(), Strategy::VCycle);
        let plan = RunPlan {
            guard: Some(&guard),
            resume: Some(ck),
            ..RunPlan::cycles(12)
        };
        let (history, outcome) = mg.run(plan, &mut |_, _| {}).expect("guard must recover");
        let outcome = outcome.unwrap();
        assert_eq!(history.len(), 12);
        assert_eq!(history[..3], h3[..]);
        assert!(history.iter().all(|x| x.is_finite()), "{history:?}");
        assert!(!outcome.transcript.is_empty());
        assert!(outcome.transcript.iter().all(|e| e.rollback_to >= Some(3)));
        assert_eq!(mg.cfg.cfl, 30.0);
    }
}
