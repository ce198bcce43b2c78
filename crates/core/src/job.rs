//! Job-scoped solver invocation for the service layer: one fully
//! described run ([`crate::RunConfig`] + mode + partitioner seed) in,
//! one deterministic artifact bundle out, cancellable at cycle
//! granularity through the same [`eul3d_delta::FaultSignal`] unwind
//! path the fault-injection machinery uses.
//!
//! Determinism is the contract. For a fixed `(config, mode, seed)` the
//! returned [`JobArtifacts`] are **byte-identical** across runs, worker
//! threads, and process restarts: the residual table prints floats with
//! Rust's shortest-round-trip formatting (unique per bit pattern), the
//! trace lanes ride the modeled clock (reset per job by
//! `obs::install`), and the VTK export is a pure function of the config's
//! mesh and the final Mach field. That is what lets the service layer
//! treat a cache hit and a recompute as provably interchangeable, and
//! keep data instead of text: [`render_trace`] turns the lanes, and
//! [`render_vtk`] the Mach field, back into the exact bytes the result
//! hash covers.

use std::panic::panic_any;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use eul3d_delta::FaultSignal;
use eul3d_mesh::gen::bump_channel;
use eul3d_mesh::vtk::write_vtk;
use eul3d_mesh::{MeshSequence, TetMesh};
use eul3d_obs as obs;

use crate::ckstore::DurabilitySink;
use crate::dist::{run_distributed_with_faults, DistOptions, DistSetup, FaultOptions};
use crate::error::{Eul3dError, SolverError};
use crate::health::GuardOutcome;
use crate::multigrid::RunPlan;
use crate::postproc::mach_field;
use crate::runconfig::Fnv1a128;
use crate::{MultigridSolver, Phase, RunConfig};

/// Cooperative cancellation handle for one job. Cloneable; any clone's
/// [`CancelToken::cancel`], or the deadline set by
/// [`CancelToken::arm_deadline`] passing, makes the next
/// [`CancelToken::check`] on the solver thread unwind via
/// [`FaultSignal::Killed`] — the exact non-local exit the
/// fault-injection recovery driver uses — which the job runner catches
/// with `catch_unwind`. Cancellation is therefore only observed at
/// committed-cycle boundaries, so a cancelled job never leaves a torn
/// solver state behind. The first cause observed sticks:
/// [`CancelToken::overran`] says whether it was the deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

#[derive(Debug, Default)]
struct TokenState {
    /// `LIVE`, `CANCELLED` or `OVERRAN`; leaves `LIVE` at most once.
    cause: AtomicU8,
    deadline: OnceLock<Instant>,
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const OVERRAN: u8 = 2;

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.settle(CANCELLED);
    }

    /// Cancel the job once `limit` has passed from now. Only the first
    /// call arms it.
    pub fn arm_deadline(&self, limit: Duration) {
        let _ = self.inner.deadline.set(Instant::now() + limit);
    }

    /// Whether cancellation has been requested or the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cause.load(Ordering::Acquire) != LIVE {
            return true;
        }
        let overdue = self
            .inner
            .deadline
            .get()
            .is_some_and(|&d| Instant::now() >= d);
        if overdue {
            self.settle(OVERRAN);
        }
        overdue
    }

    /// Whether the deadline, not [`CancelToken::cancel`], cancelled the
    /// job.
    pub fn overran(&self) -> bool {
        self.inner.cause.load(Ordering::Acquire) == OVERRAN
    }

    /// Record `cause` unless another cause got there first.
    fn settle(&self, cause: u8) {
        let _ = self
            .inner
            .cause
            .compare_exchange(LIVE, cause, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Unwind with [`FaultSignal::Killed`] if cancellation was
    /// requested or the deadline passed. Called by the job runner
    /// between committed cycles.
    pub fn check(&self) {
        if self.is_cancelled() {
            // The process-wide hook keeps expected unwinds silent.
            eul3d_delta::silence_fault_signal_panics();
            panic_any(FaultSignal::Killed);
        }
    }
}

/// Which driver a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobMode {
    /// Sequential multigrid on the driver thread (guarded when the
    /// config arms the guard). Cancellable per cycle.
    #[default]
    Solve,
    /// SPMD run on the simulated Delta (or hybrid threads), with
    /// faults/recovery/guard per the config. The SPMD region runs to
    /// completion once entered; cancellation is observed before setup
    /// and before launch.
    Distributed,
}

impl JobMode {
    /// Wire name (`"solve"` / `"distributed"`).
    pub fn name(self) -> &'static str {
        match self {
            JobMode::Solve => "solve",
            JobMode::Distributed => "distributed",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<JobMode> {
        match s {
            "solve" => Some(JobMode::Solve),
            "distributed" | "dist" => Some(JobMode::Distributed),
            _ => None,
        }
    }
}

/// The deterministic result bundle of one completed job.
#[derive(Debug, Clone)]
pub struct JobArtifacts {
    /// Committed residual history (bit-identical across reruns).
    pub history: Vec<f64>,
    /// The residual table: exact shortest-round-trip floats plus the
    /// final-state content hash, so two byte-identical tables imply
    /// bit-identical states.
    pub table: String,
    /// The trace lanes the run recorded when the config arms tracing:
    /// the driver lane of a solve, every virtual-rank instance of a
    /// distributed run ([`crate::dist::DistRunResult::lanes`]); empty
    /// otherwise. [`render_trace`] renders their Chrome JSON on request.
    pub lanes: Vec<obs::Lane>,
    /// Local Mach number of the final state at every fine-mesh vertex:
    /// 8 bytes a vertex, where its ASCII VTK export takes about 170.
    /// [`render_vtk`] renders that export on request.
    pub mach: Vec<f64>,
    /// Guard outcome of a guarded run.
    pub guard: Option<GuardOutcome>,
    /// FNV-1a 128 over table ‖ the trace [`JobArtifacts::trace`]
    /// renders ‖ the VTK text [`render_vtk`] renders from `mach` — the
    /// content address of the result itself.
    pub result_hash: u128,
}

impl JobArtifacts {
    /// The Chrome trace of a traced run's lanes; `None` when the run was
    /// not traced.
    pub fn trace(&self) -> Option<String> {
        (!self.lanes.is_empty()).then(|| render_trace(&self.lanes))
    }
}

/// Chrome `trace_event` JSON of `lanes` with the solver's phase labels:
/// the one rendering of a job's trace, byte-identical for identical
/// lanes.
pub fn render_trace(lanes: &[obs::Lane]) -> String {
    obs::chrome_trace(lanes, &Phase::labels())
}

fn config_err(msg: &str) -> Eul3dError {
    Eul3dError::Solver(SolverError::ConfigParse {
        line: 0,
        msg: msg.to_string(),
    })
}

/// Exact-float residual table. `{r}` is Rust's shortest-round-trip
/// formatting: distinct bit patterns render distinctly, so byte-equality
/// of tables is bit-equality of histories (and, through the state hash,
/// of final states).
fn render_table(
    rc: &RunConfig,
    mode: JobMode,
    history: &[f64],
    state_hash: u128,
    guard: Option<&GuardOutcome>,
) -> String {
    let mut out = String::new();
    out.push_str("# eul3d job result\n");
    out.push_str(&format!("mode = \"{}\"\n", mode.name()));
    out.push_str(&format!("config_hash = \"{:032x}\"\n", rc.canonical_hash()));
    if let Some(g) = guard {
        out.push_str(&format!(
            "guard_backoffs = {}\nguard_final_cfl = {}\n",
            g.transcript.len(),
            g.final_cfl
        ));
    }
    out.push_str("cycle\tresidual\n");
    for (c, r) in history.iter().enumerate() {
        out.push_str(&format!("{c}\t{r}\n"));
    }
    out.push_str(&format!("state_fnv128 = \"{state_hash:032x}\"\n"));
    out
}

/// Content hash of a state vector: FNV-1a 128 over the little-endian
/// bit patterns, so two equal hashes mean bit-identical states.
fn hash_f64s(vals: &[f64]) -> u128 {
    let mut h = Fnv1a128::default();
    for v in vals {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// The ASCII VTK export of a job's final Mach field (a
/// [`JobArtifacts::mach`]): `mach` on the fine mesh of `rc`, which is
/// regenerated here. Every job path solves on that mesh, so the text is
/// byte for byte the one the job's `result_hash` covers. A field that
/// does not fit the mesh is [`SolverError::FieldLength`], never a VTK
/// of the wrong mesh.
pub fn render_vtk(rc: &RunConfig, mach: &[f64]) -> Result<String, Eul3dError> {
    let mut buf = Vec::new();
    write_mach_vtk(&mut buf, &bump_channel(&rc.mesh), mach)?;
    String::from_utf8(buf).map_err(|_| config_err("vtk export produced non-UTF-8 output"))
}

fn write_mach_vtk(
    out: &mut impl std::io::Write,
    mesh: &TetMesh,
    mach: &[f64],
) -> Result<(), Eul3dError> {
    if mach.len() != mesh.nverts() {
        return Err(SolverError::FieldLength {
            field: "mach",
            len: mach.len(),
            nverts: mesh.nverts(),
        }
        .into());
    }
    write_vtk(out, mesh, &[("mach", mach)])
        .map_err(|e| config_err(&format!("vtk export failed: {e}")))
}

/// Run one job to completion on the calling thread.
///
/// * `partition_seed` seeds the RSB partitioner of the distributed path
///   (the service layer pins it at startup so cache keys are stable);
///   the solve path ignores it.
/// * `cancel` is polled at committed-cycle boundaries (solve) and
///   between setup stages (distributed); a cancelled job unwinds with
///   [`FaultSignal::Killed`], which the caller must `catch_unwind`.
/// * `on_cycle(cycle, residual)` streams progress: live per cycle on
///   the solve path, replayed from the committed history after the SPMD
///   region on the distributed path.
///
/// The returned artifacts are byte-identical for identical
/// `(config, mode, seed)` regardless of thread, load, or prior jobs on
/// the worker (the per-job `obs::install` resets the modeled clock).
pub fn run_job(
    rc: &RunConfig,
    mode: JobMode,
    partition_seed: u64,
    cancel: &CancelToken,
    on_cycle: &mut dyn FnMut(u64, f64),
) -> Result<JobArtifacts, Eul3dError> {
    run_job_durable(rc, mode, partition_seed, cancel, on_cycle, None)
}

/// [`run_job`] with a durability sink: the solve path's
/// [`MultigridSolver::run`] takes its resume point from `durability`
/// before the first cycle and persists a [`crate::JobCheckpoint`]
/// through it at every `checkpoint_every` committed cycles (never at the
/// final one — completion is the terminal record).
///
/// Resume is **bit-exact**: the checkpoint carries the committed history
/// and the fine-grid state, and every coarse multigrid level is rebuilt
/// from the fine grid by restriction at the start of each cycle, so a
/// resumed run produces artifacts byte-identical to an uninterrupted
/// one. `on_cycle` is replayed for the committed prefix so progress
/// streaming is seamless across the resume.
///
/// The sink is only used on the solve path with tracing disabled and no
/// guard armed: a Chrome trace rides the modeled clock from cycle 0 (a
/// resumed trace could not be byte-identical) and guard retry state is
/// not serialized. In those configurations — and on the distributed
/// path — the job simply runs from scratch and writes no checkpoints. A
/// resume point that does not [fit](crate::JobCheckpoint::fit) the
/// config is ignored, not an error: a damaged resume point costs
/// recompute, never the job.
pub fn run_job_durable(
    rc: &RunConfig,
    mode: JobMode,
    partition_seed: u64,
    cancel: &CancelToken,
    on_cycle: &mut dyn FnMut(u64, f64),
    durability: Option<&mut dyn DurabilitySink>,
) -> Result<JobArtifacts, Eul3dError> {
    rc.validate()?;
    cancel.check();
    match mode {
        JobMode::Solve => run_solve_job(rc, cancel, on_cycle, durability),
        JobMode::Distributed => run_dist_job(rc, partition_seed, cancel, on_cycle),
    }
}

fn run_solve_job(
    rc: &RunConfig,
    cancel: &CancelToken,
    on_cycle: &mut dyn FnMut(u64, f64),
    durability: Option<&mut dyn DurabilitySink>,
) -> Result<JobArtifacts, Eul3dError> {
    if rc.faults.is_some() {
        return Err(config_err(
            "fault plans require mode = \"distributed\" (the solve driver has no recovery path)",
        ));
    }
    let mut mg = MultigridSolver::for_run(rc, 0)?;
    cancel.check();
    if rc.trace.enabled {
        obs::install(Box::new(obs::RingTracer::new(rc.trace.capacity)));
    }
    let plan = RunPlan {
        cycles: rc.cycles,
        guard: rc.guard.as_ref(),
        resume: None,
        checkpoint_every: rc.checkpoint_every,
        // The one policy: no sink under a guard or a trace.
        durability: durability
            .filter(|_| rc.guard.is_none() && !rc.trace.enabled)
            .map(|sink| sink as &mut dyn DurabilitySink),
    };
    let (history, guard) = mg.run(plan, &mut |c, r| {
        on_cycle(c as u64, r);
        cancel.check();
    })?;
    let lanes = rc.trace.enabled.then(obs::Lane::take_driver).flatten();
    let nverts = mg.levels[0].n;
    let w = &mg.levels[0].w;
    let table = render_table(
        rc,
        JobMode::Solve,
        &history,
        hash_f64s(&w.to_aos()),
        guard.as_ref(),
    );
    let mach = mach_field(rc.solver.gamma, w, nverts);
    finish(
        mg.grids.fine(),
        history,
        table,
        lanes.into_iter().collect(),
        mach,
        guard,
    )
}

fn run_dist_job(
    rc: &RunConfig,
    partition_seed: u64,
    cancel: &CancelToken,
    on_cycle: &mut dyn FnMut(u64, f64),
) -> Result<JobArtifacts, Eul3dError> {
    let seq = MeshSequence::bump_sequence(&rc.mesh, rc.levels);
    cancel.check();
    let setup = DistSetup::for_run(seq, rc, partition_seed)?;
    cancel.check();

    let fopts = FaultOptions::for_run(rc)?;
    // Real-time lanes would break byte-identity; job traces always ride
    // the modeled clock (`for_run`'s default), even on the hybrid backend.
    let opts = DistOptions::for_run(rc, partition_seed);
    let r = run_distributed_with_faults(&setup, rc.solver, rc.strategy, rc.cycles, opts, &fopts)?;
    let history = r.history().to_vec();
    for (c, &res) in history.iter().enumerate() {
        on_cycle(c as u64, res);
    }
    let guard = r.guard_outcome().cloned();
    let lanes = if rc.trace.enabled {
        r.lanes()
    } else {
        Vec::new()
    };
    let nverts = setup.seq.meshes[0].nverts();
    let aos = r.global_state(nverts);
    let table = render_table(
        rc,
        JobMode::Distributed,
        &history,
        hash_f64s(&aos),
        guard.as_ref(),
    );
    let w = crate::SoaState::from_aos(&aos, crate::NVAR);
    let mach = mach_field(rc.solver.gamma, &w, nverts);
    finish(&setup.seq.meshes[0], history, table, lanes, mach, guard)
}

/// Bundle the artifacts. The trace of `lanes` and the VTK of `mach` on
/// `mesh` (the fine mesh the job solved on) are rendered once, straight
/// into the result hash.
fn finish(
    mesh: &TetMesh,
    history: Vec<f64>,
    table: String,
    lanes: Vec<obs::Lane>,
    mach: Vec<f64>,
    guard: Option<GuardOutcome>,
) -> Result<JobArtifacts, Eul3dError> {
    let mut a = JobArtifacts {
        history,
        table,
        lanes,
        mach,
        guard,
        result_hash: 0,
    };
    let mut h = Fnv1a128::default();
    h.update(a.table.as_bytes());
    if let Some(t) = a.trace() {
        h.update(t.as_bytes());
    }
    write_mach_vtk(&mut h, mesh, &a.mach)?;
    a.result_hash = h.finish();
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coarsening;

    fn small_rc(cycles: usize) -> RunConfig {
        RunConfig {
            levels: 2,
            cycles,
            mesh: eul3d_mesh::gen::BumpSpec {
                nx: 8,
                ny: 4,
                nz: 3,
                ..Default::default()
            },
            nranks: 4,
            ..RunConfig::default()
        }
    }

    #[test]
    fn solve_job_is_byte_deterministic_and_streams_progress() {
        let rc = small_rc(4);
        let token = CancelToken::new();
        let mut seen = Vec::new();
        let a = run_job(&rc, JobMode::Solve, 7, &token, &mut |c, r| {
            seen.push((c, r));
        })
        .unwrap();
        let b = run_job(&rc, JobMode::Solve, 7, &token, &mut |_, _| {}).unwrap();
        assert_eq!(a.table, b.table);
        assert_eq!(bits(&a.mach), bits(&b.mach));
        assert_eq!(a.result_hash, b.result_hash);
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[2].1, a.history[2].to_owned());
        assert!(a.table.contains("state_fnv128"));
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    /// `render_trace` re-renders, from the kept lanes, and `render_vtk`,
    /// from the config and the kept Mach field, the very text
    /// `result_hash` covers; a field of the wrong length is a typed
    /// error, not a VTK of the wrong mesh.
    fn rendered_text_is_the_hashed_text(rc: &RunConfig, mode: JobMode) {
        let a = run_job(rc, mode, 7, &CancelToken::new(), &mut |_, _| {}).unwrap();
        let vtk = render_vtk(rc, &a.mach).unwrap();
        assert!(vtk.starts_with("# vtk DataFile Version 3.0\n"));
        assert!(vtk.contains("SCALARS mach double 1\n"));
        let mut h = Fnv1a128::default();
        h.update(a.table.as_bytes());
        if !a.lanes.is_empty() {
            h.update(render_trace(&a.lanes).as_bytes());
        }
        h.update(vtk.as_bytes());
        assert_eq!(h.finish(), a.result_hash, "{mode:?} {:?}", rc.coarsening);
        for len in [0, a.mach.len() - 1, a.mach.len() + 1] {
            let err = render_vtk(rc, &vec![1.0; len]).unwrap_err();
            assert_eq!(
                err,
                Eul3dError::Solver(SolverError::FieldLength {
                    field: "mach",
                    len,
                    nverts: a.mach.len(),
                })
            );
        }
    }

    #[test]
    fn sequence_solve_renders_its_hashed_vtk() {
        let rc = RunConfig {
            trace: crate::TraceConfig {
                enabled: true,
                ..Default::default()
            },
            ..small_rc(3)
        };
        rendered_text_is_the_hashed_text(&rc, JobMode::Solve);
    }

    #[test]
    fn agglomerated_solve_renders_its_hashed_vtk() {
        let rc = RunConfig {
            coarsening: Coarsening::Agglo,
            levels: 3,
            ..small_rc(3)
        };
        rendered_text_is_the_hashed_text(&rc, JobMode::Solve);
    }

    #[test]
    fn distributed_job_renders_its_hashed_vtk() {
        let rc = RunConfig {
            nranks: 3,
            trace: crate::TraceConfig {
                enabled: true,
                ..Default::default()
            },
            ..small_rc(3)
        };
        rendered_text_is_the_hashed_text(&rc, JobMode::Distributed);
    }

    #[test]
    fn cancel_unwinds_with_fault_signal() {
        let rc = small_rc(50);
        let token = CancelToken::new();
        let t2 = token.clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(&rc, JobMode::Solve, 7, &token, &mut |c, _| {
                if c == 1 {
                    t2.cancel();
                }
            })
        }))
        .expect_err("cancellation must unwind");
        assert!(
            err.downcast_ref::<FaultSignal>().is_some(),
            "payload must be the FaultSignal unwind"
        );
    }

    #[test]
    fn the_first_cause_sticks() {
        let overran = CancelToken::new();
        assert!(!overran.is_cancelled(), "no deadline armed");
        overran.arm_deadline(Duration::ZERO);
        overran.arm_deadline(Duration::from_secs(3600));
        assert!(
            overran.is_cancelled() && overran.overran(),
            "the first arm counts"
        );
        overran.cancel();
        assert!(overran.overran());

        let cancelled = CancelToken::new();
        cancelled.arm_deadline(Duration::from_secs(3600));
        assert!(!cancelled.is_cancelled(), "the deadline is an hour away");
        cancelled.cancel();
        cancelled.arm_deadline(Duration::ZERO);
        assert!(cancelled.is_cancelled() && !cancelled.overran());
    }

    /// Collects every checkpoint and hands out a scripted resume point —
    /// the in-memory stand-in for the serve layer's disk-backed sink.
    #[derive(Default)]
    struct MemSink {
        resume: Option<crate::ckstore::JobCheckpoint>,
        taken: Vec<crate::ckstore::JobCheckpoint>,
    }

    impl crate::ckstore::DurabilitySink for MemSink {
        fn resume_point(&mut self) -> Option<crate::ckstore::JobCheckpoint> {
            self.resume.clone()
        }

        fn checkpoint(&mut self, ck: &crate::ckstore::JobCheckpoint) {
            self.taken.push(ck.clone());
        }
    }

    #[test]
    fn durable_resume_is_byte_identical_to_uninterrupted_run() {
        // The checkpoint stores only the fine-grid state; this test is
        // the proof that restriction rebuilds every coarse level, so the
        // resumed multigrid run reproduces the uninterrupted one bit for
        // bit, on either kind of coarse grid.
        let tables = [Coarsening::Sequence, Coarsening::Agglo].map(|coarsening| {
            let rc = RunConfig {
                checkpoint_every: 2,
                coarsening,
                ..small_rc(8)
            };
            durable_resume_matches(&rc)
        });
        assert_ne!(tables[0], tables[1], "a job runs the hierarchy it asks for");
    }

    /// Resume `rc`'s job from each of its checkpoints; the uninterrupted
    /// run's residual table.
    fn durable_resume_matches(rc: &RunConfig) -> String {
        let token = CancelToken::new();
        let mut full_sink = MemSink::default();
        let base = run_job_durable(
            rc,
            JobMode::Solve,
            7,
            &token,
            &mut |_, _| {},
            Some(&mut full_sink),
        )
        .unwrap();
        // Checkpoints at cycles 2, 4, 6 — never at the final cycle.
        assert_eq!(
            full_sink
                .taken
                .iter()
                .map(|c| c.cycles_done)
                .collect::<Vec<_>>(),
            vec![2, 4, 6]
        );
        for ck in &full_sink.taken {
            // Resume from every checkpoint the run produced.
            let mut sink = MemSink {
                resume: Some(ck.clone()),
                ..MemSink::default()
            };
            let mut seen = Vec::new();
            let resumed = run_job_durable(
                rc,
                JobMode::Solve,
                7,
                &token,
                &mut |c, r| seen.push((c, r)),
                Some(&mut sink),
            )
            .unwrap();
            assert_eq!(resumed.table, base.table, "resume at {}", ck.cycles_done);
            assert_eq!(
                bits(&resumed.mach),
                bits(&base.mach),
                "resume at {}",
                ck.cycles_done
            );
            assert_eq!(resumed.result_hash, base.result_hash);
            assert_eq!(resumed.history, base.history);
            // Progress replays the committed prefix then streams live.
            assert_eq!(seen.len(), 8);
            for (c, (sc, sr)) in seen.iter().enumerate() {
                assert_eq!(*sc, c as u64);
                assert_eq!(*sr, base.history[c]);
            }
            // Later checkpoints are still emitted after a resume.
            assert!(sink
                .taken
                .iter()
                .all(|later| later.cycles_done > ck.cycles_done));
        }
        base.table
    }

    #[test]
    fn unusable_resume_points_are_ignored_not_fatal() {
        let mut rc = small_rc(4);
        rc.checkpoint_every = 2;
        let token = CancelToken::new();
        let base = run_job(&rc, JobMode::Solve, 7, &token, &mut |_, _| {}).unwrap();
        let bad_points = vec![
            // Wrong mesh size.
            crate::ckstore::JobCheckpoint {
                cycles_done: 2,
                history: vec![1.0, 0.5],
                w: vec![1.0; 7],
            },
            // History length disagrees with the committed cycle count.
            crate::ckstore::JobCheckpoint {
                cycles_done: 2,
                history: vec![1.0],
                w: vec![1.0; 160 * crate::NVAR],
            },
            // Beyond the requested cycle count.
            crate::ckstore::JobCheckpoint {
                cycles_done: 99,
                history: vec![1.0; 99],
                w: vec![1.0; 160 * crate::NVAR],
            },
        ];
        for bad in bad_points {
            let mut sink = MemSink {
                resume: Some(bad),
                ..MemSink::default()
            };
            let got = run_job_durable(
                &rc,
                JobMode::Solve,
                7,
                &token,
                &mut |_, _| {},
                Some(&mut sink),
            )
            .unwrap();
            assert_eq!(got.result_hash, base.result_hash, "runs from scratch");
        }
    }

    #[test]
    fn solve_mode_rejects_fault_plans() {
        let mut rc = small_rc(4);
        rc.faults = Some("kill:1@2".into());
        rc.checkpoint_every = 2;
        let err = run_job(&rc, JobMode::Solve, 7, &CancelToken::new(), &mut |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("distributed"), "{err}");
    }
}
