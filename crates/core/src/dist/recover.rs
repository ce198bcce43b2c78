//! Fault-tolerant distributed driver: deterministic fault injection,
//! failure detection, and checkpoint/rollback recovery on the simulated
//! Delta.
//!
//! The fault model and protocol (see `DESIGN.md` §6):
//!
//! * Every rank installs the same [`FaultPlan`]; each evaluates only the
//!   events it originates. Faults surface as [`FaultSignal`] unwinds out
//!   of the communication layer — `Killed` on the doomed rank,
//!   `Recover { epoch, .. }` on survivors when they detect loss,
//!   corruption, a death notice, a peer's abort, or a bounded-receive
//!   timeout.
//! * Survivors **roll back** to the newest checkpoint *every* live
//!   instance still holds (agreed by an `all_reduce_max` over negated
//!   checkpoint cycles), **rebuild** all PARTI schedules in a fresh,
//!   epoch-shifted tag space, and **resume** the cycle loop.
//! * A dead rank's partition is **adopted** by a deterministically
//!   chosen buddy (the first live virtual id after it): the buddy hosts
//!   a replica thread that takes over the dead rank's windows and inbox
//!   and runs this same loop. The computation graph — who owns which vertices,
//!   the order of every collective reduction — is unchanged, so a
//!   recovered run reproduces the fault-free residual history **bit for
//!   bit**; only the cost model sees the load imbalance.
//!
//! Checkpoints are in-memory and replicated: every `checkpoint_every`
//! cycles the owned fine-grid state is gathered to virtual rank 0,
//! reassembled into global layout, and broadcast back, so any survivor
//! can serve a restore. Two generations are kept (double-buffered), the
//! writer always overwriting the older slot, and rollback discards
//! checkpoints from beyond the rollback point — together this guarantees
//! the agreed rollback target is restorable everywhere even when a fault
//! lands in the middle of a checkpoint.
//!
//! The same rollback path doubles as the **numeric** recovery of the
//! solver-health guard (`DESIGN.md` §7): after every cycle each rank
//! scans its owned state, merges in the residual-divergence diagnosis,
//! and the machine agrees on the worst verdict with one pooled
//! `all_reduce_max` over [`HealthVerdict::encode`]. A bad verdict drives
//! the very same recovery state machine — epoch bump, schedule rebuild
//! in a shifted tag space, checkpoint rollback — with one deliberate
//! difference in what happens to the guard state itself: a *fault*
//! recovery restores [`GuardState`] from the checkpoint (so the replay
//! re-derives the identical CFL schedule, keeping bit-for-bit
//! composition with fault injection), while a *numeric* rollback keeps
//! the freshly backed-off state (so repeated failures compound the
//! backoff instead of livelocking on an identical replay).

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Scope;
use std::time::Duration;

use eul3d_delta::{run_spmd, CommClass, DeltaError, FaultPlan, FaultSignal, Rank, RankCounters};
use eul3d_obs as obs;
use eul3d_partition::PartitionOptions;

use crate::config::SolverConfig;
use crate::counters::{CommMark, PhaseCounters};
use crate::error::{Eul3dError, SolverError};
use crate::executor::Phase;
use crate::gas::NVAR;
use crate::health::{GuardConfig, GuardLoop, GuardState, HealthVerdict};
use crate::multigrid::Strategy;
use crate::runconfig::RunConfig;

use super::setup::{partitioner_of, DistSetup};
use super::solver::{
    AdoptedOutput, DistOptions, DistRunResult, DistSolver, RankFate, RankOutput, RepartitionPolicy,
};

/// Fault-injection, recovery and guard options of a distributed run. The
/// default is fault-free and unguarded: empty plan, no checkpoints, and
/// the communication layer stays on its blocking (timeout-free) fast
/// path.
#[derive(Debug, Clone)]
pub struct FaultOptions {
    /// The machine-wide fault plan (shared; each rank evaluates only the
    /// events it originates).
    pub plan: Arc<FaultPlan>,
    /// Checkpoint cadence in cycles (0 = never, or the guard's
    /// `snapshot_every` on a guarded run). A cadence of `k` also
    /// snapshots the initial state before cycle 1, so there is always a
    /// rollback target once the first commit lands.
    pub checkpoint_every: usize,
    /// Bounded wait used to detect silently lost messages and window
    /// records. Simulation wall-clock, not cost-model time; only armed
    /// when the plan can drop one.
    pub recv_timeout_ms: u64,
    /// The solver-health guard (`None` = unguarded): every cycle ends
    /// with a state/residual check and one pooled verdict agreement, and
    /// a bad verdict backs the CFL off and rolls every rank back through
    /// the recovery epochs faults use.
    pub guard: Option<GuardConfig>,
}

impl Default for FaultOptions {
    fn default() -> FaultOptions {
        FaultOptions {
            plan: Arc::new(FaultPlan::none()),
            checkpoint_every: 0,
            recv_timeout_ms: 1500,
            guard: None,
        }
    }
}

impl FaultOptions {
    /// The fault context of a configured run: its fault plan (parsed for
    /// [`RunConfig::effective_nranks`]), checkpoint cadence, receive
    /// timeout and guard. A run with neither a plan nor a guard never
    /// rolls back, so it keeps the fault-free default and takes no
    /// checkpoints; a guarded run needs the cadence for its rollback
    /// checkpoints even when nothing is killed.
    pub fn for_run(rc: &RunConfig) -> Result<FaultOptions, DeltaError> {
        let plan = match &rc.faults {
            Some(spec) => FaultPlan::parse(spec, rc.effective_nranks())?,
            None if rc.guard.is_some() => FaultPlan::none(),
            None => return Ok(FaultOptions::default()),
        };
        Ok(FaultOptions {
            plan: Arc::new(plan),
            checkpoint_every: rc.checkpoint_every,
            recv_timeout_ms: rc.fault_timeout_ms,
            guard: rc.guard,
        })
    }
}

/// Everything the SPMD body needs, bundled so replicas can share it.
struct Ctx<'a> {
    setup: &'a DistSetup,
    cfg: SolverConfig,
    strategy: Strategy,
    cycles: usize,
    opts: DistOptions,
    /// Checkpoint cadence in cycles (0 = never).
    checkpoint_every: usize,
    /// Solver-health guard configuration (`None` = unguarded run).
    guard: Option<GuardConfig>,
    /// Lazily-built per-era partition plans for mid-run repartitioning,
    /// shared by every instance of the run.
    plans: PlanCache,
}

/// Cache of migration-era [`DistSetup`]s. Era `k`'s plan is cut from the
/// shared mesh sequence with seed `pol.seed + k`, a pure function of the
/// era index, so every instance — and every rerun — computes the
/// identical layout. The first instance to reach an era builds its plan
/// under the lock (pure CPU, no communication, so holding it cannot
/// deadlock the machine); the rest share the `Arc`.
#[derive(Default)]
struct PlanCache {
    slots: Mutex<HashMap<usize, Arc<DistSetup>>>,
}

impl PlanCache {
    /// The setup for migration era `era` (callers never ask for era 0 —
    /// that is the run's own `ctx.setup`).
    fn setup_for(&self, base: &DistSetup, pol: &RepartitionPolicy, era: usize) -> Arc<DistSetup> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots
            .entry(era)
            .or_insert_with(|| {
                let opts = PartitionOptions::new(base.nranks)
                    .lanczos_iters(pol.lanczos_iters)
                    .seed(pol.seed.wrapping_add(era as u64))
                    .coarsen_target(pol.coarsen_target)
                    .refine_passes(pol.refine_passes)
                    .mapping(pol.mapping);
                Arc::new(DistSetup::from_arc(
                    base.seq.clone(),
                    base.nranks,
                    partitioner_of(pol.method),
                    &opts,
                ))
            })
            .clone()
    }
}

/// One in-memory checkpoint generation: the global fine-grid state at
/// the end of `cycle` cycles (`cycle == None` marks the slot invalid,
/// including mid-write), plus — on guarded runs — the wire-encoded
/// [`GuardState`] as of the same cycle, so a fault recovery resumes the
/// guard exactly where the checkpoint left it.
#[derive(Default)]
struct CkSnap {
    cycle: Option<usize>,
    w: Vec<f64>,
    guard: Vec<f64>,
    /// Trace position at the instant this snapshot was taken. Recovery
    /// rewinds the lane's trace here in lockstep with the state restore,
    /// so exports carry only the committed timeline.
    mark: obs::TraceMark,
}

/// Double-buffered checkpoint store. The writer invalidates and
/// overwrites the slot holding the *older* checkpoint, so the newest
/// committed generation survives a fault that lands mid-checkpoint.
#[derive(Default)]
struct CkStore {
    slots: [CkSnap; 2],
}

impl CkStore {
    /// Cycle of the newest committed checkpoint.
    fn latest(&self) -> Option<usize> {
        self.slots.iter().filter_map(|s| s.cycle).max()
    }

    /// The committed generation at `cycle`.
    fn get(&self, cycle: usize) -> Option<&CkSnap> {
        self.slots.iter().find(|s| s.cycle == Some(cycle))
    }

    /// Drop any committed generation at exactly `cycle`. A numeric
    /// rollback replays the rollback cycle, which re-commits a
    /// checkpoint at the same cycle number but with an *updated* guard
    /// transcript; invalidating the stale twin first keeps `get`
    /// unambiguous.
    fn invalidate(&mut self, cycle: usize) {
        for s in &mut self.slots {
            if s.cycle == Some(cycle) {
                s.cycle = None;
            }
        }
    }

    /// Invalidate every checkpoint from beyond the rollback point
    /// (`None` = all of them). Replayed cycles recommit the same
    /// (deterministic) snapshots; discarding keeps the divergence
    /// between any two instances' stores to at most one generation,
    /// which is what makes the agreed rollback target restorable
    /// everywhere.
    fn rollback_to(&mut self, keep_up_to: Option<usize>) {
        for s in &mut self.slots {
            if let Some(c) = s.cycle {
                if keep_up_to.is_none_or(|k| c > k) {
                    s.cycle = None;
                }
            }
        }
    }

    /// Start writing a new generation: pick the invalid or older slot,
    /// mark it invalid (commit happens by setting `cycle` afterwards),
    /// and hand it out. Never touches the newest committed slot.
    fn begin_write(&mut self) -> &mut CkSnap {
        let i = match (self.slots[0].cycle, self.slots[1].cycle) {
            (None, _) => 0,
            (_, None) => 1,
            (Some(a), Some(b)) => usize::from(a > b),
        };
        self.slots[i].cycle = None;
        &mut self.slots[i]
    }

    /// Install a received (shipped) checkpoint as a committed slot; its
    /// trace mark is the lane origin the receiving replica starts from.
    fn install(&mut self, cycle: usize, w: Vec<f64>, guard: Vec<f64>) {
        self.invalidate(cycle);
        let s = self.begin_write();
        s.w = w;
        s.guard = guard;
        s.mark = obs::TraceMark::default();
        s.cycle = Some(cycle);
    }

    /// Update the trace mark of the committed checkpoint at `cycle` —
    /// recovery moves it past the epoch markers it just emitted, so a
    /// later rollback to the same slot keeps earlier epochs' markers.
    fn set_mark(&mut self, cycle: usize, mark: obs::TraceMark) {
        for s in &mut self.slots {
            if s.cycle == Some(cycle) {
                s.mark = mark;
            }
        }
    }
}

/// What one `virtual_loop` iteration decided.
enum StepAction {
    /// Keep cycling.
    Continue,
    /// The guard agreed on a bad verdict at this cycle: enter a
    /// numeric-rollback recovery epoch. The backoff itself is applied
    /// inside the epoch's rollback agreement (see [`commit_epoch`]), so
    /// the detection cycle and verdict travel with the transition.
    Numeric(usize, HealthVerdict),
    /// Done — the run completed, or the guard exhausted its retries
    /// (recorded in `LoopState::exhausted`; every rank agrees).
    Stop,
}

/// Mutable state of one virtual rank's cycle loop.
struct LoopState {
    solver: Option<DistSolver>,
    /// Cycles completed (== `history.len()`).
    cycle: usize,
    history: Vec<f64>,
    /// Cumulative `comm_allocs` after each cycle, truncated on rollback
    /// in lockstep with `history`.
    cycle_allocs: Vec<u64>,
    cks: CkStore,
    /// Phase counters of solvers retired by recovery rebuilds.
    retired: PhaseCounters,
    setup_counters: Option<RankCounters>,
    /// Dead ranks whose adoption this instance has already resolved.
    handled: Vec<bool>,
    /// Guard runtime (`None` = unguarded run).
    guard: Option<GuardLoop>,
    /// Cycle and verdict of the failure the guard gave up on.
    exhausted: Option<(usize, HealthVerdict)>,
    /// Current migration era: cycles `(k*every, (k+1)*every]` run in era
    /// `k`. Era 0 is the run's own partition.
    era: usize,
    /// The era's setup when `era > 0` (era 0 uses `ctx.setup`).
    era_setup: Option<Arc<DistSetup>>,
}

/// Move this instance into migration era `era`, fetching (or building)
/// its partition plan from the shared cache.
fn enter_era(ctx: &Ctx, st: &mut LoopState, pol: &RepartitionPolicy, era: usize) {
    st.era = era;
    st.era_setup = (era > 0).then(|| ctx.plans.setup_for(ctx.setup, pol, era));
}

/// Arm this instance's thread with a fresh ring tracer when the run is
/// traced. Each virtual rank (primary or replica) records on its own
/// thread, so the thread-local context yields one complete lane per
/// instance.
fn arm_trace(opts: &DistOptions) {
    if let Some(cap) = opts.trace_capacity {
        obs::install(Box::new(obs::RingTracer::new(cap)));
        if opts.real_time_lanes {
            obs::set_clock(obs::ClockSource::RealTime);
        }
    }
}

/// Disarm this instance's tracer and attach what it recorded to the
/// instance's output (no-op on untraced runs).
fn collect_trace(out: &mut RankOutput) {
    if let Some(t) = obs::take() {
        out.trace = t.snapshot();
        out.trace_dropped = t.dropped();
    }
}

/// The adopting buddy of dead rank `d`: the first live virtual id after
/// it, scanning cyclically. Every instance computes the same answer from
/// the (epoch-consistent) dead set, so no negotiation is needed.
fn buddy(rank: &Rank, d: usize) -> usize {
    let Some(b) = (1..rank.nranks)
        .map(|k| (d + k) % rank.nranks)
        .find(|&v| rank.live(v))
    else {
        unreachable!("every rank is dead; nobody left to adopt")
    };
    b
}

/// Owned prefix of a plane-major field as interleaved rows — the global
/// reassembly layout of [`RankOutput::w_owned`].
fn owned_rows_aos(w: &crate::soa::SoaState, n_owned: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n_owned * NVAR);
    for k in 0..n_owned {
        out.extend_from_slice(&w.get5(k));
    }
    out
}

/// Copy this rank's owned fine-grid entries out of a global snapshot.
/// Ghost slots stay stale; every stage re-gathers them before use.
fn restore_from(s: &mut DistSolver, w_global: &[f64]) {
    let fine = &mut s.levels[0];
    let n = fine.n_owned();
    for k in 0..n {
        let g = fine.rm.owned_globals[k] as usize * NVAR;
        fine.st.w.set_row(k, &w_global[g..g + NVAR]);
    }
}

/// Collective checkpoint: gather owned fine-grid state to virtual rank
/// 0, reassemble the global layout there, broadcast it back, and commit
/// it into the double-buffered store on every instance. Charged to
/// [`Phase::Checkpoint`]. Runs over its own record streams (`ck_tag` up
/// to root, `ck_tag + 1` back down), whose windows keep records sized
/// for the shares and the snapshot, so steady-state checkpoints allocate
/// nothing. Each phase publishes before it consumes: the other ranks
/// publish their shares, then root consumes them; root publishes the
/// snapshot, then the others consume it.
fn take_checkpoint(rank: &mut Rank, ctx: &Ctx, st: &mut LoopState, cycle: usize) {
    // The gather must walk the *current era's* ownership map — after a
    // migration, `ctx.setup`'s `owned_globals` no longer describe what
    // each rank holds. The snapshot itself is global-layout either way.
    let era_setup = st.era_setup.clone();
    let setup = era_setup.as_deref().unwrap_or(ctx.setup);
    let LoopState {
        solver, cks, guard, ..
    } = st;
    let Some(s) = solver.as_mut() else {
        unreachable!("checkpoint without a solver")
    };
    let mark = CommMark::of(rank);
    // Mark the lane *before* the checkpoint span: a rollback to this
    // snapshot rewinds the trace here and the replay re-records the
    // (re-taken) checkpoint.
    let tmark = obs::mark();
    obs::emit(obs::Event::CheckpointBegin {
        cycle: cycle as u64,
    });
    let nglob = setup.seq.meshes[0].nverts() * NVAR;
    cks.invalidate(cycle);
    let slot = cks.begin_write();
    slot.mark = tmark;
    slot.w.resize(nglob, 0.0);
    slot.guard.clear();
    if let Some(gl) = guard {
        gl.gs.encode_into(&mut slot.guard);
    }
    let (fine, tag) = (&s.levels[0], s.ck_tag);
    if rank.id == 0 {
        for (k, &g) in fine.rm.owned_globals.iter().enumerate() {
            let dst = g as usize * NVAR;
            slot.w[dst..dst + NVAR].copy_from_slice(&fine.st.w.get5(k));
        }
        for src in 1..setup.nranks {
            let owned = &setup.pms[0].ranks[src].owned_globals;
            rank.consume_f64(src, tag, |part| {
                for (k, &g) in owned.iter().enumerate() {
                    let dst = g as usize * NVAR;
                    slot.w[dst..dst + NVAR].copy_from_slice(&part[k * NVAR..(k + 1) * NVAR]);
                }
            });
        }
        for dst in 1..setup.nranks {
            rank.publish_f64(dst, tag + 1, CommClass::Recovery, nglob, |buf| {
                buf.extend_from_slice(&slot.w)
            });
        }
    } else {
        let n_owned = fine.n_owned();
        rank.publish_f64(0, tag, CommClass::Recovery, n_owned * NVAR, |buf| {
            for k in 0..n_owned {
                buf.extend_from_slice(&fine.st.w.get5(k));
            }
        });
        rank.consume_f64(0, tag + 1, |got| slot.w.copy_from_slice(got));
    }
    slot.cycle = Some(cycle);
    obs::emit(obs::Event::CheckpointEnd {
        cycle: cycle as u64,
    });
    s.counter.add_comm_since(Phase::Checkpoint, rank, mark);
}

/// One solver cycle, preceded by its due checkpoint, followed by the
/// residual-monitoring reduction and — on guarded runs — the health
/// check and its single pooled verdict agreement.
fn do_step(rank: &mut Rank, ctx: &Ctx, st: &mut LoopState) -> StepAction {
    let c = st.cycle;
    // Everything in this iteration — including the leading checkpoint —
    // belongs to (1-based) fault cycle c + 1.
    rank.set_fault_cycle((c + 1) as u64);
    // A due migration runs first and commits its own checkpoint at `c`,
    // making the regular cadence checkpoint at the same boundary
    // redundant. After a fault rollback to exactly `c` the era already
    // equals `era_of(c)`, so the migration does not re-fire on replay —
    // which is fine, because its checkpoint is layout-independent and
    // the restored state is identical either way.
    let mut repartitioned = false;
    if let Some(pol) = ctx.opts.repartition {
        if c > 0 && c.is_multiple_of(pol.every) && st.era < pol.era_of(c) {
            do_repartition(rank, ctx, st, c, &pol);
            repartitioned = true;
        }
    }
    let k = ctx.checkpoint_every;
    if k > 0 && c.is_multiple_of(k) && !repartitioned {
        take_checkpoint(rank, ctx, st, c);
    }
    let LoopState {
        solver,
        cycle,
        history,
        cycle_allocs,
        guard,
        exhausted,
        ..
    } = st;
    let Some(s) = solver.as_mut() else {
        unreachable!("cycle without a solver")
    };
    if let Some(gl) = guard.as_ref() {
        s.cfg.cfl = gl.gs.ctl.current;
    }
    let (sum, n) = s.cycle(rank);
    let mark = CommMark::of(rank);
    let mut parts = [sum, n];
    rank.all_reduce_sum_in_place(&mut parts);
    s.counter.add_comm_since(Phase::Monitor, rank, mark);
    let r = (parts[0] / parts[1]).sqrt();
    if let Some(gl) = guard.as_mut() {
        let fine = &s.levels[0];
        let local = gl.score(ctx.cfg.gamma, &fine.st.w, fine.n_owned(), r, &mut s.counter);
        // One pooled reduction agrees on the machine-wide worst verdict:
        // an element-wise max over the encodings is the encoding of the
        // worst (severity-major) verdict.
        let mark = CommMark::of(rank);
        let mut enc = local.encode();
        rank.all_reduce_max_in_place(&mut enc);
        s.counter.add_comm_since(Phase::Guard, rank, mark);
        let agreed = HealthVerdict::decode(enc);
        if agreed.is_bad() {
            obs::emit(obs::Event::GuardVerdict {
                cycle: c as u64,
                severity: agreed.severity(),
            });
            // The failed cycle is discarded: neither its residual nor its
            // alloc snapshot is recorded, and `cycle` does not advance.
            // The backoff is NOT applied here: a peer that entered the
            // epoch through an abort instead of this return value must
            // end up with the identical guard state, so the application
            // is deferred to the epoch's rollback agreement.
            if gl.spent() {
                *exhausted = Some((c, agreed));
                return StepAction::Stop;
            }
            return StepAction::Numeric(c, agreed);
        }
        gl.keep(r);
    }
    history.push(r);
    cycle_allocs.push(rank.counters.comm_allocs);
    *cycle += 1;
    StepAction::Continue
}

/// Planned mid-run repartition at committed-cycle boundary `c`: commit a
/// checkpoint on the old layout, bump every rank into a fresh recovery
/// epoch, rebuild every schedule against the new era's partition plan,
/// and restore the (global-layout) checkpoint onto it.
///
/// Unlike fault recovery this is a *planned*, machine-synchronous event:
/// every rank reaches the boundary at the same point of its committed
/// timeline and takes the silent [`Rank::advance_epoch`] bump — no abort
/// broadcast, no rollback, no recovery count. A faster peer's new-epoch
/// rebuild records wait in the new epoch's windows until this rank's own
/// bump gets there. No trace pause is needed — nothing here is
/// timing-dependent.
fn do_repartition(
    rank: &mut Rank,
    ctx: &Ctx,
    st: &mut LoopState,
    c: usize,
    pol: &RepartitionPolicy,
) {
    // The checkpoint runs on the OLD layout (its streams are the old
    // solver's `ck_tag` in the old epoch's tag space) and charges its
    // own traffic to `Phase::Checkpoint`; the migration bracket below
    // starts after it so nothing is double-counted.
    take_checkpoint(rank, ctx, st, c);
    let mark = CommMark::of(rank);
    obs::emit(obs::Event::RepartitionBegin { cycle: c as u64 });
    rank.advance_epoch(rank.epoch() + 1);
    if let Some(s) = st.solver.take() {
        st.retired.merge(&s.counter);
    }
    enter_era(ctx, st, pol, pol.era_of(c));
    let era_setup = st.era_setup.clone();
    let setup = era_setup.as_deref().unwrap_or(ctx.setup);
    let mut s = DistSolver::build_epoch(rank, setup, ctx.cfg, ctx.strategy, ctx.opts, rank.epoch());
    let Some(ck) = st.cks.get(c) else {
        unreachable!("repartition checkpoint committed just above")
    };
    restore_from(&mut s, &ck.w);
    obs::emit(obs::Event::RepartitionEnd { cycle: c as u64 });
    // A later fault rollback to this slot replays from after the
    // migration markers, keeping them on the committed timeline.
    st.cks.set_mark(c, obs::mark());
    s.counter.add_comm_since(Phase::Recovery, rank, mark);
    st.solver = Some(s);
}

/// Hand dead rank `d`'s partition to a replica thread on this node. The
/// replica enters [`virtual_loop`] in joining mode and its output lands
/// in `collector` when the run completes.
fn spawn_replica<'scope, 'env>(
    rank: &Rank,
    ctx: &'scope Ctx<'scope>,
    d: usize,
    scope: &'scope Scope<'scope, 'env>,
    collector: &'scope Mutex<Vec<AdoptedOutput>>,
) {
    let mut vrank = rank.adopt(d);
    let host = rank.id;
    let spawned = std::thread::Builder::new()
        .name(format!("delta-virt-{d}"))
        .stack_size(4 << 20)
        .spawn_scoped(scope, move || {
            arm_trace(&ctx.opts);
            let mut out = virtual_loop(&mut vrank, ctx, scope, collector, Some(host));
            collect_trace(&mut out);
            let counters = vrank.counters.clone();
            collector
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(AdoptedOutput {
                    vid: d,
                    out,
                    counters,
                });
        });
    if let Err(e) = spawned {
        unreachable!("spawn adopted-rank thread: {e}")
    }
}

/// The collective core of a recovery epoch, run identically by survivors
/// ([`do_recover`]) and freshly adopted replicas ([`do_join`]): max-reduce
/// this instance's contribution `v` (element 0 the negated newest
/// restorable cycle, elements 1..5 the piggybacked numeric verdict) and
/// rebuild every schedule in the epoch's tag space. Returns the rebuilt
/// solver, the agreed rollback cycle (`None` = restart from initial
/// conditions) and the agreed numeric verdict, if any.
///
/// With repartitioning armed, the agreement must run BEFORE the
/// rebuild: the agreed cycle selects which migration era's plan every
/// instance rebuilds against. Without it, keep the historical
/// build-then-agree order so fault-only runs are byte-identical to
/// before. The policy is a run-wide constant, so every instance picks
/// the same order and the epoch's collective sequence stays
/// machine-consistent.
fn agree_and_rebuild(
    rank: &mut Rank,
    ctx: &Ctx,
    st: &mut LoopState,
    mut v: [f64; 5],
) -> (DistSolver, Option<usize>, Option<(usize, HealthVerdict)>) {
    let build = |rank: &mut Rank, setup: &DistSetup| {
        DistSolver::build_epoch(rank, setup, ctx.cfg, ctx.strategy, ctx.opts, rank.epoch())
    };
    let s = if let Some(pol) = ctx.opts.repartition {
        rank.all_reduce_max_in_place(&mut v);
        let target = if v[0].is_finite() {
            pol.era_of(-v[0] as usize)
        } else {
            0
        };
        if target != st.era {
            enter_era(ctx, st, &pol, target);
        }
        build(rank, st.era_setup.as_deref().unwrap_or(ctx.setup))
    } else {
        let s = build(rank, ctx.setup);
        rank.all_reduce_max_in_place(&mut v);
        s
    };
    let numeric = (v[1] > 0.0).then(|| (v[2] as usize, HealthVerdict::decode([v[3], v[4]])));
    (s, v[0].is_finite().then(|| -v[0] as usize), numeric)
}

/// Enter recovery epoch `e`: abort peers, adopt newly dead partitions
/// this instance is buddy for, rebuild every schedule in the epoch's tag
/// space, agree on the rollback target, restore, and ship the agreed
/// checkpoint (plus residual history and guard state) to replicas
/// spawned here.
///
/// `verdict` is set when this instance entered the epoch through its
/// own guard agreement (a numeric rollback). It is folded into the
/// rollback-agreement reduction so that instances swept into the same
/// epoch by a peer's abort — which never saw the verdict — apply the
/// identical backoff: the guard state is always rebuilt from the
/// checkpoint blob plus the *agreed* event, never from whichever
/// in-memory state a given entry path happened to hold.
fn do_recover<'scope, 'env>(
    rank: &mut Rank,
    ctx: &'scope Ctx<'scope>,
    st: &mut LoopState,
    e: u32,
    verdict: Option<(usize, HealthVerdict)>,
    scope: &'scope Scope<'scope, 'env>,
    collector: &'scope Mutex<Vec<AdoptedOutput>>,
) {
    let mark = CommMark::of(rank);
    // Recording pauses for the whole protocol: this instance's clock and
    // event stream diverged at a thread-timing-dependent point (a peer's
    // abort lands wherever this rank happened to be), so nothing between
    // here and the rollback agreement is reproducible. Once the epoch's
    // outcome is agreed, the lane is rewound to the restored checkpoint's
    // mark and the epoch's markers are re-emitted on the committed
    // timeline.
    obs::pause();
    rank.begin_recovery(e);
    if let Some(s) = st.solver.take() {
        st.retired.merge(&s.counter);
    }
    let mut shipped: Vec<usize> = Vec::new();
    for d in 0..ctx.setup.nranks {
        if !rank.live(d) && !st.handled[d] {
            st.handled[d] = true;
            if buddy(rank, d) == rank.id {
                spawn_replica(rank, ctx, d, scope, collector);
                shipped.push(d);
            }
        }
    }
    // Agree on the newest checkpoint every instance can restore:
    // min over instances of their newest commit, via a max of negated
    // cycles. An instance with nothing to offer forces a restart from
    // initial conditions (+inf -> agreed = -inf); replicas spawned this
    // epoch contribute -inf (unconstraining) and get the result shipped.
    // Elements 1..5 piggyback the numeric verdict (flag, detection
    // cycle, encoded verdict): the max over ranks recovers it on every
    // instance, whichever way each one entered the epoch.
    let mut v = [f64::NEG_INFINITY; 5];
    v[0] = match st.cks.latest() {
        Some(c) => -(c as f64),
        None => f64::INFINITY,
    };
    if let Some((c, vd)) = verdict {
        let enc = vd.encode();
        v[1] = 1.0;
        v[2] = c as f64;
        v[3] = enc[0];
        v[4] = enc[1];
    }
    let (s, rollback, numeric) = agree_and_rebuild(rank, ctx, st, v);
    // Without a usable checkpoint anywhere the (deterministic) run
    // restarts from the freshly built initial state.
    let c = rollback.unwrap_or(0);
    st.cycle = c;
    st.history.truncate(c);
    st.cycle_allocs.truncate(c);
    st.cks.rollback_to(rollback);
    if let Some(ck) = rollback.and_then(|c| st.cks.get(c)) {
        // One-way hand-off on the checkpoint streams: the replica's only
        // part is to consume, in this order.
        for &d in &shipped {
            let w = &ck.w;
            rank.publish_f64(d, s.ck_tag, CommClass::Recovery, w.len(), |b| {
                b.extend_from_slice(w)
            });
            let h = &st.history;
            rank.publish_f64(d, s.ck_tag + 1, CommClass::Recovery, h.len(), |b| {
                b.extend_from_slice(h)
            });
            if st.guard.is_some() {
                // Second record on the ck_tag stream (after `w`): the
                // checkpoint's guard state, so the replica replays the
                // identical CFL schedule.
                let g = &ck.guard;
                rank.publish_f64(d, s.ck_tag, CommClass::Recovery, g.len(), |b| {
                    b.extend_from_slice(g)
                });
            }
        }
    }
    commit_epoch(rank, st, s, rollback, numeric, mark);
}

/// A freshly adopted replica joins the recovery epoch in progress:
/// rebuild (same collective sequence as the survivors' rebuild), take
/// part in the rollback agreement without constraining it, and receive
/// the agreed checkpoint and history from the hosting buddy.
fn do_join(rank: &mut Rank, ctx: &Ctx, st: &mut LoopState, host: usize) {
    let mark = CommMark::of(rank);
    // Same pause discipline as `do_recover`: the join protocol runs on a
    // clock base that depends on when this replica was spawned, so the
    // lane starts recording from its origin only once the agreed state
    // is installed.
    obs::pause();
    // The replica's contribution constrains nothing: it takes whatever
    // rollback target and verdict the survivors agree on.
    let (s, rollback, numeric) = agree_and_rebuild(rank, ctx, st, [f64::NEG_INFINITY; 5]);
    st.history.clear();
    if let Some(c) = rollback {
        let w = rank.consume_f64(host, s.ck_tag, <[f64]>::to_vec);
        rank.consume_f64(host, s.ck_tag + 1, |h| st.history.extend_from_slice(h));
        let gblob = if st.guard.is_some() {
            rank.consume_f64(host, s.ck_tag, <[f64]>::to_vec)
        } else {
            Vec::new()
        };
        st.cks.install(c, w, gblob);
    }
    st.cycle = rollback.unwrap_or(0);
    // The replica has no alloc record of the cycles it skipped past;
    // pad with the current counter so tail deltas stay meaningful.
    st.cycle_allocs.clear();
    st.cycle_allocs.resize(st.cycle, rank.counters.comm_allocs);
    st.setup_counters = Some(rank.counters.clone());
    commit_epoch(rank, st, s, rollback, numeric, mark);
}

/// The tail of every recovery epoch, survivor's or replica's, once the
/// rollback cycle is agreed: restore the rebuilt solver from its
/// checkpoint, rebuild the guard and put the solver on the guard's CFL,
/// rewind the paused lane to the checkpoint's mark (the origin without
/// one) and record the epoch on the committed timeline, charge the
/// epoch's traffic since `mark`, and install the solver.
///
/// The guard is rebuilt from the rollback checkpoint's blob, replaying
/// the `on_clean` progression of the clean cycles between checkpoint and
/// detection and — when the epoch carries an agreed bad verdict —
/// applying the backoff. Every instance does this identically however it
/// entered the epoch (its own verdict, a peer's abort arriving first, or
/// a fresh adoption), which keeps the CFL schedule machine-wide uniform
/// under any interleaving of numeric and fault recoveries.
fn commit_epoch(
    rank: &mut Rank,
    st: &mut LoopState,
    mut s: DistSolver,
    rollback: Option<usize>,
    numeric: Option<(usize, HealthVerdict)>,
    mark: CommMark,
) {
    let ck = rollback.map(|c| {
        let Some(ck) = st.cks.get(c) else {
            unreachable!("agreed rollback target missing from this instance's store")
        };
        restore_from(&mut s, &ck.w);
        ck
    });
    if let Some(gl) = st.guard.as_mut() {
        gl.gs = ck
            .and_then(|ck| GuardState::decode(&ck.guard, &gl.cfg))
            .unwrap_or_else(|| GuardState::new(gl.gs.ctl.target, &gl.cfg));
        if let Some((detect, vd)) = numeric {
            for _ in rollback.unwrap_or(0)..detect {
                gl.gs.ctl.on_clean();
            }
            gl.gs.back_off(detect, rollback, vd);
        }
        gl.monitor.rebuild(&st.history);
        s.cfg.cfl = gl.gs.ctl.current;
    }
    obs::rewind(ck.map_or_else(obs::TraceMark::default, |ck| ck.mark));
    obs::resume();
    let epoch = rank.epoch();
    obs::emit(obs::Event::RecoveryBegin { epoch });
    // A numeric epoch's verdict and CFL change were first emitted in
    // rewound work or while recording was paused: record them again.
    if let Some((c, vd)) = numeric {
        obs::emit(obs::Event::GuardVerdict {
            cycle: c as u64,
            severity: vd.severity(),
        });
        if let Some(ev) = st.guard.as_ref().and_then(|gl| gl.gs.transcript.last()) {
            obs::emit(obs::Event::CflChange {
                from_bits: ev.cfl_before.to_bits(),
                to_bits: ev.cfl_after.to_bits(),
            });
        }
    }
    obs::emit(obs::Event::RecoveryEnd { epoch });
    if let Some(c) = rollback {
        st.cks.set_mark(c, obs::mark());
    }
    s.counter.add_comm_since(Phase::Recovery, rank, mark);
    st.solver = Some(s);
}

/// The cycle loop of one virtual rank, primary or adopted replica: a
/// state machine of `build | join | recover | step` actions, each run
/// under `catch_unwind` so [`FaultSignal`] unwinds from the
/// communication layer become state transitions instead of crashes.
fn virtual_loop<'scope, 'env>(
    rank: &mut Rank,
    ctx: &'scope Ctx<'scope>,
    scope: &'scope Scope<'scope, 'env>,
    collector: &'scope Mutex<Vec<AdoptedOutput>>,
    join_from: Option<usize>,
) -> RankOutput {
    let nranks = ctx.setup.nranks;
    let mut st = LoopState {
        solver: None,
        cycle: 0,
        history: Vec::new(),
        cycle_allocs: Vec::new(),
        cks: CkStore::default(),
        retired: PhaseCounters::default(),
        setup_counters: None,
        handled: vec![false; nranks],
        guard: ctx.guard.as_ref().map(|g| GuardLoop::new(ctx.cfg.cfl, g)),
        exhausted: None,
        era: 0,
        era_setup: None,
    };
    if join_from.is_some() {
        // Ranks already dead when this replica was spawned were adopted
        // by others (or are this replica itself); never re-adopt them.
        for d in 0..nranks {
            st.handled[d] = !rank.live(d);
        }
    }
    // A pending recovery epoch, carrying the agreed verdict when it is
    // a numeric (guard-initiated) rollback rather than a fault recovery.
    let mut pending: Option<(u32, Option<(usize, HealthVerdict)>)> = None;
    let mut join = join_from;
    // Recovery epochs before a fault plan counts as livelocking; numeric
    // rollbacks consume epochs too, so the guard's retries come on top.
    let backstop = ctx
        .guard
        .map_or(8, |g| (g.max_retries as u64).saturating_add(8));
    loop {
        if pending.is_some() && rank.counters.recoveries >= backstop {
            panic!(
                "virtual rank {} exceeded {backstop} recovery epochs: fault plan livelocks",
                rank.id
            );
        }
        let res = catch_unwind(AssertUnwindSafe(|| {
            if let Some((e, verdict)) = pending.take() {
                do_recover(rank, ctx, &mut st, e, verdict, scope, collector);
            } else if let Some(host) = join.take() {
                do_join(rank, ctx, &mut st, host);
            } else if st.solver.is_none() {
                st.solver = Some(DistSolver::build(
                    rank,
                    ctx.setup,
                    ctx.cfg,
                    ctx.strategy,
                    ctx.opts,
                ));
                st.setup_counters = Some(rank.counters.clone());
            } else if st.cycle < ctx.cycles {
                return do_step(rank, ctx, &mut st);
            } else {
                return StepAction::Stop;
            }
            StepAction::Continue
        }));
        match res {
            Ok(StepAction::Stop) => break,
            Ok(StepAction::Continue) => {}
            Ok(StepAction::Numeric(c, vd)) => {
                // Every rank agreed on the bad verdict through the
                // pooled reduction; ranks that process the result before
                // a peer's abort reaches them land here, the rest are
                // swept in by the abort — the rollback agreement then
                // redistributes the verdict so both entry paths apply
                // the identical backoff.
                pending = Some((rank.epoch() + 1, Some((c, vd))));
            }
            Err(payload) => match payload.downcast::<FaultSignal>() {
                Ok(sig) => match *sig {
                    FaultSignal::Killed => {
                        rank.announce_death();
                        let mut phases = st.retired;
                        if let Some(s) = &st.solver {
                            phases.merge(&s.counter);
                        }
                        rank.add_flops(phases.flops());
                        return RankOutput {
                            history: st.history,
                            cycle_allocs: st.cycle_allocs,
                            w_owned: Vec::new(),
                            owned_globals: Vec::new(),
                            setup_counters: st
                                .setup_counters
                                .unwrap_or_else(|| rank.counters.clone()),
                            phases,
                            fate: RankFate::Died { cycle: st.cycle },
                            guard: None,
                            trace: Vec::new(),
                            trace_dropped: 0,
                            adopted: Vec::new(),
                        };
                    }
                    FaultSignal::Recover { epoch, .. } => {
                        pending = Some((epoch.max(rank.epoch() + 1), None));
                    }
                },
                Err(other) => resume_unwind(other),
            },
        }
    }
    let Some(solver) = st.solver.take() else {
        unreachable!("completed without a solver")
    };
    let mut phases = st.retired;
    phases.merge(&solver.counter);
    rank.add_flops(phases.flops());
    let fine = &solver.levels[0];
    let guard = st.guard.take().map(|gl| gl.outcome(st.exhausted));
    RankOutput {
        history: st.history,
        cycle_allocs: st.cycle_allocs,
        w_owned: owned_rows_aos(&fine.st.w, fine.n_owned()),
        owned_globals: fine.rm.owned_globals.clone(),
        setup_counters: st.setup_counters.unwrap_or_default(),
        phases,
        fate: RankFate::Completed,
        guard,
        trace: Vec::new(),
        trace_dropped: 0,
        adopted: Vec::new(),
    }
}

/// Run a distributed solve: the one SPMD entry, for plain, faulted,
/// guarded and migrating runs alike. With the default [`FaultOptions`]
/// this is the plain cycle loop of [`super::solver::run_distributed`].
/// Under a fault plan, ranks detect failures, roll back to the last
/// replicated checkpoint, rebuild their schedules, and converge to the
/// bit-identical residual history of the fault-free run. Under a guard
/// ([`FaultOptions::guard`]), every cycle ends with a state/residual
/// health check and one pooled verdict agreement; a bad verdict backs the
/// CFL off and rolls every rank back through the same recovery epochs. A
/// guarded run with no checkpoint cadence takes the guard's
/// `snapshot_every`, so there is always a rollback target.
///
/// Fails on an invalid guard, on exhausted guard retries
/// ([`SolverError::RetriesExhausted`], transcript included) and on a
/// typed rank failure such as a wedged shared-memory window
/// ([`Eul3dError::Delta`]); any other rank panic keeps unwinding.
pub fn run_distributed_with_faults(
    setup: &DistSetup,
    cfg: SolverConfig,
    strategy: Strategy,
    cycles: usize,
    opts: DistOptions,
    fopts: &FaultOptions,
) -> Result<DistRunResult, Eul3dError> {
    let mut checkpoint_every = fopts.checkpoint_every;
    if let Some(g) = &fopts.guard {
        g.validate()?;
        if checkpoint_every == 0 {
            checkpoint_every = g.snapshot_every;
        }
    }
    let ctx = Ctx {
        setup,
        cfg,
        strategy,
        cycles,
        opts,
        checkpoint_every,
        guard: fopts.guard,
        plans: PlanCache::default(),
    };
    let body = |rank: &mut Rank| {
        rank.install_faults(
            fopts.plan.clone(),
            Some(Duration::from_millis(fopts.recv_timeout_ms)),
        );
        arm_trace(&opts);
        let collector = Mutex::new(Vec::new());
        let mut out = std::thread::scope(|scope| virtual_loop(rank, &ctx, scope, &collector, None));
        collect_trace(&mut out);
        for a in collector
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            // The physical node pays for the replicas it hosts.
            rank.counters.merge(&a.counters);
            out.adopted.push(a);
        }
        out
    };
    let t0 = std::time::Instant::now();
    // The SPMD region re-raises rank panics: a typed `DeltaError` payload
    // comes back as an error, anything else keeps unwinding.
    let spmd = catch_unwind(AssertUnwindSafe(|| run_spmd(setup.nranks, body)));
    let wall_seconds = t0.elapsed().as_secs_f64();
    let run = match spmd {
        Ok(run) => run,
        Err(payload) => match payload.downcast::<DeltaError>() {
            Ok(e) => return Err(Eul3dError::Delta(*e)),
            Err(payload) => resume_unwind(payload),
        },
    };
    let res = DistRunResult { run, wall_seconds };
    if let (Some(g), Some(o)) = (fopts.guard, res.guard_outcome()) {
        if let Some((cycle, verdict)) = o.exhausted {
            return Err(SolverError::RetriesExhausted {
                cycle,
                verdict,
                transcript: o.transcript.clone(),
                max_retries: g.max_retries,
            }
            .into());
        }
    }
    Ok(res)
}
