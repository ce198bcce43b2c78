//! The distributed solve driver: SPMD body construction, one rank's
//! levels and transfer links as a [`Hierarchy`] for the one FAS cycle in
//! [`crate::fas`], and the top-level [`run_distributed`] entry.

use eul3d_delta::{MachineRun, Rank, RankCounters};
use eul3d_obs as obs;
use eul3d_parti::TagAllocator;

use eul3d_partition::RankMapping;

use crate::config::SolverConfig;
use crate::counters::{CommMark, PhaseCounters};
use crate::executor::Phase;
use crate::fas::{self, Hierarchy};
use crate::gas::NVAR;
use crate::health::GuardOutcome;
use crate::level::{eval_total_residual, time_step, LevelState};
use crate::multigrid::Strategy;
use crate::runconfig::{PartitionConfig, PartitionMethod, RunConfig};

use super::level::DistLevel;
use super::recover::{run_distributed_with_faults, FaultOptions};
use super::setup::{DistSetup, LANCZOS_ITERS};
use super::transfer::TransferLink;

/// How a distributed run is reported: which clock its traced lanes may
/// use and which times the CLI prints. It is not a transport: every run
/// moves its record streams through stamped shared-memory windows, one
/// OS thread per rank, so the backends run the same events and give the
/// same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistBackend {
    /// The simulated Intel Delta: modeled wire time only (the default).
    #[default]
    Delta,
    /// Ranks as true-parallel threads: the CLI reports wall time
    /// alongside the modeled clock and stamps traced lanes with it.
    Hybrid,
}

/// Mid-run repartition-and-migrate policy: every `every` committed
/// cycles the machine checkpoints, bumps into a fresh epoch, rebuilds
/// every schedule against a new partition plan, and restores the
/// checkpointed state onto the new layout — the PR 3 recovery machinery
/// driven by a planned trigger instead of a fault. The plan for
/// migration era `k` is cut with `seed + k`, so each boundary really
/// changes ownership; era indices are a pure function of the committed
/// cycle, which keeps reruns (and post-fault replays) byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepartitionPolicy {
    /// Committed-cycle cadence (> 0).
    pub every: usize,
    /// Partitioner used for migration-era plans.
    pub method: PartitionMethod,
    /// Multilevel: stop coarsening at this many vertices.
    pub coarsen_target: usize,
    /// Multilevel: refinement sweeps per level while uncoarsening.
    pub refine_passes: usize,
    /// Part→rank placement of each era's plan.
    pub mapping: RankMapping,
    /// Lanczos iteration cap per Fiedler solve.
    pub lanczos_iters: usize,
    /// Base seed; era `k` partitions with `seed + k`.
    pub seed: u64,
}

impl RepartitionPolicy {
    /// Build from a run's [`PartitionConfig`]; `None` when the config
    /// does not arm mid-run repartitioning.
    pub fn from_config(
        policy: &PartitionConfig,
        lanczos_iters: usize,
        seed: u64,
    ) -> Option<RepartitionPolicy> {
        (policy.repartition_every > 0).then_some(RepartitionPolicy {
            every: policy.repartition_every,
            method: policy.method,
            coarsen_target: policy.coarsen_target,
            refine_passes: policy.refine_passes,
            mapping: policy.mapping,
            lanczos_iters,
            seed,
        })
    }

    /// The migration era the cycle *after* `committed` runs in: cycles
    /// `(k·every, (k+1)·every]` run in era `k`, so a run restored to
    /// `committed` cycles resumes in era `committed / every`.
    pub fn era_of(&self, committed: usize) -> usize {
        committed / self.every
    }
}

/// Options of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// Re-gather flow variables before every loop (ablation of §4.3).
    pub refetch_per_loop: bool,
    /// Arm every virtual-rank instance (primaries and adopted replicas)
    /// with a [`eul3d_obs::RingTracer`] of this capacity; the per-lane
    /// streams come back in [`RankOutput::trace`]. `None` leaves tracing
    /// off (the default).
    pub trace_capacity: Option<usize>,
    /// The run's backend (see [`DistBackend`]). Nothing in the solver
    /// reads it: it stays only because `benchmark/` sets it, and goes
    /// with that crate's next change.
    pub backend: DistBackend,
    /// Stamp traced lanes with real wall time instead of the modeled
    /// clock — shows measured overlap in a hybrid run's trace; stamps are
    /// not reproducible across runs, so goldens keep this off. It could
    /// fold into `backend == Hybrid`, but `benchmark/` sets it on its
    /// own, so it stays until that crate's next change.
    pub real_time_lanes: bool,
    /// Mid-run repartition-and-migrate policy (`None` = the partition is
    /// fixed for the whole run, the historical behaviour). Each era's
    /// rebuilt schedules ride fresh windows: the epoch bump shifts every
    /// tag, and windows are keyed by tag.
    pub repartition: Option<RepartitionPolicy>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            refetch_per_loop: false,
            trace_capacity: None,
            backend: DistBackend::Delta,
            real_time_lanes: false,
            repartition: None,
        }
    }
}

impl DistOptions {
    /// The options a configured run asks for: its backend, trace arming
    /// and mid-run repartition policy (era plans seeded from `seed`, the
    /// run's partition seed). Traced lanes stay on the modeled clock.
    pub fn for_run(rc: &RunConfig, seed: u64) -> DistOptions {
        DistOptions {
            trace_capacity: rc.trace.enabled.then_some(rc.trace.capacity),
            backend: rc.backend,
            repartition: rc
                .partition
                .as_ref()
                .and_then(|p| RepartitionPolicy::from_config(p, LANCZOS_ITERS, seed)),
            ..DistOptions::default()
        }
    }
}

/// How a virtual rank's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFate {
    /// Ran to the final cycle.
    Completed,
    /// Killed by the fault plan with `cycle` cycles completed; its
    /// partition finished on an adopting node.
    Died { cycle: usize },
}

/// Output of a virtual rank a node hosted after adopting a dead rank's
/// partition during fault recovery.
#[derive(Debug, Clone)]
pub struct AdoptedOutput {
    /// Virtual rank id (the dead rank whose partition this instance ran).
    pub vid: usize,
    pub out: RankOutput,
    /// Machine counters of the adopted instance (also merged into the
    /// hosting node's counters — the physical node pays for both).
    pub counters: RankCounters,
}

/// What each rank returns from the SPMD body.
#[derive(Debug, Clone)]
pub struct RankOutput {
    /// Residual history (identical on every rank; rank 0 authoritative).
    pub history: Vec<f64>,
    /// Owned fine-grid state, for global reassembly.
    pub w_owned: Vec<f64>,
    /// Owned fine-grid global vertex ids.
    pub owned_globals: Vec<u32>,
    /// Counter snapshot taken after setup (schedule building), so the
    /// harness can separate inspector cost from cycle cost.
    pub setup_counters: RankCounters,
    /// Per-phase flop/launch/message accounting from the executor layer.
    pub phases: PhaseCounters,
    /// Cumulative fresh communication-buffer allocations of this
    /// instance at the end of each cycle, rollback-truncated like
    /// `history`: the tail deltas prove steady-state cycles allocate
    /// nothing even after a recovery.
    pub cycle_allocs: Vec<u64>,
    /// How this virtual rank ended.
    pub fate: RankFate,
    /// Guard outcome of a guarded run (`None` when the guard is off or
    /// the instance died before completing).
    pub guard: Option<GuardOutcome>,
    /// This instance's stamped event stream (empty unless
    /// [`DistOptions::trace_capacity`] armed a tracer). A killed
    /// primary's stream covers everything up to its death.
    pub trace: Vec<obs::Stamped>,
    /// Events this instance's ring dropped (drop-oldest overflow).
    pub trace_dropped: u64,
    /// Virtual ranks this node adopted and ran to completion.
    pub adopted: Vec<AdoptedOutput>,
}

/// Result of a distributed run.
pub struct DistRunResult {
    pub run: MachineRun<RankOutput>,
    /// Measured wall time of the SPMD region (thread spawn to join), in
    /// seconds: the hybrid report, set beside the modeled Delta clock.
    pub wall_seconds: f64,
}

impl DistRunResult {
    /// Every virtual-rank instance in the run: primaries plus any
    /// adopted replicas, tagged with their virtual id.
    pub fn instances(&self) -> Vec<(usize, &RankOutput)> {
        let mut all = Vec::new();
        for (vid, out) in self.run.results.iter().enumerate() {
            all.push((vid, out));
            for a in &out.adopted {
                all.push((a.vid, &a.out));
            }
        }
        all
    }

    /// The completed instance of virtual rank `vid` — the primary if it
    /// survived, its adopted replica otherwise.
    pub fn instance(&self, vid: usize) -> Option<&RankOutput> {
        self.instances()
            .into_iter()
            .find(|(v, o)| *v == vid && o.fate == RankFate::Completed)
            .map(|(_, o)| o)
    }

    /// Residual history (from virtual rank 0, wherever it finished;
    /// empty if the run produced no completed rank-0 instance).
    pub fn history(&self) -> &[f64] {
        self.instance(0)
            .map(|r| r.history.as_slice())
            .unwrap_or(&[])
    }

    /// Guard outcome of a guarded run (from virtual rank 0's completed
    /// instance; `None` for unguarded runs).
    pub fn guard_outcome(&self) -> Option<&GuardOutcome> {
        self.instance(0).and_then(|r| r.guard.as_ref())
    }

    /// Reassemble the global fine-grid state from the rank pieces.
    /// Vertices not owned by any reporting rank stay zero. Dead
    /// primaries report empty pieces; their adopted replicas fill in.
    pub fn global_state(&self, nverts: usize) -> Vec<f64> {
        let mut w = vec![0.0; nverts * NVAR];
        for (_, out) in self.instances() {
            for (k, &g) in out.owned_globals.iter().enumerate() {
                let (src, dst) = (k * NVAR, g as usize * NVAR);
                w[dst..dst + NVAR].copy_from_slice(&out.w_owned[src..src + NVAR]);
            }
        }
        w
    }

    /// Per-rank counters for the cycle phase only (setup subtracted).
    pub fn cycle_counters(&self) -> Vec<RankCounters> {
        self.run
            .counters
            .iter()
            .zip(&self.run.results)
            .map(|(total, out)| total.delta_since(&out.setup_counters))
            .collect()
    }

    /// Per-rank counters for the setup (inspector/partition-exchange)
    /// phase.
    pub fn setup_counters(&self) -> Vec<RankCounters> {
        self.run
            .results
            .iter()
            .map(|o| o.setup_counters.clone())
            .collect()
    }

    /// Per-instance per-phase executor counters for the cycle work
    /// (one entry per virtual-rank instance, adopted replicas included,
    /// so the list can be longer than the machine when a run recovered
    /// from rank deaths).
    pub fn phase_counters(&self) -> Vec<PhaseCounters> {
        self.instances()
            .into_iter()
            .map(|(_, o)| o.phases)
            .collect()
    }

    /// The run's trace lanes for export: one per virtual-rank instance
    /// (a primary that died and the replica that finished its partition
    /// appear as separate lanes), labelled by fate. Empty streams unless
    /// the run was traced via [`DistOptions::trace_capacity`].
    pub fn lanes(&self) -> Vec<obs::Lane> {
        let mut lanes = Vec::new();
        for (host, out) in self.run.results.iter().enumerate() {
            let name = match out.fate {
                RankFate::Completed => format!("rank {host}"),
                RankFate::Died { cycle } => format!("rank {host} (died@{cycle})"),
            };
            lanes.push(obs::Lane {
                id: lanes.len() as u32,
                name,
                events: out.trace.clone(),
                dropped: out.trace_dropped,
            });
            for a in &out.adopted {
                lanes.push(obs::Lane {
                    id: lanes.len() as u32,
                    name: format!("rank {} (adopted by {host})", a.vid),
                    events: a.out.trace.clone(),
                    dropped: a.out.trace_dropped,
                });
            }
        }
        lanes
    }
}

/// One rank's full solver: levels plus transfer links.
pub struct DistSolver {
    pub levels: Vec<DistLevel>,
    pub links: Vec<TransferLink>,
    pub cfg: SolverConfig,
    pub strategy: Strategy,
    /// Re-gather flow variables before every loop (see
    /// [`DistOptions::refetch_per_loop`]).
    pub refetch_per_loop: bool,
    pub counter: PhaseCounters,
    /// Reserved tag pair for recovery traffic (checkpoint shipping to
    /// adopted ranks); epoch-shifted like every schedule tag.
    pub ck_tag: u32,
    /// Staging buffer of the inter-grid transfers, reused by every link
    /// (its growth is charged to the rank's allocation counters).
    pub stage: Vec<f64>,
}

impl DistSolver {
    /// SPMD constructor: builds every level and link, localizing all
    /// schedules (the inspector phase).
    pub fn build(
        rank: &mut Rank,
        setup: &DistSetup,
        cfg: SolverConfig,
        strategy: Strategy,
        opts: DistOptions,
    ) -> DistSolver {
        DistSolver::build_epoch(rank, setup, cfg, strategy, opts, 0)
    }

    /// [`DistSolver::build`] for a recovery epoch: the whole tag sequence
    /// shifts into `epoch`'s disjoint stride, so schedules rebuilt after
    /// a fault never collide with ranges still reserved on survivors from
    /// before the failure.
    pub fn build_epoch(
        rank: &mut Rank,
        setup: &DistSetup,
        cfg: SolverConfig,
        strategy: Strategy,
        opts: DistOptions,
        epoch: u32,
    ) -> DistSolver {
        let nlevels = match strategy {
            Strategy::SingleGrid => 1,
            _ => setup.levels(),
        };
        // Disjoint tag ranges for every schedule: 2 tags per level halo,
        // 4 per transfer link (two schedules each). Identical allocation
        // sequence on every rank, so tags agree machine-wide.
        let mut tags = TagAllocator::for_epoch(100, epoch);
        let level_tags: Vec<u32> = (0..nlevels).map(|_| tags.range(2)).collect();
        let levels: Vec<DistLevel> = (0..nlevels)
            .map(|l| DistLevel::build(rank, &setup.pms[l], &cfg, level_tags[l]))
            .collect();
        let link_tags: Vec<u32> = (0..nlevels.saturating_sub(1))
            .map(|_| tags.range(4))
            .collect();
        let links: Vec<TransferLink> = (0..nlevels.saturating_sub(1))
            .map(|l| {
                TransferLink::build(
                    rank,
                    &setup.seq.to_coarse[l],
                    &setup.seq.to_fine[l],
                    &setup.pms[l],
                    &setup.pms[l + 1],
                    link_tags[l],
                )
            })
            .collect();
        let ck_tag = tags.range(2);
        rank.reserve_tags(ck_tag, ck_tag + 2);
        DistSolver {
            levels,
            links,
            cfg,
            strategy,
            refetch_per_loop: opts.refetch_per_loop,
            counter: PhaseCounters::default(),
            ck_tag,
            stage: Vec::new(),
        }
    }

    /// One cycle; returns the local residual-norm parts (sum, count).
    pub fn cycle(&mut self, rank: &mut Rank) -> (f64, f64) {
        let strategy = self.strategy;
        fas::cycle(&mut self.hierarchy(rank), strategy, 0, None);
        self.levels[0].residual_norm_parts()
    }

    /// This rank's levels and links as a [`Hierarchy`] over `rank`.
    pub(crate) fn hierarchy<'a>(&'a mut self, rank: &'a mut Rank) -> DistHierarchy<'a> {
        DistHierarchy { s: self, rank }
    }
}

/// The distributed [`Hierarchy`]: one rank's share of every level, with
/// [`TransferLink`] schedules moving the off-rank transfer operands and
/// the traffic charged to [`Phase::Transfer`].
pub(crate) struct DistHierarchy<'a> {
    s: &'a mut DistSolver,
    rank: &'a mut Rank,
}

impl Hierarchy for DistHierarchy<'_> {
    fn nlevels(&self) -> usize {
        self.s.levels.len()
    }

    fn owned(&self, l: usize) -> usize {
        self.s.levels[l].n_owned()
    }

    fn state(&mut self, l: usize) -> &mut LevelState {
        &mut self.s.levels[l].st
    }

    fn time_step(&mut self, l: usize) {
        let s = &mut *self.s;
        let (grid, st, mut exec) = s.levels[l].parts(self.rank, s.refetch_per_loop);
        time_step(grid, st, &s.cfg, l > 0, &mut exec, &mut s.counter);
    }

    fn eval_total_residual(&mut self, l: usize) {
        let s = &mut *self.s;
        let (grid, st, mut exec) = s.levels[l].parts(self.rank, s.refetch_per_loop);
        eval_total_residual(grid, st, &s.cfg, l > 0, &mut exec, &mut s.counter);
    }

    fn restrict_state(&mut self, l: usize) {
        let (s, mark) = (&mut *self.s, CommMark::of(self.rank));
        let (fine, coarse) = s.levels.split_at_mut(l + 1);
        let (src, dst) = (fine[l].st.w.flat(), coarse[0].st.w.flat_mut());
        let xfer = s.counter.phase(Phase::Transfer);
        s.links[l].restrict_state_planes(self.rank, src, dst, NVAR, &mut s.stage, xfer);
        s.counter.add_comm_since(Phase::Transfer, self.rank, mark);
    }

    /// Reads owned fine residuals only.
    fn restrict_residual(&mut self, l: usize) {
        let (s, mark) = (&mut *self.s, CommMark::of(self.rank));
        let (fine, coarse) = s.levels.split_at_mut(l + 1);
        let (src, dst) = (fine[l].st.res.flat(), coarse[0].st.corr.flat_mut());
        let xfer = s.counter.phase(Phase::Transfer);
        s.links[l].restrict_residual_planes(self.rank, src, dst, NVAR, &mut s.stage, xfer);
        s.counter.add_comm_since(Phase::Transfer, self.rank, mark);
    }

    fn prolong_correction(&mut self, l: usize) {
        let (s, mark) = (&mut *self.s, CommMark::of(self.rank));
        let (fine, coarse) = s.levels.split_at_mut(l + 1);
        let (src, dst) = (coarse[0].st.corr.flat(), fine[l].st.corr.flat_mut());
        let xfer = s.counter.phase(Phase::Transfer);
        s.links[l].prolong_planes(self.rank, src, dst, NVAR, &mut s.stage, xfer);
        s.counter.add_comm_since(Phase::Transfer, self.rank, mark);
    }
}

/// Run a full distributed solve on the simulated machine: the one entry,
/// [`run_distributed_with_faults`], fault-free and unguarded. Its one
/// failure left, a wedged shared-memory window, panics.
pub fn run_distributed(
    setup: &DistSetup,
    cfg: SolverConfig,
    strategy: Strategy,
    cycles: usize,
    opts: DistOptions,
) -> DistRunResult {
    run_distributed_with_faults(setup, cfg, strategy, cycles, opts, &FaultOptions::default())
        .unwrap_or_else(|e| panic!("{e}"))
}
