//! One rank's share of one mesh level — its local mesh, halo schedule and
//! working arrays — plus the [`DistExecutor`] backend that runs the
//! generic kernels of [`crate::level`] SPMD over the simulated machine.

use eul3d_delta::{CommClass, Rank};
use eul3d_obs as obs;
use eul3d_parti::{localize, Schedule, Translation};
use eul3d_partition::{PartitionedMesh, RankMesh};

use std::ops::Range;

use crate::config::SolverConfig;
use crate::counters::{CommMark, PhaseCounters};
use crate::executor::{EdgeSpan, Executor, HaloOp, Phase, ScatterAccess};
use crate::gas::NVAR;
use crate::level::LevelState;
use crate::soa::SoaState;

/// The distributed [`Executor`]: one instance per rank, borrowing the
/// rank's machine endpoint and the level's halo schedule. Edge and vertex
/// loops run sequentially on the rank (the Delta nodes are scalar);
/// ghost coherence is PARTI gather/scatter-add, with the traffic charged
/// to the phase that requested it.
///
/// Every exchange splits: [`Executor::exchange_begin`] publishes the
/// schedule's records into the rank's shared-memory windows and
/// [`Executor::exchange_finish`] consumes the peers', so the interior
/// kernels the solver runs in between overlap the exchange.
pub struct DistExecutor<'a> {
    pub rank: &'a mut Rank,
    pub halo: &'a Schedule,
    pub n_owned: usize,
    /// Disable the §4.3 fetch-once optimization: re-gather the flow
    /// variables before *every* edge loop instead of once per stage.
    pub refetch_per_loop: bool,
}

impl DistExecutor<'_> {
    /// Run `f` against the rank and charge the message/byte/allocation
    /// delta it produced to `phase`, wrapped in an observability phase
    /// span (the enclosed sends advance the lane clock, giving the span
    /// its modeled wire duration).
    fn charged<R>(
        &mut self,
        phase: Phase,
        counters: &mut PhaseCounters,
        f: impl FnOnce(&mut Rank) -> R,
    ) -> R {
        let mark = CommMark::of(self.rank);
        obs::emit(obs::Event::PhaseBegin {
            phase: phase.index() as u8,
        });
        let out = f(self.rank);
        obs::emit(obs::Event::PhaseEnd {
            phase: phase.index() as u8,
        });
        counters.add_comm_since(phase, self.rank, mark);
        out
    }
}

impl Executor for DistExecutor<'_> {
    fn owned(&self, _n_all: usize) -> usize {
        self.n_owned
    }

    fn refetch(&mut self, w: &mut SoaState, counters: &mut PhaseCounters) {
        if self.refetch_per_loop {
            self.exchange_halo(
                Phase::Exchange,
                HaloOp::Gather,
                w.flat_mut(),
                NVAR,
                counters,
            );
        }
    }

    fn for_edge_spans<F>(&mut self, nedges: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(&EdgeSpan<'_>, &ScatterAccess) + Sync,
    {
        let access = ScatterAccess::new(targets);
        f(&EdgeSpan::Range(0..nedges), &access);
    }

    fn for_vertex_spans<F>(&mut self, nverts: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(Range<usize>, &ScatterAccess) + Sync,
    {
        let access = ScatterAccess::new(targets);
        f(0..nverts, &access);
    }

    fn exchange_halo(
        &mut self,
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        let halo = self.halo;
        self.charged(phase, counters, |rank| match op {
            HaloOp::Gather => halo.gather_planes(rank, data, stride),
            HaloOp::ScatterAdd => halo.scatter_add_planes(rank, data, stride),
        });
    }

    fn exchange_begin(
        &mut self,
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        let (halo, at) = (self.halo, (1, data.len() / stride));
        self.charged(phase, counters, |rank| match op {
            HaloOp::Gather => halo.gather_begin(rank, data, stride, at),
            HaloOp::ScatterAdd => halo.scatter_add_begin(rank, data, stride, at),
        });
    }

    fn exchange_finish(
        &mut self,
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        let (halo, at) = (self.halo, (1, data.len() / stride));
        self.charged(phase, counters, |rank| match op {
            HaloOp::Gather => halo.gather_finish(rank, data, stride, at),
            HaloOp::ScatterAdd => halo.scatter_add_finish(rank, data, stride, at),
        });
    }

    fn comm_cost(&self) -> eul3d_delta::CostModel {
        self.rank.cost_model()
    }

    fn reduce_sum(&mut self, phase: Phase, vals: &mut [f64], counters: &mut PhaseCounters) {
        self.charged(phase, counters, |rank| rank.all_reduce_sum_in_place(vals));
    }
}

/// Per-rank state of one level. Every per-vertex array of `st` has
/// `n_local = n_owned + n_ghost` entries; ghost slots serve as receive
/// targets (gather) and off-rank accumulators (scatter_add).
pub struct DistLevel {
    pub rm: RankMesh,
    /// Ghost exchange schedule for per-vertex arrays.
    pub halo: Schedule,
    /// Working arrays, laid out exactly as on the other backends.
    pub st: LevelState,
}

impl DistLevel {
    /// Build this rank's level: extract its `RankMesh`, localize the halo
    /// schedule (tag space `[tag, tag+2)`), and initialize freestream
    /// state. Must be called SPMD (every rank, same order).
    pub fn build(rank: &mut Rank, pm: &PartitionedMesh, cfg: &SolverConfig, tag: u32) -> DistLevel {
        let rm = pm.ranks[rank.id].clone();
        let trans = Translation::new(pm.owner.clone(), pm.owner_local.clone());
        let n_owned = rm.n_owned();

        let slots: Vec<u32> = (0..rm.n_ghost() as u32)
            .map(|k| n_owned as u32 + k)
            .collect();
        let halo = localize(
            rank,
            &trans,
            &rm.ghost_globals,
            &slots,
            tag,
            CommClass::Halo,
        );

        // LevelState::new sizes everything by n_local and leaves *partial*
        // degrees (from the rank-local edge list); one setup scatter-add
        // completes them.
        let mut st = LevelState::new(&rm, cfg);
        halo.scatter_add_planes(rank, &mut st.deg, 1);

        DistLevel { halo, st, rm }
    }

    pub fn n_owned(&self) -> usize {
        self.rm.n_owned()
    }

    pub fn n_local(&self) -> usize {
        self.rm.n_local()
    }

    /// This level's grid and working arrays next to `rank`'s executor
    /// over its halo — what the generic [`crate::level`] routines take.
    pub fn parts<'a>(
        &'a mut self,
        rank: &'a mut Rank,
        refetch_per_loop: bool,
    ) -> (&'a RankMesh, &'a mut LevelState, DistExecutor<'a>) {
        let exec = DistExecutor {
            rank,
            halo: &self.halo,
            n_owned: self.rm.n_owned(),
            refetch_per_loop,
        };
        (&self.rm, &mut self.st, exec)
    }

    /// Squared density-residual sum and count for the global norm.
    pub fn residual_norm_parts(&self) -> (f64, f64) {
        self.st.residual_norm_parts(&self.rm.vol)
    }
}
