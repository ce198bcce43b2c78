//! One rank's share of one mesh level — its local mesh, halo schedule and
//! working arrays — plus the [`DistExecutor`] backend that runs the
//! generic kernels of [`crate::level`] SPMD over the simulated machine.

use eul3d_delta::{CommClass, Rank};
use eul3d_obs as obs;
use eul3d_parti::{localize, Schedule, Translation};
use eul3d_partition::{PartitionedMesh, RankMesh};

use std::sync::Arc;

use crate::config::SolverConfig;
use crate::counters::{CommMark, PhaseCounters};
use crate::executor::{Executor, HaloOp, Phase};
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
    /// The one exchange body: the `(begin, finish)` halves of `op` on
    /// the halo schedule (a whole exchange runs both), in one
    /// observability phase span — the enclosed sends advance the lane
    /// clock, giving the span its modeled wire duration — with the
    /// message/byte/allocation delta charged to `phase`.
    fn exchange(
        &mut self,
        (begin, finish): (bool, bool),
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        let (halo, rank, at) = (self.halo, &mut *self.rank, (1, data.len() / stride));
        let (mark, p) = (CommMark::of(rank), phase.index() as u8);
        obs::emit(obs::Event::PhaseBegin { phase: p });
        match op {
            HaloOp::Gather => {
                if begin {
                    halo.gather_begin(rank, data, stride, at);
                }
                if finish {
                    halo.gather_finish(rank, data, stride, at);
                }
            }
            HaloOp::ScatterAdd => {
                if begin {
                    halo.scatter_add_begin(rank, data, stride, at);
                }
                if finish {
                    halo.scatter_add_finish(rank, data, stride, at);
                }
            }
        }
        obs::emit(obs::Event::PhaseEnd { phase: p });
        counters.add_comm_since(phase, rank, mark);
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

    fn exchange_halo(
        &mut self,
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        self.exchange((true, true), phase, op, data, stride, counters);
    }

    fn exchange_begin(
        &mut self,
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        self.exchange((true, false), phase, op, data, stride, counters);
    }

    fn exchange_finish(
        &mut self,
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        self.exchange((false, true), phase, op, data, stride, counters);
    }
}

/// Per-rank state of one level. Every per-vertex array of `st` has
/// `n_local = n_owned + n_ghost` entries; ghost slots serve as receive
/// targets (gather) and off-rank accumulators (scatter_add).
pub struct DistLevel {
    /// This rank's share of the level, shared with the partitioned mesh.
    pub rm: Arc<RankMesh>,
    /// Ghost exchange schedule for per-vertex arrays.
    pub halo: Schedule,
    /// Working arrays, laid out exactly as on the other backends.
    pub st: LevelState,
}

impl DistLevel {
    /// Build this rank's level: share its `RankMesh`, localize the halo
    /// schedule (tag space `[tag, tag+2)`), and initialize freestream
    /// state. Must be called SPMD (every rank, same order).
    pub fn build(rank: &mut Rank, pm: &PartitionedMesh, cfg: &SolverConfig, tag: u32) -> DistLevel {
        let rm = Arc::clone(&pm.ranks[rank.id]);
        let trans = Translation::new(&pm.owner, &pm.owner_local);
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
        let mut st = LevelState::new(&*rm, cfg);
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
