//! The **executor abstraction**: one set of solver kernels, three
//! execution strategies — the paper's central claim ("the same solver ran
//! on the shared-memory C90 and the distributed-memory Delta, with only
//! the execution layer swapped underneath").
//!
//! The five-stage Runge–Kutta step, residual assembly, dissipation,
//! convection and smoothing in [`crate::level`] are written **once**,
//! generic over an [`Executor`]. Every method has a default — the
//! sequential reference, so [`SerialExecutor`] overrides nothing — and a
//! backend overrides only what it varies:
//!
//! | method | serial | shared | distributed |
//! |---|---|---|---|
//! | [`owned`](Executor::owned) — authoritative prefix | all | all | owned slots |
//! | [`edge_launches`](Executor::edge_launches) — C90 launches | 1 | colours | 1 |
//! | [`refetch`](Executor::refetch) — §4.3 ablation | no-op | no-op | gather |
//! | [`for_edge_spans`](Executor::for_edge_spans) | one span | member lists | one span |
//! | [`for_face_spans`](Executor::for_face_spans) | one span | member lists | one span |
//! | [`for_vertex_range`](Executor::for_vertex_range) | one span | member blocks | one span |
//! | [`exchange_halo`](Executor::exchange_halo), [`exchange_begin`](Executor::exchange_begin), [`exchange_finish`](Executor::exchange_finish) | no-op | no-op | PARTI windows |
//!
//! Every backend's modeled time is priced by the one Delta cost model
//! ([`eul3d_delta::CostModel::delta_i860`]) in [`count_edge_loop`] and
//! [`count_vertex_loop`].
//!
//! Backends:
//! * [`SerialExecutor`] — plain loops (the sequential reference);
//! * [`crate::shared::SharedExecutor`] — a resident rayon team over
//!   block ownership, charged as the §3 edge-coloured sweep the Cray
//!   autotasking model prices;
//! * [`crate::dist::DistExecutor`] — §4 PARTI schedules, one instance
//!   per rank, with halo records on shared-memory windows between ranks
//!   that run as OS threads (priced on the simulated Delta's clock).

use std::ops::Range;

use eul3d_delta::CostModel;
use eul3d_obs as obs;

pub use eul3d_kernels::{EdgeSpan, ScatterAccess, MAX_SCATTER_TARGETS};

use crate::counters::{FlopCounter, PhaseCounters};
use crate::soa::SoaState;

/// Solver phases, the rows of the uniform per-phase comp/comm breakdown
/// every backend reports through [`PhaseCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Per-stage ghost gather of the flow variables (§4.3: fetched once
    /// per stage and reused by every loop).
    Exchange,
    /// Per-vertex pressure evaluation.
    Pressure,
    /// Spectral radii + local time steps.
    Radii,
    /// Artificial dissipation (JST two-pass, first-order, or Roe).
    Dissipation,
    /// Interior convective fluxes.
    Convection,
    /// Boundary-face fluxes (wall + far field).
    Boundary,
    /// Residual assembly `R = Q − D + P`.
    Assemble,
    /// Implicit residual averaging.
    Smooth,
    /// Runge–Kutta stage update.
    Update,
    /// Inter-grid transfers (restriction/prolongation).
    Transfer,
    /// Convergence monitoring (residual-norm reductions).
    Monitor,
    /// Periodic distributed state snapshots (gather + replicate).
    Checkpoint,
    /// Fault recovery: abort propagation, schedule rebuild, rollback.
    Recovery,
    /// Solver-health guard: finite/positivity scans, divergence checks
    /// and the verdict agreement. A rejected cycle's in-place restore
    /// moves no data between ranks.
    Guard,
}

/// Number of [`Phase`] variants.
pub const NPHASES: usize = 14;

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; NPHASES] = [
        Phase::Exchange,
        Phase::Pressure,
        Phase::Radii,
        Phase::Dissipation,
        Phase::Convection,
        Phase::Boundary,
        Phase::Assemble,
        Phase::Smooth,
        Phase::Update,
        Phase::Transfer,
        Phase::Monitor,
        Phase::Checkpoint,
        Phase::Recovery,
        Phase::Guard,
    ];

    /// Dense index for table layouts.
    pub fn index(self) -> usize {
        match self {
            Phase::Exchange => 0,
            Phase::Pressure => 1,
            Phase::Radii => 2,
            Phase::Dissipation => 3,
            Phase::Convection => 4,
            Phase::Boundary => 5,
            Phase::Assemble => 6,
            Phase::Smooth => 7,
            Phase::Update => 8,
            Phase::Transfer => 9,
            Phase::Monitor => 10,
            Phase::Checkpoint => 11,
            Phase::Recovery => 12,
            Phase::Guard => 13,
        }
    }

    /// Every phase's [`label`](Phase::label), indexed by
    /// [`Phase::index`] — the span names the trace exporters take.
    pub fn labels() -> Vec<&'static str> {
        Phase::ALL.iter().map(|p| p.label()).collect()
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Exchange => "exchange",
            Phase::Pressure => "pressure",
            Phase::Radii => "radii/dt",
            Phase::Dissipation => "dissipation",
            Phase::Convection => "convection",
            Phase::Boundary => "boundary",
            Phase::Assemble => "assemble",
            Phase::Smooth => "smooth",
            Phase::Update => "update",
            Phase::Transfer => "transfer",
            Phase::Monitor => "monitor",
            Phase::Checkpoint => "checkpoint",
            Phase::Recovery => "recovery",
            Phase::Guard => "guard",
        }
    }
}

/// Direction of a ghost exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloOp {
    /// Fetch owner values into ghost slots (PARTI gather).
    Gather,
    /// Flush partial sums accumulated in ghost slots back to their
    /// owners, adding, and zero the ghost accumulators (PARTI
    /// scatter-add).
    ScatterAdd,
}

/// One execution strategy for the EUL3D kernels. See the module docs.
///
/// Backends that need mutable state (the distributed backend drives a
/// [`eul3d_delta::Rank`]) take `&mut self`; stateless backends simply
/// ignore the mutability.
pub trait Executor {
    /// Vertices with authoritative data, given the level's total slot
    /// count `n_all`. Per-vertex *updates* (assembly, smoothing, stage
    /// update) loop over this prefix; only the distributed backend, whose
    /// arrays carry ghost slots after the owned prefix, returns less
    /// than `n_all`.
    fn owned(&self, n_all: usize) -> usize {
        n_all
    }

    /// Parallel-loop launches one edge loop costs (the Cray model charges
    /// a start-up per launch). 1 except on the shared path, which
    /// charges the paper's coloured sweep: one launch per colour group.
    fn edge_launches(&self) -> u64 {
        1
    }

    /// Re-gather the flow variables if this backend is configured to
    /// refetch before every loop (the §4.3 ablation). Default: no-op.
    fn refetch(&mut self, _w: &mut SoaState, _counters: &mut PhaseCounters) {}

    /// Ownership-managed edge loop over [`EdgeSpan`]s: call
    /// `f(span, scatter)` for one or more spans such that every endpoint
    /// of every edge in `0..nedges` is written by exactly one call — the
    /// call whose [`ScatterAccess`] owns it. The serial and distributed
    /// backends hand `f` a single contiguous [`EdgeSpan::Range`] and a
    /// view that owns everything; the shared backend hands each member
    /// the ascending [`EdgeSpan::Ids`] of the edges touching its vertex
    /// block and a view restricted to that block (an edge cut by a
    /// block boundary is in both neighbours' lists). `f` accumulates
    /// into `targets` through the ownership-tested epilogue of the
    /// [`eul3d_kernels`] edge kernels and must write nothing else.
    fn for_edge_spans<F>(&mut self, nedges: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(&EdgeSpan<'_>, &ScatterAccess) + Sync,
    {
        let access = ScatterAccess::new(targets);
        f(&EdgeSpan::Range(0..nedges), &access);
    }

    /// Boundary-face loop: call `f(span, scatter)` for one or more face
    /// spans such that every vertex of every face in `0..nfaces` is
    /// written by exactly one call — the call whose [`ScatterAccess`]
    /// owns it. Default: one span owning everything (serial,
    /// distributed). The shared backend hands each member the ascending
    /// list of faces touching its vertex block; `f` must test
    /// [`ScatterAccess::owns`] per face vertex.
    fn for_face_spans<F>(&mut self, nfaces: usize, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(&EdgeSpan<'_>, &ScatterAccess) + Sync,
    {
        let access = ScatterAccess::new(targets);
        f(&EdgeSpan::Range(0..nfaces), &access);
    }

    /// Vertex map over `range` (`0..n`, the owned prefix, or the ghost
    /// tail `owned..n` a split loop finishes after its gather): call
    /// `f(r, scatter)` for disjoint sub-ranges that together cover
    /// `range` exactly once. `f` writes per-vertex results into the
    /// plane-major `targets` through [`ScatterAccess::set`] and may read
    /// any captured shared state. Default: one span; the shared backend
    /// hands each member one block.
    fn for_vertex_range<F>(&mut self, range: Range<usize>, targets: &mut [&mut [f64]], f: F)
    where
        F: Fn(Range<usize>, &ScatterAccess) + Sync,
    {
        let access = ScatterAccess::new(targets);
        f(range, &access);
    }

    /// Ghost exchange on a plane-major per-vertex array (`stride`
    /// planes of `data.len() / stride` values each; `stride == 1` for
    /// scalars). No-op in a single address space; PARTI gather /
    /// scatter-add on the distributed path, with the traffic charged to
    /// `phase`.
    fn exchange_halo(
        &mut self,
        _phase: Phase,
        _op: HaloOp,
        _data: &mut [f64],
        _stride: usize,
        _counters: &mut PhaseCounters,
    ) {
    }

    /// Begin a split halo exchange: initiate the outgoing half so that
    /// independent interior work can run before [`Executor::exchange_finish`]
    /// completes it. The solver calls begin/finish around any compute it
    /// can legally overlap; backends without split communication (the
    /// default) simply perform the whole exchange here, making finish a
    /// no-op — values, counters, and traces are then identical to a
    /// plain [`Executor::exchange_halo`] call. The distributed backend
    /// publishes into its shared-memory windows in `begin` and consumes
    /// in `finish`.
    ///
    /// For [`HaloOp::Gather`], `begin` must not modify owned entries and
    /// `finish` fills ghost slots; for [`HaloOp::ScatterAdd`], `begin`
    /// flushes-and-zeroes ghost accumulators and `finish` adds into
    /// owned entries. Every begun exchange must be finished with the
    /// same `(phase, op, data, stride)` before the next operation on the
    /// same schedule stream.
    fn exchange_begin(
        &mut self,
        phase: Phase,
        op: HaloOp,
        data: &mut [f64],
        stride: usize,
        counters: &mut PhaseCounters,
    ) {
        self.exchange_halo(phase, op, data, stride, counters);
    }

    /// Complete a split halo exchange begun with
    /// [`Executor::exchange_begin`]. Default: no-op (the default begin
    /// already did everything).
    fn exchange_finish(
        &mut self,
        _phase: Phase,
        _op: HaloOp,
        _data: &mut [f64],
        _stride: usize,
        _counters: &mut PhaseCounters,
    ) {
    }
}

/// The sequential reference backend: plain loops, nothing to exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {}

/// Charge an edge loop of `nedges` edges to `phase`: uniform flop count
/// (`nedges × per_edge` — identical across backends for the same global
/// mesh), backend-specific launch count. Also emits one observability
/// phase span whose modeled duration is the charged flops at the Delta
/// node rate, advancing the lane's deterministic clock.
pub fn count_edge_loop<E: Executor + ?Sized>(
    counters: &mut PhaseCounters,
    phase: Phase,
    exec: &E,
    nedges: usize,
    per_edge: f64,
) {
    let flops = nedges as f64 * per_edge;
    let c: &mut FlopCounter = counters.phase(phase);
    c.flops += flops;
    c.launches += exec.edge_launches();
    obs::span_ns(phase.index() as u8, CostModel::delta_i860().comp_ns(flops));
}

/// Charge a vertex loop of `items` vertices to `phase`, with the same
/// observability span as [`count_edge_loop`].
pub fn count_vertex_loop(counters: &mut PhaseCounters, phase: Phase, items: usize, per_vert: f64) {
    let flops = items as f64 * per_vert;
    let c = counters.phase(phase);
    c.flops += flops;
    c.launches += 1;
    obs::span_ns(phase.index() as u8, CostModel::delta_i860().comp_ns(flops));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_executor_edge_spans_accumulate() {
        let edges = [[0u32, 1], [1, 2], [0, 2]];
        let mut acc = vec![0.0; 3];
        let mut exec = SerialExecutor;
        exec.for_edge_spans(edges.len(), &mut [&mut acc], |span, s| {
            span.for_each(|e| {
                let [a, b] = edges[e];
                // SAFETY: single-threaded execution.
                unsafe {
                    s.add(0, a as usize, 1.0);
                    s.add(0, b as usize, 1.0);
                }
            });
        });
        assert_eq!(acc, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn serial_executor_vertex_range_covers_range() {
        let mut plane = vec![0.0; 3];
        SerialExecutor.for_vertex_range(0..3, &mut [&mut plane], |range, s| {
            for i in range {
                // SAFETY: single-threaded execution.
                unsafe { s.set(0, i, i as f64) };
            }
        });
        assert_eq!(plane, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn phases_index_round_trips() {
        for (k, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), k);
            assert!(!p.label().is_empty());
        }
    }
}
