//! The distributed-memory EUL3D (§4): each rank owns a partition of every
//! mesh level and runs the same multistage/multigrid cycle, with PARTI
//! schedules keeping ghost data coherent over the simulated Delta.
//!
//! Data movement per Runge–Kutta stage follows §4.3: the flow variables
//! are gathered **once** at the start of the stage and reused by the
//! convective loop, both dissipation passes and the boundary loop
//! (set [`DistOptions::refetch_per_loop`] to measure the unoptimized
//! variant); edge-loop partial sums destined for off-rank vertices
//! accumulate in ghost slots and are flushed by `scatter_add`.

mod level;
mod recover;
mod setup;
mod solver;
mod transfer;

pub use level::{DistExecutor, DistLevel};
pub use recover::{run_distributed_with_faults, FaultOptions};
pub use setup::{partition_options, DistSetup, LANCZOS_ITERS};
pub use solver::{
    rank0_lane, run_distributed, AdoptedOutput, DistBackend, DistOptions, DistRunResult,
    DistSolver, RankFate, RankOutput, RepartitionPolicy,
};
pub use transfer::TransferLink;

#[cfg(test)]
mod tests;
