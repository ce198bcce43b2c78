//! **EUL3D** — the paper's three-dimensional unstructured Euler solver:
//! a compact vertex-based scheme with an edge-based data structure
//! (Galerkin linear-tet ≡ central differences + JST artificial
//! dissipation), five-stage Runge–Kutta time stepping with frozen
//! dissipation, local time steps, implicit residual averaging, and FAS
//! multigrid on sequences of *unrelated* meshes (V and W cycles).
//!
//! One time step ([`level`]) and one multigrid cycle ([`fas`]) run on
//! three executors:
//!
//! * [`multigrid::MultigridSolver::new`] — the sequential reference
//!   implementation, whose [`Strategy::SingleGrid`] is the paper's base
//!   solver and whose [`multigrid::MultigridSolver::run`] is the one run
//!   loop (guard, resume, durability);
//! * [`multigrid::MultigridSolver::new_shared`] over [`shared`] — the
//!   shared-memory path: a resident team (rayon) in which each member
//!   owns a block of the vertices, charged to the machine model as the
//!   §3 edge-coloured sweep Cray autotasking ran;
//! * [`dist`] — the distributed-memory path of §4: each rank runs the
//!   same cycle on its partition with PARTI gather/scatter keeping ghost
//!   data coherent, on the simulated Delta machine.

//! ```
//! use eul3d_core::{MultigridSolver, SolverConfig, Strategy};
//! use eul3d_mesh::gen::BumpSpec;
//! use eul3d_mesh::MeshSequence;
//!
//! let spec = BumpSpec { nx: 8, ny: 4, nz: 3, ..Default::default() };
//! let seq = MeshSequence::bump_sequence(&spec, 2);
//! let cfg = SolverConfig { mach: 0.5, ..Default::default() };
//! let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
//! let history = mg.solve(5);
//! assert!(history.iter().all(|r| r.is_finite()));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod agglo;
pub mod boundary;
pub mod ckstore;
pub mod config;
pub mod counters;
pub mod dist;
pub mod error;
pub mod executor;
pub mod fas;
pub mod framed;
pub mod gas;
pub mod health;
pub mod history;
pub mod job;
pub mod level;
pub mod multigrid;
pub mod postproc;
pub mod prelude;
pub mod roe;
pub mod runconfig;
pub mod shared;
pub mod smooth;
pub mod soa;
pub mod timestep;

pub use ckstore::{CheckpointLog, DurabilitySink, JobCheckpoint};
pub use config::{Scheme, SolverConfig};
pub use counters::{FlopCounter, PhaseCounters};
pub use error::{Eul3dError, SolverError};
pub use executor::{Executor, Phase, SerialExecutor};
pub use framed::{FramedError, TailReport};
pub use gas::{Freestream, NVAR};
pub use health::{GuardConfig, GuardOutcome, HealthVerdict, RetryEvent};
pub use history::ConvergenceHistory;
pub use job::{run_job, run_job_durable, CancelToken, JobArtifacts, JobMode};
pub use multigrid::{Coarsening, Grids, MultigridSolver, RunPlan, Strategy};
pub use runconfig::{fnv1a_128, RunConfig, TraceConfig};
pub use soa::SoaState;

/// Deterministic seed for randomized setup (mesh jitter, partitioner
/// starts): the `EUL3D_SEED` environment variable when set to a valid
/// integer, `default` otherwise. CI sweeps a small seed matrix through
/// this to keep tests honest about seed sensitivity.
pub fn env_seed(default: u64) -> u64 {
    std::env::var("EUL3D_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}
