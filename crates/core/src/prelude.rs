//! The curated public surface of EUL3D: one `use eul3d_core::prelude::*`
//! pulls in everything a driver needs — configuration ([`RunConfig`]),
//! the solvers and their executors, the health guard, the
//! error taxonomy, and the observability layer. Items re-exported here
//! are the supported API; reaching into submodules works but tracks
//! internals that may move.
//!
//! The module denies `missing_docs` so nothing lands in the curated
//! surface without documentation.
#![deny(missing_docs)]

pub use crate::ckstore::JobCheckpoint;
pub use crate::config::{Scheme, SolverConfig};
pub use crate::counters::{FlopCounter, PhaseCounters};
pub use crate::error::{Eul3dError, SolverError};
pub use crate::executor::{Executor, Phase, SerialExecutor};
pub use crate::gas::{Freestream, NVAR};
pub use crate::health::{GuardConfig, GuardOutcome, HealthVerdict, RetryEvent};
pub use crate::history::ConvergenceHistory;
pub use crate::multigrid::{MultigridSolver, RunPlan, Strategy};
pub use crate::runconfig::{RunConfig, TraceConfig};

pub use eul3d_obs::{Event, Lane, MetricsRegistry, NullTracer, RingTracer, Stamped, Tracer};
