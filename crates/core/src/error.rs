//! The workspace error taxonomy. Every crash path that used to be an
//! `assert!`/`panic!` on user-reachable input (bad meshes, bad guard
//! configuration, diverging runs, malformed fault specs) now surfaces as
//! a typed error that converts into the umbrella [`Eul3dError`], so the
//! CLI and library callers handle failures without unwinding.
//!
//! Invariant violations that indicate a *bug* (not bad input) remain
//! `unreachable!`/`debug_assert!` — the taxonomy is for recoverable
//! conditions.

use std::fmt;

use crate::health::{HealthVerdict, RetryEvent};
use eul3d_delta::DeltaError;
use eul3d_mesh::MeshError;
use eul3d_parti::PartiError;
use eul3d_partition::PartitionError;

/// Errors raised by solver setup and the health-guarded drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The shared-memory executor could not be built: its team, or the
    /// validation of an edge colouring.
    Coloring(String),
    /// Agglomerated coarse levels were asked of the distributed path,
    /// which partitions a mesh sequence.
    AggloNotDistributed,
    /// The configured `partition.method` refused its options (e.g.
    /// `prcb` at a rank count that is not a power of two).
    Partition(PartitionError),
    /// A [`crate::runconfig::RunConfig`] field failed range validation.
    ConfigOutOfRange {
        /// Dotted field path (e.g. `"solver.mach"`).
        field: &'static str,
        /// The rejected value (integer fields are cast).
        value: f64,
        /// Human description of the accepted range.
        expected: &'static str,
    },
    /// A `run.toml` config file failed to parse.
    ConfigParse {
        /// 1-based line of the offending entry (0 = whole file).
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The guard backed off `max_retries` times and the run still went
    /// bad: the full retry transcript plus the final verdict.
    RetriesExhausted {
        /// Cycle (0-based) whose verdict exhausted the budget.
        cycle: usize,
        /// The verdict that could not be retried.
        verdict: HealthVerdict,
        /// Every backoff epoch that was attempted, in order.
        transcript: Vec<RetryEvent>,
        /// The configured retry budget.
        max_retries: usize,
    },
    /// A per-vertex field does not fit the mesh it is to be written on.
    FieldLength {
        /// Field name (e.g. `"mach"`).
        field: &'static str,
        /// Values the field holds.
        len: usize,
        /// Vertices the mesh has.
        nverts: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Coloring(msg) => write!(f, "shared executor: {msg}"),
            SolverError::AggloNotDistributed => {
                write!(f, "agglomeration runs on the solve path only")
            }
            SolverError::Partition(e) => write!(f, "partition.method: {e}"),
            SolverError::ConfigOutOfRange {
                field,
                value,
                expected,
            } => write!(f, "config: {field} = {value} out of range ({expected})"),
            SolverError::ConfigParse { line, msg } => {
                if *line > 0 {
                    write!(f, "config: parse error at line {line}: {msg}")
                } else {
                    write!(f, "config: parse error: {msg}")
                }
            }
            SolverError::RetriesExhausted {
                cycle,
                verdict,
                transcript,
                max_retries,
            } => {
                write!(
                    f,
                    "guard exhausted {max_retries} retries: {verdict} at cycle {}",
                    cycle + 1
                )?;
                for e in transcript {
                    write!(f, "\n  retry: {e}")?;
                }
                Ok(())
            }
            SolverError::FieldLength { field, len, nverts } => write!(
                f,
                "field `{field}` has {len} values for a mesh of {nverts} vertices"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// The workspace-wide umbrella: anything a driver or the CLI can fail
/// with, from mesh construction through solver setup to a guarded run
/// that exhausted its retries.
#[derive(Debug, Clone, PartialEq)]
pub enum Eul3dError {
    Mesh(MeshError),
    Parti(PartiError),
    Delta(DeltaError),
    Solver(SolverError),
}

impl fmt::Display for Eul3dError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Eul3dError::Mesh(e) => write!(f, "mesh: {e}"),
            Eul3dError::Parti(e) => write!(f, "parti: {e}"),
            Eul3dError::Delta(e) => write!(f, "delta: {e}"),
            Eul3dError::Solver(e) => write!(f, "solver: {e}"),
        }
    }
}

impl std::error::Error for Eul3dError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Eul3dError::Mesh(e) => Some(e),
            Eul3dError::Parti(e) => Some(e),
            Eul3dError::Delta(e) => Some(e),
            Eul3dError::Solver(e) => Some(e),
        }
    }
}

impl From<MeshError> for Eul3dError {
    fn from(e: MeshError) -> Eul3dError {
        Eul3dError::Mesh(e)
    }
}

impl From<PartiError> for Eul3dError {
    fn from(e: PartiError) -> Eul3dError {
        Eul3dError::Parti(e)
    }
}

impl From<DeltaError> for Eul3dError {
    fn from(e: DeltaError) -> Eul3dError {
        Eul3dError::Delta(e)
    }
}

impl From<SolverError> for Eul3dError {
    fn from(e: SolverError) -> Eul3dError {
        Eul3dError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn umbrella_wraps_and_displays_every_source() {
        let m: Eul3dError = MeshError::DegenerateTet { tet: [0, 1, 2, 3] }.into();
        assert!(m.to_string().contains("mesh:"));
        let s: Eul3dError = SolverError::ConfigOutOfRange {
            field: "guard.max_retries",
            value: 0.0,
            expected: "must be at least 1",
        }
        .into();
        assert!(s.to_string().contains("guard.max_retries = 0 out of range"));
        assert!(std::error::Error::source(&s).is_some());
    }

    #[test]
    fn retries_exhausted_carries_the_transcript() {
        use crate::health::HealthVerdict;
        let e = SolverError::RetriesExhausted {
            cycle: 9,
            verdict: HealthVerdict::Diverging { ratio: 60.0 },
            transcript: vec![RetryEvent {
                cycle: 4,
                rollback_to: Some(0),
                verdict: HealthVerdict::NonFinite { vertex: 2 },
                cfl_before: 30.0,
                cfl_after: 15.0,
            }],
            max_retries: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains("exhausted 1 retries"));
        assert!(msg.contains("retry: cycle 5"));
        assert!(msg.contains("non-finite state at vertex 2"));
    }
}
