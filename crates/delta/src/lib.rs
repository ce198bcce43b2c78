//! A simulated distributed-memory multicomputer — the stand-in for the
//! Intel Touchstone Delta of §4 of the paper.
//!
//! Each **rank** runs the same SPMD closure on its own OS thread with its
//! own private data, communicating only through records on
//! shared-memory windows ([`shm`]): schedule streams, deterministic
//! collectives and the inspector's all-to-all alike. Failures travel as
//! notices into per-rank inboxes that every window wait polls. Because
//! every consume names its source and window, the program is a Kahn
//! process network: results are bit-identical across runs regardless of
//! thread scheduling, even with hundreds of ranks multiplexed onto one
//! core.
//!
//! What the real Delta charged in *time*, this machine charges in
//! **counters**: every rank accumulates flops (reported by the numerical
//! kernels) and message/byte counts (recorded by the publish path, split
//! by communication class). The [`cost::CostModel`] then maps those counters
//! to seconds using calibrated i860 + mesh-network constants, producing
//! the computation/communication breakdown format of Tables 2a–2c.

//! ```
//! use eul3d_delta::{run_spmd, CommClass, CostModel};
//!
//! // 4 SPMD ranks: a ring exchange, then a deterministic reduction.
//! let run = run_spmd(4, |rank| {
//!     let next = (rank.id + 1) % rank.nranks;
//!     let prev = (rank.id + rank.nranks - 1) % rank.nranks;
//!     let me = rank.id as f64;
//!     rank.publish_f64(next, 1, CommClass::Halo, 1, |b| b.push(me));
//!     let got = rank.consume_f64(prev, 1, |r| r[0]);
//!     rank.add_flops(100.0);
//!     rank.all_reduce_sum(&[got])[0]
//! });
//! assert!(run.results.iter().all(|&x| x == 6.0)); // 0+1+2+3
//! let table2_row = CostModel::delta_i860().evaluate(&run.counters);
//! assert!(table2_row.total_seconds > 0.0);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod error;
pub mod fault;
pub mod machine;
pub mod msg;
pub mod rank;
pub mod shm;

pub use cost::{CommCost, CostBreakdown, CostModel};
pub use error::DeltaError;
pub use fault::{FaultAction, FaultCause, FaultPlan, FaultSignal, FaultState, KillSpec, MsgFault};
pub use machine::{check_nranks, run_spmd, MachineRun, MAX_RANKS};
pub use msg::{CommClass, CommStats, RankCounters};
pub use rank::{mesh_dims, mesh_hops, silence_fault_signal_panics, Rank, COLLECTIVE_TAG_BASE};
pub use shm::{Record, Wedge, Window, WindowRegistry, DEFAULT_WEDGE_TIMEOUT};
