//! A Rust reimplementation of the **PARTI** primitives (Parallel
//! Automated Runtime Toolkit at ICASE) used by the paper's distributed
//! implementation (§4.1, references \[12\]–\[14\]).
//!
//! PARTI's programming model: irregular loops with indirect addressing
//! are transformed into an **inspector** and an **executor**. At runtime
//! the inspector ([`localize`]) scans the off-processor references a rank
//! will make, deduplicates them with hash tables, and builds a
//! [`Schedule`] — a reusable communication pattern. The executor then
//! fetches off-processor data into ghost slots before a loop
//! ([`Schedule::gather_begin`] / [`Schedule::gather_finish`]) and
//! flushes partial sums accumulated in ghost slots back to their owners
//! after it ([`Schedule::scatter_add_begin`] /
//! [`Schedule::scatter_add_finish`]); `gather_planes` and
//! `scatter_add_planes` run both halves on one plane-major field. One
//! pack loop and one unpack loop serve plane-major fields and
//! vertex-major staging buffers alike, and the bytes move over whichever
//! transport the rank carries (channel mailboxes, or shared-memory
//! windows on the hybrid backend) — the schedule never asks which.
//!
//! §4.3's fetch-once behaviour is not a primitive here: a rank's
//! `DistLevel` (in `eul3d-core`) gathers the flow variables through one
//! halo schedule once per stage and reuses them in every edge loop of
//! that stage; its `refetch_per_loop` option is the ablation that
//! gathers before every loop instead.

//! ```
//! use eul3d_delta::{run_spmd, CommClass};
//! use eul3d_parti::{localize, Translation};
//!
//! // 8 globals block-distributed over 2 ranks; each rank ghosts the
//! // peer's first entry into local slot 4.
//! let parts: Vec<u32> = (0..8).map(|g| (g / 4) as u32).collect();
//! let run = run_spmd(2, move |rank| {
//!     let trans = Translation::from_parts(&parts, 2);
//!     let required = [if rank.id == 0 { 4 } else { 0 }];
//!     let sched = localize(rank, &trans, &required, &[4], 100, CommClass::Halo);
//!     let mut data = vec![rank.id as f64; 5]; // 4 owned + 1 ghost slot
//!     sched.gather_planes(rank, &mut data, 1);
//!     data[4]
//! });
//! assert_eq!(run.results, vec![1.0, 0.0]); // each side sees the peer's value
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod inspector;
pub mod schedule;
pub mod tags;
pub mod translation;

pub use error::PartiError;
pub use inspector::localize;
pub use schedule::Schedule;
pub use tags::{TagAllocator, EPOCH_STRIDE};
pub use translation::Translation;
