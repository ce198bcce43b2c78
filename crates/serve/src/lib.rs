//! # eul3d-serve — solver-as-a-service
//!
//! A long-running, multi-tenant job engine in front of the EUL3D
//! solver: clients submit solve jobs (a [`eul3d_core::RunConfig`] as
//! TOML plus a driver mode) over a line-delimited JSON protocol on a
//! Unix-domain socket; a bounded worker pool runs them with
//! backpressure, per-job cancellation (reusing the solver's
//! `FaultSignal` unwind path at committed-cycle boundaries), live
//! residual/trace event streaming, and a content-addressed result
//! cache keyed on the canonical hash of (config, mode, seed).
//!
//! The service is *provably* cache-coherent rather than heuristically:
//! [`eul3d_core::run_job`] is byte-deterministic for a fixed key, and
//! the key is invariant under TOML spelling (see
//! [`eul3d_core::RunConfig::canonical_toml`]), so a cached result and a
//! fresh recompute are interchangeable to the byte — the determinism
//! test suite (`tests/determinism.rs`) and the CI smoke job hold the
//! service to exactly that bar. DESIGN.md §11 documents the job
//! lifecycle state machine, the wire protocol, the cache-key
//! canonicalization, and the backpressure policy.
//!
//! With a `state_dir` configured the engine is additionally
//! **crash-safe**: submissions go through a write-ahead journal
//! ([`journal`]), completed results persist in a content-addressed disk
//! store ([`store`]), and running solve jobs append checkpoints through
//! [`eul3d_core::ckstore`] — three record types over the one CRC-framed
//! file format of [`eul3d_core::framed`] — so a `kill -9` at any
//! instant loses at most one checkpoint interval of compute, and a
//! restarted server resumes interrupted jobs to byte-identical results
//! (DESIGN.md §12; proven by the crash-injection harness in
//! `crates/cli/tests/crash_recovery.rs`).
//!
//! Module map:
//! * [`engine`] — the worker pool, queue, lifecycle state machine;
//! * [`cache`] — [`cache::CacheKey`] and the byte-budgeted FIFO
//!   [`cache::ResultCache`];
//! * [`journal`] — the write-ahead job journal and its replay;
//! * [`store`] — the durable content-addressed result store;
//! * [`protocol`] — request parsing and event-line builders;
//! * [`server`] — the Unix-socket accept loop ([`server::spawn`]);
//! * [`client`] — helpers used by the CLI, tests, and benchmarks, with
//!   timeout/retry resilience for flaky or restarting servers;
//! * [`json`] — the workspace's flat-JSON codec underneath it all
//!   (`eul3d_obs::json`, re-exported).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod engine;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod store;

/// The workspace's one flat-JSON codec, under the path clients of this
/// crate have always imported it from.
pub use eul3d_obs::json;

pub use cache::{CacheKey, JobBlob, ResultCache};
pub use client::{submit_resilient, ClientConfig};
pub use engine::{
    CancelOutcome, EngineConfig, EngineStats, JobEngine, JobEvent, JobSpec, JobState, SubmitError,
    SubmitTicket,
};
pub use journal::{Journal, JournalRecord, JournalReplay, PendingJob};
pub use protocol::Request;
pub use server::{spawn, ServerHandle};
pub use store::ResultStore;
