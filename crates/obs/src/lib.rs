//! **Observability layer** for the EUL3D reproduction: typed events on a
//! deterministic clock, recorded per rank into fixed-capacity ring
//! buffers and exported as Chrome `trace_event` JSON, flat metrics JSON,
//! or a human summary table.
//!
//! The paper's entire evaluation is observability — per-phase times,
//! communication volumes, scalability tables — yet coarse totals cannot
//! show *when* a rank stalled in an exchange or which recovery epoch ate
//! the wall clock. This crate records the run itself:
//!
//! * [`Event`] — a small `Copy` vocabulary of span and instant events:
//!   solver-phase begin/end, message send/receive with byte counts and
//!   tags, pool allocations, checkpoint and recovery epochs, guard
//!   verdicts, and CFL changes;
//! * [`Tracer`] — the recording trait. [`NullTracer`] (the default) is a
//!   no-op; [`RingTracer`] keeps the last *N* events in a pre-allocated
//!   ring (drop-oldest on overflow, with a dropped-events counter), so an
//!   armed steady-state cycle stays **allocation-free**;
//! * a per-thread dispatch context ([`install`] / [`take`] / [`emit`])
//!   holding the tracer and a monotonic nanosecond clock. The clock is
//!   advanced by the *instrumentation sites*, never read from wall time:
//!   compute charges advance it by modeled kernel nanoseconds and sends
//!   advance it by modeled wire nanoseconds, so distributed ranks carry
//!   the simulated Delta clock, serial/shared runs carry a monotonic
//!   cycle clock, and identical runs produce **bit-identical traces**;
//! * [`MetricsRegistry`] — named counters/gauges/fixed-bucket histograms
//!   addressed by integer handles (no string hashing or float formatting
//!   on the hot path);
//! * [`export`] — the three exporters ([`export::chrome_trace`],
//!   [`MetricsRegistry::to_json`], [`export::summary_table`]).
//!
//! The crate is dependency-free and sits below the machine simulation:
//! `eul3d-delta` emits wire events, `eul3d-core` emits phase/guard
//! events, and the CLI/bench layers arm tracers and export.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod ctx;
pub mod export;
pub mod json;
pub mod metrics;
pub mod tracer;
pub mod wire;

pub use ctx::{
    advance_ns, armed, emit, install, mark, now_ns, pause, resume, rewind, set_clock, span_ns,
    take, ClockSource, TraceMark,
};
pub use export::{chrome_trace, summary_table, Lane};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use tracer::{Event, NullTracer, RingTracer, Stamped, Tracer, DEFAULT_RING_CAPACITY};
