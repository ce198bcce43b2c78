//! Typed events and the tracer implementations.

/// One observability event. Small and `Copy` so recording is a plain
/// store into a pre-allocated ring slot — no boxing, no formatting, no
/// allocation on the hot path.
///
/// Span pairs ([`Event::PhaseBegin`]/[`Event::PhaseEnd`],
/// [`Event::CheckpointBegin`]/[`Event::CheckpointEnd`],
/// [`Event::RecoveryBegin`]/[`Event::RecoveryEnd`],
/// [`Event::RepartitionBegin`]/[`Event::RepartitionEnd`]) nest properly
/// per lane; the rest are instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A solver phase (dense [`index`](Event::PhaseBegin::phase) into the
    /// core `Phase::ALL` table) started on this lane.
    PhaseBegin {
        /// Dense phase index (`Phase::index()`).
        phase: u8,
    },
    /// The matching phase span ended.
    PhaseEnd {
        /// Dense phase index (`Phase::index()`).
        phase: u8,
    },
    /// A charged message left this rank.
    MsgSend {
        /// Destination rank.
        peer: u32,
        /// Message tag (collective tags appear verbatim).
        tag: u32,
        /// Payload wire bytes.
        bytes: u64,
    },
    /// A message was accepted by this rank's receive path.
    MsgRecv {
        /// Source rank.
        peer: u32,
        /// Message tag.
        tag: u32,
        /// Payload wire bytes.
        bytes: u64,
    },
    /// The communication-buffer pool missed and allocated fresh storage.
    PoolAlloc {
        /// Freshly allocated bytes.
        bytes: u64,
    },
    /// A distributed checkpoint (gather + replicate) started.
    CheckpointBegin {
        /// Solver cycle being checkpointed (1-based, the cycle count
        /// completed so far).
        cycle: u64,
    },
    /// The checkpoint finished.
    CheckpointEnd {
        /// Solver cycle being checkpointed.
        cycle: u64,
    },
    /// This rank entered a recovery epoch (fault rollback + schedule
    /// rebuild).
    RecoveryBegin {
        /// The recovery epoch being entered.
        epoch: u32,
    },
    /// Recovery finished; normal cycling resumes in the new epoch.
    RecoveryEnd {
        /// The recovery epoch that was entered.
        epoch: u32,
    },
    /// A planned mid-run repartition (checkpoint + epoch bump + rebuild
    /// against a new partition plan + restore) started on this rank.
    RepartitionBegin {
        /// Committed-cycle boundary the repartition runs at.
        cycle: u64,
    },
    /// The repartition finished; cycling resumes on the new layout.
    RepartitionEnd {
        /// Committed-cycle boundary the repartition ran at.
        cycle: u64,
    },
    /// The health guard agreed on a non-healthy verdict for a cycle.
    GuardVerdict {
        /// Cycle the verdict applies to (0-based).
        cycle: u64,
        /// Verdict severity (`HealthVerdict::severity()`).
        severity: u8,
    },
    /// The CFL controller changed the CFL in force (backoff or re-ramp).
    /// Values travel as raw bits so recording never formats a float.
    CflChange {
        /// `f64::to_bits` of the CFL before the change.
        from_bits: u64,
        /// `f64::to_bits` of the CFL after the change.
        to_bits: u64,
    },
}

/// Whether an [`Event`] opens a span, closes one, or stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    Begin,
    End,
    Instant,
}

/// The fixed columns of an [`Event`]'s row in the vocabulary table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventRow {
    /// Wire kind, kebab-case (`"msg-send"`).
    pub kind: &'static str,
    /// Display name; a begin/end pair shares it (`"checkpoint"`).
    pub name: &'static str,
    /// Chrome `trace_event` category.
    pub cat: &'static str,
    pub shape: Shape,
}

/// The vocabulary, written once: per variant its wire kind, display
/// name, Chrome category, shape and fields (wire field names are the
/// Rust field names). Expands to the only two variant-by-variant
/// matches over [`Event`] that any text form needs: [`crate::wire`]
/// writes `kind` and the fields, the Chrome export writes
/// `name`/`cat`/`shape` with the fields as `args`, and the summary table
/// pairs spans by `name`.
macro_rules! vocabulary {
    ($($variant:ident $kind:literal $name:literal $cat:literal $shape:ident { $($field:ident),+ })+) => {
        impl Event {
            /// Encode direction: hand `f` this event's table row and its
            /// named integer fields in wire order. A field named
            /// `*_bits` carries an `f64::to_bits` payload.
            pub(crate) fn describe<R>(
                &self,
                f: impl FnOnce(EventRow, &[(&'static str, u64)]) -> R,
            ) -> R {
                match *self {
                    $(Event::$variant { $($field),+ } => f(
                        EventRow { kind: $kind, name: $name, cat: $cat, shape: Shape::$shape },
                        &[$((stringify!($field), u64::from($field))),+],
                    ),)+
                }
            }

            /// Decode direction: the event of wire kind `kind` whose
            /// fields `get` supplies by name. `None` for an unknown
            /// kind, a missing field, or a value beyond the field's
            /// integer width.
            pub(crate) fn from_fields(
                kind: &str,
                get: impl Fn(&str) -> Option<u64>,
            ) -> Option<Event> {
                match kind {
                    $($kind => Some(Event::$variant {
                        $($field: get(stringify!($field))?.try_into().ok()?),+
                    }),)+
                    _ => None,
                }
            }
        }
    };
}

vocabulary! {
    PhaseBegin       "phase-begin"       "phase"         "phase"    Begin   { phase }
    PhaseEnd         "phase-end"         "phase"         "phase"    End     { phase }
    MsgSend          "msg-send"          "send"          "msg"      Instant { peer, tag, bytes }
    MsgRecv          "msg-recv"          "recv"          "msg"      Instant { peer, tag, bytes }
    PoolAlloc        "pool-alloc"        "pool-alloc"    "alloc"    Instant { bytes }
    CheckpointBegin  "checkpoint-begin"  "checkpoint"    "ckpt"     Begin   { cycle }
    CheckpointEnd    "checkpoint-end"    "checkpoint"    "ckpt"     End     { cycle }
    RecoveryBegin    "recovery-begin"    "recovery"      "recovery" Begin   { epoch }
    RecoveryEnd      "recovery-end"      "recovery"      "recovery" End     { epoch }
    RepartitionBegin "repartition-begin" "repartition"   "repart"   Begin   { cycle }
    RepartitionEnd   "repartition-end"   "repartition"   "repart"   End     { cycle }
    GuardVerdict     "guard-verdict"     "guard-verdict" "guard"    Instant { cycle, severity }
    CflChange        "cfl-change"        "cfl-change"    "guard"    Instant { from_bits, to_bits }
}

/// An [`Event`] stamped with the lane-local deterministic clock
/// (nanoseconds; see [`crate::ctx`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    /// Nanoseconds on the recording lane's deterministic clock.
    pub ts_ns: u64,
    /// The event.
    pub ev: Event,
}

/// An event sink. Implementations must not allocate in
/// [`Tracer::record`] — it sits on the solver's steady-state hot path.
pub trait Tracer: Send {
    /// Whether recording is live (lets emit sites skip argument
    /// marshalling; [`NullTracer`] returns `false`).
    fn enabled(&self) -> bool;

    /// Record one stamped event. Must be allocation-free.
    fn record(&mut self, ts_ns: u64, ev: Event);

    /// Events discarded because the sink was full (drop-oldest policy).
    fn dropped(&self) -> u64;

    /// The retained events in recording order. Allocates — export path
    /// only.
    fn snapshot(&self) -> Vec<Stamped>;

    /// Total events ever recorded (monotone between [`Tracer::rewind`]s;
    /// includes events the ring later overwrote).
    fn written(&self) -> u64 {
        0
    }

    /// Discard every event recorded after the first `to` (a position
    /// previously read from [`Tracer::written`]). Distributed recovery
    /// rewinds a lane to the checkpoint it rolls the state back to, so
    /// the retained trace is the **committed** timeline — work aborted
    /// at a thread-timing-dependent point never reaches the export.
    /// Cold path (recovery only); may allocate.
    fn rewind(&mut self, to: u64) {
        let _ = to;
    }
}

/// The default sink: records nothing, reports nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ts_ns: u64, _ev: Event) {}

    fn dropped(&self) -> u64 {
        0
    }

    fn snapshot(&self) -> Vec<Stamped> {
        Vec::new()
    }
}

/// Default [`RingTracer`] capacity (events). 64 Ki events × 32 bytes =
/// 2 MiB per lane — several smoke-mesh cycles of full-detail trace.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Fixed-capacity ring sink: the storage is allocated once at
/// construction and never grows, so recording is a slot store. When the
/// ring is full the **oldest** event is overwritten and
/// [`Tracer::dropped`] counts the loss — a long run keeps its most
/// recent window, which is the one a post-mortem wants.
#[derive(Debug)]
pub struct RingTracer {
    buf: Vec<Stamped>,
    cap: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    dropped: u64,
    /// Total events ever recorded (monotone between rewinds).
    written: u64,
}

impl RingTracer {
    /// A ring retaining at most `capacity` events (min 1). Allocates its
    /// full storage up front.
    pub fn new(capacity: usize) -> RingTracer {
        let cap = capacity.max(1);
        RingTracer {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
            written: 0,
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

impl Default for RingTracer {
    fn default() -> RingTracer {
        RingTracer::new(DEFAULT_RING_CAPACITY)
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ts_ns: u64, ev: Event) {
        let s = Stamped { ts_ns, ev };
        self.written += 1;
        if self.buf.len() < self.cap {
            // Below capacity: push into the pre-reserved storage (no
            // reallocation — `cap` was reserved at construction).
            self.buf.push(s);
        } else {
            self.buf[self.head] = s;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn snapshot(&self) -> Vec<Stamped> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn written(&self) -> u64 {
        self.written
    }

    fn rewind(&mut self, to: u64) {
        let discard = self.written.saturating_sub(to);
        if discard == 0 {
            return;
        }
        self.written = to;
        if discard as usize >= self.buf.len() {
            self.buf.clear();
            self.head = 0;
            return;
        }
        // Straighten the ring, drop the `discard` newest events, and
        // restart un-wrapped. Cold path; `snapshot` stays within one
        // extra allocation.
        let keep = self.buf.len() - discard as usize;
        let mut straight = self.snapshot();
        straight.truncate(keep);
        self.buf.clear();
        self.buf.extend_from_slice(&straight);
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_records_nothing() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        t.record(1, Event::PhaseBegin { phase: 0 });
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut t = RingTracer::new(3);
        assert!(t.is_empty());
        for k in 0..5u64 {
            t.record(k, Event::PoolAlloc { bytes: k });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.capacity(), 3);
        assert_eq!(t.dropped(), 2);
        let got: Vec<u64> = t.snapshot().iter().map(|s| s.ts_ns).collect();
        assert_eq!(got, vec![2, 3, 4], "drop-oldest keeps the newest window");
    }

    #[test]
    fn ring_does_not_reallocate_when_full() {
        let mut t = RingTracer::new(8);
        let ptr = t.buf.as_ptr();
        for k in 0..100u64 {
            t.record(
                k,
                Event::MsgSend {
                    peer: 1,
                    tag: 2,
                    bytes: k,
                },
            );
        }
        assert_eq!(t.buf.as_ptr(), ptr, "ring storage must never move");
        assert_eq!(t.dropped(), 92);
    }

    #[test]
    fn rewind_discards_events_past_the_mark() {
        let mut t = RingTracer::new(4);
        for k in 0..3u64 {
            t.record(k, Event::PoolAlloc { bytes: k });
        }
        let mark = t.written();
        for k in 3..6u64 {
            t.record(k, Event::PoolAlloc { bytes: k });
        }
        assert_eq!(t.written(), 6);
        t.rewind(mark);
        assert_eq!(t.written(), 3);
        let got: Vec<u64> = t.snapshot().iter().map(|s| s.ts_ns).collect();
        // The ring wrapped (cap 4, 6 recorded) so events 0 and 1 were
        // overwritten; events past the mark are discarded, leaving the
        // surviving tail of the first 3.
        assert_eq!(got, vec![2]);
        // Recording resumes cleanly after a rewind.
        t.record(9, Event::PoolAlloc { bytes: 9 });
        let got: Vec<u64> = t.snapshot().iter().map(|s| s.ts_ns).collect();
        assert_eq!(got, vec![2, 9]);
        assert_eq!(t.written(), 4);
    }

    #[test]
    fn rewind_to_zero_clears_everything() {
        let mut t = RingTracer::new(8);
        for k in 0..5u64 {
            t.record(k, Event::PhaseBegin { phase: 0 });
        }
        t.rewind(0);
        assert!(t.is_empty());
        assert_eq!(t.written(), 0);
    }

    #[test]
    fn snapshot_preserves_recording_order_before_wrap() {
        let mut t = RingTracer::new(10);
        t.record(5, Event::RecoveryBegin { epoch: 1 });
        t.record(9, Event::RecoveryEnd { epoch: 1 });
        let s = t.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].ev, Event::RecoveryBegin { epoch: 1 });
        assert_eq!(s[1].ts_ns, 9);
    }
}
