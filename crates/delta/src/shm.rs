//! Shared-memory record windows: the machine's one transport.
//!
//! A [`Window`] is one directed, single-producer single-consumer stream
//! `(src, dst, key)`: the writer packs its record straight into the
//! window's buffer and *publishes* it by bumping an epoch counter; the
//! reader *consumes* it in place (no intermediate message copy) and
//! bumps its own counter to hand the buffer back. The two monotonic
//! counters are the entire protocol — a capacity-1 seqlock where
//! `published` and `consumed` double as the epoch stamps:
//!
//! ```text
//! writer owns the buffer  iff  consumed == published
//! reader owns the buffer  iff  published == consumed + 1
//! ```
//!
//! The writer's `Release` store of `published` makes the packed data
//! visible to the reader's `Acquire` load; the reader's `Release` store
//! of `consumed` returns the (possibly re-grown) buffer to the writer's
//! next `Acquire` load. No torn reads are possible across epochs because
//! ownership is exclusive in every reachable state.
//!
//! Deadlock freedom: every rank executes the *same* global sequence of
//! exchanges (SPMD), and within each exchange publishes all its records
//! before consuming any. A checkpoint or a collective is two such
//! exchanges: the members publish their parts and then the root
//! consumes them all (fan-in); the root publishes the result to all and
//! then the members consume it (fan-out). A publish can only block on a
//! peer that has not yet finished the *previous* exchange on that
//! window, and a consume only on a peer that has not yet reached the
//! *current* one — so every wait points at a peer strictly earlier in
//! the program, and the least-progressed rank is always runnable
//! (`tests/shm_model.rs` checks both shapes exhaustively).
//!
//! One [`WindowRegistry`] per machine carries every record of every run,
//! under a fault plan too. Schedule streams — halo exchanges, inter-grid
//! transfers, the set-up degree scatter, checkpoint shipping and the
//! replica hand-off — each have a window keyed by their tag
//! ([`crate::Rank::publish_f64`] / [`crate::Rank::consume_f64`]). Control
//! traffic — collectives and the inspector's request lists — shares one
//! window per directed pair and epoch, keyed
//! [`crate::COLLECTIVE_TAG_BASE`] + epoch. Each [`Record`] carries a
//! stamp, `{seq, crc}`, ahead of its payload, numbered per window; the
//! fault plan may drop, duplicate, corrupt or delay a record at publish,
//! and the consumer checks sequence and checksum. No epoch stamp is
//! needed: a recovery or a migration shifts every schedule tag and moves
//! the control key, so the new epoch's traffic opens fresh windows, the
//! old ones are simply abandoned, and a faster peer's next-epoch records
//! wait in their own windows. A duplicate adds no wait: the consumer
//! sieves the one record twice. A wait polls the rank's inbox of
//! failure notices (the `poll` hook of [`Window::wait_free`] /
//! [`Window::wait_ready`]), so a peer's death, abort or panic unwinds a
//! blocked rank; a dropped record is caught by the plan's bounded
//! timeout.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default for how long a window wait spins before declaring the run
/// wedged. Far beyond any legitimate kernel; a trip means a protocol
/// bug (mismatched publish/consume sequence), and a typed error beats a
/// silent hang.
pub const DEFAULT_WEDGE_TIMEOUT: Duration = Duration::from_secs(30);

/// A window wait expired: which side stalled and at which epoch. The
/// caller (who knows the stream identity) lifts this into
/// [`crate::DeltaError::WindowWedged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wedge {
    /// `"publisher"` (stalled waiting on the consumer) or `"consumer"`
    /// (stalled waiting on the publisher).
    pub side: &'static str,
    /// The epoch the stalled side was trying to advance past.
    pub epoch: u64,
    /// The timeout that expired, in milliseconds.
    pub timeout_ms: u64,
}

/// One window record: its stamp — its position on the window and the
/// checksum of its payload — ahead of the payload itself.
#[derive(Debug, Default)]
pub struct Record {
    /// Position on the window within the current epoch.
    pub seq: u64,
    /// Checksum of `data` as packed.
    pub crc: u64,
    /// The fault plan duplicated the record: the consumer sieves it twice.
    pub dup: bool,
    /// The payload.
    pub data: Vec<f64>,
}

/// One directed SPSC stream `(src, dst, tag)`. See the module docs for
/// the ownership protocol. Each side first waits for ownership
/// ([`Window::wait_free`] / [`Window::wait_ready`]), then acts on the
/// record ([`Window::publish_with`] / [`Window::consume_with`]).
pub struct Window {
    /// Epochs published by the writer; bumped with `Release` after the
    /// record is filled.
    published: AtomicU64,
    /// Epochs consumed by the reader; bumped with `Release` after the
    /// record is read.
    consumed: AtomicU64,
    /// The shared record. Exclusively owned by exactly one side in
    /// every state (see module docs), so the `UnsafeCell` access is
    /// data-race free under the counter protocol.
    buf: UnsafeCell<Record>,
    /// How long a wait may spin before reporting a wedge.
    timeout: Duration,
}

// SAFETY: the counter protocol above guarantees exclusive access to
// `buf` — the writer touches it only when `consumed == published`, the
// reader only when `published > consumed`, and the counters synchronize
// via Release/Acquire pairs.
unsafe impl Sync for Window {}

impl Window {
    fn new(timeout: Duration) -> Window {
        Window {
            published: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            buf: UnsafeCell::new(Record::default()),
            timeout,
        }
    }

    /// Spin (with escalating yields) until `ready` holds, or report the
    /// wedge after the window's timeout. Every yield hands `poll` the
    /// time waited so far; it may unwind to abandon the wait. `side`
    /// labels which side stalled; `epoch` is the epoch it was trying to
    /// advance past.
    fn wait(
        &self,
        ready: impl Fn() -> bool,
        mut poll: impl FnMut(Duration),
        side: &'static str,
        epoch: u64,
    ) -> Result<(), Wedge> {
        let mut spins = 0u32;
        let mut start: Option<Instant> = None;
        while !ready() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
                continue;
            }
            std::thread::yield_now();
            let now = Instant::now();
            let waited = now - *start.get_or_insert(now);
            if waited >= self.timeout {
                return Err(Wedge {
                    side,
                    epoch,
                    timeout_ms: self.timeout.as_millis() as u64,
                });
            }
            poll(waited);
        }
        Ok(())
    }

    /// Writer side: wait until the consumer has freed the record of the
    /// previous epoch, or report the wedge after the window's timeout.
    pub fn wait_free(&self, poll: impl FnMut(Duration)) -> Result<(), Wedge> {
        let p = self.published.load(Ordering::Relaxed);
        self.wait(
            || self.consumed.load(Ordering::Acquire) == p,
            poll,
            "publisher",
            p,
        )
    }

    /// Writer side, once [`Window::wait_free`] returned: let `fill` pack
    /// the cleared record and publish it as the next epoch — unless
    /// `fill` returns false (the record is lost on the wire, and the
    /// writer keeps the buffer).
    pub fn publish_with(&self, fill: impl FnOnce(&mut Record) -> bool) {
        let p = self.published.load(Ordering::Relaxed);
        assert_eq!(
            self.consumed.load(Ordering::Acquire),
            p,
            "publish into a window its consumer still owns"
        );
        // SAFETY: consumed == published, so the writer exclusively owns
        // the record until the Release store below.
        let rec = unsafe { &mut *self.buf.get() };
        rec.data.clear();
        rec.dup = false;
        if fill(rec) {
            self.published.store(p + 1, Ordering::Release);
        }
    }

    /// Reader side: wait for an unconsumed epoch, or report the wedge
    /// after the window's timeout.
    pub fn wait_ready(&self, poll: impl FnMut(Duration)) -> Result<(), Wedge> {
        let c = self.consumed.load(Ordering::Relaxed);
        self.wait(
            || self.published.load(Ordering::Acquire) > c,
            poll,
            "consumer",
            c,
        )
    }

    /// Reader side, once [`Window::wait_ready`] returned: hand the
    /// record to `read` and return it to the writer. A `read` that
    /// unwinds leaves the record unconsumed.
    pub fn consume_with<R>(&self, read: impl FnOnce(&Record) -> R) -> R {
        let c = self.consumed.load(Ordering::Relaxed);
        assert!(
            self.published.load(Ordering::Acquire) > c,
            "consume from a window with nothing published"
        );
        // SAFETY: published > consumed, so the reader exclusively owns
        // the record until the Release store below.
        let r = read(unsafe { &*self.buf.get() });
        self.consumed.store(c + 1, Ordering::Release);
        r
    }

    /// Epochs published so far (diagnostics only).
    pub fn epochs(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }
}

/// Registry of windows, shared by every rank thread of one machine. Streams are created on first use under a mutex (setup
/// cost only); the steady state goes through each rank's local
/// `Arc<Window>` cache and never touches the lock.
pub struct WindowRegistry {
    nranks: usize,
    timeout: Duration,
    map: Mutex<HashMap<(usize, usize, u32), Arc<Window>>>,
}

impl WindowRegistry {
    pub fn new(nranks: usize) -> Arc<WindowRegistry> {
        WindowRegistry::with_timeout(nranks, DEFAULT_WEDGE_TIMEOUT)
    }

    /// A registry whose windows declare a wedge after `timeout` instead
    /// of the default 30 s — test harnesses and deadline-bounded service
    /// runs shrink it so a wedged run fails fast.
    pub fn with_timeout(nranks: usize, timeout: Duration) -> Arc<WindowRegistry> {
        Arc::new(WindowRegistry {
            nranks,
            timeout,
            map: Mutex::new(HashMap::new()),
        })
    }

    /// Ranks this registry serves.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Get or create the window for directed stream `(src, dst, tag)`.
    pub fn stream(&self, src: usize, dst: usize, tag: u32) -> Arc<Window> {
        assert!(src < self.nranks && dst < self.nranks && src != dst);
        let mut map = match self.map.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        map.entry((src, dst, tag))
            .or_insert_with(|| Arc::new(Window::new(self.timeout)))
            .clone()
    }

    /// Number of distinct streams created (diagnostics only).
    pub fn streams(&self) -> usize {
        match self.map.lock() {
            Ok(g) => g.len(),
            Err(p) => p.into_inner().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Block for ownership, then publish `data` as one record.
    fn publish(w: &Window, data: &[f64]) -> Result<(), Wedge> {
        w.wait_free(|_| {})?;
        w.publish_with(|r| {
            r.data.extend_from_slice(data);
            true
        });
        Ok(())
    }

    /// Block for a record, then read it through `read`.
    fn consume<R>(w: &Window, read: impl FnOnce(&[f64]) -> R) -> Result<R, Wedge> {
        w.wait_ready(|_| {})?;
        Ok(w.consume_with(|r| read(&r.data)))
    }

    #[test]
    fn single_epoch_round_trip() {
        let w = Window::new(DEFAULT_WEDGE_TIMEOUT);
        publish(&w, &[1.0, 2.0, 3.0]).expect("free buffer");
        let got = consume(&w, <[f64]>::to_vec).expect("published epoch");
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
        assert_eq!(w.epochs(), 1);
    }

    #[test]
    fn wedged_waits_report_instead_of_panicking() {
        let w = Window::new(Duration::from_millis(30));
        // Consume with no publisher: the reader side wedges.
        let wedge = consume(&w, <[f64]>::len).expect_err("nothing published");
        assert_eq!(wedge.side, "consumer");
        assert_eq!(wedge.epoch, 0);
        assert!(wedge.timeout_ms >= 30);
        // Publish twice with no consumer: the second publish wedges
        // (capacity-1 window) before it can touch the record.
        publish(&w, &[1.0]).expect("first epoch is free");
        let wedge = publish(&w, &[2.0]).expect_err("buffer still owned by the reader");
        assert_eq!(wedge.side, "publisher");
        assert_eq!(wedge.epoch, 1);
        // The window stays usable: consuming frees the buffer again.
        assert_eq!(consume(&w, <[f64]>::to_vec).expect("epoch 0"), vec![1.0]);
        publish(&w, &[2.0]).expect("freed");
    }

    #[test]
    fn a_wait_polls_and_a_polled_unwind_abandons_it() {
        let w = Window::new(DEFAULT_WEDGE_TIMEOUT);
        let mut polls = 0;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.wait_ready(|_| {
                polls += 1;
                if polls == 3 {
                    std::panic::panic_any("notice");
                }
            })
        }));
        assert!(unwound.is_err(), "the poll's unwind leaves the wait");
        assert_eq!(polls, 3);
        // A record `fill` declines is lost: nothing is published and the
        // writer keeps the buffer for the next epoch.
        w.publish_with(|r| {
            r.data.push(1.0);
            false
        });
        assert_eq!(w.epochs(), 0);
        publish(&w, &[2.0]).expect("still free");
        assert_eq!(consume(&w, <[f64]>::to_vec).expect("epoch 0"), vec![2.0]);
    }

    #[test]
    fn registry_returns_same_stream() {
        let reg = WindowRegistry::new(4);
        let a = reg.stream(0, 1, 7);
        let b = reg.stream(0, 1, 7);
        assert!(Arc::ptr_eq(&a, &b));
        let c = reg.stream(1, 0, 7);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.streams(), 2);
    }

    /// The torn-read model test (loom is not available in this tree, so
    /// this is a high-pressure schedule-randomizing stress instead): a
    /// writer publishes thousands of epochs whose payloads are
    /// epoch-patterned with varying lengths; the reader asserts every
    /// observed buffer is internally uniform (no mix of two epochs'
    /// values) and that epochs arrive exactly once, in order. Any torn
    /// read or missed Release/Acquire edge shows up as a mixed or
    /// out-of-order payload.
    #[test]
    fn stress_no_torn_reads_across_epochs() {
        const EPOCHS: u64 = 20_000;
        let w = Arc::new(Window::new(DEFAULT_WEDGE_TIMEOUT));
        let r = w.clone();
        let reader = thread::spawn(move || {
            for e in 0..EPOCHS {
                consume(&r, |buf| {
                    let want = e as f64;
                    let len = (e % 97 + 1) as usize;
                    assert_eq!(buf.len(), len, "epoch {e}: wrong length");
                    for (i, &v) in buf.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "epoch {e}: torn read at element {i}"
                        );
                    }
                })
                .expect("no wedge under live traffic");
            }
        });
        for e in 0..EPOCHS {
            let len = (e % 97 + 1) as usize;
            w.wait_free(|_| {}).expect("no wedge under live traffic");
            w.publish_with(|r| {
                r.data.resize(len, e as f64);
                true
            });
        }
        reader.join().expect("reader panicked");
    }

    /// Many concurrent streams between many thread pairs: each directed
    /// pair runs its own epoch sequence; cross-stream interference would
    /// corrupt the per-stream pattern.
    #[test]
    fn stress_many_streams_stay_independent() {
        const EPOCHS: u64 = 2_000;
        const N: usize = 4;
        let reg = WindowRegistry::new(N);
        let mut handles = Vec::new();
        for me in 0..N {
            let reg = reg.clone();
            handles.push(thread::spawn(move || {
                // Publish to every peer, then consume from every peer,
                // per epoch — the hybrid exchange shape.
                let outs: Vec<_> = (0..N)
                    .filter(|&p| p != me)
                    .map(|p| (p, reg.stream(me, p, 0)))
                    .collect();
                let ins: Vec<_> = (0..N)
                    .filter(|&p| p != me)
                    .map(|p| (p, reg.stream(p, me, 0)))
                    .collect();
                for e in 0..EPOCHS {
                    for (peer, w) in &outs {
                        let stamp = (me * 1000 + peer * 10) as f64 + e as f64 * 0.001;
                        publish(w, &[stamp; 5]).expect("no wedge");
                    }
                    for (peer, w) in &ins {
                        let want = (peer * 1000 + me * 10) as f64 + e as f64 * 0.001;
                        consume(w, |b| {
                            assert_eq!(b.len(), 5);
                            for &v in b.iter() {
                                assert_eq!(v.to_bits(), want.to_bits());
                            }
                        })
                        .expect("no wedge");
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("stream worker panicked");
        }
    }
}
