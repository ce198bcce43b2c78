//! Shared-memory halo windows for the hybrid (threads-as-ranks) backend.
//!
//! A [`Window`] is one directed, single-producer single-consumer stream
//! `(src, dst, tag)`: the writer packs its SoA send region straight into
//! the window's buffer and *publishes* it by bumping an epoch counter;
//! the reader *consumes* it in place (no intermediate message copy) and
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
//! exchanges (SPMD), and within each exchange publishes all its sends
//! before consuming any of its receives. A publish can only block on a
//! peer that has not yet finished the *previous* exchange on that
//! stream, and a consume only on a peer that has not yet reached the
//! *current* one — so every wait points at a peer strictly earlier in
//! the program, and the least-progressed rank is always runnable.
//!
//! Windows carry every schedule record stream of a fault-free run —
//! halo exchanges, inter-grid transfers and the set-up degree scatter,
//! all through [`crate::Rank::publish_f64`] / [`crate::Rank::consume_f64`],
//! across mid-run migrations too (an epoch bump shifts every tag, so a
//! rebuilt schedule gets fresh windows); the inspector's index messages,
//! collectives, checkpoints, and every fault-injected run stay on the
//! modeled message channels (fault injection acts on the modeled wire,
//! which a shared-memory load bypasses by construction).

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

/// One directed SPSC stream `(src, dst, tag)`. See the module docs for
/// the ownership protocol.
pub struct Window {
    /// Epochs published by the writer; bumped with `Release` after the
    /// buffer is filled.
    published: AtomicU64,
    /// Epochs consumed by the reader; bumped with `Release` after the
    /// buffer is read.
    consumed: AtomicU64,
    /// The shared pack buffer. Exclusively owned by exactly one side in
    /// every state (see module docs), so the `UnsafeCell` access is
    /// data-race free under the counter protocol.
    buf: UnsafeCell<Vec<f64>>,
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
            buf: UnsafeCell::new(Vec::new()),
            timeout,
        }
    }

    /// Spin (with escalating yields) until `ready` holds, or report the
    /// wedge after the window's timeout. `side` labels which side
    /// stalled; `epoch` is the epoch it was trying to advance past.
    fn wait(&self, ready: impl Fn() -> bool, side: &'static str, epoch: u64) -> Result<(), Wedge> {
        let mut spins = 0u32;
        let mut deadline: Option<Instant> = None;
        while !ready() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
                let now = Instant::now();
                match deadline {
                    None => deadline = Some(now + self.timeout),
                    Some(d) => {
                        if now >= d {
                            return Err(Wedge {
                                side,
                                epoch,
                                timeout_ms: self.timeout.as_millis() as u64,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Writer side: wait for the previous epoch to be consumed, let
    /// `fill` pack the (cleared) buffer, and publish the new epoch.
    /// Returns the published length, or the wedge if the consumer never
    /// freed the buffer within the window's timeout (`fill` does not
    /// run in that case).
    pub fn publish_with<F: FnOnce(&mut Vec<f64>)>(&self, fill: F) -> Result<usize, Wedge> {
        let p = self.published.load(Ordering::Relaxed);
        self.wait(
            || self.consumed.load(Ordering::Acquire) == p,
            "publisher",
            p,
        )?;
        // SAFETY: consumed == published, so the writer exclusively owns
        // the buffer until the Release store below.
        let buf = unsafe { &mut *self.buf.get() };
        buf.clear();
        fill(buf);
        let len = buf.len();
        self.published.store(p + 1, Ordering::Release);
        Ok(len)
    }

    /// Reader side: wait for an unconsumed epoch, hand the buffer to
    /// `read`, and return it to the writer. Reports the wedge if no
    /// epoch arrives within the window's timeout.
    pub fn consume_with<R, F: FnOnce(&[f64]) -> R>(&self, read: F) -> Result<R, Wedge> {
        let c = self.consumed.load(Ordering::Relaxed);
        self.wait(|| self.published.load(Ordering::Acquire) > c, "consumer", c)?;
        // SAFETY: published > consumed, so the reader exclusively owns
        // the buffer until the Release store below.
        let buf = unsafe { &*self.buf.get() };
        let r = read(buf);
        self.consumed.store(c + 1, Ordering::Release);
        Ok(r)
    }

    /// Epochs published so far (diagnostics only).
    pub fn epochs(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }
}

/// Process-wide registry of windows, shared by every rank thread of one
/// hybrid run. Streams are created on first use under a mutex (setup
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

    #[test]
    fn single_epoch_round_trip() {
        let w = Window::new(DEFAULT_WEDGE_TIMEOUT);
        let n = w
            .publish_with(|b| b.extend_from_slice(&[1.0, 2.0, 3.0]))
            .expect("free buffer");
        assert_eq!(n, 3);
        let got = w.consume_with(|b| b.to_vec()).expect("published epoch");
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
        assert_eq!(w.epochs(), 1);
    }

    #[test]
    fn wedged_waits_report_instead_of_panicking() {
        let w = Window::new(Duration::from_millis(30));
        // Consume with no publisher: the reader side wedges.
        let wedge = w.consume_with(|b| b.len()).expect_err("nothing published");
        assert_eq!(wedge.side, "consumer");
        assert_eq!(wedge.epoch, 0);
        assert!(wedge.timeout_ms >= 30);
        // Publish twice with no consumer: the second publish wedges
        // (capacity-1 window) and `fill` must not have run.
        w.publish_with(|b| b.push(1.0))
            .expect("first epoch is free");
        let mut filled = false;
        let wedge = w
            .publish_with(|b| {
                filled = true;
                b.push(2.0);
            })
            .expect_err("buffer still owned by the reader");
        assert_eq!(wedge.side, "publisher");
        assert_eq!(wedge.epoch, 1);
        assert!(!filled, "fill must not run on a wedged publish");
        // The window stays usable: consuming frees the buffer again.
        assert_eq!(w.consume_with(|b| b.to_vec()).expect("epoch 0"), vec![1.0]);
        assert_eq!(w.publish_with(|b| b.push(2.0)).expect("freed"), 1);
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
                r.consume_with(|buf| {
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
            w.publish_with(|buf| buf.resize(len, e as f64))
                .expect("no wedge under live traffic");
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
                        w.publish_with(|b| b.resize(5, stamp)).expect("no wedge");
                    }
                    for (peer, w) in &ins {
                        let want = (peer * 1000 + me * 10) as f64 + e as f64 * 0.001;
                        w.consume_with(|b| {
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
