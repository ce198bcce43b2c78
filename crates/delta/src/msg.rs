//! Failure notices, per-rank inboxes, record checksums and per-rank
//! accounting counters.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// A control notice between ranks. Records carry data on the windows;
/// notices carry failures, into the receiver's [`Inbox`], which every
/// window wait polls. `Poison` is posted by `run_spmd` when a rank
/// panics, so peers blocked in a wait fail fast instead of deadlocking.
/// `Dead` and `Abort` are the recoverable counterparts: a rank killed by
/// the fault plan announces `Dead`, and a rank entering a recovery epoch
/// announces `Abort` so peers join it instead of timing out one by one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Notice {
    /// Rank `src` panicked.
    Poison { src: usize },
    /// Rank `src` was killed by the fault plan and will never speak
    /// again; survivors should recover into epoch `epoch`.
    Dead { src: usize, epoch: u32 },
    /// A peer detected a failure and entered recovery epoch `epoch`;
    /// `dead` is its view of the dead rank set.
    Abort { epoch: u32, dead: Vec<u32> },
}

/// One rank's queue of [`Notice`]s. Peers post; the owner (or the
/// replica that adopted it) takes them, oldest first, while it waits on
/// a window. The flag lets a wait poll without taking the lock: it is
/// only a hint, written under the lock, so a stale `false` defers a
/// notice to the next poll and never loses it.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    pending: AtomicBool,
    queue: Mutex<VecDeque<Notice>>,
}

impl Inbox {
    /// Queue `n` for the owner.
    pub(crate) fn post(&self, n: Notice) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.push_back(n);
        self.pending.store(true, Ordering::Release);
    }

    /// The oldest queued notice, if any. One at a time: a notice that
    /// unwinds its reader leaves the rest queued for the next wait.
    pub(crate) fn take(&self) -> Option<Notice> {
        if !self.pending.load(Ordering::Acquire) {
            return None;
        }
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let n = q.pop_front();
        if q.is_empty() {
            self.pending.store(false, Ordering::Release);
        }
        n
    }
}

/// Word-wise FNV-1a checksum of a record's payload. Each word (an
/// f64's bit pattern) is one xor-multiply step on one of four
/// interleaved lanes, and the length and the lanes are folded the same
/// way at the end. Every step is a bijection of the running hash (the
/// prime is odd), so any change confined to one word — every single-bit
/// flip included — is detected with certainty.
pub(crate) fn checksum_f64(v: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    let mut lanes = [OFFSET; 4];
    let mut quads = v.chunks_exact(4);
    for q in &mut quads {
        for (lane, &x) in lanes.iter_mut().zip(q) {
            *lane = step(*lane, x.to_bits());
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = step(*lane, x.to_bits());
    }
    lanes.into_iter().fold(step(OFFSET, v.len() as u64), step)
}

/// The corrupt fault on a record: flip the lowest bit of its first
/// word (nothing on an empty one).
pub(crate) fn corrupt_f64(v: &mut [f64]) {
    if let Some(x) = v.first_mut() {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }
}

/// Classification of traffic, so reports can separate intra-grid halo
/// exchange, inter-grid multigrid transfers (which the paper found to be
/// "a small fraction of the total communication costs"), the inspector's
/// preprocessing traffic, and collectives (residual monitoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommClass {
    Halo = 0,
    Transfer = 1,
    Inspector = 2,
    Collective = 3,
    /// Fault-recovery traffic: abort announcements, checkpoint
    /// redistribution to an adopting node.
    Recovery = 4,
}

pub const N_COMM_CLASSES: usize = 5;

/// Record and byte counts for one class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    pub messages: u64,
    pub bytes: u64,
}

impl CommStats {
    pub fn add(&mut self, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
    }

    pub fn merge(&mut self, o: &CommStats) {
        self.messages += o.messages;
        self.bytes += o.bytes;
    }
}

/// Everything one rank accumulated during a run.
#[derive(Debug, Clone, Default)]
pub struct RankCounters {
    /// Floating-point operations reported by the numerical kernels
    /// (op-count based, like the paper's Delta MFlops; §4.4 notes this is
    /// ~10% more conservative than the Cray hardware monitor).
    pub flops: f64,
    /// Sent-side traffic per communication class.
    pub sent: [CommStats; N_COMM_CLASSES],
    /// Sum over sent messages of the 2-D mesh hop distance to the
    /// destination (the Delta was a 16x32 wormhole-routed mesh; hop
    /// counts let the cost model price placement quality).
    pub hops: u64,
    /// Fresh communication storage (window-record and staging-buffer
    /// growth). A warmed-up exchange pattern must not grow this.
    pub comm_allocs: u64,
    /// Bytes freshly allocated for communication buffers.
    pub comm_alloc_bytes: u64,
    /// Injected delivery-delay ticks charged to this rank's sends; the
    /// cost model prices each tick as one network latency.
    pub fault_ticks: u64,
    /// Duplicated records discarded by sequence-number filtering.
    pub dup_discards: u64,
    /// Recovery epochs this rank entered.
    pub recoveries: u64,
}

impl RankCounters {
    pub fn record_send(&mut self, class: CommClass, bytes: u64) {
        self.sent[class as usize].add(bytes);
    }

    pub fn record_hops(&mut self, hops: u64) {
        self.hops += hops;
    }

    pub fn add_flops(&mut self, n: f64) {
        self.flops += n;
    }

    /// Total messages sent across classes.
    pub fn total_messages(&self) -> u64 {
        self.sent.iter().map(|s| s.messages).sum()
    }

    /// Total bytes sent across classes.
    pub fn total_bytes(&self) -> u64 {
        self.sent.iter().map(|s| s.bytes).sum()
    }

    /// Counters accumulated since an earlier snapshot (`self` must be the
    /// later measurement). Used to separate setup/inspector cost from the
    /// per-cycle cost in the Table-2 harness.
    pub fn delta_since(&self, earlier: &RankCounters) -> RankCounters {
        let mut out = RankCounters {
            flops: self.flops - earlier.flops,
            ..Default::default()
        };
        for k in 0..N_COMM_CLASSES {
            out.sent[k] = CommStats {
                messages: self.sent[k].messages - earlier.sent[k].messages,
                bytes: self.sent[k].bytes - earlier.sent[k].bytes,
            };
        }
        out.hops = self.hops - earlier.hops;
        out.comm_allocs = self.comm_allocs - earlier.comm_allocs;
        out.comm_alloc_bytes = self.comm_alloc_bytes - earlier.comm_alloc_bytes;
        out.fault_ticks = self.fault_ticks - earlier.fault_ticks;
        out.dup_discards = self.dup_discards - earlier.dup_discards;
        out.recoveries = self.recoveries - earlier.recoveries;
        out
    }

    /// Fold another rank's counters into this one. Used when a node hosts
    /// an adopted virtual rank: the machine-level cost of both instances
    /// is paid by the one physical node.
    pub fn merge(&mut self, o: &RankCounters) {
        self.flops += o.flops;
        for k in 0..N_COMM_CLASSES {
            self.sent[k].merge(&o.sent[k]);
        }
        self.hops += o.hops;
        self.comm_allocs += o.comm_allocs;
        self.comm_alloc_bytes += o.comm_alloc_bytes;
        self.fault_ticks += o.fault_ticks;
        self.dup_discards += o.dup_discards;
        self.recoveries += o.recoveries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_bit_flips() {
        let a = checksum_f64(&[1.0, 2.0, 3.0]);
        let mut flipped = vec![1.0f64, 2.0, 3.0];
        corrupt_f64(&mut flipped[1..]);
        assert_ne!(a, checksum_f64(&flipped));
        assert_eq!(a, checksum_f64(&[1.0, 2.0, 3.0]));
        // The corrupt fault misses an empty record: nothing to flip.
        let mut empty: [f64; 0] = [];
        corrupt_f64(&mut empty);
        assert_eq!(checksum_f64(&empty), checksum_f64(&[]));
    }

    #[test]
    fn checksum_contract_one_word_changes_lengths_and_order() {
        let f64s = checksum_f64;
        // Every bit of every word, over lengths that leave every
        // four-lane remainder.
        for n in 1..=9 {
            let base: Vec<f64> = (0..n).map(|i| 0.5 + 1.25 * i as f64).collect();
            for i in 0..n {
                for bit in 0..64 {
                    let mut v = base.clone();
                    v[i] = f64::from_bits(v[i].to_bits() ^ (1 << bit));
                    assert_ne!(f64s(&v), f64s(&base), "len {n} word {i} bit {bit}");
                }
            }
        }
        // Zero words still count.
        let (e, one, two) = (f64s(&[]), f64s(&[0.0]), f64s(&[0.0, 0.0]));
        assert!(e != one && e != two && one != two);
        // So does order, across lanes and within one.
        assert_ne!(f64s(&[1.0, 2.0, 3.0]), f64s(&[2.0, 1.0, 3.0]));
        assert_ne!(
            f64s(&[1.0, 0.0, 0.0, 0.0, 2.0]),
            f64s(&[2.0, 0.0, 0.0, 0.0, 1.0])
        );
        // Known answer: a change to the function must be deliberate.
        assert_eq!(f64s(&[1.0, -2.5, 0.1, 1e300, 0.0]), KNOWN_F64);
    }

    const KNOWN_F64: u64 = 0xbadc_805d_15c3_70dc;

    #[test]
    fn shm_inbox_hands_out_notices_oldest_first() {
        let inbox = Inbox::default();
        assert_eq!(inbox.take(), None);
        inbox.post(Notice::Dead { src: 1, epoch: 1 });
        inbox.post(Notice::Abort {
            epoch: 2,
            dead: vec![1],
        });
        assert_eq!(inbox.take(), Some(Notice::Dead { src: 1, epoch: 1 }));
        inbox.post(Notice::Poison { src: 3 });
        assert!(matches!(inbox.take(), Some(Notice::Abort { epoch: 2, .. })));
        assert_eq!(inbox.take(), Some(Notice::Poison { src: 3 }));
        assert_eq!(inbox.take(), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = RankCounters::default();
        c.record_send(CommClass::Halo, 100);
        c.record_send(CommClass::Halo, 50);
        c.record_send(CommClass::Transfer, 10);
        c.add_flops(1e6);
        assert_eq!(c.sent[CommClass::Halo as usize].messages, 2);
        assert_eq!(c.sent[CommClass::Halo as usize].bytes, 150);
        assert_eq!(c.total_messages(), 3);
        assert_eq!(c.total_bytes(), 160);
        assert_eq!(c.flops, 1e6);
    }
}
