//! Message payloads and per-rank accounting counters.

/// Typed message payload. The solver and the PARTI runtime only ever move
/// index lists (`U32`) and field data (`F64`); `Poison` is injected by
/// the SPMD driver when a rank panics, so peers blocked in a receive fail
/// fast instead of deadlocking. `Dead` and `Abort` are the recoverable
/// counterparts: a rank killed by the fault plan announces `Dead`, and a
/// rank entering a recovery epoch announces `Abort` so peers join it
/// instead of timing out one by one.
#[derive(Debug, Clone)]
pub enum Payload {
    F64(Vec<f64>),
    U32(Vec<u32>),
    Poison,
    /// The sender was killed by the fault plan and will never speak
    /// again; survivors should recover into epoch `epoch`.
    Dead {
        epoch: u32,
    },
    /// The sender detected a failure and entered recovery epoch `epoch`;
    /// `dead` is its view of the dead rank set.
    Abort {
        epoch: u32,
        dead: Vec<u32>,
    },
}

impl Payload {
    /// Wire size in bytes (what the cost model charges for).
    pub fn nbytes(&self) -> u64 {
        match self {
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U32(v) => 4 * v.len() as u64,
            Payload::Poison => 0,
            Payload::Dead { .. } => 4,
            Payload::Abort { dead, .. } => 4 + 4 * dead.len() as u64,
        }
    }

    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {}", other.kind()),
        }
    }

    pub fn into_u32(self) -> Vec<u32> {
        match self {
            Payload::U32(v) => v,
            other => panic!("expected U32 payload, got {}", other.kind()),
        }
    }

    /// Flip one payload bit — the corrupt fault, applied after the
    /// checksum was taken. An empty or control payload has no bit to
    /// flip: the fault misses.
    pub(crate) fn corrupt(&mut self) {
        match self {
            Payload::F64(v) => corrupt_f64(v),
            Payload::U32(v) => {
                if let Some(x) = v.first_mut() {
                    *x ^= 1;
                }
            }
            _ => {}
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Payload::F64(_) => "F64",
            Payload::U32(_) => "U32",
            Payload::Poison => "Poison",
            Payload::Dead { .. } => "Dead",
            Payload::Abort { .. } => "Abort",
        }
    }
}

/// Word-wise FNV-1a checksum over the payload bits; 0 for control
/// payloads (they are never corrupted — corruption models data-plane bit
/// errors). Each word (an f64's bit pattern, or a u32 widened to 64
/// bits) is one xor-multiply step on one of four interleaved lanes, and
/// the length and the lanes are folded the same way at the end. Every
/// step is a bijection of the running hash (the prime is odd), so any
/// change confined to one word — every single-bit flip included — is
/// detected with certainty.
pub fn checksum(payload: &Payload) -> u64 {
    match payload {
        Payload::F64(v) => checksum_f64(v),
        Payload::U32(v) => fnv_words(v, u64::from),
        _ => 0,
    }
}

/// [`checksum`] of an `f64` payload, for window records, which travel
/// outside a [`Payload`].
pub(crate) fn checksum_f64(v: &[f64]) -> u64 {
    fnv_words(v, f64::to_bits)
}

/// The corrupt fault on an `f64` payload: flip the lowest bit of its
/// first word (nothing on an empty one).
pub(crate) fn corrupt_f64(v: &mut [f64]) {
    if let Some(x) = v.first_mut() {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }
}

fn fnv_words<T: Copy>(v: &[T], word: impl Fn(T) -> u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    let mut lanes = [OFFSET; 4];
    let mut quads = v.chunks_exact(4);
    for q in &mut quads {
        for (lane, &x) in lanes.iter_mut().zip(q) {
            *lane = step(*lane, word(x));
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = step(*lane, word(x));
    }
    lanes.into_iter().fold(step(OFFSET, v.len() as u64), step)
}

/// An in-flight message. Data messages carry a recovery `epoch`, a
/// per-`(src, tag)` stream sequence number, and a payload checksum so the
/// receiver can detect stale, duplicated, lost, or corrupted traffic.
#[derive(Debug)]
pub struct Message {
    pub src: usize,
    pub tag: u32,
    /// Recovery epoch the sender was in; receivers discard older epochs.
    pub epoch: u32,
    /// Position on the directed `(src, tag)` stream within this epoch.
    pub seq: u64,
    /// [`checksum`] of the payload at send time (0 for control payloads).
    pub crc: u64,
    pub payload: Payload,
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

/// Message/byte counts for one class.
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
    /// Number of barrier/collective synchronizations joined.
    pub syncs: u64,
    /// Sum over sent messages of the 2-D mesh hop distance to the
    /// destination (the Delta was a 16x32 wormhole-routed mesh; hop
    /// counts let the cost model price placement quality).
    pub hops: u64,
    /// Fresh communication storage (pool misses and window-record
    /// growth). A warmed-up exchange pattern must not grow this.
    pub comm_allocs: u64,
    /// Bytes freshly allocated for communication buffers.
    pub comm_alloc_bytes: u64,
    /// Injected delivery-delay ticks charged to this rank's sends; the
    /// cost model prices each tick as one network latency.
    pub fault_ticks: u64,
    /// Duplicated messages discarded by sequence-number filtering.
    pub dup_discards: u64,
    /// Stale messages (previous recovery epoch) discarded on receive.
    pub stale_discards: u64,
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
        out.syncs = self.syncs - earlier.syncs;
        out.hops = self.hops - earlier.hops;
        out.comm_allocs = self.comm_allocs - earlier.comm_allocs;
        out.comm_alloc_bytes = self.comm_alloc_bytes - earlier.comm_alloc_bytes;
        out.fault_ticks = self.fault_ticks - earlier.fault_ticks;
        out.dup_discards = self.dup_discards - earlier.dup_discards;
        out.stale_discards = self.stale_discards - earlier.stale_discards;
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
        self.syncs += o.syncs;
        self.hops += o.hops;
        self.comm_allocs += o.comm_allocs;
        self.comm_alloc_bytes += o.comm_alloc_bytes;
        self.fault_ticks += o.fault_ticks;
        self.dup_discards += o.dup_discards;
        self.stale_discards += o.stale_discards;
        self.recoveries += o.recoveries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::F64(vec![0.0; 10]).nbytes(), 80);
        assert_eq!(Payload::U32(vec![0; 10]).nbytes(), 40);
        assert_eq!(Payload::Dead { epoch: 1 }.nbytes(), 4);
        assert_eq!(
            Payload::Abort {
                epoch: 1,
                dead: vec![2, 3]
            }
            .nbytes(),
            12
        );
    }

    #[test]
    fn checksum_detects_bit_flips_and_ignores_control() {
        let a = Payload::F64(vec![1.0, 2.0, 3.0]);
        let mut flipped = vec![1.0f64, 2.0, 3.0];
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
        let b = Payload::F64(flipped);
        assert_ne!(checksum(&a), checksum(&b));
        assert_eq!(checksum(&a), checksum(&Payload::F64(vec![1.0, 2.0, 3.0])));
        assert_eq!(checksum(&Payload::Dead { epoch: 7 }), 0);
    }

    #[test]
    fn checksum_contract_one_word_changes_lengths_and_order() {
        let f64s = |v: &[f64]| checksum(&Payload::F64(v.to_vec()));
        let u32s = |v: &[u32]| checksum(&Payload::U32(v.to_vec()));
        // Every bit of every word, over lengths that leave every
        // four-lane remainder.
        for n in 1..=9 {
            let base: Vec<f64> = (0..n).map(|i| 0.5 + 1.25 * i as f64).collect();
            let ints: Vec<u32> = (0..n as u32).map(|i| 7 + 3 * i).collect();
            for i in 0..n {
                for bit in 0..64 {
                    let mut v = base.clone();
                    v[i] = f64::from_bits(v[i].to_bits() ^ (1 << bit));
                    assert_ne!(f64s(&v), f64s(&base), "F64 len {n} word {i} bit {bit}");
                }
                for bit in 0..32 {
                    let mut v = ints.clone();
                    v[i] ^= 1 << bit;
                    assert_ne!(u32s(&v), u32s(&ints), "U32 len {n} word {i} bit {bit}");
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
        for control in [
            Payload::Poison,
            Payload::Dead { epoch: 3 },
            Payload::Abort {
                epoch: 4,
                dead: vec![1, 2],
            },
        ] {
            assert_eq!(checksum(&control), 0);
        }
        // Known answers: a change to the function must be deliberate.
        assert_eq!(f64s(&[1.0, -2.5, 0.1, 1e300, 0.0]), KNOWN_F64);
        assert_eq!(u32s(&[0, 1, u32::MAX]), KNOWN_U32);
    }

    const KNOWN_F64: u64 = 0xbadc_805d_15c3_70dc;
    const KNOWN_U32: u64 = 0x3663_bdd6_4791_e828;

    #[test]
    fn payload_round_trip() {
        let v = Payload::F64(vec![1.0, 2.0]).into_f64();
        assert_eq!(v, vec![1.0, 2.0]);
        let u = Payload::U32(vec![3, 4]).into_u32();
        assert_eq!(u, vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn payload_type_mismatch_panics() {
        Payload::U32(vec![1]).into_f64();
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
