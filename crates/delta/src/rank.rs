//! The per-rank SPMD context: record streams on shared-memory windows,
//! typed sends/receives, barriers, and deterministic collectives.

use std::collections::{HashMap, VecDeque};
use std::panic::panic_any;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use eul3d_obs as obs;

use crate::cost::CostModel;
use crate::fault::{FaultAction, FaultCause, FaultPlan, FaultSignal, FaultState};
use crate::msg::{checksum, checksum_f64, corrupt_f64, CommClass, Message, Payload, RankCounters};
use crate::pool::CommBuffers;
use crate::shm::{Wedge, Window, WindowRegistry};

/// Largest-factor-pair 2-D mesh factorization: returns `(rows, cols)`
/// with `rows * cols == n`, `rows <= cols`, and `rows` the largest
/// divisor of `n` not exceeding `sqrt(n)` — the most nearly square
/// exact grid (the Delta itself was a 16×32 mesh of i860s). Every rank
/// id in `0..n` maps to a valid coordinate `(id / cols, id % cols)`:
/// unlike a `ceil(sqrt(n))` grid there are no holes, so hop distances
/// are well defined and symmetric for every pair.
pub fn mesh_dims(n: usize) -> (usize, usize) {
    let n = n.max(1);
    let mut rows = 1;
    let mut f = 1;
    while f * f <= n {
        if n.is_multiple_of(f) {
            rows = f;
        }
        f += 1;
    }
    (rows, n / rows)
}

/// Manhattan hop distance between two rank ids on the simulated Delta's
/// 2-D mesh of `nranks` nodes — the same layout [`Rank::hops_to`]
/// charges message costs on. Exposed as a free function so preprocessing
/// (the topology-aware partition mapper) can query the machine model
/// without constructing ranks.
pub fn mesh_hops(a: usize, b: usize, nranks: usize) -> u64 {
    let (_rows, cols) = mesh_dims(nranks);
    let (r1, c1) = (a / cols, a % cols);
    let (r2, c2) = (b / cols, b % cols);
    (r1.abs_diff(r2) + c1.abs_diff(c2)) as u64
}

/// Checked rank-id narrowing for wire/trace fields. Infallible once
/// [`crate::machine::check_nranks`] has admitted the run (the cap is far
/// below `u32::MAX`); kept checked so a future cap change cannot
/// silently truncate.
pub(crate) fn rid(r: usize) -> u32 {
    u32::try_from(r).unwrap_or_else(|_| unreachable!("rank id {r} exceeds u32"))
}

/// Reserved tag space for collectives; user tags must stay below this.
pub const COLLECTIVE_TAG_BASE: u32 = 0xF000_0000;

/// Tag of the poison message a panicking rank broadcasts so peers blocked
/// in a receive abort instead of deadlocking. Collective tags are masked
/// to never reach it.
pub(crate) const POISON_TAG: u32 = u32::MAX;

/// The transport a record rides: schedule records ride the windows,
/// everything else (inspector requests, collectives, control) the
/// channels. Each numbers its streams apart, because they share tags:
/// the inspector's requests ride the channels on a halo schedule's base
/// tag, the same tag its records then use on the windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Via {
    Channel,
    Window,
}

/// A directed stream as its sequence numbers count it (see
/// [`Rank::stream_key`]).
type StreamKey = (Via, usize, u32);

/// One rank's handle onto the simulated machine. Passed by the SPMD
/// driver to the rank body; all communication goes through it.
pub struct Rank {
    pub id: usize,
    pub nranks: usize,
    rx: Receiver<Message>,
    txs: Vec<Sender<Message>>,
    /// Out-of-order receive buffer: messages that arrived before anyone
    /// asked for them, keyed by `(src, tag)`.
    stash: HashMap<(usize, u32), VecDeque<Payload>>,
    /// Messages from a *future* epoch, held intact until this rank takes
    /// its own (planned) epoch bump. Only planned migrations produce
    /// them: a peer that reached the agreed boundary first may start its
    /// next-epoch rebuild before this rank has finished the old epoch's
    /// last receives. Fault epochs never land here — their `Abort`
    /// precedes any new-epoch data on the FIFO channel and sweeps this
    /// rank forward first.
    future: VecDeque<Message>,
    /// Held messages re-queued by [`Rank::advance_epoch`]; drained ahead
    /// of the wire by the receive loop.
    replay: VecDeque<Message>,
    barrier: Arc<Barrier>,
    /// Accounting; read back by the driver after the run.
    pub counters: RankCounters,
    /// Monotonic counter for internal collective tags.
    collective_seq: u32,
    /// Columns of the (nearly square) 2-D mesh the ranks are mapped
    /// onto, row-major — used only for hop accounting.
    mesh_cols: usize,
    /// Reusable buffers of collectives and inspector requests (see
    /// [`crate::pool`]).
    pool: CommBuffers,
    /// Tag ranges claimed by schedules on this rank, for collision
    /// detection at build time.
    reserved_tags: Vec<(u32, u32)>,
    /// Every rank's receive endpoint (crossbeam receivers are cloneable),
    /// so a surviving node can adopt a dead rank's mailbox during
    /// recovery. Also keeps channels connected after a rank thread exits.
    rxs_all: Arc<Vec<Receiver<Message>>>,
    /// Current recovery epoch; 0 until the first failure. Stamped on
    /// every outgoing data message; older epochs are discarded on
    /// receive.
    epoch: u32,
    /// Next sequence number per outgoing directed stream (see
    /// [`Rank::stream_key`]), reset each epoch.
    send_seq: HashMap<StreamKey, u64>,
    /// Next expected sequence number per incoming stream.
    recv_seq: HashMap<StreamKey, u64>,
    /// Ranks known to have died (physically — their partitions live on
    /// as adopted virtual ranks after recovery).
    dead: Vec<bool>,
    /// Fault-plan evaluation state; `None` on fault-free runs.
    faults: Option<FaultState>,
    /// Bounded-receive (and window-wait) timeout; armed only when a
    /// fault plan that can drop is installed, so fault-free runs keep the
    /// zero-overhead blocking receive.
    recv_timeout: Option<Duration>,
    /// Machine constants used to price this rank's traffic on the
    /// modeled clock (the pluggable `CommCost` seam).
    cost: CostModel,
    /// The machine's shared-memory window registry: every record stream
    /// of this rank rides it.
    windows: Arc<WindowRegistry>,
    /// Per-rank cache of window streams so the steady state never takes
    /// the registry lock.
    window_cache: HashMap<(usize, usize, u32), Arc<Window>>,
}

impl Rank {
    pub(crate) fn new(
        id: usize,
        nranks: usize,
        rx: Receiver<Message>,
        txs: Vec<Sender<Message>>,
        barrier: Arc<Barrier>,
        rxs_all: Arc<Vec<Receiver<Message>>>,
        windows: Arc<WindowRegistry>,
    ) -> Rank {
        let (_, cols) = mesh_dims(nranks);
        Rank {
            id,
            nranks,
            rx,
            txs,
            stash: HashMap::new(),
            future: VecDeque::new(),
            replay: VecDeque::new(),
            barrier,
            counters: RankCounters::default(),
            collective_seq: 0,
            mesh_cols: cols,
            pool: CommBuffers::new(),
            reserved_tags: Vec::new(),
            rxs_all,
            epoch: 0,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            dead: vec![false; nranks],
            faults: None,
            recv_timeout: None,
            cost: CostModel::delta_i860(),
            windows,
            window_cache: HashMap::new(),
        }
    }

    /// The cost model pricing this rank's modeled wire time.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Swap in another window registry: every record stream from here on
    /// moves through its windows, and the cached windows of the old one
    /// are forgotten, so this rank and its peers meet in the same
    /// windows. Every rank of the machine must swap at the same point of
    /// its program.
    pub fn install_windows(&mut self, reg: Arc<WindowRegistry>) {
        assert_eq!(
            reg.nranks(),
            self.nranks,
            "window registry sized for a different machine"
        );
        self.windows = reg;
        self.window_cache.clear();
    }

    /// Publish one record buffer to `dst` on the repeating stream
    /// `(dst, tag)`: `fill` packs it in place, into the stream's
    /// shared-memory window (`cap` values expected). The record is stamped
    /// and exposed to the fault plan by the code a channel send runs
    /// ([`Rank::stamp_out`]), and charged exactly like one: same
    /// counters, same trace events, same modeled wire time. Blocks only
    /// while the stream's previous record is unread. A record whose
    /// storage grows is charged to the allocation counters, so a warmed-up
    /// stream allocates nothing. Pair with [`Rank::consume_f64`] on
    /// `dst`; every rank publishes all of an exchange's records before
    /// consuming any (see [`crate::shm`] for why that cannot deadlock).
    pub fn publish_f64<F>(&mut self, dst: usize, tag: u32, class: CommClass, cap: usize, fill: F)
    where
        F: FnOnce(&mut Vec<f64>),
    {
        assert!(dst < self.nranks, "publish to rank {dst} out of range");
        assert_ne!(dst, self.id, "self-publish is a schedule bug");
        self.tick_fault_op();
        let win = self.window(self.id, dst, tag);
        if let Err(w) = win.wait_free(|waited| self.listen(waited)) {
            self.wedged(self.id, dst, tag, w);
        }
        let mut len = 0;
        win.publish_with(|rec| {
            let had = rec.data.capacity();
            rec.data.reserve_exact(cap);
            fill(&mut rec.data);
            self.note_alloc(8 * (rec.data.capacity() - had) as u64);
            len = rec.data.len();
            rec.crc = checksum_f64(&rec.data);
            let (seq, copies) =
                self.stamp_out(Via::Window, dst, tag, || corrupt_f64(&mut rec.data));
            rec.seq = seq;
            rec.dup = copies == 2;
            copies > 0
        });
        let bytes = 8 * len as u64; // Payload::F64 wire accounting
        let hops = self.hops_to(dst);
        self.counters.record_send(class, bytes);
        self.counters.record_hops(hops);
        obs::emit(obs::Event::MsgSend {
            peer: rid(dst),
            tag,
            bytes,
        });
        obs::advance_ns(self.cost.send_ns(bytes, hops));
    }

    /// Read the next record `src` published on stream `(me, tag)`, in
    /// place, and hand its storage back to the sender. The record's stamp
    /// passes the check the channel sieve runs ([`Rank::admit`]) — a
    /// duplicated record is admitted once and refused once — before
    /// `read` sees it. Receives are sender-priced (as on the channels),
    /// so only the event is recorded.
    pub fn consume_f64<R>(&mut self, src: usize, tag: u32, read: impl FnOnce(&[f64]) -> R) -> R {
        assert!(src < self.nranks, "consume from rank {src} out of range");
        self.tick_fault_op();
        let win = self.window(src, self.id, tag);
        if let Err(w) = win.wait_ready(|waited| self.listen(waited)) {
            self.wedged(src, self.id, tag, w);
        }
        let (bytes, r) = win.consume_with(|rec| {
            let crc_ok = || checksum_f64(&rec.data) == rec.crc;
            if !self.admit(Via::Window, src, tag, rec.seq, crc_ok) {
                unreachable!(
                    "window {src}->{} tag {tag} replayed seq {}",
                    self.id, rec.seq
                );
            }
            if rec.dup {
                self.admit(Via::Window, src, tag, rec.seq, || true);
            }
            (8 * rec.data.len() as u64, read(&rec.data))
        });
        obs::emit(obs::Event::MsgRecv {
            peer: rid(src),
            tag,
            bytes,
        });
        r
    }

    /// The cached window for directed stream `(src, dst, tag)`.
    fn window(&mut self, src: usize, dst: usize, tag: u32) -> Arc<Window> {
        let reg = &self.windows;
        self.window_cache
            .entry((src, dst, tag))
            .or_insert_with(|| reg.stream(src, dst, tag))
            .clone()
    }

    /// What a rank blocked in a window wait does on every yield: sieve
    /// what reached its mailbox, in receive order, so a peer's death or
    /// abort notice unwinds the wait into recovery as it would a blocked
    /// receive (data is stashed for the receive that wants it); and,
    /// once the plan's bounded timeout has passed, give the record up as
    /// dropped.
    fn listen(&mut self, waited: Duration) {
        loop {
            let m = match self.replay.pop_front() {
                Some(m) => m,
                None => match self.rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
            };
            if let Some((s, t, p)) = self.sieve(m) {
                self.stash.entry((s, t)).or_default().push_back(p);
            }
        }
        if self.recv_timeout.is_some_and(|t| waited >= t) {
            self.raise_recovery(self.epoch + 1, FaultCause::Timeout);
        }
    }

    /// A window wait outlived the wedge timeout. Not recoverable inside
    /// the SPMD region: unwind with the typed error so the driver
    /// boundary surfaces it as a [`crate::DeltaError`] instead of a panic
    /// message.
    fn wedged(&self, src: usize, dst: usize, tag: u32, w: Wedge) -> ! {
        panic_any(crate::DeltaError::WindowWedged {
            src,
            dst,
            tag,
            side: w.side,
            epoch: w.epoch,
            timeout_ms: w.timeout_ms,
        })
    }

    /// Install a fault plan on this rank (SPMD: every rank installs the
    /// same shared plan and evaluates only the entries it originates).
    /// `timeout` arms the bounded receive (and window wait) used to detect
    /// silent message loss; it is ignored for an empty plan so fault-free runs stay on
    /// the blocking fast path, and ignored unless the plan can actually
    /// drop a message ([`FaultPlan::may_drop`]) — a wall-clock timeout
    /// is only sound when armed against a modeled drop, never against a
    /// merely-descheduled peer on real preemptible threads.
    pub fn install_faults(&mut self, plan: Arc<FaultPlan>, timeout: Option<Duration>) {
        if plan.is_empty() {
            return;
        }
        silence_fault_signal_panics();
        self.recv_timeout = if plan.may_drop() { timeout } else { None };
        self.faults = Some(FaultState::new(plan));
    }

    /// Announce the solver cycle to the fault layer (kills and
    /// cycle-gated message faults key off it).
    pub fn set_fault_cycle(&mut self, cycle: u64) {
        if let Some(f) = self.faults.as_mut() {
            f.set_cycle(cycle);
        }
    }

    /// Current recovery epoch (0 = no failure yet).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Ranks known dead, ascending.
    pub fn dead_ranks(&self) -> Vec<u32> {
        (0..self.nranks)
            .filter(|&r| self.dead[r])
            .map(rid)
            .collect()
    }

    /// Is rank `r` still alive (as a physical node)?
    pub fn live(&self, r: usize) -> bool {
        !self.dead[r]
    }

    /// Take an empty pooled `f64` buffer with capacity ≥ `cap`. A pool
    /// miss allocates fresh storage and is charged to the rank's
    /// allocation counters; a warmed-up exchange pattern never misses.
    pub fn take_f64(&mut self, cap: usize) -> Vec<f64> {
        let (buf, fresh) = self.pool.take_f64(cap);
        self.note_alloc(fresh);
        buf
    }

    /// Recycle a consumed `f64` buffer (typically a received payload)
    /// back into this rank's pool.
    pub fn recycle_f64(&mut self, v: Vec<f64>) {
        self.pool.recycle_f64(v);
    }

    /// Take an empty pooled `u32` buffer with capacity ≥ `cap`.
    pub fn take_u32(&mut self, cap: usize) -> Vec<u32> {
        let (buf, fresh) = self.pool.take_u32(cap);
        self.note_alloc(fresh);
        buf
    }

    /// Recycle a consumed `u32` buffer back into this rank's pool.
    pub fn recycle_u32(&mut self, v: Vec<u32>) {
        self.pool.recycle_u32(v);
    }

    /// Charge fresh communication storage — a pool miss or a window
    /// record's growth — to the allocation counters.
    fn note_alloc(&mut self, fresh_bytes: u64) {
        if fresh_bytes > 0 {
            self.counters.comm_allocs += 1;
            self.counters.comm_alloc_bytes += fresh_bytes;
            // Traced only before the first recovery epoch: after a
            // rollback, which buffers the pool recycles depends on the
            // set of messages in flight at the (thread-timing-dependent)
            // abort point, so post-recovery misses would break the
            // bit-identical-trace guarantee. The counters above always
            // accumulate regardless.
            if self.epoch() == 0 {
                obs::emit(obs::Event::PoolAlloc { bytes: fresh_bytes });
            }
        }
    }

    /// Claim the half-open tag range `[lo, hi)` for a schedule. Panics if
    /// it overlaps a range already reserved on this rank — gather and
    /// scatter streams of one schedule use `tag` and `tag + 1`, so two
    /// schedules whose tags are less than 2 apart would silently corrupt
    /// each other's traffic.
    pub fn reserve_tags(&mut self, lo: u32, hi: u32) {
        assert!(lo < hi, "empty tag range [{lo}, {hi})");
        assert!(
            hi <= COLLECTIVE_TAG_BASE,
            "tag range [{lo}, {hi}) collides with collective space"
        );
        for &(l, h) in &self.reserved_tags {
            assert!(
                hi <= l || h <= lo,
                "tag range [{lo}, {hi}) collides with reserved [{l}, {h}): \
                 schedules sharing a rank need tags at least 2 apart"
            );
        }
        self.reserved_tags.push((lo, hi));
    }

    /// Manhattan hop distance to `dst` on the 2-D rank mesh.
    pub fn hops_to(&self, dst: usize) -> u64 {
        let (r1, c1) = (self.id / self.mesh_cols, self.id % self.mesh_cols);
        let (r2, c2) = (dst / self.mesh_cols, dst % self.mesh_cols);
        (r1.abs_diff(r2) + c1.abs_diff(c2)) as u64
    }

    /// Report flops performed by a local numerical kernel.
    #[inline]
    pub fn add_flops(&mut self, n: f64) {
        self.counters.add_flops(n);
    }

    /// Directed streams share one sequence counter per `(peer, tag)` and
    /// transport; collective tags are rotated per operation but consumed
    /// in program order per peer pair, so they fold onto a single
    /// per-peer stream — keeping the sequence maps bounded by the
    /// communication pattern, not the cycle count.
    fn stream_key(via: Via, peer: usize, tag: u32) -> StreamKey {
        (via, peer, tag.min(COLLECTIVE_TAG_BASE))
    }

    /// Stamp the next record on outgoing stream `(dst, tag)` and let the
    /// fault plan act on it: the one body both transports run for every
    /// record and message this rank originates. The caller took the payload's
    /// checksum first; `corrupt` flips a payload bit after it. Returns
    /// the record's sequence number and how many copies reach the wire:
    /// 0 when the plan drops it (its sequence number is still consumed,
    /// so the receiver sees the gap), 2 when it duplicates it.
    fn stamp_out(
        &mut self,
        via: Via,
        dst: usize,
        tag: u32,
        corrupt: impl FnOnce(),
    ) -> (u64, usize) {
        let seq = {
            let s = self
                .send_seq
                .entry(Self::stream_key(via, dst, tag))
                .or_insert(0);
            let seq = *s;
            *s += 1;
            seq
        };
        let action = match self.faults.as_mut() {
            Some(f) => f.action_for(self.id, dst, tag),
            None => None,
        };
        let copies = match action {
            Some(FaultAction::Drop) => 0,
            Some(FaultAction::Duplicate) => 2,
            Some(FaultAction::Corrupt) => {
                corrupt();
                1
            }
            Some(FaultAction::Delay { ticks }) => {
                self.counters.fault_ticks += ticks;
                1
            }
            None => 1,
        };
        (seq, copies)
    }

    /// The single exit point for every channel message this rank
    /// originates (sends and collectives): stamps the
    /// recovery epoch and the payload checksum, and takes the stream
    /// sequence number from [`Rank::stamp_out`], which lets the fault
    /// plan drop, duplicate, corrupt or delay the message on the wire.
    fn post(&mut self, dst: usize, tag: u32, mut payload: Payload) {
        let crc = checksum(&payload);
        let (seq, copies) = self.stamp_out(Via::Channel, dst, tag, || payload.corrupt());
        let (src, epoch) = (self.id, self.epoch);
        let message = |payload| Message {
            src,
            tag,
            epoch,
            seq,
            crc,
            payload,
        };
        if copies == 2 && self.txs[dst].send(message(payload.clone())).is_err() {
            unreachable!("receiver hung up");
        }
        if copies > 0 && self.txs[dst].send(message(payload)).is_err() {
            unreachable!("receiver hung up");
        }
    }

    /// Count one communication operation against the fault plan; dies on
    /// the spot (unwinding with [`FaultSignal::Killed`]) if a kill fires.
    fn tick_fault_op(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            if f.tick_op(self.id) {
                panic_any(FaultSignal::Killed);
            }
        }
    }

    fn send_payload(&mut self, dst: usize, tag: u32, payload: Payload, class: CommClass) {
        assert!(dst < self.nranks, "send to rank {dst} out of range");
        assert_ne!(
            dst, self.id,
            "self-sends are a bug in schedule construction"
        );
        self.tick_fault_op();
        let bytes = payload.nbytes();
        let hops = self.hops_to(dst);
        self.counters.record_send(class, bytes);
        self.counters.record_hops(hops);
        // The sender pays the modeled wire time (latency + bytes/bw +
        // hops), mirroring the cost model, and the event is stamped
        // before the clock advances so the instant sits at the send's
        // start.
        obs::emit(obs::Event::MsgSend {
            peer: rid(dst),
            tag,
            bytes,
        });
        obs::advance_ns(self.cost.send_ns(bytes, hops));
        self.post(dst, tag, payload);
    }

    /// Send a float buffer to `dst` under `tag`.
    pub fn send_f64(&mut self, dst: usize, tag: u32, data: Vec<f64>, class: CommClass) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag collides with collective space"
        );
        self.send_payload(dst, tag, Payload::F64(data), class);
    }

    /// Send an index buffer to `dst` under `tag`.
    pub fn send_u32(&mut self, dst: usize, tag: u32, data: Vec<u32>, class: CommClass) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag collides with collective space"
        );
        self.send_payload(dst, tag, Payload::U32(data), class);
    }

    /// Unwind into recovery: epoch `target`, current dead-rank view.
    fn raise_recovery(&mut self, target: u32, cause: FaultCause) -> ! {
        panic_any(FaultSignal::Recover {
            epoch: target,
            dead: self.dead_ranks(),
            cause,
        })
    }

    /// Recycle a received payload's storage into this rank's pool
    /// (control payloads carry no buffers).
    fn recycle_payload(&mut self, p: Payload) {
        match p {
            Payload::F64(v) => self.pool.recycle_f64(v),
            Payload::U32(v) => self.pool.recycle_u32(v),
            _ => {}
        }
    }

    /// Inspect one message off the wire. Returns the accepted
    /// `(src, tag, payload)` or `None` if the message was absorbed
    /// (stale epoch, duplicate, redundant control). Unwinds with a
    /// [`FaultSignal`] when the message reveals a failure: a peer's death
    /// or abort announcement, a sequence gap (lost message), or a
    /// checksum mismatch (corrupted message).
    fn sieve(&mut self, m: Message) -> Option<(usize, u32, Payload)> {
        if m.tag == POISON_TAG {
            panic!(
                "rank {} panicked; rank {} aborting blocked receive",
                m.src, self.id
            );
        }
        match m.payload {
            Payload::Dead { epoch: e } => {
                if !self.dead[m.src] {
                    self.dead[m.src] = true;
                    self.raise_recovery(e.max(self.epoch + 1), FaultCause::PeerDeath);
                }
                None
            }
            Payload::Abort { epoch: e, dead } => {
                // Merge the peer's dead-rank view; if it taught us
                // anything the agreed epoch must move past ours so every
                // rank rebuilds against the same survivor set.
                let mut news = false;
                for d in dead {
                    if !self.dead[d as usize] {
                        self.dead[d as usize] = true;
                        news = true;
                    }
                }
                let target = if news { (self.epoch + 1).max(e) } else { e };
                if target > self.epoch {
                    self.raise_recovery(target, FaultCause::PeerAbort);
                }
                None
            }
            payload => {
                if m.epoch < self.epoch {
                    // Pre-recovery traffic still in flight: drop it,
                    // keeping its buffer.
                    self.counters.stale_discards += 1;
                    self.recycle_payload(payload);
                    return None;
                }
                if m.epoch > self.epoch {
                    // A peer took the planned epoch bump first and its
                    // rebuild traffic overtook our old epoch's tail.
                    // Hold the message whole (sequence numbers belong to
                    // the new epoch's reset streams) until our own
                    // `advance_epoch` replays it. A *fault* epoch can't
                    // land here: its abort precedes any data per-channel
                    // and sweeps us forward on sight.
                    self.future.push_back(Message {
                        src: m.src,
                        tag: m.tag,
                        epoch: m.epoch,
                        seq: m.seq,
                        crc: m.crc,
                        payload,
                    });
                    return None;
                }
                let crc_ok = || checksum(&payload) == m.crc;
                if !self.admit(Via::Channel, m.src, m.tag, m.seq, crc_ok) {
                    self.recycle_payload(payload);
                    return None;
                }
                Some((m.src, m.tag, payload))
            }
        }
    }

    /// The receive-side stamp check both transports run on every data
    /// record from `src` on `tag`: a sequence number already seen is a
    /// duplicate — counted and refused (false); one past the expected
    /// means a record on the stream was lost in flight, and a checksum
    /// mismatch (`crc_ok` false) that the payload was corrupted — both
    /// unwind into recovery.
    fn admit(
        &mut self,
        via: Via,
        src: usize,
        tag: u32,
        seq: u64,
        crc_ok: impl FnOnce() -> bool,
    ) -> bool {
        let key = Self::stream_key(via, src, tag);
        let want = *self.recv_seq.entry(key).or_insert(0);
        if seq < want {
            self.counters.dup_discards += 1;
            return false;
        }
        if seq > want {
            self.raise_recovery(self.epoch + 1, FaultCause::Lost);
        }
        self.recv_seq.insert(key, want + 1);
        if !crc_ok() {
            self.raise_recovery(self.epoch + 1, FaultCause::Corrupt);
        }
        true
    }

    fn recv_payload(&mut self, src: usize, tag: u32) -> Payload {
        self.tick_fault_op();
        if let Some(q) = self.stash.get_mut(&(src, tag)) {
            if let Some(p) = q.pop_front() {
                obs::emit(obs::Event::MsgRecv {
                    peer: rid(src),
                    tag,
                    bytes: p.nbytes(),
                });
                return p;
            }
        }
        loop {
            let m = if let Some(m) = self.replay.pop_front() {
                m
            } else {
                match self.recv_timeout {
                    None => match self.rx.recv() {
                        Ok(m) => m,
                        Err(_) => unreachable!("all senders hung up while receiving"),
                    },
                    Some(window) => match self.rx.recv_timeout(window) {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => {
                            // Silent loss (or a quiesced network): nothing
                            // arrived within the detection window. Value-safe
                            // even if spurious — recovery rolls back to a
                            // checkpoint either way.
                            self.raise_recovery(self.epoch + 1, FaultCause::Timeout)
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            panic!("all senders hung up while receiving")
                        }
                    },
                }
            };
            if let Some((s, t, p)) = self.sieve(m) {
                if s == src && t == tag {
                    // Receives are sender-priced in the cost model, so
                    // the event is recorded without advancing the clock.
                    obs::emit(obs::Event::MsgRecv {
                        peer: rid(src),
                        tag,
                        bytes: p.nbytes(),
                    });
                    return p;
                }
                self.stash.entry((s, t)).or_default().push_back(p);
            }
        }
    }

    /// Notify every peer that this rank is going down (called by the SPMD
    /// driver while unwinding a panic). Best-effort: peers that already
    /// exited are skipped.
    pub(crate) fn poison_peers(&mut self) {
        for dst in 0..self.nranks {
            if dst != self.id {
                let _ = self.txs[dst].send(Message {
                    src: self.id,
                    tag: POISON_TAG,
                    epoch: self.epoch,
                    seq: 0,
                    crc: 0,
                    payload: Payload::Poison,
                });
            }
        }
    }

    /// Announce this rank's (fault-injected) death to every peer. Called
    /// by a recovery-aware driver when the body unwinds with
    /// [`FaultSignal::Killed`]; survivors recover into `epoch() + 1`.
    /// Un-sequenced control traffic: the wire-level death notice of the
    /// machine, not a message the dead program "sends".
    pub fn announce_death(&mut self) {
        self.dead[self.id] = true;
        let e = self.epoch + 1;
        for dst in 0..self.nranks {
            if dst != self.id {
                let _ = self.txs[dst].send(Message {
                    src: self.id,
                    tag: 0,
                    epoch: e,
                    seq: 0,
                    crc: 0,
                    payload: Payload::Dead { epoch: e },
                });
            }
        }
    }

    /// Enter recovery epoch `epoch`: discard all buffered pre-recovery
    /// traffic (recycling its storage), reset every stream's sequence
    /// numbers and the collective counter, and broadcast an `Abort` so peers still computing join the epoch
    /// instead of timing out one by one. The caller then rebuilds
    /// schedules and restores state collectively.
    pub fn begin_recovery(&mut self, epoch: u32) {
        assert!(
            epoch > self.epoch,
            "recovery epoch must advance: {} -> {epoch}",
            self.epoch
        );
        // Held planned-migration traffic is at most one epoch ahead of
        // the old epoch; a fault at or past that boundary dooms it (its
        // sender gets swept into the fault epoch and resends), so it is
        // discarded like the stash.
        let future = std::mem::take(&mut self.future);
        for m in future {
            self.recycle_payload(m.payload);
        }
        let replay = std::mem::take(&mut self.replay);
        for m in replay {
            self.recycle_payload(m.payload);
        }
        self.epoch = epoch;
        self.counters.recoveries += 1;
        self.reset_streams();
        let dead = self.dead_ranks();
        for dst in 0..self.nranks {
            if dst != self.id {
                let abort = Payload::Abort {
                    epoch,
                    dead: dead.clone(),
                };
                self.counters
                    .record_send(CommClass::Recovery, abort.nbytes());
                self.counters.record_hops(self.hops_to(dst));
                obs::emit(obs::Event::MsgSend {
                    peer: rid(dst),
                    tag: 0,
                    bytes: abort.nbytes(),
                });
                obs::advance_ns(self.cost.send_ns(abort.nbytes(), self.hops_to(dst)));
                let _ = self.txs[dst].send(Message {
                    src: self.id,
                    tag: 0,
                    epoch,
                    seq: 0,
                    crc: 0,
                    payload: abort,
                });
            }
        }
    }

    /// Silently advance to `epoch` — the planned-migration variant of
    /// [`Rank::begin_recovery`]. Every rank reaches the same committed
    /// boundary by construction and bumps independently, so there is no
    /// `Abort` broadcast (nobody needs sweeping), no recovery count, and
    /// no rollback. Messages a faster peer already sent from the new
    /// epoch were held by the sieve; they are re-queued here for the new
    /// epoch's receives.
    pub fn advance_epoch(&mut self, epoch: u32) {
        assert!(
            epoch > self.epoch,
            "epoch must advance: {} -> {epoch}",
            self.epoch
        );
        self.epoch = epoch;
        self.reset_streams();
        let future = std::mem::take(&mut self.future);
        for m in future {
            assert!(
                m.epoch == epoch,
                "held message from epoch {} replayed into epoch {epoch}",
                m.epoch
            );
            self.replay.push_back(m);
        }
    }

    /// Shared epoch-entry reset: discard all buffered old-epoch traffic
    /// (recycling its storage) and reset every stream's sequence numbers
    /// and the collective counter.
    fn reset_streams(&mut self) {
        let stash = std::mem::take(&mut self.stash);
        for (_, q) in stash {
            for p in q {
                self.recycle_payload(p);
            }
        }
        self.send_seq.clear();
        self.recv_seq.clear();
        self.collective_seq = 0;
    }

    /// Build a fresh [`Rank`] handle that takes over dead rank `vid`'s
    /// mailbox (receivers are cloneable, so the channel survives its
    /// thread). The instance starts in the current epoch with the current
    /// dead-rank view and a fault state that treats everything targeting
    /// `vid` as already consumed — those events happened to the node that
    /// died, not to its replacement. Pool, tag reservations, and stream
    /// counters start empty; the hosting node re-runs schedule
    /// construction for it. Hop accounting keeps `vid`'s mesh position
    /// (the adopted partition's traffic pattern, not the host's), and the
    /// replica's records ride the host's window registry.
    pub fn adopt(&self, vid: usize) -> Rank {
        assert!(self.dead[vid], "adopting a live rank");
        assert_ne!(vid, self.id, "a rank cannot adopt itself");
        let mut r = Rank::new(
            vid,
            self.nranks,
            self.rxs_all[vid].clone(),
            self.txs.clone(),
            self.barrier.clone(),
            self.rxs_all.clone(),
            self.windows.clone(),
        );
        r.epoch = self.epoch;
        r.dead = self.dead.clone();
        r.recv_timeout = self.recv_timeout;
        r.cost = self.cost;
        r.faults = self
            .faults
            .as_ref()
            .map(|f| FaultState::adopted(f.plan(), vid));
        r
    }

    /// Blocking receive of a float buffer from `src` under `tag`.
    pub fn recv_f64(&mut self, src: usize, tag: u32) -> Vec<f64> {
        self.recv_payload(src, tag).into_f64()
    }

    /// Blocking receive of an index buffer from `src` under `tag`.
    pub fn recv_u32(&mut self, src: usize, tag: u32) -> Vec<u32> {
        self.recv_payload(src, tag).into_u32()
    }

    /// Synchronize all ranks.
    pub fn barrier(&mut self) {
        self.counters.syncs += 1;
        self.barrier.wait();
    }

    fn next_collective_tag(&mut self) -> u32 {
        // Wraps within the reserved space (modulo keeps the tag strictly
        // below POISON_TAG); fine because tags are consumed in program
        // order on every rank (deterministic network).
        let t = COLLECTIVE_TAG_BASE + (self.collective_seq % 0x0FFF_FFFF);
        self.collective_seq = self.collective_seq.wrapping_add(1);
        t
    }

    /// Pack `vals` into a pooled buffer and send it as collective traffic.
    fn send_collective(&mut self, dst: usize, tag: u32, vals: &[f64]) {
        let mut buf = self.take_f64(vals.len());
        buf.extend_from_slice(vals);
        self.send_payload(dst, tag, Payload::F64(buf), CommClass::Collective);
    }

    /// Deterministic element-wise sum across ranks, in place: gather to
    /// rank 0 in rank order, reduce there, broadcast back. Mirrors the
    /// paper's residual-monitoring global sums. Allocation-free once the
    /// rank's buffer pool is warm.
    pub fn all_reduce_sum_in_place(&mut self, vals: &mut [f64]) {
        let tag = self.next_collective_tag();
        if self.id == 0 {
            for src in 1..self.nranks {
                let part = self.recv_payload(src, tag).into_f64();
                assert_eq!(part.len(), vals.len(), "all_reduce length mismatch");
                for (a, p) in vals.iter_mut().zip(&part) {
                    *a += p;
                }
                self.recycle_f64(part);
            }
            for dst in 1..self.nranks {
                self.send_collective(dst, tag, vals);
            }
        } else {
            self.send_collective(0, tag, vals);
            let acc = self.recv_payload(0, tag).into_f64();
            vals.copy_from_slice(&acc);
            self.recycle_f64(acc);
        }
    }

    /// Allocating convenience wrapper over [`Rank::all_reduce_sum_in_place`].
    pub fn all_reduce_sum(&mut self, vals: &[f64]) -> Vec<f64> {
        let mut out = vals.to_vec();
        self.all_reduce_sum_in_place(&mut out);
        out
    }

    /// Broadcast from `root` into `vals` on every rank, in place.
    /// Allocation-free once the rank's buffer pool is warm.
    pub fn broadcast_in_place(&mut self, root: usize, vals: &mut [f64]) {
        let tag = self.next_collective_tag();
        if self.id == root {
            for dst in 0..self.nranks {
                if dst != root {
                    self.send_collective(dst, tag, vals);
                }
            }
        } else {
            let got = self.recv_payload(root, tag).into_f64();
            assert_eq!(got.len(), vals.len(), "broadcast length mismatch");
            vals.copy_from_slice(&got);
            self.recycle_f64(got);
        }
    }

    /// Allocating convenience wrapper over [`Rank::broadcast_in_place`].
    pub fn broadcast(&mut self, root: usize, vals: &[f64]) -> Vec<f64> {
        let mut out = vals.to_vec();
        self.broadcast_in_place(root, &mut out);
        out
    }

    /// Gather every rank's buffer to `root`, concatenated in rank order
    /// into `out` (cleared first; non-root ranks get it back empty).
    /// Allocation-free once pools and `out`'s capacity are warm.
    pub fn gather_to_root_into(&mut self, root: usize, vals: &[f64], out: &mut Vec<f64>) {
        let tag = self.next_collective_tag();
        out.clear();
        if self.id == root {
            for src in 0..self.nranks {
                if src == root {
                    out.extend_from_slice(vals);
                } else {
                    let part = self.recv_payload(src, tag).into_f64();
                    out.extend_from_slice(&part);
                    self.recycle_f64(part);
                }
            }
        } else {
            self.send_collective(root, tag, vals);
        }
    }

    /// Allocating convenience wrapper over [`Rank::gather_to_root_into`].
    pub fn gather_to_root(&mut self, root: usize, vals: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.gather_to_root_into(root, vals, &mut out);
        out
    }

    /// Deterministic element-wise max across ranks, in place (same
    /// pattern as [`Rank::all_reduce_sum_in_place`]).
    pub fn all_reduce_max_in_place(&mut self, vals: &mut [f64]) {
        let tag = self.next_collective_tag();
        if self.id == 0 {
            for src in 1..self.nranks {
                let part = self.recv_payload(src, tag).into_f64();
                assert_eq!(part.len(), vals.len(), "all_reduce_max length mismatch");
                for (a, p) in vals.iter_mut().zip(&part) {
                    *a = a.max(*p);
                }
                self.recycle_f64(part);
            }
            for dst in 1..self.nranks {
                self.send_collective(dst, tag, vals);
            }
        } else {
            self.send_collective(0, tag, vals);
            let acc = self.recv_payload(0, tag).into_f64();
            vals.copy_from_slice(&acc);
            self.recycle_f64(acc);
        }
    }

    /// Allocating convenience wrapper over [`Rank::all_reduce_max_in_place`].
    pub fn all_reduce_max(&mut self, vals: &[f64]) -> Vec<f64> {
        let mut out = vals.to_vec();
        self.all_reduce_max_in_place(&mut out);
        out
    }
}

/// [`FaultSignal`] unwinds are expected control flow (the recovery driver
/// catches them), not crashes: install a process-wide panic hook — once —
/// that stays silent for them and defers every real panic to the
/// previous hook. [`Rank::new`] installs it automatically; callers that
/// unwind via [`FaultSignal`] *without* building ranks (job-scoped
/// cancellation in the service layer) call it directly.
pub fn silence_fault_signal_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultSignal>().is_none() {
                prev(info);
            }
        }));
    });
}
