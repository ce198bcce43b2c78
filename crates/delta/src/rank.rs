//! The per-rank SPMD context: typed sends/receives, barriers, and
//! deterministic collectives.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::panic_any;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use eul3d_obs as obs;

use crate::cost::CostModel;
use crate::fault::{FaultAction, FaultCause, FaultPlan, FaultSignal, FaultState};
use crate::msg::{checksum, CommClass, Message, Payload, RankCounters};
use crate::pool::CommBuffers;
use crate::shm::{Window, WindowRegistry};

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
    /// Reusable communication pack buffers (see [`crate::pool`]).
    pool: CommBuffers,
    /// Tag ranges claimed by schedules on this rank, for collision
    /// detection at build time.
    reserved_tags: Vec<(u32, u32)>,
    /// Streams `(dst, tag)` with a lent pack buffer awaiting return
    /// (see [`Rank::take_pack_f64`]).
    outstanding: HashSet<(usize, u32)>,
    /// Every rank's receive endpoint (crossbeam receivers are cloneable),
    /// so a surviving node can adopt a dead rank's mailbox during
    /// recovery. Also keeps channels connected after a rank thread exits.
    rxs_all: Arc<Vec<Receiver<Message>>>,
    /// Current recovery epoch; 0 until the first failure. Stamped on
    /// every outgoing data message; older epochs are discarded on
    /// receive.
    epoch: u32,
    /// Next sequence number per outgoing directed stream `(dst, tag)`,
    /// reset each epoch. Collective tags share one stream per peer.
    send_seq: HashMap<(usize, u32), u64>,
    /// Next expected sequence number per incoming stream `(src, tag)`.
    recv_seq: HashMap<(usize, u32), u64>,
    /// Ranks known to have died (physically — their partitions live on
    /// as adopted virtual ranks after recovery).
    dead: Vec<bool>,
    /// Fault-plan evaluation state; `None` on fault-free runs.
    faults: Option<FaultState>,
    /// Bounded-receive window; armed only when a fault plan is
    /// installed, so fault-free runs keep the zero-overhead blocking
    /// receive.
    recv_timeout: Option<Duration>,
    /// Machine constants used to price this rank's traffic on the
    /// modeled clock (the pluggable `CommCost` seam — the hybrid backend
    /// keeps charging this model while running on real threads).
    cost: CostModel,
    /// Shared-memory window registry for the hybrid backend; `None` on
    /// channel-only runs.
    windows: Option<Arc<WindowRegistry>>,
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
            outstanding: HashSet::new(),
            rxs_all,
            epoch: 0,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            dead: vec![false; nranks],
            faults: None,
            recv_timeout: None,
            cost: CostModel::delta_i860(),
            windows: None,
            window_cache: HashMap::new(),
        }
    }

    /// The cost model pricing this rank's modeled wire time.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Attach the shared-memory window registry (hybrid backend). Every
    /// record stream ([`Rank::publish_f64`] / [`Rank::consume_f64`]) then
    /// moves through in-place shared-memory publishes; setup messages,
    /// collectives and checkpoint shipping stay on the channels.
    pub fn install_windows(&mut self, reg: Arc<WindowRegistry>) {
        assert_eq!(
            reg.nranks(),
            self.nranks,
            "window registry sized for a different machine"
        );
        self.windows = Some(reg);
    }

    /// Do this rank's record streams ride shared-memory windows (where
    /// work between publish and consume really overlaps)?
    pub fn has_windows(&self) -> bool {
        self.windows.is_some()
    }

    /// Publish one record buffer to `dst` on the repeating stream
    /// `(dst, tag)`; `fill` packs it in place (`cap` values expected).
    /// The transport is the rank's: its shared-memory window when a
    /// registry is installed, else the persistent-buffer channel protocol
    /// ([`Rank::take_pack_f64`] + [`Rank::send_packed_f64`]). Both charge
    /// the same counters, trace events and modeled wire time, and both
    /// block only while the stream's previous record is unread, so
    /// callers never ask which one runs. Pair with [`Rank::consume_f64`]
    /// on `dst`; every rank publishes all of an exchange's records before
    /// consuming any (see [`crate::shm`] for why that cannot deadlock).
    pub fn publish_f64<F>(&mut self, dst: usize, tag: u32, class: CommClass, cap: usize, fill: F)
    where
        F: FnOnce(&mut Vec<f64>),
    {
        if self.windows.is_some() {
            return self.window_publish_f64(dst, tag, class, fill);
        }
        let mut buf = self.take_pack_f64(dst, tag, cap);
        fill(&mut buf);
        self.send_packed_f64(dst, tag, buf, class);
    }

    /// Read the next record `src` published on stream `(me, tag)`, in
    /// place, and hand its storage back to the sender (the window's
    /// epoch bump, or [`Rank::return_packed_f64`] on channels).
    pub fn consume_f64<R>(&mut self, src: usize, tag: u32, read: impl FnOnce(&[f64]) -> R) -> R {
        if self.windows.is_some() {
            return self.window_consume_f64(src, tag, read);
        }
        let buf = self.recv_f64(src, tag);
        let r = read(&buf);
        self.return_packed_f64(src, tag, buf);
        r
    }

    /// The cached window for directed stream `(src, dst, tag)`.
    fn window(&mut self, src: usize, dst: usize, tag: u32) -> Arc<Window> {
        let reg = match self.windows.as_ref() {
            Some(r) => r,
            None => unreachable!("window traffic only on a windowed rank"),
        };
        self.window_cache
            .entry((src, dst, tag))
            .or_insert_with(|| reg.stream(src, dst, tag))
            .clone()
    }

    /// The window transport of [`Rank::publish_f64`]: `fill` packs into
    /// the window buffer in place (no message copy), charged exactly
    /// like the channel send — same counters, same trace events, same
    /// modeled wire time.
    fn window_publish_f64<F>(&mut self, dst: usize, tag: u32, class: CommClass, fill: F)
    where
        F: FnOnce(&mut Vec<f64>),
    {
        assert!(dst < self.nranks, "publish to rank {dst} out of range");
        assert_ne!(dst, self.id, "self-publish is a schedule bug");
        let win = self.window(self.id, dst, tag);
        let len = match win.publish_with(fill) {
            Ok(len) => len,
            // A wedge is not recoverable inside the SPMD region: unwind
            // with the typed error so the driver boundary surfaces it as
            // a DeltaError instead of a panic message.
            Err(w) => std::panic::panic_any(crate::DeltaError::WindowWedged {
                src: self.id,
                dst,
                tag,
                side: w.side,
                epoch: w.epoch,
                timeout_ms: w.timeout_ms,
            }),
        };
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

    /// The window transport of [`Rank::consume_f64`]. Receives are
    /// sender-priced (as on the channel path), so only the event is
    /// recorded.
    fn window_consume_f64<R>(&mut self, src: usize, tag: u32, read: impl FnOnce(&[f64]) -> R) -> R {
        assert!(src < self.nranks, "consume from rank {src} out of range");
        let win = self.window(src, self.id, tag);
        let (bytes, r) = match win.consume_with(|buf| (8 * buf.len() as u64, read(buf))) {
            Ok(pair) => pair,
            Err(w) => std::panic::panic_any(crate::DeltaError::WindowWedged {
                src,
                dst: self.id,
                tag,
                side: w.side,
                epoch: w.epoch,
                timeout_ms: w.timeout_ms,
            }),
        };
        obs::emit(obs::Event::MsgRecv {
            peer: rid(src),
            tag,
            bytes,
        });
        r
    }

    /// Install a fault plan on this rank (SPMD: every rank installs the
    /// same shared plan and evaluates only the entries it originates).
    /// `timeout` arms the bounded receive used to detect silent message
    /// loss; it is ignored for an empty plan so fault-free runs stay on
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

    /// Take a pack buffer for a *repeating* point-to-point stream
    /// `(dst, tag)` — the channel side of [`Rank::publish_f64`], and what
    /// checkpoint shipping uses directly. If a buffer lent on this stream
    /// is still outstanding, block until the receiver returns it (it does
    /// so right after unpacking, so per-pair FIFO order makes data and
    /// returned buffers alternate strictly on the stream) and recycle it;
    /// then take from the pool. After the first execution the same
    /// buffer ping-pongs forever: zero steady-state allocation even for
    /// one-directional streams. Models PARTI's persistent send buffers;
    /// pair with [`Rank::send_packed_f64`] / [`Rank::return_packed_f64`].
    pub fn take_pack_f64(&mut self, dst: usize, tag: u32, cap: usize) -> Vec<f64> {
        if self.outstanding.remove(&(dst, tag)) {
            let returned = self.recv_payload(dst, tag).into_f64();
            self.pool.recycle_f64(returned);
        }
        self.take_f64(cap)
    }

    /// Send a buffer obtained from [`Rank::take_pack_f64`] on its stream,
    /// marking it lent until the receiver returns it.
    pub fn send_packed_f64(&mut self, dst: usize, tag: u32, data: Vec<f64>, class: CommClass) {
        self.outstanding.insert((dst, tag));
        self.send_f64(dst, tag, data, class);
    }

    /// Return a consumed packed buffer to the rank that sent it, on the
    /// same stream. Pure pool bookkeeping (the real machine reuses a
    /// persistent send buffer): not charged as traffic, but still
    /// sequence-stamped — it travels the same wire, so the fault layer
    /// can target it and the receiver's gap detection must account
    /// for it.
    pub fn return_packed_f64(&mut self, src: usize, tag: u32, mut buf: Vec<f64>) {
        buf.clear();
        self.post(src, tag, Payload::F64(buf));
    }

    /// Take an empty pooled `f64` pack buffer with capacity ≥ `cap`. A
    /// pool miss allocates fresh storage and is charged to the rank's
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

    /// Take an empty pooled `u32` pack buffer with capacity ≥ `cap`.
    pub fn take_u32(&mut self, cap: usize) -> Vec<u32> {
        let (buf, fresh) = self.pool.take_u32(cap);
        self.note_alloc(fresh);
        buf
    }

    /// Recycle a consumed `u32` buffer back into this rank's pool.
    pub fn recycle_u32(&mut self, v: Vec<u32>) {
        self.pool.recycle_u32(v);
    }

    fn note_alloc(&mut self, fresh_bytes: u64) {
        if fresh_bytes > 0 {
            self.counters.comm_allocs += 1;
            self.counters.comm_alloc_bytes += fresh_bytes;
            // Traced only before the first recovery epoch: after a
            // rollback, which buffers the pool recycles depends on the
            // set of messages in flight at the (thread-timing-dependent)
            // abort point, so post-recovery pool misses would break the
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

    /// Directed streams share one sequence counter per `(peer, tag)`;
    /// collective tags are rotated per operation but consumed in program
    /// order per peer pair, so they fold onto a single per-peer stream —
    /// keeping the sequence maps bounded by the communication pattern,
    /// not the cycle count.
    fn stream_key(peer: usize, tag: u32) -> (usize, u32) {
        if tag >= COLLECTIVE_TAG_BASE {
            (peer, COLLECTIVE_TAG_BASE)
        } else {
            (peer, tag)
        }
    }

    /// The single exit point for every message this rank originates
    /// (charged sends, uncharged buffer returns, collectives): stamps the
    /// recovery epoch, the stream sequence number, and the payload
    /// checksum, then consults the fault plan — which may drop,
    /// duplicate, corrupt, or delay the message on the wire.
    fn post(&mut self, dst: usize, tag: u32, payload: Payload) {
        let seq = {
            let s = self.send_seq.entry(Self::stream_key(dst, tag)).or_insert(0);
            let seq = *s;
            *s += 1;
            seq
        };
        let crc = checksum(&payload);
        let action = match self.faults.as_mut() {
            Some(f) => f.action_for(self.id, dst, tag),
            None => None,
        };
        let mut payload = payload;
        match action {
            Some(FaultAction::Drop) => return, // seq consumed: receiver sees the gap
            Some(FaultAction::Duplicate) => {
                let dup = Message {
                    src: self.id,
                    tag,
                    epoch: self.epoch,
                    seq,
                    crc,
                    payload: payload.clone(),
                };
                if self.txs[dst].send(dup).is_err() {
                    unreachable!("receiver hung up");
                }
            }
            Some(FaultAction::Corrupt) => {
                // Flip one payload bit *after* the checksum was taken.
                match &mut payload {
                    Payload::F64(v) if !v.is_empty() => {
                        v[0] = f64::from_bits(v[0].to_bits() ^ 1);
                    }
                    Payload::U32(v) if !v.is_empty() => v[0] ^= 1,
                    _ => {} // nothing to corrupt: the fault misses
                }
            }
            Some(FaultAction::Delay { ticks }) => self.counters.fault_ticks += ticks,
            None => {}
        }
        let sent = self.txs[dst].send(Message {
            src: self.id,
            tag,
            epoch: self.epoch,
            seq,
            crc,
            payload,
        });
        if sent.is_err() {
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
                let key = Self::stream_key(m.src, m.tag);
                let want = *self.recv_seq.entry(key).or_insert(0);
                if m.seq < want {
                    // A duplicated message we already consumed.
                    self.counters.dup_discards += 1;
                    self.recycle_payload(payload);
                    return None;
                }
                if m.seq > want {
                    // A message on this stream was lost in flight.
                    self.raise_recovery(self.epoch + 1, FaultCause::Lost);
                }
                self.recv_seq.insert(key, want + 1);
                if checksum(&payload) != m.crc {
                    self.raise_recovery(self.epoch + 1, FaultCause::Corrupt);
                }
                Some((m.src, m.tag, payload))
            }
        }
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
    /// numbers and the collective counter, forget lent pack buffers, and
    /// broadcast an `Abort` so peers still computing join the epoch
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
    /// (recycling its storage), reset every stream's sequence numbers and
    /// the collective counter, and forget lent pack buffers.
    fn reset_streams(&mut self) {
        let stash = std::mem::take(&mut self.stash);
        for (_, q) in stash {
            for p in q {
                self.recycle_payload(p);
            }
        }
        self.send_seq.clear();
        self.recv_seq.clear();
        self.outstanding.clear();
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
    /// (the adopted partition's traffic pattern, not the host's).
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
        );
        r.epoch = self.epoch;
        r.dead = self.dead.clone();
        r.recv_timeout = self.recv_timeout;
        r.cost = self.cost;
        // Windows are deliberately not inherited: adoption only happens
        // under a fault plan, and fault-injected runs stay entirely on
        // the modeled channels.
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
