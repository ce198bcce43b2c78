//! The per-rank SPMD context: record streams on shared-memory windows,
//! the deterministic collectives and the inspector's all-to-all that
//! ride them, and the notices that carry failures between ranks.

use std::collections::HashMap;
use std::panic::panic_any;
use std::sync::Arc;
use std::time::Duration;

use eul3d_obs as obs;

use crate::cost::CostModel;
use crate::fault::{FaultAction, FaultCause, FaultPlan, FaultSignal, FaultState};
use crate::msg::{checksum_f64, corrupt_f64, CommClass, Inbox, Notice, RankCounters};
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
/// below `u32::MAX`); kept checked so a later cap change cannot
/// silently truncate.
pub(crate) fn rid(r: usize) -> u32 {
    u32::try_from(r).unwrap_or_else(|_| unreachable!("rank id {r} exceeds u32"))
}

/// Reserved tag space for collectives; schedule tags must stay below
/// it. Window keys from here up belong to control traffic: in epoch `e`
/// every collective and inspector request from one rank to another
/// rides the one window keyed `COLLECTIVE_TAG_BASE + e`.
pub const COLLECTIVE_TAG_BASE: u32 = 0xF000_0000;

/// One rank's handle onto the simulated machine. Passed by the SPMD
/// driver to the rank body; all communication goes through it.
pub struct Rank {
    pub id: usize,
    pub nranks: usize,
    /// Accounting; read back by the driver after the run.
    pub counters: RankCounters,
    /// Monotonic counter for the logical tags of collectives.
    collective_seq: u32,
    /// Columns of the (nearly square) 2-D mesh the ranks are mapped
    /// onto, row-major — used only for hop accounting.
    mesh_cols: usize,
    /// Tag ranges claimed by schedules on this rank, for collision
    /// detection at build time.
    reserved_tags: Vec<(u32, u32)>,
    /// Current recovery epoch; 0 until the first failure. Selects the
    /// control windows; schedule tags shift with it.
    epoch: u32,
    /// Next sequence number per outgoing window `(dst, key)`, reset
    /// each epoch.
    send_seq: HashMap<(usize, u32), u64>,
    /// Next expected sequence number per incoming window `(src, key)`.
    recv_seq: HashMap<(usize, u32), u64>,
    /// Ranks known to have died (physically — their partitions live on
    /// as adopted virtual ranks after recovery).
    dead: Vec<bool>,
    /// Fault-plan evaluation state; `None` on fault-free runs.
    faults: Option<FaultState>,
    /// Bounded window-wait timeout; armed only when a fault plan that
    /// can drop is installed.
    recv_timeout: Option<Duration>,
    /// Machine constants used to price this rank's traffic on the
    /// modeled clock (the pluggable `CommCost` seam).
    cost: CostModel,
    /// The machine's shared-memory window registry: every record of
    /// this rank rides it.
    windows: Arc<WindowRegistry>,
    /// Per-rank cache of windows so the steady state never takes the
    /// registry lock.
    window_cache: HashMap<(usize, usize, u32), Arc<Window>>,
    /// Every rank's inbox: this rank reads `inboxes[id]` (an adopted
    /// replica reads the dead rank's) and posts notices to the rest.
    inboxes: Arc<[Inbox]>,
}

impl Rank {
    pub(crate) fn new(
        id: usize,
        nranks: usize,
        windows: Arc<WindowRegistry>,
        inboxes: Arc<[Inbox]>,
    ) -> Rank {
        let (_, cols) = mesh_dims(nranks);
        Rank {
            id,
            nranks,
            counters: RankCounters::default(),
            collective_seq: 0,
            mesh_cols: cols,
            reserved_tags: Vec::new(),
            epoch: 0,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            dead: vec![false; nranks],
            faults: None,
            recv_timeout: None,
            cost: CostModel::delta_i860(),
            windows,
            window_cache: HashMap::new(),
            inboxes,
        }
    }

    /// The cost model pricing this rank's modeled wire time.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Swap in another window registry: every record from here on moves
    /// through its windows, and the cached windows of the old one are
    /// forgotten, so this rank and its peers meet in the same windows.
    /// Every rank of the machine must swap at the same point of its
    /// program.
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
    /// shared-memory window (`cap` values expected). The record is
    /// stamped, exposed to the fault plan and charged as `class` traffic
    /// of 8 bytes per value ([`Rank::publish_words`]). Blocks only while
    /// the stream's previous record is unread. Pair with
    /// [`Rank::consume_f64`] on `dst`; every rank publishes all of an
    /// exchange's records before consuming any (see [`crate::shm`] for
    /// why that cannot deadlock). `tag` must sit below the control
    /// windows' keys.
    pub fn publish_f64<F>(&mut self, dst: usize, tag: u32, class: CommClass, cap: usize, fill: F)
    where
        F: FnOnce(&mut Vec<f64>),
    {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag collides with collective space"
        );
        self.publish_words(dst, tag, tag, class, 8, cap, fill);
    }

    /// Read the next record `src` published on stream `(me, tag)`, in
    /// place, and hand its storage back to the sender
    /// ([`Rank::consume_words`]).
    pub fn consume_f64<R>(&mut self, src: usize, tag: u32, read: impl FnOnce(&[f64]) -> R) -> R {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag collides with collective space"
        );
        self.consume_words(src, tag, tag, 8, read)
    }

    /// The one body every record runs on its way out, onto window `key`
    /// of `(me, dst)`. The fault plan and the trace see the logical
    /// `tag` (a schedule tag, the rotating tag of a collective, or the
    /// schedule tag an inspector request serves); the record is charged
    /// as `class` traffic of `word_bytes` per value: counters, hops,
    /// trace event and modeled wire time. A record whose storage grows
    /// is charged to the allocation counters, so a warmed-up window
    /// allocates nothing.
    #[allow(clippy::too_many_arguments)]
    fn publish_words<F>(
        &mut self,
        dst: usize,
        key: u32,
        tag: u32,
        class: CommClass,
        word_bytes: u64,
        cap: usize,
        fill: F,
    ) where
        F: FnOnce(&mut Vec<f64>),
    {
        assert!(dst < self.nranks, "publish to rank {dst} out of range");
        assert_ne!(dst, self.id, "self-publish is a schedule bug");
        self.tick_fault_op();
        let win = self.window(self.id, dst, key);
        if let Err(w) = win.wait_free(|waited| self.listen(waited)) {
            self.wedged(self.id, dst, key, w);
        }
        let mut len = 0;
        win.publish_with(|rec| {
            let had = rec.data.capacity();
            rec.data.reserve_exact(cap);
            fill(&mut rec.data);
            self.note_alloc(8 * (rec.data.capacity() - had) as u64);
            len = rec.data.len();
            rec.crc = checksum_f64(&rec.data);
            let (seq, copies) = self.stamp_out(dst, key, tag, || corrupt_f64(&mut rec.data));
            rec.seq = seq;
            rec.dup = copies == 2;
            copies > 0
        });
        let bytes = word_bytes * len as u64;
        let hops = self.hops_to(dst);
        self.counters.record_send(class, bytes);
        self.counters.record_hops(hops);
        // The sender pays the modeled wire time (latency + bytes/bw +
        // hops), and the event is stamped before the clock advances so
        // the instant sits at the send's start.
        obs::emit(obs::Event::MsgSend {
            peer: rid(dst),
            tag,
            bytes,
        });
        obs::advance_ns(self.cost.send_ns(bytes, hops));
    }

    /// The one body every record runs on its way in, from window `key`
    /// of `(src, me)`. The record's stamp passes [`Rank::admit`] — a
    /// duplicated record is admitted once and refused once — before
    /// `read` sees it. Receives are sender-priced, so only the event is
    /// recorded (`word_bytes` per value, under the logical `tag`).
    fn consume_words<R>(
        &mut self,
        src: usize,
        key: u32,
        tag: u32,
        word_bytes: u64,
        read: impl FnOnce(&[f64]) -> R,
    ) -> R {
        assert!(src < self.nranks, "consume from rank {src} out of range");
        self.tick_fault_op();
        let win = self.window(src, self.id, key);
        if let Err(w) = win.wait_ready(|waited| self.listen(waited)) {
            self.wedged(src, self.id, key, w);
        }
        let (len, r) = win.consume_with(|rec| {
            let crc_ok = || checksum_f64(&rec.data) == rec.crc;
            if !self.admit(src, key, rec.seq, crc_ok) {
                unreachable!(
                    "window {src}->{} key {key} replayed seq {}",
                    self.id, rec.seq
                );
            }
            if rec.dup {
                self.admit(src, key, rec.seq, || true);
            }
            (rec.data.len(), read(&rec.data))
        });
        obs::emit(obs::Event::MsgRecv {
            peer: rid(src),
            tag,
            bytes: word_bytes * len as u64,
        });
        r
    }

    /// The cached window for directed stream `(src, dst, key)`.
    fn window(&mut self, src: usize, dst: usize, key: u32) -> Arc<Window> {
        let reg = &self.windows;
        self.window_cache
            .entry((src, dst, key))
            .or_insert_with(|| reg.stream(src, dst, key))
            .clone()
    }

    /// The control window key of the current epoch.
    fn control_key(&self) -> u32 {
        COLLECTIVE_TAG_BASE
            .checked_add(self.epoch)
            .unwrap_or_else(|| unreachable!("epoch {} overflows the control keys", self.epoch))
    }

    /// What a rank blocked in a window wait does on every yield: heed
    /// the notices in its inbox, oldest first, so a peer's death, abort
    /// or panic unwinds the wait; and, once the plan's bounded timeout
    /// has passed, give the record up as dropped.
    fn listen(&mut self, waited: Duration) {
        while let Some(n) = self.inboxes[self.id].take() {
            self.heed(n);
        }
        if self.recv_timeout.is_some_and(|t| waited >= t) {
            self.raise_recovery(self.epoch + 1, FaultCause::Timeout);
        }
    }

    /// Act on one notice: a peer's panic aborts this rank; a peer's
    /// death or abort that teaches it something unwinds it into
    /// recovery; a notice it already knows is absorbed.
    fn heed(&mut self, n: Notice) {
        match n {
            Notice::Poison { src } => panic!(
                "rank {src} panicked; rank {} aborting blocked receive",
                self.id
            ),
            Notice::Dead { src, epoch } => {
                if !self.dead[src] {
                    self.dead[src] = true;
                    self.raise_recovery(epoch.max(self.epoch + 1), FaultCause::PeerDeath);
                }
            }
            Notice::Abort { epoch, dead } => {
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
                let target = if news {
                    (self.epoch + 1).max(epoch)
                } else {
                    epoch
                };
                if target > self.epoch {
                    self.raise_recovery(target, FaultCause::PeerAbort);
                }
            }
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
    /// `timeout` arms the bounded window wait used to detect silent
    /// record loss; it is ignored for an empty plan so fault-free runs
    /// stay on the plain wait, and ignored unless the plan can actually
    /// drop a record ([`FaultPlan::may_drop`]) — a wall-clock timeout is
    /// only sound when armed against a modeled drop, never against a
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
    /// cycle-gated record faults key off it).
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

    /// Size the caller-owned staging buffer `buf` to `len` zeros,
    /// charging any growth of its storage to the allocation counters as
    /// a window record's growth is charged: a buffer reused across
    /// cycles allocates once.
    pub fn stage_f64(&mut self, buf: &mut Vec<f64>, len: usize) {
        let had = buf.capacity();
        buf.clear();
        buf.reserve_exact(len);
        buf.resize(len, 0.0);
        self.note_alloc(8 * (buf.capacity() - had) as u64);
    }

    /// Charge fresh communication storage — a window record's or a
    /// staging buffer's growth — to the allocation counters.
    fn note_alloc(&mut self, fresh_bytes: u64) {
        if fresh_bytes > 0 {
            self.counters.comm_allocs += 1;
            self.counters.comm_alloc_bytes += fresh_bytes;
            // Traced only before the first recovery epoch: after a
            // rollback, which windows a rank has already grown depends
            // on where the (thread-timing-dependent) abort caught it, so
            // post-recovery growth would break the bit-identical-trace
            // guarantee. The counters above always accumulate.
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

    /// Stamp the next record on outgoing window `(dst, key)` and let the
    /// fault plan act on it under its logical `tag`. The caller took the
    /// payload's checksum first; `corrupt` flips a payload bit after it.
    /// Returns the record's sequence number and how many copies reach
    /// the wire: 0 when the plan drops it (its sequence number is still
    /// consumed, so the receiver sees the gap), 2 when it duplicates it.
    fn stamp_out(
        &mut self,
        dst: usize,
        key: u32,
        tag: u32,
        corrupt: impl FnOnce(),
    ) -> (u64, usize) {
        let seq = {
            let s = self.send_seq.entry((dst, key)).or_insert(0);
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

    /// Count one communication operation against the fault plan; dies on
    /// the spot (unwinding with [`FaultSignal::Killed`]) if a kill fires.
    fn tick_fault_op(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            if f.tick_op(self.id) {
                panic_any(FaultSignal::Killed);
            }
        }
    }

    /// Unwind into recovery: epoch `target`, current dead-rank view.
    fn raise_recovery(&mut self, target: u32, cause: FaultCause) -> ! {
        panic_any(FaultSignal::Recover {
            epoch: target,
            dead: self.dead_ranks(),
            cause,
        })
    }

    /// The receive-side stamp check every record from window
    /// `(src, key)` passes: a sequence number already seen is a
    /// duplicate — counted and refused (false); one past the expected
    /// means a record on the window was lost in flight, and a checksum
    /// mismatch (`crc_ok` false) that the payload was corrupted — both
    /// unwind into recovery.
    fn admit(&mut self, src: usize, key: u32, seq: u64, crc_ok: impl FnOnce() -> bool) -> bool {
        let want = *self.recv_seq.entry((src, key)).or_insert(0);
        if seq < want {
            self.counters.dup_discards += 1;
            return false;
        }
        if seq > want {
            self.raise_recovery(self.epoch + 1, FaultCause::Lost);
        }
        self.recv_seq.insert((src, key), want + 1);
        if !crc_ok() {
            self.raise_recovery(self.epoch + 1, FaultCause::Corrupt);
        }
        true
    }

    /// Post `n` to every other rank's inbox.
    fn notify_peers(&self, n: impl Fn() -> Notice) {
        for (dst, inbox) in self.inboxes.iter().enumerate() {
            if dst != self.id {
                inbox.post(n());
            }
        }
    }

    /// Notify every peer that this rank is going down (called by
    /// `run_spmd` while unwinding a panic), so a peer blocked in a wait
    /// aborts instead of wedging.
    pub(crate) fn poison_peers(&self) {
        self.notify_peers(|| Notice::Poison { src: self.id });
    }

    /// Announce this rank's (fault-injected) death to every peer. Called
    /// by a recovery-aware driver when the body unwinds with
    /// [`FaultSignal::Killed`]; survivors recover into `epoch() + 1`.
    /// Uncharged: the machine's death notice, not a record the dead
    /// program sends.
    pub fn announce_death(&mut self) {
        self.dead[self.id] = true;
        let epoch = self.epoch + 1;
        self.notify_peers(|| Notice::Dead {
            src: self.id,
            epoch,
        });
    }

    /// Enter recovery epoch `epoch`: reset every window's sequence
    /// numbers and the collective counter (the epoch's control windows
    /// and shifted schedule tags are fresh windows; the old epoch's are
    /// abandoned unread), and post an `Abort` so peers still computing
    /// join the epoch instead of timing out one by one. The caller then
    /// rebuilds schedules and restores state collectively.
    pub fn begin_recovery(&mut self, epoch: u32) {
        assert!(
            epoch > self.epoch,
            "recovery epoch must advance: {} -> {epoch}",
            self.epoch
        );
        self.epoch = epoch;
        self.counters.recoveries += 1;
        self.reset_streams();
        let dead = self.dead_ranks();
        // Wire size: the epoch word and one word per dead rank.
        let bytes = 4 + 4 * dead.len() as u64;
        let me = self.id;
        for dst in (0..self.nranks).filter(|&d| d != me) {
            let hops = self.hops_to(dst);
            self.counters.record_send(CommClass::Recovery, bytes);
            self.counters.record_hops(hops);
            obs::emit(obs::Event::MsgSend {
                peer: rid(dst),
                tag: 0,
                bytes,
            });
            obs::advance_ns(self.cost.send_ns(bytes, hops));
            self.inboxes[dst].post(Notice::Abort {
                epoch,
                dead: dead.clone(),
            });
        }
    }

    /// Silently advance to `epoch` — the planned-migration variant of
    /// [`Rank::begin_recovery`]. Every rank reaches the same committed
    /// boundary by construction and bumps independently, so there is no
    /// `Abort` (nobody needs sweeping), no recovery count, and no
    /// rollback. A faster peer's new-epoch records wait in the new
    /// epoch's windows until this rank gets there.
    pub fn advance_epoch(&mut self, epoch: u32) {
        assert!(
            epoch > self.epoch,
            "epoch must advance: {} -> {epoch}",
            self.epoch
        );
        self.epoch = epoch;
        self.reset_streams();
    }

    /// Shared epoch-entry reset: every window's sequence numbers and the
    /// collective counter start over.
    fn reset_streams(&mut self) {
        self.send_seq.clear();
        self.recv_seq.clear();
        self.collective_seq = 0;
    }

    /// Build a fresh [`Rank`] handle that takes over dead rank `vid`'s
    /// windows and inbox. The instance starts in the current epoch with
    /// the current dead-rank view and a fault state that treats
    /// everything targeting `vid` as already consumed — those events
    /// happened to the node that died, not to its replacement. Tag
    /// reservations and window counters start empty; the hosting node
    /// re-runs schedule construction for it. Hop accounting keeps
    /// `vid`'s mesh position (the adopted partition's traffic pattern,
    /// not the host's), and the replica's records ride the host's window
    /// registry.
    pub fn adopt(&self, vid: usize) -> Rank {
        assert!(self.dead[vid], "adopting a live rank");
        assert_ne!(vid, self.id, "a rank cannot adopt itself");
        let mut r = Rank::new(vid, self.nranks, self.windows.clone(), self.inboxes.clone());
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

    fn next_collective_tag(&mut self) -> u32 {
        // Wraps within the reserved space; fine because tags are
        // consumed in program order on every rank (deterministic
        // network).
        let t = COLLECTIVE_TAG_BASE + (self.collective_seq % 0x0FFF_FFFF);
        self.collective_seq = self.collective_seq.wrapping_add(1);
        t
    }

    /// Publish `vals` to `dst` as one collective record on the control
    /// window.
    fn post_values(&mut self, dst: usize, tag: u32, vals: &[f64]) {
        let key = self.control_key();
        self.publish_words(dst, key, tag, CommClass::Collective, 8, vals.len(), |b| {
            b.extend_from_slice(vals)
        });
    }

    /// Read the next collective record from `src` off the control window.
    fn take_values<R>(&mut self, src: usize, tag: u32, read: impl FnOnce(&[f64]) -> R) -> R {
        let key = self.control_key();
        self.consume_words(src, key, tag, 8, read)
    }

    /// Deterministic element-wise reduction across ranks, in place: fan
    /// in to rank 0, which folds the parts in rank order with `combine`,
    /// then fan the result out. Rank 0 consumes all n−1 parts before it
    /// publishes any result (see [`crate::shm`]).
    fn reduce_in_place(&mut self, vals: &mut [f64], what: &str, combine: fn(f64, f64) -> f64) {
        let tag = self.next_collective_tag();
        if self.id == 0 {
            for src in 1..self.nranks {
                self.take_values(src, tag, |part| {
                    assert_eq!(part.len(), vals.len(), "{what} length mismatch");
                    for (a, &p) in vals.iter_mut().zip(part) {
                        *a = combine(*a, p);
                    }
                });
            }
            for dst in 1..self.nranks {
                self.post_values(dst, tag, vals);
            }
        } else {
            self.post_values(0, tag, vals);
            self.take_values(0, tag, |acc| vals.copy_from_slice(acc));
        }
    }

    /// Deterministic element-wise sum across ranks, in place: gather to
    /// rank 0 in rank order, reduce there, broadcast back. Mirrors the
    /// paper's residual-monitoring global sums. Allocation-free once the
    /// control windows' records are warm.
    pub fn all_reduce_sum_in_place(&mut self, vals: &mut [f64]) {
        self.reduce_in_place(vals, "all_reduce", |a, p| a + p);
    }

    /// Allocating convenience wrapper over [`Rank::all_reduce_sum_in_place`].
    pub fn all_reduce_sum(&mut self, vals: &[f64]) -> Vec<f64> {
        let mut out = vals.to_vec();
        self.all_reduce_sum_in_place(&mut out);
        out
    }

    /// Deterministic element-wise max across ranks, in place (same
    /// pattern as [`Rank::all_reduce_sum_in_place`]).
    pub fn all_reduce_max_in_place(&mut self, vals: &mut [f64]) {
        self.reduce_in_place(vals, "all_reduce_max", f64::max);
    }

    /// Allocating convenience wrapper over [`Rank::all_reduce_max_in_place`].
    pub fn all_reduce_max(&mut self, vals: &[f64]) -> Vec<f64> {
        let mut out = vals.to_vec();
        self.all_reduce_max_in_place(&mut out);
        out
    }

    /// Broadcast from `root` into `vals` on every rank, in place.
    pub fn broadcast_in_place(&mut self, root: usize, vals: &mut [f64]) {
        let tag = self.next_collective_tag();
        if self.id == root {
            for dst in (0..self.nranks).filter(|&d| d != root) {
                self.post_values(dst, tag, vals);
            }
        } else {
            self.take_values(root, tag, |got| {
                assert_eq!(got.len(), vals.len(), "broadcast length mismatch");
                vals.copy_from_slice(got);
            });
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
    pub fn gather_to_root_into(&mut self, root: usize, vals: &[f64], out: &mut Vec<f64>) {
        let tag = self.next_collective_tag();
        out.clear();
        if self.id == root {
            for src in 0..self.nranks {
                if src == root {
                    out.extend_from_slice(vals);
                } else {
                    self.take_values(src, tag, |part| out.extend_from_slice(part));
                }
            }
        } else {
            self.post_values(root, tag, vals);
        }
    }

    /// Allocating convenience wrapper over [`Rank::gather_to_root_into`].
    pub fn gather_to_root(&mut self, root: usize, vals: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.gather_to_root_into(root, vals, &mut out);
        out
    }

    /// Personalised all-to-all of index lists — the inspector's request
    /// exchange: publish `lists[p]` to every peer `p` (empty lists too),
    /// then hand each peer's list for this rank to `read`, in rank
    /// order. Each list is one record on the control window, charged as
    /// `class` traffic of 4 bytes per index under the schedule's `tag`.
    pub fn all_to_all_u32(
        &mut self,
        tag: u32,
        class: CommClass,
        lists: &[Vec<u32>],
        mut read: impl FnMut(usize, &[u32]),
    ) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag collides with collective space"
        );
        assert_eq!(lists.len(), self.nranks, "one list per rank");
        let key = self.control_key();
        for (peer, list) in lists.iter().enumerate() {
            if peer != self.id {
                self.publish_words(peer, key, tag, class, 4, list.len(), |b| {
                    b.extend(list.iter().map(|&g| f64::from(g)))
                });
            }
        }
        let mut got = Vec::new();
        let me = self.id;
        for peer in (0..self.nranks).filter(|&p| p != me) {
            self.consume_words(peer, key, tag, 4, |rec| {
                got.clear();
                got.extend(rec.iter().map(|&g| g as u32));
            });
            read(peer, &got);
        }
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
