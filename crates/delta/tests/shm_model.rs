//! Exhaustive model checking of the hybrid backend's shared-memory
//! window protocol (`eul3d_delta::shm::Window`) — the capacity-1 SPSC
//! seqlock whose two monotonic counters (`published` / `consumed`)
//! carry the entire ownership discipline.
//!
//! Loom is not available in this tree, so this is a hand-rolled
//! explicit-state checker: each side of the protocol is decomposed into
//! the same atomic steps the implementation performs (guard load →
//! buffer write/read in two non-atomic halves → counter store), and a
//! DFS enumerates **every** interleaving of those steps for a small
//! number of epochs, with counter loads additionally allowed to return
//! **stale** (older) values — the only staleness Release/Acquire on
//! monotonic counters permits. At every reachable state the checker
//! asserts:
//!
//! * **mutual exclusion** — writer and reader never own the buffer
//!   simultaneously (the `UnsafeCell` safety argument);
//! * **coherence** — a reader holding the buffer sees both halves from
//!   exactly the epoch it is consuming (no torn reads);
//! * **bounded epochs** — `consumed ≤ published ≤ consumed + 1`;
//! * **exactly-once, in-order** — epochs are consumed as 0, 1, 2, …;
//! * **deadlock freedom** — every non-terminal state has a successor,
//!   and every terminal state has both sides finished.
//!
//! To prove the checker has teeth, mutated protocols (publish before
//! the buffer is fully written — a missing Release edge; consume
//! without the guard — a missing Acquire edge) must each be *caught*.
//! A publisher that may die at any step mid-stream models the fault
//! path: the dead rank's notice lands in the reader's mailbox, and the
//! reader's wait, which listens to it, must leave through the abort
//! path in every interleaving — while a mutant wait that ignores the
//! mailbox must be caught as a deadlock.
//! A second model checks the exchange-ordering deadlock-freedom claim
//! from the module docs: publish-all-sends-then-consume is deadlock
//! free, while consume-first on both sides deadlocks — and the checker
//! must find that deadlock. A third checks the collective shape: a root
//! that consumes every member's part and then publishes the result to
//! every member, back to back over capacity-1 windows, is deadlock free
//! and never hands out a partial result; a member that dies anywhere
//! releases every waiter through its notice. A root that publishes
//! before it consumes, and a root whose wait ignores its inbox, must
//! each be caught.
//!
//! This complements the TSan job and the in-crate stress tests: those
//! sample real schedules under the real memory model; this enumerates
//! all schedules under the modeled one.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;

/// Epochs each side runs in the model. Three is enough to cover
/// steady-state wrap behaviour (fill → drain → refill) while keeping
/// the state space tiny.
const EPOCHS: u64 = 3;

/// Marker for a buffer half that no epoch has written yet.
const UNWRITTEN: u64 = u64::MAX;

/// Protocol variants: the real one, plus mutations the checker must
/// reject.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The shipped protocol.
    Correct,
    /// Writer bumps `published` before the second buffer half is
    /// written — models the store being reordered past the buffer
    /// writes (i.e. a missing `Release`).
    PublishBeforeFill,
    /// Reader touches the buffer without waiting for the guard —
    /// models a missing `Acquire`/guard check.
    ConsumeWithoutGuard,
    /// The shipped protocol, with a publisher that may die at any step
    /// and then announce its death to the reader's mailbox.
    DyingPublisher,
    /// BUG MODEL: a dying publisher, and a reader whose wait never
    /// looks at its mailbox.
    DyingPublisherDeafWait,
}

impl Variant {
    fn publisher_dies(self) -> bool {
        matches!(
            self,
            Variant::DyingPublisher | Variant::DyingPublisherDeafWait
        )
    }
}

/// One interleaved machine state. `*_pc` walk the atomic steps:
/// 0 = at guard, 1 = first buffer half done, 2 = second half done,
/// (writer) 3 ≡ wrapped back after the counter store.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    w_pc: u8,
    r_pc: u8,
    /// Epochs fully published / consumed (also the counters' values,
    /// updated by the pc-3 steps).
    published: u64,
    consumed: u64,
    /// What each side's *next* guard load is allowed to be stale down
    /// to: the freshest value that side has already observed.
    w_floor: u64,
    r_floor: u64,
    /// Epoch markers in the two buffer halves.
    buf_lo: u64,
    buf_hi: u64,
    /// The publisher died (it takes no further step but the notice).
    w_dead: bool,
    /// Its death notice sits in the reader's mailbox.
    notice: bool,
    /// The reader left its wait through the abort path.
    r_aborted: bool,
}

impl State {
    fn initial() -> State {
        State {
            w_pc: 0,
            r_pc: 0,
            published: 0,
            consumed: 0,
            w_floor: 0,
            r_floor: 0,
            buf_lo: UNWRITTEN,
            buf_hi: UNWRITTEN,
            w_dead: false,
            notice: false,
            r_aborted: false,
        }
    }

    fn writer_done(&self) -> bool {
        self.w_pc == 0 && self.published == EPOCHS
    }

    fn reader_done(&self) -> bool {
        self.r_pc == 0 && self.consumed == EPOCHS
    }

    /// The writer takes no more steps: it finished, or it died and its
    /// notice is out.
    fn writer_finished(&self) -> bool {
        self.writer_done() || self.notice
    }

    /// The reader takes no more steps: it finished, or it aborted.
    fn reader_finished(&self) -> bool {
        self.reader_done() || self.r_aborted
    }
}

/// Check the per-state safety invariants; returns a violation message.
fn safety(s: &State, variant: Variant) -> Option<String> {
    let w_owns = !s.w_dead && (s.w_pc == 1 || s.w_pc == 2);
    let r_owns = s.r_pc == 1 || s.r_pc == 2;
    if w_owns && r_owns {
        return Some(format!(
            "mutual exclusion violated: writer pc={} and reader pc={} both own the buffer \
             (published={}, consumed={})",
            s.w_pc, s.r_pc, s.published, s.consumed
        ));
    }
    if s.consumed > s.published || s.published - s.consumed > 1 {
        return Some(format!(
            "epoch bound violated: published={} consumed={}",
            s.published, s.consumed
        ));
    }
    // Coherence: while the reader owns the buffer, the halves it has
    // already read must have carried its epoch. pc=1 means it read the
    // low half, pc=2 both.
    if r_owns {
        let epoch = s.consumed;
        if s.buf_lo != epoch {
            return Some(format!(
                "torn read: reader of epoch {epoch} sees low half from {:?} \
                 (variant exposes a missing happens-before edge)",
                s.buf_lo
            ));
        }
        if s.r_pc == 2 && s.buf_hi != epoch {
            return Some(format!(
                "torn read: reader of epoch {epoch} sees high half from {:?}",
                s.buf_hi
            ));
        }
    }
    let _ = variant;
    None
}

/// All successor states of `s` under `variant`. Guard steps fan out
/// over every staleness choice the memory model allows.
fn successors(s: &State, variant: Variant) -> Vec<State> {
    let mut out = Vec::new();

    // Writer transitions. A dying publisher may die before any step —
    // mid-fill included, leaving the record unpublished — and its next
    // step is then the death notice.
    if s.w_dead {
        if !s.notice {
            let mut n = *s;
            n.notice = true;
            out.push(n);
        }
    } else if !s.writer_done() {
        if variant.publisher_dies() {
            let mut n = *s;
            n.w_dead = true;
            out.push(n);
        }
        match s.w_pc {
            0 => {
                // Guard: load `consumed` with any staleness down to the
                // writer's floor. The guard passes iff the loaded value
                // equals `published` (writer-owned state).
                for loaded in s.w_floor..=s.consumed {
                    let mut n = *s;
                    n.w_floor = loaded;
                    if loaded == s.published {
                        n.w_pc = 1;
                        // The real writer clears the buffer before
                        // filling: model the first half write here.
                        n.buf_lo = s.published;
                        out.push(n);
                    } else if loaded != s.w_floor {
                        // Spin observed a newer (still failing) value:
                        // a distinct state, else a no-op self-loop.
                        out.push(n);
                    }
                }
            }
            1 => {
                if variant == Variant::PublishBeforeFill {
                    // BUG MODEL: the counter store is reordered before
                    // the second half write.
                    let mut n = *s;
                    n.published += 1;
                    n.w_pc = 2;
                    out.push(n);
                } else {
                    let mut n = *s;
                    n.buf_hi = s.published;
                    n.w_pc = 2;
                    out.push(n);
                }
            }
            2 => {
                let mut n = *s;
                if variant == Variant::PublishBeforeFill {
                    // The write that should have preceded the store.
                    n.buf_hi = s.published - 1;
                } else {
                    n.published += 1;
                }
                n.w_pc = 0;
                out.push(n);
            }
            _ => unreachable!("writer pc"),
        }
    }

    // Reader transitions.
    if !s.reader_finished() {
        match s.r_pc {
            0 => {
                if variant == Variant::ConsumeWithoutGuard {
                    // BUG MODEL: skip the guard entirely.
                    let mut n = *s;
                    n.r_pc = 1;
                    out.push(n);
                } else {
                    for loaded in s.r_floor..=s.published {
                        let mut n = *s;
                        n.r_floor = loaded;
                        if loaded > s.consumed {
                            n.r_pc = 1;
                            out.push(n);
                        } else if s.notice && variant != Variant::DyingPublisherDeafWait {
                            // A failed guard yields and listens to the
                            // mailbox: the death notice unwinds the wait.
                            n.r_aborted = true;
                            out.push(n);
                        } else if loaded != s.r_floor {
                            out.push(n);
                        }
                    }
                }
            }
            1 => {
                let mut n = *s;
                n.r_pc = 2;
                out.push(n);
            }
            2 => {
                let mut n = *s;
                n.consumed += 1;
                n.r_pc = 0;
                out.push(n);
            }
            _ => unreachable!("reader pc"),
        }
    }
    out
}

/// Exhaustively explore `variant`; returns the first safety/liveness
/// violation found, or stats on success.
fn explore(variant: Variant) -> Result<(usize, usize), String> {
    let mut visited: HashSet<State> = HashSet::new();
    let mut stack = vec![State::initial()];
    let mut terminals = 0usize;
    while let Some(s) = stack.pop() {
        if !visited.insert(s) {
            continue;
        }
        if let Some(v) = safety(&s, variant) {
            return Err(v);
        }
        if s.writer_finished() && s.reader_finished() {
            if s.w_dead != s.r_aborted {
                return Err(format!(
                    "terminal state with a {} publisher and a reader that {}",
                    if s.w_dead { "dead" } else { "live" },
                    if s.r_aborted { "aborted" } else { "finished" }
                ));
            }
            if !s.w_dead && (s.published != EPOCHS || s.consumed != EPOCHS) {
                return Err(format!(
                    "terminal state with published={} consumed={}",
                    s.published, s.consumed
                ));
            }
            terminals += 1;
            continue;
        }
        let next = successors(&s, variant);
        // Deadlock: a non-terminal state no interleaving can leave.
        // Guard self-loops (stale re-reads of an unchanged value) were
        // already excluded by `successors`.
        if next.iter().all(|n| n == &s) || next.is_empty() {
            return Err(format!(
                "deadlock: writer pc={} epoch={} / reader pc={} epoch={}",
                s.w_pc, s.published, s.r_pc, s.consumed
            ));
        }
        stack.extend(next);
    }
    Ok((visited.len(), terminals))
}

#[test]
fn window_protocol_is_safe_and_live_under_all_interleavings() {
    let (states, terminals) = explore(Variant::Correct)
        .unwrap_or_else(|v| panic!("protocol violation found by model checker: {v}"));
    // The space must be larger than one serialized trace (a single
    // straight-line execution of 3 epochs is 18 states) — i.e. the DFS
    // really explored overlapping guard/ownership states — and every
    // path must converge on the unique all-done terminal. The space is
    // *legitimately* small: capacity-1 ownership alternation means most
    // steps strictly serialize, which is exactly the property proved.
    assert!(states > 18, "no concurrency explored: {states} states");
    assert_eq!(terminals, 1, "all interleavings converge to one terminal");
}

#[test]
fn checker_catches_publish_before_fill() {
    let v = explore(Variant::PublishBeforeFill)
        .expect_err("a publish reordered before the buffer write must be caught");
    // The premature counter store lets the reader's guard pass while
    // the writer still holds the buffer: depending on DFS order it
    // surfaces as the ownership break or as the resulting torn read.
    assert!(
        v.contains("mutual exclusion") || v.contains("torn read"),
        "wrong violation class: {v}"
    );
}

#[test]
fn checker_catches_consume_without_guard() {
    let v = explore(Variant::ConsumeWithoutGuard)
        .expect_err("consuming without the guard must be caught");
    assert!(
        v.contains("torn read") || v.contains("mutual exclusion") || v.contains("epoch bound"),
        "wrong violation class: {v}"
    );
}

#[test]
fn a_dead_publisher_releases_its_reader_through_the_abort_path() {
    let (states, terminals) = explore(Variant::DyingPublisher)
        .unwrap_or_else(|v| panic!("dying-publisher violation found by model checker: {v}"));
    // Besides the all-done terminal, one terminal per place the
    // publisher can die: every one of them reached with the reader
    // aborted (checked in `explore`), none deadlocked.
    assert!(terminals > 1, "no death explored: {terminals} terminals");
    let (plain, _) = explore(Variant::Correct).expect("shipped protocol");
    assert!(states > plain, "deaths add states: {states} vs {plain}");
}

#[test]
fn checker_catches_a_wait_deaf_to_the_abort() {
    let v = explore(Variant::DyingPublisherDeafWait)
        .expect_err("a wait that ignores the death notice must be caught");
    assert!(v.contains("deadlock"), "wrong violation class: {v}");
}

// ---------------------------------------------------------------------
// Exchange-ordering model: two ranks, two directed streams. The module
// docs claim deadlock freedom because every rank publishes all its
// sends before consuming any receive. Model both that ordering and the
// broken consume-first ordering; each rank's stream op is atomic here
// (the single-stream model above already covers intra-op interleaving).
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ExchangeState {
    /// Per rank: (next op index, epochs completed).
    pc: [u8; 2],
    epoch: [u64; 2],
    /// Per directed stream `a→b`, `b→a`: published - consumed ∈ {0,1}.
    in_flight: [u8; 2],
}

/// Each rank's per-epoch program as (is_publish, stream index) pairs.
fn program(rank: usize, consume_first: bool) -> [(bool, usize); 2] {
    // Stream 0 is rank0→rank1, stream 1 is rank1→rank0.
    let send = (true, rank);
    let recv = (false, 1 - rank);
    if consume_first {
        [recv, send]
    } else {
        [send, recv]
    }
}

fn explore_exchange(consume_first: [bool; 2]) -> Result<usize, String> {
    let mut visited: HashSet<ExchangeState> = HashSet::new();
    let mut stack = vec![ExchangeState {
        pc: [0, 0],
        epoch: [0, 0],
        in_flight: [0, 0],
    }];
    let mut states = 0usize;
    while let Some(s) = stack.pop() {
        if !visited.insert(s) {
            continue;
        }
        states += 1;
        let done = (0..2).all(|r| s.epoch[r] == EPOCHS);
        if done {
            continue;
        }
        let mut progressed = false;
        for (r, &cf) in consume_first.iter().enumerate() {
            if s.epoch[r] == EPOCHS {
                continue;
            }
            let (is_publish, stream) = program(r, cf)[s.pc[r] as usize];
            let enabled = if is_publish {
                s.in_flight[stream] == 0 // capacity-1 window is free
            } else {
                s.in_flight[stream] == 1 // an epoch is waiting
            };
            if !enabled {
                continue;
            }
            progressed = true;
            let mut n = s;
            n.in_flight[stream] = if is_publish { 1 } else { 0 };
            if n.pc[r] == 1 {
                n.pc[r] = 0;
                n.epoch[r] += 1;
            } else {
                n.pc[r] = 1;
            }
            stack.push(n);
        }
        if !progressed {
            return Err(format!(
                "deadlock at pc={:?} epoch={:?} in_flight={:?}",
                s.pc, s.epoch, s.in_flight
            ));
        }
    }
    Ok(states)
}

#[test]
fn publish_before_consume_ordering_is_deadlock_free() {
    // The shipped SPMD ordering, and the mixed case (one rank happens
    // to drain its receives late) — both must complete.
    explore_exchange([false, false]).expect("symmetric publish-first deadlocked");
    explore_exchange([false, true]).expect("mixed ordering deadlocked");
    explore_exchange([true, false]).expect("mixed ordering deadlocked");
}

#[test]
fn consume_first_on_both_ranks_deadlocks_and_the_checker_finds_it() {
    let v = explore_exchange([true, true]).expect_err("both-consume-first must deadlock");
    assert!(v.contains("deadlock"), "{v}");
}

// ---------------------------------------------------------------------
// Collective model: a root (rank 0) and MEMBERS members run COLLECTIVES
// fan-in / fan-out reductions back to back, over one capacity-1 window
// per directed pair, as `Rank::reduce_in_place` does on the control
// windows. Each op is atomic here (the single-window model covers
// intra-op interleaving). A record carries the collective it belongs
// to, and a result record whether the root had folded every part into
// it when it was published.
// ---------------------------------------------------------------------

const MEMBERS: usize = 2;
const COLLECTIVES: u8 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Collective {
    /// The shipped shape: the root consumes all parts, then publishes.
    Correct,
    /// BUG MODEL: the root publishes the result before it consumes.
    PublishFirst,
    /// The shipped shape, with members that may die before any op.
    DyingMember,
    /// BUG MODEL: dying members, and a root whose wait never looks at
    /// its inbox.
    DyingMemberDeafRoot,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CollState {
    /// Per rank (0 = root): next op within the current collective, and
    /// collectives finished.
    pc: [u8; MEMBERS + 1],
    done: [u8; MEMBERS + 1],
    /// Member m's part on its way up: 0 = window free, else 1 + the
    /// collective it belongs to.
    up: [u8; MEMBERS],
    /// The root's result on its way down to member m, likewise.
    down: [u8; MEMBERS],
    /// The result in `down[m]` had every part folded in.
    down_complete: [bool; MEMBERS],
    /// Parts the root has folded into its current collective.
    parts: u8,
    dead: [bool; MEMBERS + 1],
    /// A death or abort notice sits in the rank's inbox.
    notice: [bool; MEMBERS + 1],
    aborted: [bool; MEMBERS + 1],
}

/// The next op of rank `r` in its current collective: (is_publish,
/// member whose window it touches).
fn collective_op(s: &CollState, r: usize, variant: Collective) -> (bool, usize) {
    let pc = s.pc[r] as usize;
    if r > 0 {
        return (pc == 0, r - 1);
    }
    let publish_first = variant == Collective::PublishFirst;
    if pc < MEMBERS {
        (publish_first, pc)
    } else {
        (!publish_first, pc - MEMBERS)
    }
}

fn finished(s: &CollState, r: usize) -> bool {
    s.done[r] == COLLECTIVES || s.dead[r] || s.aborted[r]
}

/// Post a notice to every rank still running but `from`.
fn notify(n: &mut CollState, from: usize) {
    for r in 0..=MEMBERS {
        if r != from && !n.dead[r] {
            n.notice[r] = true;
        }
    }
}

fn collective_successors(s: &CollState, variant: Collective) -> Result<Vec<CollState>, String> {
    let mut out = Vec::new();
    for r in 0..=MEMBERS {
        if finished(s, r) {
            continue;
        }
        let dying = matches!(
            variant,
            Collective::DyingMember | Collective::DyingMemberDeafRoot
        );
        if dying && r > 0 {
            let mut n = *s;
            n.dead[r] = true;
            notify(&mut n, r);
            out.push(n);
        }
        let (is_publish, m) = collective_op(s, r, variant);
        let coll = s.done[r] + 1;
        let enabled = match (r, is_publish) {
            (0, true) => s.down[m] == 0,
            (0, false) => s.up[m] != 0,
            (_, true) => s.up[m] == 0,
            (_, false) => s.down[m] != 0,
        };
        if !enabled {
            // A blocked wait polls its inbox: a notice unwinds it.
            let deaf = variant == Collective::DyingMemberDeafRoot && r == 0;
            if s.notice[r] && !deaf {
                let mut n = *s;
                n.aborted[r] = true;
                notify(&mut n, r);
                out.push(n);
            }
            continue;
        }
        let mut n = *s;
        match (r, is_publish) {
            (0, true) => {
                n.down[m] = coll;
                n.down_complete[m] = s.parts as usize == MEMBERS;
            }
            (0, false) => {
                if s.up[m] != coll {
                    return Err(format!(
                        "crossed collectives: root in {coll} read member {m}'s part of {}",
                        s.up[m]
                    ));
                }
                n.up[m] = 0;
                n.parts += 1;
            }
            (_, true) => n.up[m] = coll,
            (_, false) => {
                if s.down[m] != coll {
                    return Err(format!(
                        "crossed collectives: member {m} in {coll} read the result of {}",
                        s.down[m]
                    ));
                }
                if !s.down_complete[m] {
                    return Err(format!(
                        "incomplete reduction: member {m} read collective {coll}'s result \
                         before the root had folded every part"
                    ));
                }
                n.down[m] = 0;
            }
        }
        n.pc[r] += 1;
        let ops = if r == 0 { 2 * MEMBERS } else { 2 };
        if n.pc[r] as usize == ops {
            n.pc[r] = 0;
            n.done[r] += 1;
            if r == 0 {
                n.parts = 0;
            }
        }
        out.push(n);
    }
    Ok(out)
}

/// Exhaustively explore the collective model; returns the first
/// violation found, or (states, terminals) on success.
fn explore_collective(variant: Collective) -> Result<(usize, usize), String> {
    let initial = CollState {
        pc: [0; MEMBERS + 1],
        done: [0; MEMBERS + 1],
        up: [0; MEMBERS],
        down: [0; MEMBERS],
        down_complete: [false; MEMBERS],
        parts: 0,
        dead: [false; MEMBERS + 1],
        notice: [false; MEMBERS + 1],
        aborted: [false; MEMBERS + 1],
    };
    let mut visited: HashSet<CollState> = HashSet::new();
    let mut stack = vec![initial];
    let mut terminals = 0usize;
    while let Some(s) = stack.pop() {
        if !visited.insert(s) {
            continue;
        }
        if (0..=MEMBERS).all(|r| finished(&s, r)) {
            let deaths = s.dead.iter().any(|&d| d);
            if !deaths && (0..=MEMBERS).any(|r| s.done[r] != COLLECTIVES) {
                return Err("a rank stopped short with nobody dead".to_string());
            }
            terminals += 1;
            continue;
        }
        let next = collective_successors(&s, variant)?;
        if next.is_empty() {
            return Err(format!(
                "deadlock: pc={:?} done={:?} up={:?} down={:?} dead={:?} aborted={:?}",
                s.pc, s.done, s.up, s.down, s.dead, s.aborted
            ));
        }
        stack.extend(next);
    }
    Ok((visited.len(), terminals))
}

#[test]
fn shm_collective_fan_in_fan_out_is_deadlock_free_and_complete() {
    let (states, terminals) = explore_collective(Collective::Correct)
        .unwrap_or_else(|v| panic!("collective violation found by model checker: {v}"));
    // One straight-line run of two collectives is 2 * (2 * MEMBERS + 2
    // * MEMBERS) + 1 = 17 states; interleavings must add more.
    assert!(states > 17, "no concurrency explored: {states} states");
    assert_eq!(terminals, 1, "all interleavings converge to one terminal");
}

#[test]
fn shm_checker_catches_a_root_that_publishes_before_it_consumes() {
    let v = explore_collective(Collective::PublishFirst)
        .expect_err("a result published before the fan-in must be caught");
    assert!(
        v.contains("incomplete reduction"),
        "wrong violation class: {v}"
    );
}

#[test]
fn shm_a_dead_member_releases_every_collective_waiter() {
    let (states, terminals) = explore_collective(Collective::DyingMember)
        .unwrap_or_else(|v| panic!("dying-member violation found by model checker: {v}"));
    assert!(terminals > 1, "no death explored: {terminals} terminals");
    let (plain, _) = explore_collective(Collective::Correct).expect("shipped shape");
    assert!(states > plain, "deaths add states: {states} vs {plain}");
}

#[test]
fn shm_checker_catches_a_root_deaf_to_a_dead_member() {
    let v = explore_collective(Collective::DyingMemberDeafRoot)
        .expect_err("a root that ignores its inbox must wedge on a dead member");
    assert!(v.contains("deadlock"), "wrong violation class: {v}");
}
