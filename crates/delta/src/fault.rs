//! Deterministic fault injection for the simulated Delta.
//!
//! A [`FaultPlan`] is a fixed, seeded script of failures: kill a rank at
//! a chosen cycle (optionally mid-cycle, after a number of communication
//! operations), or tamper with the n-th message on a chosen
//! `(src, dst, tag)` stream — drop it, duplicate it, corrupt its payload,
//! or delay its delivery by a number of cost-model ticks. The plan is
//! immutable and shared (`Arc`) by every rank; each rank evaluates only
//! the entries it originates (its own kills, faults on its outgoing
//! streams), counting matches in program order, so the injection points
//! are bit-reproducible across runs and host schedulers.
//!
//! Faults are *network events*: once an entry fires it is consumed and
//! never re-fires, even when recovery rolls the solver back over the same
//! cycles. Detection and recovery live in [`crate::rank`] and the
//! distributed solver; this module only decides *what* goes wrong *when*.

use std::sync::Arc;

use crate::error::DeltaError;

/// What to do to a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Lose the message on the wire (the sequence number is still
    /// consumed, so the receiver can detect the gap).
    Drop,
    /// Deliver the message twice with the same sequence number.
    Duplicate,
    /// Flip payload bits after the checksum is computed.
    Corrupt,
    /// Deliver normally but charge the sender `ticks` extra cost-model
    /// latency quanta (contention / retransmission stand-in).
    Delay { ticks: u64 },
}

/// Tamper with one message on a point-to-point stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFault {
    pub src: usize,
    pub dst: usize,
    /// Restrict to one tag; `None` matches any tag on the `(src, dst)`
    /// pair.
    pub tag: Option<u32>,
    /// Fire on the n-th matching message (0-based).
    pub nth: u64,
    /// Only count (and fire on) messages sent while the sender is in
    /// this solver cycle; `None` counts from the start of the run.
    pub at_cycle: Option<u64>,
    pub action: FaultAction,
}

/// Kill one rank at a chosen point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: usize,
    /// Solver cycle in which the rank dies.
    pub cycle: u64,
    /// Communication operations (sends + receives) into that cycle
    /// before dying; 0 kills at the first operation of the cycle.
    pub after_ops: u64,
}

/// A complete, deterministic failure script for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub kills: Vec<KillSpec>,
    pub msg_faults: Vec<MsgFault>,
}

impl FaultPlan {
    /// The empty plan: nothing ever goes wrong.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.msg_faults.is_empty()
    }

    /// True if the plan can silently lose a message. Only [`FaultAction::Drop`]
    /// can leave a receiver blocked forever with nothing on the wire:
    /// duplication and corruption still deliver, delays only add modeled
    /// ticks, and kills announce themselves with a `Dead` notice. The
    /// bounded-receive silent-loss detector is armed only when this is
    /// true — a wall-clock timeout is unsound against merely-slow peers
    /// on real preemptible threads, so it must never be armed when no
    /// fault can actually drop a message.
    pub fn may_drop(&self) -> bool {
        self.msg_faults
            .iter()
            .any(|f| f.action == FaultAction::Drop)
    }

    /// Parse a comma-separated fault spec. Grammar (all indices decimal):
    ///
    /// ```text
    /// kill:R@C        kill rank R at the start of cycle C
    /// kill:R@C+K      kill rank R in cycle C after K comm operations
    /// drop:S>D#N      drop the N-th message from rank S to rank D
    /// dup:S>D#N       deliver it twice
    /// corrupt:S>D#N   flip payload bits
    /// delay:S>D#N=T   delay it by T cost-model ticks
    /// ...:S>D:TAG#N   restrict any of the above to one tag
    /// ...#N@C         count only messages sent during cycle C
    /// seeded:SEED#N@C N pseudo-random message faults in cycles [1, C]
    /// ```
    ///
    /// `#N` counts every record the sender posts to `D` (schedule
    /// records, collective parts and inspector requests alike). A
    /// `corrupt:` that lands on an empty payload has no bit to flip: it
    /// misses, and no recovery follows.
    pub fn parse(spec: &str, nranks: usize) -> Result<FaultPlan, DeltaError> {
        FaultPlan::parse_inner(spec, nranks).map_err(|reason| DeltaError::BadFaultSpec {
            spec: spec.to_string(),
            reason,
        })
    }

    fn parse_inner(spec: &str, nranks: usize) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for ev in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, rest) = ev
                .split_once(':')
                .ok_or_else(|| format!("fault '{ev}': expected kind:args"))?;
            match kind {
                "kill" => plan.kills.push(parse_kill(rest, nranks)?),
                "drop" => plan
                    .msg_faults
                    .push(parse_msg(rest, nranks, FaultAction::Drop)?),
                "dup" => plan
                    .msg_faults
                    .push(parse_msg(rest, nranks, FaultAction::Duplicate)?),
                "corrupt" => plan
                    .msg_faults
                    .push(parse_msg(rest, nranks, FaultAction::Corrupt)?),
                "delay" => {
                    let (head, ticks) = rest
                        .split_once('=')
                        .ok_or_else(|| format!("delay '{rest}': expected ...#N=TICKS"))?;
                    let ticks: u64 = ticks
                        .parse()
                        .map_err(|_| format!("delay '{rest}': bad tick count"))?;
                    plan.msg_faults
                        .push(parse_msg(head, nranks, FaultAction::Delay { ticks })?);
                }
                "seeded" => {
                    let (seed, tail) = rest
                        .split_once('#')
                        .ok_or_else(|| format!("seeded '{rest}': expected SEED#N@C"))?;
                    let (n, maxc) = tail
                        .split_once('@')
                        .ok_or_else(|| format!("seeded '{rest}': expected SEED#N@C"))?;
                    let seed: u64 = seed
                        .parse()
                        .map_err(|_| format!("seeded '{rest}': bad seed"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| format!("seeded '{rest}': bad count"))?;
                    let maxc: u64 = maxc
                        .parse()
                        .map_err(|_| format!("seeded '{rest}': bad cycle bound"))?;
                    if nranks < 2 {
                        return Err(format!(
                            "seeded '{rest}': message faults need at least two ranks (nranks={nranks})"
                        ));
                    }
                    let sub = FaultPlan::seeded(seed, nranks, n, maxc);
                    plan.msg_faults.extend(sub.msg_faults);
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            }
        }
        Ok(plan)
    }

    /// Generate `n` pseudo-random message faults over `nranks` ranks in
    /// cycles `[1, max_cycle]`, fully determined by `seed` (splitmix64).
    /// Kills are never generated — add them explicitly. Panics below two
    /// ranks; [`FaultPlan::parse`] reports that as a bad spec instead.
    pub fn seeded(seed: u64, nranks: usize, n: usize, max_cycle: u64) -> FaultPlan {
        assert!(nranks >= 2, "message faults need at least two ranks");
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64: the standard seeding PRNG, bit-stable forever.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::default();
        for _ in 0..n {
            let src = (next() % nranks as u64) as usize;
            let mut dst = (next() % nranks as u64) as usize;
            if dst == src {
                dst = (dst + 1) % nranks;
            }
            let action = match next() % 4 {
                0 => FaultAction::Drop,
                1 => FaultAction::Duplicate,
                2 => FaultAction::Corrupt,
                _ => FaultAction::Delay {
                    ticks: 1 + next() % 64,
                },
            };
            plan.msg_faults.push(MsgFault {
                src,
                dst,
                tag: None,
                nth: next() % 4,
                at_cycle: Some(1 + next() % max_cycle.max(1)),
                action,
            });
        }
        plan
    }
}

fn parse_rank(s: &str, nranks: usize, what: &str) -> Result<usize, String> {
    let r: usize = s.parse().map_err(|_| format!("{what}: bad rank '{s}'"))?;
    if r >= nranks {
        return Err(format!("{what}: rank {r} out of range (nranks={nranks})"));
    }
    Ok(r)
}

fn parse_kill(rest: &str, nranks: usize) -> Result<KillSpec, String> {
    let (r, at) = rest
        .split_once('@')
        .ok_or_else(|| format!("kill '{rest}': expected R@C[+K]"))?;
    let rank = parse_rank(r, nranks, "kill")?;
    let (cycle, after_ops) = match at.split_once('+') {
        Some((c, k)) => (
            c.parse().map_err(|_| format!("kill '{rest}': bad cycle"))?,
            k.parse()
                .map_err(|_| format!("kill '{rest}': bad op count"))?,
        ),
        None => (
            at.parse()
                .map_err(|_| format!("kill '{rest}': bad cycle"))?,
            0,
        ),
    };
    Ok(KillSpec {
        rank,
        cycle,
        after_ops,
    })
}

fn parse_msg(rest: &str, nranks: usize, action: FaultAction) -> Result<MsgFault, String> {
    // S>D[:TAG]#N[@C]
    let (stream, tail) = rest
        .split_once('#')
        .ok_or_else(|| format!("fault '{rest}': expected S>D[:TAG]#N[@C]"))?;
    let (s, d) = stream
        .split_once('>')
        .ok_or_else(|| format!("fault '{rest}': expected S>D"))?;
    let src = parse_rank(s, nranks, "fault src")?;
    let (d, tag) = match d.split_once(':') {
        Some((d, t)) => (
            d,
            Some(
                t.parse()
                    .map_err(|_| format!("fault '{rest}': bad tag '{t}'"))?,
            ),
        ),
        None => (d, None),
    };
    let dst = parse_rank(d, nranks, "fault dst")?;
    if src == dst {
        return Err(format!("fault '{rest}': src and dst must differ"));
    }
    let (nth, at_cycle) = match tail.split_once('@') {
        Some((n, c)) => (
            n.parse()
                .map_err(|_| format!("fault '{rest}': bad index"))?,
            Some(
                c.parse()
                    .map_err(|_| format!("fault '{rest}': bad cycle"))?,
            ),
        ),
        None => (
            tail.parse()
                .map_err(|_| format!("fault '{rest}': bad index"))?,
            None,
        ),
    };
    Ok(MsgFault {
        src,
        dst,
        tag,
        nth,
        at_cycle,
        action,
    })
}

/// Why a [`FaultSignal::Recover`] was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// A `Dead` announcement from a killed peer.
    PeerDeath,
    /// An `Abort` announcement from a peer already in recovery.
    PeerAbort,
    /// A sequence gap: a message on the stream was lost.
    Lost,
    /// A checksum mismatch: the payload was corrupted in flight.
    Corrupt,
    /// The bounded receive timed out (silent loss / quiesced network).
    Timeout,
}

/// Panic payload used for non-local control transfer out of a blocked
/// receive when a fault strikes. A recovery-aware driver catches it
/// around each cycle; if it escapes to the SPMD scope the run aborts
/// like any other panic.
#[derive(Debug, Clone)]
pub enum FaultSignal {
    /// The fault plan killed this rank.
    Killed,
    /// A failure was detected; roll back into recovery epoch `epoch`.
    Recover {
        epoch: u32,
        /// Ranks known dead at detection time.
        dead: Vec<u32>,
        cause: FaultCause,
    },
}

/// Per-rank runtime evaluation state for a shared [`FaultPlan`]: which
/// entries have fired and how many matching messages each has seen.
#[derive(Debug)]
pub struct FaultState {
    plan: Arc<FaultPlan>,
    /// Solver cycle the driver last announced.
    cycle: u64,
    /// Communication operations since the cycle started.
    ops: u64,
    /// Matching messages seen per `msg_faults` entry.
    seen: Vec<u64>,
    fired_msg: Vec<bool>,
    fired_kill: Vec<bool>,
}

impl FaultState {
    pub fn new(plan: Arc<FaultPlan>) -> FaultState {
        let nm = plan.msg_faults.len();
        let nk = plan.kills.len();
        FaultState {
            plan,
            cycle: 0,
            ops: 0,
            seen: vec![0; nm],
            fired_msg: vec![false; nm],
            fired_kill: vec![false; nk],
        }
    }

    /// The shared plan this state evaluates.
    pub fn plan(&self) -> Arc<FaultPlan> {
        self.plan.clone()
    }

    /// State for an instance adopting dead rank `vid`: everything that
    /// targeted `vid` (its kills, faults on its outgoing streams) is
    /// marked consumed — those events happened to the node that died,
    /// not to its replacement re-running the same cycles.
    pub fn adopted(plan: Arc<FaultPlan>, vid: usize) -> FaultState {
        let mut st = FaultState::new(plan);
        for (k, spec) in st.plan.kills.iter().enumerate() {
            if spec.rank == vid {
                st.fired_kill[k] = true;
            }
        }
        for (k, spec) in st.plan.msg_faults.iter().enumerate() {
            if spec.src == vid {
                st.fired_msg[k] = true;
            }
        }
        st
    }

    /// Announce the current solver cycle (resets the per-cycle op count).
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.ops = 0;
    }

    /// Count one communication operation; true if a kill fires now.
    pub fn tick_op(&mut self, rank: usize) -> bool {
        self.ops += 1;
        for (k, spec) in self.plan.kills.iter().enumerate() {
            if !self.fired_kill[k]
                && spec.rank == rank
                && spec.cycle == self.cycle
                && self.ops > spec.after_ops
            {
                self.fired_kill[k] = true;
                return true;
            }
        }
        false
    }

    /// Consult the plan for a message this rank (`src`) is about to post
    /// on `(dst, tag)`. At most one entry fires per message.
    pub fn action_for(&mut self, src: usize, dst: usize, tag: u32) -> Option<FaultAction> {
        for (k, spec) in self.plan.msg_faults.iter().enumerate() {
            if self.fired_msg[k] || spec.src != src || spec.dst != dst {
                continue;
            }
            if let Some(t) = spec.tag {
                if t != tag {
                    continue;
                }
            }
            if let Some(c) = spec.at_cycle {
                if c != self.cycle {
                    continue;
                }
            }
            let n = self.seen[k];
            self.seen[k] += 1;
            if n == spec.nth {
                self.fired_msg[k] = true;
                return Some(spec.action);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let plan = FaultPlan::parse("kill:2@7+3, drop:1>0#2, delay:0>3:55#1@4=50", 4).unwrap();
        assert_eq!(
            plan.kills,
            vec![KillSpec {
                rank: 2,
                cycle: 7,
                after_ops: 3
            }]
        );
        assert_eq!(plan.msg_faults.len(), 2);
        assert_eq!(plan.msg_faults[0].action, FaultAction::Drop);
        assert_eq!(plan.msg_faults[0].tag, None);
        assert_eq!(plan.msg_faults[0].nth, 2);
        assert_eq!(
            plan.msg_faults[1],
            MsgFault {
                src: 0,
                dst: 3,
                tag: Some(55),
                nth: 1,
                at_cycle: Some(4),
                action: FaultAction::Delay { ticks: 50 },
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("kill:9@1", 4).is_err(), "rank range");
        assert!(FaultPlan::parse("drop:1>1#0", 4).is_err(), "self stream");
        assert!(FaultPlan::parse("explode:1@2", 4).is_err(), "unknown kind");
        assert!(FaultPlan::parse("drop:1>0", 4).is_err(), "missing index");
        assert!(FaultPlan::parse("delay:1>0#0", 4).is_err(), "missing ticks");
        // A seeded plan needs a stream to tamper with: an error, not the
        // generator's assert.
        let err = FaultPlan::parse("seeded:1#2@3", 1).unwrap_err();
        assert!(matches!(err, DeltaError::BadFaultSpec { .. }), "{err}");
        assert!(err.to_string().contains("two ranks"), "{err}");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 8, 10, 6);
        let b = FaultPlan::seeded(42, 8, 10, 6);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::seeded(43, 8, 10, 6);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.msg_faults.len(), 10);
        for f in &a.msg_faults {
            assert!(f.src < 8 && f.dst < 8 && f.src != f.dst);
            let cyc = f.at_cycle.unwrap();
            assert!((1..=6).contains(&cyc));
        }
        assert!(a.kills.is_empty());
    }

    #[test]
    fn kill_fires_once_at_the_right_op() {
        let plan = Arc::new(FaultPlan::parse("kill:1@2+2", 4).unwrap());
        let mut st = FaultState::new(plan);
        st.set_cycle(2);
        assert!(!st.tick_op(0), "wrong rank never dies");
        let mut st = FaultState::new(Arc::new(FaultPlan::parse("kill:1@2+2", 4).unwrap()));
        st.set_cycle(1);
        assert!(!st.tick_op(1) && !st.tick_op(1) && !st.tick_op(1));
        st.set_cycle(2);
        assert!(!st.tick_op(1), "op 1 of 2");
        assert!(!st.tick_op(1), "op 2 of 2");
        assert!(st.tick_op(1), "fires after 2 ops");
        assert!(!st.tick_op(1), "consumed");
    }

    #[test]
    fn msg_fault_counts_matches_in_order() {
        let plan = Arc::new(FaultPlan::parse("corrupt:0>1#1", 4).unwrap());
        let mut st = FaultState::new(plan);
        assert_eq!(st.action_for(0, 1, 9), None, "0th match passes");
        assert_eq!(st.action_for(0, 2, 9), None, "other stream ignored");
        assert_eq!(st.action_for(0, 1, 7), Some(FaultAction::Corrupt));
        assert_eq!(st.action_for(0, 1, 7), None, "consumed");
    }

    #[test]
    fn cycle_gated_fault_only_counts_in_its_cycle() {
        let plan = Arc::new(FaultPlan::parse("drop:0>1#0@3", 4).unwrap());
        let mut st = FaultState::new(plan);
        st.set_cycle(2);
        assert_eq!(st.action_for(0, 1, 5), None);
        st.set_cycle(3);
        assert_eq!(st.action_for(0, 1, 5), Some(FaultAction::Drop));
    }

    #[test]
    fn adopted_state_skips_the_dead_ranks_events() {
        let plan = Arc::new(FaultPlan::parse("kill:2@5,drop:2>0#0,drop:1>0#0", 4).unwrap());
        let mut st = FaultState::adopted(plan, 2);
        st.set_cycle(5);
        assert!(!st.tick_op(2), "replacement must not re-die");
        assert_eq!(st.action_for(2, 0, 5), None, "dead rank's fault consumed");
        assert_eq!(
            st.action_for(1, 0, 5),
            Some(FaultAction::Drop),
            "other ranks' faults survive adoption"
        );
    }
}
