//! Typed errors for the simulated machine: conditions a caller can
//! provoke with bad input (as opposed to protocol violations inside the
//! simulator, which stay hard panics so they are never papered over).

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A `--faults` specification failed to parse or referenced an
    /// impossible rank/stream.
    BadFaultSpec { spec: String, reason: String },
    /// A machine with zero ranks was requested.
    NoRanks,
    /// More ranks (or hybrid threads) than the machine supports were
    /// requested — rank ids are carried as `u32` in trace events and
    /// messages, and the cap keeps every conversion provably lossless.
    TooManyRanks { requested: usize, max: usize },
    /// A shared-memory halo window stalled past its wedge timeout: the
    /// publish/consume sequence on one directed stream is mismatched
    /// (a protocol bug, or a peer that died outside the fault model).
    /// Carries the full stream and epoch context so the wedge is
    /// attributable to one `(src, dst, tag)` exchange.
    WindowWedged {
        /// Stream source rank.
        src: usize,
        /// Stream destination rank.
        dst: usize,
        /// Stream tag.
        tag: u32,
        /// Which side stalled (`"publisher"` waits on the consumer,
        /// `"consumer"` waits on the publisher).
        side: &'static str,
        /// The epoch the stalled side was trying to advance past.
        epoch: u64,
        /// The timeout that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// Virtual rank `rank` entered `epochs` recovery epochs, the
    /// backstop: the fault plan (or a receive timeout too short for an
    /// honest wait) keeps triggering recovery, and no cycle commits.
    RecoveryLivelock { rank: usize, epochs: u64 },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BadFaultSpec { spec, reason } => {
                write!(f, "bad fault spec '{spec}': {reason}")
            }
            DeltaError::NoRanks => write!(f, "machine needs at least one rank"),
            DeltaError::TooManyRanks { requested, max } => {
                write!(f, "{requested} ranks requested; the machine caps at {max}")
            }
            DeltaError::WindowWedged {
                src,
                dst,
                tag,
                side,
                epoch,
                timeout_ms,
            } => write!(
                f,
                "shared-memory window {src}->{dst} tag {tag} wedged: {side} stalled at \
                 epoch {epoch} for {timeout_ms} ms (mismatched publish/consume sequence)"
            ),
            DeltaError::RecoveryLivelock { rank, epochs } => write!(
                f,
                "virtual rank {rank} exceeded {epochs} recovery epochs: fault plan livelocks"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}
