//! Disk-backed, crash-safe checkpoints of a sequential solve, in two
//! shapes of the one [`crate::framed`] format (magic `EUL3DLOG`, version
//! 1), both holding [`JobCheckpoint`]s:
//!
//! * a [`CheckpointLog`] is an append-only [`crate::framed::Log`], the
//!   service's per-job resume log. A corrupted or truncated tail costs
//!   one checkpoint interval of recompute, never the run; an append is
//!   synced before it returns, so a frame is durable before the caller's
//!   own write-ahead record points at it;
//! * [`JobCheckpoint::save`] / [`JobCheckpoint::load`] are the one-frame
//!   file of `eul3d solve --checkpoint` / `--restart`: written
//!   temp-then-rename, read back only if it is exactly one valid frame.
//!
//! ```text
//! payload: cycles_done u64 | nhist u64 | hist f64× | nw u64 | w f64×
//! ```
//!
//! Every float is stored as its little-endian bit pattern, so a resumed
//! run reproduces the interrupted run's residual history and final
//! state **bit for bit** (the crash-recovery harness asserts exactly
//! that across a `SIGKILL`).

use std::io;
use std::path::{Path, PathBuf};

use crate::framed::{self, ByteReader, ByteWriter, FramedError, Log, TailReport};
use crate::gas::NVAR;
use crate::soa::SoaState;

const MAGIC: &[u8; 8] = b"EUL3DLOG";
const VERSION: u32 = 1;

/// One durable resume point of a running job: everything needed to
/// continue the solve *and* reproduce its observable output exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpoint {
    /// Committed cycles at the snapshot (the next cycle to run).
    pub cycles_done: u64,
    /// The committed residual history, bit-exact — a resumed run replays
    /// this prefix so its residual table matches an uninterrupted run
    /// byte for byte.
    pub history: Vec<f64>,
    /// Fine-grid conserved variables in the interleaved (AoS) layout,
    /// `nverts × NVAR`.
    pub w: Vec<f64>,
}

impl JobCheckpoint {
    /// The resume point after the committed `history`, with fine-grid
    /// state `w`.
    pub fn new(history: Vec<f64>, w: &SoaState) -> JobCheckpoint {
        JobCheckpoint {
            cycles_done: history.len() as u64,
            history,
            w: w.to_aos(),
        }
    }

    /// Whether this checkpoint can resume a run of `cycles` committed
    /// cycles on a fine mesh of `nverts` vertices; the reason if not.
    pub fn fit(&self, nverts: usize, cycles: usize) -> Result<(), String> {
        if self.w.len() != nverts * NVAR {
            return Err(format!(
                "checkpoint holds {} state entries but the mesh needs {} ({nverts} vertices)",
                self.w.len(),
                nverts * NVAR
            ));
        }
        if self.history.len() as u64 != self.cycles_done {
            return Err(format!(
                "checkpoint records {} cycles but carries {} residuals",
                self.cycles_done,
                self.history.len()
            ));
        }
        if self.history.len() > cycles {
            return Err(format!(
                "checkpoint is {} cycles into a {cycles}-cycle run",
                self.cycles_done
            ));
        }
        if !self.w.iter().chain(&self.history).all(|x| x.is_finite()) {
            return Err("checkpoint holds a non-finite value".into());
        }
        Ok(())
    }

    /// Write as a one-frame file, atomically (temp, fsync, rename): a
    /// crash mid-save leaves the previous file whole.
    pub fn save(&self, path: &Path) -> Result<(), FramedError> {
        framed::write_atomic(path, MAGIC, VERSION, &self.encode())
    }

    /// Read a file [`JobCheckpoint::save`] wrote: `None` unless it is
    /// exactly one valid frame whose payload decodes.
    pub fn load(path: &Path) -> Option<JobCheckpoint> {
        JobCheckpoint::decode(&framed::read_one(path, MAGIC, VERSION)?)
    }

    fn encode(&self) -> Vec<u8> {
        let cap = 24 + 8 * (self.history.len() + self.w.len());
        let mut e = ByteWriter(Vec::with_capacity(cap));
        e.u64(self.cycles_done);
        e.f64s(&self.history);
        e.f64s(&self.w);
        e.0
    }

    fn decode(payload: &[u8]) -> Option<JobCheckpoint> {
        let mut d = ByteReader(payload);
        let ck = JobCheckpoint {
            cycles_done: d.u64()?,
            history: d.f64s()?,
            w: d.f64s()?,
        };
        // Trailing bytes inside a framed payload are damage.
        d.0.is_empty().then_some(ck)
    }
}

/// An open, append-only checkpoint log. Holds the file handle for the
/// job's lifetime; [`CheckpointLog::append`] is durable when it
/// returns.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    log: Log,
    /// The latest valid checkpoint (recovered on open, updated on
    /// append).
    latest: Option<JobCheckpoint>,
    frames: usize,
}

impl CheckpointLog {
    /// Open (or create) the log at `path`, recover the longest valid
    /// frame prefix, and truncate any torn/corrupt tail. Returns the
    /// log and what the recovery dropped.
    pub fn open(path: &Path) -> Result<(CheckpointLog, TailReport), FramedError> {
        let (mut latest, mut frames) = (None, 0);
        // A CRC-valid frame that does not decode (damage older than its
        // checksum, or a future payload revision) ends the prefix too.
        let (log, tail) = Log::open(path, MAGIC, VERSION, |payload| {
            let Some(ck) = JobCheckpoint::decode(payload) else {
                return false;
            };
            latest = Some(ck);
            frames += 1;
            true
        })?;
        let opened = CheckpointLog {
            path: path.to_path_buf(),
            log,
            latest,
            frames,
        };
        Ok((opened, tail))
    }

    /// Append one checkpoint frame; durable (`sync_data`) when this
    /// returns.
    pub fn append(&mut self, ck: &JobCheckpoint) -> Result<(), FramedError> {
        self.log.append(&ck.encode())?;
        self.log.sync()?;
        self.latest = Some(ck.clone());
        self.frames += 1;
        Ok(())
    }

    /// The most recent valid checkpoint (the resume point).
    pub fn latest(&self) -> Option<&JobCheckpoint> {
        self.latest.as_ref()
    }

    /// Valid frames currently in the log.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Delete the log file (the job completed; its resume point is
    /// garbage now). Consumes the log.
    pub fn remove(self) -> io::Result<()> {
        drop(self.log);
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// How a resumable job talks to its durability layer.
/// [`crate::MultigridSolver::run`] calls [`DurabilitySink::resume_point`]
/// once at start and [`DurabilitySink::checkpoint`] at every committed
/// checkpoint interval; implementations must make the checkpoint durable
/// before returning.
pub trait DurabilitySink {
    /// The resume point to continue from, if any.
    fn resume_point(&mut self) -> Option<JobCheckpoint>;
    /// Persist one checkpoint durably.
    fn checkpoint(&mut self, ck: &JobCheckpoint);
    /// Notification that the run *accepted* the resume point and is
    /// continuing from committed cycle `cycle` (a resume point that does
    /// not fit the config is silently ignored and this is not called).
    fn resumed(&mut self, cycle: u64) {
        let _ = cycle;
    }
}

impl DurabilitySink for CheckpointLog {
    fn resume_point(&mut self) -> Option<JobCheckpoint> {
        self.latest.clone()
    }

    fn checkpoint(&mut self, ck: &JobCheckpoint) {
        // Durability is best-effort from the solver's perspective: a
        // full disk must not fail the run itself, only its resumability.
        let _ = self.append(ck);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(cycle: u64) -> JobCheckpoint {
        JobCheckpoint {
            cycles_done: cycle,
            history: (0..cycle).map(|c| 0.1 * c as f64 + 0.05).collect(),
            w: vec![1.25; 10],
        }
    }

    #[test]
    fn append_reopen_round_trips_latest() {
        let mut p = std::env::temp_dir();
        p.push(format!("eul3d-ckstore-rt-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let (mut log, rep) = CheckpointLog::open(&p).unwrap();
        assert_eq!(rep, TailReport::default());
        assert!(log.latest().is_none());
        log.append(&ck(2)).unwrap();
        log.append(&ck(4)).unwrap();
        drop(log);
        let (log, rep) = CheckpointLog::open(&p).unwrap();
        assert_eq!(rep, TailReport::default());
        assert_eq!(log.frames(), 2);
        assert_eq!(log.latest(), Some(&ck(4)));
        log.remove().unwrap();
        assert!(!p.exists());
    }

    #[test]
    fn payload_with_trailing_or_missing_bytes_does_not_decode() {
        let good = ck(3).encode();
        assert_eq!(JobCheckpoint::decode(&good), Some(ck(3)));
        assert!(JobCheckpoint::decode(&good[..good.len() - 1]).is_none());
        let mut long = good.clone();
        long.push(0);
        assert!(JobCheckpoint::decode(&long).is_none());
        // A count that the remaining bytes cannot back is refused before
        // any allocation.
        let mut absurd = good;
        absurd[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(JobCheckpoint::decode(&absurd).is_none());
    }
}
