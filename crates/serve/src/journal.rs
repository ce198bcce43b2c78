//! The write-ahead job journal: a [`framed::Log`] (magic `EUL3DJNL`,
//! version 1; frame format and recovery are documented there) at
//! `<state_dir>/journal.log` whose frames are [`JournalRecord::to_line`]
//! texts, recording every job's lifecycle — `submitted`, `started`,
//! `checkpointed`, `resumed`, `done`, `cancelled`, `failed` — so a
//! server restart can rebuild its queue and resubmit work that was
//! interrupted mid-run.
//!
//! **Durability policy.** `submitted` and the terminal records (`done` /
//! `cancelled` / `failed`) are synced before the append returns: losing
//! a submission would silently drop a job, and losing a terminal record
//! would re-run one. Progress records (`started`, `checkpointed`,
//! `resumed`) are written but not synced — they are observability and
//! kill-point markers; the checkpoint *data* lives in the per-job
//! checkpoint log, which syncs itself.
//!
//! **Replay.** [`Journal::open`] replays the valid prefix; a record that
//! fails its checksum or does not parse ends it, so a damaged journal
//! can only forget records, never invent or alter one. Jobs with a
//! `submitted` record but no terminal record are the interrupted ones —
//! the engine resubmits them internally, where they either hit the
//! restored result store or resume from their checkpoint log.

use std::io;
use std::path::Path;

use eul3d_core::framed::{self, TailReport};
use eul3d_core::JobMode;

use crate::cache::CacheKey;
use crate::json::{JObj, JOut};

const MAGIC: &[u8; 8] = b"EUL3DJNL";
const VERSION: u32 = 1;

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job was accepted into the queue. Carries everything needed to
    /// resubmit it: the canonical config TOML, the mode, the force flag,
    /// and the precomputed cache key.
    Submitted {
        job: u64,
        key: CacheKey,
        mode: JobMode,
        force: bool,
        config: String,
    },
    /// A worker dequeued the job and began (or re-began) computing.
    Started { job: u64 },
    /// Cycle `cycle` is durable in the job's checkpoint log.
    Checkpointed { job: u64, cycle: u64 },
    /// A restarted server resumed the job from checkpointed cycle
    /// `cycle` instead of cycle 0.
    Resumed { job: u64, cycle: u64 },
    /// Terminal: completed, result persisted under `result_hash`.
    Done { job: u64, result_hash: u128 },
    /// Terminal: cancelled.
    Cancelled { job: u64 },
    /// Terminal: failed with `error`.
    Failed { job: u64, error: String },
}

impl JournalRecord {
    /// The job this record belongs to.
    pub fn job(&self) -> u64 {
        match *self {
            JournalRecord::Submitted { job, .. }
            | JournalRecord::Started { job }
            | JournalRecord::Checkpointed { job, .. }
            | JournalRecord::Resumed { job, .. }
            | JournalRecord::Done { job, .. }
            | JournalRecord::Cancelled { job }
            | JournalRecord::Failed { job, .. } => job,
        }
    }

    /// Whether this record ends its job's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JournalRecord::Done { .. }
                | JournalRecord::Cancelled { .. }
                | JournalRecord::Failed { .. }
        )
    }

    /// Whether this record must be fsynced individually (see the module
    /// docs for the policy).
    fn is_durable(&self) -> bool {
        matches!(self, JournalRecord::Submitted { .. }) || self.is_terminal()
    }

    /// The record as one flat-JSON line — the frame payload.
    pub fn to_line(&self) -> String {
        let rec = |name: &str| JOut::line().str("rec", name).u64("job", self.job());
        match self {
            JournalRecord::Submitted {
                key,
                mode,
                force,
                config,
                ..
            } => rec("submitted")
                .str("key", &key.to_string())
                .str("mode", mode.name())
                .bool("force", *force)
                .str("config", config),
            JournalRecord::Started { .. } => rec("started"),
            JournalRecord::Checkpointed { cycle, .. } => rec("checkpointed").u64("cycle", *cycle),
            JournalRecord::Resumed { cycle, .. } => rec("resumed").u64("cycle", *cycle),
            JournalRecord::Done { result_hash, .. } => {
                rec("done").str("result_hash", &format!("{result_hash:032x}"))
            }
            JournalRecord::Cancelled { .. } => rec("cancelled"),
            JournalRecord::Failed { error, .. } => rec("failed").str("error", error),
        }
        .finish()
    }

    /// Parse one line; `None` for anything malformed.
    pub fn parse(line: &str) -> Option<JournalRecord> {
        let o = JObj::parse(line).ok()?;
        let job = o.u64_of("job")?;
        match o.str_of("rec")? {
            "submitted" => Some(JournalRecord::Submitted {
                job,
                key: CacheKey::parse(o.str_of("key")?)?,
                mode: JobMode::parse(o.str_of("mode")?)?,
                force: o.bool_of("force")?,
                config: o.str_of("config")?.to_string(),
            }),
            "started" => Some(JournalRecord::Started { job }),
            "checkpointed" => Some(JournalRecord::Checkpointed {
                job,
                cycle: o.u64_of("cycle")?,
            }),
            "resumed" => Some(JournalRecord::Resumed {
                job,
                cycle: o.u64_of("cycle")?,
            }),
            "done" => {
                let h = o.str_of("result_hash")?;
                (h.len() == 32)
                    .then(|| u128::from_str_radix(h, 16).ok())
                    .flatten()
                    .map(|result_hash| JournalRecord::Done { job, result_hash })
            }
            "cancelled" => Some(JournalRecord::Cancelled { job }),
            "failed" => Some(JournalRecord::Failed {
                job,
                error: o.str_of("error")?.to_string(),
            }),
            _ => None,
        }
    }
}

/// A job the journal says was accepted but never finished — the work a
/// restarted server owes its clients.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    pub job: u64,
    pub key: CacheKey,
    pub mode: JobMode,
    pub force: bool,
    /// Canonical config TOML as journaled at submission.
    pub config: String,
}

/// What [`Journal::open`] recovered.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Every record in the valid prefix, in order.
    pub records: Vec<JournalRecord>,
    /// What recovery dropped behind it.
    pub tail: TailReport,
}

impl JournalReplay {
    /// Submitted-but-unterminated jobs, in submission order.
    pub fn pending_jobs(&self) -> Vec<PendingJob> {
        let mut pending: Vec<PendingJob> = Vec::new();
        for rec in &self.records {
            match rec {
                JournalRecord::Submitted {
                    job,
                    key,
                    mode,
                    force,
                    config,
                } => pending.push(PendingJob {
                    job: *job,
                    key: *key,
                    mode: *mode,
                    force: *force,
                    config: config.clone(),
                }),
                r if r.is_terminal() => pending.retain(|p| p.job != r.job()),
                _ => {}
            }
        }
        pending
    }

    /// The highest job id the journal mentions (0 when empty) — a
    /// restarted server allocates ids strictly above this so journal
    /// lines never collide across generations.
    pub fn max_job_id(&self) -> u64 {
        self.records
            .iter()
            .map(JournalRecord::job)
            .max()
            .unwrap_or(0)
    }
}

/// The open journal file. Appends are serialized by the engine's state
/// lock (the journal is owned by the engine, not shared).
#[derive(Debug)]
pub struct Journal {
    log: framed::Log,
}

impl Journal {
    /// Open (creating) `<state_dir>/journal.log`, replay the valid
    /// prefix, and truncate any damaged tail so subsequent appends land
    /// on a clean frame boundary.
    pub fn open(state_dir: &Path) -> io::Result<(Journal, JournalReplay)> {
        let mut records = Vec::new();
        let path = state_dir.join("journal.log");
        let (log, tail) = framed::Log::open(&path, MAGIC, VERSION, |payload| {
            let text = std::str::from_utf8(payload).ok();
            let Some(rec) = text.and_then(JournalRecord::parse) else {
                return false;
            };
            records.push(rec);
            true
        })?;
        Ok((Journal { log }, JournalReplay { records, tail }))
    }

    /// Append one record; synced per the durability policy.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        self.log.append(rec.to_line().as_bytes())?;
        if rec.is_durable() {
            self.log.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("eul3d-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                job: 1,
                key: CacheKey(0xABCD),
                mode: JobMode::Solve,
                force: false,
                config: "[run]\ncycles = 3\n".to_string(),
            },
            JournalRecord::Started { job: 1 },
            JournalRecord::Checkpointed { job: 1, cycle: 2 },
            JournalRecord::Resumed { job: 1, cycle: 2 },
            JournalRecord::Done {
                job: 1,
                result_hash: 0x1234_5678_9ABC_DEF0_1122_3344_5566_7788,
            },
            JournalRecord::Submitted {
                job: 2,
                key: CacheKey(0xEF),
                mode: JobMode::Distributed,
                force: true,
                config: "nasty \"config\"\nwith lines\t".to_string(),
            },
            JournalRecord::Cancelled { job: 2 },
            JournalRecord::Failed {
                job: 3,
                error: "solver exploded: \"boom\"".to_string(),
            },
        ]
    }

    #[test]
    fn every_record_round_trips_through_its_line() {
        for rec in sample_records() {
            let line = rec.to_line();
            assert_eq!(JournalRecord::parse(&line), Some(rec.clone()), "{line}");
        }
        assert!(JournalRecord::parse("{\"rec\":\"martian\",\"job\":1}").is_none());
        assert!(JournalRecord::parse("not json at all").is_none());
    }

    #[test]
    fn append_reopen_replays_everything() {
        let d = dir("replay");
        let (mut j, rep) = Journal::open(&d).unwrap();
        assert!(rep.records.is_empty());
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let (_, rep) = Journal::open(&d).unwrap();
        assert_eq!(rep.records, sample_records());
        assert_eq!(rep.tail, TailReport::default());
        assert_eq!(rep.max_job_id(), 3);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn pending_jobs_are_submitted_without_terminal() {
        let d = dir("pending");
        let (mut j, _) = Journal::open(&d).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        // Job 4: interrupted mid-run after a checkpoint at cycle 6.
        j.append(&JournalRecord::Submitted {
            job: 4,
            key: CacheKey(44),
            mode: JobMode::Solve,
            force: false,
            config: "[run]\ncycles = 9\n".to_string(),
        })
        .unwrap();
        j.append(&JournalRecord::Started { job: 4 }).unwrap();
        j.append(&JournalRecord::Checkpointed { job: 4, cycle: 6 })
            .unwrap();
        drop(j);
        let (_, rep) = Journal::open(&d).unwrap();
        let pending = rep.pending_jobs();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].job, 4);
        assert_eq!(pending[0].key, CacheKey(44));
        std::fs::remove_dir_all(&d).ok();
    }
}
