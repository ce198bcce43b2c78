//! The multi-tenant job engine: a bounded worker pool draining a
//! bounded, backpressured queue of solve jobs, with per-job
//! cancellation, live event streams, and the content-addressed result
//! cache in front of the workers.
//!
//! ## Lifecycle
//!
//! ```text
//!            submit                    dequeue              run_job ok
//! (request) ───────► Queued ─────────► Running ───────────► Done
//!      │                │                 │  └─ run_job err ► Failed
//!      │ queue full     │ cancel          │ cancel → FaultSignal unwind
//!      ▼                ▼                 ▼
//!   rejected        Cancelled         Cancelled (Failed past the deadline)
//! ```
//!
//! A submission whose key is already cached skips the queue entirely
//! (state goes straight to `Done`, the common case under heavy
//! identical traffic), and a queued one is served the same way when an
//! identical job finished while it waited; a forced submission (`force`)
//! always computes. A job's cancel token also carries its deadline,
//! armed when the job leaves the queue. Every job reaches exactly one
//! terminal state, through `Inner::end`, and its event stream ends
//! with exactly one terminal event — the concurrency suite drives
//! interleaved submit/cancel/resubmit storms against these invariants.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use eul3d_core::ckstore::{CheckpointLog, DurabilitySink, JobCheckpoint};
use eul3d_core::{run_job_durable, CancelToken, JobMode, RunConfig};
use eul3d_delta::FaultSignal;
use eul3d_obs as obs;

use crate::cache::{CacheKey, JobBlob, ResultCache};
use crate::journal::{Journal, JournalRecord};
use crate::store::ResultStore;

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Queue slots; a submission beyond this is rejected with
    /// [`SubmitError::QueueFull`] (cache hits bypass the queue).
    pub queue_cap: usize,
    /// Result-cache capacity, in completed jobs.
    pub cache_cap: usize,
    /// Result-cache byte budget, charged per entry by
    /// [`JobBlob::approx_bytes`] (`None` = bounded by entry count only).
    pub cache_bytes: Option<usize>,
    /// Partitioner seed folded into every cache key (pinned at engine
    /// start so identical requests stay identical for the engine's
    /// lifetime).
    pub seed: u64,
    /// The retry hint returned with queue-full rejections, per queued
    /// job ahead of the rejected one.
    pub retry_after_ms_per_queued: u64,
    /// Durable state directory. When set, the engine journals every job
    /// lifecycle to `<dir>/journal.log`, persists results under
    /// `<dir>/results/`, checkpoints running solve jobs under
    /// `<dir>/ck/`, and on start replays the journal — resubmitting
    /// interrupted jobs, which resume from their last durable
    /// checkpoint. `None` keeps the engine fully in-memory.
    pub state_dir: Option<PathBuf>,
    /// Per-job wall-clock deadline, counted from when the job leaves the
    /// queue (queue wait never counts). The job's cancel token carries
    /// it: a job still running this long is stopped at its next
    /// committed-cycle boundary and reported as `Failed` with a deadline
    /// message. `None` = no limit.
    pub deadline_ms: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 2,
            queue_cap: 16,
            cache_cap: 64,
            cache_bytes: None,
            seed: eul3d_core::env_seed(7),
            retry_after_ms_per_queued: 100,
            state_dir: None,
            deadline_ms: None,
        }
    }
}

/// One job description: everything the worker needs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The validated run configuration.
    pub rc: RunConfig,
    /// Which driver runs it.
    pub mode: JobMode,
    /// Skip the cache lookup and recompute (the result still lands in
    /// the cache — byte-identical to what it replaces).
    pub force: bool,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// On a worker.
    Running,
    /// Completed with artifacts (cache hit or computed).
    Done,
    /// Cancelled before or during execution.
    Cancelled,
    /// The solver returned a typed error (or panicked).
    Failed,
}

impl JobState {
    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// One entry of a job's event stream. `Done`, `Cancelled`, and `Failed`
/// are terminal: each stream carries exactly one of them, last.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The job left the queue and is on a worker (not sent for cache
    /// hits — they are never queued).
    Started {
        /// Job id.
        job: u64,
    },
    /// One committed solver cycle (live on the solve path, replayed
    /// from the committed history on the distributed path and for cache
    /// hits — so hit and miss streams line up).
    Progress {
        /// Job id.
        job: u64,
        /// Committed cycle index (0-based).
        cycle: u64,
        /// Fine-grid residual of that cycle.
        residual: f64,
    },
    /// Terminal: artifacts are ready.
    Done {
        /// Job id.
        job: u64,
        /// Whether the result came from the cache.
        cache_hit: bool,
        /// The artifact bundle.
        blob: Arc<JobBlob>,
    },
    /// Terminal: the job was cancelled.
    Cancelled {
        /// Job id.
        job: u64,
    },
    /// Terminal: the job failed.
    Failed {
        /// Job id.
        job: u64,
        /// The typed error, rendered.
        msg: String,
    },
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full; retry after the suggested backoff.
    QueueFull {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The engine is shutting down.
    ShuttingDown,
}

/// What [`JobEngine::cancel`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: removed, terminal `Cancelled` emitted.
    WasQueued,
    /// The job was running: its token is signalled; the worker emits
    /// the terminal `Cancelled` at the next cycle boundary.
    WasRunning,
    /// The job had already reached a terminal state.
    AlreadyFinished,
    /// No such job id.
    Unknown,
}

/// An accepted submission: the id, the content key, and the live event
/// stream (ends after its terminal event).
pub struct SubmitTicket {
    /// Engine-assigned job id (monotone from 1).
    pub job: u64,
    /// The request's cache key.
    pub key: CacheKey,
    /// The job's event stream.
    pub events: Receiver<JobEvent>,
}

/// Aggregate engine counters (see the wire `stats` event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Submissions accepted (including cache hits).
    pub submitted: u64,
    /// Submissions rejected for backpressure.
    pub rejected: u64,
    /// Jobs finished with artifacts.
    pub done: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently on workers.
    pub running: usize,
    /// Cache lookups served.
    pub cache_hits: u64,
    /// Cache lookups missed.
    pub cache_misses: u64,
    /// Results currently cached.
    pub cache_len: usize,
    /// Approximate bytes of cached results currently held.
    pub cache_bytes: usize,
    /// Approximate bytes evicted from the cache over the engine's
    /// lifetime.
    pub cache_evicted_bytes: u64,
}

#[derive(Clone)]
struct Job {
    spec: JobSpec,
    key: CacheKey,
    state: JobState,
    cancel: CancelToken,
    /// Present until a terminal event is emitted; dropping it ends the
    /// subscriber's stream.
    tx: Option<Sender<JobEvent>>,
    /// Set when the job starts running and no other running job holds
    /// its key's checkpoint log: only the holder writes the log, and
    /// only the holder removes it when it ends.
    holds_log: bool,
}

impl Job {
    fn queued(spec: JobSpec, key: CacheKey, tx: Option<Sender<JobEvent>>) -> Job {
        Job {
            spec,
            key,
            state: JobState::Queued,
            cancel: CancelToken::new(),
            tx,
            holds_log: false,
        }
    }
}

/// The durability backends of a state-dir-configured engine.
struct Durable {
    journal: Mutex<Journal>,
    store: ResultStore,
    ck_dir: PathBuf,
}

impl Durable {
    /// Append one journal record; journal I/O failures degrade
    /// durability, never the job itself.
    fn journal(&self, rec: &JournalRecord) {
        let mut j = match self.journal.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let _ = j.append(rec);
    }

    /// The per-key checkpoint log path. Keyed by content (not job id)
    /// so a resubmitted identical job resumes the interrupted one's
    /// checkpoints.
    fn ck_path(&self, key: CacheKey) -> PathBuf {
        self.ck_dir.join(format!("{key}.cklog"))
    }
}

/// Bridges one running job to the durability layer: checkpoint frames go
/// to the per-key [`CheckpointLog`] (fsynced there), then the journal
/// notes the committed cycle. Journal `checkpointed` records therefore
/// always point at durable data.
struct EngineSink<'a> {
    log: CheckpointLog,
    durable: &'a Durable,
    job: u64,
}

impl DurabilitySink for EngineSink<'_> {
    fn resume_point(&mut self) -> Option<JobCheckpoint> {
        self.log.latest().cloned()
    }

    fn checkpoint(&mut self, ck: &JobCheckpoint) {
        self.log.checkpoint(ck);
        self.durable.journal(&JournalRecord::Checkpointed {
            job: self.job,
            cycle: ck.cycles_done,
        });
    }

    fn resumed(&mut self, cycle: u64) {
        self.durable.journal(&JournalRecord::Resumed {
            job: self.job,
            cycle,
        });
    }
}

struct EngineState {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    cache: ResultCache,
    running: usize,
    shutdown: bool,
    /// Drain mode: refuse new submissions but keep computing what is
    /// already queued or running (graceful SIGTERM handling).
    draining: bool,
    /// Keys whose checkpoint log a running job holds (a `force`
    /// resubmission can run beside its identical twin).
    held_logs: HashSet<CacheKey>,
    submitted: u64,
    rejected: u64,
    done: u64,
    cancelled: u64,
    failed: u64,
}

pub(crate) struct Inner {
    cfg: EngineConfig,
    state: Mutex<EngineState>,
    cv: Condvar,
    next_id: AtomicU64,
    durable: Option<Durable>,
}

impl Inner {
    /// Lock the state, recovering from a poisoned mutex (a worker that
    /// panicked while holding it left consistent-enough bookkeeping:
    /// every field is updated atomically under the lock).
    fn lock(&self) -> MutexGuard<'_, EngineState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The cached result for `key`: memory first, then the durable
    /// store, whose hit is promoted into memory. Counts nothing.
    fn lookup(&self, st: &mut EngineState, key: CacheKey) -> Option<Arc<JobBlob>> {
        st.cache.peek(key).or_else(|| {
            let blob = self.durable.as_ref()?.store.get(key)?;
            st.cache.insert(key, Arc::clone(&blob));
            Some(blob)
        })
    }

    /// Serve job `id` from the cache: replay the committed history as
    /// progress (so hit and miss streams line up), then end it
    /// `Done { cache_hit: true }`. `journaled` says whether the job's
    /// submission is in the journal, and so whether its `done` goes
    /// there too.
    fn serve_hit(&self, st: &mut EngineState, id: u64, blob: Arc<JobBlob>, journaled: bool) {
        if let Some(tx) = st.jobs.get(&id).and_then(|j| j.tx.as_ref()) {
            for (c, &r) in blob.artifacts.history.iter().enumerate() {
                let _ = tx.send(JobEvent::Progress {
                    job: id,
                    cycle: c as u64,
                    residual: r,
                });
            }
        }
        let done = JobEvent::Done {
            job: id,
            cache_hit: true,
            blob,
        };
        self.end(st, done, journaled);
    }

    /// The one way a job ends, with `terminal` (`Done`, `Cancelled` or
    /// `Failed`): set its state, bump one counter, journal the terminal
    /// record when `journaled` (a shutdown interrupts work, it does not
    /// retract it: those jobs get no record and resume on the next
    /// start), release the checkpoint log the job held and remove it
    /// after that record, and send the terminal event, which ends the
    /// stream.
    fn end(&self, st: &mut EngineState, terminal: JobEvent, journaled: bool) {
        let (id, state, record) = match &terminal {
            JobEvent::Done { job, blob, .. } => (
                *job,
                JobState::Done,
                JournalRecord::Done {
                    job: *job,
                    result_hash: blob.artifacts.result_hash,
                },
            ),
            JobEvent::Cancelled { job } => (
                *job,
                JobState::Cancelled,
                JournalRecord::Cancelled { job: *job },
            ),
            JobEvent::Failed { job, msg } => (
                *job,
                JobState::Failed,
                JournalRecord::Failed {
                    job: *job,
                    error: msg.clone(),
                },
            ),
            JobEvent::Started { .. } | JobEvent::Progress { .. } => {
                unreachable!("a job ends with a terminal event")
            }
        };
        let Some(j) = st.jobs.get_mut(&id) else {
            return;
        };
        let ran = j.state == JobState::Running;
        j.state = state;
        let (key, tx, held) = (j.key, j.tx.take(), std::mem::take(&mut j.holds_log));
        if held {
            st.held_logs.remove(&key);
        }
        *match state {
            JobState::Done => &mut st.done,
            JobState::Cancelled => &mut st.cancelled,
            _ => &mut st.failed,
        } += 1;
        if ran {
            st.running -= 1;
        }
        if let Some(d) = self.durable.as_ref().filter(|_| journaled) {
            d.journal(&record);
            // Only the job that held its key's checkpoint log wrote it.
            if held {
                let _ = std::fs::remove_file(d.ck_path(key));
            }
        }
        if let Some(tx) = tx {
            let _ = tx.send(terminal);
        }
        // `drain` waits on the condvar for the queue and the workers to
        // empty.
        if st.draining {
            self.cv.notify_all();
        }
    }
}

/// The engine: spawn with [`JobEngine::start`], drive with
/// [`JobEngine::submit`] / [`JobEngine::cancel`], stop with
/// [`JobEngine::shutdown`] (also runs on drop).
pub struct JobEngine {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobEngine {
    /// Start the worker pool. With a `state_dir` configured, opens (or
    /// recovers) the write-ahead journal and the result store, truncates
    /// any crash-damaged tails, and resubmits every journaled job that
    /// never reached a terminal record — those jobs rerun internally
    /// (no subscriber) and resume from their last durable checkpoint.
    /// If a worker thread cannot be spawned, the workers already
    /// started are shut down and joined and the spawn's error returned.
    pub fn start(cfg: EngineConfig) -> std::io::Result<JobEngine> {
        JobEngine::start_with(cfg, |k, inner| {
            std::thread::Builder::new()
                .name(format!("eul3d-serve-worker-{k}"))
                .spawn(move || worker_loop(&inner))
        })
    }

    /// [`JobEngine::start`] with worker `k` spawned by `spawn(k, inner)`,
    /// which must run [`worker_loop`] on `inner`.
    pub(crate) fn start_with(
        cfg: EngineConfig,
        mut spawn: impl FnMut(usize, Arc<Inner>) -> std::io::Result<JoinHandle<()>>,
    ) -> std::io::Result<JobEngine> {
        let mut pending = Vec::new();
        let mut next_id = 1u64;
        let durable = match &cfg.state_dir {
            None => None,
            Some(dir) => {
                // Tail damage is recovered inside `Journal::open`. A
                // damaged *header* (`InvalidData`) leaves nothing to
                // trust: set the file aside for the operator and start
                // empty rather than refuse to start, like the
                // checkpoint-log fallback in `worker_loop`.
                let (journal, replay) = match Journal::open(dir) {
                    Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                        let path = dir.join("journal.log");
                        eprintln!("eul3d-serve: {}: {e}; moved to journal.bad", path.display());
                        std::fs::rename(&path, path.with_extension("bad"))?;
                        Journal::open(dir)?
                    }
                    opened => opened?,
                };
                let store = ResultStore::open(dir)?;
                let ck_dir = dir.join("ck");
                std::fs::create_dir_all(&ck_dir)?;
                pending = replay.pending_jobs();
                next_id = replay.max_job_id() + 1;
                Some(Durable {
                    journal: Mutex::new(journal),
                    store,
                    ck_dir,
                })
            }
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(EngineState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                cache: ResultCache::with_byte_budget(cfg.cache_cap, cfg.cache_bytes),
                running: 0,
                shutdown: false,
                draining: false,
                held_logs: HashSet::new(),
                submitted: 0,
                rejected: 0,
                done: 0,
                cancelled: 0,
                failed: 0,
            }),
            cv: Condvar::new(),
            next_id: AtomicU64::new(next_id),
            durable,
            cfg,
        });
        // Re-enqueue interrupted jobs before any worker exists, so the
        // recovered queue order matches the journaled submission order.
        {
            let mut st = inner.lock();
            for p in pending {
                match RunConfig::from_toml(&p.config) {
                    Ok(rc) => {
                        let spec = JobSpec {
                            rc,
                            mode: p.mode,
                            force: p.force,
                        };
                        st.submitted += 1;
                        st.queue.push_back(p.job);
                        st.jobs.insert(p.job, Job::queued(spec, p.key, None));
                    }
                    Err(e) => {
                        // A journaled config that no longer parses (a
                        // foreign edit, or a format change) terminalizes
                        // as failed instead of wedging the replay.
                        if let Some(d) = &inner.durable {
                            d.journal(&JournalRecord::Failed {
                                job: p.job,
                                error: format!("replayed config no longer parses: {e}"),
                            });
                        }
                    }
                }
            }
        }
        let engine = JobEngine {
            inner,
            workers: Mutex::new(Vec::new()),
        };
        for k in 0..engine.inner.cfg.workers.max(1) {
            match spawn(k, Arc::clone(&engine.inner)) {
                Ok(worker) => match engine.workers.lock() {
                    Ok(mut w) => w.push(worker),
                    Err(p) => p.into_inner().push(worker),
                },
                Err(e) => {
                    // Stop and join the workers already running; queued
                    // jobs stay journaled for the next start.
                    engine.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(engine)
    }

    /// The engine's pinned partitioner seed (folded into cache keys).
    pub fn seed(&self) -> u64 {
        self.inner.cfg.seed
    }

    /// Submit one job. Validates the config, computes the cache key,
    /// and either serves it from the cache (terminal `Done` already in
    /// the stream), enqueues it, or rejects it for backpressure.
    pub fn submit(&self, spec: JobSpec) -> Result<SubmitTicket, SubmitError> {
        let key = CacheKey::of(&spec.rc, spec.mode, self.inner.cfg.seed);
        let (tx, rx) = channel();
        let mut st = self.inner.lock();
        if st.shutdown || st.draining {
            return Err(SubmitError::ShuttingDown);
        }
        // Cache fast path: identical requests cost one lookup and are
        // immune to backpressure. The submission was never journaled,
        // so neither is its `done`.
        let hit = if spec.force {
            None
        } else {
            self.inner.lookup(&mut st, key)
        };
        if let Some(blob) = hit {
            st.cache.count_hit();
            let job = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            st.submitted += 1;
            st.jobs.insert(job, Job::queued(spec, key, Some(tx)));
            self.inner.serve_hit(&mut st, job, blob, false);
            return Ok(SubmitTicket {
                job,
                key,
                events: rx,
            });
        }
        // A miss, or a forced submission (an intentional miss): account
        // it so hit-rate metrics reflect actual solve work.
        st.cache.count_forced_miss();
        if st.queue.len() >= self.inner.cfg.queue_cap {
            st.rejected += 1;
            let retry_after_ms =
                (st.queue.len() as u64 + 1) * self.inner.cfg.retry_after_ms_per_queued;
            return Err(SubmitError::QueueFull { retry_after_ms });
        }
        let job = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        st.submitted += 1;
        st.queue.push_back(job);
        // Write-ahead: the submission is journaled (fsynced) before the
        // ticket exists, while the state lock still orders this line
        // ahead of any record a worker could write for the same job.
        if let Some(d) = &self.inner.durable {
            d.journal(&JournalRecord::Submitted {
                job,
                key,
                mode: spec.mode,
                force: spec.force,
                config: spec.rc.canonical_toml(),
            });
        }
        st.jobs.insert(job, Job::queued(spec, key, Some(tx)));
        drop(st);
        self.inner.cv.notify_one();
        Ok(SubmitTicket {
            job,
            key,
            events: rx,
        })
    }

    /// Cancel a job by id.
    pub fn cancel(&self, job: u64) -> CancelOutcome {
        let mut st = self.inner.lock();
        let Some(j) = st.jobs.get(&job) else {
            return CancelOutcome::Unknown;
        };
        match j.state {
            JobState::Queued => {
                st.queue.retain(|&q| q != job);
                self.inner.end(&mut st, JobEvent::Cancelled { job }, true);
                CancelOutcome::WasQueued
            }
            JobState::Running => {
                j.cancel.cancel();
                CancelOutcome::WasRunning
            }
            _ => CancelOutcome::AlreadyFinished,
        }
    }

    /// Current lifecycle state of a job.
    pub fn job_state(&self, job: u64) -> Option<JobState> {
        self.inner.lock().jobs.get(&job).map(|j| j.state)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EngineStats {
        let st = self.inner.lock();
        EngineStats {
            submitted: st.submitted,
            rejected: st.rejected,
            done: st.done,
            cancelled: st.cancelled,
            failed: st.failed,
            queued: st.queue.len(),
            running: st.running,
            cache_hits: st.cache.hits(),
            cache_misses: st.cache.misses(),
            cache_len: st.cache.len(),
            cache_bytes: st.cache.bytes(),
            cache_evicted_bytes: st.cache.evicted_bytes(),
        }
    }

    /// Stop accepting new work but let everything already queued or
    /// running finish (checkpointing as usual), waiting up to `timeout`;
    /// then shut down. Returns `true` when the queue fully drained —
    /// `false` means the timeout expired and the remainder was cancelled
    /// (their checkpoints survive for the next start to resume).
    pub fn drain(&self, timeout: Duration) -> bool {
        let drained = {
            let mut st = self.inner.lock();
            st.draining = true;
            let busy = |st: &mut EngineState| !st.queue.is_empty() || st.running > 0;
            let (mut st, _) = match self.inner.cv.wait_timeout_while(st, timeout, busy) {
                Ok(r) => r,
                Err(p) => p.into_inner(),
            };
            !busy(&mut st)
        };
        self.shutdown();
        drained
    }

    /// Stop accepting work, cancel everything queued or running, and
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.lock();
            if !st.shutdown {
                st.shutdown = true;
                // Queued jobs end cancelled without running, and without
                // a terminal record: on a durable engine the next start
                // replays their `submitted` records and finishes them.
                while let Some(id) = st.queue.pop_front() {
                    self.inner
                        .end(&mut st, JobEvent::Cancelled { job: id }, false);
                }
                // Running jobs stop at their next cycle boundary.
                for j in st.jobs.values() {
                    if j.state == JobState::Running {
                        j.cancel.cancel();
                    }
                }
            }
        }
        self.inner.cv.notify_all();
        let handles = {
            let mut w = match self.workers.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            std::mem::take(&mut *w)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The next job for this worker to run, marked running with its
/// deadline armed; queued jobs an identical finished job now answers
/// are served from the cache on the way. `None` once shut down.
fn next_job(inner: &Inner) -> Option<(u64, Job)> {
    let mut st = inner.lock();
    loop {
        let Some(id) = st.queue.pop_front() else {
            if st.shutdown {
                return None;
            }
            st = match inner.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            continue;
        };
        let Some(j) = st.jobs.get(&id) else {
            continue;
        };
        // Dequeue-time re-check: an identical job may have finished
        // while this one waited (the submit-time lookup already counted
        // this request's miss).
        let (force, key) = (j.spec.force, j.key);
        let hit = if force {
            None
        } else {
            inner.lookup(&mut st, key)
        };
        if let Some(blob) = hit {
            // Journal its `done`: otherwise a job that crashed between
            // its store write and its `done` record would be resubmitted
            // on every restart.
            inner.serve_hit(&mut st, id, blob, true);
            continue;
        }
        // Through a plain reference the job and the held logs are
        // separate borrows.
        let st = &mut *st;
        let Some(j) = st.jobs.get_mut(&id) else {
            continue;
        };
        j.state = JobState::Running;
        j.holds_log = inner.durable.is_some() && st.held_logs.insert(key);
        if let Some(ms) = inner.cfg.deadline_ms {
            j.cancel.arm_deadline(Duration::from_millis(ms));
        }
        let next = (id, j.clone());
        st.running += 1;
        return Some(next);
    }
}

pub(crate) fn worker_loop(inner: &Inner) {
    while let Some((job, running)) = next_job(inner) {
        let Job {
            spec,
            key,
            cancel: token,
            tx,
            holds_log,
            ..
        } = running;
        if let Some(d) = &inner.durable {
            d.journal(&JournalRecord::Started { job });
        }
        if let Some(tx) = &tx {
            let _ = tx.send(JobEvent::Started { job });
        }
        // The durability sink: per-key CRC-framed checkpoint log plus
        // journal breadcrumbs. An unopenable log (damaged beyond the
        // tail-truncation recovery, e.g. a foreign file at its path)
        // degrades the job to non-durable instead of failing it, and so
        // does a log another running job holds.
        let mut sink = inner.durable.as_ref().filter(|_| holds_log).and_then(|d| {
            let path = d.ck_path(key);
            let opened = CheckpointLog::open(&path).ok().or_else(|| {
                let _ = std::fs::remove_file(&path);
                CheckpointLog::open(&path).ok()
            })?;
            Some(EngineSink {
                log: opened.0,
                durable: d,
                job,
            })
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_job_durable(
                &spec.rc,
                spec.mode,
                inner.cfg.seed,
                &token,
                &mut |cycle, residual| {
                    if let Some(tx) = &tx {
                        let _ = tx.send(JobEvent::Progress {
                            job,
                            cycle,
                            residual,
                        });
                    }
                },
                sink.as_mut().map(|s| s as &mut dyn DurabilitySink),
            )
        }));
        // Worker hygiene: a cancelled solve unwinds past its trace
        // disarm; drop any leftover tracer so the next job on this
        // thread starts clean (install() also resets the lane clock).
        drop(obs::take());
        drop(tx);

        let mut st = inner.lock();
        let (terminal, journaled) = match result {
            Ok(Ok(artifacts)) => {
                // Persist to the store *before* the `done` record: a
                // crash between the two replays the job, which then
                // finds its result in the store — idempotent.
                let blob = Arc::new(JobBlob { artifacts });
                if let Some(d) = &inner.durable {
                    let _ = d.store.put(key, &blob);
                }
                st.cache.insert(key, Arc::clone(&blob));
                let done = JobEvent::Done {
                    job,
                    cache_hit: false,
                    blob,
                };
                (done, true)
            }
            Ok(Err(e)) => (
                JobEvent::Failed {
                    job,
                    msg: e.to_string(),
                },
                true,
            ),
            Err(payload) if payload.is::<FaultSignal>() && token.is_cancelled() => {
                if token.overran() {
                    let ms = inner.cfg.deadline_ms.unwrap_or(0);
                    let msg = format!("deadline exceeded: job ran past {ms} ms");
                    (JobEvent::Failed { job, msg }, true)
                } else {
                    // A shutdown-induced cancellation is an
                    // interruption, not a verdict: leave the journal
                    // open so the job resumes on the next start.
                    (JobEvent::Cancelled { job }, !(st.shutdown || st.draining))
                }
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "solver panicked".to_string());
                let msg = format!("solver panicked: {msg}");
                (JobEvent::Failed { job, msg }, true)
            }
        };
        inner.end(&mut st, terminal, journaled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spec(cycles: usize, force: bool) -> JobSpec {
        JobSpec {
            rc: RunConfig {
                levels: 2,
                cycles,
                mesh: eul3d_mesh::gen::BumpSpec {
                    nx: 8,
                    ny: 4,
                    nz: 3,
                    ..Default::default()
                },
                nranks: 4,
                ..RunConfig::default()
            },
            mode: JobMode::Solve,
            force,
        }
    }

    fn drain(t: &SubmitTicket) -> Vec<JobEvent> {
        let mut out = Vec::new();
        while let Ok(ev) = t.events.recv_timeout(Duration::from_secs(120)) {
            let terminal = matches!(
                ev,
                JobEvent::Done { .. } | JobEvent::Cancelled { .. } | JobEvent::Failed { .. }
            );
            out.push(ev);
            if terminal {
                break;
            }
        }
        out
    }

    #[test]
    fn a_failed_worker_spawn_joins_the_started_workers_and_is_returned() {
        use std::sync::atomic::AtomicBool;
        let joined = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&joined);
        let started = JobEngine::start_with(
            EngineConfig {
                workers: 3,
                ..EngineConfig::default()
            },
            move |k, inner| {
                if k == 1 {
                    return Err(std::io::Error::other("no thread for worker 1"));
                }
                let seen = Arc::clone(&seen);
                std::thread::Builder::new().spawn(move || {
                    worker_loop(&inner);
                    seen.store(true, Ordering::SeqCst);
                })
            },
        );
        let Err(e) = started else {
            panic!("a failed spawn must fail the start");
        };
        assert_eq!(e.to_string(), "no thread for worker 1");
        assert!(
            joined.load(Ordering::SeqCst),
            "worker 0 was stopped and joined before the error returned"
        );
    }

    #[test]
    fn submit_computes_then_hits_cache() {
        let eng = JobEngine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .unwrap();
        let t1 = eng.submit(spec(3, false)).unwrap();
        let evs = drain(&t1);
        let Some(JobEvent::Done {
            cache_hit: false,
            blob: b1,
            ..
        }) = evs.last().cloned()
        else {
            panic!("expected computed Done, got {evs:?}");
        };
        let t2 = eng.submit(spec(3, false)).unwrap();
        let evs2 = drain(&t2);
        let Some(JobEvent::Done {
            cache_hit: true,
            blob: b2,
            ..
        }) = evs2.last().cloned()
        else {
            panic!("expected cache hit, got {evs2:?}");
        };
        assert_eq!(b1.artifacts.table, b2.artifacts.table);
        assert!(
            evs2.iter()
                .filter(|e| matches!(e, JobEvent::Progress { .. }))
                .count()
                == 3,
            "hits replay progress from the committed history"
        );
        let s = eng.stats();
        assert_eq!((s.done, s.cache_hits, s.cache_misses), (2, 1, 1));
        eng.shutdown();
    }

    #[test]
    fn backpressure_rejects_with_retry_hint() {
        // No workers draining (queue_cap 1, one long job hogs the lone
        // worker): the queue fills and the next submission bounces.
        let eng = JobEngine::start(EngineConfig {
            workers: 1,
            queue_cap: 1,
            ..EngineConfig::default()
        })
        .unwrap();
        let _hog = eng.submit(spec(400, false)).unwrap();
        // Give the worker a moment to take the hog off the queue, then
        // fill the single queue slot.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while eng.stats().running == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _waiting = eng.submit(spec(401, false)).unwrap();
        match eng.submit(spec(402, false)) {
            Err(SubmitError::QueueFull { retry_after_ms }) => assert!(retry_after_ms > 0),
            Err(other) => panic!("expected QueueFull, got {other:?}"),
            Ok(_) => panic!("expected QueueFull, got an accepted ticket"),
        }
        assert_eq!(eng.stats().rejected, 1);
        eng.shutdown();
    }

    #[test]
    fn cancel_queued_and_running() {
        let eng = JobEngine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .unwrap();
        let hog = eng.submit(spec(500, false)).unwrap();
        let queued = eng.submit(spec(501, false)).unwrap();
        assert_eq!(eng.cancel(queued.job), CancelOutcome::WasQueued);
        let evs = drain(&queued);
        assert!(matches!(evs.last(), Some(JobEvent::Cancelled { .. })));
        // Wait until the hog is actually running, then cancel it.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while eng.job_state(hog.job) != Some(JobState::Running)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(eng.cancel(hog.job), CancelOutcome::WasRunning);
        let evs = drain(&hog);
        assert!(
            matches!(evs.last(), Some(JobEvent::Cancelled { .. })),
            "{evs:?}"
        );
        assert_eq!(eng.cancel(hog.job), CancelOutcome::AlreadyFinished);
        assert_eq!(eng.cancel(9999), CancelOutcome::Unknown);
        let s = eng.stats();
        assert_eq!((s.cancelled, s.queued, s.running), (2, 0, 0));
        eng.shutdown();
    }

    #[test]
    fn drain_returns_when_the_last_job_ends() {
        let eng = JobEngine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .unwrap();
        let running = eng.submit(spec(40, false)).unwrap();
        let queued = eng.submit(spec(41, false)).unwrap();
        let t0 = std::time::Instant::now();
        assert!(eng.drain(Duration::from_secs(60)), "both jobs finish");
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the ending job wakes drain, not its timeout"
        );
        for t in [&running, &queued] {
            assert!(matches!(drain(t).last(), Some(JobEvent::Done { .. })));
        }
    }

    #[test]
    fn invalid_config_fails_typed() {
        let eng = JobEngine::start(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .unwrap();
        let mut s = spec(3, false);
        s.rc.solver.mach = -1.0;
        let t = eng.submit(s).unwrap();
        let evs = drain(&t);
        let Some(JobEvent::Failed { msg, .. }) = evs.last() else {
            panic!("expected Failed, got {evs:?}");
        };
        assert!(msg.contains("solver.mach"), "{msg}");
        eng.shutdown();
    }
}
