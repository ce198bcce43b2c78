//! Durable-engine integration tests: the crash-safety contract at the
//! engine level, with the crash state constructed deterministically
//! (journal + checkpoint log written by hand through the same codecs
//! the engine uses) so there is no race against a live worker. The
//! subprocess `kill -9` end of the story lives in
//! `crates/cli/tests/crash_recovery.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eul3d_core::ckstore::{CheckpointLog, DurabilitySink, JobCheckpoint};
use eul3d_core::{run_job_durable, CancelToken, JobMode, RunConfig};
use eul3d_serve::engine::{EngineConfig, JobEngine, JobEvent, JobSpec, SubmitError};
use eul3d_serve::journal::{Journal, JournalRecord};
use eul3d_serve::{CacheKey, JobBlob, ResultStore};

const SEED: u64 = 7;
const CFG: &str = "[run]\nlevels = 2\ncycles = 24\ncheckpoint_every = 4\n\
                   [mesh]\nnx = 10\nny = 5\nnz = 4\n";

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("eul3d-durab-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn engine_cfg(dir: &Path) -> EngineConfig {
    EngineConfig {
        workers: 1,
        seed: SEED,
        state_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    }
}

fn spec() -> JobSpec {
    JobSpec {
        rc: RunConfig::from_toml(CFG).unwrap(),
        mode: JobMode::Solve,
        force: false,
    }
}

/// Submit and block until the terminal event; returns the result blob.
fn run_to_done(eng: &JobEngine, spec: JobSpec) -> Arc<JobBlob> {
    let ticket = eng.submit(spec).expect("submit");
    for ev in ticket.events.iter() {
        match ev {
            JobEvent::Done { blob, .. } => return blob,
            JobEvent::Failed { msg, .. } => panic!("job failed: {msg}"),
            JobEvent::Cancelled { .. } => panic!("job cancelled"),
            _ => {}
        }
    }
    panic!("stream ended without a terminal event");
}

fn wait_done(eng: &JobEngine, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while eng.stats().done < n {
        assert!(Instant::now() < deadline, "timed out waiting for {n} done");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn journal_text(dir: &Path) -> String {
    String::from_utf8_lossy(&std::fs::read(dir.join("journal.log")).unwrap_or_default())
        .into_owned()
}

/// A sink that records every checkpoint the solver offers.
#[derive(Default)]
struct Capture {
    cks: Vec<JobCheckpoint>,
}

impl DurabilitySink for Capture {
    fn resume_point(&mut self) -> Option<JobCheckpoint> {
        None
    }
    fn checkpoint(&mut self, ck: &JobCheckpoint) {
        self.cks.push(ck.clone());
    }
}

/// Write the state a `kill -9` mid-job leaves behind: a journal whose
/// last records are `submitted`/`started` (no terminal), and a
/// checkpoint log holding the job's progress up to `upto_cycle`.
fn plant_crash_state(dir: &Path, upto_cycle: u64) -> CacheKey {
    let rc = RunConfig::from_toml(CFG).unwrap();
    let key = CacheKey::of(&rc, JobMode::Solve, SEED);
    let mut cap = Capture::default();
    run_job_durable(
        &rc,
        JobMode::Solve,
        SEED,
        &CancelToken::new(),
        &mut |_, _| {},
        Some(&mut cap),
    )
    .expect("reference solve");
    assert!(
        cap.cks.iter().any(|c| c.cycles_done == upto_cycle),
        "no checkpoint at cycle {upto_cycle}; have {:?}",
        cap.cks.iter().map(|c| c.cycles_done).collect::<Vec<_>>()
    );
    let (mut journal, _) = Journal::open(dir).unwrap();
    journal
        .append(&JournalRecord::Submitted {
            job: 1,
            key,
            mode: JobMode::Solve,
            force: false,
            config: rc.canonical_toml(),
        })
        .unwrap();
    journal.append(&JournalRecord::Started { job: 1 }).unwrap();
    let ck_dir = dir.join("ck");
    std::fs::create_dir_all(&ck_dir).unwrap();
    let (mut log, _) = CheckpointLog::open(&ck_dir.join(format!("{key}.cklog"))).unwrap();
    for ck in cap.cks.iter().filter(|c| c.cycles_done <= upto_cycle) {
        log.append(ck).unwrap();
        journal
            .append(&JournalRecord::Checkpointed {
                job: 1,
                cycle: ck.cycles_done,
            })
            .unwrap();
    }
    key
}

fn assert_identical(a: &JobBlob, b: &JobBlob, what: &str) {
    let (a, b) = (&a.artifacts, &b.artifacts);
    assert_eq!(a.result_hash, b.result_hash, "{what}: result_hash");
    let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.history), bits(&b.history), "{what}: history");
    assert_eq!(a.table, b.table, "{what}: table");
    assert_eq!(bits(&a.mach), bits(&b.mach), "{what}: mach");
    assert_eq!(a.trace_json, b.trace_json, "{what}: trace");
}

#[test]
fn restart_resumes_interrupted_job_to_byte_identical_result() {
    // Baseline: the same submission, never interrupted.
    let base_dir = tmpdir("resume-base");
    let base = {
        let eng = JobEngine::start(engine_cfg(&base_dir)).unwrap();
        let blob = run_to_done(&eng, spec());
        eng.shutdown();
        blob
    };

    // Crashed server: journal says submitted+started, checkpoints
    // through cycle 8, no terminal record.
    let dir = tmpdir("resume-crash");
    let key = plant_crash_state(&dir, 8);

    // Restart. The engine must resubmit job 1, resume it from cycle 8,
    // and complete it with artifacts identical to the baseline.
    let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
    wait_done(&eng, 1);
    eng.shutdown();

    let resumed = ResultStore::open(&dir)
        .unwrap()
        .get(key)
        .expect("result persisted after resume");
    assert_identical(&base, &resumed, "resumed vs uninterrupted");

    let j = journal_text(&dir);
    assert!(
        j.contains("\"record\":\"resumed\"") || j.contains("resumed"),
        "journal records the resume: {j}"
    );
    assert!(j.contains("done"), "journal terminalizes the job: {j}");
    assert!(
        !dir.join("ck").join(format!("{key}.cklog")).exists(),
        "checkpoint log cleaned up after the terminal record"
    );

    // A third start finds nothing pending and serves the key from disk.
    let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
    assert_eq!(eng.stats().queued, 0, "no pending work after done");
    let hit = run_to_done(&eng, spec());
    assert_identical(&base, &hit, "store hit vs uninterrupted");
    assert_eq!(eng.stats().cache_hits, 1);
    eng.shutdown();
}

#[test]
fn completed_results_survive_restart_as_store_hits() {
    let dir = tmpdir("store-hit");
    let first = {
        let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
        let blob = run_to_done(&eng, spec());
        eng.shutdown();
        blob
    };
    let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
    let again = run_to_done(&eng, spec());
    assert_identical(&first, &again, "across restart");
    let s = eng.stats();
    assert_eq!(
        (s.cache_hits, s.cache_misses),
        (1, 0),
        "served from the durable store without recompute"
    );
    eng.shutdown();
}

#[test]
fn a_journal_from_a_build_that_wrote_edge_reorder_still_replays() {
    // Builds up to PR 19 wrote `edge_reorder` into every canonical
    // config; the key went with the coloured sweep it tuned, but the
    // journal is a durable format: an interrupted job journaled by such
    // a build must resume on this one, to the bits of a fresh run.
    let dir = tmpdir("old-key");
    let rc = RunConfig::from_toml(CFG).unwrap();
    let old_config = rc
        .canonical_toml()
        .replace("\nlanes = ", "\nedge_reorder = false\nlanes = ");
    assert!(old_config.contains("edge_reorder") && !rc.canonical_toml().contains("edge_reorder"));
    let key = CacheKey::of(&rc, JobMode::Solve, SEED);
    {
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal
            .append(&JournalRecord::Submitted {
                job: 1,
                key,
                mode: JobMode::Solve,
                force: false,
                config: old_config,
            })
            .unwrap();
        journal.append(&JournalRecord::Started { job: 1 }).unwrap();
    }
    let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
    wait_done(&eng, 1);
    assert_eq!(eng.stats().failed, 0, "{}", journal_text(&dir));
    let replayed = ResultStore::open(&dir).unwrap().get(key).expect("stored");
    eng.shutdown();
    let fresh_dir = tmpdir("old-key-fresh");
    let fresh = JobEngine::start(engine_cfg(&fresh_dir)).unwrap();
    assert_identical(&replayed, &run_to_done(&fresh, spec()), "replayed vs fresh");
    fresh.shutdown();
}

#[test]
fn cancelled_jobs_do_not_resume_on_restart() {
    let dir = tmpdir("cancelled");
    let rc = RunConfig::from_toml(CFG).unwrap();
    let key = CacheKey::of(&rc, JobMode::Solve, SEED);
    {
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal
            .append(&JournalRecord::Submitted {
                job: 1,
                key,
                mode: JobMode::Solve,
                force: false,
                config: rc.canonical_toml(),
            })
            .unwrap();
        journal
            .append(&JournalRecord::Cancelled { job: 1 })
            .unwrap();
    }
    let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
    let s = eng.stats();
    assert_eq!((s.queued, s.running), (0, 0), "cancelled job stays dead");
    eng.shutdown();
    assert!(
        ResultStore::open(&dir).unwrap().get(key).is_none(),
        "nothing was computed for the cancelled job"
    );
}

#[test]
fn drain_refuses_new_work_and_reports_drained() {
    let dir = tmpdir("drain");
    let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
    let blob = run_to_done(&eng, spec());
    assert!(!blob.artifacts.history.is_empty());
    assert!(
        eng.drain(Duration::from_secs(30)),
        "idle engine drains immediately"
    );
    match eng.submit(spec()) {
        Err(SubmitError::ShuttingDown) => {}
        Err(e) => panic!("wrong rejection: {e:?}"),
        Ok(_) => panic!("drained engine accepted work"),
    }
}

#[test]
fn deadline_terminates_overrunning_jobs_as_failed() {
    let dir = tmpdir("deadline");
    let cfg = EngineConfig {
        deadline_ms: Some(1),
        ..engine_cfg(&dir)
    };
    let eng = JobEngine::start(cfg).unwrap();
    // Big enough to outlive a 1 ms deadline by orders of magnitude.
    let slow = "[run]\nlevels = 2\ncycles = 400\n[mesh]\nnx = 16\nny = 8\nnz = 6\n";
    let spec = JobSpec {
        rc: RunConfig::from_toml(slow).unwrap(),
        mode: JobMode::Solve,
        force: false,
    };
    let ticket = eng.submit(spec).expect("submit");
    let mut failed_msg = None;
    for ev in ticket.events.iter() {
        match ev {
            JobEvent::Failed { msg, .. } => {
                failed_msg = Some(msg);
                break;
            }
            JobEvent::Done { .. } | JobEvent::Cancelled { .. } => break,
            _ => {}
        }
    }
    let msg = failed_msg.expect("job terminates as failed, not done/cancelled");
    assert!(msg.contains("deadline"), "{msg}");
    assert!(
        journal_text(&dir).contains("deadline"),
        "deadline failure is journaled"
    );
    eng.shutdown();
}

/// A job's events up to its terminal one, which comes last.
fn stream_of(ticket: &eul3d_serve::SubmitTicket) -> Vec<JobEvent> {
    let mut evs = Vec::new();
    for ev in ticket.events.iter() {
        let terminal = !matches!(ev, JobEvent::Started { .. } | JobEvent::Progress { .. });
        evs.push(ev);
        if terminal {
            return evs;
        }
    }
    panic!("stream ended without a terminal event");
}

fn started(evs: &[JobEvent]) -> bool {
    evs.iter().any(|e| matches!(e, JobEvent::Started { .. }))
}

#[test]
fn the_deadline_counts_from_dequeue_not_from_submission() {
    let dir = tmpdir("deadline-queue");
    let deadline_ms = 500;
    let cfg = EngineConfig {
        deadline_ms: Some(deadline_ms),
        ..engine_cfg(&dir)
    };
    let eng = JobEngine::start(cfg).unwrap();
    // The long job overruns the deadline by orders of magnitude; the
    // short one waits behind it on the lone worker.
    let long = "[run]\nlevels = 2\ncycles = 20000\n[mesh]\nnx = 10\nny = 5\nnz = 4\n";
    let short = "[run]\nlevels = 2\ncycles = 3\n[mesh]\nnx = 8\nny = 4\nnz = 3\n";
    let job = |toml: &str| JobSpec {
        rc: RunConfig::from_toml(toml).unwrap(),
        mode: JobMode::Solve,
        force: false,
    };
    let submitted = Instant::now();
    let long = eng.submit(job(long)).expect("submit long");
    let short = eng.submit(job(short)).expect("submit short");

    let evs = stream_of(&long);
    let Some(JobEvent::Failed { msg, .. }) = evs.last() else {
        panic!("the long job must fail on its deadline, got {evs:?}");
    };
    assert!(msg.contains("deadline"), "{msg}");
    let waited = submitted.elapsed();
    assert!(
        waited >= Duration::from_millis(deadline_ms),
        "the short job waited {waited:?}, less than the deadline"
    );
    let evs = stream_of(&short);
    assert!(
        matches!(
            evs.last(),
            Some(JobEvent::Done {
                cache_hit: false,
                ..
            })
        ),
        "queue wait must not count against the deadline, got {evs:?}"
    );
    assert!(started(&evs));
    let s = eng.stats();
    assert_eq!((s.done, s.failed, s.cancelled), (1, 1, 0));
    eng.shutdown();
}

#[test]
fn a_twin_queued_while_its_result_computes_is_a_journaled_dequeue_hit() {
    let dir = tmpdir("dequeue-hit");
    let eng = JobEngine::start(engine_cfg(&dir)).unwrap();
    // One worker: the twin waits in the queue while the first copy
    // computes, so its submit-time lookup misses.
    let first = eng.submit(spec()).expect("submit first");
    let twin = eng.submit(spec()).expect("submit twin");
    assert_eq!(eng.stats().cache_misses, 2, "the twin missed at submit");

    let evs = stream_of(&first);
    assert!(matches!(
        evs.last(),
        Some(JobEvent::Done {
            cache_hit: false,
            ..
        })
    ));
    assert!(started(&evs));
    let evs = stream_of(&twin);
    assert!(!started(&evs), "a dequeue hit never starts: {evs:?}");
    let Some(JobEvent::Done {
        cache_hit: true,
        blob,
        ..
    }) = evs.last()
    else {
        panic!("the twin must be served from the cache, got {evs:?}");
    };
    assert_eq!(
        evs.len(),
        blob.artifacts.history.len() + 1,
        "history replayed"
    );

    let s = eng.stats();
    assert_eq!((s.done, s.cache_hits, s.cache_misses), (2, 0, 2));
    eng.shutdown();
    let j = journal_text(&dir);
    let rec = |name: &str, job: u64| format!("\"rec\":\"{name}\",\"job\":{job}");
    assert!(j.contains(&rec("started", first.job)), "{j}");
    assert!(!j.contains(&rec("started", twin.job)), "{j}");
    for job in [first.job, twin.job] {
        assert!(
            j.contains(&rec("done", job)),
            "job {job} journals done: {j}"
        );
    }
}
