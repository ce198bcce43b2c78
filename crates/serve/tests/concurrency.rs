//! Concurrency storm over the job engine: several client threads
//! interleaving submit / cancel / resubmit against a shared engine must
//! leave **no leaked jobs** (every accepted job reaches exactly one
//! terminal state and the accounting balances), **no deadlocks** (every
//! stream terminates within the receive bound), and **deterministic
//! per-job outputs** (every completed run of a given config produces
//! the same bytes, no matter which worker ran it, what ran before it on
//! that worker, or how many cancellations happened around it).
//!
//! Seed-matrix friendly (`EUL3D_SEED` only changes the common bytes)
//! and time-bounded throughout.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eul3d_core::{env_seed, JobMode, RunConfig};
use eul3d_serve::engine::{
    CancelOutcome, EngineConfig, JobEngine, JobEvent, JobSpec, SubmitError, SubmitTicket,
};

const RECV_TIMEOUT: Duration = Duration::from_secs(240);
const CLIENTS: usize = 4;
const ROUNDS: usize = 6;

/// A small pool of distinct configs; cycle counts differ so the jobs
/// have genuinely different lifetimes and bytes.
fn config_pool() -> Vec<RunConfig> {
    [3usize, 5, 8]
        .iter()
        .map(|&cycles| {
            RunConfig::from_toml(&format!(
                "[run]\nlevels = 2\ncycles = {cycles}\n[mesh]\nnx = 8\nny = 4\nnz = 3\n"
            ))
            .expect("fixture config parses")
        })
        .collect()
}

fn spec(rc: &RunConfig) -> JobSpec {
    JobSpec {
        rc: rc.clone(),
        mode: JobMode::Solve,
        force: false,
    }
}

/// Drain to the terminal event; returns (terminal kind, table bytes if
/// Done).
fn drain(t: &SubmitTicket) -> (&'static str, Option<String>) {
    let deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match t
            .events
            .recv_timeout(left)
            .expect("no deadlock: stream ends in time")
        {
            JobEvent::Done { blob, .. } => return ("done", Some(blob.artifacts.table.clone())),
            JobEvent::Cancelled { .. } => return ("cancelled", None),
            JobEvent::Failed { msg, .. } => panic!("no job may fail in this storm: {msg}"),
            _ => {}
        }
    }
}

#[test]
fn interleaved_submit_cancel_resubmit_leaks_nothing_and_stays_deterministic() {
    let eng = Arc::new(
        JobEngine::start(EngineConfig {
            workers: 3,
            queue_cap: 64,
            cache_cap: 64,
            seed: env_seed(7),
            retry_after_ms_per_queued: 5,
            ..EngineConfig::default()
        })
        .expect("engine starts"),
    );
    let pool = config_pool();

    // Phase 1: the storm. Each client round-robins the config pool;
    // on every third round it cancels its submission immediately
    // (races deliberately against dequeue/completion) and resubmits.
    let tables: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let eng = Arc::clone(&eng);
                let pool = &pool;
                s.spawn(move || {
                    let mut out: Vec<(usize, String)> = Vec::new();
                    for round in 0..ROUNDS {
                        let which = (client + round) % pool.len();
                        let ticket = eng
                            .submit(spec(&pool[which]))
                            .expect("queue sized for storm");
                        if round % 3 == 2 {
                            // Cancel whatever state the job is in; all
                            // four outcomes are legal in the race.
                            let outcome = eng.cancel(ticket.job);
                            assert!(
                                matches!(
                                    outcome,
                                    CancelOutcome::WasQueued
                                        | CancelOutcome::WasRunning
                                        | CancelOutcome::AlreadyFinished
                                        | CancelOutcome::Unknown
                                ),
                                "{outcome:?}"
                            );
                            let (kind, table) = drain(&ticket);
                            if let Some(t) = table {
                                out.push((which, t));
                            } else {
                                assert_eq!(kind, "cancelled");
                            }
                            // Resubmit: the replacement must complete.
                            let retry = eng.submit(spec(&pool[which])).expect("resubmit accepted");
                            let (kind, table) = drain(&retry);
                            assert_eq!(kind, "done", "resubmitted job completes");
                            out.push((which, table.expect("done carries bytes")));
                        } else {
                            let (kind, table) = drain(&ticket);
                            assert_eq!(kind, "done");
                            out.push((which, table.expect("done carries bytes")));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Determinism: every completed run of a config produced identical
    // bytes, regardless of worker, interleaving, or cache path.
    let mut by_config: HashMap<usize, Vec<&String>> = HashMap::new();
    for (which, table) in &tables {
        by_config.entry(*which).or_default().push(table);
    }
    assert_eq!(
        by_config.len(),
        pool.len(),
        "every config completed at least once"
    );
    for (which, runs) in &by_config {
        assert!(runs.len() >= 2, "config {which} completed more than once");
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "config {which}: table bytes diverged across {} completions",
            runs.len()
        );
    }

    // No leaks: nothing queued or running, and the accepted jobs all
    // reached exactly one terminal state.
    let s = eng.stats();
    assert_eq!((s.queued, s.running), (0, 0), "{s:?}");
    assert_eq!(s.failed, 0, "{s:?}");
    assert_eq!(
        s.submitted,
        s.done + s.cancelled,
        "terminal accounting balances: {s:?}"
    );
    assert!(s.done as usize >= tables.len(), "{s:?}");
    eng.shutdown();
    // Shutdown is idempotent and the engine stays consistent after it.
    eng.shutdown();
    assert!(matches!(
        eng.submit(spec(&pool[0])),
        Err(SubmitError::ShuttingDown)
    ));
}

#[test]
fn backpressure_storm_rejects_cleanly_without_losing_accepted_jobs() {
    // One worker, tiny queue: most submissions bounce, but every
    // *accepted* job must still terminate and be accounted for.
    let eng = Arc::new(
        JobEngine::start(EngineConfig {
            workers: 1,
            queue_cap: 2,
            cache_cap: 8,
            seed: env_seed(7),
            retry_after_ms_per_queued: 5,
            ..EngineConfig::default()
        })
        .expect("engine starts"),
    );
    let pool = config_pool();
    let (accepted, rejected): (u64, u64) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let eng = Arc::clone(&eng);
                let pool = &pool;
                s.spawn(move || {
                    let mut acc = 0u64;
                    let mut rej = 0u64;
                    for round in 0..ROUNDS {
                        // Force recompute so the cache fast path never
                        // bypasses the queue: real backpressure.
                        let mut sp = spec(&pool[(client + round) % pool.len()]);
                        sp.force = true;
                        match eng.submit(sp) {
                            Ok(t) => {
                                acc += 1;
                                let (kind, _) = drain(&t);
                                assert_eq!(kind, "done");
                            }
                            Err(SubmitError::QueueFull { retry_after_ms }) => {
                                rej += 1;
                                assert!(retry_after_ms > 0, "hint scales with depth");
                            }
                            Err(e) => panic!("unexpected submit error: {e:?}"),
                        }
                    }
                    (acc, rej)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .fold((0, 0), |(a, r), (x, y)| (a + x, r + y))
    });
    assert_eq!(accepted, CLIENTS as u64 * ROUNDS as u64 - rejected);
    let s = eng.stats();
    assert_eq!((s.queued, s.running), (0, 0), "{s:?}");
    assert_eq!(s.submitted, accepted, "{s:?}");
    assert_eq!(s.rejected, rejected, "{s:?}");
    assert_eq!(s.done, accepted, "every accepted job completed: {s:?}");
    eng.shutdown();
}
