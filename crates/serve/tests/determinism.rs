//! The determinism contract of the service, end to end: a cached
//! result and a fresh recompute must be **byte-identical** — result
//! table, exported Chrome trace, Mach field (and the VTK rendered from
//! it on request), and the 128-bit result hash — including under the adversarial configurations (divergence
//! guard × injected faults) where rollback/replay machinery runs; and a
//! job that is cancelled mid-run and resubmitted must reproduce the
//! uncancelled run bit for bit.
//!
//! Every assertion is identity-based, so the suite is seed-matrix
//! friendly: `EUL3D_SEED` changes *which* bytes both sides produce,
//! never whether they agree. All receives are time-bounded.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use eul3d_core::dist::{
    rank0_lane, run_distributed_with_faults, DistOptions, DistSetup, FaultOptions,
};
use eul3d_core::job::render_trace;
use eul3d_core::{env_seed, JobMode, RunConfig};
use eul3d_mesh::MeshSequence;
use eul3d_obs::{wire, Stamped};
use eul3d_serve::cache::{CacheKey, JobBlob};
use eul3d_serve::engine::{EngineConfig, JobEngine, JobEvent, JobSpec, SubmitTicket};
use eul3d_serve::json::JObj;
use eul3d_serve::{client, server, ResultStore};

const RECV_TIMEOUT: Duration = Duration::from_secs(180);

fn engine(workers: usize) -> JobEngine {
    JobEngine::start(EngineConfig {
        workers,
        queue_cap: 32,
        cache_cap: 32,
        seed: env_seed(7),
        retry_after_ms_per_queued: 10,
        ..EngineConfig::default()
    })
    .expect("engine starts")
}

/// The adversarial configuration: distributed guarded run with an
/// injected rank kill, checkpointing, and tracing — the full
/// rollback/recovery/replay machinery is live.
const GUARDED_FAULT_TOML: &str = "[solver]\ncfl = 30.0\nmach = 0.5\n\
     [run]\nlevels = 2\ncycles = 8\nnranks = 4\n\
     checkpoint_every = 2\nfaults = \"kill:1@5\"\n\
     [mesh]\nnx = 10\nny = 4\nnz = 3\ntaper = 0.6\njitter = 0.1\n\
     [guard]\nmax_retries = 4\ncfl_backoff = 0.25\n\
     [trace]\nenabled = true\ncapacity = 4096\n";

fn guarded_fault_config() -> RunConfig {
    RunConfig::from_toml(GUARDED_FAULT_TOML).expect("fixture config parses")
}

/// The same run with the kill moved to virtual rank 0, the rank whose
/// lane a result streams: a replica adopts it and finishes the run.
fn rank0_fault_toml() -> String {
    GUARDED_FAULT_TOML.replace("kill:1@5", "kill:0@5")
}

fn small_config(cycles: usize) -> RunConfig {
    RunConfig::from_toml(&format!(
        "[run]\nlevels = 2\ncycles = {cycles}\n[mesh]\nnx = 8\nny = 4\nnz = 3\n"
    ))
    .expect("fixture config parses")
}

/// Drain a ticket to its terminal event, returning (events, blob if
/// Done).
fn drain(t: &SubmitTicket) -> (Vec<JobEvent>, Option<Arc<JobBlob>>) {
    let mut evs = Vec::new();
    let mut blob = None;
    let deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let ev = t.events.recv_timeout(left).expect("stream ended in time");
        let terminal = match &ev {
            JobEvent::Done { blob: b, .. } => {
                blob = Some(Arc::clone(b));
                true
            }
            JobEvent::Cancelled { .. } | JobEvent::Failed { .. } => true,
            _ => false,
        };
        evs.push(ev);
        if terminal {
            return (evs, blob);
        }
    }
}

fn assert_blobs_byte_identical(a: &JobBlob, b: &JobBlob, what: &str) {
    assert_eq!(a.artifacts.table, b.artifacts.table, "{what}: table bytes");
    assert_eq!(a.artifacts.lanes, b.artifacts.lanes, "{what}: trace lanes");
    assert_eq!(
        a.artifacts.trace(),
        b.artifacts.trace(),
        "{what}: rendered trace bytes"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.artifacts.mach),
        bits(&b.artifacts.mach),
        "{what}: Mach field bits"
    );
    assert_eq!(
        a.artifacts.result_hash, b.artifacts.result_hash,
        "{what}: result hash"
    );
    assert_eq!(
        a.artifacts
            .history
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        b.artifacts
            .history
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        "{what}: residual history bits"
    );
}

#[test]
fn guarded_fault_injected_job_caches_byte_identically() {
    let eng = engine(2);
    let rc = guarded_fault_config();
    let submit = |force: bool| {
        eng.submit(JobSpec {
            rc: rc.clone(),
            mode: JobMode::Distributed,
            force,
        })
        .expect("accepted")
    };
    let (_, miss) = drain(&submit(false));
    let miss = miss.expect("fault-injected guarded run completes");
    assert!(
        miss.artifacts.guard.is_some(),
        "guard outcome rides in the artifacts"
    );
    assert!(
        rank0_lane(&miss.artifacts.lanes).is_some_and(|l| !l.events.is_empty()),
        "tracing was live"
    );

    let (hit_evs, hit) = drain(&submit(false));
    let hit = hit.expect("cache hit completes");
    assert!(
        matches!(
            hit_evs.last(),
            Some(JobEvent::Done {
                cache_hit: true,
                ..
            })
        ),
        "second submission is served from the cache"
    );
    assert_blobs_byte_identical(&miss, &hit, "cache hit vs original compute");

    let (forced_evs, forced) = drain(&submit(true));
    let forced = forced.expect("forced recompute completes");
    assert!(
        matches!(
            forced_evs.last(),
            Some(JobEvent::Done {
                cache_hit: false,
                ..
            })
        ),
        "force bypasses the cache"
    );
    assert_blobs_byte_identical(&miss, &forced, "forced recompute vs original");

    // The progress stream replayed from the cache carries the same
    // residual bits the live run streamed.
    let live: Vec<(u64, u64)> = forced_evs
        .iter()
        .filter_map(|e| match e {
            JobEvent::Progress {
                cycle, residual, ..
            } => Some((*cycle, residual.to_bits())),
            _ => None,
        })
        .collect();
    let replayed: Vec<(u64, u64)> = hit_evs
        .iter()
        .filter_map(|e| match e {
            JobEvent::Progress {
                cycle, residual, ..
            } => Some((*cycle, residual.to_bits())),
            _ => None,
        })
        .collect();
    assert_eq!(live, replayed, "replayed progress is bit-exact");
    eng.shutdown();
}

#[test]
fn cancelled_then_resubmitted_reproduces_pristine_run_bit_for_bit() {
    // Pristine: a fresh engine runs the job start to finish.
    let pristine_eng = engine(1);
    let rc = small_config(30);
    let (_, pristine) = drain(
        &pristine_eng
            .submit(JobSpec {
                rc: rc.clone(),
                mode: JobMode::Solve,
                force: false,
            })
            .expect("accepted"),
    );
    let pristine = pristine.expect("pristine run completes");
    pristine_eng.shutdown();

    // Victim: same config on a second engine (same seed), cancelled at
    // the first committed cycle.
    let eng = engine(1);
    let victim = eng
        .submit(JobSpec {
            rc: rc.clone(),
            mode: JobMode::Solve,
            force: false,
        })
        .expect("accepted");
    let deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match victim.events.recv_timeout(left).expect("events flow") {
            JobEvent::Progress { .. } => {
                eng.cancel(victim.job);
                break;
            }
            JobEvent::Done { .. } => panic!("cancelled too late: job already finished"),
            _ => {}
        }
    }
    let (evs, blob) = drain(&victim);
    assert!(blob.is_none(), "cancelled job yields no artifacts");
    assert!(
        matches!(evs.last(), Some(JobEvent::Cancelled { .. })),
        "victim terminates as cancelled: {evs:?}"
    );
    let stats = eng.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(
        stats.cache_len, 0,
        "a cancelled job must not populate the cache"
    );

    // Resubmission recomputes from scratch and must match the pristine
    // bytes exactly — no state bleeds across the unwound attempt.
    let (evs, resubmitted) = drain(
        &eng.submit(JobSpec {
            rc,
            mode: JobMode::Solve,
            force: false,
        })
        .expect("accepted"),
    );
    assert!(
        matches!(
            evs.last(),
            Some(JobEvent::Done {
                cache_hit: false,
                ..
            })
        ),
        "resubmission is a genuine recompute"
    );
    assert_blobs_byte_identical(
        &pristine,
        &resubmitted.expect("resubmission completes"),
        "resubmitted-after-cancel vs pristine",
    );
    eng.shutdown();
}

/// A miss, a memory hit and — after a restart on the same state
/// directory — a store hit inline the same artifact bytes: the VTK each
/// renders on request from the kept Mach field is the miss's, byte for
/// byte.
#[test]
fn socket_stream_serves_identical_artifact_bytes_from_cache() {
    let mut path = std::env::temp_dir();
    path.push(format!("eul3d-serve-det-{}.sock", std::process::id()));
    let state_dir = std::env::temp_dir().join(format!("eul3d-serve-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let spawn = || {
        let cfg = EngineConfig {
            workers: 1,
            seed: env_seed(7),
            state_dir: Some(state_dir.clone()),
            ..EngineConfig::default()
        };
        server::spawn(&path, cfg).expect("bind")
    };
    let mut srv = spawn();
    let toml = "[run]\nlevels = 2\ncycles = 4\n[mesh]\nnx = 8\nny = 4\nnz = 3\n\
                [trace]\nenabled = true\ncapacity = 2048\n";
    let grab = |lines: &[String], field: &str| -> Option<String> {
        lines.iter().rev().find_map(|l| {
            let o = JObj::parse(l).ok()?;
            (o.str_of("event") == Some("done")).then(|| o.str_of(field).map(String::from))?
        })
    };
    let submit = || client::submit_and_collect(&path, toml, "solve", false, true).expect("run");
    let miss = submit();
    let hit = submit();
    srv.shutdown();
    drop(srv);
    let mut srv = spawn();
    let stored = submit();
    assert_eq!(grab(&miss, "cache").as_deref(), Some("miss"));
    assert_eq!(grab(&hit, "cache").as_deref(), Some("hit"));
    assert_eq!(grab(&stored, "cache").as_deref(), Some("hit"));
    let vtk = grab(&miss, "vtk").expect("done carries vtk");
    assert!(vtk.starts_with("# vtk DataFile Version 3.0\n"));
    for field in ["table", "trace", "vtk", "result_hash"] {
        let m = grab(&miss, field);
        assert!(m.is_some(), "done carries {field}");
        for (other, path) in [(&hit, "memory hit"), (&stored, "store hit")] {
            assert_eq!(m, grab(other, field), "inlined {field} of the {path}");
        }
    }
    // The interleaved tracer lines (the `"ev"` family) must match too.
    let trace_lines = |lines: &[String]| {
        lines
            .iter()
            .filter(|l| JObj::parse(l).is_ok_and(|o| o.str_of("ev").is_some()))
            .cloned()
            .collect::<Vec<_>>()
    };
    let tm = trace_lines(&miss);
    assert!(!tm.is_empty(), "trace events rode the wire");
    assert_eq!(tm, trace_lines(&hit), "wire trace replay is byte-exact");
    assert_eq!(tm, trace_lines(&stored), "so is the store's");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// When rank 0 dies, the streamed `"ev"` lines are its replica's lane —
/// `DistRunResult::instance(0)`, not the dead primary's — and a miss, a
/// memory hit and a store hit after a restart agree on the lanes, the
/// trace rendered from them and the result hash.
#[test]
fn a_result_streams_the_replica_of_a_dead_rank_0() {
    let toml = rank0_fault_toml();
    let rc = RunConfig::from_toml(&toml).expect("fixture config parses");
    let seed = env_seed(7);
    let direct = {
        let seq = MeshSequence::bump_sequence(&rc.mesh, rc.levels);
        let setup = DistSetup::for_run(seq, &rc, seed).expect("setup");
        let fopts = FaultOptions::for_run(&rc).expect("fault plan");
        let opts = DistOptions::for_run(&rc, seed);
        run_distributed_with_faults(&setup, rc.solver, rc.strategy, rc.cycles, opts, &fopts)
            .expect("the replica finishes the run")
    };
    let lanes = direct.lanes();
    assert!(
        lanes[0].name.starts_with("rank 0 (died@"),
        "{}",
        lanes[0].name
    );
    let replica = &direct.instance(0).expect("rank 0 completed").trace;
    let wire_of = |evs: &[Stamped]| evs.iter().map(wire::encode).collect::<Vec<_>>();
    assert_ne!(wire_of(replica), wire_of(&lanes[0].events));

    let mut path = std::env::temp_dir();
    path.push(format!("eul3d-serve-rank0-{}.sock", std::process::id()));
    let state_dir = std::env::temp_dir().join(format!("eul3d-serve-rank0-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let spawn = || {
        let cfg = EngineConfig {
            workers: 1,
            seed,
            state_dir: Some(state_dir.clone()),
            ..EngineConfig::default()
        };
        server::spawn(&path, cfg).expect("bind")
    };
    let submit = || client::submit_and_collect(&path, &toml, "distributed", false, true).unwrap();
    let mut srv = spawn();
    let (miss, hit) = (submit(), submit());
    srv.shutdown();
    drop(srv);
    let mut srv = spawn();
    let stored = submit();
    srv.shutdown();

    let key = CacheKey::of(&rc, JobMode::Distributed, seed);
    let kept = ResultStore::open(&state_dir)
        .unwrap()
        .get(key)
        .expect("the result was stored");
    assert_eq!(kept.artifacts.lanes, lanes, "stored lanes");
    let trace = render_trace(&lanes);
    let done = |lines: &[String]| {
        let o = JObj::parse(lines.last().expect("a done line")).unwrap();
        assert_eq!(o.str_of("event"), Some("done"), "{:?}", lines.last());
        let field = |f: &str| o.str_of(f).map(String::from);
        (field("cache"), field("result_hash"), field("trace"))
    };
    let hash = Some(format!("{:032x}", kept.artifacts.result_hash));
    for (lines, cache, what) in [
        (&miss, "miss", "miss"),
        (&hit, "hit", "memory hit"),
        (&stored, "hit", "store hit"),
    ] {
        let (c, h, t) = done(lines);
        assert_eq!(c.as_deref(), Some(cache), "{what}");
        assert_eq!(h, hash, "{what}: result_hash");
        assert!(
            t.as_deref() == Some(trace.as_str()),
            "{what}: rendered trace"
        );
        let streamed: Vec<String> = lines
            .iter()
            .filter(|l| JObj::parse(l).is_ok_and(|o| o.str_of("ev").is_some()))
            .cloned()
            .collect();
        assert_eq!(streamed, wire_of(replica), "{what}: the replica's lane");
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}
