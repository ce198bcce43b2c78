//! The socket front end: a Unix-domain listener that frames the wire
//! protocol around the [`JobEngine`].
//!
//! Connection model: **one request per connection**. The client sends a
//! single request line; the server answers with a stream of event lines
//! and closes. Submissions stream the job's whole lifecycle (`accepted`
//! → `started` → `progress`… → trace lines → terminal); `cancel`,
//! `stats`, and `shutdown` answer with a single acknowledgement line.
//! One-request framing keeps every connection's stream totally ordered
//! per job with no multiplexing headers, which is what makes the
//! byte-identity assertions of the determinism suite possible at the
//! socket level.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use eul3d_core::job::render_vtk;
use eul3d_core::RunConfig;
use eul3d_obs as obs;

use crate::engine::{EngineConfig, JobEngine, JobEvent, JobSpec, SubmitError};
use crate::protocol::{
    ev_accepted, ev_cancel_ack, ev_cancelled, ev_done, ev_error, ev_failed, ev_progress,
    ev_rejected, ev_shutdown_ack, ev_started, ev_stats, Request,
};

/// A running server: the listener thread, its engine, and the shutdown
/// plumbing.
pub struct ServerHandle {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    engine: Arc<JobEngine>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Start serving `cfg`-sized engine on the Unix socket at `path`. A
/// stale socket file from a previous run is removed first. Returns once
/// the listener is bound and accepting — engine state-directory errors
/// (unwritable journal, damaged store directory) surface here, before
/// any client can connect.
pub fn spawn(path: &Path, cfg: EngineConfig) -> std::io::Result<ServerHandle> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let engine = Arc::new(JobEngine::start(cfg)?);
    let accept_thread = {
        let stop = Arc::clone(&stop);
        let engine = Arc::clone(&engine);
        let path = path.to_path_buf();
        std::thread::Builder::new()
            .name("eul3d-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &path, &stop, &engine))?
    };
    Ok(ServerHandle {
        path: path.to_path_buf(),
        stop,
        engine,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The socket path the server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The engine behind this server — for drain orchestration and
    /// stats without a socket round trip.
    pub fn engine(&self) -> &Arc<JobEngine> {
        &self.engine
    }

    /// Whether the accept loop has exited (a client sent `shutdown` or
    /// [`ServerHandle::shutdown`] ran).
    pub fn is_finished(&self) -> bool {
        self.accept_thread.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Ask the server to stop (equivalent to a `shutdown` request) and
    /// wait for it to wind down. Idempotent.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept with a throwaway connection.
            let _ = UnixStream::connect(&self.path);
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }

    /// Block until the server stops (a client sent `shutdown`).
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &UnixListener,
    path: &Path,
    stop: &Arc<AtomicBool>,
    engine: &Arc<JobEngine>,
) {
    let conns: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let engine = Arc::clone(engine);
        let stop = Arc::clone(stop);
        let path = path.to_path_buf();
        let handle = std::thread::Builder::new()
            .name("eul3d-serve-conn".to_string())
            .spawn(move || {
                if serve_connection(stream, &engine) == ConnOutcome::Shutdown
                    && !stop.swap(true, Ordering::SeqCst)
                {
                    // Wake the accept loop so it observes the flag.
                    let _ = UnixStream::connect(&path);
                }
            });
        if let Ok(h) = handle {
            let mut guard = match conns.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            // Opportunistically reap finished connections so the vec
            // stays bounded on long-lived servers.
            guard.retain(|c| !c.is_finished());
            guard.push(h);
        }
    }
    engine.shutdown();
    let handles = {
        let mut guard = match conns.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        std::mem::take(&mut *guard)
    };
    for h in handles {
        let _ = h.join();
    }
}

#[derive(PartialEq)]
enum ConnOutcome {
    Served,
    Shutdown,
}

fn send(w: &mut impl Write, line: &str) -> bool {
    writeln!(w, "{line}").and_then(|()| w.flush()).is_ok()
}

fn serve_connection(stream: UnixStream, engine: &JobEngine) -> ConnOutcome {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return ConnOutcome::Served,
    });
    let mut writer = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return ConnOutcome::Served;
    }
    let req = match Request::parse(line.trim_end()) {
        Ok(r) => r,
        Err(e) => {
            send(&mut writer, &ev_error(&e));
            return ConnOutcome::Served;
        }
    };
    match req {
        Request::Submit {
            config,
            mode,
            force,
            artifacts,
        } => {
            let rc = match RunConfig::from_toml(&config) {
                Ok(rc) => rc,
                Err(e) => {
                    send(&mut writer, &ev_error(&e.to_string()));
                    return ConnOutcome::Served;
                }
            };
            // A hit's config is canonically the original's (it is the
            // cache key), so this submission's own config renders its VTK.
            let render = artifacts.then(|| rc.clone());
            match engine.submit(JobSpec { rc, mode, force }) {
                Err(SubmitError::QueueFull { retry_after_ms }) => {
                    send(&mut writer, &ev_rejected(retry_after_ms));
                }
                Err(SubmitError::ShuttingDown) => {
                    send(&mut writer, &ev_error("server is shutting down"));
                }
                Ok(ticket) => {
                    if !send(&mut writer, &ev_accepted(ticket.job, ticket.key)) {
                        // The client hung up before the stream started:
                        // don't burn a worker on an unwatched job.
                        engine.cancel(ticket.job);
                    }
                    let render = render.as_ref();
                    stream_job(&mut writer, engine, &ticket.events, ticket.job, render);
                }
            }
        }
        Request::Cancel { job } => {
            let outcome = engine.cancel(job);
            send(
                &mut writer,
                &ev_cancel_ack(job, outcome, engine.job_state(job)),
            );
        }
        Request::Stats => {
            send(&mut writer, &ev_stats(&engine.stats()));
        }
        Request::Shutdown => {
            send(&mut writer, &ev_shutdown_ack());
            return ConnOutcome::Shutdown;
        }
    }
    ConnOutcome::Served
}

/// Forward a job's event stream onto the wire until its terminal event.
/// If the client disconnects mid-stream the job is cancelled (nobody is
/// listening), but the engine keeps draining the channel so the worker
/// never blocks. `render` is the submission's config when it asked for
/// artifacts: `done` then inlines the VTK rendered from it, and a render
/// failure ends the stream with an `error` line naming it.
fn stream_job(
    writer: &mut UnixStream,
    engine: &JobEngine,
    events: &std::sync::mpsc::Receiver<JobEvent>,
    job: u64,
    render: Option<&RunConfig>,
) {
    let mut alive = true;
    for ev in events.iter() {
        let (line, terminal, blob) = match &ev {
            JobEvent::Started { job } => (ev_started(*job), false, None),
            JobEvent::Progress {
                job,
                cycle,
                residual,
            } => (ev_progress(*job, *cycle, *residual), false, None),
            JobEvent::Done {
                job,
                cache_hit,
                blob,
            } => {
                let vtk = render.map(|rc| render_vtk(rc, &blob.artifacts.mach));
                let line = match vtk.transpose() {
                    Ok(vtk) => ev_done(*job, *cache_hit, blob, vtk.as_deref()),
                    Err(e) => ev_error(&format!("job {job}: vtk render failed: {e}")),
                };
                (line, true, Some(Arc::clone(blob)))
            }
            JobEvent::Cancelled { job } => (ev_cancelled(*job), true, None),
            JobEvent::Failed { job, msg } => (ev_failed(*job, msg), true, None),
        };
        if alive {
            // The tracer's committed events ride just ahead of `done`,
            // encoded with the workspace wire codec — identically for
            // hits and misses.
            if let Some(blob) = &blob {
                for s in &blob.artifacts.events {
                    if !send(writer, &obs::wire::encode(s)) {
                        alive = false;
                        break;
                    }
                }
            }
            alive = alive && send(writer, &line);
        }
        if !alive && !terminal {
            engine.cancel(job);
        }
        if terminal {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn sock(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("eul3d-serve-test-{name}-{}", std::process::id()));
        p
    }

    const CFG: &str = "[run]\nlevels = 2\ncycles = 3\n[mesh]\nnx = 8\nny = 4\nnz = 3\n";

    #[test]
    fn socket_round_trip_miss_then_hit_then_shutdown() {
        let path = sock("rt");
        let server = spawn(
            &path,
            EngineConfig {
                workers: 1,
                seed: 7,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let first = client::submit_and_collect(&path, CFG, "solve", false, false).unwrap();
        let second = client::submit_and_collect(&path, CFG, "solve", false, false).unwrap();
        let cache_of = |lines: &[String]| {
            lines
                .iter()
                .rev()
                .find_map(|l| {
                    let o = crate::json::JObj::parse(l).ok()?;
                    (o.str_of("event") == Some("done")).then(|| o.str_of("cache").map(String::from))
                })
                .flatten()
        };
        assert_eq!(cache_of(&first).as_deref(), Some("miss"));
        assert_eq!(cache_of(&second).as_deref(), Some("hit"));
        // Stream identity modulo the session artifacts: the job id and
        // the cache verdict differ by design; `started` is absent on
        // hits (they never reach a worker). Everything else — keys,
        // residual bytes, result hash — must match exactly.
        let norm = |lines: &[String]| {
            lines
                .iter()
                .filter(|l| !l.contains("\"event\":\"started\""))
                .map(|l| {
                    let mut l = l.replace("\"cache\":\"hit\"", "\"cache\":\"miss\"");
                    if let Some(at) = l.find("\"job\":") {
                        let digits = l[at + 6..].bytes().take_while(u8::is_ascii_digit).count();
                        l.replace_range(at + 6..at + 6 + digits, "0");
                    }
                    l
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(norm(&first), norm(&second));
        let stats = client::request_one(&path, &Request::Stats).unwrap();
        let o = crate::json::JObj::parse(&stats).unwrap();
        assert_eq!(o.u64_of("cache_hits"), Some(1));
        assert_eq!(o.u64_of("cache_misses"), Some(1));
        let ack = client::request_one(&path, &Request::Shutdown).unwrap();
        assert_eq!(ack, ev_shutdown_ack());
        server.join();
        assert!(!path.exists(), "socket file cleaned up");
    }

    #[test]
    fn bad_requests_answer_with_error_lines() {
        let path = sock("bad");
        let mut server = spawn(
            &path,
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let resp = client::raw_request(&path, "{\"op\":\"fly\"}").unwrap();
        assert!(resp[0].contains("\"event\":\"error\""), "{resp:?}");
        let resp = client::raw_request(
            &path,
            "{\"op\":\"submit\",\"config\":\"[run]\\nlevels = 0\\n\"}",
        )
        .unwrap();
        assert!(resp[0].contains("\"event\":\"error\""), "{resp:?}");
        let resp = client::request_one(&path, &Request::Cancel { job: 424242 }).unwrap();
        assert!(resp.contains("\"state\":\"unknown\""), "{resp}");
        server.shutdown();
    }

    /// A stored Mach field that does not fit its config's mesh is still a
    /// hit, but its VTK is never rendered: a submission asking for
    /// artifacts gets an `error` line naming the mismatch.
    #[test]
    fn a_field_that_misfits_its_mesh_renders_as_an_error_line() {
        let (path, dir) = (sock("misfit"), sock("misfit-state"));
        let _ = std::fs::remove_dir_all(&dir);
        let rc = RunConfig::from_toml(CFG).unwrap();
        let blob = crate::cache::JobBlob {
            artifacts: eul3d_core::JobArtifacts {
                history: vec![1.0],
                table: String::new(),
                trace_json: None,
                events: Vec::new(),
                mach: vec![0.5; 3],
                guard: None,
                result_hash: 1,
            },
        };
        let key = crate::cache::CacheKey::of(&rc, eul3d_core::JobMode::Solve, 7);
        let store = crate::store::ResultStore::open(&dir).unwrap();
        store.put(key, &blob).unwrap();
        let cfg = EngineConfig {
            workers: 1,
            seed: 7,
            state_dir: Some(dir.clone()),
            ..EngineConfig::default()
        };
        let mut server = spawn(&path, cfg).unwrap();
        let plain = client::submit_and_collect(&path, CFG, "solve", false, false).unwrap();
        assert!(
            plain.last().unwrap().contains("\"cache\":\"hit\""),
            "{plain:?}"
        );
        let rendered = client::submit_and_collect(&path, CFG, "solve", false, true).unwrap();
        let last = rendered.last().unwrap();
        let o = crate::json::JObj::parse(last).unwrap();
        assert_eq!(o.str_of("event"), Some("error"), "{last}");
        assert!(
            o.str_of("msg")
                .unwrap()
                .contains("field `mach` has 3 values"),
            "{last}"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
