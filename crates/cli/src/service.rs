//! The service-mode subcommands: `eul3d serve` hosts the job engine on
//! a Unix socket; `eul3d submit` is the client — submitting jobs,
//! cancelling, fetching stats, and shutting the server down over the
//! line-delimited JSON protocol (see DESIGN.md §11). With `--state-dir`
//! the server is crash-safe (DESIGN.md §12): submissions are journaled,
//! results persist on disk, and interrupted jobs resume from their last
//! checkpoint on restart. `SIGTERM` drains gracefully — running jobs
//! finish (up to `--drain-timeout-ms`), new submissions are refused.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use eul3d_serve::engine::EngineConfig;
use eul3d_serve::json::JObj;
use eul3d_serve::{client, server, Request};

use eul3d_core::Args;

fn socket_of(a: &Args) -> Result<PathBuf, String> {
    a.get_str("socket")
        .map(PathBuf::from)
        .ok_or_else(|| "--socket PATH is required".to_string())
}

/// Parse an optional `--flag N` that must be a positive integer.
fn positive_of(a: &Args, key: &str) -> Result<Option<u64>, String> {
    match a.get_str(key) {
        None => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(0) => Err(format!("--{key} must be at least 1")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("--{key}: cannot parse '{v}'")),
        },
    }
}

/// Set by the `SIGTERM` handler; the serve loop polls it and drains.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn sigterm_handler(_sig: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: the handler is async-signal-safe (one atomic store), and
    // `signal` is the libc entry point std already links against.
    unsafe {
        let _ = signal(SIGTERM, sigterm_handler as extern "C" fn(i32) as usize);
    }
}

/// `eul3d serve --socket S [--workers N] [--queue N] [--cache N]
/// [--cache-bytes B] [--seed N] [--state-dir DIR] [--deadline-ms MS]
/// [--drain-timeout-ms MS]` — host the job engine, blocking until a
/// client sends `shutdown` or the process receives `SIGTERM` (which
/// drains: running jobs finish and checkpoint, new work is refused).
/// `--cache-bytes` bounds the in-memory result cache by the bytes its
/// entries hold — each a job's Mach field, trace lanes, history and
/// table, not its VTK or trace text, which are rendered per
/// `--artifacts` request.
pub fn serve(a: &Args) -> Result<(), String> {
    let path = socket_of(a)?;
    let defaults = EngineConfig::default();
    let cfg = EngineConfig {
        workers: a.get("workers", defaults.workers)?,
        queue_cap: a.get("queue", defaults.queue_cap)?,
        cache_cap: a.get("cache", defaults.cache_cap)?,
        cache_bytes: positive_of(a, "cache-bytes")?.map(|n| n as usize),
        seed: a.get("seed", defaults.seed)?,
        retry_after_ms_per_queued: a.get("retry-after-ms", defaults.retry_after_ms_per_queued)?,
        state_dir: a.get_str("state-dir").map(PathBuf::from),
        deadline_ms: positive_of(a, "deadline-ms")?,
    };
    let drain_timeout_ms: u64 = a.get("drain-timeout-ms", 10_000u64)?;
    a.check_unknown()?;
    if cfg.workers == 0 || cfg.queue_cap == 0 {
        return Err("--workers and --queue must be at least 1".into());
    }
    if drain_timeout_ms == 0 {
        return Err("--drain-timeout-ms must be at least 1".into());
    }
    install_sigterm_handler();
    let handle = server::spawn(&path, cfg.clone()).map_err(|e| format!("bind {path:?}: {e}"))?;
    println!(
        "eul3d serve: listening on {} (workers={} queue={} cache={} seed={}{})",
        path.display(),
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_cap,
        cfg.seed,
        cfg.state_dir
            .as_ref()
            .map(|d| format!(" state-dir={}", d.display()))
            .unwrap_or_default()
    );
    while !handle.is_finished() && !TERM_FLAG.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    if TERM_FLAG.load(Ordering::SeqCst) && !handle.is_finished() {
        println!("eul3d serve: SIGTERM — draining (up to {drain_timeout_ms} ms)");
        let drained = handle
            .engine()
            .drain(Duration::from_millis(drain_timeout_ms));
        drop(handle); // stops the accept loop
        println!(
            "eul3d serve: shut down ({})",
            if drained {
                "drained"
            } else {
                "drain timed out; interrupted jobs resume on restart"
            }
        );
    } else {
        handle.join();
        println!("eul3d serve: shut down");
    }
    Ok(())
}

/// `eul3d submit --socket S --config run.toml [--distributed] [--force]
/// [--artifacts] [--ndjson] [--timeout-ms MS] [--retries N]`, or one of
/// the control forms `--cancel N` / `--stats` / `--shutdown`. `--ndjson`
/// passes the raw wire lines through unmodified (one JSON object per
/// line, jq-friendly); the default renders a human summary. With
/// `--timeout-ms`/`--retries` the submission runs resiliently: reads
/// time out instead of hanging on a wedged server, and refused or
/// severed streams are retried with seeded-jitter backoff (safe — the
/// job's identity is its content key). Exits non-zero when the job
/// fails, is rejected for backpressure, or the request errors.
pub fn submit(a: &Args) -> Result<(), String> {
    let path = socket_of(a)?;
    let ndjson = a.has("ndjson");
    let timeout_ms = positive_of(a, "timeout-ms")?;
    let retries: u32 = a.get("retries", 0u32)?;
    // Control forms: one request, one acknowledgement line.
    let control = if let Some(job) = a.get_str("cancel") {
        let job: u64 = job
            .parse()
            .map_err(|_| format!("--cancel: bad job id '{job}'"))?;
        Some(Request::Cancel { job })
    } else if a.has("stats") {
        Some(Request::Stats)
    } else if a.has("shutdown") {
        Some(Request::Shutdown)
    } else {
        None
    };
    if let Some(req) = control {
        a.get_str("config");
        a.check_unknown()?;
        let line =
            client::request_one(&path, &req).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{line}");
        return Ok(());
    }

    let config_path = a
        .get_str("config")
        .ok_or_else(|| "--config run.toml is required to submit a job".to_string())?;
    let mode = if a.has("distributed") {
        "distributed"
    } else {
        "solve"
    };
    let force = a.has("force");
    let artifacts = a.has("artifacts");
    a.check_unknown()?;
    let config = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("--config {config_path}: {e}"))?;
    let mut failed: Option<String> = None;
    if retries > 0 || timeout_ms.is_some() {
        // Resilient mode collects the whole stream (possibly across
        // retries) before rendering — live progress lines trade away
        // for crash tolerance.
        let ccfg = client::ClientConfig {
            read_timeout: timeout_ms.map(Duration::from_millis),
            retries,
            ..client::ClientConfig::default()
        };
        let lines = client::submit_resilient(&path, &config, mode, force, artifacts, &ccfg)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for line in lines {
            render_line(&line, ndjson, &mut failed);
        }
    } else {
        let req = Request::Submit {
            config,
            mode: eul3d_core::JobMode::parse(mode).unwrap_or_default(),
            force,
            artifacts,
        };
        let mut stream =
            client::request(&path, &req).map_err(|e| format!("{}: {e}", path.display()))?;
        while let Some(line) = stream.next_line() {
            render_line(&line, ndjson, &mut failed);
        }
    }
    match failed {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

/// Render one reply line (raw in `--ndjson` mode, human summary
/// otherwise) and record a terminal failure verdict if it carries one.
fn render_line(line: &str, ndjson: bool, failed: &mut Option<String>) {
    if ndjson {
        println!("{line}");
    }
    let Ok(o) = JObj::parse(line) else {
        if !ndjson {
            eprintln!("unparsable reply line: {line}");
        }
        return;
    };
    match o.str_of("event") {
        Some("error") => {
            *failed = Some(o.str_of("msg").unwrap_or("request error").to_string());
        }
        Some("rejected") => {
            *failed = Some(format!(
                "rejected: queue full, retry after {} ms",
                o.u64_of("retry_after_ms").unwrap_or(0)
            ));
        }
        Some("failed") => {
            *failed = Some(o.str_of("msg").unwrap_or("job failed").to_string());
        }
        Some("cancelled") => {
            *failed = Some("job cancelled".to_string());
        }
        _ => {}
    }
    if ndjson {
        return;
    }
    match o.str_of("event") {
        Some("accepted") => println!(
            "job {} accepted  key {}",
            o.u64_of("job").unwrap_or(0),
            o.str_of("key").unwrap_or("?")
        ),
        Some("started") => println!("job {} started", o.u64_of("job").unwrap_or(0)),
        Some("progress") => println!(
            "  cycle {:>4}  residual {:e}",
            o.u64_of("cycle").unwrap_or(0),
            o.f64_of("residual").unwrap_or(f64::NAN)
        ),
        Some("done") => {
            println!(
                "done ({})  cycles {}  final residual {:e}  result {}",
                o.str_of("cache").unwrap_or("?"),
                o.u64_of("cycles").unwrap_or(0),
                o.f64_of("final_residual").unwrap_or(f64::NAN),
                o.str_of("result_hash").unwrap_or("?")
            );
            if let Some(t) = o.str_of("table") {
                print!("{t}");
            }
        }
        Some(other) => println!("{other}: {line}"),
        // Trace lines carry "ev" instead of "event": summarize them
        // away in human mode (ndjson passes them through above).
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(parts: &[&str]) -> Args {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv).unwrap_or_default()
    }

    #[test]
    fn socket_flag_is_required() {
        assert!(serve(&parsed(&["serve"])).is_err());
        assert!(submit(&parsed(&["submit", "--stats"])).is_err());
    }

    #[test]
    fn submit_requires_a_config_or_control_form() {
        let err = submit(&parsed(&["submit", "--socket", "/tmp/nowhere.sock"]))
            .expect_err("config is mandatory");
        assert!(err.contains("--config"), "{err}");
    }

    #[test]
    fn bad_cancel_id_is_rejected_before_connecting() {
        let err = submit(&parsed(&[
            "submit",
            "--socket",
            "/tmp/nowhere.sock",
            "--cancel",
            "pi",
        ]))
        .expect_err("non-numeric job id");
        assert!(err.contains("bad job id"), "{err}");
    }
}
