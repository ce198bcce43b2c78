//! Thin client helpers over the wire protocol: connect, send one
//! request line, stream the reply lines. The CLI `submit` subcommand,
//! the benchmark loadgen, and the serve test suites all drive the
//! server exclusively through this module, so they exercise the same
//! bytes a foreign client would.
//!
//! [`submit_resilient`] adds the crash-tolerant variant: read timeouts,
//! bounded retries with deterministic seeded-jitter exponential backoff
//! (honouring the server's `retry_after_ms` hint on backpressure), and
//! resubmission when a stream dies without a terminal event — safe
//! because a submission's identity is its content key, so a restarted
//! server serves the retry from its durable store or resumes the same
//! job rather than computing a divergent duplicate.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::json::JObj;
use crate::protocol::Request;

/// An open reply stream: iterate [`EventStream::next_line`] until
/// `None` (server closed the connection).
pub struct EventStream {
    reader: BufReader<UnixStream>,
}

impl EventStream {
    /// The next reply line, trimmed, or `None` at end of stream (a read
    /// error ends the stream too).
    pub fn next_line(&mut self) -> Option<String> {
        self.try_next_line().ok().flatten()
    }

    /// [`EventStream::next_line`] that reports a read error (a timeout,
    /// a reset) instead of treating it as a clean end of stream.
    fn try_next_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        Ok(match self.reader.read_line(&mut line)? {
            0 => None,
            _ => Some(line.trim_end().to_string()),
        })
    }
}

/// Connect to the server at `path` and send one raw request line.
pub fn open(path: &Path, line: &str) -> std::io::Result<EventStream> {
    let mut stream = UnixStream::connect(path)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    Ok(EventStream {
        reader: BufReader::new(stream),
    })
}

/// Send a typed request and stream the reply.
pub fn request(path: &Path, req: &Request) -> std::io::Result<EventStream> {
    open(path, &req.to_line())
}

/// Send a typed request expecting a single-line acknowledgement
/// (`cancel` / `stats` / `shutdown`).
pub fn request_one(path: &Path, req: &Request) -> std::io::Result<String> {
    let mut s = request(path, req)?;
    s.next_line()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no reply"))
}

/// Send a raw line and collect every reply line until the server closes
/// the connection.
pub fn raw_request(path: &Path, line: &str) -> std::io::Result<Vec<String>> {
    let mut s = open(path, line)?;
    let mut out = Vec::new();
    while let Some(l) = s.next_line() {
        out.push(l);
    }
    Ok(out)
}

/// Submit `config` (TOML text) and collect the full event stream of the
/// job, through its terminal event.
pub fn submit_and_collect(
    path: &Path,
    config: &str,
    mode: &str,
    force: bool,
    artifacts: bool,
) -> std::io::Result<Vec<String>> {
    raw_request(path, &submit_line(config, mode, force, artifacts)?)
}

/// The `submit` request line, or `InvalidInput` for an unknown mode.
fn submit_line(config: &str, mode: &str, force: bool, artifacts: bool) -> std::io::Result<String> {
    let mode = eul3d_core::JobMode::parse(mode).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("bad mode '{mode}'"),
        )
    })?;
    Ok(Request::Submit {
        config: config.to_string(),
        mode,
        force,
        artifacts,
    }
    .to_line())
}

/// Resilience policy for [`submit_resilient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-read socket timeout. A stalled server (wedged, mid-restart)
    /// turns into a retryable stream error instead of hanging the
    /// client forever. `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Additional attempts after the first (0 = fail fast).
    pub retries: u32,
    /// Base of the exponential backoff between attempts; attempt `n`
    /// waits `base * 2^n` plus deterministic jitter, except when the
    /// server's `retry_after_ms` backpressure hint says otherwise.
    pub base_backoff_ms: u64,
    /// Seed of the jitter PRNG — retries are reproducible, matching the
    /// determinism contract everywhere else in the workspace.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(120)),
            retries: 0,
            base_backoff_ms: 50,
            seed: 7,
        }
    }
}

/// How one submission attempt ended.
enum Attempt {
    /// Stream carried a terminal event — these lines are the answer.
    Terminal(Vec<String>),
    /// Backpressure bounce with the server's retry hint.
    Rejected { retry_after_ms: Option<u64> },
    /// Connection failed or the stream died without a terminal event
    /// (server killed mid-job).
    Broken(std::io::Error),
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = state.wrapping_mul(2).wrapping_add(1); // never 0
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Submit with retries: collects the stream like [`submit_and_collect`]
/// but survives backpressure bounces, connection refusals, and streams
/// severed mid-job (a crashed or restarting server). Safe to retry
/// because submissions are idempotent by content key — see the module
/// docs. Returns the first stream that reached a terminal event, or the
/// last error once `cfg.retries` is exhausted.
pub fn submit_resilient(
    path: &Path,
    config: &str,
    mode: &str,
    force: bool,
    artifacts: bool,
    cfg: &ClientConfig,
) -> std::io::Result<Vec<String>> {
    let line = submit_line(config, mode, force, artifacts)?;
    let mut rng = cfg.seed;
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 0..=cfg.retries {
        match submit_once(path, &line, cfg.read_timeout).unwrap_or_else(Attempt::Broken) {
            Attempt::Terminal(lines) => return Ok(lines),
            Attempt::Rejected { retry_after_ms } => {
                if attempt == cfg.retries {
                    last_err = Some(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "server queue full, retries exhausted",
                    ));
                    break;
                }
                // The server's hint wins over our own schedule: it
                // knows its queue depth.
                let base = retry_after_ms.unwrap_or_else(|| cfg.base_backoff_ms << attempt.min(10));
                std::thread::sleep(jittered(base, &mut rng));
            }
            Attempt::Broken(e) => {
                if attempt == cfg.retries {
                    last_err = Some(e);
                    break;
                }
                let base = cfg.base_backoff_ms << attempt.min(10);
                std::thread::sleep(jittered(base, &mut rng));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("submit retries exhausted")))
}

/// Backoff duration: `base` plus up to 50% deterministic jitter.
fn jittered(base_ms: u64, rng: &mut u64) -> Duration {
    let jitter = if base_ms == 0 {
        0
    } else {
        xorshift64(rng) % (base_ms / 2 + 1)
    };
    Duration::from_millis(base_ms + jitter)
}

/// One submission: `Err` when connecting, writing or reading fails
/// (the caller's [`Attempt::Broken`]).
fn submit_once(
    path: &Path,
    line: &str,
    read_timeout: Option<Duration>,
) -> std::io::Result<Attempt> {
    let mut stream = open(path, line)?;
    stream.reader.get_ref().set_read_timeout(read_timeout)?;
    let mut out = Vec::new();
    while let Some(l) = stream.try_next_line()? {
        if let Ok(o) = JObj::parse(&l) {
            if o.str_of("event") == Some("rejected") {
                return Ok(Attempt::Rejected {
                    retry_after_ms: o.u64_of("retry_after_ms"),
                });
            }
        }
        out.push(l);
    }
    let terminal = out.iter().rev().any(|l| {
        JObj::parse(l).ok().is_some_and(|o| {
            matches!(
                o.str_of("event"),
                Some("done" | "cancelled" | "failed" | "error")
            )
        })
    });
    Ok(if terminal {
        Attempt::Terminal(out)
    } else {
        Attempt::Broken(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream ended before a terminal event",
        ))
    })
}
