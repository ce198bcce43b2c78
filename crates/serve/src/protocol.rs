//! The line-delimited JSON wire protocol.
//!
//! Every message is one flat JSON object on one line. Three families
//! share the stream, distinguished by which key they carry:
//!
//! * **requests** (client → server) carry `"op"`:
//!   `submit` / `cancel` / `stats` / `shutdown`;
//! * **lifecycle events** (server → client) carry `"event"`:
//!   `accepted`, `rejected`, `error`, `started`, `progress`, trace
//!   (`trace-*` below), `done`, `cancelled`, `failed`, `stats`,
//!   `cancel`, `shutdown`;
//! * **trace events** (server → client) carry `"ev"` — these are raw
//!   [`eul3d_obs::wire`] lines of one result lane
//!   ([`eul3d_core::dist::rank0_lane`]), so a client can pipe them
//!   straight into the same decoder the rest of the workspace uses.
//!
//! `jq 'select(.event)'` / `jq 'select(.ev)'` therefore split a
//! captured stream without any framing beyond newlines.
//!
//! Every line is written by the workspace codec's [`JOut`] and read by
//! its [`JObj`] ([`eul3d_obs::json`]). Float fields (`residual`,
//! `final_residual`, `guard_final_cfl`) are emitted with Rust's
//! shortest-round-trip formatting, which `f64` parsing recovers
//! bit-exactly — the determinism e2e suite relies on this to compare
//! streamed residuals against recomputed ones without tolerances. A
//! non-finite float is not a JSON number and is emitted as `null`, so a
//! run whose residual went NaN still streams lines every client parses.
//! Integer fields (`job`, `cycle`, …) are read only from plain digit
//! tokens within `u64`: `3.0`, `3e0`, `-1` and anything past `u64::MAX`
//! are refused rather than rounded to a neighbouring id.

use eul3d_core::JobMode;

use crate::cache::{CacheKey, JobBlob};
use crate::engine::{CancelOutcome, EngineStats, JobState};
use crate::json::{JObj, JOut};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or fetch from cache) one job.
    Submit {
        /// The run configuration, as TOML text.
        config: String,
        /// Which driver runs it.
        mode: JobMode,
        /// Bypass the cache lookup and recompute.
        force: bool,
        /// Inline the full artifacts (table, and the trace JSON and VTK
        /// export rendered for this request) in the terminal `done`
        /// event.
        artifacts: bool,
    },
    /// Cancel a job by id.
    Cancel {
        /// The id from the job's `accepted` event.
        job: u64,
    },
    /// Fetch aggregate engine counters.
    Stats,
    /// Stop the server.
    Shutdown,
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let o = JObj::parse(line)?;
        match o.str_of("op") {
            Some("submit") => {
                let config = o
                    .str_of("config")
                    .ok_or("submit requires a string 'config' field (TOML text)")?
                    .to_string();
                let mode = match o.str_of("mode") {
                    None => JobMode::Solve,
                    Some(m) => JobMode::parse(m)
                        .ok_or_else(|| format!("unknown mode '{m}' (solve|distributed)"))?,
                };
                Ok(Request::Submit {
                    config,
                    mode,
                    force: o.bool_of("force").unwrap_or(false),
                    artifacts: o.bool_of("artifacts").unwrap_or(false),
                })
            }
            Some("cancel") => Ok(Request::Cancel {
                job: o
                    .u64_of("job")
                    .ok_or("cancel requires an integer 'job' field (0..=u64::MAX)")?,
            }),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!(
                "unknown op '{other}' (submit|cancel|stats|shutdown)"
            )),
            None => Err("request must carry an 'op' field".into()),
        }
    }

    /// Render the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit {
                config,
                mode,
                force,
                artifacts,
            } => JOut::line()
                .str("op", "submit")
                .str("mode", mode.name())
                .bool("force", *force)
                .bool("artifacts", *artifacts)
                .str("config", config),
            Request::Cancel { job } => JOut::line().str("op", "cancel").u64("job", *job),
            Request::Stats => JOut::line().str("op", "stats"),
            Request::Shutdown => JOut::line().str("op", "shutdown"),
        }
        .finish()
    }
}

/// The opening of every lifecycle event line.
fn event(name: &str) -> JOut {
    JOut::line().str("event", name)
}

/// `accepted`: the submission has an id and a content key.
pub fn ev_accepted(job: u64, key: CacheKey) -> String {
    event("accepted")
        .u64("job", job)
        .str("key", &key.to_string())
        .finish()
}

/// `rejected`: backpressure bounced the submission; retry after the
/// hinted delay.
pub fn ev_rejected(retry_after_ms: u64) -> String {
    event("rejected")
        .str("reason", "queue-full")
        .u64("retry_after_ms", retry_after_ms)
        .finish()
}

/// `error`: the request itself was invalid (parse/validation error).
pub fn ev_error(msg: &str) -> String {
    event("error").str("msg", msg).finish()
}

/// `started`: the job left the queue and is on a worker.
pub fn ev_started(job: u64) -> String {
    event("started").u64("job", job).finish()
}

/// `progress`: one committed multigrid cycle.
pub fn ev_progress(job: u64, cycle: u64, residual: f64) -> String {
    event("progress")
        .u64("job", job)
        .u64("cycle", cycle)
        .f64("residual", residual)
        .finish()
}

/// `done`: terminal success. `cache` says whether the artifacts came
/// from the content-addressed cache (`"hit"`) or a solve (`"miss"`) —
/// by the determinism contract that is the *only* byte that may differ
/// between the two streams. With `vtk` — the export rendered for a
/// submission that asked for artifacts — the result table, the `trace`
/// rendered with it and that VTK text are inlined as escaped strings.
pub fn ev_done(
    job: u64,
    cache_hit: bool,
    blob: &JobBlob,
    trace: Option<&str>,
    vtk: Option<&str>,
) -> String {
    let a = &blob.artifacts;
    let mut line = event("done")
        .u64("job", job)
        .str("cache", if cache_hit { "hit" } else { "miss" })
        .str("result_hash", &format!("{:032x}", a.result_hash))
        .u64("cycles", a.history.len() as u64)
        .f64(
            "final_residual",
            a.history.last().copied().unwrap_or(f64::NAN),
        );
    if let Some(g) = &a.guard {
        line = line
            .u64("guard_backoffs", g.transcript.len() as u64)
            .f64("guard_final_cfl", g.final_cfl);
    }
    if let Some(vtk) = vtk {
        line = line.str("table", &a.table);
        if let Some(t) = trace {
            line = line.str("trace", t);
        }
        line = line.str("vtk", vtk);
    }
    line.finish()
}

/// `cancelled`: terminal, the job was cancelled.
pub fn ev_cancelled(job: u64) -> String {
    event("cancelled").u64("job", job).finish()
}

/// `failed`: terminal, the solver returned an error.
pub fn ev_failed(job: u64, msg: &str) -> String {
    event("failed").u64("job", job).str("msg", msg).finish()
}

/// `stats`: aggregate engine counters.
pub fn ev_stats(s: &EngineStats) -> String {
    event("stats")
        .u64("submitted", s.submitted)
        .u64("rejected", s.rejected)
        .u64("done", s.done)
        .u64("cancelled", s.cancelled)
        .u64("failed", s.failed)
        .u64("queued", s.queued as u64)
        .u64("running", s.running as u64)
        .u64("cache_hits", s.cache_hits)
        .u64("cache_misses", s.cache_misses)
        .u64("cache_len", s.cache_len as u64)
        .u64("cache_bytes", s.cache_bytes as u64)
        .u64("cache_evicted_bytes", s.cache_evicted_bytes)
        .finish()
}

/// `cancel`: acknowledgement of a cancel request. `ok` is true when the
/// cancel changed anything (the job was queued or running).
pub fn ev_cancel_ack(job: u64, outcome: CancelOutcome, state: Option<JobState>) -> String {
    let ok = matches!(
        outcome,
        CancelOutcome::WasQueued | CancelOutcome::WasRunning
    );
    let state = match (outcome, state) {
        (CancelOutcome::Unknown, _) => "unknown",
        (_, Some(JobState::Queued)) => "queued",
        (_, Some(JobState::Running)) => "running",
        (_, Some(JobState::Done)) => "done",
        (_, Some(JobState::Cancelled)) => "cancelled",
        (_, Some(JobState::Failed)) => "failed",
        (_, None) => "unknown",
    };
    event("cancel")
        .u64("job", job)
        .bool("ok", ok)
        .str("state", state)
        .finish()
}

/// `shutdown`: acknowledgement that the server is stopping.
pub fn ev_shutdown_ack() -> String {
    event("shutdown").bool("ok", true).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_with_toml_payload() {
        let req = Request::Submit {
            config: "[run]\ncycles = 3\n# comment \"quoted\"\n".to_string(),
            mode: JobMode::Distributed,
            force: true,
            artifacts: false,
        };
        assert_eq!(Request::parse(&req.to_line()), Ok(req));
        for r in [
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&r.to_line()), Ok(r));
        }
    }

    #[test]
    fn submit_defaults_and_errors() {
        let r = Request::parse("{\"op\":\"submit\",\"config\":\"\"}").unwrap();
        assert_eq!(
            r,
            Request::Submit {
                config: String::new(),
                mode: JobMode::Solve,
                force: false,
                artifacts: false,
            }
        );
        assert!(Request::parse("{\"op\":\"submit\"}").is_err());
        assert!(Request::parse("{\"op\":\"submit\",\"config\":\"\",\"mode\":\"warp\"}").is_err());
        assert!(Request::parse("{\"op\":\"cancel\"}").is_err());
        assert!(Request::parse("{\"op\":\"nope\"}").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn progress_residual_round_trips_bit_exactly() {
        let r = 0.1f64 + 0.2f64; // a value with no short decimal form
        let line = ev_progress(3, 11, r);
        let o = JObj::parse(&line).unwrap();
        let got = o.f64_of("residual").unwrap();
        assert_eq!(got.to_bits(), r.to_bits());
    }
}
