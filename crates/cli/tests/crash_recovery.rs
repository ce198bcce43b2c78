//! Crash-injection harness: `kill -9` the real `eul3d serve` process at
//! seeded points mid-solve, restart it on the same `--state-dir`, and
//! assert the resumed job's artifact bundle is **byte-identical** to an
//! uninterrupted run — down to the encoded bytes of the durable result
//! file. This is the end-to-end proof of DESIGN.md §12's crash
//! consistency argument; the deterministic (no-subprocess) half lives
//! in `crates/serve/tests/durability.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use eul3d_core::{JobMode, RunConfig};
use eul3d_serve::client::{self, ClientConfig};
use eul3d_serve::json::JObj;
use eul3d_serve::{CacheKey, Request};

const SEED: u64 = 7;
/// Long enough (~1 s of cycles) that the kill always lands mid-run,
/// checkpointing densely so every kill point has progress to resume.
const CFG: &str = "[run]\nlevels = 2\ncycles = 120\ncheckpoint_every = 2\n\
                   [mesh]\nnx = 12\nny = 6\nnz = 5\n";

struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    fn spawn(sock: &Path, state: &Path) -> Server {
        Server::spawn_with(sock, state, &[])
    }

    fn spawn_with(sock: &Path, state: &Path, extra: &[&str]) -> Server {
        let child = Command::new(env!("CARGO_BIN_EXE_eul3d"))
            .args([
                "serve",
                "--socket",
                &sock.display().to_string(),
                "--state-dir",
                &state.display().to_string(),
                "--workers",
                "1",
                "--seed",
                &SEED.to_string(),
            ])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn eul3d serve");
        let mut srv = Server {
            child,
            sock: sock.to_path_buf(),
        };
        srv.wait_ready();
        srv
    }

    fn wait_ready(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if client::request_one(&self.sock, &Request::Stats).is_ok() {
                return;
            }
            assert!(
                self.child.try_wait().expect("try_wait").is_none(),
                "server exited before becoming ready"
            );
            assert!(Instant::now() < deadline, "server never became ready");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// SIGKILL — no drain, no cleanup, exactly the crash being modeled.
    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        let _ = client::request_one(&self.sock, &Request::Shutdown);
        let _ = self.child.wait();
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("eul3d-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn journal_text(state: &Path) -> String {
    String::from_utf8_lossy(&std::fs::read(state.join("journal.log")).unwrap_or_default())
        .into_owned()
}

/// Block until the journal holds at least `n` checkpointed records for
/// an unfinished job — the seeded kill point.
fn wait_for_checkpoints(state: &Path, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let j = journal_text(state);
        assert!(
            !j.contains("\"done\""),
            "job finished before kill point {n}; enlarge CFG"
        );
        if j.matches("checkpointed").count() >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for checkpoint {n}; journal:\n{j}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn wait_for_started(state: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !journal_text(state).contains("started") {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn result_file(state: &Path) -> PathBuf {
    let rc = RunConfig::from_toml(CFG).unwrap();
    let key = CacheKey::of(&rc, JobMode::Solve, SEED);
    state.join("results").join(format!("{key}.res"))
}

fn wait_for_result_file(state: &Path) -> Vec<u8> {
    let path = result_file(state);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        // The terminal record lands *after* the store write, so its
        // presence guarantees the .res bytes are complete.
        if journal_text(state).contains("\"done\"") {
            return std::fs::read(&path).expect("result file after done record");
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the resumed job to finish"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn done_line_of(lines: &[String]) -> JObj {
    lines
        .iter()
        .rev()
        .find_map(|l| {
            let o = JObj::parse(l).ok()?;
            (o.str_of("event") == Some("done")).then_some(o)
        })
        .expect("stream carries a done event")
}

#[test]
fn sigkill_at_seeded_points_resumes_to_byte_identical_results() {
    // Uninterrupted baseline: submit, collect, read the durable result
    // file's raw bytes.
    let base_state = tmp("base-state");
    let base_sock = tmp("base-sock");
    let srv = Server::spawn(&base_sock, &base_state);
    let base_lines =
        client::submit_and_collect(&base_sock, CFG, "solve", false, true).expect("baseline");
    let base_done = done_line_of(&base_lines);
    srv.shutdown();
    let base_bytes = std::fs::read(result_file(&base_state)).expect("baseline result file");

    // Seeded kill points: before any checkpoint, and after the 1st and
    // 3rd checkpointed records.
    for (tag, kill_after_ck) in [("k0", 0usize), ("k1", 1), ("k3", 3)] {
        let state = tmp(&format!("{tag}-state"));
        let sock = tmp(&format!("{tag}-sock"));
        let srv = Server::spawn(&sock, &state);

        // A resilient client rides through the crash: its stream dies
        // with the server, and it resubmits (same content key) until the
        // restarted server serves the finished result.
        let submit_thread = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let ccfg = ClientConfig {
                    read_timeout: Some(Duration::from_secs(120)),
                    retries: 60,
                    base_backoff_ms: 100,
                    seed: SEED,
                };
                client::submit_resilient(&sock, CFG, "solve", false, true, &ccfg)
            })
        };

        if kill_after_ck == 0 {
            wait_for_started(&state);
        } else {
            wait_for_checkpoints(&state, kill_after_ck);
        }
        srv.kill9();

        // Restart on the same state dir: the journal replays the
        // submission and the worker resumes from the checkpoint log.
        let srv = Server::spawn(&sock, &state);
        let bytes = wait_for_result_file(&state);
        assert_eq!(
            bytes, base_bytes,
            "{tag}: durable result bytes differ from the uninterrupted run"
        );

        let j = journal_text(&state);
        if kill_after_ck > 0 {
            assert!(
                j.contains("resumed"),
                "{tag}: restart recomputed instead of resuming:\n{j}"
            );
        }

        // The riding client lands on the same artifacts (hit or miss —
        // identical bytes either way, per the determinism contract).
        let lines = submit_thread
            .join()
            .expect("client thread")
            .expect("resilient submit after crash+restart");
        let done = done_line_of(&lines);
        assert_eq!(
            done.str_of("result_hash"),
            base_done.str_of("result_hash"),
            "{tag}: client-visible result hash"
        );
        assert_eq!(
            done.str_of("table"),
            base_done.str_of("table"),
            "{tag}: client-visible result table"
        );

        // No double-compute: the store holds exactly one result file.
        let n = std::fs::read_dir(state.join("results"))
            .expect("results dir")
            .count();
        assert_eq!(n, 1, "{tag}: exactly one durable result");
        srv.shutdown();
    }
}

#[test]
fn sigterm_drains_and_interrupted_work_resumes_on_restart() {
    let state = tmp("drain-state");
    let sock = tmp("drain-sock");
    // A drain window far too short for ~120 cycles: the drain must time
    // out, cancel the running job at a cycle boundary, and leave it
    // pending in the journal with its checkpoints intact.
    let mut srv = Server::spawn_with(&sock, &state, &["--drain-timeout-ms", "50"]);
    let submit_thread = {
        let sock = sock.clone();
        std::thread::spawn(move || client::submit_and_collect(&sock, CFG, "solve", false, false))
    };
    wait_for_checkpoints(&state, 1);

    let pid = srv.child.id();
    let term = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if srv.child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "server ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = submit_thread.join();
    assert!(
        !journal_text(&state).contains("\"done\""),
        "drain should not have finished a 120-cycle job instantly"
    );

    // Restart: the interrupted job resumes and finishes.
    let srv = Server::spawn(&sock, &state);
    let bytes = wait_for_result_file(&state);
    assert!(!bytes.is_empty());
    assert!(journal_text(&state).contains("resumed"));
    srv.shutdown();
}
