//! `serve_mix`: an in-process `eul3d-serve` on a Unix socket, driven by a
//! **closed loop** of `NPAR` clients — each sends its next job only after
//! the previous one reached `done`, so a slower service receives less
//! load and latency is measured from the moment of submission.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use eul3d_core::JobMode;
use eul3d_serve::engine::EngineConfig;
use eul3d_serve::json::JObj;
use eul3d_serve::{client, server, Request, ServerHandle};

use crate::spec::{JobShape, HIT_SHARE, NPAR};
use crate::stats::Rng;
use crate::trace::Tracer;

/// Result-cache entries: above the 120 fresh configurations a full mix
/// submits per client pair, so a resubmission is always a hit.
const CACHE_CAP: usize = 512;
/// Resubmissions of a bounced job before it counts as failed.
const MAX_RETRIES: u32 = 20;

/// A fresh directory under `benchmark/out/tmp/` (the benchmark writes
/// nowhere else); removed by [`Scratch`]'s drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = PathBuf::from(format!(
            "benchmark/out/tmp/{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Start the service in `dir`; `durable` arms the journal, the result
/// store and the checkpoint log under `dir/state`.
fn spawn(dir: &Path, durable: bool, seed: u64) -> (ServerHandle, PathBuf) {
    let sock = dir.join("s.sock");
    let srv = server::spawn(
        &sock,
        EngineConfig {
            workers: NPAR,
            cache_cap: CACHE_CAP,
            seed,
            retry_after_ms_per_queued: 10,
            state_dir: durable.then(|| dir.join("state")),
            ..EngineConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("cannot serve on {}: {e}", sock.display()));
    (srv, sock)
}

/// `server::spawn` to the first `stats` reply, in seconds, with the
/// server left running.
fn timed_spawn(
    dir: &Path,
    durable: bool,
    seed: u64,
    tr: &mut Tracer,
) -> (ServerHandle, PathBuf, f64) {
    let ((srv, sock), dt) = tr.timed("setup", || {
        let (srv, sock) = spawn(dir, durable, seed);
        client::request_one(&sock, &Request::Stats)
            .unwrap_or_else(|e| panic!("no stats reply: {e}"));
        (srv, sock)
    });
    (srv, sock, dt)
}

/// How one submission ended, as its client saw it.
struct Outcome {
    /// First submit to `done`, bounces included.
    latency_s: f64,
    /// Submit to `accepted` of the attempt that was admitted.
    accept_s: f64,
    /// Gaps between consecutive `progress` events.
    gaps_s: Vec<f64>,
    /// `Some(hit)` when the job ended in `done`.
    done_hit: Option<bool>,
    result_hash: String,
    rejected: u32,
}

fn submit(sock: &Path, config: &str) -> Outcome {
    let line = Request::Submit {
        config: config.to_string(),
        mode: JobMode::Solve,
        force: false,
        artifacts: false,
    }
    .to_line();
    let mut out = Outcome {
        latency_s: 0.0,
        accept_s: 0.0,
        gaps_s: Vec::new(),
        done_hit: None,
        result_hash: String::new(),
        rejected: 0,
    };
    let t_first = Instant::now();
    'attempt: while out.rejected <= MAX_RETRIES {
        let t0 = Instant::now();
        let Ok(mut stream) = client::open(sock, &line) else {
            break;
        };
        let mut last_progress: Option<Instant> = None;
        while let Some(l) = stream.next_line() {
            let Ok(o) = JObj::parse(&l) else { continue };
            match o.str_of("event") {
                Some("accepted") => out.accept_s = t0.elapsed().as_secs_f64(),
                Some("progress") => {
                    let now = Instant::now();
                    if let Some(prev) = last_progress {
                        out.gaps_s.push((now - prev).as_secs_f64());
                    }
                    last_progress = Some(now);
                }
                Some("done") => {
                    out.latency_s = t_first.elapsed().as_secs_f64();
                    out.done_hit = Some(o.str_of("cache") == Some("hit"));
                    out.result_hash = o.str_of("result_hash").unwrap_or_default().to_string();
                    return out;
                }
                Some("rejected") => {
                    out.rejected += 1;
                    let wait = o.u64_of("retry_after_ms").unwrap_or(10);
                    std::thread::sleep(Duration::from_millis(wait));
                    continue 'attempt;
                }
                Some("failed" | "error" | "cancelled") => break 'attempt,
                _ => {}
            }
        }
        break; // stream ended without a terminal event
    }
    out.latency_s = t_first.elapsed().as_secs_f64();
    out
}

#[derive(Default)]
pub struct MixRun {
    pub setup_s: Vec<f64>,
    /// Submit→`done` of jobs that had to be solved / were served from
    /// the cache.
    pub miss_s: Vec<f64>,
    pub hit_s: Vec<f64>,
    pub accept_s: Vec<f64>,
    /// Gaps between `progress` events of solved jobs: wall seconds per
    /// multigrid cycle as a client of the service sees them.
    pub gap_s: Vec<f64>,
    pub wall_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub rejected: u64,
    pub retries: u64,
}

impl MixRun {
    fn absorb(&mut self, o: MixRun) {
        self.miss_s.extend(o.miss_s);
        self.hit_s.extend(o.hit_s);
        self.accept_s.extend(o.accept_s);
        self.gap_s.extend(o.gap_s);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.rejected += o.rejected;
        self.retries += o.retries;
    }

    pub fn completed(&self) -> usize {
        self.attempted - self.failed
    }
}

/// One client's closed loop: `njobs` submissions in an order seeded by
/// (`seed`, `id`). A fresh job perturbs the Mach number (unique by
/// construction, so it must miss); a resubmission repeats one of this
/// client's earlier configurations and must be a hit carrying the
/// `result_hash` of its original.
fn client_loop(
    sock: &Path,
    id: usize,
    seed: u64,
    njobs: usize,
    job: &JobShape,
    tr: &mut Tracer,
) -> MixRun {
    let mut rng = Rng::new(seed.wrapping_mul(NPAR as u64 + 1).wrapping_add(id as u64));
    // Exactly `HIT_SHARE` of the submissions are resubmissions, in a
    // seeded order: the seed moves which jobs repeat, never how many, so
    // throughput and memory do not depend on a binomial draw.
    let nrepeat = (HIT_SHARE * njobs as f64).round() as usize;
    let mut plan: Vec<bool> = (0..njobs).map(|i| i < nrepeat).collect();
    for i in (1..njobs).rev() {
        plan.swap(i, rng.next_u64() as usize % (i + 1));
    }
    if let Some(first_fresh) = plan.iter().position(|r| !r) {
        plan.swap(0, first_fresh); // nothing to repeat yet
    }
    let mut mine: Vec<(String, String)> = Vec::new();
    let mut run = MixRun::default();
    for resubmit in plan {
        // A failed first job leaves nothing to repeat: submit fresh.
        let resubmit = resubmit && !mine.is_empty();
        let (config, original_hash) = if resubmit {
            let (c, h) = &mine[rng.next_u64() as usize % mine.len()];
            (c.clone(), Some(h.clone()))
        } else {
            let k = mine.len() * NPAR + id;
            let mach = 0.60 + 3e-4 * k as f64 + 1e-5 * rng.unit();
            (job.toml(mach, seed), None)
        };
        let span = tr.begin(if resubmit {
            "serve.client.resubmit"
        } else {
            "serve.client.submit"
        });
        let o = submit(sock, &config);
        tr.end(span);
        run.attempted += 1;
        run.rejected += u64::from(o.rejected);
        run.retries += u64::from(o.rejected);
        let ok = match (o.done_hit, &original_hash) {
            (Some(true), Some(h)) => *h == o.result_hash,
            (Some(false), None) => !o.result_hash.is_empty(),
            _ => false,
        };
        if !ok {
            run.failed += 1;
            continue;
        }
        run.accept_s.push(o.accept_s);
        if resubmit {
            run.hit_s.push(o.latency_s);
        } else {
            run.miss_s.push(o.latency_s);
            run.gap_s.extend(o.gaps_s);
            mine.push((config, o.result_hash));
        }
    }
    run
}

/// Drive a fresh service with `NPAR` closed-loop clients of `njobs`
/// submissions each, then time set-up `setups` times: a restart on the
/// state directory the mix left behind (journal replay, store and
/// checkpoint directories reopened) to the first `stats` reply — what an
/// operator waits for after a deploy or a crash. A first start on an
/// empty directory takes 0.2 ms, too little to hold steady.
pub fn run_mix(
    seed: u64,
    njobs: usize,
    job: &JobShape,
    durable: bool,
    setups: usize,
    tr: &mut Tracer,
) -> MixRun {
    let mut run = MixRun::default();
    let scratch = Scratch::new("serve");
    let (mut srv, sock) = spawn(&scratch.0, durable, seed);
    let span = tr.begin("serve.mix");
    let t0 = Instant::now();
    let lanes: Vec<(MixRun, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NPAR)
            .map(|id| {
                let mut lane = tr.lane(id as u32 + 1);
                let sock = &sock;
                s.spawn(move || {
                    let r = client_loop(sock, id, seed, njobs, job, &mut lane);
                    (r, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("a client thread panicked"))
            })
            .collect()
    });
    run.wall_s = t0.elapsed().as_secs_f64();
    for (r, lane) in lanes {
        run.absorb(r);
        tr.absorb(lane);
    }
    tr.end(span);
    srv.shutdown();
    for _ in 0..setups {
        let (mut srv, _, dt) = timed_spawn(&scratch.0, durable, seed, tr);
        run.setup_s.push(dt);
        srv.shutdown();
    }
    run
}
