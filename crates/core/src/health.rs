//! Solver-health guard: divergence detection, CFL backoff and re-ramp.
//!
//! The explicit multistage scheme of the paper is only conditionally
//! stable; an over-aggressive CFL (or a hostile mesh) drives the state
//! non-physical within a handful of cycles. This module provides the
//! backend-independent pieces of the guard layer:
//!
//! * [`HealthVerdict`] — a severity-ordered lattice of per-cycle
//!   diagnoses, encodable as a `[f64; 2]` so the distributed backend can
//!   agree on the worst verdict with **one** pooled `all_reduce_max`;
//! * [`HealthMonitor`] — the residual-divergence detector
//!   (ratio-to-best over a sliding window), rebuildable from a truncated
//!   history after rollback;
//! * [`CflController`] — the backoff / re-ramp state machine (pure
//!   configuration arithmetic, hence bit-identical on every backend);
//! * [`GuardState`] — controller + retry transcript, with a flat `f64`
//!   wire encoding so replicas and checkpoints can carry it;
//! * [`check_state`] — the finite/positivity scan over conserved
//!   variables;
//! * `GuardLoop` — guard state + monitor as both cycle loops drive them:
//!   score a finished cycle, keep a clean one, reject a bad one.
//!
//! Drivers live elsewhere: [`crate::multigrid::MultigridSolver::run`]
//! (with [`crate::multigrid::RunPlan::guard`] set) for the serial/shared
//! backends and [`crate::dist::run_distributed_with_faults`] (with
//! [`crate::dist::FaultOptions::guard`] set) for the distributed one.

use eul3d_obs as obs;

use crate::counters::{PhaseCounters, FLOPS_GUARD_VERT};
use crate::error::SolverError;
use crate::executor::{count_vertex_loop, Phase};
use crate::soa::SoaState;

/// Sentinel vertex index meaning "not attributable to a local vertex"
/// (a remote rank detected it, or the verdict was decoded from the
/// pooled agreement reduction, which carries no vertex payload).
pub const REMOTE_VERTEX: usize = usize::MAX;

/// One cycle's health diagnosis, ordered by severity:
/// `Healthy < Diverging < NegativePressure < NegativeDensity < NonFinite`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthVerdict {
    /// State finite and physical, residual not diverging.
    Healthy,
    /// Residual exceeded `ratio` × best-seen for a full window.
    Diverging { ratio: f64 },
    /// Finite state with non-positive pressure at `vertex`.
    NegativePressure { vertex: usize },
    /// Finite state with non-positive density at `vertex`.
    NegativeDensity { vertex: usize },
    /// NaN or ±∞ in a conserved variable at `vertex`.
    NonFinite { vertex: usize },
}

impl HealthVerdict {
    /// Dense severity code (0 = healthy … 4 = non-finite).
    pub fn severity(self) -> u8 {
        match self {
            HealthVerdict::Healthy => 0,
            HealthVerdict::Diverging { .. } => 1,
            HealthVerdict::NegativePressure { .. } => 2,
            HealthVerdict::NegativeDensity { .. } => 3,
            HealthVerdict::NonFinite { .. } => 4,
        }
    }

    /// Anything other than [`HealthVerdict::Healthy`].
    pub fn is_bad(self) -> bool {
        self.severity() > 0
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Diverging { .. } => "diverging",
            HealthVerdict::NegativePressure { .. } => "negative-pressure",
            HealthVerdict::NegativeDensity { .. } => "negative-density",
            HealthVerdict::NonFinite { .. } => "non-finite",
        }
    }

    /// The worse of two verdicts. Ties keep `self`, except two
    /// `Diverging` verdicts, which keep the larger ratio — exactly the
    /// semantics of an element-wise max over [`HealthVerdict::encode`].
    pub fn worse(self, other: HealthVerdict) -> HealthVerdict {
        match (self, other) {
            (HealthVerdict::Diverging { ratio: a }, HealthVerdict::Diverging { ratio: b }) => {
                HealthVerdict::Diverging { ratio: a.max(b) }
            }
            (a, b) if b.severity() > a.severity() => b,
            (a, _) => a,
        }
    }

    /// Wire form for the pooled agreement reduction:
    /// `[severity, divergence ratio]`. An element-wise `max` across ranks
    /// yields the encoding of the globally worst verdict (vertex indices
    /// are rank-local and deliberately not carried).
    pub fn encode(self) -> [f64; 2] {
        let ratio = match self {
            HealthVerdict::Diverging { ratio } => ratio,
            _ => 0.0,
        };
        [f64::from(self.severity()), ratio]
    }

    /// Inverse of [`HealthVerdict::encode`]; vertex payloads come back as
    /// [`REMOTE_VERTEX`].
    pub fn decode(enc: [f64; 2]) -> HealthVerdict {
        match enc[0] as u8 {
            0 => HealthVerdict::Healthy,
            1 => HealthVerdict::Diverging { ratio: enc[1] },
            2 => HealthVerdict::NegativePressure {
                vertex: REMOTE_VERTEX,
            },
            3 => HealthVerdict::NegativeDensity {
                vertex: REMOTE_VERTEX,
            },
            _ => HealthVerdict::NonFinite {
                vertex: REMOTE_VERTEX,
            },
        }
    }

    /// The same verdict with any rank-local vertex payload erased —
    /// what every backend would have agreed on through the pooled
    /// reduction. Transcript comparisons across backends use this.
    pub fn canonical(self) -> HealthVerdict {
        HealthVerdict::decode(self.encode())
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            HealthVerdict::Healthy => write!(f, "healthy"),
            HealthVerdict::Diverging { ratio } => {
                write!(f, "diverging (residual {ratio:.1}x best)")
            }
            HealthVerdict::NegativePressure { vertex } if vertex == REMOTE_VERTEX => {
                write!(f, "negative pressure")
            }
            HealthVerdict::NegativePressure { vertex } => {
                write!(f, "negative pressure at vertex {vertex}")
            }
            HealthVerdict::NegativeDensity { vertex } if vertex == REMOTE_VERTEX => {
                write!(f, "negative density")
            }
            HealthVerdict::NegativeDensity { vertex } => {
                write!(f, "negative density at vertex {vertex}")
            }
            HealthVerdict::NonFinite { vertex } if vertex == REMOTE_VERTEX => {
                write!(f, "non-finite state")
            }
            HealthVerdict::NonFinite { vertex } => {
                write!(f, "non-finite state at vertex {vertex}")
            }
        }
    }
}

/// Guard configuration, shared verbatim by all three backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Rollback/backoff attempts before giving up.
    pub max_retries: usize,
    /// Multiplicative CFL reduction per backoff (must be in `(0, 1)`).
    pub cfl_backoff: f64,
    /// Sliding-window length (cycles) for the divergence detector.
    pub window: usize,
    /// Residual-to-best ratio that counts as divergence.
    pub divergence_ratio: f64,
    /// Consecutive clean cycles before one re-ramp step toward the
    /// target CFL.
    pub reramp_after: usize,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            max_retries: 4,
            cfl_backoff: 0.5,
            window: 8,
            divergence_ratio: 50.0,
            reramp_after: 10,
        }
    }
}

impl GuardConfig {
    /// Reject configurations that cannot make progress, naming the
    /// offending `guard.*` key.
    pub fn validate(&self) -> Result<(), SolverError> {
        let bad = |field, value, expected| {
            Err(SolverError::ConfigOutOfRange {
                field,
                value,
                expected,
            })
        };
        if !(self.cfl_backoff > 0.0 && self.cfl_backoff < 1.0) {
            let why = "must be in (0, 1): a factor >= 1 never reduces the CFL";
            return bad("guard.cfl_backoff", self.cfl_backoff, why);
        }
        for (field, n) in [
            ("guard.max_retries", self.max_retries),
            ("guard.window", self.window),
            ("guard.reramp_after", self.reramp_after),
        ] {
            if n == 0 {
                return bad(field, 0.0, "must be at least 1");
            }
        }
        if self.divergence_ratio <= 1.0 {
            return bad(
                "guard.divergence_ratio",
                self.divergence_ratio,
                "must exceed 1",
            );
        }
        Ok(())
    }
}

/// A guarded run's rollback cadence in cycles: its `checkpoint_every`,
/// or 5 without checkpoints. The serial driver snapshots and the
/// distributed one checkpoints at it, so both roll back to one cycle.
pub fn rollback_every(checkpoint_every: usize) -> usize {
    if checkpoint_every == 0 {
        5
    } else {
        checkpoint_every
    }
}

/// Scan the owned prefix of a plane-major conserved-variable field for
/// non-finite entries, non-positive density, and non-positive pressure.
/// Returns the worst verdict, attributed to the lowest offending vertex
/// index of that severity. Vertices are visited in ascending order so
/// the verdict (and its blamed vertex) is identical to the historical
/// interleaved scan.
pub fn check_state(gamma: f64, w: &SoaState, nverts: usize) -> HealthVerdict {
    let mut worst = HealthVerdict::Healthy;
    for i in 0..nverts {
        let row = w.get5(i);
        let v = if !row.iter().all(|c| c.is_finite()) {
            HealthVerdict::NonFinite { vertex: i }
        } else if row[0] <= 0.0 {
            HealthVerdict::NegativeDensity { vertex: i }
        } else {
            let ke = 0.5 * (row[1] * row[1] + row[2] * row[2] + row[3] * row[3]) / row[0];
            let p = (gamma - 1.0) * (row[4] - ke);
            if p <= 0.0 {
                HealthVerdict::NegativePressure { vertex: i }
            } else {
                HealthVerdict::Healthy
            }
        };
        worst = worst.worse(v);
        if worst.severity() == 4 {
            break;
        }
    }
    worst
}

/// Residual-divergence detector: flags a cycle whose residual exceeds
/// `divergence_ratio` × the best residual seen, once at least `window`
/// cycles have passed without improving on that best (so a transient
/// start-up bump is never flagged). Never snapshotted — after any
/// rollback it is rebuilt from the truncated history, which keeps it
/// consistent on every backend by construction.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    window: usize,
    ratio_limit: f64,
    best: f64,
    since_best: usize,
}

impl HealthMonitor {
    pub fn new(cfg: &GuardConfig) -> HealthMonitor {
        HealthMonitor {
            window: cfg.window,
            ratio_limit: cfg.divergence_ratio,
            best: f64::INFINITY,
            since_best: 0,
        }
    }

    /// Diagnose `residual` against the recorded history **without**
    /// recording it (the caller pushes only cycles it keeps).
    pub fn check(&self, residual: f64) -> HealthVerdict {
        if !residual.is_finite() {
            return HealthVerdict::NonFinite {
                vertex: REMOTE_VERTEX,
            };
        }
        if self.best.is_finite() && self.best > 0.0 && self.since_best + 1 >= self.window {
            let ratio = residual / self.best;
            if ratio > self.ratio_limit {
                return HealthVerdict::Diverging { ratio };
            }
        }
        HealthVerdict::Healthy
    }

    /// Record a kept (healthy) cycle's residual.
    pub fn push(&mut self, residual: f64) {
        if residual < self.best {
            self.best = residual;
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
    }

    /// Reset and replay a (truncated) residual history.
    pub fn rebuild(&mut self, history: &[f64]) {
        self.best = f64::INFINITY;
        self.since_best = 0;
        for &r in history {
            self.push(r);
        }
    }
}

/// The CFL backoff / re-ramp state machine. All transitions are pure
/// arithmetic on configuration values, so the CFL schedule is
/// bit-identical across backends given the same verdict sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CflController {
    /// The user-requested CFL the controller ramps back toward.
    pub target: f64,
    /// The CFL currently in force.
    pub current: f64,
    backoff: f64,
    reramp_after: usize,
    clean: usize,
}

impl CflController {
    pub fn new(target: f64, cfg: &GuardConfig) -> CflController {
        CflController {
            target,
            current: target,
            backoff: cfg.cfl_backoff,
            reramp_after: cfg.reramp_after,
            clean: 0,
        }
    }

    /// Apply one backoff step (after a bad verdict). Emits a
    /// [`eul3d_obs::Event::CflChange`] marker on the lane's trace.
    pub fn back_off(&mut self) {
        let from = self.current;
        self.current *= self.backoff;
        self.clean = 0;
        obs::emit(obs::Event::CflChange {
            from_bits: from.to_bits(),
            to_bits: self.current.to_bits(),
        });
    }

    /// Record one clean cycle; after `reramp_after` consecutive clean
    /// cycles, step the CFL back up by the inverse backoff factor
    /// (capped at the target). Returns `true` if the CFL changed (also
    /// emitting a [`eul3d_obs::Event::CflChange`] marker).
    pub fn on_clean(&mut self) -> bool {
        if self.current >= self.target {
            return false;
        }
        self.clean += 1;
        if self.clean >= self.reramp_after {
            let from = self.current;
            self.current = (self.current / self.backoff).min(self.target);
            self.clean = 0;
            obs::emit(obs::Event::CflChange {
                from_bits: from.to_bits(),
                to_bits: self.current.to_bits(),
            });
            return true;
        }
        false
    }
}

/// One backoff epoch in the retry transcript.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryEvent {
    /// Cycle whose verdict triggered the rollback (0-based).
    pub cycle: usize,
    /// Cycle the state was rolled back to (`None` = initial state).
    pub rollback_to: Option<usize>,
    /// The agreed verdict.
    pub verdict: HealthVerdict,
    /// CFL in force when the verdict fired.
    pub cfl_before: f64,
    /// CFL after the backoff.
    pub cfl_after: f64,
}

impl std::fmt::Display for RetryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let to = match self.rollback_to {
            Some(c) => format!("cycle {c}"),
            None => "initial state".to_string(),
        };
        write!(
            f,
            "cycle {}: {} -> rolled back to {}, cfl {:.3} -> {:.3}",
            self.cycle + 1,
            self.verdict,
            to,
            self.cfl_before,
            self.cfl_after
        )
    }
}

/// Controller + transcript: the guard state that travels with
/// checkpoints and replica hand-offs on the distributed backend.
///
/// Restore discipline (the key to determinism):
/// * **fault recovery** restores `GuardState` from the checkpoint so a
///   replayed rank re-applies the same backoffs at the same cycles —
///   bit-identical composition with fault injection;
/// * **guard rollback** (`GuardLoop::reject`, every driver) keeps the
///   in-memory state it just backed off, so backoff compounds across
///   attempts instead of livelocking on an identical replay.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardState {
    pub ctl: CflController,
    pub transcript: Vec<RetryEvent>,
}

impl GuardState {
    pub fn new(target_cfl: f64, cfg: &GuardConfig) -> GuardState {
        GuardState {
            ctl: CflController::new(target_cfl, cfg),
            transcript: Vec::new(),
        }
    }

    /// Retries consumed so far (the transcript length — consistent under
    /// fault-recovery replay because the transcript itself is restored).
    pub fn retries_used(&self) -> usize {
        self.transcript.len()
    }

    /// Back the CFL off after the bad `verdict` of `cycle` and record
    /// the retry, which rolls the state back to `rollback_to`.
    pub fn back_off(&mut self, cycle: usize, rollback_to: Option<usize>, verdict: HealthVerdict) {
        let cfl_before = self.ctl.current;
        self.ctl.back_off();
        self.transcript.push(RetryEvent {
            cycle,
            rollback_to,
            verdict,
            cfl_before,
            cfl_after: self.ctl.current,
        });
    }

    /// Append the flat wire form to `out`:
    /// `[target, current, clean, n, {cycle, rollback_to|-1, sev, ratio,
    /// before, after} × n]`.
    pub fn encode_into(&self, out: &mut Vec<f64>) {
        out.push(self.ctl.target);
        out.push(self.ctl.current);
        out.push(self.ctl.clean as f64);
        out.push(self.transcript.len() as f64);
        for e in &self.transcript {
            out.push(e.cycle as f64);
            out.push(e.rollback_to.map_or(-1.0, |c| c as f64));
            let enc = e.verdict.encode();
            out.push(enc[0]);
            out.push(enc[1]);
            out.push(e.cfl_before);
            out.push(e.cfl_after);
        }
    }

    /// Number of `f64` words [`GuardState::encode_into`] appends.
    pub fn encoded_len(&self) -> usize {
        4 + 6 * self.transcript.len()
    }

    /// Decode a blob produced by [`GuardState::encode_into`]. Returns
    /// `None` on a malformed blob.
    pub fn decode(blob: &[f64], cfg: &GuardConfig) -> Option<GuardState> {
        if blob.len() < 4 {
            return None;
        }
        let n = blob[3] as usize;
        if blob.len() < 4 + 6 * n {
            return None;
        }
        let mut ctl = CflController::new(blob[0], cfg);
        ctl.current = blob[1];
        ctl.clean = blob[2] as usize;
        let mut transcript = Vec::with_capacity(n);
        for k in 0..n {
            let e = &blob[4 + 6 * k..4 + 6 * (k + 1)];
            transcript.push(RetryEvent {
                cycle: e[0] as usize,
                rollback_to: (e[1] >= 0.0).then_some(e[1] as usize),
                verdict: HealthVerdict::decode([e[2], e[3]]),
                cfl_before: e[4],
                cfl_after: e[5],
            });
        }
        Some(GuardState { ctl, transcript })
    }
}

/// What a guarded run reports alongside its history.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardOutcome {
    /// Every backoff epoch, in order.
    pub transcript: Vec<RetryEvent>,
    /// CFL in force when the run finished.
    pub final_cfl: f64,
    /// The user-requested CFL.
    pub target_cfl: f64,
    /// Set when the guard gave up: the cycle and verdict of the final,
    /// unretried failure. The serial/shared driver surfaces this as
    /// [`SolverError::RetriesExhausted`] instead; the distributed driver
    /// records it here so every rank can stop deterministically and the
    /// caller converts it to the same typed error.
    pub exhausted: Option<(usize, HealthVerdict)>,
}

/// The guard as every cycle loop runs it: configuration, the replicated
/// controller + transcript, and the (never-snapshotted, always rebuilt)
/// divergence monitor.
#[derive(Debug, Clone)]
pub(crate) struct GuardLoop {
    pub(crate) cfg: GuardConfig,
    pub(crate) gs: GuardState,
    pub(crate) monitor: HealthMonitor,
}

impl GuardLoop {
    pub(crate) fn new(target_cfl: f64, cfg: &GuardConfig) -> GuardLoop {
        GuardLoop {
            cfg: *cfg,
            gs: GuardState::new(target_cfl, cfg),
            monitor: HealthMonitor::new(cfg),
        }
    }

    /// Score a finished cycle: the scan of the `n_owned` owned vertices
    /// of `w` joined with the divergence check of its residual `r`, the
    /// scan charged to [`Phase::Guard`].
    pub(crate) fn score(
        &self,
        gamma: f64,
        w: &SoaState,
        n_owned: usize,
        r: f64,
        counter: &mut PhaseCounters,
    ) -> HealthVerdict {
        let verdict = check_state(gamma, w, n_owned).worse(self.monitor.check(r));
        count_vertex_loop(counter, Phase::Guard, n_owned, FLOPS_GUARD_VERT);
        verdict
    }

    /// Keep a clean cycle: record its residual and count it toward the
    /// next re-ramp.
    pub(crate) fn keep(&mut self, r: f64) {
        self.monitor.push(r);
        self.gs.ctl.on_clean();
    }

    /// Reject cycle `cycle` on its bad `verdict`, the one rollback rule
    /// of every driver. Emits the verdict; when every retry is spent
    /// returns `false` and the run ends. Otherwise backs the CFL off,
    /// truncates `history` to the `to` cycles the caller's snapshot
    /// holds, rebuilds the divergence monitor over them and returns
    /// `true`: the caller then restores its state to that snapshot.
    pub(crate) fn reject(
        &mut self,
        cycle: usize,
        verdict: HealthVerdict,
        to: usize,
        history: &mut Vec<f64>,
    ) -> bool {
        obs::emit(obs::Event::GuardVerdict {
            cycle: cycle as u64,
            severity: verdict.severity(),
        });
        if self.gs.retries_used() >= self.cfg.max_retries {
            return false;
        }
        self.gs.back_off(cycle, Some(to), verdict);
        history.truncate(to);
        self.monitor.rebuild(history);
        true
    }

    /// What the run reports; `exhausted` is the failure it gave up on.
    pub(crate) fn outcome(self, exhausted: Option<(usize, HealthVerdict)>) -> GuardOutcome {
        GuardOutcome {
            final_cfl: self.gs.ctl.current,
            target_cfl: self.gs.ctl.target,
            exhausted,
            transcript: self.gs.transcript,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lattice_orders_by_severity() {
        let h = HealthVerdict::Healthy;
        let d = HealthVerdict::Diverging { ratio: 60.0 };
        let np = HealthVerdict::NegativePressure { vertex: 3 };
        let nd = HealthVerdict::NegativeDensity { vertex: 1 };
        let nf = HealthVerdict::NonFinite { vertex: 0 };
        assert_eq!(h.worse(d), d);
        assert_eq!(d.worse(np), np);
        assert_eq!(np.worse(nd), nd);
        assert_eq!(nd.worse(nf), nf);
        assert_eq!(nf.worse(h), nf);
        // Diverging ties keep the larger ratio.
        let d2 = HealthVerdict::Diverging { ratio: 90.0 };
        assert_eq!(d.worse(d2), d2);
    }

    #[test]
    fn verdict_encode_decode_round_trips_canonically() {
        for v in [
            HealthVerdict::Healthy,
            HealthVerdict::Diverging { ratio: 123.5 },
            HealthVerdict::NegativePressure { vertex: 7 },
            HealthVerdict::NegativeDensity { vertex: 7 },
            HealthVerdict::NonFinite { vertex: 7 },
        ] {
            let rt = HealthVerdict::decode(v.encode());
            assert_eq!(rt.severity(), v.severity());
            assert_eq!(rt, v.canonical());
        }
        // Element-wise max of encodings == encoding of `worse`.
        let a = HealthVerdict::Diverging { ratio: 60.0 };
        let b = HealthVerdict::NegativeDensity { vertex: 2 };
        let (ea, eb) = (a.encode(), b.encode());
        let m = [ea[0].max(eb[0]), ea[1].max(eb[1])];
        assert_eq!(HealthVerdict::decode(m).severity(), a.worse(b).severity());
    }

    #[test]
    fn state_scan_catches_each_class() {
        // rho, mx, my, mz, E — healthy row: p = 0.4*(2.5 - 0.5) > 0.
        let healthy = [1.0, 1.0, 0.0, 0.0, 2.5];
        let mut w = crate::soa::SoaState::new(4, 5);
        w.fill_rows(&healthy);
        assert_eq!(check_state(1.4, &w, 4), HealthVerdict::Healthy);

        let mut nan = w.clone();
        nan.set(2, 4, f64::NAN);
        assert_eq!(
            check_state(1.4, &nan, 4),
            HealthVerdict::NonFinite { vertex: 2 }
        );

        let mut neg_rho = w.clone();
        neg_rho.set(1, 0, -0.1);
        assert_eq!(
            check_state(1.4, &neg_rho, 4),
            HealthVerdict::NegativeDensity { vertex: 1 }
        );

        let mut neg_p = w.clone();
        neg_p.set(3, 4, 0.1); // E < kinetic energy => p < 0
        assert_eq!(
            check_state(1.4, &neg_p, 4),
            HealthVerdict::NegativePressure { vertex: 3 }
        );

        // Ghost rows beyond the owned prefix are ignored.
        assert_eq!(check_state(1.4, &nan, 2), HealthVerdict::Healthy);
    }

    #[test]
    fn monitor_flags_divergence_only_after_window() {
        let cfg = GuardConfig {
            window: 3,
            divergence_ratio: 10.0,
            ..Default::default()
        };
        let mut m = HealthMonitor::new(&cfg);
        assert_eq!(m.check(1.0), HealthVerdict::Healthy); // empty history
        m.push(1.0);
        m.push(2.0); // since_best = 1
        assert_eq!(m.check(100.0), HealthVerdict::Healthy); // window not met
        m.push(3.0); // since_best = 2; next check is window'th
        assert!(matches!(
            m.check(100.0),
            HealthVerdict::Diverging { ratio } if ratio == 100.0
        ));
        // A new best resets the window.
        m.push(0.5);
        assert_eq!(m.check(100.0), HealthVerdict::Healthy);
        // Non-finite residual is always fatal.
        assert_eq!(m.check(f64::NAN).severity(), 4);
        // Rebuild replays a truncated history exactly.
        let mut r = HealthMonitor::new(&cfg);
        r.rebuild(&[1.0, 2.0, 3.0, 0.5]);
        assert_eq!(r.best, 0.5);
        assert_eq!(r.since_best, 0);
    }

    #[test]
    fn cfl_controller_backs_off_and_reramps() {
        let cfg = GuardConfig {
            cfl_backoff: 0.5,
            reramp_after: 2,
            ..Default::default()
        };
        let mut c = CflController::new(8.0, &cfg);
        assert!(!c.on_clean()); // at target: no-op
        c.back_off();
        c.back_off();
        assert_eq!(c.current, 2.0);
        assert!(!c.on_clean());
        assert!(c.on_clean()); // 2 clean cycles -> one re-ramp step
        assert_eq!(c.current, 4.0);
        assert!(!c.on_clean());
        assert!(c.on_clean());
        assert_eq!(c.current, 8.0); // capped at target
        assert!(!c.on_clean());
    }

    #[test]
    fn guard_state_wire_round_trip() {
        let cfg = GuardConfig::default();
        let mut g = GuardState::new(30.0, &cfg);
        g.back_off(7, Some(5), HealthVerdict::NonFinite { vertex: 3 });
        g.back_off(9, None, HealthVerdict::Diverging { ratio: 77.0 });
        assert_eq!(
            (g.transcript[1].cfl_before, g.transcript[1].cfl_after),
            (15.0, 7.5)
        );
        let mut blob = Vec::new();
        g.encode_into(&mut blob);
        assert_eq!(blob.len(), g.encoded_len());
        let d = GuardState::decode(&blob, &cfg).expect("decodable");
        assert_eq!(d.ctl, g.ctl);
        assert_eq!(d.transcript.len(), 2);
        assert_eq!(d.transcript[0].cycle, 7);
        assert_eq!(d.transcript[0].rollback_to, Some(5));
        assert_eq!(d.transcript[0].verdict.severity(), 4);
        assert_eq!(d.transcript[1].rollback_to, None);
        assert_eq!(
            d.transcript[1].verdict,
            HealthVerdict::Diverging { ratio: 77.0 }
        );
        assert!(GuardState::decode(&blob[..3], &cfg).is_none());
        assert!(GuardState::decode(&blob[..7], &cfg).is_none());
    }

    #[test]
    fn guard_config_validation_rejects_nonsense() {
        use crate::error::SolverError;
        assert!(GuardConfig::default().validate().is_ok());
        let d = GuardConfig::default();
        for (bad, key) in [
            (
                GuardConfig {
                    cfl_backoff: 1.0,
                    ..d
                },
                "guard.cfl_backoff",
            ),
            (
                GuardConfig {
                    max_retries: 0,
                    ..d
                },
                "guard.max_retries",
            ),
            (GuardConfig { window: 0, ..d }, "guard.window"),
            (
                GuardConfig {
                    reramp_after: 0,
                    ..d
                },
                "guard.reramp_after",
            ),
            (
                GuardConfig {
                    divergence_ratio: 1.0,
                    ..d
                },
                "guard.divergence_ratio",
            ),
        ] {
            assert!(
                matches!(
                    bad.validate(),
                    Err(SolverError::ConfigOutOfRange { field, .. }) if field == key
                ),
                "{key}"
            );
        }
    }
}
