//! **The** FAS multigrid cycle (§2.3, Figure 1) — written once, over a
//! [`Hierarchy`] that hides what differs between level families: how a
//! level is time-stepped (which grid, which executor) and how state,
//! residuals and corrections move between neighbouring levels.
//!
//! Three hierarchies drive it: the paper's sequence of unrelated meshes
//! and agglomerated coarse levels (the two kinds of
//! [`crate::multigrid::Grids`] under
//! [`crate::multigrid::MultigridSolver`], serial or shared), and one
//! rank's share of a partitioned sequence ([`crate::dist::DistSolver`]). Everything else — the γ recursion, the
//! coarsest-visit rule, the forcing function `P = R′ − R(w′)`, the
//! correction `w − w′` — exists here only.
//!
//! All per-vertex loops cover the level's *owned prefix* plane by plane.
//! On single-address-space hierarchies that prefix is the whole level, so
//! the loops touch the same elements in the same order as flat ones.
//!
//! Residuals and corrections travel in each level's `w0`
//! ([`LevelState::w0`]): the stage reference is live only inside a time
//! step, and no transfer runs inside one.

use crate::gas::NVAR;
use crate::level::LevelState;
use crate::multigrid::{CycleEvent, Strategy};

/// A family of solver levels, finest first, with its inter-level
/// transfer operators. Each operator charges its own flops, traffic and
/// observability spans.
pub trait Hierarchy {
    fn nlevels(&self) -> usize;

    /// Leading entries of level `l`'s arrays that hold authoritative
    /// data (all of them, except on rank-local levels with ghost slots).
    fn owned(&self, l: usize) -> usize;

    /// Working arrays of level `l`.
    fn state(&mut self, l: usize) -> &mut LevelState;

    /// One five-stage time step on level `l`.
    fn time_step(&mut self, l: usize);

    /// Fresh total residual of level `l` (forcing included) into `res`.
    fn eval_total_residual(&mut self, l: usize);

    /// State down: set level `l + 1`'s owned `w` from level `l`'s `w`.
    fn restrict_state(&mut self, l: usize);

    /// Residuals down, conservatively: accumulate level `l`'s `res` into
    /// level `l + 1`'s (pre-zeroed) correction buffer `w0`.
    fn restrict_residual(&mut self, l: usize);

    /// Corrections up: set level `l`'s owned correction (in `w0`) from
    /// level `l + 1`'s.
    fn prolong_correction(&mut self, l: usize);
}

/// One cycle of `strategy` on the sub-hierarchy rooted at level `top`
/// (0 for a solver cycle; full-multigrid start-up roots it deeper). When
/// `events` is given, the Figure-1 schedule is appended to it.
pub fn cycle<H: Hierarchy>(
    h: &mut H,
    strategy: Strategy,
    top: usize,
    events: Option<&mut Vec<CycleEvent>>,
) {
    let mut c = Cycle {
        h,
        gamma: strategy.gamma(),
        events,
    };
    match strategy {
        Strategy::SingleGrid => c.step(top),
        _ => c.recurse(top),
    }
}

struct Cycle<'a, H> {
    h: &'a mut H,
    gamma: usize,
    events: Option<&'a mut Vec<CycleEvent>>,
}

impl<H: Hierarchy> Cycle<'_, H> {
    fn log(&mut self, e: CycleEvent) {
        if let Some(events) = &mut self.events {
            events.push(e);
        }
    }

    fn step(&mut self, l: usize) {
        self.log(CycleEvent::Step(l));
        self.h.time_step(l);
    }

    fn recurse(&mut self, l: usize) {
        self.step(l);
        if l + 1 == self.h.nlevels() {
            return;
        }
        self.transfer_down(l);
        // The coarsest level needs no repeat visits: without a further
        // restriction below it, a second visit would just re-step the
        // same problem. Classic W recursion applies γ at interior levels.
        let visits = if l + 2 == self.h.nlevels() {
            1
        } else {
            self.gamma
        };
        for _ in 0..visits {
            self.recurse(l + 1);
        }
        self.prolong_up(l);
    }

    /// Restrict state and residuals from level `l` to `l + 1` and set the
    /// coarse forcing `P = R' − R(w')`.
    fn transfer_down(&mut self, l: usize) {
        self.log(CycleEvent::Restrict(l));
        // Fresh fine-level residual (includes the fine forcing).
        self.h.eval_total_residual(l);
        let nc = self.h.owned(l + 1);

        self.h.restrict_state(l);
        let coarse = self.h.state(l + 1);
        coarse.w_ref.copy_owned_from(&coarse.w, nc);
        for c in 0..NVAR {
            coarse.w0.plane_mut(c)[..nc].fill(0.0);
        }
        self.h.restrict_residual(l);

        // R evaluated at the restricted state *without* any forcing.
        self.h.state(l + 1).forcing.fill(0.0);
        self.h.eval_total_residual(l + 1);
        let coarse = self.h.state(l + 1);
        for c in 0..NVAR {
            for ((f, &cr), &r) in coarse.forcing.plane_mut(c)[..nc]
                .iter_mut()
                .zip(&coarse.w0.plane(c)[..nc])
                .zip(&coarse.res.plane(c)[..nc])
            {
                *f = cr - r;
            }
        }
    }

    /// Interpolate the coarse-grid correction `w − w'` back to level `l`.
    fn prolong_up(&mut self, l: usize) {
        self.log(CycleEvent::Prolong(l));
        let nc = self.h.owned(l + 1);
        let coarse = self.h.state(l + 1);
        for c in 0..NVAR {
            for ((d, &a), &b) in coarse.w0.plane_mut(c)[..nc]
                .iter_mut()
                .zip(&coarse.w.plane(c)[..nc])
                .zip(&coarse.w_ref.plane(c)[..nc])
            {
                *d = a - b;
            }
        }
        self.h.prolong_correction(l);
        let nf = self.h.owned(l);
        let fine = self.h.state(l);
        for c in 0..NVAR {
            for (w, &d) in fine.w.plane_mut(c)[..nf]
                .iter_mut()
                .zip(&fine.w0.plane(c)[..nf])
            {
                *w += d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglo::Agglomeration;
    use crate::config::SolverConfig;
    use crate::dist::{DistOptions, DistSetup, DistSolver};
    use crate::multigrid::{Grids, MultigridSolver};
    use eul3d_mesh::gen::{bump_channel, BumpSpec};
    use eul3d_mesh::MeshSequence;
    use CycleEvent::*;

    fn spec() -> BumpSpec {
        BumpSpec {
            nx: 16,
            ny: 6,
            nz: 4,
            jitter: 0.1,
            ..BumpSpec::default()
        }
    }

    fn schedule<H: Hierarchy>(h: &mut H, strategy: Strategy) -> Vec<CycleEvent> {
        assert_eq!(h.nlevels(), 3);
        let mut events = Vec::new();
        cycle(h, strategy, 0, Some(&mut events));
        events
    }

    fn solver_schedule(mut mg: MultigridSolver) -> Vec<CycleEvent> {
        mg.record_events = true;
        mg.cycle();
        mg.events
    }

    /// One 3-level cycle's schedule on each of the four hierarchies.
    fn schedules(strategy: Strategy) -> Vec<(&'static str, Vec<CycleEvent>)> {
        let cfg = SolverConfig::default();
        let seq = || MeshSequence::bump_sequence(&spec(), 3);
        let setup = DistSetup::new(seq(), 2, 20, crate::env_seed(7));
        let ranks = eul3d_delta::run_spmd(2, |rank| {
            let mut s = DistSolver::build(rank, &setup, cfg, strategy, DistOptions::default());
            schedule(&mut s.hierarchy(rank), strategy)
        });
        assert_eq!(ranks.results[0], ranks.results[1], "SPMD: one schedule");
        vec![
            (
                "mesh sequence, serial",
                solver_schedule(MultigridSolver::new(seq(), cfg, strategy)),
            ),
            (
                "mesh sequence, shared",
                solver_schedule(MultigridSolver::new_shared(seq(), cfg, strategy, 2).unwrap()),
            ),
            (
                "agglomerated",
                solver_schedule(MultigridSolver::new(
                    Grids::Agglo(Agglomeration::new(bump_channel(&spec()), 3)),
                    cfg,
                    strategy,
                )),
            ),
            ("distributed, 2 ranks", ranks.results[0].clone()),
        ]
    }

    #[test]
    fn w_cycle_event_schedule_matches_figure_1() {
        // 3 levels, W-cycle: E0 R0 E1 R1 E2 P1 E1 R1 E2 P1 P0
        for (what, events) in schedules(Strategy::WCycle) {
            assert_eq!(
                events,
                vec![
                    Step(0),
                    Restrict(0),
                    Step(1),
                    Restrict(1),
                    Step(2),
                    Prolong(1),
                    Step(1),
                    Restrict(1),
                    Step(2),
                    Prolong(1),
                    Prolong(0)
                ],
                "{what}"
            );
        }
    }

    #[test]
    fn v_cycle_event_schedule_matches_figure_1() {
        // 3 levels, V-cycle: one step per level down, then corrections up.
        for (what, events) in schedules(Strategy::VCycle) {
            assert_eq!(
                events,
                vec![
                    Step(0),
                    Restrict(0),
                    Step(1),
                    Restrict(1),
                    Step(2),
                    Prolong(1),
                    Prolong(0)
                ],
                "{what}"
            );
        }
    }
}
