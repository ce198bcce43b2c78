//! **Figure 1** — Multigrid V and W cycles: "Euler time steps are
//! depicted by E, interpolations are depicted by I."
//!
//! Prints the exact event schedule executed by the solver for 3-, 4- and
//! 5-level sequences, which can be checked visually against the paper's
//! diagrams.

use eul3d_bench::finite_or_exit;
use eul3d_core::multigrid::CycleEvent;
use eul3d_core::{MultigridSolver, SolverConfig, Strategy};
use eul3d_mesh::MeshSequence;

fn render(events: &[CycleEvent], nlevels: usize) -> String {
    let mut out = String::new();
    for ev in events {
        match ev {
            CycleEvent::Step(l) => {
                out.push_str(&format!("{}E{}\n", "  ".repeat(*l), l));
            }
            CycleEvent::Restrict(l) => {
                out.push_str(&format!(
                    "{} \\ restrict {}->{}\n",
                    "  ".repeat(*l),
                    l,
                    l + 1
                ));
            }
            CycleEvent::Prolong(l) => {
                out.push_str(&format!("{} / I {}->{}\n", "  ".repeat(*l), l + 1, l));
            }
        }
    }
    let steps = events
        .iter()
        .filter(|e| matches!(e, CycleEvent::Step(_)))
        .count();
    out.push_str(&format!("  ({} E steps over {} levels)\n", steps, nlevels));
    out
}

fn main() {
    for levels in [3usize, 4, 5] {
        // The schedule depends only on level count; use a tiny box.
        for strategy in [Strategy::VCycle, Strategy::WCycle] {
            let seq = MeshSequence::box_sequence(2usize.pow(levels as u32), levels, 0.0, 0);
            let mut mg = MultigridSolver::new(seq, SolverConfig::default(), strategy);
            mg.record_events = true;
            let residual = mg.cycle();
            finite_or_exit(
                &[residual],
                &format!("fig1 {levels} levels {}", strategy.label()),
            );
            println!("=== {} levels, {} ===", levels, strategy.label());
            println!("{}", render(&mg.events, levels));
        }
    }
    println!("Compare with Figure 1 of the paper: the V-cycle performs one E per");
    println!("level; the W-cycle recursively re-enters each coarse level twice.");
}
