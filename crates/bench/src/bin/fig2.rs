//! **Figure 2** — Convergence history for single grid and for V and W
//! multigrid cycles: residual vs cycle, plus the §3.2 time-to-solution
//! claims (W converges ~6 orders in 100 cycles on the paper's mesh; the
//! single grid needs ~an hour where W needs 242 s).
//!
//! Writes `fig2_convergence.csv` (cycle, single_grid, v_cycle, w_cycle)
//! and prints a summary of orders-of-magnitude reduction and the
//! single-grid/multigrid speed ratio.

use eul3d_bench::{
    base, configure, cycles_to_orders, exit_2, finite_or_exit, out_dir, write_csv, STRATEGY_SWEEP,
};
use eul3d_core::{MultigridSolver, Strategy};

fn main() {
    let (mut rc, ()) = configure(base(100, Strategy::WCycle), &[STRATEGY_SWEEP], |_| ());
    println!(
        "fig2: bump channel, M={}, {} levels, nx={}, {} MG cycles",
        rc.solver.mach, rc.levels, rc.mesh.nx, rc.cycles
    );

    // The paper plots 500 cycles for the single grid vs 100 for MG.
    let sg_cycles = rc.cycles * 5;
    let mut histories: Vec<(Strategy, Vec<f64>, f64)> = Vec::new();
    for strategy in [Strategy::SingleGrid, Strategy::VCycle, Strategy::WCycle] {
        rc.strategy = strategy;
        let mut mg = MultigridSolver::for_run(&rc, 0).unwrap_or_else(|e| exit_2(e));
        if histories.is_empty() {
            println!(
                "  levels: {:?} vertices",
                mg.levels.iter().map(|l| l.n).collect::<Vec<_>>()
            );
        }
        let cycles = if strategy == Strategy::SingleGrid {
            sg_cycles
        } else {
            rc.cycles
        };
        let t0 = std::time::Instant::now();
        let hist = mg.solve(cycles);
        let dt = t0.elapsed().as_secs_f64();
        finite_or_exit(&hist, &format!("fig2 {}", strategy.label()));
        println!(
            "  {:12} {:4} cycles: residual {:.3e} -> {:.3e} ({:.2} orders), {:.2e} flops, {:.1}s host",
            strategy.label(),
            cycles,
            hist[0],
            hist.last().unwrap(),
            (hist[0] / hist.last().unwrap()).log10(),
            mg.counter.flops(),
            dt
        );
        histories.push((strategy, hist, mg.counter.flops()));
    }

    // CSV (ragged histories padded with empty cells).
    let maxlen = histories.iter().map(|(_, h, _)| h.len()).max().unwrap();
    let rows: Vec<Vec<String>> = (0..maxlen)
        .map(|c| {
            let mut row = vec![c.to_string()];
            for (_, h, _) in &histories {
                row.push(h.get(c).map(|r| format!("{r:.6e}")).unwrap_or_default());
            }
            row
        })
        .collect();
    let path = out_dir().join("fig2_convergence.csv");
    write_csv(
        &path,
        &["cycle", "single_grid", "v_cycle", "w_cycle"],
        &rows,
    );
    println!("wrote {}", path.display());

    // Headline shape: cycles to reach a fixed reduction.
    let orders = 2.5;
    println!("\ncycles to {orders} orders of residual reduction:");
    let mut per_cycle_flops = Vec::new();
    for (strategy, hist, flops) in &histories {
        let c = cycles_to_orders(hist, orders);
        per_cycle_flops.push(flops / hist.len() as f64);
        match c {
            Some(c) => println!("  {:12} {:.1} cycles", strategy.label(), c),
            None => println!(
                "  {:12} not reached in {} cycles (last {:.2} orders)",
                strategy.label(),
                hist.len(),
                (hist[0] / hist.last().unwrap()).log10()
            ),
        }
    }
    // Work-normalized comparison (the paper's W-cycle costs ~1.9x a
    // single-grid cycle but converges ~10x faster).
    let sg = &histories[0];
    let w = &histories[2];
    let sg_rate = (sg.1[0] / sg.1.last().unwrap()).log10() / sg.2;
    let w_rate = (w.1[0] / w.1.last().unwrap()).log10() / w.2;
    println!(
        "\nwork efficiency (orders per flop), W-cycle / single grid: {:.1}x",
        w_rate / sg_rate
    );
    println!(
        "W-cycle flops per cycle / single-grid flops per cycle: {:.2} (paper: ~1.9)",
        per_cycle_flops[2] / per_cycle_flops[0]
    );
}
