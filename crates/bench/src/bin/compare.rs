//! **Section 5** — Shared vs Distributed Memory: a comparison.
//!
//! Runs the same case through both machine models and reports the §5
//! claims: the C90 outperforms the Delta by roughly 2x, the Delta-512 is
//! worth roughly 5 C90 CPUs, both miss peak badly (C90 ~21%, Delta ~5%),
//! and the Delta comm/comp ratio is ~50% while the C90 rates are
//! insensitive to strategy. Also reports the §4.2 reordering ablation
//! via the cost model's unordered node rate.
//! `--ranks N` sizes the Delta (default 512).

use eul3d_bench::{
    base, configure, exit_2, finite_or_exit, phase_table, ranks_flag, RANKS_SWEEP, STRATEGY_SWEEP,
};
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::{MultigridSolver, Strategy};
use eul3d_delta::CostModel;
use eul3d_mesh::MeshSequence;
use eul3d_perf::{Comparison, CrayC90Model, TextTable};

fn main() {
    let sweeps = [STRATEGY_SWEEP, RANKS_SWEEP];
    let (mut rc, ranks) = configure(base(20, Strategy::WCycle), &sweeps, |a| {
        ranks_flag(a, &[512])
    });
    let [nranks] = ranks[..] else {
        exit_2("compare --ranks takes one rank count")
    };
    rc.nranks = nranks;
    let cray = CrayC90Model::default();
    let delta = CostModel::delta_i860();
    println!(
        "compare: bump channel nx={}, {} levels, {} cycles, C90-16 vs Delta-{}\n",
        rc.mesh.nx, rc.levels, rc.cycles, nranks
    );

    let mut table = TextTable::new(&[
        "strategy",
        "C90-16 wall",
        "C90-16 MF",
        "Delta wall",
        "Delta MF",
        "C90 adv.",
        "Delta≈CPUs",
    ]);
    let mut w_comparison = None;
    let mut w_phases = None;
    for strategy in [Strategy::SingleGrid, Strategy::VCycle, Strategy::WCycle] {
        // Shared-memory side: the real shared executor's work through
        // the C90 model (launches = colour-group loop starts).
        rc.strategy = strategy;
        let mut mg = MultigridSolver::for_run(&rc, 2).unwrap_or_else(|e| exit_2(e));
        let hist = mg.solve(rc.cycles);
        finite_or_exit(&hist, &format!("compare {} shared", strategy.label()));
        let c90 = cray.evaluate(mg.counter.flops(), mg.counter.launches(), 16);

        // Distributed side: simulated Delta.
        let seq = MeshSequence::bump_sequence(&rc.mesh, rc.levels);
        let setup = DistSetup::for_run(seq, &rc, 7).unwrap_or_else(|e| exit_2(e));
        let opts = DistOptions::for_run(&rc, 7);
        let result = run_distributed(&setup, rc.solver, strategy, rc.cycles, opts);
        finite_or_exit(
            result.history(),
            &format!("compare {} on {nranks} ranks", strategy.label()),
        );
        let b = delta.evaluate(&result.cycle_counters());

        let cmp = Comparison {
            c90_wall_s: c90.wall_clock_s,
            delta_wall_s: b.total_seconds,
            c90_mflops: c90.mflops,
            delta_mflops: b.mflops,
        };
        table.row(&[
            strategy.label().into(),
            format!("{:.1}", cmp.c90_wall_s),
            format!("{:.0}", cmp.c90_mflops),
            format!("{:.1}", cmp.delta_wall_s),
            format!("{:.0}", cmp.delta_mflops),
            format!("{:.1}x", cmp.c90_advantage()),
            format!("{:.1}", cmp.delta_in_c90_cpus()),
        ]);
        if strategy == Strategy::WCycle {
            w_comparison = Some((cmp, b));
            w_phases = Some(phase_table(&result.phase_counters()));
        }
    }
    println!("{}", table.render());

    println!("\nW-cycle per-phase breakdown (distributed, summed over ranks):");
    println!("{}", w_phases.unwrap());

    let (cmp, b) = w_comparison.unwrap();
    println!(
        "W-cycle peak fractions: C90 {:.0}% (paper ~21%), Delta {:.0}% (paper ~5%)",
        100.0 * cmp.c90_peak_fraction(),
        100.0 * cmp.delta_peak_fraction()
    );
    println!(
        "Delta comm/comp ratio (W-cycle): {:.0}% (paper: ~50% for its problem/machine size)",
        100.0 * b.comm_to_comp()
    );

    // §4.2 — node/edge reordering doubled the single-node rate; the cost
    // model exposes it as the ordered vs unordered node rate.
    let unordered = CostModel::delta_i860_unordered();
    println!(
        "\n§4.2 reordering: modeled node rate {:.1} -> {:.1} MFlops (2x, as measured in the paper);",
        unordered.mflops_per_rank,
        delta.mflops_per_rank
    );
    println!(
        "run `cargo run --release -p eul3d-bench --bin ablations` (study 9) for the measured host-cache analogue."
    );
}
