//! **Section 5** — Shared vs Distributed Memory: a comparison.
//!
//! Runs the same case through both machine models and reports the §5
//! claims: the C90 outperforms the Delta by roughly 2x, the Delta-512 is
//! worth roughly 5 C90 CPUs, both miss peak badly (C90 ~21%, Delta ~5%),
//! and the Delta comm/comp ratio is ~50% while the C90 rates are
//! insensitive to strategy. Also reports the §4.2 reordering ablation
//! via the cost model's unordered node rate.

use eul3d_bench::{finite_or_exit, CaseSpec};
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::{MultigridSolver, Strategy};
use eul3d_delta::CostModel;
use eul3d_perf::{Comparison, CrayC90Model, TextTable};

fn main() {
    let case = CaseSpec::from_env(20);
    let cfg = case.config();
    let cray = CrayC90Model::default();
    let delta = CostModel::delta_i860();
    let nranks = *case.ranks.last().unwrap_or(&512);
    println!(
        "compare: bump channel nx={}, {} levels, {} cycles, C90-16 vs Delta-{}\n",
        case.nx, case.levels, case.cycles, nranks
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
        let mut mg = MultigridSolver::new_shared(case.sequence(), cfg, strategy, 2)
            .expect("edge colourings must validate");
        let hist = mg.solve(case.cycles);
        finite_or_exit(&hist, &format!("compare {} shared", strategy.label()));
        let c90 = cray.evaluate(mg.counter.flops(), mg.counter.launches(), 16);

        // Distributed side: simulated Delta.
        let setup = DistSetup::new(case.sequence(), nranks, 40, 7);
        let result = run_distributed(&setup, cfg, strategy, case.cycles, DistOptions::default());
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
            // Sum the executor-layer phase counters over the ranks for
            // the per-phase comp/comm breakdown below.
            let mut total = eul3d_core::PhaseCounters::default();
            for p in result.phase_counters() {
                total.merge(&p);
            }
            w_phases = Some(total);
        }
    }
    println!("{}", table.render());

    println!("\nW-cycle per-phase breakdown (distributed, summed over ranks):");
    let mut pt = TextTable::new(&["phase", "flops", "launches", "messages", "bytes", "allocs"]);
    for r in w_phases.unwrap().rows() {
        pt.row(&[
            r.label.to_string(),
            format!("{:.3e}", r.flops),
            r.launches.to_string(),
            r.msgs.to_string(),
            r.bytes.to_string(),
            r.allocs.to_string(),
        ]);
    }
    println!("{}", pt.render());

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
