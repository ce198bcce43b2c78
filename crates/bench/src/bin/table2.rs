//! **Tables 2a/2b/2c** — Touchstone Delta speeds for EUL3D: seconds per
//! 100 cycles split into communication and computation, plus MFlops, at
//! 256 and 512 nodes for the single-grid, V-cycle and W-cycle strategies.
//!
//! Everything but the clock is real: the mesh is partitioned (flat RSB,
//! the paper's method, unless `partition.method` names another), each
//! rank runs the actual solver on the simulated Delta with PARTI
//! schedules, and every message and flop is counted. The i860/network
//! cost model then converts the counts to seconds. Shape targets:
//! single grid has the highest MFlops, V loses ~10-15%, W ~25-30%
//! (coarse grids raise communication/computation); 512 nodes beat 256 in
//! rate but at lower efficiency; multigrid still wins time-to-solution.
//!
//! Flags: `--ranks a,b,…` (default 256,512); `--no-incremental`
//! re-gathers flow variables before every loop (disables the §4.3
//! optimization). The partitioner is the case's `partition.method`
//! (`--set partition.method=rcb`, or a `[partition]` section), like any
//! other key.

use eul3d_bench::{
    base, configure, exit_2, finite_or_exit, out_dir, phase_table, ranks_flag, write_csv,
    RANKS_SWEEP, STRATEGY_SWEEP,
};
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::Strategy;
use eul3d_delta::{CommClass, CostModel};
use eul3d_mesh::MeshSequence;
use eul3d_perf::TextTable;

fn main() {
    let sweeps = [STRATEGY_SWEEP, RANKS_SWEEP];
    let (mut rc, (ranks, refetch)) = configure(base(25, Strategy::WCycle), &sweeps, |a| {
        (ranks_flag(a, &[256, 512]), a.has("no-incremental"))
    });
    let method = rc.partition.unwrap_or_default().method;
    let model = CostModel::delta_i860();
    // One partition per machine size, shared by the three strategies (the
    // setup reads no strategy); a size the partitioner refuses exits 2
    // before anything is printed.
    let setups: Vec<DistSetup> = ranks
        .iter()
        .map(|&nranks| {
            rc.nranks = nranks;
            let seq = MeshSequence::bump_sequence(&rc.mesh, rc.levels);
            DistSetup::for_run(seq, &rc, 7).unwrap_or_else(|e| exit_2(e))
        })
        .collect();
    println!(
        "table2: simulated Delta; bump channel nx={}, {} levels, {} cycles (normalized to 100), M={}, ranks {:?}, partitioner {}{}",
        rc.mesh.nx,
        rc.levels,
        rc.cycles,
        rc.solver.mach,
        ranks,
        method.label(),
        if refetch { " [no-incremental ablation]" } else { "" }
    );
    println!(
        "model: {} MFlops/node, {} µs latency, {} MB/s\n",
        model.mflops_per_rank,
        model.latency_s * 1e6,
        model.bandwidth_bytes_per_s / 1e6
    );

    let norm = 100.0 / rc.cycles as f64;
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (label, strategy) in [
        ("Table 2a: single grid", Strategy::SingleGrid),
        ("Table 2b: V cycle", Strategy::VCycle),
        ("Table 2c: W cycle", Strategy::WCycle),
    ] {
        println!("{label}");
        let mut t = TextTable::new(&[
            "Nodes",
            "Communication",
            "Computation",
            "Total",
            "MFlops",
            "comm/comp",
            "intergrid%",
        ]);
        for (&nranks, setup) in ranks.iter().zip(&setups) {
            let opts = DistOptions {
                refetch_per_loop: refetch,
                ..DistOptions::for_run(&rc, 7)
            };
            let t0 = std::time::Instant::now();
            let result = run_distributed(setup, rc.solver, strategy, rc.cycles, opts);
            let host = t0.elapsed().as_secs_f64();
            finite_or_exit(
                result.history(),
                &format!("table2 {} on {nranks} ranks", strategy.label()),
            );

            let cyc = result.cycle_counters();
            let b = model.evaluate(&cyc);
            let comm = b.comm_seconds * norm;
            let comp = b.comp_seconds * norm;
            let transfer_frac = if b.comm_seconds > 0.0 {
                100.0 * b.class(CommClass::Transfer) / b.comm_seconds
            } else {
                0.0
            };
            t.row(&[
                nranks.to_string(),
                format!("{comm:.1}"),
                format!("{comp:.1}"),
                format!("{:.1}", comm + comp),
                format!("{:.0}", b.mflops),
                format!("{:.2}", b.comm_to_comp()),
                format!("{transfer_frac:.1}"),
            ]);
            csv_rows.push(vec![
                strategy.label().into(),
                nranks.to_string(),
                format!("{comm:.3}"),
                format!("{comp:.3}"),
                format!("{:.3}", comm + comp),
                format!("{:.1}", b.mflops),
            ]);
            // Setup (inspector + schedule construction) cost, reported
            // separately like the paper's amortized preprocessing.
            let sb = model.evaluate(&result.setup_counters());
            eprintln!(
                "    [{} nodes: host {:.1}s; inspector/setup comm {:.1}s modeled; residual -> {:.2e}]",
                nranks,
                host,
                sb.comm_seconds,
                result.history().last().unwrap()
            );

            // Executor-layer per-phase comp/comm breakdown at the largest
            // machine size.
            if Some(&nranks) == ranks.last() {
                println!("  per-phase breakdown at {nranks} nodes (summed over ranks):");
                println!("{}", phase_table(&result.phase_counters()));
            }
        }
        println!("{}", t.render());
    }

    let path = out_dir().join("table2_delta.csv");
    write_csv(
        &path,
        &[
            "strategy",
            "nodes",
            "comm_s_per_100",
            "comp_s_per_100",
            "total_s_per_100",
            "mflops",
        ],
        &csv_rows,
    );
    println!("wrote {}", path.display());
    println!("\nPaper reference rows (per 100 cycles, 804k-node mesh):");
    println!("  2a single grid: 256 nodes 121/326/448s 778MF; 512 nodes 95/170/265s 1496MF");
    println!("  2b V cycle:     256 nodes 536/427/963s 680MF; 512 nodes 374/231/605s 1252MF");
    println!("  2c W cycle:     256 nodes 787/596/1383s 573MF; 512 nodes 565/278/843s 1030MF");
}
