//! **Tables 2a/2b/2c** — Touchstone Delta speeds for EUL3D: seconds per
//! 100 cycles split into communication and computation, plus MFlops, at
//! 256 and 512 nodes for the single-grid, V-cycle and W-cycle strategies.
//!
//! Everything but the clock is real: the mesh is RSB-partitioned, each
//! rank runs the actual solver on the simulated Delta with PARTI
//! schedules, and every message and flop is counted. The i860/network
//! cost model then converts the counts to seconds. Shape targets:
//! single grid has the highest MFlops, V loses ~10-15%, W ~25-30%
//! (coarse grids raise communication/computation); 512 nodes beat 256 in
//! rate but at lower efficiency; multigrid still wins time-to-solution.
//!
//! Flags (env): `EUL3D_NO_INCR=1` re-gathers flow variables before every
//! loop (disables the §4.3 optimization); `EUL3D_PART=rsb|rcb|random|rsb+kl|prcb`
//! selects the partitioner (default rsb).

use eul3d_bench::{finite_or_exit, write_csv, CaseSpec};
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::Strategy;
use eul3d_delta::{CommClass, CostModel};
use eul3d_mesh::TetMesh;
use eul3d_perf::TextTable;

/// Build the distributed setup with the selected partitioner.
fn make_setup(seq: eul3d_mesh::MeshSequence, nranks: usize, which: &str) -> DistSetup {
    match which {
        "rcb" => DistSetup::with_partitioner(seq, nranks, |m: &TetMesh| {
            eul3d_partition::rcb_partition(&m.coords, nranks)
        }),
        "random" => DistSetup::with_partitioner(seq, nranks, |m: &TetMesh| {
            eul3d_partition::random_partition(m.nverts(), nranks, 99)
        }),
        "rsb+kl" => DistSetup::with_partitioner(seq, nranks, |m: &TetMesh| {
            use eul3d_partition::{FlatRsb, PartitionOptions, Partitioner};
            let opts = PartitionOptions::new(nranks).lanczos_iters(40).seed(7);
            let mut parts = FlatRsb
                .partition(m.nverts(), &m.edges, &opts)
                .unwrap()
                .assignment;
            eul3d_partition::kl_refine(m.nverts(), &m.edges, &mut parts, nranks, 1.06, 6);
            parts
        }),
        "prcb" => DistSetup::with_partitioner(seq, nranks, |m: &TetMesh| {
            eul3d_partition::parallel_rcb(&m.coords, nranks.next_power_of_two(), nranks)
                .into_iter()
                .map(|p| p.min(nranks as u32 - 1))
                .collect()
        }),
        _ => DistSetup::new(seq, nranks, 40, 7),
    }
}

fn main() {
    let mut case = CaseSpec::from_env(25);
    // CI default is a smaller machine; the paper's node counts work too
    // (EUL3D_RANKS=256,512) and are the default.
    let cfg = case.config();
    let model = CostModel::delta_i860();
    let refetch = std::env::var("EUL3D_NO_INCR").is_ok();
    let partitioner = std::env::var("EUL3D_PART").unwrap_or_else(|_| "rsb".into());
    println!(
        "table2: simulated Delta; bump channel nx={}, {} levels, {} cycles (normalized to 100), M={}, ranks {:?}, partitioner {}{}",
        case.nx,
        case.levels,
        case.cycles,
        cfg.mach,
        case.ranks,
        partitioner,
        if refetch { " [no-incremental ablation]" } else { "" }
    );
    println!(
        "model: {} MFlops/node, {} µs latency, {} MB/s\n",
        model.mflops_per_rank,
        model.latency_s * 1e6,
        model.bandwidth_bytes_per_s / 1e6
    );

    let norm = 100.0 / case.cycles as f64;
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let ranks = std::mem::take(&mut case.ranks);
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
        for &nranks in &ranks {
            let seq = case.sequence();
            let setup = make_setup(seq, nranks, &partitioner);
            let opts = DistOptions {
                refetch_per_loop: refetch,
                ..DistOptions::default()
            };
            let t0 = std::time::Instant::now();
            let result = run_distributed(&setup, cfg, strategy, case.cycles, opts);
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
                let mut total = eul3d_core::PhaseCounters::default();
                for p in result.phase_counters() {
                    total.merge(&p);
                }
                let mut pt =
                    TextTable::new(&["phase", "flops", "launches", "messages", "bytes", "allocs"]);
                for r in total.rows() {
                    pt.row(&[
                        r.label.to_string(),
                        format!("{:.3e}", r.flops),
                        r.launches.to_string(),
                        r.msgs.to_string(),
                        r.bytes.to_string(),
                        r.allocs.to_string(),
                    ]);
                }
                println!("  per-phase breakdown at {nranks} nodes (summed over ranks):");
                println!("{}", pt.render());
            }
        }
        println!("{}", t.render());
    }

    let path = CaseSpec::from_env(25).out_dir().join("table2_delta.csv");
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
