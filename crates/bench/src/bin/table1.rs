//! **Tables 1a/1b/1c** — Cray Y-MP C90 speeds for EUL3D running 100
//! cycles of each strategy at 1, 2, 4, 8 and 16 CPUs: wall clock, CPU
//! seconds, MFlops.
//!
//! The decomposition is real: the run below executes the actual solver
//! (on the shared-memory executor, which validates the §3.1 colouring
//! and charges every edge loop as that autotasking decomposition),
//! counting operations and colour-group loop launches. The C90 machine model prices that measured work at
//! calibrated 1992 rates twice:
//!
//! * **at measured scale** — our CI-size mesh as-is (short vectors, so
//!   slave start-up overhead is visible, exactly as §3.1 warns for small
//!   subgroup lengths);
//! * **at paper scale** — per-cycle flops extrapolated linearly to the
//!   804,056-node mesh (per-cycle *launch counts* are mesh-size
//!   independent, so they are kept), which is where the paper's numbers
//!   live and where the Table-1 shape targets apply: CPU seconds inflate
//!   ~15-20% at 16 CPUs, wall clock drops ~12x (>99% parallel), all
//!   three strategies reach similar MFlops.

use eul3d_bench::{base, configure, exit_2, finite_or_exit, out_dir, write_csv, STRATEGY_SWEEP};
use eul3d_core::{MultigridSolver, Strategy};
use eul3d_perf::{CrayC90Model, TextTable};

const PAPER_FINE_NODES: f64 = 804_056.0;

fn print_sweep(model: &CrayC90Model, flops: f64, launches: u64) -> Vec<Vec<String>> {
    let mut t = TextTable::new(&["CPUs", "Wall Clock", "CPU sec.", "MFlops"]);
    let mut rows = Vec::new();
    for row in model.sweep(flops, launches) {
        t.row(&[
            row.cpus.to_string(),
            format!("{:.1}", row.wall_clock_s),
            format!("{:.1}", row.cpu_s),
            format!("{:.0}", row.mflops),
        ]);
        rows.push(vec![
            row.cpus.to_string(),
            format!("{:.3}", row.wall_clock_s),
            format!("{:.3}", row.cpu_s),
            format!("{:.1}", row.mflops),
        ]);
    }
    println!("{}", t.render());
    let r1 = model.evaluate(flops, launches, 1);
    let r16 = model.evaluate(flops, launches, 16);
    println!(
        "  speedup at 16 CPUs: {:.1}x (paper: 12.3-12.4x); CPU-time inflation: {:.0}% (paper: ~16-24%)\n",
        r1.wall_clock_s / r16.wall_clock_s,
        100.0 * (r16.cpu_s / r1.cpu_s - 1.0)
    );
    rows
}

fn main() {
    let (mut rc, ()) = configure(base(100, Strategy::WCycle), &[STRATEGY_SWEEP], |_| ());
    let model = CrayC90Model::default();
    println!(
        "table1: C90 model over measured work; bump channel nx={}, {} levels, {} cycles, M={}",
        rc.mesh.nx, rc.levels, rc.cycles, rc.solver.mach
    );
    println!(
        "model: {} MFlops/CPU, {:.1}% serial, {:.1}% multitask overhead/CPU\n",
        model.cpu_mflops,
        100.0 * model.serial_fraction,
        100.0 * model.multitask_overhead
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (label, strategy) in [
        ("Table 1a: single grid", Strategy::SingleGrid),
        ("Table 1b: V cycle", Strategy::VCycle),
        ("Table 1c: W cycle", Strategy::WCycle),
    ] {
        // Run the real shared-memory multigrid (§3.2): launch counts come
        // straight from the executor, which charges the paper's coloured
        // sweep (one launch per colour group).
        rc.strategy = strategy;
        let mut mg = MultigridSolver::for_run(&rc, 2).unwrap_or_else(|e| exit_2(e));
        let fine = mg.grids.fine();
        let fine_nodes = fine.nverts() as f64;
        let fine_edges = fine.nedges();
        let ncolors = eul3d_core::shared::SharedExecutor::new(fine, 2)
            .expect("edge colouring must validate")
            .ncolors;
        let t0 = std::time::Instant::now();
        let hist = mg.solve(rc.cycles);
        let host = t0.elapsed().as_secs_f64();
        finite_or_exit(&hist, &format!("table1 {label}"));
        // Normalize to 100 cycles like the paper's tables.
        let norm = 100.0 / rc.cycles as f64;
        let flops = mg.counter.flops() * norm;
        let launches = (mg.counter.launches() as f64 * norm) as u64;

        println!(
            "{label}  ({ncolors} fine-grid colour groups, {:.2e} flops/100cyc, host {:.1}s, residual -> {:.2e})",
            flops,
            host,
            hist.last().unwrap()
        );
        println!(
            "  subgroup vector length at 16 CPUs: {} edges (paper: ~2000 at 128 CPUs on 5.5M edges)",
            fine_edges / ncolors / 16
        );

        // Per-phase computation breakdown from the executor layer.
        let mut phases = TextTable::new(&["phase", "flops", "launches"]);
        for r in mg.counter.rows() {
            phases.row(&[
                r.label.to_string(),
                format!("{:.3e}", r.flops),
                r.launches.to_string(),
            ]);
        }
        println!("{}", phases.render());

        println!("-- at measured scale ({} fine nodes):", fine_nodes as u64);
        print_sweep(&model, flops, launches);

        let scale = PAPER_FINE_NODES / fine_nodes;
        println!(
            "-- extrapolated to paper scale ({} fine nodes, x{scale:.0} flops, same launches):",
            PAPER_FINE_NODES as u64
        );
        let rows = print_sweep(&model, flops * scale, launches);
        for r in rows {
            let mut row = vec![strategy.label().to_string()];
            row.extend(r);
            csv_rows.push(row);
        }
    }

    let path = out_dir().join("table1_c90.csv");
    write_csv(
        &path,
        &["strategy", "cpus", "wall_clock_s", "cpu_s", "mflops"],
        &csv_rows,
    );
    println!("wrote {}", path.display());
    println!("\nPaper reference rows (100 cycles, 804k-node mesh):");
    println!("  1a single grid: 1 CPU 1916s/252MF ... 16 CPUs 156s/3252MF");
    println!("  1b V cycle:     1 CPU 2586s/247MF ... 16 CPUs 223s/3161MF");
    println!("  1c W cycle:     1 CPU 3041s/249MF ... 16 CPUs 268s/3136MF");
}
