//! Node-count scaling sweep — the §5 discussion quantified: "[the
//! communication-to-computation ratio] varies significantly with the
//! size of the problem, the number of processors employed, and the
//! particular solution strategy chosen."
//!
//! Runs the distributed solver at a geometric ladder of rank counts and
//! reports modeled comm/comp/total seconds, MFlops, parallel efficiency
//! and the comm/comp ratio; writes `scaling.csv`.
//! `--ranks a,b,…` sets the ladder (default 4 to 512 by doubling).

use eul3d_bench::{
    base, configure, exit_2, finite_or_exit, out_dir, ranks_flag, write_csv, RANKS_SWEEP,
};
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::Strategy;
use eul3d_delta::CostModel;
use eul3d_mesh::MeshSequence;
use eul3d_perf::TextTable;

fn main() {
    let ladder = |a: &_| ranks_flag(a, &[4, 8, 16, 32, 64, 128, 256, 512]);
    let (mut rc, ladder) = configure(base(10, Strategy::VCycle), &[RANKS_SWEEP], ladder);
    let model = CostModel::delta_i860();
    println!(
        "scaling: bump nx={}, {} levels, {} cycles, {} — ranks {:?}\n",
        rc.mesh.nx,
        rc.levels,
        rc.cycles,
        rc.strategy.label(),
        ladder
    );

    let mut t = TextTable::new(&[
        "Nodes",
        "comm s",
        "comp s",
        "total s",
        "MFlops",
        "efficiency %",
        "comm/comp",
    ]);
    let mut csv = Vec::new();
    let mut base: Option<(usize, f64)> = None;
    for &nranks in &ladder {
        rc.nranks = nranks;
        let seq = MeshSequence::bump_sequence(&rc.mesh, rc.levels);
        let setup = DistSetup::for_run(seq, &rc, 7).unwrap_or_else(|e| exit_2(e));
        let opts = DistOptions::for_run(&rc, 7);
        let r = run_distributed(&setup, rc.solver, rc.strategy, rc.cycles, opts);
        finite_or_exit(r.history(), &format!("scaling on {nranks} ranks"));
        let b = model.evaluate(&r.cycle_counters());
        let (n0, t0) = *base.get_or_insert((nranks, b.total_seconds));
        let efficiency = 100.0 * (t0 * n0 as f64) / (b.total_seconds * nranks as f64);
        t.row(&[
            nranks.to_string(),
            format!("{:.2}", b.comm_seconds),
            format!("{:.2}", b.comp_seconds),
            format!("{:.2}", b.total_seconds),
            format!("{:.0}", b.mflops),
            format!("{efficiency:.0}"),
            format!("{:.2}", b.comm_to_comp()),
        ]);
        csv.push(vec![
            nranks.to_string(),
            format!("{:.4}", b.comm_seconds),
            format!("{:.4}", b.comp_seconds),
            format!("{:.4}", b.total_seconds),
            format!("{:.1}", b.mflops),
            format!("{efficiency:.2}"),
            format!("{:.4}", b.comm_to_comp()),
        ]);
    }
    println!("{}", t.render());
    let path = out_dir().join("scaling.csv");
    write_csv(
        &path,
        &[
            "nodes",
            "comm_s",
            "comp_s",
            "total_s",
            "mflops",
            "efficiency_pct",
            "comm_to_comp",
        ],
        &csv,
    );
    println!("wrote {}", path.display());
    println!("\nExpect: total MFlops grow with nodes while efficiency falls and");
    println!("comm/comp climbs — the fixed-size (strong-scaling) regime the");
    println!("paper describes; a larger --nx pushes the crossover right.");
}
