//! Node-count scaling sweep — the §5 discussion quantified: "[the
//! communication-to-computation ratio] varies significantly with the
//! size of the problem, the number of processors employed, and the
//! particular solution strategy chosen."
//!
//! Runs the distributed solver at a geometric ladder of rank counts and
//! reports modeled comm/comp/total seconds, MFlops, parallel efficiency
//! and the comm/comp ratio; writes `scaling.csv`.

use eul3d_bench::{finite_or_exit, write_csv, CaseSpec};
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::Strategy;
use eul3d_delta::CostModel;
use eul3d_perf::TextTable;

fn main() {
    let case = CaseSpec::from_env(10);
    let cfg = case.config();
    let model = CostModel::delta_i860();
    let ladder: Vec<usize> = std::env::var("EUL3D_RANKS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![4, 8, 16, 32, 64, 128, 256, 512]);
    let strategy = Strategy::VCycle;
    println!(
        "scaling: bump nx={}, {} levels, {} cycles, {} — ranks {:?}\n",
        case.nx,
        case.levels,
        case.cycles,
        strategy.label(),
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
        let seq = case.sequence();
        let setup = DistSetup::new(seq, nranks, 40, 7);
        let r = run_distributed(&setup, cfg, strategy, case.cycles, DistOptions::default());
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
    let path = case.out_dir().join("scaling.csv");
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
    println!("paper describes; a larger EUL3D_NX pushes the crossover right.");
}
