//! The distributed-memory workflow of §4: partition the mesh sequence
//! with recursive spectral bisection, build PARTI communication schedules
//! with the inspector, run the SPMD solver on the simulated Touchstone
//! Delta, and price the run with the machine cost model.
//!
//! ```sh
//! cargo run --release --example distributed_solve
//! ```

use eul3d::delta::{CommClass, CostModel};
use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::MeshSequence;
use eul3d::partition::{PartitionOptions, PartitionPlan};
use eul3d::solver::dist::{run_distributed, DistOptions, DistSetup};
use eul3d::solver::{SolverConfig, Strategy};

fn main() {
    let nranks = 32;
    let cycles = 20;

    // Sequential preprocessing: meshes + RSB partitions of every level.
    let spec = BumpSpec {
        nx: 24,
        ny: 9,
        nz: 7,
        jitter: 0.12,
        ..BumpSpec::default()
    };
    let seq = MeshSequence::bump_sequence(&spec, 3);
    println!(
        "levels: {:?} vertices over {nranks} ranks",
        seq.meshes.iter().map(|m| m.nverts()).collect::<Vec<_>>()
    );
    let t0 = std::time::Instant::now();
    let setup = DistSetup::new(seq, nranks, 40, 7);
    println!(
        "RSB partitioning: {:.2}s (the §2.4 bottleneck)",
        t0.elapsed().as_secs_f64()
    );
    for (l, pm) in setup.pms.iter().enumerate() {
        let edges = &setup.seq.meshes[l].edges;
        let opts = PartitionOptions::new(nranks);
        let q = PartitionPlan::from_assignment(pm.owner.clone(), edges, &opts, 0);
        println!(
            "  level {l}: cut {:.1}% of edges, imbalance {:.2}, {} total ghosts",
            100.0 * (q.edge_cut as f64 / edges.len() as f64),
            q.balance,
            pm.total_ghosts()
        );
    }

    // SPMD solve on the simulated machine.
    let cfg = SolverConfig {
        mach: 0.675,
        ..SolverConfig::default()
    };
    let t1 = std::time::Instant::now();
    let result = run_distributed(
        &setup,
        cfg,
        Strategy::VCycle,
        cycles,
        DistOptions::default(),
    );
    println!(
        "\n{cycles} V-cycles on {nranks} simulated ranks in {:.2}s host time",
        t1.elapsed().as_secs_f64()
    );
    println!(
        "residual {:.3e} -> {:.3e}",
        result.history()[0],
        result.history().last().unwrap()
    );

    // Price the run like Table 2.
    let model = CostModel::delta_i860();
    let b = model.evaluate(&result.cycle_counters());
    println!("\nmodeled Delta cost (per {} cycles):", cycles);
    println!(
        "  communication {:.2}s  computation {:.2}s  total {:.2}s",
        b.comm_seconds, b.comp_seconds, b.total_seconds
    );
    println!(
        "  machine rate {:.1} MFlops, comm/comp {:.2}",
        b.mflops,
        b.comm_to_comp()
    );
    println!(
        "  inter-grid transfer share of communication: {:.1}%",
        100.0 * b.class(CommClass::Transfer) / b.comm_seconds
    );
}
