//! Quickstart: solve subsonic flow over a bump in a channel with the
//! sequential EUL3D solver on one grid (the single-grid strategy of the
//! multigrid driver, with no coarse meshes).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use eul3d::mesh::gen::{bump_channel, BumpSpec};
use eul3d::mesh::MeshSequence;
use eul3d::solver::postproc::mach_field;
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

fn main() {
    // 1. Generate an unstructured tetrahedral mesh (a jittered split-hex
    //    channel with a 10%-chord bump on the floor).
    let spec = BumpSpec {
        nx: 20,
        ny: 8,
        nz: 6,
        jitter: 0.12,
        ..BumpSpec::default()
    };
    let mesh = bump_channel(&spec);
    println!(
        "mesh: {} vertices, {} edges, {} tets, {} boundary faces",
        mesh.nverts(),
        mesh.nedges(),
        mesh.ntets(),
        mesh.bfaces.len()
    );

    // 2. Configure the flow: Mach 0.5, zero incidence.
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };

    // 3. Time-march to steady state with the five-stage scheme.
    let one_level = MeshSequence::from_meshes(vec![mesh]);
    let mut solver = MultigridSolver::new(one_level, cfg, Strategy::SingleGrid);
    let history = solver.solve(150);
    println!(
        "residual: {:.3e} -> {:.3e} ({:.2} orders in {} cycles)",
        history[0],
        history.last().unwrap(),
        (history[0] / history.last().unwrap()).log10(),
        history.len()
    );

    // 4. Post-process: peak Mach number over the bump.
    let mach = mach_field(cfg.gamma, solver.state(), solver.levels[0].n);
    let peak = mach.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "peak local Mach number: {peak:.3} (freestream {})",
        cfg.mach
    );
    println!("flops counted: {:.3e}", solver.counter.flops());
}
