//! The paper's headline workflow: transonic flow solved with FAS
//! multigrid on a sequence of *unrelated* meshes, W-cycle strategy —
//! "solution times are currently fast enough to effectively use this
//! code in a design loop".
//!
//! ```sh
//! cargo run --release --example transonic_bump
//! ```

use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::MeshSequence;
use eul3d::solver::postproc::{crosses, mach_field, wall_pressure_force};
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

fn main() {
    // Preprocessing (§2.4): generate the fine mesh and three
    // independently generated coarser meshes, and build the
    // 4-address/4-weight inter-grid operators by graph-traversal search.
    let spec = BumpSpec {
        nx: 32,
        ny: 12,
        nz: 9,
        jitter: 0.12,
        ..BumpSpec::default()
    };
    let t0 = std::time::Instant::now();
    let seq = MeshSequence::bump_sequence(&spec, 4);
    println!(
        "multigrid sequence: {:?} vertices (preprocessing {:.2}s)",
        seq.meshes.iter().map(|m| m.nverts()).collect::<Vec<_>>(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "coarse-grid storage overhead: {:.0}% of the fine grid",
        100.0 * seq.coarse_overhead_fraction()
    );

    // Transonic conditions (the paper runs M∞ = 0.768 over an aircraft;
    // the channel bump develops its supersonic pocket around 0.675).
    let cfg = SolverConfig {
        mach: 0.675,
        ..SolverConfig::default()
    };
    let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);

    let t1 = std::time::Instant::now();
    let history = mg.solve(100);
    println!(
        "100 W-cycles in {:.2}s: residual {:.3e} -> {:.3e} ({:.2} orders)",
        t1.elapsed().as_secs_f64(),
        history[0],
        history.last().unwrap(),
        (history[0] / history.last().unwrap()).log10()
    );

    let mesh = mg.grids.fine();
    let mach = mach_field(cfg.gamma, mg.state(), mesh.nverts());
    let peak = mach.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "peak Mach {peak:.3}; supersonic pocket: {}",
        crosses(&mach, 1.0)
    );

    // Integrated pressure force on the walls (x-component = wave drag
    // contribution of the bump).
    let force = wall_pressure_force(mesh, cfg.gamma, mg.state());
    println!(
        "wall pressure force: ({:+.4}, {:+.4}, {:+.4})",
        force.x, force.y, force.z
    );
}
