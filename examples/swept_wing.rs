//! A genuinely three-dimensional "wing-like" case: the bump tapers along
//! the span (`BumpSpec::taper`), so the shock strength and the flow vary
//! in z — the closest synthetic analogue of the paper's aircraft
//! configuration that the bump-channel family supports.
//!
//! ```sh
//! cargo run --release --example swept_wing
//! ```

use eul3d::mesh::gen::BumpSpec;
use eul3d::mesh::vtk::write_vtk_file;
use eul3d::mesh::MeshSequence;
use eul3d::solver::postproc::{mach_field, probe_line};
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

fn main() {
    let spec = BumpSpec {
        nx: 28,
        ny: 10,
        nz: 12,
        taper: 0.7, // bump shrinks to 30% height at the far span
        jitter: 0.12,
        ..BumpSpec::default()
    };
    let seq = MeshSequence::bump_sequence(&spec, 3);
    println!(
        "swept-wing analogue: {:?} vertices, taper {}",
        seq.meshes.iter().map(|m| m.nverts()).collect::<Vec<_>>(),
        spec.taper
    );

    // The paper's freestream: M∞ = 0.768, α = 1.116°.
    let cfg = SolverConfig {
        mach: 0.768,
        alpha_deg: 1.116,
        ..SolverConfig::default()
    };
    let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
    let hist = mg.solve(100);
    println!(
        "100 W-cycles: residual {:.3e} -> {:.3e} ({:.2} orders)",
        hist[0],
        hist.last().unwrap(),
        (hist[0] / hist.last().unwrap()).log10()
    );

    let mesh = mg.grids.fine();
    let mach = mach_field(cfg.gamma, mg.state(), mesh.nverts());

    // Spanwise variation: peak Mach near the thick root vs the thin tip.
    let span = eul3d::mesh::gen::CHANNEL_DEPTH;
    let peak_at = |z: f64| -> f64 {
        probe_line(
            mesh,
            &mach,
            eul3d::mesh::Vec3::new(0.0, 0.08, z),
            eul3d::mesh::Vec3::new(1.0, 0.08, z),
            25,
        )
        .iter()
        .map(|&(_, m)| m)
        .fold(0.0, f64::max)
    };
    let root = peak_at(0.05 * span);
    let tip = peak_at(0.95 * span);
    println!("peak surface Mach: root {root:.3} vs tip {tip:.3} (3-D relief)");
    assert!(root > tip, "the tapered bump must unload toward the tip");

    let out = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out).unwrap();
    let path = out.join("swept_wing_mach.vtk");
    write_vtk_file(&path, mesh, &[("mach", &mach)]).unwrap();
    println!("wrote {}", path.display());
}
