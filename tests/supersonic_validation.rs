//! Quantitative validation against exact compressible-flow theory: the
//! oblique shock over a supersonic compression ramp. (The full
//! verification sweep lives in `cargo run -p eul3d-bench --bin
//! validation`; this test pins the headline number in CI.)

use eul3d::mesh::gen::{wedge_channel, WedgeSpec};
use eul3d::mesh::Vec3;
use eul3d::mesh::{MeshSequence, TetMesh};
use eul3d::solver::gas::oblique_shock;
use eul3d::solver::postproc::pressure_field;
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

fn single_grid(mesh: TetMesh, cfg: SolverConfig) -> MultigridSolver {
    MultigridSolver::new(
        MeshSequence::from_meshes(vec![mesh]),
        cfg,
        Strategy::SingleGrid,
    )
}

fn nearest(mesh: &TetMesh, pt: Vec3) -> usize {
    mesh.coords
        .iter()
        .enumerate()
        .map(|(i, &c)| (i, (c - pt).norm_sq()))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0
}

#[test]
fn oblique_shock_pressure_ratio_matches_theory() {
    let cfg = SolverConfig {
        mach: 2.0,
        cfl: 2.0,
        ..SolverConfig::default()
    };
    let spec = WedgeSpec {
        nx: 24,
        ny: 10,
        nz: 3,
        ..WedgeSpec::default()
    };
    let mesh = wedge_channel(&spec);
    let mut s = single_grid(mesh, cfg);
    let hist = s.solve(250);
    assert!(
        hist.last().unwrap() < &(hist[0] * 1e-2),
        "wedge flow must converge: {:?}",
        (hist[0], hist.last().unwrap())
    );

    let (_beta, pr_exact, _m2) = oblique_shock(cfg.gamma, 2.0, spec.angle_deg).unwrap();
    let p = pressure_field(cfg.gamma, s.state(), s.levels[0].n);
    let p_inf = 1.0 / cfg.gamma;

    // Behind the shock the pressure ratio must match theory within a few
    // percent even on this coarse mesh.
    let behind = p[nearest(s.grids.fine(), Vec3::new(0.9, 0.3, 0.2))] / p_inf;
    assert!(
        (behind / pr_exact - 1.0).abs() < 0.05,
        "post-shock p/p∞ {behind:.4} vs exact {pr_exact:.4}"
    );

    // Ahead of the shock the flow is undisturbed (supersonic upstream
    // influence is impossible).
    let ahead = p[nearest(s.grids.fine(), Vec3::new(-0.3, 0.5, 0.2))] / p_inf;
    assert!(
        (ahead - 1.0).abs() < 0.02,
        "pre-shock p/p∞ {ahead:.4} must stay freestream"
    );
}

#[test]
fn supersonic_outflow_is_one_sided() {
    // At M=2 the far-field outlet must not reflect: the characteristic
    // BC copies the interior state for supersonic outflow, so a
    // converged uniform-duct flow at M=2 stays exactly uniform.
    let cfg = SolverConfig {
        mach: 2.0,
        cfl: 2.0,
        ..SolverConfig::default()
    };
    let spec = WedgeSpec {
        nx: 16,
        ny: 8,
        nz: 3,
        angle_deg: 0.0,
        ..WedgeSpec::default()
    };
    let mesh = wedge_channel(&spec); // 0° ramp = straight duct
    let mut s = single_grid(mesh, cfg);
    let r = s.cycle();
    assert!(
        r < 1e-12,
        "uniform supersonic duct flow must be preserved: {r:.3e}"
    );
}
