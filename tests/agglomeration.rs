//! Cross-crate checks of agglomeration multigrid: same steady state as
//! the mesh-sequence solver, physical through the transient.

use eul3d::mesh::gen::{bump_channel, BumpSpec};
use eul3d::mesh::MeshSequence;
use eul3d::solver::agglo::Agglomeration;
use eul3d::solver::postproc::wall_pressure_force;
use eul3d::solver::{Grids, MultigridSolver, SolverConfig, Strategy};

fn spec() -> BumpSpec {
    BumpSpec {
        nx: 14,
        ny: 6,
        nz: 4,
        jitter: 0.1,
        ..BumpSpec::default()
    }
}

/// `levels` levels agglomerated from the bump channel of [`spec`].
fn agglomerated(cfg: SolverConfig, strategy: Strategy, levels: usize) -> MultigridSolver {
    MultigridSolver::new(
        Grids::Agglo(Agglomeration::new(bump_channel(&spec()), levels)),
        cfg,
        strategy,
    )
}

#[test]
fn agglomeration_mg_reaches_the_same_steady_state() {
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };

    let mut mesh_mg = MultigridSolver::new(
        MeshSequence::bump_sequence(&spec(), 3),
        cfg,
        Strategy::WCycle,
    );
    mesh_mg.solve(150);

    let mut agglo_mg = agglomerated(cfg, Strategy::WCycle, 3);
    agglo_mg.solve(200);

    // Same fine mesh (same spec/seed): states directly comparable.
    let mut max = 0.0f64;
    for (a, b) in mesh_mg.state().flat().iter().zip(agglo_mg.state().flat()) {
        max = max.max((a - b).abs());
    }
    assert!(
        max < 2e-2,
        "agglomeration and mesh-sequence multigrid disagree at convergence: {max:.3e}"
    );

    let fa = wall_pressure_force(mesh_mg.grids.fine(), cfg.gamma, mesh_mg.state());
    let fb = wall_pressure_force(agglo_mg.grids.fine(), cfg.gamma, agglo_mg.state());
    assert!(
        (fa - fb).norm() < 5e-3,
        "wall forces disagree: {fa:?} vs {fb:?}"
    );
}

#[test]
fn agglomeration_mg_transient_stays_physical() {
    let cfg = SolverConfig {
        mach: 0.675,
        ..SolverConfig::default()
    };
    let mut mg = agglomerated(cfg, Strategy::WCycle, 3);
    for _ in 0..30 {
        let r = mg.cycle();
        assert!(r.is_finite());
        for i in 0..mg.grids.fine().nverts() {
            assert!(mg.state().get(i, 0) > 0.05, "density positive");
        }
    }
}

#[test]
fn single_grid_strategy_is_the_single_grid_solver_on_every_hierarchy() {
    // One cycle serves every hierarchy, so its single-grid shortcut must
    // be the base solver on the lone fine mesh — same bits — whether the
    // coarse levels underneath are agglomerated cells or independent
    // meshes.
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let one_level = MeshSequence::from_meshes(vec![bump_channel(&spec())]);
    let reference = MultigridSolver::new(one_level, cfg, Strategy::SingleGrid).solve(6);
    let agglo = agglomerated(cfg, Strategy::SingleGrid, 3).solve(6);
    let seq = MeshSequence::bump_sequence(&spec(), 3);
    let mesh_seq = MultigridSolver::new(seq, cfg, Strategy::SingleGrid).solve(6);
    for (what, hist) in [("agglomerated", agglo), ("mesh sequence", mesh_seq)] {
        for (a, b) in reference.iter().zip(&hist) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:e} vs {b:e}");
        }
    }
}
