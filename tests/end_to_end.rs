//! End-to-end integration: the full preprocessing → solve → post-process
//! pipeline, and consistency between solution strategies ("the solution
//! and convergence rates obtained were, of course, identical" — §4.4:
//! all strategies converge to the same steady state).

use eul3d::mesh::gen::{bump_channel, BumpSpec};
use eul3d::mesh::MeshSequence;
use eul3d::solver::postproc::{mach_field, wall_pressure_force};
use eul3d::solver::{MultigridSolver, SolverConfig, Strategy};

fn spec() -> BumpSpec {
    BumpSpec {
        nx: 14,
        ny: 6,
        nz: 4,
        jitter: 0.1,
        ..BumpSpec::default()
    }
}

#[test]
fn multigrid_and_single_grid_agree_at_convergence() {
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };

    let one_level = MeshSequence::from_meshes(vec![bump_channel(&spec())]);
    let mut sg = MultigridSolver::new(one_level, cfg, Strategy::SingleGrid);
    sg.solve(500);

    let seq = MeshSequence::bump_sequence(&spec(), 3);
    let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
    mg.solve(150);

    // Same fine mesh (same spec/seed) ⇒ directly comparable states.
    let a = sg.state();
    let b = mg.state();
    let mut max = 0.0f64;
    for (x, y) in a.flat().iter().zip(b.flat()) {
        max = max.max((x - y).abs());
    }
    assert!(
        max < 2e-2,
        "single-grid and W-cycle steady states should agree, max dev {max:.3e}"
    );

    // Integrated wall force agrees even more tightly.
    let fa = wall_pressure_force(sg.grids.fine(), cfg.gamma, a);
    let fb = wall_pressure_force(mg.grids.fine(), cfg.gamma, b);
    assert!((fa - fb).norm() < 5e-3, "wall force {fa:?} vs {fb:?}");
}

#[test]
fn transonic_case_develops_and_keeps_a_shock() {
    let cfg = SolverConfig {
        mach: 0.675,
        ..SolverConfig::default()
    };
    let seq = MeshSequence::bump_sequence(&spec(), 3);
    let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
    let hist = mg.solve(120);
    assert!(
        hist.last().unwrap() < &(hist[0] * 1e-2),
        "transonic W-cycle must converge ≥2 orders: {:?}",
        (hist[0], hist.last().unwrap())
    );
    let mesh = mg.grids.fine();
    let mach = mach_field(cfg.gamma, mg.state(), mesh.nverts());
    let peak = mach.iter().cloned().fold(0.0f64, f64::max);
    assert!(peak > 1.0, "supersonic pocket expected, peak Mach {peak}");
    assert!(peak < 2.0, "pocket should stay physical, peak Mach {peak}");
}

#[test]
fn deeper_sequences_converge_faster_per_cycle() {
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let run = |levels: usize| {
        let seq = MeshSequence::bump_sequence(&spec(), levels);
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
        let h = mg.solve(40);
        (h[0] / h.last().unwrap()).log10()
    };
    let shallow = run(1); // degenerate: pure single grid
    let deep = run(3);
    assert!(
        deep > shallow + 0.4,
        "3 levels ({deep:.2} orders) must beat 1 level ({shallow:.2} orders)"
    );
}

#[test]
fn solution_is_independent_of_strategy_order_of_magnitude() {
    // All three strategies, run long enough, give the same lift-ish
    // force within discretization noise.
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let mut forces = Vec::new();
    for (strategy, cycles) in [
        (Strategy::SingleGrid, 400),
        (Strategy::VCycle, 200),
        (Strategy::WCycle, 120),
    ] {
        let seq = MeshSequence::bump_sequence(&spec(), 3);
        let mut mg = MultigridSolver::new(seq, cfg, strategy);
        mg.solve(cycles);
        forces.push(wall_pressure_force(mg.grids.fine(), cfg.gamma, mg.state()));
    }
    for f in &forces[1..] {
        assert!(
            (*f - forces[0]).norm() < 0.05 * forces[0].norm().max(1e-3),
            "forces diverge across strategies: {forces:?}"
        );
    }
}

#[test]
fn state_stays_physical_through_the_transient() {
    let cfg = SolverConfig {
        mach: 0.675,
        ..SolverConfig::default()
    };
    let seq = MeshSequence::bump_sequence(&spec(), 3);
    let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
    for _ in 0..30 {
        mg.cycle();
        for i in 0..mg.levels[0].n {
            let rho = mg.state().get(i, 0);
            assert!(
                rho > 0.05 && rho < 5.0,
                "density {rho} out of range mid-transient"
            );
        }
    }
}

/// A service job keeps its trace lanes and final Mach field, not their
/// text: from the lanes `render_trace`, and from the config and that
/// field `render_vtk`, rebuild the very bytes the job's result hash
/// covers (table ‖ trace ‖ VTK), and the hash of
/// `examples/serve.toml` is pinned. (The VTK-caching builds served
/// `d139ebd7…fb00`: the same table and VTK, and a trace with the same
/// spans and end stamp whose stage-0 radii/dt spans came before JST
/// pass 1 instead of after it, when radii had an edge sweep of their
/// own.) The agglomerated and distributed paths are checked in
/// `core::job`.
#[test]
fn a_job_re_renders_the_vtk_its_result_hash_covers() {
    use eul3d::solver::job::{render_trace, render_vtk, run_job, CancelToken, JobMode};
    use eul3d::solver::runconfig::{Fnv1a128, RunConfig};

    let rc = RunConfig::from_toml(include_str!("../examples/serve.toml")).unwrap();
    let a = run_job(&rc, JobMode::Solve, 7, &CancelToken::new(), &mut |_, _| {}).unwrap();
    assert_eq!(a.result_hash, 0x6f7ed1b1b8e936816a86ee9ff5c63c48);
    let vtk = render_vtk(&rc, &a.mach).unwrap();
    let mut h = Fnv1a128::default();
    h.update(a.table.as_bytes());
    h.update(render_trace(&a.lanes).as_bytes());
    h.update(vtk.as_bytes());
    assert_eq!(h.finish(), a.result_hash);
}

/// One guarded configuration rolls back to the same cycles in both job
/// modes: the serial driver snapshots, and the distributed driver
/// checkpoints, at the run's one `checkpoint_every` cadence — with a
/// cadence set and without one.
#[test]
fn a_guarded_config_rolls_back_alike_in_solve_and_distributed_mode() {
    use eul3d::solver::job::{run_job, CancelToken, JobMode};
    use eul3d::solver::runconfig::RunConfig;

    let toml = "[run]\nstrategy = \"v\"\nlevels = 2\ncycles = 12\nnranks = 4\n\
                [mesh]\nnx = 10\nny = 4\nnz = 3\ntaper = 0.6\njitter = 0.1\n\
                [solver]\ncfl = 30.0\nmach = 0.5\n\
                [guard]\ncfl_backoff = 0.25\n";
    for every in [2, 0] {
        let mut rc = RunConfig::from_toml(toml).unwrap();
        rc.checkpoint_every = every;
        let rollbacks = |mode| {
            let a = run_job(&rc, mode, 0, &CancelToken::new(), &mut |_, _| {}).unwrap();
            let outcome = a.guard.expect("an armed guard reports");
            let t: Vec<_> = outcome
                .transcript
                .iter()
                .map(|e| (e.cycle, e.rollback_to))
                .collect();
            (t, a.history)
        };
        let (solve, hs) = rollbacks(JobMode::Solve);
        let (dist, hd) = rollbacks(JobMode::Distributed);
        assert!(
            !solve.is_empty(),
            "checkpoint_every {every}: the case must back off"
        );
        assert_eq!(solve, dist, "checkpoint_every {every}");
        // The rank-summed norm rounds differently; the runs end alike.
        let (rs, rd) = (hs[hs.len() - 1], hd[hd.len() - 1]);
        assert!(
            (rs - rd).abs() <= 1e-12 * rs,
            "checkpoint_every {every}: {rs} vs {rd}"
        );
    }
}
