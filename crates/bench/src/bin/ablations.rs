//! Ablations of the design choices `DESIGN.md` calls out — one compact
//! report covering:
//!
//! 1. §4.3 incremental schedules (fetch-once) vs re-fetching per loop;
//! 2. partitioner quality: RSB vs RSB+KL vs RCB vs random, and its
//!    effect on modeled Delta communication;
//! 3. unrelated coarse meshes (the paper's choice) vs refinement-nested
//!    sequences;
//! 4. FMG (mesh-sequenced) start-up vs the paper's impulsive start;
//! 5. coarse-grid first-order dissipation vs full JST on coarse levels;
//! 6. W-cycle γ weighting (the V/W trade the paper frames as
//!    architecture-dependent);
//! 7. multigrid depth: convergence per cycle vs number of levels;
//! 8. coarse-level construction: unrelated meshes (the paper) vs
//!    refinement-nested vs agglomerated dual volumes;
//! 9. §4.2 node and edge reordering: one convective-flux edge sweep on
//!    RCM, generator, random-node and random-edge orderings of one mesh
//!    (the paper: reordering "improved the single node computational rate
//!    by a factor of two" on the i860's small cache).
//!
//! The studies run at half the case's `mesh.nx` on `run.nranks` ranks
//! and fix their own levels, cycles, strategy and coarse grids.

use std::hint::black_box;
use std::time::Instant;

use eul3d_bench::{base, configure, exit_2, finite_or_exit};
use eul3d_core::agglo::Agglomeration;
use eul3d_core::dist::{run_distributed, DistOptions, DistSetup};
use eul3d_core::gas::{GAMMA, NVAR};
use eul3d_core::runconfig::PartitionConfig;
use eul3d_core::{
    ConvergenceHistory, Grids, MultigridSolver, RunConfig, SoaState, SolverConfig, Strategy,
};
use eul3d_delta::{CommClass, CostModel};
use eul3d_kernels::{EdgeSpan, ScatterAccess};
use eul3d_mesh::gen::BumpSpec;
use eul3d_mesh::{MeshSequence, TetMesh};
use eul3d_partition::reorder::{apply_vertex_order, rcm_order, shuffle_edges, shuffle_vertices};
use eul3d_partition::{PartitionMethod, PartitionOptions, PartitionPlan};
use eul3d_perf::TextTable;

/// Timed sweeps per ordering in study 9; the minimum is reported.
const REORDER_SWEEPS: usize = 50;

/// Min-of-[`REORDER_SWEEPS`] wall time of one `conv_flux_edges` sweep
/// over `mesh` on a uniform freestream state.
fn conv_flux_seconds(mesh: &TetMesh, cfg: &SolverConfig) -> f64 {
    let n = mesh.nverts();
    let mut w = SoaState::new(n, NVAR);
    w.fill_rows(&cfg.freestream().w);
    let mut p = vec![0.0; n];
    // SAFETY: single-threaded; `w` holds 5n values, `p` holds n.
    unsafe {
        eul3d_kernels::pressure_verts(0..n, GAMMA, w.flat(), n, &ScatterAccess::new(&mut [&mut p]))
    };
    let span = EdgeSpan::Range(0..mesh.nedges());
    let mut q = vec![0.0; n * NVAR];
    let mut best = f64::INFINITY;
    for _ in 0..REORDER_SWEEPS {
        q.fill(0.0);
        let s = ScatterAccess::new(&mut [&mut q]);
        let t0 = Instant::now();
        // SAFETY: single-threaded; arrays sized by the mesh.
        unsafe {
            eul3d_kernels::conv_flux_edges(
                &span,
                &mesh.edges,
                &mesh.edge_coef,
                w.flat(),
                &p,
                n,
                &s,
                cfg.lanes,
            )
        };
        best = best.min(t0.elapsed().as_secs_f64());
    }
    black_box(&q);
    best
}

/// The studies' mesh: half the case's resolution.
fn spec(rc: &RunConfig) -> BumpSpec {
    let nx = rc.mesh.nx;
    BumpSpec {
        nx: nx / 2,
        ny: nx / 5,
        nz: nx / 6,
        jitter: 0.12,
        ..Default::default()
    }
}

fn main() {
    let fixed = ["run.levels", "run.cycles", "run.strategy", "run.coarsening"]
        .map(|key| (key, "fixed by each study"));
    let owned = [&fixed[..], &[("partition.method", "swept by study 2")]].concat();
    let (rc, ()) = configure(base(40, Strategy::WCycle), &owned, |_| ());
    let cfg = rc.solver;
    let model = CostModel::delta_i860();
    let nranks = rc.nranks;
    // Every solve below reports only a finite history.
    let checked = |history: Vec<f64>, what: &str| {
        finite_or_exit(&history, what);
        history
    };
    println!(
        "ablations: bump nx={}, M={}, {} cycles where applicable\n",
        rc.mesh.nx / 2,
        cfg.mach,
        rc.cycles
    );

    // ---- 1. incremental schedules -------------------------------------
    println!(
        "1) §4.3 fetch-once vs re-fetch per loop ({} ranks, single grid):",
        nranks
    );
    let mut rows = TextTable::new(&["variant", "halo MB/cycle", "comm s/cycle", "total s/cycle"]);
    for (name, refetch) in [("fetch-once (paper)", false), ("re-fetch per loop", true)] {
        let seq = MeshSequence::bump_sequence(&spec(&rc), 1);
        let setup = DistSetup::for_run(seq, &rc, 7).unwrap_or_else(|e| exit_2(e));
        let opts = DistOptions {
            refetch_per_loop: refetch,
            ..DistOptions::for_run(&rc, 7)
        };
        let r = run_distributed(&setup, cfg, Strategy::SingleGrid, 10, opts);
        finite_or_exit(r.history(), &format!("ablations 1 {name}"));
        let cyc = r.cycle_counters();
        let b = model.evaluate(&cyc);
        let halo_mb: f64 = cyc
            .iter()
            .map(|c| c.sent[CommClass::Halo as usize].bytes as f64)
            .sum::<f64>()
            / 1e6
            / 10.0;
        rows.row(&[
            name.into(),
            format!("{halo_mb:.3}"),
            format!("{:.3}", b.comm_seconds / 10.0),
            format!("{:.3}", b.total_seconds / 10.0),
        ]);
    }
    println!("{}", rows.render());

    // ---- 2. partitioners ----------------------------------------------
    println!(
        "2) partitioner quality ({} parts) and its comm cost:",
        nranks
    );
    let mut rows = TextTable::new(&["partitioner", "cut %", "imbalance", "comm s/cycle"]);
    for method in [
        PartitionMethod::FlatRsb,
        PartitionMethod::Multilevel,
        PartitionMethod::RsbKl,
        PartitionMethod::Rcb,
        PartitionMethod::Random,
    ] {
        let name = method.label();
        let rc = RunConfig {
            partition: Some(PartitionConfig {
                method,
                ..rc.partition.unwrap_or_default()
            }),
            ..rc.clone()
        };
        let seq = MeshSequence::bump_sequence(&spec(&rc), 1);
        let setup = DistSetup::for_run(seq, &rc, 7).unwrap_or_else(|e| exit_2(e));
        let mesh = &setup.seq.meshes[0];
        let q = PartitionPlan::from_assignment(
            setup.pms[0].owner.clone(),
            &mesh.edges,
            &PartitionOptions::new(nranks),
            0,
        );
        let r = run_distributed(&setup, cfg, Strategy::SingleGrid, 5, DistOptions::default());
        finite_or_exit(r.history(), &format!("ablations 2 {name}"));
        let b = model.evaluate(&r.cycle_counters());
        rows.row(&[
            name.into(),
            format!(
                "{:.1}",
                100.0 * (q.edge_cut as f64 / mesh.nedges().max(1) as f64)
            ),
            format!("{:.3}", q.balance),
            format!("{:.3}", b.comm_seconds / 5.0),
        ]);
    }
    println!("{}", rows.render());

    // ---- 3. unrelated vs nested sequences ------------------------------
    println!("3) unrelated coarse meshes (paper) vs refinement-nested:");
    let mut rows = TextTable::new(&["sequence", "levels (verts)", "orders/40 W-cycles"]);
    {
        let seq = MeshSequence::bump_sequence(&spec(&rc), 3);
        let sizes = format!(
            "{:?}",
            seq.meshes.iter().map(|m| m.nverts()).collect::<Vec<_>>()
        );
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
        let h = ConvergenceHistory::from_residuals(checked(mg.solve(40), "ablations 3 unrelated"));
        rows.row(&[
            "unrelated".into(),
            sizes,
            format!("{:.2}", h.orders_reduced()),
        ]);
    }
    {
        let base = BumpSpec {
            nx: rc.mesh.nx / 8,
            ny: rc.mesh.nx / 20 + 2,
            nz: rc.mesh.nx / 24 + 2,
            jitter: 0.12,
            ..Default::default()
        };
        let seq = MeshSequence::nested_bump_sequence(&base, 3);
        let sizes = format!(
            "{:?}",
            seq.meshes.iter().map(|m| m.nverts()).collect::<Vec<_>>()
        );
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
        let h = ConvergenceHistory::from_residuals(checked(mg.solve(40), "ablations 3 nested"));
        rows.row(&["nested".into(), sizes, format!("{:.2}", h.orders_reduced())]);
    }
    println!("{}", rows.render());

    // ---- 4. FMG start-up ------------------------------------------------
    println!("4) impulsive start (paper) vs FMG mesh sequencing:");
    let mut rows = TextTable::new(&["start", "flops", "residual after 20 W-cycles"]);
    {
        let mut mg = MultigridSolver::new(
            MeshSequence::bump_sequence(&spec(&rc), 3),
            cfg,
            Strategy::WCycle,
        );
        let h = checked(mg.solve(20), "ablations 4 impulsive");
        rows.row(&[
            "impulsive".into(),
            format!("{:.2e}", mg.counter.flops()),
            format!("{:.3e}", h.last().unwrap()),
        ]);
    }
    {
        let mut mg = MultigridSolver::new(
            MeshSequence::bump_sequence(&spec(&rc), 3),
            cfg,
            Strategy::WCycle,
        );
        mg.fmg_init(8);
        let h = checked(mg.solve(20), "ablations 4 FMG(8)");
        rows.row(&[
            "FMG(8)".into(),
            format!("{:.2e}", mg.counter.flops()),
            format!("{:.3e}", h.last().unwrap()),
        ]);
    }
    println!("{}", rows.render());

    // ---- 5. coarse-grid dissipation ------------------------------------
    println!("5) coarse-grid dissipation: first-order (robust) vs full JST:");
    let mut rows = TextTable::new(&["coarse dissipation", "orders/40 W-cycles", "flops"]);
    for (name, fo) in [("first-order", true), ("full JST", false)] {
        let cfg2 = SolverConfig {
            coarse_first_order: fo,
            ..cfg
        };
        let mut mg = MultigridSolver::new(
            MeshSequence::bump_sequence(&spec(&rc), 3),
            cfg2,
            Strategy::WCycle,
        );
        let h = ConvergenceHistory::from_residuals(checked(
            mg.solve(40),
            "ablations 5 coarse dissipation",
        ));
        rows.row(&[
            name.into(),
            format!("{:.2}", h.orders_reduced()),
            format!("{:.2e}", mg.counter.flops()),
        ]);
    }
    println!("{}", rows.render());

    // ---- 6. cycle strategies --------------------------------------------
    println!("6) strategy trade (sequential work vs convergence):");
    let mut rows = TextTable::new(&["strategy", "orders/40 cycles", "flops", "orders per Gflop"]);
    for strategy in [Strategy::SingleGrid, Strategy::VCycle, Strategy::WCycle] {
        let mut mg =
            MultigridSolver::new(MeshSequence::bump_sequence(&spec(&rc), 3), cfg, strategy);
        let h = ConvergenceHistory::from_residuals(checked(mg.solve(40), "ablations 6 strategies"));
        rows.row(&[
            strategy.label().into(),
            format!("{:.2}", h.orders_reduced()),
            format!("{:.2e}", mg.counter.flops()),
            format!("{:.2}", h.orders_reduced() / (mg.counter.flops() / 1e9)),
        ]);
    }
    println!("{}", rows.render());

    // ---- 7. multigrid depth ----------------------------------------------
    println!("7) multigrid depth (W-cycle, 30 cycles):");
    let mut rows = TextTable::new(&["levels", "coarsest verts", "orders", "flops"]);
    for levels in 1..=4usize {
        let seq = MeshSequence::bump_sequence(&spec(&rc), levels);
        let coarsest = seq.meshes.last().unwrap().nverts();
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
        let h = ConvergenceHistory::from_residuals(checked(mg.solve(30), "ablations 7 depth"));
        rows.row(&[
            levels.to_string(),
            coarsest.to_string(),
            format!("{:.2}", h.orders_reduced()),
            format!("{:.2e}", mg.counter.flops()),
        ]);
    }
    println!("{}", rows.render());
    println!("(1 level = pure single grid; each added level cheapens the long-wave error)");

    // ---- 8. coarse-level construction -----------------------------------
    println!("\n8) coarse-level construction (W-cycle, 40 cycles, ~3 levels):");
    let mut rows = TextTable::new(&["construction", "levels (cells)", "orders", "flops"]);
    {
        let seq = MeshSequence::bump_sequence(&spec(&rc), 3);
        let sizes = format!(
            "{:?}",
            seq.meshes.iter().map(|m| m.nverts()).collect::<Vec<_>>()
        );
        let mut mg = MultigridSolver::new(seq, cfg, Strategy::WCycle);
        let h = ConvergenceHistory::from_residuals(checked(mg.solve(40), "ablations 8 unrelated"));
        rows.row(&[
            "unrelated meshes (paper)".into(),
            sizes,
            format!("{:.2}", h.orders_reduced()),
            format!("{:.2e}", mg.counter.flops()),
        ]);
    }
    {
        let agg = Agglomeration::new(eul3d_mesh::gen::bump_channel(&spec(&rc)), 3);
        let mut mg = MultigridSolver::new(Grids::Agglo(agg), cfg, Strategy::WCycle);
        let sizes = format!("{:?}", mg.levels.iter().map(|l| l.n).collect::<Vec<_>>());
        let h =
            ConvergenceHistory::from_residuals(checked(mg.solve(40), "ablations 8 agglomerated"));
        rows.row(&[
            "agglomerated dual volumes".into(),
            sizes,
            format!("{:.2}", h.orders_reduced()),
            format!("{:.2e}", mg.counter.flops()),
        ]);
    }
    println!("{}", rows.render());
    println!("(agglomeration needs no coarse meshing or inter-grid search — the");
    println!(" §2.4 preprocessing bottleneck disappears, at some convergence cost)");

    // ---- 9. §4.2 node and edge reordering -------------------------------
    // A fixed mesh, large enough that the vertex arrays exceed L1/L2 on
    // most hosts: the gain is a cache effect, so it needs cache misses.
    let base = eul3d_mesh::gen::bump_channel(&BumpSpec {
        nx: 40,
        ny: 16,
        nz: 14,
        jitter: 0.15,
        ..Default::default()
    });
    let random_nodes = shuffle_vertices(&base, 99);
    let rcm = apply_vertex_order(
        &random_nodes,
        &rcm_order(random_nodes.nverts(), &random_nodes.edges),
    );
    let mut random_edges = rcm.clone();
    shuffle_edges(&mut random_edges, 7);
    println!(
        "\n9) §4.2 node+edge reordering ({} verts, {} edges; conv_flux_edges, min of {REORDER_SWEEPS} sweeps):",
        base.nverts(),
        base.nedges()
    );
    let mut rows = TextTable::new(&["ordering", "ms/sweep", "Medges/s", "time vs rcm"]);
    let orderings = [
        ("rcm", &rcm),
        ("generator order", &base),
        ("random nodes", &random_nodes),
        ("random edges", &random_edges),
    ];
    let times: Vec<f64> = orderings
        .iter()
        .map(|(_, mesh)| conv_flux_seconds(mesh, &cfg))
        .collect();
    for ((name, mesh), t) in orderings.iter().zip(&times) {
        rows.row(&[
            name.to_string(),
            format!("{:.3}", t * 1e3),
            format!("{:.1}", mesh.nedges() as f64 / t / 1e6),
            format!("{:.2}x", t / times[0]),
        ]);
    }
    println!("{}", rows.render());
    println!("(the paper's i860 rate doubled; a modern cache hides part of the miss cost)");
}
