//! Subcommand implementations.

use std::path::{Path, PathBuf};

use eul3d_core::health::GuardOutcome;
use eul3d_core::postproc::{cp_field, mach_field, pressure_field};
use eul3d_core::{
    Args, Coarsening, ConvergenceHistory, JobCheckpoint, MultigridSolver, Phase, RunConfig,
    RunPlan, Scope, TraceConfig,
};
use eul3d_delta::CostModel;
use eul3d_mesh::gen::BumpSpec;
use eul3d_mesh::stats::MeshStats;
use eul3d_mesh::vtk::write_vtk_file;
use eul3d_mesh::MeshSequence;
use eul3d_obs as obs;
use eul3d_partition::rcb::rcb_partition;
use eul3d_partition::{
    kl_refine, parallel_rcb, random_partition, FlatRsb, MultilevelRsb, PartitionOptions,
    PartitionQuality, Partitioner, RankMapping,
};
use eul3d_perf::TextTable;

/// The mesh of a `mesh` or `partition` command line: the default
/// channel under the mesh flags.
fn mesh_spec(a: &Args) -> Result<BumpSpec, String> {
    let mut rc = RunConfig::default();
    a.apply(Scope::Mesh, &mut rc)?;
    Ok(rc.mesh)
}

/// The [`RunConfig`] of a solve: the one loader ([`Args::run_config`])
/// over [`RunConfig::default`], then the CLI's own `--guard` and
/// `--trace*` switches, validated again.
fn run_config_of(a: &Args, scope: Scope) -> Result<RunConfig, String> {
    let mut rc = a.run_config(scope, RunConfig::default(), &[])?;
    if a.has("guard") {
        rc.arm("guard").map_err(|e| e.to_string())?;
    }
    // Tracing: `--trace out.json` writes the Chrome trace there,
    // `--trace-summary` prints the human table; either arms the ring.
    if let Some(path) = a.get_str("trace") {
        rc.trace.enabled = true;
        rc.trace.out = Some(path);
    } else if a.has("trace") {
        rc.trace.enabled = true;
    }
    if a.has("trace-summary") {
        rc.trace.enabled = true;
        rc.trace.summary = true;
    }
    rc.validate().map_err(|e| e.to_string())?;
    Ok(rc)
}

/// Arm the driver thread with a ring tracer when tracing is enabled
/// (the distributed path instead arms each simulated rank's thread).
fn arm_driver_trace(t: &TraceConfig) {
    if t.enabled {
        obs::install(Box::new(obs::RingTracer::new(t.capacity)));
    }
}

/// Collect the driver-thread lane armed by [`arm_driver_trace`] and
/// export it.
fn finish_driver_trace(t: &TraceConfig) -> Result<(), String> {
    if !t.enabled {
        return Ok(());
    }
    match obs::Lane::take_driver() {
        Some(lane) => export_trace(&[lane], t),
        None => Ok(()),
    }
}

/// Write the Chrome `trace_event` JSON and/or print the summary table,
/// per the trace configuration.
fn export_trace(lanes: &[obs::Lane], t: &TraceConfig) -> Result<(), String> {
    let labels = Phase::labels();
    if let Some(path) = &t.out {
        std::fs::write(path, obs::chrome_trace(lanes, &labels))
            .map_err(|e| format!("--trace {path}: {e}"))?;
        println!(
            "wrote trace {path} ({} lane(s), {} event(s))",
            lanes.len(),
            lanes.iter().map(|l| l.events.len()).sum::<usize>()
        );
    }
    if t.summary {
        print!("{}", obs::summary_table(lanes, &labels, t.top_n));
    }
    Ok(())
}

fn print_guard_summary(o: &GuardOutcome) {
    println!("health guard:");
    println!("  backoff epochs {}", o.transcript.len());
    for e in &o.transcript {
        println!("    {e}");
    }
    println!(
        "  final CFL      {:.3} (target {:.3}{})",
        o.final_cfl,
        o.target_cfl,
        if o.final_cfl < o.target_cfl {
            ", still re-ramping"
        } else {
            ""
        }
    );
}

pub fn mesh(a: &Args) -> Result<(), String> {
    let spec = mesh_spec(a)?;
    let levels: usize = a.get("levels", 1)?;
    let vtk = a.get_str("vtk");
    a.check_unknown()?;

    let seq = MeshSequence::bump_sequence(&spec, levels);
    let mut t = TextTable::new(&["level", "nodes", "edges", "tets", "bfaces", "valid"]);
    for (l, m) in seq.meshes.iter().enumerate() {
        let s = MeshStats::compute(m);
        t.row(&[
            l.to_string(),
            s.nverts.to_string(),
            s.nedges.to_string(),
            s.ntets.to_string(),
            s.nbfaces.to_string(),
            s.is_valid().to_string(),
        ]);
    }
    println!("{}", t.render());
    if let Some(path) = vtk {
        write_vtk_file(&PathBuf::from(&path), &seq.meshes[0], &[])
            .map_err(|e| format!("vtk export failed: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

pub fn partition(a: &Args) -> Result<(), String> {
    let spec = mesh_spec(a)?;
    let parts_n: usize = a.get("parts", 16)?;
    let method = a.get_str("method").unwrap_or_else(|| "flat-rsb".into());
    let mapping_s = a.get_str("mapping").unwrap_or_else(|| "identity".into());
    let coarsen_target: usize = a.get("coarsen-target", 64)?;
    let refine_passes: usize = a.get("refine-passes", 4)?;
    let kl = a.has("kl");
    a.check_unknown()?;
    let mapping = RankMapping::parse(&mapping_s)
        .ok_or_else(|| format!("--mapping must be identity|topology, got '{mapping_s}'"))?;

    let mesh = eul3d_mesh::gen::bump_channel(&spec);
    // The spectral methods go through the `Partitioner` trait and report
    // the full plan quality (hop volumes, Fiedler work, wall time); the
    // geometric/random baselines keep the legacy cut/balance report.
    let spectral: Option<&dyn Partitioner> = match method.as_str() {
        "flat-rsb" | "rsb" => Some(&FlatRsb),
        "multilevel" | "ml" => Some(&MultilevelRsb),
        _ => None,
    };
    let t0 = std::time::Instant::now();
    let (mut parts, plan) = if let Some(p) = spectral {
        let opts = PartitionOptions::new(parts_n)
            .seed(eul3d_core::env_seed(7))
            .coarsen_target(coarsen_target)
            .refine_passes(refine_passes)
            .mapping(mapping);
        let plan = p
            .partition(mesh.nverts(), &mesh.edges, &opts)
            .map_err(|e| e.to_string())?;
        (plan.assignment.clone(), Some(plan))
    } else {
        if mapping != RankMapping::Identity {
            return Err(format!(
                "--mapping {mapping_s} needs a spectral method (flat-rsb|multilevel)"
            ));
        }
        let parts = match method.as_str() {
            "rcb" => rcb_partition(&mesh.coords, parts_n),
            "random" => random_partition(mesh.nverts(), parts_n, 7),
            "prcb" => {
                if !parts_n.is_power_of_two() {
                    return Err("--method prcb needs a power-of-two --parts".into());
                }
                parallel_rcb(&mesh.coords, parts_n, 8)
            }
            other => {
                return Err(format!(
                    "--method must be flat-rsb|multilevel|rcb|random|prcb, got '{other}'"
                ))
            }
        };
        (parts, None)
    };
    let seconds = t0.elapsed().as_secs_f64();
    if kl {
        let moved = kl_refine(mesh.nverts(), &mesh.edges, &mut parts, parts_n, 1.06, 8);
        println!("KL refinement moved {moved} vertices");
    }
    let q = PartitionQuality::compute(&parts, parts_n, &mesh.edges);
    let label = match spectral {
        Some(p) => p.name(),
        None => method.as_str(),
    };
    println!(
        "{} vertices into {parts_n} parts via {label}{}:",
        mesh.nverts(),
        if kl { "+kl" } else { "" }
    );
    println!(
        "  cut edges      {} ({:.1}%)",
        q.cut_edges,
        100.0 * q.cut_fraction
    );
    println!("  max imbalance  {:.3}", q.max_imbalance);
    println!("  boundary verts {}", q.boundary_vertices);
    println!("  surface/volume {:.3}", q.mean_surface_to_volume);
    if let Some(plan) = &plan {
        // Post-KL the cut/balance lines above reflect the refined
        // assignment; the plan block reports what the partitioner itself
        // produced.
        println!("  comm volume    {}", plan.comm_volume);
        println!(
            "  hop volume     {} ({}; identity {})",
            plan.hop_volume,
            mapping.label(),
            plan.hop_volume_identity
        );
        println!("  fiedler iters  {}", plan.fiedler_iterations);
        println!("  partition time {seconds:.3}s");
    }
    Ok(())
}

pub fn solve(a: &Args) -> Result<(), String> {
    let rc = run_config_of(a, Scope::Solve)?;
    let fmg = a.has("fmg");
    let threads: usize = a.get("threads", 0)?;
    let restart = a.get_str("restart");
    let checkpoint = a.get_str("checkpoint");
    let vtk = a.get_str("vtk");
    a.check_unknown()?;
    let (spec, levels, cycles) = (rc.mesh.clone(), rc.levels, rc.cycles);
    let (strategy, cfg, guard) = (rc.strategy, rc.solver, rc.guard);

    if restart.is_some() && fmg {
        return Err("--restart and --fmg both set the start state; pass one".into());
    }

    println!(
        "solve: nx={} levels={levels} {} cycles={cycles} M={} α={}°{} config {:016x}",
        spec.nx,
        strategy.label(),
        cfg.mach,
        cfg.alpha_deg,
        if fmg { " +FMG" } else { "" },
        rc.canonical_hash() >> 64
    );
    let t0 = std::time::Instant::now();
    arm_driver_trace(&rc.trace);
    let mut mg = MultigridSolver::for_run(&rc, threads).map_err(|e| e.to_string())?;
    let (family, unit) = match rc.coarsening {
        Coarsening::Sequence => ("mesh family", "vertices"),
        Coarsening::Agglo => ("agglomerated levels", "cells"),
    };
    println!(
        "{family} {:?} {unit} ({:.2}s preprocessing)",
        mg.levels.iter().map(|l| l.n).collect::<Vec<_>>(),
        t0.elapsed().as_secs_f64()
    );

    // Restart and FMG only set the start state; the run loop is the same.
    let mut resume = None;
    if let Some(path) = &restart {
        let ck = JobCheckpoint::load(Path::new(path))
            .ok_or_else(|| format!("restart: {path} is missing, cut short, damaged or foreign"))?;
        ck.fit(mg.levels[0].n, ck.history.len() + cycles)
            .map_err(|e| format!("restart: {path}: {e}"))?;
        println!("restarted from {path} ({} cycles done)", ck.cycles_done);
        resume = Some(ck);
    }
    if fmg {
        mg.fmg_init(cycles.min(20));
    }
    let start = resume.as_ref().map_or(0, |ck| ck.history.len());
    let plan = RunPlan {
        cycles: start + cycles,
        guard: guard.as_ref(),
        resume,
        durability: None,
    };
    let (hist, outcome) = mg.run(plan, &mut |_, _| {}).map_err(|e| e.to_string())?;
    if let Some(o) = &outcome {
        print_guard_summary(o);
    }
    let (w, nverts, flops) = (&mg.levels[0].w, mg.levels[0].n, mg.counter.flops());
    // Export before the divergence check so a failing run still leaves
    // its trace behind for inspection.
    finish_driver_trace(&rc.trace)?;

    // This invocation's cycles; the checkpoint keeps the whole history.
    let h = ConvergenceHistory::from_residuals(hist[start..].to_vec());
    let last = h
        .residuals
        .last()
        .copied()
        .ok_or("empty residual history")?;
    println!(
        "{} cycles in {:.2}s host: residual {:.3e} -> {:.3e} ({:.2} orders, rate {:.4}/cycle, {:.2e} flops)",
        cycles,
        t0.elapsed().as_secs_f64(),
        h.residuals[0],
        last,
        h.orders_reduced(),
        h.asymptotic_rate(10),
        flops
    );
    if h.diverged() {
        return Err("run diverged".into());
    }
    if h.stalled(10, 0.002) {
        println!("note: convergence has stalled (rate ≈ 1)");
    }

    // `--checkpoint`: the committed history and the fine state as one
    // atomically written frame, the file `--restart` continues from.
    if let Some(path) = checkpoint {
        JobCheckpoint::new(hist, w)
            .save(Path::new(&path))
            .map_err(|e| format!("checkpoint: {e}"))?;
        println!("checkpointed to {path}");
    }
    if let Some(path) = vtk {
        let mach = mach_field(cfg.gamma, w, nverts);
        let p = pressure_field(cfg.gamma, w, nverts);
        let cp = cp_field(cfg.gamma, cfg.mach, w, nverts);
        write_vtk_file(
            PathBuf::from(&path).as_path(),
            mg.grids.fine(),
            &[("mach", &mach), ("pressure", &p), ("cp", &cp)],
        )
        .map_err(|e| format!("vtk export: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

pub fn distributed(a: &Args) -> Result<(), String> {
    use eul3d_core::dist::{
        run_distributed_with_faults, DistBackend, DistOptions, DistSetup, FaultOptions, RankFate,
    };
    let rc = run_config_of(a, Scope::Distributed)?;
    let no_incr = a.has("no-incremental");
    a.check_unknown()?;
    let hybrid = rc.backend == DistBackend::Hybrid;
    let nranks = rc.effective_nranks();
    let (spec, levels, cycles) = (rc.mesh.clone(), rc.levels, rc.cycles);
    let (strategy, cfg) = (rc.strategy, rc.solver);
    let fopts = FaultOptions::for_run(&rc).map_err(|e| format!("--faults: {e}"))?;
    let pseed = eul3d_core::env_seed(7);
    let opts = DistOptions {
        refetch_per_loop: no_incr,
        real_time_lanes: hybrid && rc.trace.enabled,
        ..DistOptions::for_run(&rc, pseed)
    };

    println!(
        "distributed: nx={} levels={levels} {} cycles={cycles} on {nranks} {} config {:016x}",
        spec.nx,
        strategy.label(),
        if hybrid {
            "hybrid threads"
        } else {
            "simulated ranks"
        },
        rc.canonical_hash() >> 64
    );
    let seq = MeshSequence::bump_sequence(&spec, levels);
    let t0 = std::time::Instant::now();
    let setup = DistSetup::for_run(seq, &rc, pseed).map_err(|e| e.to_string())?;
    let method = rc.get("partition.method");
    let method_label = method
        .as_deref()
        .map_or("flat-rsb", |m| m.trim_matches('"'));
    println!(
        "{method_label} partitioning of all levels: {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    if let Some(pol) = &opts.repartition {
        println!(
            "mid-run repartition every {} cycles ({method_label}, {} mapping)",
            pol.every,
            pol.mapping.label()
        );
    }
    let t1 = std::time::Instant::now();
    let r = run_distributed_with_faults(&setup, cfg, strategy, cycles, opts, &fopts)
        .map_err(|e| e.to_string())?;
    if let Some(o) = r.guard_outcome() {
        print_guard_summary(o);
    }
    if rc.faults.is_some() {
        let epochs: u64 = r
            .run
            .counters
            .iter()
            .map(|c| c.recoveries)
            .max()
            .unwrap_or(0);
        println!("fault injection: {epochs} recovery epoch(s)");
        for (vid, out) in r.run.results.iter().enumerate() {
            if let RankFate::Died { cycle } = out.fate {
                let host = r
                    .run
                    .results
                    .iter()
                    .position(|o| o.adopted.iter().any(|ad| ad.vid == vid))
                    .map(|h| format!("rank {h}"))
                    .unwrap_or_else(|| "nobody".into());
                println!("  rank {vid} died in cycle {cycle}; partition adopted by {host}");
            }
        }
    }
    let h = ConvergenceHistory::from_residuals(r.history().to_vec());
    let last = h
        .residuals
        .last()
        .copied()
        .ok_or("empty residual history")?;
    println!(
        "{} cycles in {:.2}s host: residual {:.3e} -> {:.3e} ({:.2} orders)",
        cycles,
        t1.elapsed().as_secs_f64(),
        h.residuals[0],
        last,
        h.orders_reduced()
    );

    let model = CostModel::delta_i860();
    let b = model.evaluate(&r.cycle_counters());
    println!(
        "modeled Delta cost: comm {:.2}s + comp {:.2}s = {:.2}s ({:.0} MFlops, comm/comp {:.2})",
        b.comm_seconds,
        b.comp_seconds,
        b.total_seconds,
        b.mflops,
        b.comm_to_comp()
    );
    if hybrid {
        println!(
            "hybrid wall time: {:.3}s on {nranks} threads (vs {:.2}s modeled Delta)",
            r.wall_seconds, b.total_seconds
        );
    }
    if rc.trace.enabled {
        export_trace(&r.lanes(), &rc.trace)?;
    }
    Ok(())
}
