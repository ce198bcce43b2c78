//! The five workloads: what an untraced run measures end to end, and what
//! a traced run adds beneath it.

use eul3d_core::dist::{DistBackend, DistOptions};
use eul3d_core::PhaseCounters;

use crate::dist;
use crate::host;
use crate::probes::{self, Values};
use crate::serve;
use crate::solver::{self, Exec};
use crate::spec::{Size, Target, COUNTED_PHASES, NPAR};
use crate::stats::{low_decile, median, percentile};
use crate::trace::Tracer;

/// Set-ups per run. A service restart takes milliseconds, so it is
/// sampled more often than a mesh build.
const SETUPS: usize = 3;
const SERVE_SETUPS: usize = 15;

/// One workload's end-to-end measurement.
///
/// A multigrid cycle, a set-up and a solve from the same start are the
/// same work every time, and on a shared host interference only ever
/// adds to them: their timings are reported as the lower decile of the
/// samples (the minimum of a handful). Served latencies are reported as
/// medians: there the distribution under load is the product.
pub struct Measured {
    pub setup_s: f64,
    pub cycle_s: f64,
    /// Cycles to the target x `cycle_s` on the solver workloads: time to
    /// a solution of stated accuracy at the quiet-machine cycle cost, so
    /// a faster cycle that converges slower does not pass.
    pub solve_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Cycles to the target (per job on `serve_mix`).
    pub cycles: usize,
    /// Residual-history fingerprint (0 on `serve_mix`).
    pub fnv: u64,
    /// Executor counters of one whole solve on the serial and shared
    /// paths, which run in this process.
    counters: Option<PhaseCounters>,
    mix: Option<serve::MixRun>,
}

fn backend_of(workload: &str) -> DistBackend {
    if workload == "hybrid_w64" {
        DistBackend::Hybrid
    } else {
        DistBackend::Delta
    }
}

/// Run `workload` with `repeats` measured repeats (`None`: the size's
/// own count).
pub fn measure(
    workload: &str,
    seed: u64,
    size: &Size,
    repeats: Option<usize>,
    tr: &mut Tracer,
) -> Measured {
    let problem = size.solver_problem(seed);
    let repeats = repeats.unwrap_or_else(|| size.repeats(workload));
    let span = tr.begin(workload);
    let m = match workload {
        "serial_w64" | "shared_w64" | "delta_w64" | "hybrid_w64" => {
            let r = match workload {
                "serial_w64" => solver::run(
                    Exec::Serial,
                    &problem,
                    size.target,
                    repeats,
                    SETUPS,
                    None,
                    tr,
                ),
                "shared_w64" => {
                    let head = Target::Cycles(solver::REFERENCE_CYCLES);
                    let reference = solver::serial_reference(&problem, head);
                    solver::run(
                        Exec::Shared,
                        &problem,
                        size.target,
                        repeats,
                        SETUPS,
                        Some(&reference),
                        tr,
                    )
                }
                _ => {
                    // The serial history fixes the cycle count ("same
                    // mesh and cycle count") and is the reference the
                    // first cycles track.
                    let reference = solver::serial_reference(&problem, size.target);
                    let backend = backend_of(workload);
                    dist::run(
                        backend,
                        &problem,
                        &reference,
                        size.target,
                        repeats,
                        SETUPS,
                        tr,
                    )
                }
            };
            let cycle_s = low_decile(&r.cycle_s);
            Measured {
                setup_s: low_decile(&r.setup_s),
                cycle_s,
                solve_s: r.cycles as f64 * cycle_s,
                attempted: r.attempted,
                failed: r.failed,
                cycles: r.cycles,
                fnv: r.fnv,
                counters: r.counters,
                mix: None,
            }
        }
        "serve_mix" => {
            let r = serve::run_mix(seed, size.client_jobs(), &size.job, true, SERVE_SETUPS, tr);
            Measured {
                setup_s: low_decile(&r.setup_s),
                cycle_s: median(&r.gap_s),
                solve_s: median(&r.miss_s),
                attempted: r.attempted,
                failed: r.failed,
                cycles: size.job.cycles,
                fnv: 0,
                counters: None,
                mix: Some(r),
            }
        }
        other => panic!("unknown workload '{other}'"),
    };
    tr.end(span);
    m
}

/// Cycles of the short runs that size per-cycle costs in a traced run.
fn probe_cycles(size: &Size) -> usize {
    if size.smoke {
        3
    } else {
        6
    }
}

/// Submissions per client of the short mixes a traced solver workload
/// runs to probe the service.
const PROBE_CLIENT_JOBS: usize = 10;

/// The traced run: the workload once more with spans on, then every
/// layer probe on the workload's own mesh (the served job's mesh on
/// `serve_mix`). Returns the workload's measurement and every per-layer
/// value by name.
pub fn traced(workload: &str, seed: u64, size: &Size, tr: &mut Tracer) -> (Measured, Values) {
    let mut v = Values::new();
    let is_serve = workload == "serve_mix";
    let own = measure(workload, seed, size, (!size.smoke).then_some(1), tr);
    let problem = if is_serve {
        size.job_problem(seed)
    } else {
        size.solver_problem(seed)
    };
    let k = probe_cycles(size);

    // mesh, partition, core::level, kernels, host, core::shared.
    let seq = probes::mesh_and_partition(&problem.spec, problem.levels, seed, tr, &mut v);
    let mut serial = probes::serial_execs(problem.levels);
    let st = probes::level_phases(&seq, &mut serial, "core.level", tr, &mut v);
    probes::kernel_sweeps(&seq.meshes[0], &st, tr, &mut v);
    let len = if size.smoke {
        host::TRIAD_LEN / 16
    } else {
        host::TRIAD_LEN
    };
    let (gbs, _) = tr.timed("host.triad", || host::triad_gbs(len, 3));
    v.insert("host.triad_gbs".into(), gbs);
    let (gflops, _) = tr.timed("host.fma", host::fma_gflops);
    v.insert("host.fma_gflops".into(), gflops);
    let mut shared = probes::shared_execs(&seq);
    probes::level_phases(&seq, &mut shared, "core.shared", tr, &mut v);
    drop(shared);
    let steps = |layer: &str, v: &Values| {
        v[&format!("{layer}.step_l0_s")] + v[&format!("{layer}.step_coarse_s")]
    };
    v.insert(
        "core.shared.launch_overhead_s".into(),
        steps("core.shared", &v) - steps("core.level", &v) / NPAR as f64,
    );

    // core::multigrid: a serial cycle on the probe mesh against its level
    // steps. On serial_w64 that cycle is the workload's own.
    let (serial_cycle_s, serial_counters) = if workload == "serial_w64" {
        (own.cycle_s, own.counters.map(|c| (c, own.cycles)))
    } else {
        let r = solver::run(Exec::Serial, &problem, Target::Cycles(k), 1, 1, None, tr);
        (median(&r.cycle_s), r.counters.map(|c| (c, k)))
    };
    v.insert(
        "core.multigrid.other_s".into(),
        serial_cycle_s - steps("core.level", &v),
    );

    // parti, delta, obs: short runs on the probe mesh's own partition.
    let dsetup = dist::setup(&problem);
    let opts = dist::options(backend_of(workload));
    let r1 = dist::cycle_run(&dsetup, 1, opts, tr);
    let rk = dist::cycle_run(&dsetup, k, opts, tr);
    let marginal_cycle_s = (rk.wall_seconds - r1.wall_seconds) / (k - 1) as f64;
    v.insert("parti.build_s".into(), r1.wall_seconds - marginal_cycle_s);
    let ((m1, b1), (mk, bk)) = (dist::cycle_traffic(&r1), dist::cycle_traffic(&rk));
    v.insert(
        "parti.msgs_per_cycle".into(),
        (mk - m1) as f64 / (k - 1) as f64,
    );
    v.insert(
        "parti.bytes_per_cycle".into(),
        (bk - b1) as f64 / (k - 1) as f64,
    );
    probes::halo_rounds(&dsetup, tr, &mut v);
    // Real-time obs lanes exist on the hybrid backend only; the same k
    // cycles with them armed and not, twice each, give their overhead.
    let plain = dist::options(DistBackend::Hybrid);
    let armed = DistOptions {
        trace_capacity: Some(1 << 18),
        real_time_lanes: true,
        ..plain
    };
    let (mut plain_s, mut armed_s) = (0.0, 0.0);
    for _ in 0..2 {
        plain_s += dist::cycle_run(&dsetup, k, plain, tr).wall_seconds;
        let r = dist::cycle_run(&dsetup, k, armed, tr);
        armed_s += r.wall_seconds;
        probes::lane_shares(&r, &mut v);
    }
    v.insert("obs.trace_overhead_frac".into(), armed_s / plain_s - 1.0);

    // core::phase counts per cycle, from the workload's own executor.
    let (counters, cycles) = match workload {
        "shared_w64" => own.counters.map(|c| (c, own.cycles)),
        "delta_w64" | "hybrid_w64" => Some((dist::summed_counters(&rk), k)),
        _ => serial_counters,
    }
    .unwrap_or_else(|| panic!("{workload} ran no in-process solve"));
    for (phase, name) in COUNTED_PHASES {
        let c = counters.comp[phase.index()];
        v.insert(format!("core.phase.{name}.flops"), c.flops / cycles as f64);
        v.insert(
            format!("core.phase.{name}.launches"),
            c.launches as f64 / cycles as f64,
        );
    }
    v.insert("core.cycles_to_drop".into(), own.cycles as f64);
    // Serial reference over p x this workload's cycle: one worker per
    // served job, NPAR threads or ranks on the parallel solvers.
    let p = match workload {
        "serial_w64" | "serve_mix" => 1,
        _ => NPAR,
    };
    v.insert(
        "core.parallel_eff".into(),
        serial_cycle_s / (p as f64 * own.cycle_s),
    );

    // core::{job,ckstore}, serve: microprobes, then the mix with and
    // without the durable state directory. On serve_mix the durable mix
    // is the workload itself.
    probes::serve_layers(&size.job, seed, tr, &mut v);
    let njobs;
    let short_mix;
    let durable = match &own.mix {
        Some(mix) => {
            njobs = size.client_jobs();
            mix
        }
        None => {
            njobs = PROBE_CLIENT_JOBS;
            short_mix = serve::run_mix(seed, njobs, &size.job, true, 0, tr);
            &short_mix
        }
    };
    let volatile = serve::run_mix(seed, njobs, &size.job, false, 0, tr);
    v.insert("serve.accept_s".into(), median(&durable.accept_s));
    v.insert("serve.miss_p50_s".into(), median(&durable.miss_s));
    v.insert("serve.hit_p50_s".into(), median(&durable.hit_s));
    // The highest percentile with ten samples beyond it at full size
    // (about 240 misses and 160 hits); the short probe mixes report the
    // same ranks of far fewer samples.
    v.insert("serve.miss_p95_s".into(), percentile(&durable.miss_s, 0.95));
    v.insert("serve.hit_p90_s".into(), percentile(&durable.hit_s, 0.90));
    v.insert(
        "serve.durable_overhead_frac".into(),
        durable.wall_s / volatile.wall_s - 1.0,
    );
    v.insert(
        "serve.jobs_per_s".into(),
        durable.completed() as f64 / durable.wall_s,
    );
    v.insert("serve.rejected".into(), durable.rejected as f64);
    v.insert("serve.retries".into(), durable.retries as f64);
    (own, v)
}
