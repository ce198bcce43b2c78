//! Per-layer probes: the benchmark's own spans around calls into each
//! layer's public functions, on the workload's own inputs. The same
//! probes run in every traced run, so a layer a workload never calls is
//! still measured there — "predicted: no change" is then a statement
//! about a number, not about a blank.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use eul3d_core::counters::{
    FLOPS_CONV_EDGE, FLOPS_DISS_FO_EDGE, FLOPS_DISS_P1_EDGE, FLOPS_DISS_P2_EDGE,
    FLOPS_DISS_ROE_EDGE, FLOPS_RADII_EDGE, FLOPS_SMOOTH_EDGE,
};
use eul3d_core::dist::{DistLevel, DistRunResult, DistSetup};
use eul3d_core::level::{
    assemble_residual, compute_pressures_exec, eval_convection, eval_dissipation, smooth_residual,
    time_step, LevelState,
};
use eul3d_core::shared::SharedExecutor;
use eul3d_core::{
    run_job, CancelToken, CheckpointLog, Executor, JobCheckpoint, JobMode, PhaseCounters,
    RunConfig, SerialExecutor, NVAR,
};
use eul3d_delta::{run_spmd, Rank, WindowRegistry};
use eul3d_kernels::{EdgeSpan, ScatterAccess};
use eul3d_mesh::gen::BumpSpec;
use eul3d_mesh::{MeshSequence, TetMesh};
use eul3d_obs::Event;
use eul3d_partition::coloring::color_edges;
use eul3d_partition::{FlatRsb, PartitionOptions, Partitioner};
use eul3d_serve::json::JObj;
use eul3d_serve::{CacheKey, JobBlob, Journal, JournalRecord, ResultStore};

use crate::serve::Scratch;
use crate::spec::{solver_config, wcycle_visits, JobShape, KERNELS, LANCZOS_ITERS, NPAR};
use crate::stats::median;
use crate::trace::Tracer;

/// Per-layer values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Timed repetitions of one probed call; the median is reported.
const REPS: usize = 5;

/// Median wall seconds of `REPS` calls of `f`, each in a span `name`.
fn time_reps(tr: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| tr.timed(name, &mut f).1).collect();
    median(&samples)
}

/// `mesh.*` and `partition.*`: generate the sequence, colour every level
/// for the shared path, cut every level for the distributed path.
pub fn mesh_and_partition(
    spec: &BumpSpec,
    levels: usize,
    seed: u64,
    tr: &mut Tracer,
    v: &mut Values,
) -> MeshSequence {
    let span = tr.begin("probe.mesh+partition");
    let (seq, dt) = tr.timed("mesh.bump_sequence", || {
        MeshSequence::bump_sequence(spec, levels)
    });
    v.insert("mesh.sequence_s".into(), dt);
    v.insert("mesh.nverts".into(), seq.meshes[0].nverts() as f64);
    v.insert("mesh.nedges".into(), seq.meshes[0].nedges() as f64);

    let (colorings, dt) = tr.timed("partition.color_edges", || {
        seq.meshes.iter().map(color_edges).collect::<Vec<_>>()
    });
    v.insert("partition.color_s".into(), dt);
    v.insert("partition.ncolors".into(), colorings[0].ncolors() as f64);
    v.insert(
        "partition.min_group_len".into(),
        colorings[0].min_group_len() as f64,
    );

    let opts = PartitionOptions::new(NPAR)
        .lanczos_iters(LANCZOS_ITERS)
        .seed(seed);
    let (plans, dt) = tr.timed("partition.FlatRsb.partition", || {
        seq.meshes
            .iter()
            .map(|m| {
                FlatRsb
                    .partition(m.nverts(), &m.edges, &opts)
                    .unwrap_or_else(|e| panic!("partition options rejected: {e}"))
            })
            .collect::<Vec<_>>()
    });
    v.insert("partition.plan_s".into(), dt);
    v.insert("partition.edge_cut".into(), plans[0].edge_cut as f64);
    v.insert("partition.balance".into(), plans[0].balance);
    tr.end(span);
    seq
}

/// The seven `LEVEL_PHASES` timings through one executor per level,
/// stored under `<layer>.<phase>`; returns the fine-level state (a
/// developed flow with pressures, Laplacians and sensor in place) for
/// the kernel sweep.
pub fn level_phases<E: Executor>(
    seq: &MeshSequence,
    execs: &mut [E],
    layer: &str,
    tr: &mut Tracer,
    v: &mut Values,
) -> LevelState {
    let span = tr.begin(&format!("probe.{layer}"));
    let cfg = solver_config();
    let mut c = PhaseCounters::default();
    let mesh = &seq.meshes[0];
    let mut st = LevelState::new(mesh, &cfg);
    let exec = &mut execs[0];
    // Off freestream before anything is timed.
    time_step(mesh, &mut st, &cfg, false, exec, &mut c);

    let mut put = |phase: &str, s: f64| {
        v.insert(format!("{layer}.{phase}"), s);
    };
    let dt = time_reps(tr, "core.level.compute_pressures_exec", || {
        compute_pressures_exec(cfg.gamma, &mut st, exec, &mut c)
    });
    put("pressure_s", dt);
    let dt = time_reps(tr, "core.level.eval_dissipation", || {
        eval_dissipation(mesh, &mut st, &cfg, false, exec, &mut c)
    });
    put("dissipation_s", dt);
    let dt = time_reps(tr, "core.level.eval_convection", || {
        eval_convection(mesh, &mut st, &cfg, exec, &mut c)
    });
    put("convection_s", dt);
    let dt = time_reps(tr, "core.level.assemble_residual", || {
        assemble_residual(&mut st, exec, &mut c)
    });
    put("assemble_s", dt);
    let dt = time_reps(tr, "core.level.smooth_residual", || {
        smooth_residual(mesh, &mut st, &cfg, exec, &mut c)
    });
    put("smooth_s", dt);
    let dt = time_reps(tr, "core.level.time_step[l0]", || {
        time_step(mesh, &mut st, &cfg, false, exec, &mut c)
    });
    put("step_l0_s", dt);

    let visits = wcycle_visits(seq.levels());
    let mut coarse = 0.0;
    for l in 1..seq.levels() {
        let mesh = &seq.meshes[l];
        let mut cst = LevelState::new(mesh, &cfg);
        let exec = &mut execs[l];
        let dt = time_reps(tr, &format!("core.level.time_step[l{l}]"), || {
            time_step(mesh, &mut cst, &cfg, true, exec, &mut c)
        });
        coarse += visits[l] as f64 * dt;
    }
    put("step_coarse_s", coarse);
    tr.end(span);
    st
}

pub fn serial_execs(levels: usize) -> Vec<SerialExecutor> {
    vec![SerialExecutor; levels]
}

pub fn shared_execs(seq: &MeshSequence) -> Vec<SharedExecutor> {
    seq.meshes
        .iter()
        .map(|m| {
            SharedExecutor::new(m, NPAR)
                .unwrap_or_else(|e| panic!("shared executor setup failed: {e}"))
        })
        .collect()
}

/// One kernel's cost model: flops per edge, and f64 values moved per
/// edge (endpoint reads plus two read-modify-write scatter slots) as
/// `eul3d_perf::kernels` documents them. Bytes are **computed** from
/// these counts, not measured: cache misses are invisible to them.
const KERNEL_COST: [(f64, f64); 7] = [
    (FLOPS_CONV_EDGE, 35.0),
    (FLOPS_DISS_P1_EDGE, 40.0),
    (FLOPS_DISS_P2_EDGE, 47.0),
    (FLOPS_DISS_FO_EDGE, 35.0),
    (FLOPS_DISS_ROE_EDGE, 35.0),
    (FLOPS_RADII_EDGE, 19.0),
    (FLOPS_SMOOTH_EDGE, 30.0),
];

/// `kernels.*`: one serial sweep of each edge kernel over the fine mesh,
/// reading the developed state `st`.
pub fn kernel_sweeps(mesh: &TetMesh, st: &LevelState, tr: &mut Tracer, v: &mut Values) {
    let span_all = tr.begin("probe.kernels");
    let cfg = solver_config();
    let (n, ne, lanes) = (st.n, mesh.edges.len(), cfg.lanes);
    let (edges, coef) = (&mesh.edges[..], &mesh.edge_coef[..]);
    let (w, p, lapl, nu) = (st.w.flat(), &st.p[..], st.lapl.flat(), &st.nu[..]);
    let span = EdgeSpan::Range(0..ne);
    let mut big = vec![0.0f64; n * NVAR];
    let mut small = vec![0.0f64; n * 2];

    for (k, (name, (flops, f64s))) in KERNELS.iter().zip(KERNEL_COST).enumerate() {
        let dt = time_reps(tr, &format!("kernels.{name}"), || {
            big.iter_mut().for_each(|x| *x = 0.0);
            small.iter_mut().for_each(|x| *x = 0.0);
            let mut targets: Vec<&mut [f64]> = match k {
                1 => vec![&mut big[..], &mut small[..]],
                5 => vec![&mut small[..n]],
                _ => vec![&mut big[..]],
            };
            let s = ScatterAccess::new(&mut targets);
            // SAFETY: every target plane holds `n` slots per component,
            // the span covers each edge once on this one thread, and the
            // kernels write only to the endpoints of the edges they are
            // handed (the executor conflict contract of eul3d-kernels).
            unsafe {
                use eul3d_kernels as kn;
                match k {
                    0 => kn::conv_flux_edges(&span, edges, coef, w, p, n, &s, lanes),
                    1 => kn::jst_pass1_edges(&span, edges, w, p, n, &s, lanes),
                    2 => kn::jst_pass2_edges(
                        &span, edges, coef, cfg.gamma, cfg.k2, cfg.k4, w, p, lapl, nu, n, &s, lanes,
                    ),
                    3 => kn::first_order_diss_edges(
                        &span,
                        edges,
                        coef,
                        cfg.gamma,
                        cfg.coarse_k2,
                        w,
                        p,
                        n,
                        &s,
                        lanes,
                    ),
                    4 => kn::roe_diss_edges(&span, edges, coef, cfg.gamma, w, p, n, &s, lanes),
                    5 => kn::radii_edges_soa(&span, edges, coef, cfg.gamma, w, p, n, &s, lanes),
                    _ => kn::smooth_accumulate_edges(&span, edges, w, n, &s, lanes),
                }
            }
        });
        // The timed region zeroes the targets too: n*(NVAR+2) stores
        // against ne*(30..47) values moved, under 3 % of the sweep.
        v.insert(format!("kernels.{name}_s"), dt);
        v.insert(
            format!("kernels.{name}_gflops"),
            ne as f64 * flops / dt / 1e9,
        );
        v.insert(
            format!("kernels.{name}_gbs"),
            ne as f64 * f64s * 8.0 / dt / 1e9,
        );
    }
    tr.end(span_all);
}

/// Halo rounds per timed batch.
const HALO_ROUNDS: usize = 20;

/// `parti.{gather,scatter_add}{,_shm}_s` and `delta.allreduce_s`: one
/// halo round of `NVAR` planes on the fine level's own schedule over
/// each transport, and one two-value all-reduce (the residual monitor's),
/// as the slower rank sees them.
pub fn halo_rounds(setup: &DistSetup, tr: &mut Tracer, v: &mut Values) {
    let span = tr.begin("probe.parti+delta");
    let cfg = solver_config();
    let per_round = |f: &mut dyn FnMut()| {
        f(); // warm the buffer pools
        let t0 = Instant::now();
        for _ in 0..HALO_ROUNDS {
            f();
        }
        t0.elapsed().as_secs_f64() / HALO_ROUNDS as f64
    };
    let (run, _) = tr.timed("delta.run_spmd[channels]", || {
        run_spmd(NPAR, |rank: &mut Rank| {
            let mut lvl = DistLevel::build(rank, &setup.pms[0], &cfg, 100);
            let halo = lvl.halo.clone();
            let data = lvl.st.w.flat_mut();
            let g = per_round(&mut || halo.gather_planes(rank, data, NVAR));
            let s = per_round(&mut || halo.scatter_add_planes(rank, data, NVAR));
            let mut norm = [1.0, 2.0];
            let a = per_round(&mut || rank.all_reduce_sum_in_place(&mut norm));
            [g, s, a]
        })
    });
    let slowest = |k: usize, rs: &[[f64; 3]]| rs.iter().map(|r| r[k]).fold(0.0, f64::max);
    v.insert("parti.gather_s".into(), slowest(0, &run.results));
    v.insert("parti.scatter_add_s".into(), slowest(1, &run.results));
    v.insert("delta.allreduce_s".into(), slowest(2, &run.results));

    let reg = WindowRegistry::new(NPAR);
    let (run, _) = tr.timed("delta.run_spmd[windows]", || {
        run_spmd(NPAR, |rank: &mut Rank| {
            let mut lvl = DistLevel::build(rank, &setup.pms[0], &cfg, 100);
            rank.install_windows(Arc::clone(&reg));
            let halo = lvl.halo.clone();
            let data = lvl.st.w.flat_mut();
            let g = per_round(&mut || {
                halo.gather_planes_shm_begin(rank, data, NVAR);
                halo.gather_planes_shm_finish(rank, data, NVAR);
            });
            let s = per_round(&mut || {
                halo.scatter_add_planes_shm_begin(rank, data, NVAR);
                halo.scatter_add_planes_shm_finish(rank, data, NVAR);
            });
            [g, s, 0.0]
        })
    });
    v.insert("parti.gather_shm_s".into(), slowest(0, &run.results));
    v.insert("parti.scatter_add_shm_s".into(), slowest(1, &run.results));
    tr.end(span);
}

/// `delta.exchange_wait_frac` and `delta.rank_imbalance` from the
/// real-time lanes of a traced distributed run. A phase span that holds
/// a message event is communication (pack, publish, and the wait for the
/// peer); everything else on the lane is compute.
pub fn lane_shares(r: &DistRunResult, v: &mut Values) {
    let mut total_ns = 0u64;
    let mut wait_ns = 0u64;
    let mut compute_ns: Vec<f64> = Vec::new();
    for lane in r.lanes() {
        let (Some(first), Some(last)) = (lane.events.first(), lane.events.last()) else {
            continue;
        };
        let lane_total = last.ts_ns - first.ts_ns;
        let mut lane_wait = 0u64;
        // (begin stamp, saw a message) of the open phase spans; a
        // message marks the innermost one only, so nothing counts twice.
        let mut open: Vec<(u64, bool)> = Vec::new();
        for e in &lane.events {
            match e.ev {
                Event::PhaseBegin { .. } => open.push((e.ts_ns, false)),
                Event::MsgSend { .. } | Event::MsgRecv { .. } => {
                    if let Some(top) = open.last_mut() {
                        top.1 = true;
                    }
                }
                Event::PhaseEnd { .. } => {
                    if let Some((begin, comm)) = open.pop() {
                        if comm {
                            lane_wait += e.ts_ns - begin;
                        }
                    }
                }
                _ => {}
            }
        }
        total_ns += lane_total;
        wait_ns += lane_wait;
        compute_ns.push(lane_total.saturating_sub(lane_wait) as f64);
    }
    let mean = compute_ns.iter().sum::<f64>() / compute_ns.len().max(1) as f64;
    let max = compute_ns.iter().copied().fold(0.0, f64::max);
    v.insert(
        "delta.exchange_wait_frac".into(),
        wait_ns as f64 / total_ns.max(1) as f64,
    );
    v.insert("delta.rank_imbalance".into(), max / mean.max(1.0));
}

/// The serve-side microprobes: what a miss writes (`core.job`,
/// `core.ckstore`, `serve.journal`, `serve.store`) and what every
/// request parses (`serve.json`, canonical TOML).
pub fn serve_layers(job: &JobShape, seed: u64, tr: &mut Tracer, v: &mut Values) {
    let span = tr.begin("probe.serve");
    let toml = job.toml(0.675, seed);
    let rc = RunConfig::from_toml(&toml).unwrap_or_else(|e| panic!("job config rejected: {e}"));

    let mut artifacts = None;
    let dt = time_reps(tr, "core.job.run_job", || {
        let a = run_job(
            &rc,
            JobMode::Solve,
            seed,
            &CancelToken::new(),
            &mut |_, _| {},
        )
        .unwrap_or_else(|e| panic!("probe job failed: {e}"));
        artifacts = Some(a);
    });
    v.insert("core.job.run_s".into(), dt);
    let Some(artifacts) = artifacts else {
        unreachable!()
    };

    let scratch = Scratch::new("probe");
    // A checkpoint of the job's own size: full history, fine-grid state.
    let nverts = MeshSequence::bump_sequence(&job.bump_spec(seed), 1).meshes[0].nverts();
    let ck = JobCheckpoint {
        cycles_done: artifacts.history.len() as u64,
        history: artifacts.history.clone(),
        w: vec![1.0; nverts * NVAR],
    };
    let ck_path = scratch.0.join("probe.cklog");
    let (mut log, _) =
        CheckpointLog::open(&ck_path).unwrap_or_else(|e| panic!("cannot open cklog: {e}"));
    let file_len = || std::fs::metadata(&ck_path).map_or(0, |m| m.len());
    let empty_len = file_len();
    let dt = time_reps(tr, "core.ckstore.append", || {
        log.append(&ck)
            .unwrap_or_else(|e| panic!("cklog append failed: {e}"))
    });
    v.insert("core.ckstore.append_s".into(), dt);
    v.insert(
        "core.ckstore.bytes".into(),
        ((file_len() - empty_len) / REPS as u64) as f64,
    );

    let key = CacheKey::of(&rc, JobMode::Solve, seed);
    let (mut journal, _) =
        Journal::open(&scratch.0).unwrap_or_else(|e| panic!("cannot open journal: {e}"));
    let mut next_job = 0u64;
    // `Submitted` is the fsynced record on the accept path.
    let dt = time_reps(tr, "serve.journal.append", || {
        next_job += 1;
        journal
            .append(&JournalRecord::Submitted {
                job: next_job,
                key,
                mode: JobMode::Solve,
                force: false,
                config: rc.canonical_toml(),
            })
            .unwrap_or_else(|e| panic!("journal append failed: {e}"))
    });
    v.insert("serve.journal.append_s".into(), dt);

    let store = ResultStore::open(&scratch.0).unwrap_or_else(|e| panic!("cannot open store: {e}"));
    let blob = JobBlob { artifacts };
    let dt = time_reps(tr, "serve.store.put", || {
        store
            .put(key, &blob)
            .unwrap_or_else(|e| panic!("store put failed: {e}"))
    });
    v.insert("serve.store.put_s".into(), dt);
    v.insert("serve.store.bytes".into(), blob.approx_bytes() as f64);

    let line = eul3d_serve::Request::Submit {
        config: toml.clone(),
        mode: JobMode::Solve,
        force: false,
        artifacts: false,
    }
    .to_line();
    // Microsecond calls: time batches so the clock's grain stays small.
    const BATCH: usize = 200;
    let dt = time_reps(tr, "serve.json.JObj.parse[x200]", || {
        for _ in 0..BATCH {
            std::hint::black_box(JObj::parse(std::hint::black_box(&line)).is_ok());
        }
    });
    v.insert("serve.json_parse_s".into(), dt / BATCH as f64);
    let dt = time_reps(tr, "core.runconfig.canonical_toml[x200]", || {
        for _ in 0..BATCH {
            let rc = RunConfig::from_toml(std::hint::black_box(&toml));
            std::hint::black_box(rc.map(|rc| rc.canonical_toml()).is_ok());
        }
    });
    v.insert("serve.canonical_toml_s".into(), dt / BATCH as f64);
    tr.end(span);
}
