//! `kernels` — SoA edge-kernel benchmark emitting `BENCH_kernels.json`.
//!
//! Times every plane-major kernel the solver runs per edge against the
//! interleaved-AoS baseline ([`eul3d_bench::aos_ref`]) on the same mesh
//! and state, asserts the two produce **bit-identical** accumulations
//! before timing them, and reports per-kernel GFLOP/s, modeled
//! bandwidth, and the aggregate (time-weighted) speedup through
//! [`eul3d_perf::kernels`]. The two pure neighbour sums (`jst_pass1`,
//! `smooth_accumulate`) time the vertex-gather kernels the solver runs
//! since PR 19 — which need no zero-fill — against an AoS edge
//! scatter that keeps its fill inside the timed region.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `EUL3D_BENCH_ROUNDS` | timed rounds per kernel | 60 |
//! | `EUL3D_BENCH_OUT` | output path | `BENCH_kernels.json` |
//!
//! `--smoke` shrinks the mesh and caps the rounds for CI; `--gate R`
//! exits nonzero unless the aggregate SoA speedup is at least `R`
//! (CI runs `--gate 1.2`).

use std::time::Instant;

use eul3d_bench::aos_ref::{
    compute_pressures, conv_residual_edges, dissipation_first_order, dissipation_pass,
    laplacian_pass, radii_edges, roe_dissipation_edges, sensor_from_accumulators,
    smooth_accumulate,
};
use eul3d_core::counters::{
    FLOPS_CONV_EDGE, FLOPS_DISS_FO_EDGE, FLOPS_DISS_P1_EDGE, FLOPS_DISS_P2_EDGE,
    FLOPS_DISS_ROE_EDGE, FLOPS_RADII_EDGE, FLOPS_SMOOTH_EDGE,
};
use eul3d_core::gas::{GAMMA, NVAR};
use eul3d_core::{SoaState, SolverConfig};
use eul3d_kernels::{EdgeSpan, ScatterAccess};
use eul3d_mesh::gen::{bump_channel, BumpSpec};
use eul3d_mesh::topology::vertex_vertex_adjacency;
use eul3d_mesh::TetMesh;
use eul3d_perf::kernels::{aggregate_speedup, kernels_report_json, KernelSample};

/// The benchmark state: mesh plus a smoothly perturbed flow in both
/// layouts, with derived pressures/Laplacians/sensors so pass-2 kernels
/// run on realistic operands.
struct Workload {
    mesh: TetMesh,
    w_aos: Vec<f64>,
    w_soa: SoaState,
    p: Vec<f64>,
    lapl_aos: Vec<f64>,
    lapl_soa: SoaState,
    nu: Vec<f64>,
    k2: f64,
    k4: f64,
    coarse_k2: f64,
}

fn workload(smoke: bool) -> Workload {
    let spec = if smoke {
        BumpSpec {
            nx: 14,
            ny: 6,
            nz: 5,
            jitter: 0.15,
            ..Default::default()
        }
    } else {
        BumpSpec {
            nx: 28,
            ny: 12,
            nz: 10,
            jitter: 0.15,
            ..Default::default()
        }
    };
    let mesh = bump_channel(&spec);
    let cfg = SolverConfig::default();
    let fs = cfg.freestream();
    let n = mesh.nverts();
    let mut w_aos = vec![0.0; n * NVAR];
    for (i, c) in mesh.coords.iter().enumerate() {
        let s = 1.0 + 0.05 * (c.x * 3.0).sin() * (c.y * 5.0).cos() + 0.02 * (c.z * 7.0).sin();
        for k in 0..NVAR {
            w_aos[i * NVAR + k] = fs.w[k] * s;
        }
    }
    let w_soa = SoaState::from_aos(&w_aos, NVAR);
    let mut p = vec![0.0; n];
    compute_pressures(GAMMA, &w_aos, &mut p);

    // Pass-1 accumulators feed the pass-2 kernels.
    let mut lapl_aos = vec![0.0; n * NVAR];
    let mut sens = vec![0.0; n * 2];
    laplacian_pass(&mesh.edges, &w_aos, &p, &mut lapl_aos, &mut sens);
    let lapl_soa = SoaState::from_aos(&lapl_aos, NVAR);
    let mut nu = vec![0.0; n];
    sensor_from_accumulators(&sens, &mut nu);

    Workload {
        mesh,
        w_aos,
        w_soa,
        p,
        lapl_aos,
        lapl_soa,
        nu,
        k2: cfg.k2,
        k4: cfg.k4,
        coarse_k2: cfg.coarse_k2,
    }
}

/// What happens to a side's target buffers before each timed call.
#[derive(Clone, Copy, PartialEq)]
enum Fill {
    /// Zeroed outside the timed region.
    Untimed,
    /// Zeroed inside the timed region.
    Timed,
    /// Left as the previous round wrote them.
    Skipped,
}

/// `(AoS, SoA)` fills of a row where both sides are edge scatters
/// accumulating into zeroed targets: zeroing is identical work, outside
/// both timed regions.
const SCATTER: (Fill, Fill) = (Fill::Untimed, Fill::Untimed);

/// `(AoS, SoA)` fills of a row whose SoA side is a vertex gather
/// overwriting every slot: it gets no zero-fill at all (the identity
/// check starts it from NaN to prove it needs none), and the AoS
/// scatter it replaces is timed with the fill it cannot do without.
const GATHER: (Fill, Fill) = (Fill::Timed, Fill::Skipped);

/// Time one kernel in both layouts. `aos` and `soa` must produce the
/// same per-vertex sums in their target buffers; the outputs are
/// asserted bit-identical before the timed rounds, so a fast-but-wrong
/// kernel can't pass the gate.
#[allow(clippy::too_many_arguments)]
fn sample<A, S>(
    name: &str,
    nedges: usize,
    rounds: usize,
    // One (vertices, components) pair per scatter target; the AoS
    // baseline writes interleaved rows, the SoA kernel planes.
    targets: &[(usize, usize)],
    aos: A,
    soa: S,
    (aos_fill, soa_fill): (Fill, Fill),
    flops_per_item: f64,
    f64s_per_item: f64,
) -> KernelSample
where
    A: Fn(&mut [Vec<f64>]),
    S: Fn(&mut [Vec<f64>]),
{
    let soa_init = if soa_fill == Fill::Skipped {
        f64::NAN
    } else {
        0.0
    };
    let mut bufs_aos: Vec<Vec<f64>> = targets.iter().map(|&(n, nc)| vec![0.0; n * nc]).collect();
    let mut bufs_soa: Vec<Vec<f64>> = targets
        .iter()
        .map(|&(n, nc)| vec![soa_init; n * nc])
        .collect();

    // Bit-identity check: one application of each, with the interleaved
    // baseline transposed into planes for the compare.
    aos(&mut bufs_aos);
    soa(&mut bufs_soa);
    for (t, ((a, s), &(_, nc))) in bufs_aos.iter().zip(&bufs_soa).zip(targets).enumerate() {
        let a_planes = SoaState::from_aos(a, nc);
        assert_eq!(
            a_planes.flat(),
            &s[..],
            "{name}: SoA target {t} is not bit-identical to the AoS baseline"
        );
    }

    // Report min-of-rounds × rounds: on a single-core host any OS
    // preemption lands inside some round, so the per-round minimum is
    // the jitter-robust estimate of true kernel time.
    let warm = (rounds / 10).max(2);
    let zero = |bufs: &mut [Vec<f64>]| bufs.iter_mut().for_each(|b| b.fill(0.0));
    let time = |f: &dyn Fn(&mut [Vec<f64>]), bufs: &mut [Vec<f64>], fill: Fill| -> f64 {
        let mut best = f64::INFINITY;
        for round in 0..warm + rounds {
            if fill == Fill::Untimed {
                zero(bufs);
            }
            let t0 = Instant::now();
            if fill == Fill::Timed {
                zero(bufs);
            }
            f(bufs);
            if round >= warm {
                best = best.min(t0.elapsed().as_secs_f64());
            }
        }
        best * rounds as f64
    };
    let aos_seconds = time(&aos, &mut bufs_aos, aos_fill);
    let soa_seconds = time(&soa, &mut bufs_soa, soa_fill);

    KernelSample {
        name: name.to_string(),
        items: nedges as u64,
        rounds: rounds as u64,
        aos_seconds,
        soa_seconds,
        flops_per_item,
        f64s_per_item,
    }
}

/// Run a SoA kernel body against a freshly-built [`ScatterAccess`] over
/// `bufs` (one target per buffer).
fn with_access(bufs: &mut [Vec<f64>], f: impl Fn(&ScatterAccess)) {
    let mut refs: Vec<&mut [f64]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
    let access = ScatterAccess::new(&mut refs);
    f(&access);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate: Option<f64> = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| args[i + 1].parse().expect("--gate takes a ratio"));
    let mut rounds: usize = std::env::var("EUL3D_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    if smoke {
        rounds = rounds.min(20);
    }
    let out_path =
        std::env::var("EUL3D_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string());

    let wl = workload(smoke);
    let n = wl.mesh.nverts();
    let ne = wl.mesh.nedges();
    let lanes = SolverConfig::default().lanes;
    let span = EdgeSpan::Range(0..ne);
    let adj = vertex_vertex_adjacency(n, &wl.mesh.edges);
    println!(
        "kernel benchmark: {} vertices, {} edges, lane width {}, {} rounds{}",
        n,
        ne,
        lanes,
        rounds,
        if smoke { " (smoke)" } else { "" }
    );

    // Per-edge f64 traffic models (reads + 2× scatter slots), documented
    // in eul3d_perf::kernels. AoS and SoA touch the same slot count —
    // the layouts differ in locality, not volume. The two gather rows
    // are modeled as what they move per edge instead: both directions'
    // gathered operands (2 × 5, 2 × 6), two u32 neighbour ids, and the
    // per-vertex own reads, stores and row offset spread over ≈ 6.2
    // edges per vertex.
    let samples = vec![
        sample(
            "conv_flux",
            ne,
            rounds,
            &[(n, NVAR)],
            |b| {
                conv_residual_edges(
                    &wl.mesh.edges,
                    &wl.mesh.edge_coef,
                    &wl.w_aos,
                    &wl.p,
                    &mut b[0],
                )
            },
            |b| {
                with_access(b, |s| unsafe {
                    eul3d_kernels::conv_flux_edges(
                        &span,
                        &wl.mesh.edges,
                        &wl.mesh.edge_coef,
                        wl.w_soa.flat(),
                        &wl.p,
                        n,
                        s,
                        lanes,
                    )
                })
            },
            SCATTER,
            FLOPS_CONV_EDGE,
            35.0,
        ),
        sample(
            "jst_pass1",
            ne,
            rounds,
            &[(n, NVAR), (n, 2)],
            |b| {
                let (lapl, sens) = b.split_at_mut(1);
                laplacian_pass(&wl.mesh.edges, &wl.w_aos, &wl.p, &mut lapl[0], &mut sens[0])
            },
            |b| {
                with_access(b, |s| unsafe {
                    eul3d_kernels::jst_gather_verts(0..n, &adj, wl.w_soa.flat(), &wl.p, n, s)
                })
            },
            GATHER,
            FLOPS_DISS_P1_EDGE,
            15.0,
        ),
        sample(
            "jst_pass2",
            ne,
            rounds,
            &[(n, NVAR)],
            |b| {
                dissipation_pass(
                    &wl.mesh.edges,
                    &wl.mesh.edge_coef,
                    &wl.w_aos,
                    &wl.p,
                    &wl.lapl_aos,
                    &wl.nu,
                    GAMMA,
                    wl.k2,
                    wl.k4,
                    &mut b[0],
                )
            },
            |b| {
                with_access(b, |s| unsafe {
                    eul3d_kernels::jst_pass2_edges(
                        &span,
                        &wl.mesh.edges,
                        &wl.mesh.edge_coef,
                        GAMMA,
                        wl.k2,
                        wl.k4,
                        wl.w_soa.flat(),
                        &wl.p,
                        wl.lapl_soa.flat(),
                        &wl.nu,
                        n,
                        s,
                        lanes,
                    )
                })
            },
            SCATTER,
            FLOPS_DISS_P2_EDGE,
            47.0,
        ),
        sample(
            "first_order_diss",
            ne,
            rounds,
            &[(n, NVAR)],
            |b| {
                dissipation_first_order(
                    &wl.mesh.edges,
                    &wl.mesh.edge_coef,
                    &wl.w_aos,
                    &wl.p,
                    GAMMA,
                    wl.coarse_k2,
                    &mut b[0],
                )
            },
            |b| {
                with_access(b, |s| unsafe {
                    eul3d_kernels::first_order_diss_edges(
                        &span,
                        &wl.mesh.edges,
                        &wl.mesh.edge_coef,
                        GAMMA,
                        wl.coarse_k2,
                        wl.w_soa.flat(),
                        &wl.p,
                        n,
                        s,
                        lanes,
                    )
                })
            },
            SCATTER,
            FLOPS_DISS_FO_EDGE,
            35.0,
        ),
        sample(
            "roe_diss",
            ne,
            rounds,
            &[(n, NVAR)],
            |b| {
                roe_dissipation_edges(
                    &wl.mesh.edges,
                    &wl.mesh.edge_coef,
                    &wl.w_aos,
                    &wl.p,
                    GAMMA,
                    &mut b[0],
                )
            },
            |b| {
                with_access(b, |s| unsafe {
                    eul3d_kernels::roe_diss_edges(
                        &span,
                        &wl.mesh.edges,
                        &wl.mesh.edge_coef,
                        GAMMA,
                        wl.w_soa.flat(),
                        &wl.p,
                        n,
                        s,
                        lanes,
                    )
                })
            },
            SCATTER,
            FLOPS_DISS_ROE_EDGE,
            35.0,
        ),
        sample(
            "radii",
            ne,
            rounds,
            &[(n, 1)],
            |b| {
                radii_edges(
                    &wl.mesh.edges,
                    &wl.mesh.edge_coef,
                    &wl.w_aos,
                    &wl.p,
                    GAMMA,
                    &mut b[0],
                )
            },
            |b| {
                with_access(b, |s| unsafe {
                    eul3d_kernels::radii_edges_soa(
                        &span,
                        &wl.mesh.edges,
                        &wl.mesh.edge_coef,
                        GAMMA,
                        wl.w_soa.flat(),
                        &wl.p,
                        n,
                        s,
                        lanes,
                    )
                })
            },
            SCATTER,
            FLOPS_RADII_EDGE,
            19.0,
        ),
        sample(
            "smooth_accumulate",
            ne,
            rounds,
            &[(n, NVAR)],
            |b| smooth_accumulate(&wl.mesh.edges, &wl.w_aos, &mut b[0]),
            |b| {
                with_access(b, |s| unsafe {
                    eul3d_kernels::neighbour_sum_verts(0..n, &adj, wl.w_soa.flat(), n, s)
                })
            },
            GATHER,
            FLOPS_SMOOTH_EDGE,
            12.0,
        ),
    ];

    for s in &samples {
        println!(
            "{:<18} {:>9} edges  aos {:>9.3e} s  soa {:>9.3e} s  speedup {:>5.2}x  {:>7.3} GFLOP/s  {:>7.3} GB/s",
            s.name,
            s.items,
            s.aos_seconds / s.rounds as f64,
            s.soa_seconds / s.rounds as f64,
            s.speedup(),
            s.soa_gflops(),
            s.soa_bandwidth_gbs(),
        );
    }
    let agg = aggregate_speedup(&samples);
    println!("aggregate speedup (time-weighted): {agg:.3}x");

    let config = format!(
        "{{\"nverts\": {n}, \"nedges\": {ne}, \"lanes\": {lanes}, \"rounds\": {rounds}, \"smoke\": {smoke}}}"
    );
    std::fs::write(&out_path, kernels_report_json(&config, &samples))
        .expect("write BENCH_kernels.json");
    println!("wrote {out_path}");

    if let Some(g) = gate {
        assert!(
            agg >= g,
            "aggregate SoA speedup {agg:.3}x is below the required {g}x gate"
        );
        println!("gate {g}x passed");
    }
}
