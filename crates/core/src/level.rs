//! Per-level solver state and **the** five-stage time step — eq. (1) of
//! the paper, with the dissipative operator evaluated at the first two
//! stages and frozen for the remainder.
//!
//! Every routine here is written once, generic over an
//! [`Executor`](crate::executor::Executor): the sequential reference, the
//! shared-memory team and the PARTI distributed path all run this exact
//! code, differing only in how the edge loops are scheduled and how
//! ghost data is kept coherent. This is the paper's central
//! architectural claim, made literal.
//!
//! The hot per-vertex fields live in plane-major [`SoaState`] arrays and
//! the loops call the kernels of [`eul3d_kernels`]: lane-chunked edge
//! scatters through [`Executor::for_edge_spans`] where an edge quantity
//! is computed once and used twice, vertex maps and gathers through
//! [`Executor::for_vertex_range`] and the level's adjacency
//! ([`LevelState::adj`]) for the two pure neighbour sums (residual
//! averaging, JST pass 1) — see that crate's docs for the
//! bit-equivalence contract that keeps all three backends producing the
//! exact bits of the old interleaved path. The gathers are still
//! *charged* as the edge loops of the paper ([`count_edge_loop`]: same
//! flops per edge, same launches per colour), because [`PhaseCounters`]
//! feeds the C90 and i860 machine models, not the host.

use std::ops::Range;

use eul3d_kernels as kn;
use eul3d_mesh::topology::vertex_vertex_adjacency;
use eul3d_mesh::{BoundaryFace, Csr, TetMesh, Vec3};
use eul3d_partition::RankMesh;

use crate::boundary::{boundary_face_counts, boundary_residual_soa, charge_boundary_faces};
use crate::config::SolverConfig;
use crate::counters::{
    PhaseCounters, FLOPS_ASSEMBLE_VERT, FLOPS_CONV_EDGE, FLOPS_DISS_FO_EDGE, FLOPS_DISS_P1_EDGE,
    FLOPS_DISS_P2_EDGE, FLOPS_DISS_ROE_EDGE, FLOPS_DT_VERT, FLOPS_PRESSURE_VERT, FLOPS_RADII_EDGE,
    FLOPS_SMOOTH_EDGE, FLOPS_SMOOTH_VERT, FLOPS_UPDATE_VERT,
};
use crate::executor::{
    count_edge_loop, count_vertex_loop, Executor, HaloOp, Phase, MAX_SCATTER_TARGETS,
};
use crate::gas::NVAR;
use crate::smooth::degrees_from_edges;
use crate::soa::SoaState;
use crate::timestep::radii_bfaces_soa;

/// Anything a solver level can time-step on: an edge list with dual-face
/// coefficients, tagged boundary faces, and control volumes. Implemented
/// by [`TetMesh`], by agglomerated coarse levels
/// ([`crate::agglo::AggloLevel`]), and by the per-rank local meshes of
/// the distributed path ([`RankMesh`]). Grids are plain data, shared
/// read-only by the set-up's two threads.
pub trait SolverGrid: Sync {
    fn grid_edges(&self) -> &[[u32; 2]];
    fn grid_edge_coef(&self) -> &[Vec3];
    fn grid_bfaces(&self) -> &[BoundaryFace];
    /// Control volumes of the vertices this participant *owns* (updates).
    fn grid_vol(&self) -> &[f64];
    /// Total per-vertex array length — owned plus ghost slots. Equal to
    /// `grid_vol().len()` except on rank-local meshes.
    fn grid_nverts(&self) -> usize {
        self.grid_vol().len()
    }
}

impl SolverGrid for TetMesh {
    fn grid_edges(&self) -> &[[u32; 2]] {
        &self.edges
    }
    fn grid_edge_coef(&self) -> &[Vec3] {
        &self.edge_coef
    }
    fn grid_bfaces(&self) -> &[BoundaryFace] {
        &self.bfaces
    }
    fn grid_vol(&self) -> &[f64] {
        &self.vol
    }
}

impl SolverGrid for RankMesh {
    fn grid_edges(&self) -> &[[u32; 2]] {
        &self.edges
    }
    fn grid_edge_coef(&self) -> &[Vec3] {
        &self.edge_coef
    }
    fn grid_bfaces(&self) -> &[BoundaryFace] {
        &self.bfaces
    }
    fn grid_vol(&self) -> &[f64] {
        &self.vol
    }
    fn grid_nverts(&self) -> usize {
        self.n_local()
    }
}

/// All per-vertex working arrays of one solver level. Vector fields are
/// plane-major [`SoaState`]s; scalars are plain `Vec<f64>`. Sized by
/// [`SolverGrid::grid_nverts`], so on the distributed path every array
/// carries ghost slots after the owned prefix.
///
/// Four buffers carry two roles each, at phases that never overlap
/// (DESIGN.md §9 tabulates them): `res`, `lapl`, `r0` and `w0`. Each role
/// is written before it is read.
#[derive(Debug, Clone)]
pub struct LevelState {
    /// Per-vertex slot count of this level (owned + ghost).
    pub n: usize,
    /// Conserved variables (5 planes).
    pub w: SoaState,
    /// Stage-reference state `w^(0)` (5 planes), live inside a time
    /// step. Between steps it is the multigrid correction buffer
    /// ([`crate::fas`]): the restricted residual until the coarse
    /// forcing is formed, then the correction `w − w'` and its
    /// prolongation.
    pub w0: SoaState,
    /// Pressures (n).
    pub p: Vec<f64>,
    /// Undivided Laplacian of `w` (5 planes), live from JST pass 1 to
    /// the stage's flow sweep. After the sweep it is the neighbour-sum
    /// buffer of residual averaging (and of the agglomerated correction
    /// smoothing).
    pub lapl: SoaState,
    /// Shock sensor ν (n).
    pub nu: Vec<f64>,
    /// Frozen dissipation `D` (5 planes).
    pub diss: SoaState,
    /// Convective flux sums `Q` (5 planes: edges, boundary faces and the
    /// ghost scatter-add) from the flow sweep until assembly; then the
    /// total (smoothed) residual `R = Q − D + P`.
    pub res: SoaState,
    /// Unsmoothed residual `R` (5 planes), the Jacobi baseline, from
    /// assembly to the last averaging pass. Until the next assembly its
    /// planes [`LevelState::SENS`] hold the pressure-sensor sums and its
    /// plane [`LevelState::LAM`] the spectral-radius sums Λ.
    pub r0: SoaState,
    /// Local time steps (n).
    pub dt: Vec<f64>,
    /// Vertex degrees for residual averaging (n). Built from the local
    /// edge list, so rank-local states hold *partial* degrees until the
    /// one-time setup scatter-add.
    pub deg: Vec<f64>,
    /// Vertex → neighbour-vertex adjacency over all `n` local slots,
    /// rows in ascending local-edge order: what the two neighbour-sum
    /// loops (residual averaging, JST pass 1) gather through.
    pub adj: Csr,
    /// The level's boundary faces by kind, `(wall or symmetry, far
    /// field)`: what one boundary-flux pass is charged.
    pub bface_counts: (usize, usize),
    /// Multigrid forcing function `P` (5 planes); zero on the finest
    /// level.
    pub forcing: SoaState,
    /// Restricted state `w'` (5 planes), the correction baseline.
    pub w_ref: SoaState,
}

impl LevelState {
    /// The planes of [`LevelState::r0`] that hold the pressure-sensor
    /// sums `Σ(p_j−p_i), Σ(p_j+p_i)` from JST pass 1 to the sensor.
    pub const SENS: Range<usize> = 0..2;
    /// The plane of [`LevelState::r0`] that holds the spectral-radius
    /// sums Λ from the stage-0 flow sweep to the local time steps.
    pub const LAM: usize = 2;

    /// Fresh state at uniform freestream.
    pub fn new<G: SolverGrid + ?Sized>(mesh: &G, cfg: &SolverConfig) -> LevelState {
        let n = mesh.grid_nverts();
        let fs = cfg.freestream();
        let mut w = SoaState::new(n, NVAR);
        w.fill_rows(&fs.w);
        LevelState {
            n,
            w0: w.clone(),
            w,
            p: vec![0.0; n],
            lapl: SoaState::new(n, NVAR),
            nu: vec![0.0; n],
            diss: SoaState::new(n, NVAR),
            res: SoaState::new(n, NVAR),
            r0: SoaState::new(n, NVAR),
            dt: vec![0.0; n],
            deg: degrees_from_edges(mesh.grid_edges(), n),
            adj: vertex_vertex_adjacency(n, mesh.grid_edges()),
            bface_counts: boundary_face_counts(mesh.grid_bfaces()),
            forcing: SoaState::new(n, NVAR),
            w_ref: SoaState::new(n, NVAR),
        }
    }

    /// Every per-vertex `f64` array of the level, in field order: the
    /// one list of its buffers.
    pub fn arrays(&self) -> [&[f64]; 12] {
        [
            self.w.flat(),
            self.w0.flat(),
            &self.p,
            self.lapl.flat(),
            &self.nu,
            self.diss.flat(),
            self.res.flat(),
            self.r0.flat(),
            &self.dt,
            &self.deg,
            self.forcing.flat(),
            self.w_ref.flat(),
        ]
    }

    /// Heap bytes of the level's working arrays: every array of
    /// [`LevelState::arrays`] plus the adjacency.
    pub fn heap_bytes(&self) -> usize {
        let f64s: usize = self.arrays().iter().map(|a| a.len()).sum();
        let u32s = self.adj.offsets.len() + self.adj.items.len();
        f64s * std::mem::size_of::<f64>() + u32s * std::mem::size_of::<u32>()
    }

    /// RMS of the density residual normalized by dual volume — the
    /// "average residual throughout the flow field" the paper monitors.
    /// Covers the `vol.len()` owned vertices.
    pub fn density_residual_norm(&self, vol: &[f64]) -> f64 {
        let (sum, count) = self.residual_norm_parts(vol);
        (sum / count.max(1.0)).sqrt()
    }

    /// Squared density-residual sum and owned-vertex count, the two
    /// pieces a distributed norm reduces before taking the square root.
    pub fn residual_norm_parts(&self, vol: &[f64]) -> (f64, f64) {
        let n = vol.len().min(self.n);
        let rho_res = self.res.plane(0);
        let mut sum = 0.0;
        for i in 0..n {
            let r = rho_res[i] / vol[i];
            sum += r * r;
        }
        (sum, n as f64)
    }
}

/// Per-vertex pressures for every local slot (ghost pressures are
/// recomputed redundantly rather than exchanged — they are cheaper to
/// evaluate than to communicate). Only the owned work is charged, so the
/// rank-summed count matches the serial count exactly.
pub fn compute_pressures_exec<E: Executor + ?Sized>(
    gamma: f64,
    st: &mut LevelState,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    let owned = exec.owned(st.n);
    let (n, w) = (st.n, &st.w);
    exec.for_vertex_range(0..st.n, &mut [&mut st.p[..]], |range, s| {
        // SAFETY: plane sizes match, ranges are disjoint (executor
        // contract).
        unsafe { kn::pressure_verts(range, gamma, w.flat(), n, s) }
    });
    count_vertex_loop(counters, Phase::Pressure, owned, FLOPS_PRESSURE_VERT);
}

/// The per-stage flow gather fused with the pressure loop: begin the
/// ghost gather of `st.w`, price the owned pressures while the halo is
/// in flight, finish the gather, then recompute ghost pressures from the
/// freshly arrived flow state. Pressure is a pure per-vertex function,
/// so splitting the loop at the owned/ghost boundary changes no value
/// and no accumulation order — every backend produces bit-identical
/// `st.p` to [`compute_pressures_exec`]. Ghost pressures stay uncounted
/// (they are recomputed redundantly rather than exchanged), so the
/// rank-summed count still matches the serial count exactly.
fn gather_flow_and_pressures<E: Executor + ?Sized>(
    gamma: f64,
    st: &mut LevelState,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    let owned = exec.owned(st.n);
    exec.exchange_begin(
        Phase::Exchange,
        HaloOp::Gather,
        st.w.flat_mut(),
        NVAR,
        counters,
    );
    let n = st.n;
    {
        let w = &st.w;
        exec.for_vertex_range(0..owned, &mut [&mut st.p[..]], |range, s| {
            // SAFETY: plane sizes match, ranges are disjoint (executor
            // contract).
            unsafe { kn::pressure_verts(range, gamma, w.flat(), n, s) }
        });
    }
    count_vertex_loop(counters, Phase::Pressure, owned, FLOPS_PRESSURE_VERT);
    exec.exchange_finish(
        Phase::Exchange,
        HaloOp::Gather,
        st.w.flat_mut(),
        NVAR,
        counters,
    );
    {
        let w = &st.w;
        exec.for_vertex_range(owned..n, &mut [&mut st.p[..]], |range, s| {
            // SAFETY: plane sizes match, ranges are disjoint (executor
            // contract).
            unsafe { kn::pressure_verts(range, gamma, w.flat(), n, s) }
        });
    }
}

/// The outputs of one flow sweep ([`eval_flow`]).
#[derive(Debug, Clone, Copy)]
struct Outputs {
    /// The dissipation operator `D` into `st.diss`.
    diss: bool,
    /// The convective operator `Q` into `st.res`, boundary fluxes
    /// included.
    conv: bool,
    /// The spectral radii into plane [`LevelState::LAM`] of `st.r0`, and
    /// from them the local time steps `st.dt`.
    radii: bool,
}

/// The dissipation a level evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DissKind {
    /// JST: pass 1 (a vertex gather) and the sensor, then pass 2 in the
    /// flow sweep.
    Jst,
    /// First order, on coarse levels when `coarse_first_order` is set.
    FirstOrder,
    /// Roe matrix dissipation: no pass 1, no sensor.
    Roe,
}

impl DissKind {
    fn of(cfg: &SolverConfig, is_coarse: bool) -> DissKind {
        if cfg.scheme == crate::config::Scheme::RoeUpwind {
            DissKind::Roe
        } else if is_coarse && cfg.coarse_first_order {
            DissKind::FirstOrder
        } else {
            DissKind::Jst
        }
    }

    /// Flops per edge of the paper's loop the flow sweep stands for.
    fn flops_per_edge(self) -> f64 {
        match self {
            DissKind::Jst => FLOPS_DISS_P2_EDGE,
            DissKind::FirstOrder => FLOPS_DISS_FO_EDGE,
            DissKind::Roe => FLOPS_DISS_ROE_EDGE,
        }
    }
}

/// Evaluate the dissipation operator into `st.diss` (fresh). Assumes
/// ghost `w` is current unless the executor is configured to refetch.
pub fn eval_dissipation<G: SolverGrid + ?Sized, E: Executor + ?Sized>(
    mesh: &G,
    st: &mut LevelState,
    cfg: &SolverConfig,
    is_coarse: bool,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    let out = Outputs {
        diss: true,
        conv: false,
        radii: false,
    };
    eval_flow(mesh, st, cfg, is_coarse, exec, counters, out);
}

/// Evaluate the convective operator into `st.res` (fresh), including
/// boundary fluxes. Boundary faces follow the edge sweep under the same
/// ownership rule; each face is *charged* once (by exactly one rank on
/// the distributed path), so the rank-summed face counts still match
/// the serial reference.
pub fn eval_convection<G: SolverGrid + ?Sized, E: Executor + ?Sized>(
    mesh: &G,
    st: &mut LevelState,
    cfg: &SolverConfig,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    let out = Outputs {
        diss: false,
        conv: true,
        radii: false,
    };
    eval_flow(mesh, st, cfg, false, exec, counters, out);
}

/// JST pass 1 and the shock sensor: the undivided Laplacian and the
/// pressure-sensor sums (planes [`LevelState::SENS`] of `st.r0`),
/// gathered per vertex over every local
/// slot (ghost slots hold the partial sums of the rank-local edges,
/// exactly as the edge loop left them) and charged as the edge loop the
/// paper's machines run; then ν on owned vertices and the ghost copies
/// of L and ν the flow sweep reads. Every exchange here is synchronous:
/// its result feeds the sweep at once.
fn jst_pass1<E: Executor + ?Sized>(
    st: &mut LevelState,
    nedges: usize,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    let n = st.n;
    {
        let (w, p, adj) = (&st.w, &st.p, &st.adj);
        let (lapl, sens) = (st.lapl.flat_mut(), st.r0.planes_mut(LevelState::SENS));
        exec.for_vertex_range(0..n, &mut [lapl, sens], |range, s| {
            // SAFETY: disjoint ranges (executor contract); `adj` was
            // built over these `n` slots from the level's edge list.
            unsafe { kn::jst_gather_verts(range, adj, w.flat(), p, n, s) }
        });
    }
    count_edge_loop(
        counters,
        Phase::Dissipation,
        exec,
        nedges,
        FLOPS_DISS_P1_EDGE,
    );
    exec.exchange_halo(
        Phase::Dissipation,
        HaloOp::ScatterAdd,
        st.lapl.flat_mut(),
        NVAR,
        counters,
    );
    exec.exchange_halo(
        Phase::Dissipation,
        HaloOp::ScatterAdd,
        st.r0.planes_mut(LevelState::SENS),
        2,
        counters,
    );

    // ν for owned vertices (uncounted, matching the sequential
    // reference), then ghost copies of L and ν for pass 2.
    {
        let owned = exec.owned(st.n);
        let sens = st.r0.planes(LevelState::SENS);
        exec.for_vertex_range(0..owned, &mut [&mut st.nu[..]], |range, s| {
            // SAFETY: disjoint ranges (executor contract).
            unsafe { kn::sensor_verts(range, sens, n, s) }
        });
    }
    exec.exchange_halo(
        Phase::Dissipation,
        HaloOp::Gather,
        st.lapl.flat_mut(),
        NVAR,
        counters,
    );
    exec.exchange_halo(Phase::Dissipation, HaloOp::Gather, &mut st.nu, 1, counters);
}

/// **The** flow sweep of a stage: every edge output `out` asks for —
/// dissipation, convection, spectral radii — in one pass over the edges
/// ([`kn::flow_edges`]), after JST pass 1 where the scheme has one.
///
/// The paper's machines run one loop per output, and that is what is
/// charged: after the sweep each output is counted as its own edge loop
/// ([`count_edge_loop`]), and every halo operation keeps its phase and
/// its place in the schedule streams — the `lam` scatter and the local
/// time steps, then the `diss` scatter begun, the boundary fluxes while
/// it is in flight, the `diss` scatter finished, and last the `Q`
/// scatter (both scatters ride one schedule stream, so issuing `Q`'s
/// first would misorder their epochs). Under the §4.3 refetch ablation
/// the executor re-gathers `w` once per paper loop, as many times as
/// the unfused loops did.
fn eval_flow<G: SolverGrid + ?Sized, E: Executor + ?Sized>(
    mesh: &G,
    st: &mut LevelState,
    cfg: &SolverConfig,
    is_coarse: bool,
    exec: &mut E,
    counters: &mut PhaseCounters,
    out: Outputs,
) {
    let edges = mesh.grid_edges();
    let coef = mesh.grid_edge_coef();
    let (n, lanes, gamma) = (st.n, cfg.lanes, cfg.gamma);
    let kind = out.diss.then(|| DissKind::of(cfg, is_coarse));
    if let Some(kind) = kind {
        exec.refetch(&mut st.w, counters);
        st.diss.fill(0.0);
        if kind == DissKind::Jst {
            jst_pass1(st, edges.len(), exec, counters);
            exec.refetch(&mut st.w, counters);
        }
    }
    if out.conv {
        st.res.fill(0.0);
    }
    if out.radii {
        st.r0.plane_mut(LevelState::LAM).fill(0.0);
    }
    {
        let diss = match kind {
            None => kn::Dissipation::None,
            Some(DissKind::Jst) => kn::Dissipation::Jst {
                k2: cfg.k2,
                k4: cfg.k4,
                lapl: st.lapl.flat(),
                nu: &st.nu,
            },
            Some(DissKind::FirstOrder) => kn::Dissipation::FirstOrder {
                kdiss: cfg.coarse_k2,
            },
            Some(DissKind::Roe) => kn::Dissipation::Roe,
        };
        let f = kn::FlowSweep {
            coef,
            gamma,
            w: st.w.flat(),
            p: &st.p,
            n,
            diss,
            conv: out.conv,
            radii: out.radii,
        };
        // Packed in the kernel's target order, on the stack: a
        // steady-state cycle allocates nothing.
        let mut targets: [&mut [f64]; MAX_SCATTER_TARGETS] = Default::default();
        let wanted = [
            out.diss.then_some(st.diss.flat_mut()),
            out.conv.then_some(st.res.flat_mut()),
            out.radii.then_some(st.r0.plane_mut(LevelState::LAM)),
        ];
        let mut k = 0;
        for t in wanted.into_iter().flatten() {
            targets[k] = t;
            k += 1;
        }
        exec.for_edge_spans(edges.len(), &mut targets[..k], |span, s| {
            // SAFETY: endpoint-only writes (executor conflict contract);
            // targets packed and sized as `FlowSweep` documents.
            unsafe { kn::flow_edges(span, edges, &f, s, lanes) }
        });
    }

    if out.radii {
        // Local time steps from the stage-0 state, held for the step.
        count_edge_loop(counters, Phase::Radii, exec, edges.len(), FLOPS_RADII_EDGE);
        let bfaces = mesh.grid_bfaces();
        {
            let (w, p) = (&st.w, &st.p);
            let lam = st.r0.plane_mut(LevelState::LAM);
            exec.for_face_spans(bfaces.len(), &mut [lam], |span, s| {
                // SAFETY: owned face vertices only (executor conflict
                // contract).
                unsafe { radii_bfaces_soa(span, bfaces, w, p, gamma, s) }
            });
        }
        counters
            .phase(Phase::Radii)
            .add(bfaces.len(), FLOPS_RADII_EDGE);
        let lam = st.r0.plane_mut(LevelState::LAM);
        exec.exchange_halo(Phase::Radii, HaloOp::ScatterAdd, lam, 1, counters);
        let owned = exec.owned(st.n);
        {
            let vol = mesh.grid_vol();
            let (lam, cfl) = (st.r0.plane(LevelState::LAM), cfg.cfl);
            exec.for_vertex_range(0..owned, &mut [&mut st.dt[..]], |range, s| {
                // SAFETY: disjoint ranges (executor contract).
                unsafe { kn::local_dt_verts(range, cfl, vol, lam, s) }
            });
        }
        count_vertex_loop(counters, Phase::Radii, owned, FLOPS_DT_VERT);
    }
    if let Some(kind) = kind {
        count_edge_loop(
            counters,
            Phase::Dissipation,
            exec,
            edges.len(),
            kind.flops_per_edge(),
        );
        exec.exchange_begin(
            Phase::Dissipation,
            HaloOp::ScatterAdd,
            st.diss.flat_mut(),
            NVAR,
            counters,
        );
    }
    if out.conv {
        exec.refetch(&mut st.w, counters);
        count_edge_loop(
            counters,
            Phase::Convection,
            exec,
            edges.len(),
            FLOPS_CONV_EDGE,
        );
        let fs = cfg.freestream();
        let bfaces = mesh.grid_bfaces();
        {
            let (w, p) = (&st.w, &st.p);
            exec.for_face_spans(bfaces.len(), &mut [st.res.flat_mut()], |span, s| {
                // SAFETY: owned face vertices only (executor conflict
                // contract); faces and planes sized by the level layout.
                unsafe { boundary_residual_soa(span, bfaces, w, p, &fs, gamma, s) }
            });
        }
        charge_boundary_faces(st.bface_counts, counters.phase(Phase::Boundary));
    }
    if out.diss {
        exec.exchange_finish(
            Phase::Dissipation,
            HaloOp::ScatterAdd,
            st.diss.flat_mut(),
            NVAR,
            counters,
        );
    }
    if out.conv {
        exec.exchange_halo(
            Phase::Convection,
            HaloOp::ScatterAdd,
            st.res.flat_mut(),
            NVAR,
            counters,
        );
    }
}

/// Whether a stage runs implicit residual averaging.
fn averages(cfg: &SolverConfig) -> bool {
    cfg.smooth_passes > 0 && cfg.smooth_eps != 0.0
}

/// Assemble `R = Q − D + P` on owned vertices into `st.r0`, the Jacobi
/// baseline [`smooth_residual`] starts from, reading the flux sums `Q`
/// the flow sweep left in `st.res`.
fn assemble_baseline<E: Executor + ?Sized>(
    st: &mut LevelState,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    let owned = exec.owned(st.n);
    let n = st.n;
    let (q, diss, forcing) = (&st.res, &st.diss, &st.forcing);
    exec.for_vertex_range(0..owned, &mut [st.r0.flat_mut()], |range, s| {
        // SAFETY: disjoint ranges (executor contract).
        unsafe { kn::assemble_verts(range, q.flat(), diss.flat(), forcing.flat(), n, s) }
    });
    count_vertex_loop(counters, Phase::Assemble, owned, FLOPS_ASSEMBLE_VERT);
}

/// Assemble `R = Q − D + P` on owned vertices into `st.res`, from the
/// flux sums `Q` the flow sweep left there. The kernel cannot read and
/// write one buffer, so it writes `st.r0` and the two buffers trade
/// places: `res` holds `R` with nothing copied, and `r0` the spent `Q`.
pub fn assemble_residual<E: Executor + ?Sized>(
    st: &mut LevelState,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    assemble_baseline(st, exec, counters);
    std::mem::swap(&mut st.res, &mut st.r0);
}

/// Implicit residual averaging: `passes` Jacobi sweeps of
/// `(I − εΔ) R̄ = R` over the owned prefix, from the baseline `R` that
/// assembly wrote into `st.r0`, into `st.res`. The first pass gathers
/// its neighbours from `st.r0` itself, later passes from `st.res`; the
/// neighbour sums land in `st.lapl`, whose Laplacian the flow sweep has
/// already consumed.
pub fn smooth_residual<G: SolverGrid + ?Sized, E: Executor + ?Sized>(
    mesh: &G,
    st: &mut LevelState,
    cfg: &SolverConfig,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    if !averages(cfg) {
        return;
    }
    let owned = exec.owned(st.n);
    let edges = mesh.grid_edges();
    let eps = cfg.smooth_eps;
    let n = st.n;
    for pass in 0..cfg.smooth_passes {
        let src = if pass == 0 { &mut st.r0 } else { &mut st.res };
        // A begin/finish pair, not one `exchange_halo`: the window
        // transport emits a span for each and traces are pinned to
        // that; the gather needs every ghost, so nothing overlaps.
        exec.exchange_begin(
            Phase::Smooth,
            HaloOp::Gather,
            src.flat_mut(),
            NVAR,
            counters,
        );
        exec.exchange_finish(
            Phase::Smooth,
            HaloOp::Gather,
            src.flat_mut(),
            NVAR,
            counters,
        );
        // Neighbour sums over every local slot (ghost slots collect the
        // rank-local partial sums the scatter-add below flushes),
        // charged as the edge loop the paper's machines run.
        {
            let (src, adj) = (&*src, &st.adj);
            exec.for_vertex_range(0..n, &mut [st.lapl.flat_mut()], |range, s| {
                // SAFETY: disjoint ranges (executor contract); `adj` was
                // built over these `n` slots from the level's edge list.
                unsafe { kn::neighbour_sum_verts(range, adj, src.flat(), n, s) }
            });
        }
        count_edge_loop(
            counters,
            Phase::Smooth,
            exec,
            edges.len(),
            FLOPS_SMOOTH_EDGE,
        );
        exec.exchange_halo(
            Phase::Smooth,
            HaloOp::ScatterAdd,
            st.lapl.flat_mut(),
            NVAR,
            counters,
        );
        {
            let (r0, acc, deg) = (&st.r0, &st.lapl, &st.deg);
            exec.for_vertex_range(0..owned, &mut [st.res.flat_mut()], |range, s| {
                // SAFETY: disjoint ranges (executor contract).
                unsafe { kn::smooth_update_verts(range, r0.flat(), acc.flat(), deg, eps, n, s) }
            });
        }
        count_vertex_loop(counters, Phase::Smooth, owned, FLOPS_SMOOTH_VERT);
    }
}

/// Full fresh residual evaluation (used for multigrid transfers and
/// monitoring): exchange → pressures → dissipation → convection →
/// assembly.
pub fn eval_total_residual<G: SolverGrid + ?Sized, E: Executor + ?Sized>(
    mesh: &G,
    st: &mut LevelState,
    cfg: &SolverConfig,
    is_coarse: bool,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    gather_flow_and_pressures(cfg.gamma, st, exec, counters);
    let out = Outputs {
        diss: true,
        conv: true,
        radii: false,
    };
    eval_flow(mesh, st, cfg, is_coarse, exec, counters, out);
    assemble_residual(st, exec, counters);
}

/// One five-stage Runge–Kutta time step on a level (eq. (1)):
/// `w^(q) = w^(0) − α_q Δt/V [Q(w^(q−1)) − D(w^(≤1)) + P]`, with local
/// time steps and implicit residual averaging. Leaves the last stage's
/// smoothed residual in `st.res` for monitoring.
///
/// This is the single stage loop every backend executes; only the
/// [`Executor`] differs.
pub fn time_step<G: SolverGrid + ?Sized, E: Executor + ?Sized>(
    mesh: &G,
    st: &mut LevelState,
    cfg: &SolverConfig,
    is_coarse: bool,
    exec: &mut E,
    counters: &mut PhaseCounters,
) {
    let owned = exec.owned(st.n);
    debug_assert_eq!(owned, mesh.grid_vol().len());
    st.w0.copy_owned_from(&st.w, owned);
    let nstages = cfg.nstages();
    let n = st.n;
    for (stage, &alpha) in cfg.rk_alpha.iter().enumerate().take(nstages) {
        // One gather of the flow variables per stage (§4.3), reused by
        // every edge loop unless the executor is set to refetch; the
        // owned pressure loop overlaps the in-flight halo.
        gather_flow_and_pressures(cfg.gamma, st, exec, counters);

        // Dissipation at the first two stages, frozen after; the local
        // time steps from the stage-0 state, held for the step.
        let out = Outputs {
            diss: stage <= 1,
            conv: true,
            radii: stage == 0,
        };
        eval_flow(mesh, st, cfg, is_coarse, exec, counters, out);
        if averages(cfg) {
            assemble_baseline(st, exec, counters);
            smooth_residual(mesh, st, cfg, exec, counters);
        } else {
            assemble_residual(st, exec, counters);
        }

        {
            let vol = mesh.grid_vol();
            let (w0, res, dt) = (&st.w0, &st.res, &st.dt);
            exec.for_vertex_range(0..owned, &mut [st.w.flat_mut()], |range, s| {
                // SAFETY: disjoint ranges (executor contract).
                unsafe { kn::rk_update_verts(range, alpha, w0.flat(), res.flat(), dt, vol, n, s) }
            });
        }
        count_vertex_loop(counters, Phase::Update, owned, FLOPS_UPDATE_VERT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SerialExecutor;
    use eul3d_mesh::gen::unit_box;

    #[test]
    fn freestream_is_a_fixed_point_of_the_time_step() {
        let mesh = unit_box(4, 0.2, 3);
        let cfg = SolverConfig::default();
        let mut st = LevelState::new(&mesh, &cfg);
        let before = st.w.clone();
        let mut counters = PhaseCounters::default();
        time_step(
            &mesh,
            &mut st,
            &cfg,
            false,
            &mut SerialExecutor,
            &mut counters,
        );
        for (a, b) in st.w.flat().iter().zip(before.flat()) {
            assert!(
                (a - b).abs() < 1e-11,
                "freestream must not drift: {a} vs {b}"
            );
        }
        assert!(st.density_residual_norm(mesh.grid_vol()) < 1e-12);
        assert!(counters.flops() > 0.0);
        // Serial execution exchanges nothing.
        assert_eq!(counters.messages(), 0);
    }

    #[test]
    fn perturbation_decays_under_time_stepping() {
        let mesh = unit_box(5, 0.15, 4);
        let cfg = SolverConfig {
            mach: 0.5,
            ..SolverConfig::default()
        };
        let mut st = LevelState::new(&mesh, &cfg);
        // Small density/energy bump in the middle of the box.
        for (i, c) in mesh.coords.iter().enumerate() {
            let r2 = (*c - eul3d_mesh::Vec3::new(0.5, 0.5, 0.5)).norm_sq();
            let bump = 0.05 * (-20.0 * r2).exp();
            st.w.add(i, 0, bump);
            st.w.add(i, 4, bump * 2.0);
        }
        let mut counters = PhaseCounters::default();
        let mut exec = SerialExecutor;
        eval_total_residual(&mesh, &mut st, &cfg, false, &mut exec, &mut counters);
        let r0 = st.density_residual_norm(mesh.grid_vol());
        assert!(r0 > 1e-6, "perturbed state must have a residual");
        for _ in 0..30 {
            time_step(&mesh, &mut st, &cfg, false, &mut exec, &mut counters);
        }
        let r1 = st.density_residual_norm(mesh.grid_vol());
        assert!(
            r1 < 0.2 * r0,
            "multistage scheme must damp the perturbation: {r0} -> {r1}"
        );
        // State must remain physical.
        for i in 0..st.n {
            assert!(st.w.get(i, 0) > 0.0, "positive density");
            assert!(st.p[i] > 0.0, "positive pressure");
        }
    }

    #[test]
    fn forcing_shifts_the_fixed_point() {
        // With a nonzero forcing P, freestream is no longer stationary —
        // the multigrid driving mechanism.
        let mesh = unit_box(3, 0.1, 5);
        let cfg = SolverConfig::default();
        let mut st = LevelState::new(&mesh, &cfg);
        for i in 0..st.n {
            st.forcing.set(i, 0, 1e-4 * mesh.grid_vol()[i]);
        }
        let before = st.w.clone();
        let mut counters = PhaseCounters::default();
        time_step(
            &mesh,
            &mut st,
            &cfg,
            false,
            &mut SerialExecutor,
            &mut counters,
        );
        let moved =
            st.w.flat()
                .iter()
                .zip(before.flat())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
        assert!(moved > 1e-9, "forcing must drive the state");
    }

    #[test]
    fn coarse_first_order_dissipation_path_runs() {
        let mesh = unit_box(3, 0.1, 6);
        let cfg = SolverConfig::default();
        let mut st = LevelState::new(&mesh, &cfg);
        let mut counters = PhaseCounters::default();
        time_step(
            &mesh,
            &mut st,
            &cfg,
            true,
            &mut SerialExecutor,
            &mut counters,
        );
        // Freestream preserved on the coarse path too.
        assert!(st.density_residual_norm(mesh.grid_vol()) < 1e-12);
    }

    #[test]
    fn lane_width_cannot_change_a_single_bit() {
        // The chunk width only affects gather staging, never expression
        // trees or accumulation order — any lanes value must be
        // bit-identical (the SoA contract of eul3d-kernels).
        let mesh = unit_box(4, 0.2, 11);
        let run = |lanes: usize| -> LevelState {
            let cfg = SolverConfig {
                mach: 0.6,
                lanes,
                ..SolverConfig::default()
            };
            let mut st = LevelState::new(&mesh, &cfg);
            for (i, c) in mesh.coords.iter().enumerate() {
                let bump =
                    0.04 * (-10.0 * (*c - eul3d_mesh::Vec3::new(0.5, 0.5, 0.5)).norm_sq()).exp();
                st.w.add(i, 0, bump);
                st.w.add(i, 4, 2.0 * bump);
            }
            let mut counters = PhaseCounters::default();
            for _ in 0..3 {
                time_step(
                    &mesh,
                    &mut st,
                    &cfg,
                    false,
                    &mut SerialExecutor,
                    &mut counters,
                );
            }
            st
        };
        let base = run(1);
        for lanes in [2, 5, 8, 16] {
            let other = run(lanes);
            assert_eq!(
                base.w.flat(),
                other.w.flat(),
                "lanes={lanes} diverged from lanes=1"
            );
            assert_eq!(base.res.flat(), other.res.flat());
        }
    }

    #[test]
    fn phase_breakdown_covers_the_expected_phases() {
        let mesh = unit_box(3, 0.1, 7);
        let cfg = SolverConfig::default();
        let mut st = LevelState::new(&mesh, &cfg);
        let mut counters = PhaseCounters::default();
        time_step(
            &mesh,
            &mut st,
            &cfg,
            false,
            &mut SerialExecutor,
            &mut counters,
        );
        let labels: Vec<&str> = counters.rows().iter().map(|r| r.label).collect();
        for want in [
            "pressure",
            "radii/dt",
            "dissipation",
            "convection",
            "boundary",
            "assemble",
            "smooth",
            "update",
        ] {
            assert!(labels.contains(&want), "missing phase {want} in {labels:?}");
        }
        // A fixed per-phase identity: the convective edge loop runs once
        // per stage.
        let conv = counters.phase(Phase::Convection).flops;
        assert_eq!(
            conv,
            (mesh.edges.len() * cfg.nstages()) as f64 * FLOPS_CONV_EDGE
        );
    }
}
