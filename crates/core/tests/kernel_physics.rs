//! Physics of the edge kernels, checked on the plane-major
//! `eul3d_kernels` entry points every backend executes: the convective
//! operator `Q(w)` ("computed in a single loop over the edges", §2.2)
//! and the JST / first-order artificial dissipation `D(w)` ("a blend of
//! Laplacian and biharmonic operators … assembled in a two-pass loop
//! over the edges" — pass 1, a pure neighbour sum, runs as a vertex
//! gather here), the Roe dissipation, and the spectral radii behind the
//! local time steps.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use eul3d_core::gas::{pressure, Freestream, GAMMA, NVAR};
use eul3d_core::timestep::radii_bfaces_soa;
use eul3d_core::{Executor, SerialExecutor, SoaState};
use eul3d_kernels as kn;
use eul3d_mesh::gen::unit_box;
use eul3d_mesh::topology::vertex_vertex_adjacency;
use eul3d_mesh::{TetMesh, Vec3};

const LANES: usize = kn::DEFAULT_LANES;

// SAFETY (every `unsafe` kernel call below): `SerialExecutor` runs one
// span on this thread, and every array is sized by the same mesh /
// `SoaState` the kernel is told about (`n` vertices, `NVAR` planes).

/// A jittered unit box carrying uniform Mach-0.675 flow.
fn uniform_box(cells: usize, seed: u64) -> (TetMesh, SoaState, Vec<f64>) {
    let m = unit_box(cells, 0.15, seed);
    let fs = Freestream::new(GAMMA, 0.675, 0.0);
    let mut w = SoaState::new(m.nverts(), NVAR);
    w.fill_rows(&fs.w);
    let p = vec![fs.p; m.nverts()];
    (m, w, p)
}

fn pressures(w: &SoaState) -> Vec<f64> {
    let n = w.n();
    let mut p = vec![0.0; n];
    SerialExecutor.for_vertex_range(0..n, &mut [&mut p], |r, s| unsafe {
        kn::pressure_verts(r, GAMMA, w.flat(), n, s)
    });
    p
}

fn conv_flux(edges: &[[u32; 2]], coef: &[Vec3], w: &SoaState, p: &[f64]) -> SoaState {
    let n = w.n();
    let mut q = SoaState::new(n, NVAR);
    SerialExecutor.for_edge_spans(edges.len(), &mut [q.flat_mut()], |span, s| unsafe {
        kn::conv_flux_edges(span, edges, coef, w.flat(), p, n, s, LANES)
    });
    q
}

/// JST pass 1 + sensor: `(lapl, ν)`.
fn laplacian_and_sensor(m: &TetMesh, w: &SoaState, p: &[f64]) -> (SoaState, Vec<f64>) {
    let n = w.n();
    let mut lapl = SoaState::new(n, NVAR);
    let mut sens = SoaState::new(n, 2);
    let adj = vertex_vertex_adjacency(n, &m.edges);
    SerialExecutor.for_vertex_range(
        0..n,
        &mut [lapl.flat_mut(), sens.flat_mut()],
        |r, s| unsafe { kn::jst_gather_verts(r, &adj, w.flat(), p, n, s) },
    );
    let mut nu = vec![0.0; n];
    SerialExecutor.for_vertex_range(0..n, &mut [&mut nu], |r, s| unsafe {
        kn::sensor_verts(r, sens.flat(), n, s)
    });
    (lapl, nu)
}

fn jst_pass2(m: &TetMesh, w: &SoaState, p: &[f64], lapl: &SoaState, nu: &[f64]) -> SoaState {
    let n = w.n();
    let mut diss = SoaState::new(n, NVAR);
    SerialExecutor.for_edge_spans(m.nedges(), &mut [diss.flat_mut()], |span, s| unsafe {
        kn::jst_pass2_edges(
            span,
            &m.edges,
            &m.edge_coef,
            GAMMA,
            0.5,
            0.03,
            w.flat(),
            p,
            lapl.flat(),
            nu,
            n,
            s,
            LANES,
        )
    });
    diss
}

fn plane_total(f: &SoaState, c: usize) -> f64 {
    f.plane(c).iter().sum()
}

#[test]
fn uniform_flow_edge_fluxes_telescope() {
    // With w constant every edge contributes +f and −f, so the total
    // over all vertices is zero whatever the boundary does.
    let m = unit_box(3, 0.2, 1);
    let fs = Freestream::new(GAMMA, 0.5, 3.0);
    let mut w = SoaState::new(m.nverts(), NVAR);
    w.fill_rows(&fs.w);
    let q = conv_flux(&m.edges, &m.edge_coef, &w, &pressures(&w));
    for c in 0..NVAR {
        let total = plane_total(&q, c);
        assert!(total.abs() < 1e-10, "component {c} total {total}");
    }
}

#[test]
fn edge_flux_is_antisymmetric_in_orientation() {
    // Reversing an edge and its dual-face normal negates the flux, so
    // both orientations leave the same residual at each endpoint.
    let mut w = SoaState::new(2, NVAR);
    w.set5(0, &[1.0, 0.3, 0.1, -0.2, 2.2]);
    w.set5(1, &[1.1, -0.1, 0.2, 0.3, 2.5]);
    let p = pressures(&w);
    let eta = Vec3::new(0.5, -0.25, 1.0);
    let fwd = conv_flux(&[[0, 1]], &[eta], &w, &p);
    let rev = conv_flux(&[[1, 0]], &[-eta], &w, &p);
    for (a, b) in fwd.flat().iter().zip(rev.flat()) {
        assert!((a - b).abs() < 1e-14, "{a} vs {b}");
    }
    assert!(fwd.flat().iter().any(|&x| x != 0.0));
}

#[test]
fn pressures_match_gas_model() {
    let fs = Freestream::new(GAMMA, 0.8, 0.0);
    let mut w = SoaState::new(2, NVAR);
    w.set5(0, &fs.w);
    w.set5(1, &[2.0, 0.0, 0.0, 0.0, 4.0]);
    let p = pressures(&w);
    assert!((p[0] - fs.p).abs() < 1e-14);
    assert!((p[1] - (GAMMA - 1.0) * 4.0).abs() < 1e-14);
    assert_eq!(p[0], pressure(GAMMA, &fs.w));
}

#[test]
fn uniform_flow_has_zero_dissipation() {
    let (m, w, p) = uniform_box(4, 2);
    let (lapl, nu) = laplacian_and_sensor(&m, &w, &p);
    assert!(lapl.flat().iter().all(|&x| x.abs() < 1e-13));
    assert!(nu.iter().all(|&x| x < 1e-13));
    let diss = jst_pass2(&m, &w, &p, &lapl, &nu);
    assert!(diss.flat().iter().all(|&x| x.abs() < 1e-13));
}

#[test]
fn sensor_spikes_at_a_pressure_jump() {
    let (m, w, mut p) = uniform_box(4, 3);
    // Pressure doubles for x > 0.5: a "shock".
    for (pi, pt) in p.iter_mut().zip(&m.coords) {
        if pt.x > 0.5 {
            *pi *= 2.0;
        }
    }
    let (_, nu) = laplacian_and_sensor(&m, &w, &p);
    let max_nu = nu.iter().cloned().fold(0.0f64, f64::max);
    assert!(max_nu > 0.1, "sensor must see the jump, max ν = {max_nu}");
    // Vertices far from the jump stay smooth.
    let far = m
        .coords
        .iter()
        .zip(&nu)
        .filter(|(c, _)| c.x < 0.2)
        .map(|(_, &v)| v)
        .fold(0.0f64, f64::max);
    assert!(far < 1e-12);
}

#[test]
fn dissipation_conserves_totals() {
    // ±accumulation means the dissipation operator is globally
    // conservative whatever the state.
    let (m, mut w, p) = uniform_box(3, 4);
    for (i, x) in w.flat_mut().iter_mut().enumerate() {
        *x *= 1.0 + 0.1 * ((i * 2654435761) % 97) as f64 / 97.0;
    }
    let (lapl, nu) = laplacian_and_sensor(&m, &w, &p);
    let diss = jst_pass2(&m, &w, &p, &lapl, &nu);
    for c in 0..NVAR {
        let total = plane_total(&diss, c);
        assert!(total.abs() < 1e-9, "component {c} not conserved: {total}");
    }
    assert!(diss.flat().iter().any(|&x| x != 0.0));
}

#[test]
fn switch_suppresses_biharmonic_at_shocks() {
    // With ν ≥ k4/k2 everywhere, ε4 = max(0, k4 − k2 ν) vanishes: the
    // result cannot depend on the Laplacian field at all.
    let (m, mut w, p) = uniform_box(3, 6);
    for (i, x) in w.plane_mut(0).iter_mut().enumerate() {
        *x += 0.1 * (i % 3) as f64;
    }
    let nu = vec![0.2; m.nverts()]; // ε2 = 0.1 > k4 = 0.03
    let zero = SoaState::new(m.nverts(), NVAR);
    let mut junk = SoaState::new(m.nverts(), NVAR);
    junk.fill(123.0);
    let d0 = jst_pass2(&m, &w, &p, &zero, &nu);
    assert_eq!(d0, jst_pass2(&m, &w, &p, &junk, &nu));
    assert!(d0.flat().iter().any(|&x| x != 0.0));
}

#[test]
fn first_order_dissipation_smooths_and_conserves() {
    let (m, mut w, p) = uniform_box(3, 5);
    for (i, x) in w.plane_mut(0).iter_mut().enumerate() {
        *x = 1.0 + 0.2 * (i % 5) as f64;
    }
    let n = m.nverts();
    let mut diss = SoaState::new(n, NVAR);
    SerialExecutor.for_edge_spans(m.nedges(), &mut [diss.flat_mut()], |span, s| unsafe {
        kn::first_order_diss_edges(
            span,
            &m.edges,
            &m.edge_coef,
            GAMMA,
            0.05,
            w.flat(),
            &p,
            n,
            s,
            LANES,
        )
    });
    assert!(plane_total(&diss, 0).abs() < 1e-10);
    assert!(diss.flat().iter().any(|&x| x != 0.0));
}

#[test]
fn roe_dissipation_conserves_totals() {
    let m = unit_box(3, 0.15, 8);
    let n = m.nverts();
    let fs = Freestream::new(GAMMA, 0.6, 0.0);
    let mut w = SoaState::new(n, NVAR);
    let mut p = vec![0.0; n];
    for (i, pi) in p.iter_mut().enumerate() {
        let row: [f64; 5] =
            std::array::from_fn(|c| fs.w[c] * (1.0 + 0.05 * ((i * 7 + c) % 11) as f64 / 11.0));
        w.set5(i, &row);
        *pi = pressure(GAMMA, &row);
    }
    let mut diss = SoaState::new(n, NVAR);
    SerialExecutor.for_edge_spans(m.nedges(), &mut [diss.flat_mut()], |span, s| unsafe {
        kn::roe_diss_edges(
            span,
            &m.edges,
            &m.edge_coef,
            GAMMA,
            w.flat(),
            &p,
            n,
            s,
            LANES,
        )
    });
    for c in 0..NVAR {
        let total = plane_total(&diss, c);
        assert!(total.abs() < 1e-10, "component {c}: {total}");
    }
    assert!(diss.flat().iter().any(|&x| x != 0.0));
}

/// Local time steps (CFL 1) of uniform flow at `mach` on `m`: edge and
/// boundary-face spectral radii, then `Δt = V / Λ`.
fn uniform_flow_dt(m: &TetMesh, mach: f64) -> Vec<f64> {
    let n = m.nverts();
    let fs = Freestream::new(GAMMA, mach, 0.0);
    let mut w = SoaState::new(n, NVAR);
    w.fill_rows(&fs.w);
    let p = vec![fs.p; n];
    let mut lam = vec![0.0; n];
    SerialExecutor.for_edge_spans(m.nedges(), &mut [&mut lam], |span, s| unsafe {
        kn::radii_edges_soa(
            span,
            &m.edges,
            &m.edge_coef,
            GAMMA,
            w.flat(),
            &p,
            n,
            s,
            LANES,
        )
    });
    SerialExecutor.for_face_spans(m.bfaces.len(), &mut [&mut lam], |span, s| unsafe {
        radii_bfaces_soa(span, &m.bfaces, &w, &p, GAMMA, s)
    });
    let mut dt = vec![0.0; n];
    SerialExecutor.for_vertex_range(0..n, &mut [&mut dt], |r, s| unsafe {
        kn::local_dt_verts(r, 1.0, &m.vol, &lam, s)
    });
    dt
}

#[test]
fn dt_scales_inversely_with_wavespeed() {
    let m = unit_box(3, 0.1, 1);
    let slow = uniform_flow_dt(&m, 0.2);
    let fast = uniform_flow_dt(&m, 2.0);
    for (s, f) in slow.iter().zip(&fast) {
        assert!(*s > 0.0 && *f > 0.0);
        assert!(f < s, "faster flow must reduce the permissible step");
    }
}

#[test]
fn dt_grows_with_cell_size() {
    // "the permissible time step is much greater, since it is
    // proportional to the cell size" (§2.3): a coarser mesh of the
    // same domain gets larger steps.
    let mean_dt = |cells: usize| -> f64 {
        let m = unit_box(cells, 0.0, 0);
        uniform_flow_dt(&m, 0.675).iter().sum::<f64>() / m.nverts() as f64
    };
    let ratio = mean_dt(3) / mean_dt(6);
    assert!(
        ratio > 1.5 && ratio < 3.0,
        "halving h should roughly halve dt, got ratio {ratio}"
    );
}
