//! The interleaved array-of-structures edge kernels the solver ran
//! before its hot state went plane-major (`w[i * NVAR + c]`).
//!
//! No solver path executes these any more. They live here because the
//! `kernels` bin and the `edge_kernels`/`reorder` criterion benches
//! need them twice over: as the **bit-identity reference** every
//! `eul3d_kernels` SoA lane kernel is checked against before it is
//! timed, and as the **speed baseline** the committed
//! `BENCH_kernels.json` speedups are relative to. Per-edge expression
//! trees and accumulation order are exactly those of the SoA kernels.

use eul3d_core::gas::{flux_dot, pressure, spectral_radius, NVAR};
use eul3d_kernels::gas::roe_dissipation_flux;
use eul3d_mesh::Vec3;

/// The 5 conserved variables of vertex `i` of an interleaved array.
#[inline(always)]
fn get5(w: &[f64], i: usize) -> [f64; 5] {
    let b = i * NVAR;
    [w[b], w[b + 1], w[b + 2], w[b + 3], w[b + 4]]
}

/// Per-vertex pressures for `p.len()` entries.
pub fn compute_pressures(gamma: f64, w: &[f64], p: &mut [f64]) {
    assert!(w.len() >= p.len() * NVAR);
    for (i, pi) in p.iter_mut().enumerate() {
        *pi = pressure(gamma, &get5(w, i));
    }
}

/// Central flux of one edge: `½ (F(w_a) + F(w_b)) · η`.
#[inline(always)]
fn conv_edge_flux(wa: &[f64; 5], wb: &[f64; 5], pa: f64, pb: f64, eta: Vec3) -> [f64; 5] {
    let fa = flux_dot(wa, pa, eta);
    let fb = flux_dot(wb, pb, eta);
    [
        0.5 * (fa[0] + fb[0]),
        0.5 * (fa[1] + fb[1]),
        0.5 * (fa[2] + fb[2]),
        0.5 * (fa[3] + fb[3]),
        0.5 * (fa[4] + fb[4]),
    ]
}

/// Interior convective residual: `q_a += f`, `q_b -= f` per edge.
pub fn conv_residual_edges(edges: &[[u32; 2]], coef: &[Vec3], w: &[f64], p: &[f64], q: &mut [f64]) {
    for (e, &[a, b]) in edges.iter().enumerate() {
        let (a, b) = (a as usize, b as usize);
        let f = conv_edge_flux(&get5(w, a), &get5(w, b), p[a], p[b], coef[e]);
        for c in 0..NVAR {
            q[a * NVAR + c] += f[c];
            q[b * NVAR + c] -= f[c];
        }
    }
}

/// JST pass 1: undivided Laplacian (`lapl`, n×5) and the pressure-sensor
/// accumulators (`sens`, n×2 = `[Σ(p_j−p_i), Σ(p_j+p_i)]`).
pub fn laplacian_pass(
    edges: &[[u32; 2]],
    w: &[f64],
    p: &[f64],
    lapl: &mut [f64],
    sens: &mut [f64],
) {
    for &[a, b] in edges {
        let (a, b) = (a as usize, b as usize);
        for c in 0..NVAR {
            let d = w[b * NVAR + c] - w[a * NVAR + c];
            lapl[a * NVAR + c] += d;
            lapl[b * NVAR + c] -= d;
        }
        let dp = p[b] - p[a];
        let sp = p[b] + p[a];
        sens[a * 2] += dp;
        sens[a * 2 + 1] += sp;
        sens[b * 2] -= dp;
        sens[b * 2 + 1] += sp;
    }
}

/// Shock sensor `ν_i = |Σ(p_j − p_i)| / Σ(p_j + p_i)` from the pass-1
/// accumulators.
pub fn sensor_from_accumulators(sens: &[f64], nu: &mut [f64]) {
    for (i, nu_i) in nu.iter_mut().enumerate() {
        let num = sens[i * 2].abs();
        let den = sens[i * 2 + 1].abs().max(1e-300);
        *nu_i = num / den;
    }
}

/// JST pass 2: `d_ij = λ_ij [ ε₂ (w_j − w_i) − ε₄ (L_j − L_i) ]`.
#[allow(clippy::too_many_arguments)]
pub fn dissipation_pass(
    edges: &[[u32; 2]],
    coef: &[Vec3],
    w: &[f64],
    p: &[f64],
    lapl: &[f64],
    nu: &[f64],
    gamma: f64,
    k2: f64,
    k4: f64,
    diss: &mut [f64],
) {
    for (e, &[a, b]) in edges.iter().enumerate() {
        let (a, b) = (a as usize, b as usize);
        let lam = 0.5
            * (spectral_radius(gamma, &get5(w, a), p[a], coef[e])
                + spectral_radius(gamma, &get5(w, b), p[b], coef[e]));
        let eps2 = k2 * nu[a].max(nu[b]);
        let eps4 = (k4 - eps2).max(0.0);
        for c in 0..NVAR {
            let d2 = w[b * NVAR + c] - w[a * NVAR + c];
            let d4 = lapl[b * NVAR + c] - lapl[a * NVAR + c];
            let d = lam * (eps2 * d2 - eps4 * d4);
            diss[a * NVAR + c] += d;
            diss[b * NVAR + c] -= d;
        }
    }
}

/// Coarse-level first-order dissipation `d_ij = k λ_ij (w_j − w_i)`.
pub fn dissipation_first_order(
    edges: &[[u32; 2]],
    coef: &[Vec3],
    w: &[f64],
    p: &[f64],
    gamma: f64,
    k: f64,
    diss: &mut [f64],
) {
    for (e, &[a, b]) in edges.iter().enumerate() {
        let (a, b) = (a as usize, b as usize);
        let lam = 0.5
            * (spectral_radius(gamma, &get5(w, a), p[a], coef[e])
                + spectral_radius(gamma, &get5(w, b), p[b], coef[e]));
        let kl = k * lam;
        for c in 0..NVAR {
            let d = kl * (w[b * NVAR + c] - w[a * NVAR + c]);
            diss[a * NVAR + c] += d;
            diss[b * NVAR + c] -= d;
        }
    }
}

/// Roe matrix dissipation per edge.
pub fn roe_dissipation_edges(
    edges: &[[u32; 2]],
    coef: &[Vec3],
    w: &[f64],
    p: &[f64],
    gamma: f64,
    diss: &mut [f64],
) {
    for (e, &[a, b]) in edges.iter().enumerate() {
        let (a, b) = (a as usize, b as usize);
        let d = roe_dissipation_flux(gamma, &get5(w, a), &get5(w, b), p[a], p[b], coef[e]);
        for c in 0..NVAR {
            diss[a * NVAR + c] += d[c];
            diss[b * NVAR + c] -= d[c];
        }
    }
}

/// Spectral radii over edges: `Λ_a += λ_ab`, `Λ_b += λ_ab`.
pub fn radii_edges(
    edges: &[[u32; 2]],
    coef: &[Vec3],
    w: &[f64],
    p: &[f64],
    gamma: f64,
    lam: &mut [f64],
) {
    for (e, &[a, b]) in edges.iter().enumerate() {
        let (a, b) = (a as usize, b as usize);
        let l = 0.5
            * (spectral_radius(gamma, &get5(w, a), p[a], coef[e])
                + spectral_radius(gamma, &get5(w, b), p[b], coef[e]));
        lam[a] += l;
        lam[b] += l;
    }
}

/// Residual-averaging neighbour sum: `acc_a += r̄_b`, `acc_b += r̄_a`.
pub fn smooth_accumulate(edges: &[[u32; 2]], rbar: &[f64], acc: &mut [f64]) {
    for &[a, b] in edges {
        let (a, b) = (a as usize, b as usize);
        for c in 0..NVAR {
            acc[a * NVAR + c] += rbar[b * NVAR + c];
            acc[b * NVAR + c] += rbar[a * NVAR + c];
        }
    }
}
