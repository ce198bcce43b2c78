//! Perfect-gas thermodynamics and flux functions — the single source of
//! truth for the per-edge and per-vertex arithmetic. Each tree is
//! written once over a [`Lane`]: the edge kernels run it over four edges
//! at a time or one, and the public functions here, which `eul3d-core`'s
//! `gas` and `roe` modules re-export, are its `f64` instances.

use eul3d_mesh::Vec3;

use crate::lane::Lane;

/// Static pressure from conserved variables.
#[inline(always)]
pub fn pressure(gamma: f64, w: &[f64; 5]) -> f64 {
    let rho = w[0];
    let ke = 0.5 * (w[1] * w[1] + w[2] * w[2] + w[3] * w[3]) / rho;
    (gamma - 1.0) * (w[4] - ke)
}

/// Speed of sound.
#[inline(always)]
pub fn sound_speed(gamma: f64, rho: f64, p: f64) -> f64 {
    sound(gamma, rho, p)
}

#[inline(always)]
fn sound<L: Lane>(gamma: L, rho: L, p: L) -> L {
    (gamma * p / rho).sqrt()
}

/// `a · b`, summed x, y, z.
#[inline(always)]
pub(crate) fn dot<L: Lane>(a: [L; 3], b: [L; 3]) -> L {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// `|η|`.
#[inline(always)]
pub(crate) fn norm<L: Lane>(eta: [L; 3]) -> L {
    dot(eta, eta).sqrt()
}

fn xyz(v: Vec3) -> [f64; 3] {
    [v.x, v.y, v.z]
}

/// Convective flux dotted with a (non-unit) area vector `eta`, given the
/// precomputed pressure: `F(w) · η`.
#[inline(always)]
pub fn flux_dot(w: &[f64; 5], p: f64, eta: Vec3) -> [f64; 5] {
    flux(*w, p, xyz(eta))
}

#[inline(always)]
pub(crate) fn flux<L: Lane>(w: [L; 5], p: L, eta: [L; 3]) -> [L; 5] {
    let rho = w[0];
    // Volume flux through the face.
    let qn = dot([w[1] / rho, w[2] / rho, w[3] / rho], eta);
    [
        rho * qn,
        w[1] * qn + p * eta[0],
        w[2] * qn + p * eta[1],
        w[3] * qn + p * eta[2],
        (w[4] + p) * qn,
    ]
}

/// Convective spectral radius on a face with area vector `eta`:
/// `|q·η| + c·|η|`.
#[inline(always)]
pub fn spectral_radius(gamma: f64, w: &[f64; 5], p: f64, eta: Vec3) -> f64 {
    let eta = xyz(eta);
    radius(gamma, *w, p, eta, norm(eta))
}

/// [`spectral_radius`] with `|η|` already known (`w[4]` is not read).
#[inline(always)]
pub(crate) fn radius<L: Lane>(gamma: L, w: [L; 5], p: L, eta: [L; 3], norm: L) -> L {
    let qn = dot([w[1], w[2], w[3]], eta) / w[0];
    qn.abs() + sound(gamma, w[0], p) * norm
}

/// Fraction of the Roe-averaged sound speed below which eigenvalues are
/// smoothed (Harten's entropy fix), preventing expansion shocks.
pub const ENTROPY_FIX: f64 = 0.1;

/// `½ |Â(w_a, w_b)| (w_b − w_a)` through the (non-unit) face normal
/// `eta`: the upwind dissipation of the Roe flux. Returns the vector to
/// add at `a` and subtract at `b` under the `R = Q − D` convention, and
/// zeros for a degenerate face (`|η| < 1e-300`).
#[inline]
pub fn roe_dissipation_flux(
    gamma: f64,
    wa: &[f64; 5],
    wb: &[f64; 5],
    pa: f64,
    pb: f64,
    eta: Vec3,
) -> [f64; 5] {
    roe(gamma, *wa, *wb, pa, pb, xyz(eta))
}

#[inline(always)]
pub(crate) fn roe<L: Lane>(
    gamma: f64,
    wa: [L; 5],
    wb: [L; 5],
    pa: L,
    pb: L,
    eta: [L; 3],
) -> [L; 5] {
    let (zero, one, half) = (L::splat(0.0), L::splat(1.0), L::splat(0.5));
    let area = norm(eta);
    let n = [eta[0] / area, eta[1] / area, eta[2] / area];

    // Primitive states.
    let (ra, rb) = (wa[0], wb[0]);
    let ua = [wa[1] / ra, wa[2] / ra, wa[3] / ra];
    let ub = [wb[1] / rb, wb[2] / rb, wb[3] / rb];
    let ha = (wa[4] + pa) / ra;
    let hb = (wb[4] + pb) / rb;

    // Roe averages.
    let sra = ra.sqrt();
    let srb = rb.sqrt();
    let rho = sra * srb;
    let f = sra / (sra + srb);
    let g = one - f;
    let u = [
        ua[0] * f + ub[0] * g,
        ua[1] * f + ub[1] * g,
        ua[2] * f + ub[2] * g,
    ];
    let h = ha * f + hb * g;
    let q2 = dot(u, u);
    let c2 = L::splat(gamma - 1.0) * (h - half * q2);
    // Roe average of physical states keeps c² > 0; guard anyway.
    let c = c2.max(L::splat(1e-12)).sqrt();
    let un = dot(u, n);

    // Jumps.
    let d_rho = rb - ra;
    let d_p = pb - pa;
    let d_u = [ub[0] - ua[0], ub[1] - ua[1], ub[2] - ua[2]];
    let d_un = dot(d_u, n);

    // Wave strengths.
    let a1 = (d_p - rho * c * d_un) / (L::splat(2.0) * c2); // λ = un − c
    let a5 = (d_p + rho * c * d_un) / (L::splat(2.0) * c2); // λ = un + c
    let a2 = d_rho - d_p / c2; // entropy wave, λ = un
    let d_ut = [
        d_u[0] - n[0] * d_un,
        d_u[1] - n[1] * d_un,
        d_u[2] - n[2] * d_un,
    ]; // shear, λ = un

    // Entropy-fixed absolute eigenvalues.
    let delta = L::splat(ENTROPY_FIX) * c;
    let l1 = entropy_fix(un - c, delta);
    let l2 = entropy_fix(un, delta);
    let l5 = entropy_fix(un + c, delta);

    // |A| Δw = Σ |λ_k| α_k r_k, from zero so signed zeros come out of the
    // same additions in every instance.
    let mut d = [zero; 5];
    let (nc, cun) = ([n[0] * c, n[1] * c, n[2] * c], c * un);
    // Acoustic waves.
    wave(
        &mut d,
        l1 * a1,
        one,
        [u[0] - nc[0], u[1] - nc[1], u[2] - nc[2]],
        h - cun,
    );
    wave(
        &mut d,
        l5 * a5,
        one,
        [u[0] + nc[0], u[1] + nc[1], u[2] + nc[2]],
        h + cun,
    );
    // Entropy wave.
    wave(&mut d, l2 * a2, one, u, half * q2);
    // Shear waves.
    wave(&mut d, l2 * rho, zero, d_ut, dot(u, d_ut));

    // A degenerate face's lanes computed NaNs above; blend in its zeros.
    let sc = half * area;
    let degenerate = area.lt(L::splat(1e-300));
    [
        L::select(degenerate, zero, d[0] * sc),
        L::select(degenerate, zero, d[1] * sc),
        L::select(degenerate, zero, d[2] * sc),
        L::select(degenerate, zero, d[3] * sc),
        L::select(degenerate, zero, d[4] * sc),
    ]
}

/// Harten's fix `|λ| < δ → ½(|λ|²/δ + δ)`, both sides evaluated and
/// selected.
#[inline(always)]
fn entropy_fix<L: Lane>(lam: L, delta: L) -> L {
    let al = lam.abs();
    let parabola = L::splat(0.5) * (al * al / delta + delta);
    L::select(al.lt(delta), parabola, al)
}

/// `d += s · (r0, rv, re)`.
#[inline(always)]
fn wave<L: Lane>(d: &mut [L; 5], s: L, r0: L, rv: [L; 3], re: L) {
    d[0] = d[0] + s * r0;
    d[1] = d[1] + s * rv[0];
    d[2] = d[2] + s * rv[1];
    d[3] = d[3] + s * rv[2];
    d[4] = d[4] + s * re;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_and_sound_speed_consistency() {
        let w = [1.0, 0.5, 0.0, 0.0, 2.0];
        let p = pressure(1.4, &w);
        assert!((p - 0.4 * (2.0 - 0.125)).abs() < 1e-15);
        assert!((sound_speed(1.4, 1.0, p) - (1.4 * p).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn roe_zero_jump_is_zero() {
        let w = [1.0, 0.3, 0.1, 0.0, 2.2];
        let p = pressure(1.4, &w);
        let d = roe_dissipation_flux(1.4, &w, &w, p, p, Vec3::new(0.2, -0.1, 0.4));
        assert!(d.iter().all(|x| x.abs() < 1e-14));
    }
}
