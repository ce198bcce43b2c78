//! Perfect-gas thermodynamics and the Euler flux function on conserved
//! variables `w = [ρ, ρu, ρv, ρw, ρE]`.
//!
//! The scalar state functions live in [`eul3d_kernels::gas`] — the single
//! source of truth shared with the lane kernels — and are re-exported
//! here so existing `crate::gas::pressure(..)` call sites keep working.

use eul3d_mesh::Vec3;

pub use eul3d_kernels::gas::{flux_dot, pressure, sound_speed, spectral_radius};

/// Number of conserved variables per vertex.
pub const NVAR: usize = 5;

/// Ratio of specific heats for air.
pub const GAMMA: f64 = 1.4;

/// Freestream definition: Mach number and angle of attack (degrees, in
/// the x–y plane), in the standard nondimensionalization `ρ∞ = 1`,
/// `c∞ = 1` (so `p∞ = 1/γ` and `|u∞| = M∞`).
#[derive(Debug, Clone, Copy)]
pub struct Freestream {
    pub mach: f64,
    pub alpha_deg: f64,
    pub gamma: f64,
    /// Conserved freestream state.
    pub w: [f64; 5],
    /// Freestream pressure.
    pub p: f64,
}

impl Freestream {
    pub fn new(gamma: f64, mach: f64, alpha_deg: f64) -> Freestream {
        let a = alpha_deg.to_radians();
        let u = mach * a.cos();
        let v = mach * a.sin();
        let p = 1.0 / gamma;
        let e = p / (gamma - 1.0) + 0.5 * mach * mach;
        Freestream {
            mach,
            alpha_deg,
            gamma,
            w: [1.0, u, v, 0.0, e],
            p,
        }
    }

    /// Freestream velocity vector.
    pub fn velocity(&self) -> Vec3 {
        Vec3::new(self.w[1], self.w[2], self.w[3])
    }
}

/// Exact oblique-shock solution (weak branch) for upstream Mach `m1` and
/// flow deflection `theta_deg`: returns `(beta_deg, p2/p1, m2)` — the
/// shock angle, static-pressure ratio and downstream Mach number — or
/// `None` when the deflection exceeds the attached-shock maximum.
///
/// Solves the θ–β–M relation
/// `tan θ = 2 cot β (M² sin²β − 1) / (M² (γ + cos 2β) + 2)`
/// by bisection on the weak branch.
pub fn oblique_shock(gamma: f64, m1: f64, theta_deg: f64) -> Option<(f64, f64, f64)> {
    assert!(m1 > 1.0, "oblique shocks need supersonic upstream flow");
    let theta = theta_deg.to_radians();
    let tan_theta_of = |beta: f64| -> f64 {
        2.0 / beta.tan() * (m1 * m1 * beta.sin().powi(2) - 1.0)
            / (m1 * m1 * (gamma + (2.0 * beta).cos()) + 2.0)
    };
    // Weak branch: β from the Mach angle up to the θ-max angle.
    let mu = (1.0 / m1).asin();
    let mut lo = mu + 1e-9;
    // Locate the maximum of θ(β) by coarse scan.
    let mut beta_max = lo;
    let mut theta_max = 0.0;
    for k in 0..2000 {
        let b = mu + (std::f64::consts::FRAC_PI_2 - mu) * k as f64 / 2000.0;
        let t = tan_theta_of(b);
        if t > theta_max {
            theta_max = t;
            beta_max = b;
        }
    }
    if theta.tan() > theta_max {
        return None; // detached shock
    }
    let mut hi = beta_max;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if tan_theta_of(mid) < theta.tan() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let beta = 0.5 * (lo + hi);
    let mn1 = m1 * beta.sin();
    let p_ratio = 1.0 + 2.0 * gamma / (gamma + 1.0) * (mn1 * mn1 - 1.0);
    let mn2_sq =
        (1.0 + 0.5 * (gamma - 1.0) * mn1 * mn1) / (gamma * mn1 * mn1 - 0.5 * (gamma - 1.0));
    let m2 = mn2_sq.sqrt() / (beta - theta).sin();
    Some((beta.to_degrees(), p_ratio, m2))
}

/// Local Mach number of a conserved state.
#[inline]
pub fn mach_number(gamma: f64, w: &[f64; 5]) -> f64 {
    let rho = w[0];
    let speed = ((w[1] * w[1] + w[2] * w[2] + w[3] * w[3]).sqrt()) / rho;
    let p = pressure(gamma, w);
    speed / sound_speed(gamma, rho, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freestream_is_consistent() {
        let fs = Freestream::new(GAMMA, 0.768, 1.116);
        assert!((fs.w[0] - 1.0).abs() < 1e-15);
        assert!((pressure(GAMMA, &fs.w) - fs.p).abs() < 1e-14);
        assert!((sound_speed(GAMMA, fs.w[0], fs.p) - 1.0).abs() < 1e-14);
        assert!((mach_number(GAMMA, &fs.w) - 0.768).abs() < 1e-13);
        // Angle of attack tilts the velocity into +y.
        assert!(fs.w[2] > 0.0);
        assert!((fs.velocity().norm() - 0.768).abs() < 1e-13);
    }

    #[test]
    fn flux_of_stationary_gas_is_pure_pressure() {
        let w = [1.0, 0.0, 0.0, 0.0, 2.0];
        let p = pressure(GAMMA, &w);
        let f = flux_dot(&w, p, Vec3::new(2.0, 0.0, 0.0));
        assert_eq!(f[0], 0.0);
        assert!((f[1] - 2.0 * p).abs() < 1e-15);
        assert_eq!(f[4], 0.0);
    }

    #[test]
    fn flux_mass_component_is_momentum_flux() {
        let w = [2.0, 1.0, 0.5, -0.5, 5.0];
        let eta = Vec3::new(1.0, 2.0, 3.0);
        let p = pressure(GAMMA, &w);
        let f = flux_dot(&w, p, eta);
        let qn = (1.0 * 1.0 + 0.5 * 2.0 + (-0.5) * 3.0) / 2.0;
        assert!((f[0] - 2.0 * qn).abs() < 1e-14);
    }

    #[test]
    fn spectral_radius_bounds_flux_jacobian() {
        let fs = Freestream::new(GAMMA, 0.5, 0.0);
        let eta = Vec3::new(0.0, 1.0, 0.0);
        let lam = spectral_radius(GAMMA, &fs.w, fs.p, eta);
        // Flow along x, face normal along y: |q·n| = 0, c|n| = 1.
        assert!((lam - 1.0).abs() < 1e-13);
    }

    #[test]
    fn oblique_shock_textbook_values() {
        // M=2, θ=10°: β ≈ 39.31°, p2/p1 ≈ 1.7066, M2 ≈ 1.64.
        let (beta, pr, m2) = oblique_shock(GAMMA, 2.0, 10.0).unwrap();
        assert!((beta - 39.31).abs() < 0.1, "beta {beta}");
        assert!((pr - 1.7066).abs() < 0.005, "p ratio {pr}");
        assert!((m2 - 1.64).abs() < 0.02, "M2 {m2}");
        // M=3, θ=20°: β ≈ 37.76°, p2/p1 ≈ 3.77.
        let (beta, pr, _) = oblique_shock(GAMMA, 3.0, 20.0).unwrap();
        assert!((beta - 37.76).abs() < 0.2, "beta {beta}");
        assert!((pr - 3.77).abs() < 0.05, "p ratio {pr}");
    }

    #[test]
    fn oblique_shock_detaches_past_theta_max() {
        // θ_max for M=2 is ≈ 22.97°.
        assert!(oblique_shock(GAMMA, 2.0, 22.0).is_some());
        assert!(oblique_shock(GAMMA, 2.0, 24.0).is_none());
    }

    #[test]
    fn oblique_shock_zero_deflection_is_mach_wave() {
        let (beta, pr, m2) = oblique_shock(GAMMA, 2.0, 1e-9).unwrap();
        assert!(
            (beta - 30.0).abs() < 0.1,
            "Mach angle for M=2 is 30°, got {beta}"
        );
        assert!((pr - 1.0).abs() < 1e-3);
        assert!((m2 - 2.0).abs() < 1e-2);
    }
}
