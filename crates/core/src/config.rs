//! Solver configuration.

use crate::gas::{Freestream, GAMMA};

/// Spatial discretization of the dissipative terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's formulation: central fluxes + switched JST
    /// Laplacian/biharmonic artificial dissipation (two edge passes).
    CentralJst,
    /// Central fluxes + Roe matrix dissipation (one edge pass, no
    /// sensor): a first-order upwind scheme, very robust at shocks.
    RoeUpwind,
}

/// All tunables of the EUL3D scheme, with defaults matching the usual
/// JST/multistage practice of the paper's era.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Freestream Mach number.
    pub mach: f64,
    /// Angle of attack in degrees (x–y plane).
    pub alpha_deg: f64,
    /// CFL number; local time stepping plus residual averaging admits
    /// multistage CFLs well above the unsmoothed limit.
    pub cfl: f64,
    /// Second-difference (shock) dissipation constant `k₂`.
    pub k2: f64,
    /// Fourth-difference (background) dissipation constant `k₄`.
    pub k4: f64,
    /// Implicit residual-averaging coefficient ε.
    pub smooth_eps: f64,
    /// Jacobi sweeps per residual-averaging application (0 disables).
    pub smooth_passes: usize,
    /// Use cheap first-order (constant-Laplacian) dissipation on coarse
    /// multigrid levels instead of the full JST switch.
    pub coarse_first_order: bool,
    /// Dissipation constant for coarse levels when `coarse_first_order`.
    pub coarse_k2: f64,
    /// Dissipation scheme (the paper's JST by default).
    pub scheme: Scheme,
    /// Runge–Kutta stage coefficients (Jameson's 5-stage scheme; the
    /// dissipation is evaluated at the first two stages and frozen, per
    /// eq. (1) of the paper).
    pub rk_alpha: [f64; 5],
    /// Lane width of the chunked SoA edge kernels (clamped to
    /// `1..=eul3d_kernels::MAX_LANES` at use sites). Any value produces
    /// bit-identical results; this only tunes vectorization.
    pub lanes: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            gamma: GAMMA,
            mach: 0.675,
            alpha_deg: 0.0,
            cfl: 2.8,
            k2: 0.5,
            k4: 1.0 / 16.0,
            smooth_eps: 0.3,
            smooth_passes: 2,
            coarse_first_order: true,
            coarse_k2: 0.06,
            scheme: Scheme::CentralJst,
            rk_alpha: [0.25, 1.0 / 6.0, 0.375, 0.5, 1.0],
            lanes: eul3d_kernels::DEFAULT_LANES,
        }
    }
}

impl SolverConfig {
    /// Freestream implied by this configuration.
    pub fn freestream(&self) -> Freestream {
        Freestream::new(self.gamma, self.mach, self.alpha_deg)
    }

    /// Number of RK stages.
    pub fn nstages(&self) -> usize {
        self.rk_alpha.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SolverConfig::default();
        assert!(c.cfl > 0.0);
        assert_eq!(c.rk_alpha[4], 1.0, "final stage must complete the step");
        assert!(c.k2 > c.k4);
        assert_eq!(c.nstages(), 5);
    }
}
