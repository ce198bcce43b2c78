//! Roe flux-difference-splitting dissipation — an *upwind* alternative
//! to the paper's central + JST formulation (the direction EUL3D's
//! descendants took). With the central edge flux `½(F_a + F_b)·η` already
//! assembled by the convective edge loop, the Roe scheme is exactly the
//! central scheme plus the matrix dissipation
//! `d_ab = ½ |Â| (w_b − w_a) |η|`, evaluated by wave decomposition at the
//! Roe-averaged state with a Harten entropy fix.
//!
//! Operationally it slots into the same "dissipation operator" stage as
//! JST, but needs **no second pass and no sensor** — on the distributed
//! path that removes the Laplacian/ν ghost exchanges entirely, an
//! interesting communication ablation in its own right.

/// The per-edge wave decomposition lives in [`eul3d_kernels::gas`] —
/// the single source of truth shared with the SoA lane kernel.
pub use eul3d_kernels::gas::roe_dissipation_flux;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::{pressure, Freestream, GAMMA};
    use eul3d_mesh::Vec3;

    #[test]
    fn zero_jump_means_zero_dissipation() {
        let fs = Freestream::new(GAMMA, 0.8, 2.0);
        let d = roe_dissipation_flux(GAMMA, &fs.w, &fs.w, fs.p, fs.p, Vec3::new(0.3, -0.2, 0.5));
        for x in d {
            assert!(x.abs() < 1e-14);
        }
    }

    #[test]
    fn dissipation_is_antisymmetric() {
        let wa = [1.0, 0.3, 0.05, -0.1, 2.2];
        let wb = [1.2, -0.2, 0.15, 0.05, 2.6];
        let (pa, pb) = (pressure(GAMMA, &wa), pressure(GAMMA, &wb));
        let eta = Vec3::new(0.4, 0.3, -0.2);
        let d1 = roe_dissipation_flux(GAMMA, &wa, &wb, pa, pb, eta);
        let d2 = roe_dissipation_flux(GAMMA, &wb, &wa, pb, pa, -eta);
        for c in 0..5 {
            assert!(
                (d1[c] + d2[c]).abs() < 1e-12,
                "component {c}: {} vs {}",
                d1[c],
                d2[c]
            );
        }
    }

    #[test]
    fn supersonic_edge_fully_upwinds() {
        // At M >> 1 through the face, |A|Δw must reproduce A·Δw's full
        // one-sided character: the Roe flux equals the upstream flux.
        // Equivalent check: F_central − D = F(upstream).
        let fs_fast = Freestream::new(GAMMA, 2.5, 0.0);
        let mut wb = fs_fast.w;
        wb[0] *= 1.15; // denser downstream state, same velocity direction
        wb[4] *= 1.15;
        let pa = fs_fast.p;
        let pb = pressure(GAMMA, &wb);
        let n = Vec3::new(1.0, 0.0, 0.0);
        let d = roe_dissipation_flux(GAMMA, &fs_fast.w, &wb, pa, pb, n);
        let fa = crate::gas::flux_dot(&fs_fast.w, pa, n);
        let fb = crate::gas::flux_dot(&wb, pb, n);
        for c in 0..5 {
            let central = 0.5 * (fa[c] + fb[c]);
            let roe = central - d[c];
            assert!(
                (roe - fa[c]).abs() < 1e-9 * fa[c].abs().max(1.0),
                "component {c}: Roe {roe} vs upstream {}",
                fa[c]
            );
        }
    }

    #[test]
    fn dissipation_scales_with_area() {
        let wa = [1.0, 0.2, 0.0, 0.0, 2.1];
        let wb = [1.1, 0.1, 0.05, 0.0, 2.4];
        let (pa, pb) = (pressure(GAMMA, &wa), pressure(GAMMA, &wb));
        let d1 = roe_dissipation_flux(GAMMA, &wa, &wb, pa, pb, Vec3::new(0.2, 0.0, 0.0));
        let d3 = roe_dissipation_flux(GAMMA, &wa, &wb, pa, pb, Vec3::new(0.6, 0.0, 0.0));
        for c in 0..5 {
            assert!((3.0 * d1[c] - d3[c]).abs() < 1e-12);
        }
    }
}
