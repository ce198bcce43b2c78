//! Local time stepping (§2.2: "locally varying time steps"): each vertex
//! advances with `Δt_i = CFL · V_i / Λ_i`, where `Λ_i` is the sum of the
//! convective spectral radii over the faces of its dual control volume.

use eul3d_mesh::BoundaryFace;

use crate::executor::{EdgeSpan, ScatterAccess};
use crate::gas::spectral_radius;
use crate::soa::SoaState;

/// Add the boundary-face contribution of the faces in `span` (each
/// vertex gets the radius through its third of the face) into target 0
/// of `lam` (`n`), at the face vertices `lam` owns, reading plane-major
/// state. The caller charges `bfaces.len() × FLOPS_RADII_EDGE`.
///
/// # Safety
/// `span` ids index `bfaces`, every face vertex is `< w.n()`, target 0
/// of `lam` holds `w.n()` slots, and no concurrently running call owns
/// the same vertex (the [`ScatterAccess`] conflict contract).
pub unsafe fn radii_bfaces_soa(
    span: &EdgeSpan<'_>,
    bfaces: &[BoundaryFace],
    w: &SoaState,
    p: &[f64],
    gamma: f64,
    lam: &ScatterAccess,
) {
    debug_assert!(lam.len_of(0) >= w.n());
    span.for_each(|i| {
        let face = &bfaces[i];
        let third = face.normal / 3.0;
        for v in face.v.map(|v| v as usize) {
            if lam.owns(v) {
                // SAFETY: `v < n` and owned (caller contract).
                unsafe { lam.add(0, v, spectral_radius(gamma, &w.get5(v), p[v], third)) }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, SerialExecutor};
    use crate::gas::{Freestream, GAMMA, NVAR};
    use eul3d_kernels as kn;
    use eul3d_mesh::gen::unit_box;
    use eul3d_mesh::TetMesh;

    /// Local time steps (CFL 1) of uniform flow at `mach` on `m`.
    fn uniform_flow_dt(m: &TetMesh, mach: f64) -> Vec<f64> {
        let n = m.nverts();
        let fs = Freestream::new(GAMMA, mach, 0.0);
        let mut w = SoaState::new(n, NVAR);
        w.fill_rows(&fs.w);
        let p = vec![fs.p; n];
        let mut lam = vec![0.0; n];
        SerialExecutor.for_edge_spans(m.nedges(), &mut [&mut lam], |span, s| {
            // SAFETY: single-threaded; arrays sized by the mesh.
            unsafe {
                kn::radii_edges_soa(
                    span,
                    &m.edges,
                    &m.edge_coef,
                    GAMMA,
                    w.flat(),
                    &p,
                    n,
                    s,
                    kn::DEFAULT_LANES,
                )
            }
        });
        SerialExecutor.for_face_spans(m.bfaces.len(), &mut [&mut lam], |span, s| {
            // SAFETY: single-threaded; arrays sized by the mesh.
            unsafe { radii_bfaces_soa(span, &m.bfaces, &w, &p, GAMMA, s) }
        });
        let mut dt = vec![0.0; n];
        SerialExecutor.for_vertex_spans(n, &mut [&mut dt], |r, s| {
            // SAFETY: single-threaded; `vol`, `lam`, `dt` hold n values.
            unsafe { kn::local_dt_verts(r, 1.0, &m.vol, &lam, s) }
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
}
