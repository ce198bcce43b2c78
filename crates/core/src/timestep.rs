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
