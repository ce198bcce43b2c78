//! Boundary fluxes: inviscid slip walls (pressure only) and
//! characteristic far-field boundaries driven by Riemann invariants.

use eul3d_mesh::{BcKind, BoundaryFace, Vec3};

use crate::counters::{FlopCounter, FLOPS_FARFIELD_FACE, FLOPS_WALL_FACE};
use crate::executor::{EdgeSpan, ScatterAccess};
use crate::gas::{flux_dot, sound_speed, Freestream, NVAR};
use crate::soa::SoaState;

/// Characteristic far-field state for an interior state `wi` against the
/// freestream, through the outward unit normal `n` (1-D Riemann-invariant
/// analysis normal to the boundary).
pub fn farfield_state(gamma: f64, wi: &[f64; 5], pi: f64, fs: &Freestream, n: Vec3) -> [f64; 5] {
    let rho_i = wi[0];
    let vel_i = Vec3::new(wi[1] / rho_i, wi[2] / rho_i, wi[3] / rho_i);
    let qn_i = vel_i.dot(n);
    let c_i = sound_speed(gamma, rho_i, pi);

    let rho_o = fs.w[0];
    let vel_o = fs.velocity();
    let qn_o = vel_o.dot(n);
    let c_o = sound_speed(gamma, rho_o, fs.p);

    // Supersonic cases: one-sided.
    if qn_i >= c_i {
        return *wi; // supersonic outflow
    }
    if qn_o <= -c_o {
        return fs.w; // supersonic inflow
    }

    let gm1 = gamma - 1.0;
    // Outgoing invariant from inside, incoming from outside.
    let r_plus = qn_i + 2.0 * c_i / gm1;
    let r_minus = qn_o - 2.0 * c_o / gm1;
    let qn_b = 0.5 * (r_plus + r_minus);
    let c_b = 0.25 * gm1 * (r_plus - r_minus);

    // Entropy and tangential velocity ride the flow direction.
    let (rho_ref, p_ref, vel_ref, qn_ref) = if qn_b > 0.0 {
        (rho_i, pi, vel_i, qn_i) // outflow: from interior
    } else {
        (rho_o, fs.p, vel_o, qn_o) // inflow: from freestream
    };
    let s = p_ref / rho_ref.powf(gamma);
    let rho_b = (c_b * c_b / (gamma * s)).powf(1.0 / gm1);
    let p_b = rho_b * c_b * c_b / gamma;
    let vel_b = vel_ref + (qn_b - qn_ref) * n;

    [
        rho_b,
        rho_b * vel_b.x,
        rho_b * vel_b.y,
        rho_b * vel_b.z,
        p_b / gm1 + 0.5 * rho_b * vel_b.norm_sq(),
    ]
}

/// Accumulate the boundary-face fluxes of the faces in `span` into the
/// plane-major convective residual (target 0 of `q`, `5n`), at the face
/// vertices `q` owns.
///
/// Slip walls and symmetry planes contribute pure pressure flux using
/// each vertex's own pressure through its third of the face normal;
/// far-field faces solve the characteristic state from the face-averaged
/// interior state and push the resulting flux through `S/3` per vertex.
/// Faces are processed in ascending order, which fixes the per-vertex
/// accumulation order and therefore every bit of the result — for one
/// span over all faces and for per-owner spans alike.
///
/// # Safety
/// `span` ids index `bfaces`, every face vertex is `< w.n()`, target 0
/// of `q` holds `5 * w.n()` slots, and no concurrently running call
/// owns the same vertex (the [`ScatterAccess`] conflict contract).
pub unsafe fn boundary_residual_soa(
    span: &EdgeSpan<'_>,
    bfaces: &[BoundaryFace],
    w: &SoaState,
    p: &[f64],
    fs: &Freestream,
    gamma: f64,
    q: &ScatterAccess,
) {
    let n = w.n();
    debug_assert!(q.len_of(0) >= NVAR * n);
    span.for_each(|i| {
        let face = &bfaces[i];
        match face.kind {
            BcKind::Wall | BcKind::Symmetry => {
                let third = face.normal / 3.0;
                for v in face.v.map(|v| v as usize) {
                    if q.owns(v) {
                        // SAFETY: `v < n` and owned (caller contract).
                        unsafe {
                            q.add(0, n + v, p[v] * third.x);
                            q.add(0, 2 * n + v, p[v] * third.y);
                            q.add(0, 3 * n + v, p[v] * third.z);
                        }
                    }
                }
            }
            BcKind::FarField => {
                // Face-averaged interior state.
                let mut wf = [0.0; NVAR];
                for &v in &face.v {
                    let wv = w.get5(v as usize);
                    for c in 0..NVAR {
                        wf[c] += wv[c] / 3.0;
                    }
                }
                let pf = crate::gas::pressure(gamma, &wf);
                let n_unit = match face.normal.normalized() {
                    Some(n) => n,
                    None => return, // degenerate sliver face: no area, no flux
                };
                let wb = farfield_state(gamma, &wf, pf, fs, n_unit);
                let pb = crate::gas::pressure(gamma, &wb);
                let f = flux_dot(&wb, pb, face.normal / 3.0);
                for v in face.v.map(|v| v as usize) {
                    if q.owns(v) {
                        for (c, &fc) in f.iter().enumerate() {
                            // SAFETY: `v < n` and owned (caller contract).
                            unsafe { q.add(0, c * n + v, fc) }
                        }
                    }
                }
            }
        }
    });
}

/// `bfaces` by kind, `(wall or symmetry, far field)`: what one pass of
/// [`boundary_residual_soa`] over them is charged
/// ([`charge_boundary_faces`]). Taken once per level, not per pass.
pub fn boundary_face_counts(bfaces: &[BoundaryFace]) -> (usize, usize) {
    let nfar = bfaces.iter().filter(|f| f.kind == BcKind::FarField).count();
    (bfaces.len() - nfar, nfar)
}

/// Charge one pass over a level's boundary faces to `counter`: one
/// launch per face kind present.
pub fn charge_boundary_faces((nwall, nfar): (usize, usize), counter: &mut FlopCounter) {
    if nwall > 0 {
        counter.add(nwall, FLOPS_WALL_FACE);
    }
    if nfar > 0 {
        counter.add(nfar, FLOPS_FARFIELD_FACE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, SerialExecutor};
    use crate::gas::GAMMA;
    use eul3d_mesh::gen::unit_box;

    fn uniform_state(n: usize, fs: &Freestream) -> SoaState {
        let mut w = SoaState::new(n, NVAR);
        w.fill_rows(&fs.w);
        w
    }

    #[test]
    fn farfield_state_at_freestream_is_freestream() {
        let fs = Freestream::new(GAMMA, 0.675, 2.0);
        for n in [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, -1.0, 0.0)] {
            let wb = farfield_state(GAMMA, &fs.w, fs.p, &fs, n);
            for (c, (got, want)) in wb.iter().zip(&fs.w).enumerate() {
                assert!((got - want).abs() < 1e-12, "component {c}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn supersonic_outflow_copies_interior() {
        let fs = Freestream::new(GAMMA, 0.5, 0.0);
        // Interior state at Mach 2 flowing out through +x.
        let wi = Freestream::new(GAMMA, 2.0, 0.0).w;
        let pi = crate::gas::pressure(GAMMA, &wi);
        let wb = farfield_state(GAMMA, &wi, pi, &fs, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(wb, wi);
    }

    #[test]
    fn supersonic_inflow_copies_freestream() {
        let fs = Freestream::new(GAMMA, 2.0, 0.0);
        let wi = Freestream::new(GAMMA, 0.3, 0.0).w;
        let pi = crate::gas::pressure(GAMMA, &wi);
        // Inflow boundary: outward normal against the flow.
        let wb = farfield_state(GAMMA, &wi, pi, &fs, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(wb, fs.w);
    }

    #[test]
    fn freestream_preservation_on_farfield_box() {
        // THE discretization acid test: uniform flow through an
        // all-far-field jittered box must produce an exactly zero
        // convective residual (dual-surface closure).
        let m = unit_box(4, 0.2, 9);
        let n = m.nverts();
        let fs = Freestream::new(GAMMA, 0.675, 1.5);
        let w = uniform_state(n, &fs);
        let mut p = vec![0.0; n];
        SerialExecutor.for_vertex_range(0..n, &mut [&mut p], |r, s| {
            // SAFETY: single-threaded; `w` holds 5n values, `p` holds n.
            unsafe { eul3d_kernels::pressure_verts(r, GAMMA, w.flat(), n, s) }
        });
        let mut q = SoaState::new(n, NVAR);
        SerialExecutor.for_edge_spans(m.nedges(), &mut [q.flat_mut()], |span, s| {
            // SAFETY: single-threaded; arrays sized by the mesh.
            unsafe {
                eul3d_kernels::conv_flux_edges(
                    span,
                    &m.edges,
                    &m.edge_coef,
                    w.flat(),
                    &p,
                    n,
                    s,
                    eul3d_kernels::DEFAULT_LANES,
                )
            }
        });
        SerialExecutor.for_face_spans(m.bfaces.len(), &mut [q.flat_mut()], |span, s| {
            // SAFETY: single-threaded; arrays sized by the mesh.
            unsafe { boundary_residual_soa(span, &m.bfaces, &w, &p, &fs, GAMMA, s) }
        });
        let max = q.flat().iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(
            max < 1e-11,
            "freestream must be preserved, max residual {max}"
        );
    }

    #[test]
    fn wall_blocks_mass_flux() {
        // A wall face must contribute no mass or energy residual.
        use eul3d_mesh::{BcKind, BoundaryFace};
        let fs = Freestream::new(GAMMA, 0.5, 0.0);
        let w = uniform_state(3, &fs);
        let p = vec![fs.p; 3];
        let face = BoundaryFace {
            v: [0, 1, 2],
            normal: Vec3::new(0.0, 0.3, 0.0),
            kind: BcKind::Wall,
        };
        let mut q = SoaState::new(3, NVAR);
        SerialExecutor.for_face_spans(1, &mut [q.flat_mut()], |span, s| {
            // SAFETY: single-threaded; three vertices, 5 planes of 3.
            unsafe { boundary_residual_soa(span, &[face], &w, &p, &fs, GAMMA, s) }
        });
        let mut counter = FlopCounter::default();
        assert_eq!(boundary_face_counts(&[face]), (1, 0));
        charge_boundary_faces((1, 0), &mut counter);
        assert_eq!((counter.flops, counter.launches), (FLOPS_WALL_FACE, 1));
        for v in 0..3 {
            assert_eq!(q.get(v, 0), 0.0, "no mass through a wall");
            assert_eq!(q.get(v, 4), 0.0, "no energy through a wall");
            assert!(q.get(v, 2) > 0.0, "pressure pushes on the wall");
        }
    }
}
