//! Implicit residual averaging (§2.2), approximated by Jacobi sweeps of
//! `(I - ε Δ) R̄ = R`:
//!
//! ```text
//!   R̄_i ← (R_i + ε Σ_{j ∈ N(i)} R̄_j) / (1 + ε deg_i)
//! ```
//!
//! The neighbour sum is a per-vertex gather through the level's
//! adjacency (`eul3d_kernels::neighbour_sum_verts`) on every backend:
//! the shared path splits the vertex range over its team, the
//! distributed path gathers over owned and ghost slots alike and
//! scatter-adds the ghost partial sums to their owners.

use eul3d_kernels::ScatterAccess;
use eul3d_mesh::Csr;

use crate::counters::{FlopCounter, FLOPS_SMOOTH_EDGE, FLOPS_SMOOTH_VERT};
use crate::soa::SoaState;

/// Vertex degrees (incident-edge counts) as f64, accumulated from an
/// edge list. For a rank-local edge list this yields *partial* degrees
/// that must be summed across ranks (scatter_add) once in setup.
pub fn degrees_from_edges(edges: &[[u32; 2]], n: usize) -> Vec<f64> {
    let mut deg = vec![0.0; n];
    for &[a, b] in edges {
        deg[a as usize] += 1.0;
        deg[b as usize] += 1.0;
    }
    deg
}

/// Sequential Jacobi sweeps over a plane-major field: `passes` in-place
/// sweeps on the first `n_owned` rows of `res`, with `r0` and `acc`
/// as scratch and the level's adjacency `adj` for the
/// neighbour sums. Same math and accumulation order as the
/// executor-driven smoothing in [`crate::level`], used where no
/// `Executor` is in play (agglomerated correction smoothing).
#[allow(clippy::too_many_arguments)]
pub fn smooth_residual_serial_soa(
    adj: &Csr,
    n_owned: usize,
    deg: &[f64],
    eps: f64,
    passes: usize,
    res: &mut SoaState,
    r0: &mut SoaState,
    acc: &mut SoaState,
    counter: &mut FlopCounter,
) {
    if passes == 0 || eps == 0.0 {
        return;
    }
    let n = res.n();
    assert!(adj.len() == n && r0.n() == n && acc.n() == n && deg.len() >= n_owned);
    r0.copy_owned_from(res, n_owned);
    for _ in 0..passes {
        {
            let s = ScatterAccess::new(&mut [acc.flat_mut()]);
            // SAFETY: one serial span over all `n` rows of an adjacency
            // built over `n` slots; planes are `5n` (checked above).
            unsafe { eul3d_kernels::neighbour_sum_verts(0..n, adj, res.flat(), n, &s) };
        }
        counter.add(adj.items.len() / 2, FLOPS_SMOOTH_EDGE);
        {
            let s = ScatterAccess::new(&mut [res.flat_mut()]);
            // SAFETY: one serial span; plane sizes checked above.
            unsafe {
                eul3d_kernels::smooth_update_verts(
                    0..n_owned,
                    r0.flat(),
                    acc.flat(),
                    deg,
                    eps,
                    n,
                    &s,
                )
            };
        }
        counter.add(n_owned, FLOPS_SMOOTH_VERT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::NVAR;
    use eul3d_mesh::gen::unit_box;
    use eul3d_mesh::topology::vertex_vertex_adjacency;
    use eul3d_mesh::TetMesh;

    /// `passes` sweeps at `eps` over `res` on `m`; returns the flops charged.
    fn smooth(m: &TetMesh, eps: f64, passes: usize, res: &mut SoaState) -> f64 {
        let n = m.nverts();
        let deg = degrees_from_edges(&m.edges, n);
        let adj = vertex_vertex_adjacency(n, &m.edges);
        let (mut r0, mut acc) = (SoaState::new(n, NVAR), SoaState::new(n, NVAR));
        let mut counter = FlopCounter::default();
        smooth_residual_serial_soa(
            &adj,
            n,
            &deg,
            eps,
            passes,
            res,
            &mut r0,
            &mut acc,
            &mut counter,
        );
        counter.flops
    }

    #[test]
    fn degrees_match_adjacency() {
        let m = unit_box(3, 0.1, 1);
        let deg = degrees_from_edges(&m.edges, m.nverts());
        let adj = vertex_vertex_adjacency(m.nverts(), &m.edges);
        for (i, d) in deg.iter().enumerate() {
            assert_eq!(*d as usize, adj.degree(i));
        }
    }

    #[test]
    fn constant_residual_is_a_fixed_point() {
        let m = unit_box(3, 0.1, 2);
        let mut res = SoaState::new(m.nverts(), NVAR);
        res.fill(2.5);
        smooth(&m, 0.6, 3, &mut res);
        for x in res.flat() {
            assert!((x - 2.5).abs() < 1e-12, "constants must be preserved");
        }
    }

    #[test]
    fn smoothing_damps_oscillations() {
        // A checkerboard-ish residual must shrink in amplitude.
        let m = unit_box(4, 0.0, 0);
        let mut res = SoaState::new(m.nverts(), NVAR);
        for (r, c) in res.plane_mut(0).iter_mut().zip(&m.coords) {
            let s = ((c.x * 4.0) as i64 + (c.y * 4.0) as i64 + (c.z * 4.0) as i64) % 2;
            *r = if s == 0 { 1.0 } else { -1.0 };
        }
        let amp = |r: &SoaState| r.flat().iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let amp0 = amp(&res);
        smooth(&m, 0.6, 2, &mut res);
        let amp1 = amp(&res);
        assert!(amp1 < 0.7 * amp0, "oscillation {amp0} -> {amp1}");
    }

    #[test]
    fn zero_passes_is_identity() {
        let m = unit_box(2, 0.0, 0);
        let mut res = SoaState::new(m.nverts(), NVAR);
        for (i, x) in res.flat_mut().iter_mut().enumerate() {
            *x = i as f64;
        }
        let orig = res.clone();
        let flops = smooth(&m, 0.6, 0, &mut res);
        assert_eq!(res, orig);
        assert_eq!(flops, 0.0);
    }

    #[test]
    fn smoothing_conserves_the_total_in_the_limit() {
        // Jacobi iterates of (I - εΔ)⁻¹ preserve the residual sum only
        // approximately per sweep; check it stays close (regular interior).
        let m = unit_box(4, 0.0, 0);
        let n = m.nverts();
        let mut res = SoaState::new(n, NVAR);
        res.set(n / 2, 0, 1.0); // point source
        let before: f64 = res.plane(0).iter().sum();
        smooth(&m, 0.5, 2, &mut res);
        let after: f64 = res.plane(0).iter().sum();
        // The point value must have spread to neighbours.
        assert!(res.get(n / 2, 0) < 1.0);
        assert!(after > 0.2 * before, "mass should not vanish");
    }
}
