//! SoA vertex kernels: plane-contiguous maps over an owned index range.
//! Writes go through [`ScatterAccess::set`] so the same kernel body runs
//! serially, on disjoint rayon sub-ranges, and on rank-owned prefixes.
//!
//! All arithmetic reproduces the scalar AoS reference expression trees
//! bit for bit (see the crate docs); every store is an overwrite, so
//! iteration order cannot change results either.
//!
//! # Vertex gathers
//! The two *pure neighbour sums* of the solver — the residual-averaging
//! accumulation `Σ_j r̄_j` and JST pass 1 (`Σ_j (w_j − w_i)` plus the
//! two pressure-sensor sums) — carry no per-edge quantity worth
//! computing once, so they run here as **gathers** over a
//! vertex→neighbour [`Csr`] instead of as edge loops
//! ([`neighbour_sum_verts`], [`jst_gather_verts`]): each slot is
//! accumulated in registers and stored once, with no zero-fill pass, no
//! read-modify-write scatter and — every store being an overwrite of
//! the vertex's own slot — no colouring on the shared executor.
//!
//! They produce the bits of the edge loops they replace
//! (`smooth_accumulate_edges`, `jst_pass1_edges` over
//! `EdgeSpan::Range(0..nedges)`) provided the adjacency rows list
//! neighbours in ascending edge order, which
//! `eul3d_mesh::topology::vertex_vertex_adjacency` guarantees:
//!
//! * a slot starts from `+0.0` and receives one addition per incident
//!   edge, in edge order — the same additions in the same order as the
//!   zero-filled scatter target saw;
//! * the edge loop hands endpoint `b` the negated difference
//!   `−(x_b − x_a)`; the gather computes `x_a − x_b` directly. IEEE
//!   subtraction is odd, so the two agree except when `x_a == x_b`
//!   (`−0.0` against `+0.0`), and an accumulator that started at `+0.0`
//!   is never `−0.0` (round-to-nearest sums give `−0.0` only from two
//!   negative zeros), so adding either zero leaves the same bits.
//!   `p_b + p_a` is commutative outright.
//!
//! The argument covers every non-NaN input; a NaN keeps being a NaN,
//! but its sign bit is not pinned.
//!
//! # Safety
//! All kernels are `unsafe fn`: the caller must guarantee `range` and
//! all read planes are in bounds (`nc * n` flats as documented), targets
//! are sized as documented, and the [`ScatterAccess`] disjointness
//! contract holds (no two concurrent invocations share an index). The
//! gather kernels additionally require a well-formed adjacency: at
//! least `range.end` rows, non-decreasing offsets that stay within
//! `items`, and every neighbour id of a visited row `< n`.

use std::ops::Range;

use eul3d_mesh::Csr;

use crate::gas::pressure;
use crate::scatter::ScatterAccess;
use crate::NVAR;

/// Per-vertex pressures: target 0 (`p`, scalar `n`) from the plane-major
/// state `w` (`5n`).
///
/// # Safety
/// See the module contract.
pub unsafe fn pressure_verts(
    range: Range<usize>,
    gamma: f64,
    w: &[f64],
    n: usize,
    s: &ScatterAccess,
) {
    debug_assert!(w.len() >= NVAR * n && range.end <= n && s.len_of(0) >= range.end);
    let wp = w.as_ptr();
    for i in range {
        unsafe {
            let w = [0, 1, 2, 3, 4].map(|c| *wp.add(c * n + i));
            s.set(0, i, pressure(gamma, &w));
        }
    }
}

/// Shock sensor `ν_i = |Σ(p_j−p_i)| / |Σ(p_j+p_i)|`: target 0 (`nu`,
/// scalar) from the plane-major pass-1 accumulators `sens` (`2n`).
///
/// # Safety
/// See the module contract.
pub unsafe fn sensor_verts(range: Range<usize>, sens: &[f64], n: usize, s: &ScatterAccess) {
    debug_assert!(sens.len() >= 2 * n && range.end <= n && s.len_of(0) >= range.end);
    let sp = sens.as_ptr();
    for i in range {
        unsafe {
            let num = (*sp.add(i)).abs();
            let den = (*sp.add(n + i)).abs().max(1e-300);
            s.set(0, i, num / den);
        }
    }
}

/// Residual assembly `res = Q − D + P`: target 0 (`res`, plane-major
/// `5n`) from `q`, `diss`, `forcing` (each `5n`).
///
/// # Safety
/// See the module contract.
pub unsafe fn assemble_verts(
    range: Range<usize>,
    q: &[f64],
    diss: &[f64],
    forcing: &[f64],
    n: usize,
    s: &ScatterAccess,
) {
    debug_assert!(q.len() >= NVAR * n && diss.len() >= NVAR * n && forcing.len() >= NVAR * n);
    debug_assert!(range.end <= n && s.len_of(0) >= NVAR * n);
    let (qp, dp, fp) = (q.as_ptr(), diss.as_ptr(), forcing.as_ptr());
    for c in 0..NVAR {
        let base = c * n;
        for i in range.clone() {
            unsafe {
                let j = base + i;
                s.set(0, j, *qp.add(j) - *dp.add(j) + *fp.add(j));
            }
        }
    }
}

/// Jacobi residual-averaging update
/// `r̄ = (r0 + ε acc) / (1 + ε deg)`: target 0 (`res`, plane-major `5n`).
///
/// # Safety
/// See the module contract (`r0`, `acc` `≥ 5n`; `deg` `≥ n`).
#[allow(clippy::too_many_arguments)]
pub unsafe fn smooth_update_verts(
    range: Range<usize>,
    r0: &[f64],
    acc: &[f64],
    deg: &[f64],
    eps: f64,
    n: usize,
    s: &ScatterAccess,
) {
    debug_assert!(r0.len() >= NVAR * n && acc.len() >= NVAR * n && deg.len() >= range.end);
    debug_assert!(range.end <= n && s.len_of(0) >= NVAR * n);
    let (rp, ap, gp) = (r0.as_ptr(), acc.as_ptr(), deg.as_ptr());
    for i in range {
        unsafe {
            let inv = 1.0 / (1.0 + eps * *gp.add(i));
            for c in 0..NVAR {
                let j = c * n + i;
                s.set(0, j, (*rp.add(j) + eps * *ap.add(j)) * inv);
            }
        }
    }
}

/// Local time steps `Δt = CFL · V / Λ`: target 0 (`dt`, scalar).
///
/// # Safety
/// See the module contract (`vol`, `lam` `≥ range.end`).
pub unsafe fn local_dt_verts(
    range: Range<usize>,
    cfl: f64,
    vol: &[f64],
    lam: &[f64],
    s: &ScatterAccess,
) {
    debug_assert!(vol.len() >= range.end && lam.len() >= range.end);
    debug_assert!(s.len_of(0) >= range.end);
    let (vp, lp) = (vol.as_ptr(), lam.as_ptr());
    for i in range {
        unsafe {
            s.set(0, i, cfl * *vp.add(i) / (*lp.add(i)).max(1e-300));
        }
    }
}

/// Runge–Kutta stage update `w = w⁰ − α Δt/V · res`: target 0 (`w`,
/// plane-major `5n`).
///
/// # Safety
/// See the module contract (`w0`, `res` `≥ 5n`; `dt`, `vol` `≥ range.end`).
#[allow(clippy::too_many_arguments)]
pub unsafe fn rk_update_verts(
    range: Range<usize>,
    alpha: f64,
    w0: &[f64],
    res: &[f64],
    dt: &[f64],
    vol: &[f64],
    n: usize,
    s: &ScatterAccess,
) {
    debug_assert!(w0.len() >= NVAR * n && res.len() >= NVAR * n);
    debug_assert!(dt.len() >= range.end && vol.len() >= range.end);
    debug_assert!(range.end <= n && s.len_of(0) >= NVAR * n);
    let (wp, rp, tp, vp) = (w0.as_ptr(), res.as_ptr(), dt.as_ptr(), vol.as_ptr());
    for i in range {
        unsafe {
            let scale = alpha * *tp.add(i) / *vp.add(i);
            for c in 0..NVAR {
                let j = c * n + i;
                s.set(0, j, *wp.add(j) - scale * *rp.add(j));
            }
        }
    }
}

/// Debug-build check of the gather kernels' adjacency contract over the
/// rows of `range`.
fn debug_check_rows(range: &Range<usize>, adj: &Csr, n: usize) {
    debug_assert!(range.end <= n && adj.offsets.len() > range.end);
    debug_assert!(adj.offsets[range.start..=range.end]
        .windows(2)
        .all(|w| w[0] <= w[1]));
    debug_assert!(adj.offsets[range.end] as usize <= adj.items.len());
    debug_assert!(range
        .clone()
        .all(|i| adj.row(i).iter().all(|&j| (j as usize) < n)));
}

/// Residual-averaging neighbour sum `acc_i = Σ_{j ∈ N(i)} r̄_j` for the
/// vertices of `range`: target 0 (`acc`, plane-major `5n`) from the
/// plane-major residual `res` (`5n`), neighbours taken from row `i` of
/// `adj` in row order. Every slot of the range is overwritten (isolated
/// vertices get `0.0`), so the target needs no zero-fill.
///
/// # Safety
/// See the module contract. `res` `≥ 5n`, target 0 `≥ 5n`.
pub unsafe fn neighbour_sum_verts(
    range: Range<usize>,
    adj: &Csr,
    res: &[f64],
    n: usize,
    s: &ScatterAccess,
) {
    debug_assert!(res.len() >= NVAR * n && s.len_of(0) >= NVAR * n);
    debug_check_rows(&range, adj, n);
    let (op, ip, rp) = (adj.offsets.as_ptr(), adj.items.as_ptr(), res.as_ptr());
    for i in range {
        unsafe {
            let (lo, hi) = (*op.add(i) as usize, *op.add(i + 1) as usize);
            let (mut a0, mut a1, mut a2, mut a3, mut a4) = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for k in lo..hi {
                let j = *ip.add(k) as usize;
                a0 += *rp.add(j);
                a1 += *rp.add(n + j);
                a2 += *rp.add(2 * n + j);
                a3 += *rp.add(3 * n + j);
                a4 += *rp.add(4 * n + j);
            }
            s.set(0, i, a0);
            s.set(0, n + i, a1);
            s.set(0, 2 * n + i, a2);
            s.set(0, 3 * n + i, a3);
            s.set(0, 4 * n + i, a4);
        }
    }
}

/// JST pass 1 as a gather: undivided Laplacian `L_i = Σ_j (w_j − w_i)`
/// into target 0 (`lapl`, plane-major `5n`) and the pressure-sensor
/// sums into target 1 (`sens`, plane-major `2n`: plane 0 `Σ(p_j − p_i)`,
/// plane 1 `Σ(p_j + p_i)`) for the vertices of `range`. Every slot of
/// the range is overwritten, so neither target needs a zero-fill.
///
/// # Safety
/// See the module contract. `w` `≥ 5n`, `p` `≥ n`, target 0 `≥ 5n`,
/// target 1 `≥ 2n`.
pub unsafe fn jst_gather_verts(
    range: Range<usize>,
    adj: &Csr,
    w: &[f64],
    p: &[f64],
    n: usize,
    s: &ScatterAccess,
) {
    debug_assert!(w.len() >= NVAR * n && p.len() >= n);
    debug_assert!(s.len_of(0) >= NVAR * n && s.len_of(1) >= 2 * n);
    debug_check_rows(&range, adj, n);
    let (op, ip) = (adj.offsets.as_ptr(), adj.items.as_ptr());
    let (wp, pp) = (w.as_ptr(), p.as_ptr());
    for i in range {
        unsafe {
            let (lo, hi) = (*op.add(i) as usize, *op.add(i + 1) as usize);
            let (w0, w1, w2, w3, w4) = (
                *wp.add(i),
                *wp.add(n + i),
                *wp.add(2 * n + i),
                *wp.add(3 * n + i),
                *wp.add(4 * n + i),
            );
            let pi = *pp.add(i);
            let (mut l0, mut l1, mut l2, mut l3, mut l4) = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
            let (mut dp, mut sp) = (0.0f64, 0.0f64);
            for k in lo..hi {
                let j = *ip.add(k) as usize;
                l0 += *wp.add(j) - w0;
                l1 += *wp.add(n + j) - w1;
                l2 += *wp.add(2 * n + j) - w2;
                l3 += *wp.add(3 * n + j) - w3;
                l4 += *wp.add(4 * n + j) - w4;
                let pj = *pp.add(j);
                dp += pj - pi;
                sp += pj + pi;
            }
            s.set(0, i, l0);
            s.set(0, n + i, l1);
            s.set(0, 2 * n + i, l2);
            s.set(0, 3 * n + i, l3);
            s.set(0, 4 * n + i, l4);
            s.set(1, i, dp);
            s.set(1, n + i, sp);
        }
    }
}
