//! 4-wide AVX2 bodies for the gather-heavy edge kernels.
//!
//! Each `*_span` function mirrors one public kernel in `edges.rs`: it
//! runs the same lane-chunked [`drive`] loop, but inside each chunk it
//! gathers four edges' endpoint planes into `__m256d` registers (one
//! hardware gather per plane per side), evaluates the per-edge
//! expression tree with elementwise vector ops, and scatters scalar,
//! per edge, in ascending edge order. Chunk remainders (fewer than four
//! edges) fall back to the shared scalar bodies in [`one`].
//!
//! # Bit-equivalence
//! The vector ops used — `add`/`sub`/`mul`/`div`/`sqrt` (IEEE correctly
//! rounded per element), sign-mask `abs`, and a `max_pd` + NaN-blend
//! sequence reproducing `f64::max` — give exactly the scalar result in
//! every lane; no FMA contraction, no reassociation. The crate's
//! equivalence tests exercise this path on any AVX2 host.
//!
//! Closures are deliberately absent from the vector bodies: a closure
//! defined outside a `#[target_feature]` function does not inherit the
//! feature set, so its 256-bit ops would be legalized to split 128-bit
//! code with memory-ABI crossings.

#![allow(clippy::too_many_arguments)]

use core::arch::x86_64::*;

use eul3d_mesh::Vec3;

use crate::edges::{drive, one};
use crate::scatter::{EdgeSpan, Epilogue};

/// Runtime AVX2 check (result is cached by `std`).
#[inline(always)]
pub(crate) fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Gather `base[idx[0..4]]` into ascending lanes. Insert-chain loads
/// beat `vgatherdpd` here: the hardware gather's port occupancy stalls
/// the scatter-heavy kernels on the machines we measured.
///
/// # Safety
/// All four indices must be in bounds of the allocation at `base`.
#[inline(always)]
unsafe fn gather4(base: *const f64, idx: &[usize; 4]) -> __m256d {
    unsafe {
        _mm256_set_pd(
            *base.add(idx[3]),
            *base.add(idx[2]),
            *base.add(idx[1]),
            *base.add(idx[0]),
        )
    }
}

/// Spill a vector to an indexable lane array.
#[inline(always)]
fn lanes_of(v: __m256d) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
    out
}

/// `|x|` as the sign-bit mask-off, identical to scalar `f64::abs`.
#[inline(always)]
fn abs_pd(x: __m256d) -> __m256d {
    unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), x) }
}

/// `f64::max(a, b)` semantics per lane: `max_pd` already returns `b`
/// when `a` is NaN; blend back `a` where `b` is NaN.
#[inline(always)]
fn maxnum_pd(a: __m256d, b: __m256d) -> __m256d {
    unsafe {
        let m = _mm256_max_pd(a, b);
        let b_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(b, b);
        _mm256_blendv_pd(m, a, b_nan)
    }
}

/// Endpoint indices (scalar for the scatter, vector for the gathers)
/// and face-normal lanes of four consecutive span ids.
struct Four {
    ai: [usize; 4],
    bi: [usize; 4],
    ex: __m256d,
    ey: __m256d,
    ez: __m256d,
}

/// # Safety
/// `ids[k..k+4]` must be valid edge ids for `edges`/`coef`.
#[inline(always)]
unsafe fn load4(ids: &[u32], k: usize, edges: &[[u32; 2]], coef: &[Vec3]) -> Four {
    let mut ai = [0usize; 4];
    let mut bi = [0usize; 4];
    let mut ex = [0.0f64; 4];
    let mut ey = [0.0f64; 4];
    let mut ez = [0.0f64; 4];
    for j in 0..4 {
        unsafe {
            let e = *ids.get_unchecked(k + j) as usize;
            let [a, b] = *edges.get_unchecked(e);
            ai[j] = a as usize;
            bi[j] = b as usize;
            let eta = *coef.get_unchecked(e);
            ex[j] = eta.x;
            ey[j] = eta.y;
            ez[j] = eta.z;
        }
    }
    unsafe {
        Four {
            ai,
            bi,
            ex: _mm256_loadu_pd(ex.as_ptr()),
            ey: _mm256_loadu_pd(ey.as_ptr()),
            ez: _mm256_loadu_pd(ez.as_ptr()),
        }
    }
}

/// `|η|` per lane: `sqrt(ex² + ey² + ez²)` in the scalar tree order.
#[inline(always)]
fn norm4(g: &Four) -> __m256d {
    unsafe {
        _mm256_sqrt_pd(_mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(g.ex, g.ex), _mm256_mul_pd(g.ey, g.ey)),
            _mm256_mul_pd(g.ez, g.ez),
        ))
    }
}

/// One endpoint's spectral radius `|q·η|/ρ + √(γp/ρ)·|η|` from
/// already-gathered planes — the vector twin of the per-side half of
/// [`one::edge_lambda`].
#[inline(always)]
fn sigma4(
    r: __m256d,
    w1: __m256d,
    w2: __m256d,
    w3: __m256d,
    p: __m256d,
    g: &Four,
    norm: __m256d,
    gamma: __m256d,
) -> __m256d {
    unsafe {
        let qn = _mm256_div_pd(
            _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(w1, g.ex), _mm256_mul_pd(w2, g.ey)),
                _mm256_mul_pd(w3, g.ez),
            ),
            r,
        );
        _mm256_add_pd(
            abs_pd(qn),
            _mm256_mul_pd(
                _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(gamma, p), r)),
                norm,
            ),
        )
    }
}

/// AVX2 body of `conv_flux_edges`.
///
/// # Safety
/// Same contract as `conv_flux_edges`; requires AVX2 (checked by the
/// dispatching kernel).
pub(crate) unsafe fn conv_flux_span<const M: bool>(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
    lanes: usize,
) {
    unsafe {
        drive(span, lanes, |ids| {
            conv_flux_chunk(ids, edges, coef, wp, pp, n, s);
        });
    }
}

#[target_feature(enable = "avx2")]
unsafe fn conv_flux_chunk<const M: bool>(
    ids: &[u32],
    edges: &[[u32; 2]],
    coef: &[Vec3],
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
) {
    unsafe {
        let half = _mm256_set1_pd(0.5);
        let mut k = 0;
        while k + 4 <= ids.len() {
            let g = load4(ids, k, edges, coef);
            let wa0 = gather4(wp, &g.ai);
            let wa1 = gather4(wp.add(n), &g.ai);
            let wa2 = gather4(wp.add(2 * n), &g.ai);
            let wa3 = gather4(wp.add(3 * n), &g.ai);
            let wa4 = gather4(wp.add(4 * n), &g.ai);
            let wb0 = gather4(wp, &g.bi);
            let wb1 = gather4(wp.add(n), &g.bi);
            let wb2 = gather4(wp.add(2 * n), &g.bi);
            let wb3 = gather4(wp.add(3 * n), &g.bi);
            let wb4 = gather4(wp.add(4 * n), &g.bi);
            let pa = gather4(pp, &g.ai);
            let pb = gather4(pp, &g.bi);
            let ua = _mm256_div_pd(wa1, wa0);
            let va = _mm256_div_pd(wa2, wa0);
            let za = _mm256_div_pd(wa3, wa0);
            let qna = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(ua, g.ex), _mm256_mul_pd(va, g.ey)),
                _mm256_mul_pd(za, g.ez),
            );
            let fa0 = _mm256_mul_pd(wa0, qna);
            let fa1 = _mm256_add_pd(_mm256_mul_pd(wa1, qna), _mm256_mul_pd(pa, g.ex));
            let fa2 = _mm256_add_pd(_mm256_mul_pd(wa2, qna), _mm256_mul_pd(pa, g.ey));
            let fa3 = _mm256_add_pd(_mm256_mul_pd(wa3, qna), _mm256_mul_pd(pa, g.ez));
            let fa4 = _mm256_mul_pd(_mm256_add_pd(wa4, pa), qna);
            let ub = _mm256_div_pd(wb1, wb0);
            let vb = _mm256_div_pd(wb2, wb0);
            let zb = _mm256_div_pd(wb3, wb0);
            let qnb = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(ub, g.ex), _mm256_mul_pd(vb, g.ey)),
                _mm256_mul_pd(zb, g.ez),
            );
            let fb0 = _mm256_mul_pd(wb0, qnb);
            let fb1 = _mm256_add_pd(_mm256_mul_pd(wb1, qnb), _mm256_mul_pd(pb, g.ex));
            let fb2 = _mm256_add_pd(_mm256_mul_pd(wb2, qnb), _mm256_mul_pd(pb, g.ey));
            let fb3 = _mm256_add_pd(_mm256_mul_pd(wb3, qnb), _mm256_mul_pd(pb, g.ez));
            let fb4 = _mm256_mul_pd(_mm256_add_pd(wb4, pb), qnb);
            let f0 = lanes_of(_mm256_mul_pd(half, _mm256_add_pd(fa0, fb0)));
            let f1 = lanes_of(_mm256_mul_pd(half, _mm256_add_pd(fa1, fb1)));
            let f2 = lanes_of(_mm256_mul_pd(half, _mm256_add_pd(fa2, fb2)));
            let f3 = lanes_of(_mm256_mul_pd(half, _mm256_add_pd(fa3, fb3)));
            let f4 = lanes_of(_mm256_mul_pd(half, _mm256_add_pd(fa4, fb4)));
            for j in 0..4 {
                let (a, b) = (g.ai[j], g.bi[j]);
                s.add_sub(0, n, a, b, [f0[j], f1[j], f2[j], f3[j], f4[j]]);
            }
            k += 4;
        }
        for &e in ids.get_unchecked(k..) {
            one::conv_flux(e as usize, edges, coef, wp, pp, n, s);
        }
    }
}

/// AVX2 body of `radii_edges_soa`.
///
/// # Safety
/// Same contract as `radii_edges_soa`; requires AVX2.
pub(crate) unsafe fn radii_span<const M: bool>(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
    lanes: usize,
) {
    unsafe {
        drive(span, lanes, |ids| {
            radii_chunk(ids, edges, coef, gamma, wp, pp, n, s);
        });
    }
}

#[target_feature(enable = "avx2")]
unsafe fn radii_chunk<const M: bool>(
    ids: &[u32],
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
) {
    unsafe {
        let gv = _mm256_set1_pd(gamma);
        let half = _mm256_set1_pd(0.5);
        let mut k = 0;
        while k + 4 <= ids.len() {
            let g = load4(ids, k, edges, coef);
            let norm = norm4(&g);
            let sa = sigma4(
                gather4(wp, &g.ai),
                gather4(wp.add(n), &g.ai),
                gather4(wp.add(2 * n), &g.ai),
                gather4(wp.add(3 * n), &g.ai),
                gather4(pp, &g.ai),
                &g,
                norm,
                gv,
            );
            let sb = sigma4(
                gather4(wp, &g.bi),
                gather4(wp.add(n), &g.bi),
                gather4(wp.add(2 * n), &g.bi),
                gather4(wp.add(3 * n), &g.bi),
                gather4(pp, &g.bi),
                &g,
                norm,
                gv,
            );
            let l = lanes_of(_mm256_mul_pd(half, _mm256_add_pd(sa, sb)));
            for (j, &lam) in l.iter().enumerate() {
                s.add_pair(0, n, g.ai[j], g.bi[j], [lam], [lam]);
            }
            k += 4;
        }
        for &e in ids.get_unchecked(k..) {
            one::radii(e as usize, edges, coef, gamma, wp, pp, n, s);
        }
    }
}

/// AVX2 body of `jst_pass1_edges` — like it, a reference oracle and
/// referee probe target, not on the solver path (the solver gathers
/// through `jst_gather_verts`).
///
/// # Safety
/// Same contract as `jst_pass1_edges`; requires AVX2.
pub(crate) unsafe fn jst_pass1_span<const M: bool>(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
    lanes: usize,
) {
    unsafe {
        drive(span, lanes, |ids| {
            jst_pass1_chunk(ids, edges, wp, pp, n, s);
        });
    }
}

#[target_feature(enable = "avx2")]
unsafe fn jst_pass1_chunk<const M: bool>(
    ids: &[u32],
    edges: &[[u32; 2]],
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
) {
    unsafe {
        let mut k = 0;
        while k + 4 <= ids.len() {
            let mut ai = [0usize; 4];
            let mut bi = [0usize; 4];
            for j in 0..4 {
                let e = *ids.get_unchecked(k + j) as usize;
                let [a, b] = *edges.get_unchecked(e);
                ai[j] = a as usize;
                bi[j] = b as usize;
            }
            let d0 = lanes_of(_mm256_sub_pd(gather4(wp, &bi), gather4(wp, &ai)));
            let d1 = lanes_of(_mm256_sub_pd(
                gather4(wp.add(n), &bi),
                gather4(wp.add(n), &ai),
            ));
            let d2 = lanes_of(_mm256_sub_pd(
                gather4(wp.add(2 * n), &bi),
                gather4(wp.add(2 * n), &ai),
            ));
            let d3 = lanes_of(_mm256_sub_pd(
                gather4(wp.add(3 * n), &bi),
                gather4(wp.add(3 * n), &ai),
            ));
            let d4 = lanes_of(_mm256_sub_pd(
                gather4(wp.add(4 * n), &bi),
                gather4(wp.add(4 * n), &ai),
            ));
            let pa = gather4(pp, &ai);
            let pb = gather4(pp, &bi);
            let dp = lanes_of(_mm256_sub_pd(pb, pa));
            let sp = lanes_of(_mm256_add_pd(pb, pa));
            for j in 0..4 {
                let (a, b) = (ai[j], bi[j]);
                s.add_sub(0, n, a, b, [d0[j], d1[j], d2[j], d3[j], d4[j]]);
                s.add_pair(1, n, a, b, [dp[j], sp[j]], [-dp[j], sp[j]]);
            }
            k += 4;
        }
        for &e in ids.get_unchecked(k..) {
            one::jst_pass1(e as usize, edges, wp, pp, n, s);
        }
    }
}

/// AVX2 body of `jst_pass2_edges`.
///
/// # Safety
/// Same contract as `jst_pass2_edges`; requires AVX2.
pub(crate) unsafe fn jst_pass2_span<const M: bool>(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    k2: f64,
    k4: f64,
    wp: *const f64,
    pp: *const f64,
    lp: *const f64,
    np: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
    lanes: usize,
) {
    unsafe {
        drive(span, lanes, |ids| {
            jst_pass2_chunk(ids, edges, coef, gamma, k2, k4, wp, pp, lp, np, n, s);
        });
    }
}

#[target_feature(enable = "avx2")]
unsafe fn jst_pass2_chunk<const M: bool>(
    ids: &[u32],
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    k2: f64,
    k4: f64,
    wp: *const f64,
    pp: *const f64,
    lp: *const f64,
    np: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
) {
    unsafe {
        let gv = _mm256_set1_pd(gamma);
        let half = _mm256_set1_pd(0.5);
        let k2v = _mm256_set1_pd(k2);
        let k4v = _mm256_set1_pd(k4);
        let zero = _mm256_setzero_pd();
        let mut k = 0;
        while k + 4 <= ids.len() {
            let g = load4(ids, k, edges, coef);
            // Gather every plane once per side; the spectral radius and
            // the switched differences reuse the same registers.
            let wa0 = gather4(wp, &g.ai);
            let wa1 = gather4(wp.add(n), &g.ai);
            let wa2 = gather4(wp.add(2 * n), &g.ai);
            let wa3 = gather4(wp.add(3 * n), &g.ai);
            let wa4 = gather4(wp.add(4 * n), &g.ai);
            let wb0 = gather4(wp, &g.bi);
            let wb1 = gather4(wp.add(n), &g.bi);
            let wb2 = gather4(wp.add(2 * n), &g.bi);
            let wb3 = gather4(wp.add(3 * n), &g.bi);
            let wb4 = gather4(wp.add(4 * n), &g.bi);
            let pa = gather4(pp, &g.ai);
            let pb = gather4(pp, &g.bi);
            let norm = norm4(&g);
            let sa = sigma4(wa0, wa1, wa2, wa3, pa, &g, norm, gv);
            let sb = sigma4(wb0, wb1, wb2, wb3, pb, &g, norm, gv);
            let lam = _mm256_mul_pd(half, _mm256_add_pd(sa, sb));
            let eps2 = _mm256_mul_pd(k2v, maxnum_pd(gather4(np, &g.ai), gather4(np, &g.bi)));
            let eps4 = _mm256_max_pd(_mm256_sub_pd(k4v, eps2), zero);
            let la0 = gather4(lp, &g.ai);
            let la1 = gather4(lp.add(n), &g.ai);
            let la2 = gather4(lp.add(2 * n), &g.ai);
            let la3 = gather4(lp.add(3 * n), &g.ai);
            let la4 = gather4(lp.add(4 * n), &g.ai);
            let lb0 = gather4(lp, &g.bi);
            let lb1 = gather4(lp.add(n), &g.bi);
            let lb2 = gather4(lp.add(2 * n), &g.bi);
            let lb3 = gather4(lp.add(3 * n), &g.bi);
            let lb4 = gather4(lp.add(4 * n), &g.bi);
            let d0 = lanes_of(_mm256_mul_pd(
                lam,
                _mm256_sub_pd(
                    _mm256_mul_pd(eps2, _mm256_sub_pd(wb0, wa0)),
                    _mm256_mul_pd(eps4, _mm256_sub_pd(lb0, la0)),
                ),
            ));
            let d1 = lanes_of(_mm256_mul_pd(
                lam,
                _mm256_sub_pd(
                    _mm256_mul_pd(eps2, _mm256_sub_pd(wb1, wa1)),
                    _mm256_mul_pd(eps4, _mm256_sub_pd(lb1, la1)),
                ),
            ));
            let d2 = lanes_of(_mm256_mul_pd(
                lam,
                _mm256_sub_pd(
                    _mm256_mul_pd(eps2, _mm256_sub_pd(wb2, wa2)),
                    _mm256_mul_pd(eps4, _mm256_sub_pd(lb2, la2)),
                ),
            ));
            let d3 = lanes_of(_mm256_mul_pd(
                lam,
                _mm256_sub_pd(
                    _mm256_mul_pd(eps2, _mm256_sub_pd(wb3, wa3)),
                    _mm256_mul_pd(eps4, _mm256_sub_pd(lb3, la3)),
                ),
            ));
            let d4 = lanes_of(_mm256_mul_pd(
                lam,
                _mm256_sub_pd(
                    _mm256_mul_pd(eps2, _mm256_sub_pd(wb4, wa4)),
                    _mm256_mul_pd(eps4, _mm256_sub_pd(lb4, la4)),
                ),
            ));
            for j in 0..4 {
                let (a, b) = (g.ai[j], g.bi[j]);
                s.add_sub(0, n, a, b, [d0[j], d1[j], d2[j], d3[j], d4[j]]);
            }
            k += 4;
        }
        for &e in ids.get_unchecked(k..) {
            one::jst_pass2(e as usize, edges, coef, gamma, k2, k4, wp, pp, lp, np, n, s);
        }
    }
}

/// AVX2 body of `first_order_diss_edges`.
///
/// # Safety
/// Same contract as `first_order_diss_edges`; requires AVX2.
pub(crate) unsafe fn first_order_span<const M: bool>(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    kdiss: f64,
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
    lanes: usize,
) {
    unsafe {
        drive(span, lanes, |ids| {
            first_order_chunk(ids, edges, coef, gamma, kdiss, wp, pp, n, s);
        });
    }
}

#[target_feature(enable = "avx2")]
unsafe fn first_order_chunk<const M: bool>(
    ids: &[u32],
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    kdiss: f64,
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
) {
    unsafe {
        let gv = _mm256_set1_pd(gamma);
        let half = _mm256_set1_pd(0.5);
        let kv = _mm256_set1_pd(kdiss);
        let mut k = 0;
        while k + 4 <= ids.len() {
            let g = load4(ids, k, edges, coef);
            let wa0 = gather4(wp, &g.ai);
            let wa1 = gather4(wp.add(n), &g.ai);
            let wa2 = gather4(wp.add(2 * n), &g.ai);
            let wa3 = gather4(wp.add(3 * n), &g.ai);
            let wa4 = gather4(wp.add(4 * n), &g.ai);
            let wb0 = gather4(wp, &g.bi);
            let wb1 = gather4(wp.add(n), &g.bi);
            let wb2 = gather4(wp.add(2 * n), &g.bi);
            let wb3 = gather4(wp.add(3 * n), &g.bi);
            let wb4 = gather4(wp.add(4 * n), &g.bi);
            let norm = norm4(&g);
            let sa = sigma4(wa0, wa1, wa2, wa3, gather4(pp, &g.ai), &g, norm, gv);
            let sb = sigma4(wb0, wb1, wb2, wb3, gather4(pp, &g.bi), &g, norm, gv);
            let kl = _mm256_mul_pd(kv, _mm256_mul_pd(half, _mm256_add_pd(sa, sb)));
            let d0 = lanes_of(_mm256_mul_pd(kl, _mm256_sub_pd(wb0, wa0)));
            let d1 = lanes_of(_mm256_mul_pd(kl, _mm256_sub_pd(wb1, wa1)));
            let d2 = lanes_of(_mm256_mul_pd(kl, _mm256_sub_pd(wb2, wa2)));
            let d3 = lanes_of(_mm256_mul_pd(kl, _mm256_sub_pd(wb3, wa3)));
            let d4 = lanes_of(_mm256_mul_pd(kl, _mm256_sub_pd(wb4, wa4)));
            for j in 0..4 {
                let (a, b) = (g.ai[j], g.bi[j]);
                s.add_sub(0, n, a, b, [d0[j], d1[j], d2[j], d3[j], d4[j]]);
            }
            k += 4;
        }
        for &e in ids.get_unchecked(k..) {
            one::first_order(e as usize, edges, coef, gamma, kdiss, wp, pp, n, s);
        }
    }
}

/// AVX2 body of `roe_diss_edges`.
///
/// # Safety
/// Same contract as `roe_diss_edges`; requires AVX2.
pub(crate) unsafe fn roe_diss_span<const M: bool>(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
    lanes: usize,
) {
    unsafe {
        drive(span, lanes, |ids| {
            roe_diss_chunk(ids, edges, coef, gamma, wp, pp, n, s);
        });
    }
}

/// Harten entropy fix per lane, mirroring the scalar closure in
/// [`crate::gas::roe_dissipation_flux`]: `|λ| < δ` blends in the
/// parabolic `½(|λ|²/δ + δ)`. Both branch trees are evaluated and
/// selected, which is bit-identical to the scalar `if`.
#[inline(always)]
fn fix4(lam: __m256d, delta: __m256d, half: __m256d) -> __m256d {
    unsafe {
        let al = abs_pd(lam);
        let parab = _mm256_mul_pd(
            half,
            _mm256_add_pd(_mm256_div_pd(_mm256_mul_pd(al, al), delta), delta),
        );
        let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(al, delta);
        _mm256_blendv_pd(al, parab, lt)
    }
}

#[target_feature(enable = "avx2")]
unsafe fn roe_diss_chunk<const M: bool>(
    ids: &[u32],
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    wp: *const f64,
    pp: *const f64,
    n: usize,
    s: Epilogue<'_, '_, M>,
) {
    unsafe {
        let half = _mm256_set1_pd(0.5);
        let one_v = _mm256_set1_pd(1.0);
        let two = _mm256_set1_pd(2.0);
        let zero = _mm256_setzero_pd();
        let gm1 = _mm256_set1_pd(gamma - 1.0);
        let c2_floor = _mm256_set1_pd(1e-12);
        let efix = _mm256_set1_pd(crate::gas::ENTROPY_FIX);
        let tiny = _mm256_set1_pd(1e-300);
        let mut k = 0;
        while k + 4 <= ids.len() {
            let g = load4(ids, k, edges, coef);
            let area = norm4(&g);
            // Degenerate faces take the scalar early-return; fall back
            // for the whole group (never hit on a valid mesh).
            if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(area, tiny)) != 0 {
                for j in 0..4 {
                    one::roe(
                        *ids.get_unchecked(k + j) as usize,
                        edges,
                        coef,
                        gamma,
                        wp,
                        pp,
                        n,
                        s,
                    );
                }
                k += 4;
                continue;
            }
            let nx = _mm256_div_pd(g.ex, area);
            let ny = _mm256_div_pd(g.ey, area);
            let nz = _mm256_div_pd(g.ez, area);

            let ra = gather4(wp, &g.ai);
            let wa1 = gather4(wp.add(n), &g.ai);
            let wa2 = gather4(wp.add(2 * n), &g.ai);
            let wa3 = gather4(wp.add(3 * n), &g.ai);
            let wa4 = gather4(wp.add(4 * n), &g.ai);
            let rb = gather4(wp, &g.bi);
            let wb1 = gather4(wp.add(n), &g.bi);
            let wb2 = gather4(wp.add(2 * n), &g.bi);
            let wb3 = gather4(wp.add(3 * n), &g.bi);
            let wb4 = gather4(wp.add(4 * n), &g.bi);
            let pa = gather4(pp, &g.ai);
            let pb = gather4(pp, &g.bi);

            // Primitive states.
            let uax = _mm256_div_pd(wa1, ra);
            let uay = _mm256_div_pd(wa2, ra);
            let uaz = _mm256_div_pd(wa3, ra);
            let ubx = _mm256_div_pd(wb1, rb);
            let uby = _mm256_div_pd(wb2, rb);
            let ubz = _mm256_div_pd(wb3, rb);
            let ha = _mm256_div_pd(_mm256_add_pd(wa4, pa), ra);
            let hb = _mm256_div_pd(_mm256_add_pd(wb4, pb), rb);

            // Roe averages.
            let sra = _mm256_sqrt_pd(ra);
            let srb = _mm256_sqrt_pd(rb);
            let rho = _mm256_mul_pd(sra, srb);
            let f = _mm256_div_pd(sra, _mm256_add_pd(sra, srb));
            let omf = _mm256_sub_pd(one_v, f);
            let ux = _mm256_add_pd(_mm256_mul_pd(uax, f), _mm256_mul_pd(ubx, omf));
            let uy = _mm256_add_pd(_mm256_mul_pd(uay, f), _mm256_mul_pd(uby, omf));
            let uz = _mm256_add_pd(_mm256_mul_pd(uaz, f), _mm256_mul_pd(ubz, omf));
            let h = _mm256_add_pd(_mm256_mul_pd(ha, f), _mm256_mul_pd(hb, omf));
            let q2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(ux, ux), _mm256_mul_pd(uy, uy)),
                _mm256_mul_pd(uz, uz),
            );
            let c2 = _mm256_mul_pd(gm1, _mm256_sub_pd(h, _mm256_mul_pd(half, q2)));
            // `f64::max(c2, 1e-12)`: max_pd returns the (non-NaN)
            // constant when c2 is NaN, matching the scalar.
            let c = _mm256_sqrt_pd(_mm256_max_pd(c2, c2_floor));
            let un = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(ux, nx), _mm256_mul_pd(uy, ny)),
                _mm256_mul_pd(uz, nz),
            );

            // Jumps.
            let d_rho = _mm256_sub_pd(rb, ra);
            let d_p = _mm256_sub_pd(pb, pa);
            let dux = _mm256_sub_pd(ubx, uax);
            let duy = _mm256_sub_pd(uby, uay);
            let duz = _mm256_sub_pd(ubz, uaz);
            let d_un = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dux, nx), _mm256_mul_pd(duy, ny)),
                _mm256_mul_pd(duz, nz),
            );

            // Wave strengths (`rho*c*d_un` is one shared tree, as in
            // the scalar left-to-right evaluation).
            let rcd = _mm256_mul_pd(_mm256_mul_pd(rho, c), d_un);
            let c2x2 = _mm256_mul_pd(two, c2);
            let a1 = _mm256_div_pd(_mm256_sub_pd(d_p, rcd), c2x2);
            let a5 = _mm256_div_pd(_mm256_add_pd(d_p, rcd), c2x2);
            let a2 = _mm256_sub_pd(d_rho, _mm256_div_pd(d_p, c2));
            let dutx = _mm256_sub_pd(dux, _mm256_mul_pd(nx, d_un));
            let duty = _mm256_sub_pd(duy, _mm256_mul_pd(ny, d_un));
            let dutz = _mm256_sub_pd(duz, _mm256_mul_pd(nz, d_un));

            // Entropy-fixed absolute eigenvalues.
            let delta = _mm256_mul_pd(efix, c);
            let l1 = fix4(_mm256_sub_pd(un, c), delta, half);
            let l2 = fix4(un, delta, half);
            let l5 = fix4(_mm256_add_pd(un, c), delta, half);

            // |A|Δw accumulated wave by wave in the scalar order,
            // including the `+ s*1.0` / `+ s*0.0` terms so signed
            // zeros match.
            let s1 = _mm256_mul_pd(l1, a1);
            let s5 = _mm256_mul_pd(l5, a5);
            let s2a = _mm256_mul_pd(l2, a2);
            let s2b = _mm256_mul_pd(l2, rho);
            let ncx = _mm256_mul_pd(nx, c);
            let ncy = _mm256_mul_pd(ny, c);
            let ncz = _mm256_mul_pd(nz, c);
            let cun = _mm256_mul_pd(c, un);
            let udt = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(ux, dutx), _mm256_mul_pd(uy, duty)),
                _mm256_mul_pd(uz, dutz),
            );

            let mut d0 = _mm256_add_pd(zero, _mm256_mul_pd(s1, one_v));
            let mut d1 = _mm256_add_pd(zero, _mm256_mul_pd(s1, _mm256_sub_pd(ux, ncx)));
            let mut d2 = _mm256_add_pd(zero, _mm256_mul_pd(s1, _mm256_sub_pd(uy, ncy)));
            let mut d3 = _mm256_add_pd(zero, _mm256_mul_pd(s1, _mm256_sub_pd(uz, ncz)));
            let mut d4 = _mm256_add_pd(zero, _mm256_mul_pd(s1, _mm256_sub_pd(h, cun)));
            d0 = _mm256_add_pd(d0, _mm256_mul_pd(s5, one_v));
            d1 = _mm256_add_pd(d1, _mm256_mul_pd(s5, _mm256_add_pd(ux, ncx)));
            d2 = _mm256_add_pd(d2, _mm256_mul_pd(s5, _mm256_add_pd(uy, ncy)));
            d3 = _mm256_add_pd(d3, _mm256_mul_pd(s5, _mm256_add_pd(uz, ncz)));
            d4 = _mm256_add_pd(d4, _mm256_mul_pd(s5, _mm256_add_pd(h, cun)));
            d0 = _mm256_add_pd(d0, _mm256_mul_pd(s2a, one_v));
            d1 = _mm256_add_pd(d1, _mm256_mul_pd(s2a, ux));
            d2 = _mm256_add_pd(d2, _mm256_mul_pd(s2a, uy));
            d3 = _mm256_add_pd(d3, _mm256_mul_pd(s2a, uz));
            d4 = _mm256_add_pd(d4, _mm256_mul_pd(s2a, _mm256_mul_pd(half, q2)));
            d0 = _mm256_add_pd(d0, _mm256_mul_pd(s2b, zero));
            d1 = _mm256_add_pd(d1, _mm256_mul_pd(s2b, dutx));
            d2 = _mm256_add_pd(d2, _mm256_mul_pd(s2b, duty));
            d3 = _mm256_add_pd(d3, _mm256_mul_pd(s2b, dutz));
            d4 = _mm256_add_pd(d4, _mm256_mul_pd(s2b, udt));

            let sc = _mm256_mul_pd(half, area);
            let f0 = lanes_of(_mm256_mul_pd(d0, sc));
            let f1 = lanes_of(_mm256_mul_pd(d1, sc));
            let f2 = lanes_of(_mm256_mul_pd(d2, sc));
            let f3 = lanes_of(_mm256_mul_pd(d3, sc));
            let f4 = lanes_of(_mm256_mul_pd(d4, sc));
            for j in 0..4 {
                let (a, b) = (g.ai[j], g.bi[j]);
                s.add_sub(0, n, a, b, [f0[j], f1[j], f2[j], f3[j], f4[j]]);
            }
            k += 4;
        }
        for &e in ids.get_unchecked(k..) {
            one::roe(e as usize, edges, coef, gamma, wp, pp, n, s);
        }
    }
}
