//! Lane-chunked SoA edge kernels.
//!
//! Every kernel iterates its [`EdgeSpan`] in chunks of at most `lanes`
//! edge ids (see [`MAX_LANES`]). On x86-64 hosts with AVX2 the
//! gather-heavy kernels run a 4-wide vector body (`crate::simd`): the
//! endpoint planes are gathered into `__m256d` lanes, the per-edge
//! expression tree is evaluated with elementwise vector ops — every one
//! of which (`add`/`sub`/`mul`/`div`/`sqrt`, sign-mask `abs`) is IEEE
//! correctly rounded and therefore **bit-identical** to the scalar
//! reference — and the results are scattered scalar, per edge, in
//! ascending edge order. Everywhere else the kernels run the fused
//! scalar bodies in [`one`]: gather, compute the exact reference
//! expression tree, and accumulate immediately. Either way the chunk
//! width only sets loop blocking — any `lanes` value and either code
//! path produce bit-identical results, which the solver's
//! lane-invariance test asserts.
//!
//! # Writes
//! Every kernel ends in the one epilogue of [`crate::scatter`]
//! (`Epilogue::add_pair` / `add_sub`): the per-edge result goes to the
//! endpoints **the view owns** and nowhere else. Each public kernel is
//! compiled once per ownership mode (`by_ownership!`): the sweep of a
//! view that owns every vertex is the plain edge loop with no test in
//! it; the sweep of a restricted view tests each endpoint against the
//! owner's window. A slot's contributions still arrive in ascending
//! span order, so a sweep split among owners — each walking the
//! ascending list of edges touching its block — is bit-identical to
//! `EdgeSpan::Range(0..nedges)` through an unrestricted view
//! (`tests/ownership_equivalence.rs`).
//!
//! # Safety
//! All kernels are `unsafe fn`: the caller must guarantee
//!
//! * every edge id covered by `span` indexes into `edges` (and `coef`
//!   where taken);
//! * every edge endpoint is `< n`;
//! * input planes are at least `nc * n` long (`w`, `lapl`: `5n`; `p`,
//!   `nu`, `res` scalar reads per their documented widths);
//! * the scatter targets are sized as documented per kernel;
//! * the [`ScatterAccess`] conflict contract holds: no concurrently
//!   executing kernel owns a vertex this call's view owns (one serial
//!   span through an unrestricted view, or per-owner spans through
//!   views restricted to disjoint blocks).

use eul3d_mesh::Vec3;

use crate::gas::roe_dissipation_flux;
use crate::scatter::{by_ownership, EdgeSpan, Epilogue, ScatterAccess};
use crate::{MAX_LANES, NVAR};

/// Drive `chunk` over `span` in chunks of at most `lanes` edge ids.
///
/// # Safety
/// Forwarded from the calling kernel: ids handed to `chunk` are exactly
/// the span's ids, at most `MAX_LANES` at a time.
#[inline(always)]
pub(crate) unsafe fn drive(span: &EdgeSpan<'_>, lanes: usize, mut chunk: impl FnMut(&[u32])) {
    let lanes = lanes.clamp(1, MAX_LANES);
    match span {
        EdgeSpan::Ids(ids) => {
            let mut k = 0;
            while k < ids.len() {
                let m = lanes.min(ids.len() - k);
                chunk(unsafe { ids.get_unchecked(k..k + m) });
                k += m;
            }
        }
        EdgeSpan::Range(r) => {
            let mut buf = [0u32; MAX_LANES];
            let mut e = r.start;
            while e < r.end {
                let m = lanes.min(r.end - e);
                for (k, slot) in buf.iter_mut().enumerate().take(m) {
                    *slot = (e + k) as u32;
                }
                chunk(unsafe { buf.get_unchecked(..m) });
                e += m;
            }
        }
    }
}

/// Fused per-edge scalar bodies — the reference arithmetic, shared by
/// the scalar loops below and the SIMD remainder tails.
pub(crate) mod one {
    use super::*;

    /// # Safety
    /// Module contract of [`super`]; pointers must cover the documented
    /// plane extents.
    #[inline(always)]
    pub(crate) unsafe fn conv_flux<const M: bool>(
        e: usize,
        edges: &[[u32; 2]],
        coef: &[Vec3],
        wp: *const f64,
        pp: *const f64,
        n: usize,
        s: Epilogue<'_, '_, M>,
    ) {
        unsafe {
            let [a, b] = *edges.get_unchecked(e);
            let (a, b) = (a as usize, b as usize);
            let eta = *coef.get_unchecked(e);
            let (wa0, wa1, wa2, wa3, wa4) = (
                *wp.add(a),
                *wp.add(n + a),
                *wp.add(2 * n + a),
                *wp.add(3 * n + a),
                *wp.add(4 * n + a),
            );
            let (wb0, wb1, wb2, wb3, wb4) = (
                *wp.add(b),
                *wp.add(n + b),
                *wp.add(2 * n + b),
                *wp.add(3 * n + b),
                *wp.add(4 * n + b),
            );
            let (pa, pb) = (*pp.add(a), *pp.add(b));
            // Identical expression tree to `gas::flux_dot` +
            // `conv_edge_flux`.
            let ua = wa1 / wa0;
            let va = wa2 / wa0;
            let za = wa3 / wa0;
            let qna = ua * eta.x + va * eta.y + za * eta.z;
            let fa0 = wa0 * qna;
            let fa1 = wa1 * qna + pa * eta.x;
            let fa2 = wa2 * qna + pa * eta.y;
            let fa3 = wa3 * qna + pa * eta.z;
            let fa4 = (wa4 + pa) * qna;
            let ub = wb1 / wb0;
            let vb = wb2 / wb0;
            let zb = wb3 / wb0;
            let qnb = ub * eta.x + vb * eta.y + zb * eta.z;
            let fb0 = wb0 * qnb;
            let fb1 = wb1 * qnb + pb * eta.x;
            let fb2 = wb2 * qnb + pb * eta.y;
            let fb3 = wb3 * qnb + pb * eta.z;
            let fb4 = (wb4 + pb) * qnb;
            let f0 = 0.5 * (fa0 + fb0);
            let f1 = 0.5 * (fa1 + fb1);
            let f2 = 0.5 * (fa2 + fb2);
            let f3 = 0.5 * (fa3 + fb3);
            let f4 = 0.5 * (fa4 + fb4);
            s.add_sub(0, n, a, b, [f0, f1, f2, f3, f4]);
        }
    }

    /// Endpoint spectral radii averaged over the edge — identical to
    /// `gas::spectral_radius` on both endpoints.
    ///
    /// # Safety
    /// Module contract of [`super`].
    #[inline(always)]
    pub(crate) unsafe fn edge_lambda(
        a: usize,
        b: usize,
        eta: Vec3,
        gamma: f64,
        wp: *const f64,
        pp: *const f64,
        n: usize,
    ) -> f64 {
        unsafe {
            let norm = (eta.x * eta.x + eta.y * eta.y + eta.z * eta.z).sqrt();
            let ra = *wp.add(a);
            let qna =
                (*wp.add(n + a) * eta.x + *wp.add(2 * n + a) * eta.y + *wp.add(3 * n + a) * eta.z)
                    / ra;
            let sa = qna.abs() + (gamma * *pp.add(a) / ra).sqrt() * norm;
            let rb = *wp.add(b);
            let qnb =
                (*wp.add(n + b) * eta.x + *wp.add(2 * n + b) * eta.y + *wp.add(3 * n + b) * eta.z)
                    / rb;
            let sb = qnb.abs() + (gamma * *pp.add(b) / rb).sqrt() * norm;
            0.5 * (sa + sb)
        }
    }

    /// # Safety
    /// Module contract of [`super`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) unsafe fn radii<const M: bool>(
        e: usize,
        edges: &[[u32; 2]],
        coef: &[Vec3],
        gamma: f64,
        wp: *const f64,
        pp: *const f64,
        n: usize,
        s: Epilogue<'_, '_, M>,
    ) {
        unsafe {
            let [a, b] = *edges.get_unchecked(e);
            let (a, b) = (a as usize, b as usize);
            let l = edge_lambda(a, b, *coef.get_unchecked(e), gamma, wp, pp, n);
            s.add_pair(0, n, a, b, [l], [l]);
        }
    }

    /// # Safety
    /// Module contract of [`super`].
    #[inline(always)]
    pub(crate) unsafe fn jst_pass1<const M: bool>(
        e: usize,
        edges: &[[u32; 2]],
        wp: *const f64,
        pp: *const f64,
        n: usize,
        s: Epilogue<'_, '_, M>,
    ) {
        unsafe {
            let [a, b] = *edges.get_unchecked(e);
            let (a, b) = (a as usize, b as usize);
            let d0 = *wp.add(b) - *wp.add(a);
            let d1 = *wp.add(n + b) - *wp.add(n + a);
            let d2 = *wp.add(2 * n + b) - *wp.add(2 * n + a);
            let d3 = *wp.add(3 * n + b) - *wp.add(3 * n + a);
            let d4 = *wp.add(4 * n + b) - *wp.add(4 * n + a);
            let dp = *pp.add(b) - *pp.add(a);
            let sp = *pp.add(b) + *pp.add(a);
            s.add_sub(0, n, a, b, [d0, d1, d2, d3, d4]);
            s.add_pair(1, n, a, b, [dp, sp], [-dp, sp]);
        }
    }

    /// # Safety
    /// Module contract of [`super`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) unsafe fn jst_pass2<const M: bool>(
        e: usize,
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
            let [a, b] = *edges.get_unchecked(e);
            let (a, b) = (a as usize, b as usize);
            let lam = edge_lambda(a, b, *coef.get_unchecked(e), gamma, wp, pp, n);
            let eps2 = k2 * (*np.add(a)).max(*np.add(b));
            let eps4 = (k4 - eps2).max(0.0);
            let d0 = lam * (eps2 * (*wp.add(b) - *wp.add(a)) - eps4 * (*lp.add(b) - *lp.add(a)));
            let d1 = lam
                * (eps2 * (*wp.add(n + b) - *wp.add(n + a))
                    - eps4 * (*lp.add(n + b) - *lp.add(n + a)));
            let d2 = lam
                * (eps2 * (*wp.add(2 * n + b) - *wp.add(2 * n + a))
                    - eps4 * (*lp.add(2 * n + b) - *lp.add(2 * n + a)));
            let d3 = lam
                * (eps2 * (*wp.add(3 * n + b) - *wp.add(3 * n + a))
                    - eps4 * (*lp.add(3 * n + b) - *lp.add(3 * n + a)));
            let d4 = lam
                * (eps2 * (*wp.add(4 * n + b) - *wp.add(4 * n + a))
                    - eps4 * (*lp.add(4 * n + b) - *lp.add(4 * n + a)));
            s.add_sub(0, n, a, b, [d0, d1, d2, d3, d4]);
        }
    }

    /// # Safety
    /// Module contract of [`super`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) unsafe fn first_order<const M: bool>(
        e: usize,
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
            let [a, b] = *edges.get_unchecked(e);
            let (a, b) = (a as usize, b as usize);
            let kl = kdiss * edge_lambda(a, b, *coef.get_unchecked(e), gamma, wp, pp, n);
            let d0 = kl * (*wp.add(b) - *wp.add(a));
            let d1 = kl * (*wp.add(n + b) - *wp.add(n + a));
            let d2 = kl * (*wp.add(2 * n + b) - *wp.add(2 * n + a));
            let d3 = kl * (*wp.add(3 * n + b) - *wp.add(3 * n + a));
            let d4 = kl * (*wp.add(4 * n + b) - *wp.add(4 * n + a));
            s.add_sub(0, n, a, b, [d0, d1, d2, d3, d4]);
        }
    }

    /// One edge of [`super::roe_diss_edges`]: gather both endpoint
    /// states, evaluate the scalar [`roe_dissipation_flux`], scatter
    /// `±d` component-major.
    ///
    /// # Safety
    /// Module contract of [`super`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) unsafe fn roe<const M: bool>(
        e: usize,
        edges: &[[u32; 2]],
        coef: &[Vec3],
        gamma: f64,
        wp: *const f64,
        pp: *const f64,
        n: usize,
        s: Epilogue<'_, '_, M>,
    ) {
        unsafe {
            let [a, b] = *edges.get_unchecked(e);
            let (a, b) = (a as usize, b as usize);
            let wa = [
                *wp.add(a),
                *wp.add(n + a),
                *wp.add(2 * n + a),
                *wp.add(3 * n + a),
                *wp.add(4 * n + a),
            ];
            let wb = [
                *wp.add(b),
                *wp.add(n + b),
                *wp.add(2 * n + b),
                *wp.add(3 * n + b),
                *wp.add(4 * n + b),
            ];
            let d = roe_dissipation_flux(
                gamma,
                &wa,
                &wb,
                *pp.add(a),
                *pp.add(b),
                *coef.get_unchecked(e),
            );
            s.add_sub(0, n, a, b, d);
        }
    }
}

/// Central convective fluxes `½(F_a + F_b)·η`, accumulated `+` at `a`
/// and `−` at `b` into target 0 (`q`, plane-major `5n`).
///
/// # Safety
/// See the module contract. Target 0 must be `≥ 5n` long.
#[allow(clippy::too_many_arguments)]
pub unsafe fn conv_flux_edges(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    w: &[f64],
    p: &[f64],
    n: usize,
    s: &ScatterAccess,
    lanes: usize,
) {
    debug_assert!(w.len() >= NVAR * n && p.len() >= n && s.len_of(0) >= NVAR * n);
    let (wp, pp) = (w.as_ptr(), p.as_ptr());
    by_ownership!(s => {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            return unsafe { crate::simd::conv_flux_span(span, edges, coef, wp, pp, n, s, lanes) };
        }
        unsafe {
            drive(span, lanes, |ids| {
                for &e in ids {
                    one::conv_flux(e as usize, edges, coef, wp, pp, n, s);
                }
            });
        }
    })
}

/// Spectral-radius accumulation `Λ_a += λ_ab`, `Λ_b += λ_ab` into target
/// 0 (`lam`, scalar `n`).
///
/// # Safety
/// See the module contract. Target 0 must be `≥ n` long.
#[allow(clippy::too_many_arguments)]
pub unsafe fn radii_edges_soa(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    w: &[f64],
    p: &[f64],
    n: usize,
    s: &ScatterAccess,
    lanes: usize,
) {
    debug_assert!(w.len() >= NVAR * n && p.len() >= n && s.len_of(0) >= n);
    let (wp, pp) = (w.as_ptr(), p.as_ptr());
    by_ownership!(s => {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            return unsafe { crate::simd::radii_span(span, edges, coef, gamma, wp, pp, n, s, lanes) };
        }
        unsafe {
            drive(span, lanes, |ids| {
                for &e in ids {
                    one::radii(e as usize, edges, coef, gamma, wp, pp, n, s);
                }
            });
        }
    })
}

/// JST pass 1 as an edge scatter: undivided Laplacian of `w` into
/// target 0 (`lapl`, plane-major `5n`) and pressure-sensor accumulators
/// into target 1 (`sens`, plane-major `2n`: plane 0 `Σ(p_j−p_i)`,
/// plane 1 `Σ(p_j+p_i)`).
///
/// **Reference oracle + referee probe target, not on the solver path**:
/// the solver runs [`crate::jst_gather_verts`], which this kernel
/// defines bit for bit over `EdgeSpan::Range(0..nedges)`.
///
/// # Safety
/// See the module contract. Target 0 `≥ 5n`, target 1 `≥ 2n`.
pub unsafe fn jst_pass1_edges(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    w: &[f64],
    p: &[f64],
    n: usize,
    s: &ScatterAccess,
    lanes: usize,
) {
    debug_assert!(w.len() >= NVAR * n && p.len() >= n);
    debug_assert!(s.len_of(0) >= NVAR * n && s.len_of(1) >= 2 * n);
    let (wp, pp) = (w.as_ptr(), p.as_ptr());
    by_ownership!(s => {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            return unsafe { crate::simd::jst_pass1_span(span, edges, wp, pp, n, s, lanes) };
        }
        unsafe {
            drive(span, lanes, |ids| {
                for &e in ids {
                    one::jst_pass1(e as usize, edges, wp, pp, n, s);
                }
            });
        }
    })
}

/// JST pass 2: switched Laplacian/biharmonic blend
/// `d = λ [ε₂ (w_b − w_a) − ε₄ (L_b − L_a)]` into target 0 (`diss`,
/// plane-major `5n`).
///
/// # Safety
/// See the module contract. `lapl` `≥ 5n`, `nu` `≥ n`, target 0 `≥ 5n`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn jst_pass2_edges(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    k2: f64,
    k4: f64,
    w: &[f64],
    p: &[f64],
    lapl: &[f64],
    nu: &[f64],
    n: usize,
    s: &ScatterAccess,
    lanes: usize,
) {
    debug_assert!(w.len() >= NVAR * n && lapl.len() >= NVAR * n);
    debug_assert!(p.len() >= n && nu.len() >= n && s.len_of(0) >= NVAR * n);
    let (wp, pp, lp, np) = (w.as_ptr(), p.as_ptr(), lapl.as_ptr(), nu.as_ptr());
    by_ownership!(s => {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            return unsafe {
                crate::simd::jst_pass2_span(
                    span, edges, coef, gamma, k2, k4, wp, pp, lp, np, n, s, lanes,
                )
            };
        }
        unsafe {
            drive(span, lanes, |ids| {
                for &e in ids {
                    one::jst_pass2(e as usize, edges, coef, gamma, k2, k4, wp, pp, lp, np, n, s);
                }
            });
        }
    })
}

/// First-order coarse-level dissipation `d = k λ (w_b − w_a)` into
/// target 0 (`diss`, plane-major `5n`).
///
/// # Safety
/// See the module contract. Target 0 `≥ 5n`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn first_order_diss_edges(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    kdiss: f64,
    w: &[f64],
    p: &[f64],
    n: usize,
    s: &ScatterAccess,
    lanes: usize,
) {
    debug_assert!(w.len() >= NVAR * n && p.len() >= n && s.len_of(0) >= NVAR * n);
    let (wp, pp) = (w.as_ptr(), p.as_ptr());
    by_ownership!(s => {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            return unsafe {
                crate::simd::first_order_span(span, edges, coef, gamma, kdiss, wp, pp, n, s, lanes)
            };
        }
        unsafe {
            drive(span, lanes, |ids| {
                for &e in ids {
                    one::first_order(e as usize, edges, coef, gamma, kdiss, wp, pp, n, s);
                }
            });
        }
    })
}

/// Roe matrix dissipation `½|Â|(w_b − w_a)|η|` into target 0 (`diss`,
/// plane-major `5n`). The wave decomposition's branches (entropy fix,
/// degenerate faces) blend exactly in the vector body, so this kernel
/// dispatches to AVX2 like the others; the scalar path evaluates
/// [`roe_dissipation_flux`] per edge — same expression tree.
///
/// # Safety
/// See the module contract. Target 0 `≥ 5n`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn roe_diss_edges(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    w: &[f64],
    p: &[f64],
    n: usize,
    s: &ScatterAccess,
    lanes: usize,
) {
    debug_assert!(w.len() >= NVAR * n && p.len() >= n && s.len_of(0) >= NVAR * n);
    let (wp, pp) = (w.as_ptr(), p.as_ptr());
    by_ownership!(s => {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            return unsafe {
                crate::simd::roe_diss_span(span, edges, coef, gamma, wp, pp, n, s, lanes)
            };
        }
        unsafe {
            drive(span, lanes, |ids| {
                for &e in ids {
                    one::roe(e as usize, edges, coef, gamma, wp, pp, n, s);
                }
            });
        }
    })
}

/// Residual-averaging neighbour accumulation `acc_a += r̄_b`,
/// `acc_b += r̄_a` into target 0 (`acc`, plane-major `5n`), reading the
/// plane-major residual `res`. Pure data movement — no vector body.
///
/// **Reference oracle + referee probe target, not on the solver path**:
/// the solver runs [`crate::neighbour_sum_verts`], which this kernel
/// defines bit for bit over `EdgeSpan::Range(0..nedges)`.
///
/// # Safety
/// See the module contract. `res` `≥ 5n`, target 0 `≥ 5n`.
pub unsafe fn smooth_accumulate_edges(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    res: &[f64],
    n: usize,
    s: &ScatterAccess,
    lanes: usize,
) {
    debug_assert!(res.len() >= NVAR * n && s.len_of(0) >= NVAR * n);
    let rp = res.as_ptr();
    by_ownership!(s => {
        unsafe {
            drive(span, lanes, |ids| {
                for &e in ids {
                    let e = e as usize;
                    let [a, b] = *edges.get_unchecked(e);
                    let (a, b) = (a as usize, b as usize);
                    let at = |v: usize| [0, 1, 2, 3, 4].map(|k| *rp.add(k * n + v));
                    s.add_pair(0, n, a, b, at(b), at(a));
                }
            });
        }
    })
}
