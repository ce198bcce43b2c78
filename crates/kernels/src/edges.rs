//! Lane-chunked SoA edge kernels, one body each.
//!
//! Every kernel iterates its [`EdgeSpan`] in chunks of at most `lanes`
//! edge ids (see [`MAX_LANES`]) and hands each chunk to [`chunk`], the
//! one loop all of them run. The loop cuts the chunk into groups of
//! edges and calls the kernel's [`EdgeBody`]: gather the endpoint
//! planes, evaluate the per-edge expression tree — written once, over a
//! [`Lane`] — and scatter the result per edge, in ascending edge order.
//! On x86-64 hosts with AVX2 the loop is compiled for AVX2 and runs the
//! tree over four-edge `F64x4` groups, with the chunk's last `< 4` edges
//! over `f64`; everywhere else every edge runs over `f64`. The lane ops
//! follow one scalar rule in both instances, so neither the chunk width
//! nor the host changes a bit, which the solver's lane-invariance test
//! asserts.
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

use crate::gas::{flux, norm, radius, roe};
use crate::lane::Lane;
#[cfg(target_arch = "x86_64")]
use crate::lane::{avx2, F64x4};
use crate::scatter::{by_ownership, EdgeSpan, Epilogue, ScatterAccess};
use crate::{MAX_LANES, NVAR};

/// `[e(0), .., e(4)]`: one expression per conserved variable, without a
/// closure (the lane module says why).
macro_rules! each {
    ($k:ident => $e:expr) => {
        each!(@ $k => $e; 0 1 2 3 4)
    };
    (@ $k:ident => $e:expr; $($i:literal)*) => {
        [$({ let $k: usize = $i; $e }),*]
    };
}

/// Drive `chunk` over `span` in chunks of at most `lanes` edge ids.
///
/// # Safety
/// Forwarded from the calling kernel: ids handed to `chunk` are exactly
/// the span's ids, at most `MAX_LANES` at a time.
#[inline(always)]
unsafe fn drive(span: &EdgeSpan<'_>, lanes: usize, mut chunk: impl FnMut(&[u32])) {
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

/// `L::WIDTH` span edges: their ids and endpoints, one lane each.
struct Group<L: Lane> {
    e: L::Idx,
    a: L::Idx,
    b: L::Idx,
}

impl<L: Lane> Group<L> {
    /// # Safety
    /// `ids` holds at least `L::WIDTH` ids of `edges`.
    #[inline(always)]
    unsafe fn new(ids: &[u32], edges: &[[u32; 2]]) -> Group<L> {
        let mut g: Group<L> = Group {
            e: L::Idx::default(),
            a: L::Idx::default(),
            b: L::Idx::default(),
        };
        for j in 0..L::WIDTH {
            // SAFETY: `j < L::WIDTH`, the length of every index array and
            // at most `ids.len()`; the id indexes `edges` by contract.
            unsafe {
                let e = *ids.get_unchecked(j) as usize;
                let [a, b] = *edges.get_unchecked(e);
                *g.e.as_mut().get_unchecked_mut(j) = e;
                *g.a.as_mut().get_unchecked_mut(j) = a as usize;
                *g.b.as_mut().get_unchecked_mut(j) = b as usize;
            }
        }
        g
    }

    /// The face vectors `η` of the group's edges.
    ///
    /// # Safety
    /// Every id of the group indexes `coef`.
    #[inline(always)]
    unsafe fn eta(&self, coef: &[Vec3]) -> [L; 3] {
        let (mut x, mut y, mut z) = (L::Arr::default(), L::Arr::default(), L::Arr::default());
        for j in 0..L::WIDTH {
            // SAFETY: `j < L::WIDTH`; the id indexes `coef` by contract.
            unsafe {
                let v = *coef.get_unchecked(*self.e.as_ref().get_unchecked(j));
                *x.as_mut().get_unchecked_mut(j) = v.x;
                *y.as_mut().get_unchecked_mut(j) = v.y;
                *z.as_mut().get_unchecked_mut(j) = v.z;
            }
        }
        [L::load(x), L::load(y), L::load(z)]
    }

    /// A plane-major `5n` field at both endpoints.
    ///
    /// # Safety
    /// `base` holds `5n` values and every endpoint is `< n`.
    #[inline(always)]
    unsafe fn planes(&self, base: *const f64, n: usize) -> ([L; NVAR], [L; NVAR]) {
        // SAFETY: forwarded.
        unsafe {
            (
                each!(c => L::gather(base.add(c * n), &self.a)),
                each!(c => L::gather(base.add(c * n), &self.b)),
            )
        }
    }

    /// A scalar field at both endpoints.
    ///
    /// # Safety
    /// `base` holds `n` values and every endpoint is `< n`.
    #[inline(always)]
    unsafe fn values(&self, base: *const f64) -> (L, L) {
        // SAFETY: forwarded.
        unsafe { (L::gather(base, &self.a), L::gather(base, &self.b)) }
    }

    /// `fa` at `a` and `fb` at `b` of target `t`, edge by edge.
    ///
    /// # Safety
    /// As [`Epilogue::add_pair`], for every edge of the group.
    #[inline(always)]
    unsafe fn add_pair<const K: usize, const M: bool>(
        &self,
        s: Epilogue<'_, '_, M>,
        t: usize,
        n: usize,
        fa: [L; K],
        fb: [L; K],
    ) {
        let (fa, fb) = (spill(&fa), spill(&fb));
        for j in 0..L::WIDTH {
            // SAFETY: forwarded; `j < L::WIDTH`.
            unsafe { s.add_pair(t, n, self.at(j).0, self.at(j).1, pick(&fa, j), pick(&fb, j)) }
        }
    }

    /// `+f` at `a` and `−f` at `b` of target `t`, edge by edge.
    ///
    /// # Safety
    /// As [`Epilogue::add_sub`], for every edge of the group.
    #[inline(always)]
    unsafe fn add_sub<const K: usize, const M: bool>(
        &self,
        s: Epilogue<'_, '_, M>,
        t: usize,
        n: usize,
        f: [L; K],
    ) {
        let f = spill(&f);
        for j in 0..L::WIDTH {
            // SAFETY: forwarded; `j < L::WIDTH`.
            unsafe { s.add_sub(t, n, self.at(j).0, self.at(j).1, pick(&f, j)) }
        }
    }

    /// Endpoints of lane `j`.
    ///
    /// # Safety
    /// `j < L::WIDTH`.
    #[inline(always)]
    unsafe fn at(&self, j: usize) -> (usize, usize) {
        // SAFETY: forwarded.
        unsafe {
            (
                *self.a.as_ref().get_unchecked(j),
                *self.b.as_ref().get_unchecked(j),
            )
        }
    }
}

/// Each of `f` stored to memory, for the per-edge scatter.
#[inline(always)]
fn spill<L: Lane, const K: usize>(f: &[L; K]) -> [L::Arr; K] {
    let mut out = [L::Arr::default(); K];
    for (o, x) in out.iter_mut().zip(f) {
        *o = x.store();
    }
    out
}

/// Lane `j` of each spilled array.
///
/// # Safety
/// `j` is below every array's length.
#[inline(always)]
unsafe fn pick<A: AsRef<[f64]>, const K: usize>(f: &[A; K], j: usize) -> [f64; K] {
    let mut out = [0.0; K];
    for (o, x) in out.iter_mut().zip(f) {
        // SAFETY: forwarded.
        *o = unsafe { *x.as_ref().get_unchecked(j) };
    }
    out
}

/// One edge kernel: its per-edge expression tree over a group of edges
/// of any lane width, and the scatter of the result.
trait EdgeBody: Copy {
    /// # Safety
    /// The module contract, for the edges of `g`.
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>);
}

/// One chunk of span ids through `body`: whole groups of `L`, then the
/// rest one edge at a time as `f64`.
///
/// # Safety
/// The module contract, for every id of `ids`.
#[inline(always)]
unsafe fn chunk<L: Lane, B: EdgeBody, const M: bool>(
    body: B,
    ids: &[u32],
    edges: &[[u32; 2]],
    s: Epilogue<'_, '_, M>,
) {
    let mut groups = ids.chunks_exact(L::WIDTH);
    for group in &mut groups {
        // SAFETY: forwarded; `group` holds `L::WIDTH` ids.
        unsafe { body.run(&Group::<L>::new(group, edges), s) }
    }
    for id in groups.remainder() {
        // SAFETY: as above, one id.
        unsafe { body.run(&Group::<f64>::new(std::slice::from_ref(id), edges), s) }
    }
}

/// [`chunk`] over four-edge `F64x4` groups, compiled for AVX2.
///
/// # Safety
/// As [`chunk`]; the host has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_avx2<B: EdgeBody, const M: bool>(
    body: B,
    ids: &[u32],
    edges: &[[u32; 2]],
    s: Epilogue<'_, '_, M>,
) {
    // SAFETY: forwarded.
    unsafe { chunk::<F64x4, B, M>(body, ids, edges, s) }
}

/// The one edge loop: `body` over `span` in chunks of `lanes` ids,
/// through the epilogue of `s`'s ownership mode, as `F64x4` groups on an
/// AVX2 host and edge by edge elsewhere.
///
/// # Safety
/// The module contract.
#[inline(always)]
unsafe fn sweep<B: EdgeBody>(
    body: B,
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    s: &ScatterAccess,
    lanes: usize,
) {
    // SAFETY: forwarded; `chunk_avx2` runs only after the AVX2 check.
    by_ownership!(s => unsafe {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            return drive(span, lanes, |ids| chunk_avx2(body, ids, edges, s));
        }
        drive(span, lanes, |ids| chunk::<f64, B, _>(body, ids, edges, s))
    })
}

/// The inputs of the kernels that read the flow: face vectors, `γ`, the
/// plane-major state `w` (`5n`) and its pressure `p` (`n`).
#[derive(Clone, Copy)]
struct Flow<'a> {
    coef: &'a [Vec3],
    gamma: f64,
    w: *const f64,
    p: *const f64,
    n: usize,
}

impl<'a> Flow<'a> {
    fn new(coef: &'a [Vec3], gamma: f64, w: &[f64], p: &[f64], n: usize) -> Flow<'a> {
        let (w, p) = (w.as_ptr(), p.as_ptr());
        Flow {
            coef,
            gamma,
            w,
            p,
            n,
        }
    }

    /// The face vectors, then both endpoints' state and pressure.
    ///
    /// # Safety
    /// The module contract, for the edges of `g`.
    #[inline(always)]
    #[allow(clippy::type_complexity)]
    unsafe fn gather<L: Lane>(self, g: &Group<L>) -> ([L; 3], [L; NVAR], [L; NVAR], L, L) {
        // SAFETY: forwarded.
        unsafe {
            let eta = g.eta(self.coef);
            let (wa, wb) = g.planes(self.w, self.n);
            let (pa, pb) = g.values(self.p);
            (eta, wa, wb, pa, pb)
        }
    }

    /// The edge's spectral radius: the endpoints' [`radius`] averaged.
    #[inline(always)]
    fn lambda<L: Lane>(self, eta: [L; 3], wa: [L; NVAR], wb: [L; NVAR], pa: L, pb: L) -> L {
        let (gamma, norm) = (L::splat(self.gamma), norm(eta));
        L::splat(0.5) * (radius(gamma, wa, pa, eta, norm) + radius(gamma, wb, pb, eta, norm))
    }
}

#[derive(Clone, Copy)]
struct ConvFlux<'a>(Flow<'a>);

impl EdgeBody for ConvFlux<'_> {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        // SAFETY: forwarded.
        unsafe {
            let (eta, wa, wb, pa, pb) = self.0.gather(g);
            let (fa, fb, half) = (flux(wa, pa, eta), flux(wb, pb, eta), L::splat(0.5));
            g.add_sub(s, 0, self.0.n, each!(k => half * (fa[k] + fb[k])));
        }
    }
}

#[derive(Clone, Copy)]
struct Radii<'a>(Flow<'a>);

impl EdgeBody for Radii<'_> {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        // SAFETY: forwarded.
        unsafe {
            let (eta, wa, wb, pa, pb) = self.0.gather(g);
            let lam = self.0.lambda(eta, wa, wb, pa, pb);
            g.add_pair(s, 0, self.0.n, [lam], [lam]);
        }
    }
}

#[derive(Clone, Copy)]
struct JstPass1 {
    w: *const f64,
    p: *const f64,
    n: usize,
}

impl EdgeBody for JstPass1 {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        // SAFETY: forwarded.
        unsafe {
            let (wa, wb) = g.planes(self.w, self.n);
            let (pa, pb) = g.values(self.p);
            let (dp, sp) = (pb - pa, pb + pa);
            g.add_sub(s, 0, self.n, each!(k => wb[k] - wa[k]));
            g.add_pair(s, 1, self.n, [dp, sp], [-dp, sp]);
        }
    }
}

#[derive(Clone, Copy)]
struct JstPass2<'a> {
    flow: Flow<'a>,
    k2: f64,
    k4: f64,
    lapl: *const f64,
    nu: *const f64,
}

impl EdgeBody for JstPass2<'_> {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        // SAFETY: forwarded.
        unsafe {
            let (eta, wa, wb, pa, pb) = self.flow.gather(g);
            let lam = self.flow.lambda(eta, wa, wb, pa, pb);
            let (nua, nub) = g.values(self.nu);
            let eps2 = L::splat(self.k2) * nua.max(nub);
            let eps4 = (L::splat(self.k4) - eps2).max(L::splat(0.0));
            let (la, lb) = g.planes(self.lapl, self.flow.n);
            let d = each!(k => lam * (eps2 * (wb[k] - wa[k]) - eps4 * (lb[k] - la[k])));
            g.add_sub(s, 0, self.flow.n, d);
        }
    }
}

#[derive(Clone, Copy)]
struct FirstOrder<'a> {
    flow: Flow<'a>,
    kdiss: f64,
}

impl EdgeBody for FirstOrder<'_> {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        // SAFETY: forwarded.
        unsafe {
            let (eta, wa, wb, pa, pb) = self.flow.gather(g);
            let kl = L::splat(self.kdiss) * self.flow.lambda(eta, wa, wb, pa, pb);
            g.add_sub(s, 0, self.flow.n, each!(k => kl * (wb[k] - wa[k])));
        }
    }
}

#[derive(Clone, Copy)]
struct RoeDiss<'a>(Flow<'a>);

impl EdgeBody for RoeDiss<'_> {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        // SAFETY: forwarded.
        unsafe {
            let (eta, wa, wb, pa, pb) = self.0.gather(g);
            g.add_sub(s, 0, self.0.n, roe(self.0.gamma, wa, wb, pa, pb, eta));
        }
    }
}

#[derive(Clone, Copy)]
struct SmoothAccumulate {
    res: *const f64,
    n: usize,
}

/// Pure data movement: each edge's values go from memory to the epilogue
/// as they are, never through a lane register.
impl EdgeBody for SmoothAccumulate {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        for j in 0..L::WIDTH {
            // SAFETY: forwarded; `j < L::WIDTH`.
            unsafe {
                let (a, b) = g.at(j);
                let at = |v: usize| each!(c => *self.res.add(c * self.n + v));
                s.add_pair(0, self.n, a, b, at(b), at(a));
            }
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
    // The convective flux does not read γ.
    let flow = Flow::new(coef, 0.0, w, p, n);
    // SAFETY: forwarded.
    unsafe { sweep(ConvFlux(flow), span, edges, s, lanes) }
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
    let flow = Flow::new(coef, gamma, w, p, n);
    // SAFETY: forwarded.
    unsafe { sweep(Radii(flow), span, edges, s, lanes) }
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
    let body = JstPass1 {
        w: w.as_ptr(),
        p: p.as_ptr(),
        n,
    };
    // SAFETY: forwarded.
    unsafe { sweep(body, span, edges, s, lanes) }
}

/// JST pass 2: switched Laplacian/biharmonic blend
/// `d = λ [ε₂ (w_b − w_a) − ε₄ (L_b − L_a)]` into target 0 (`diss`,
/// plane-major `5n`), with `ε₂ = k2 · max(ν_a, ν_b)` and
/// `ε₄ = max(k4 − ε₂, 0)` under the lane module's `max`.
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
    let flow = Flow::new(coef, gamma, w, p, n);
    let body = JstPass2 {
        flow,
        k2,
        k4,
        lapl: lapl.as_ptr(),
        nu: nu.as_ptr(),
    };
    // SAFETY: forwarded.
    unsafe { sweep(body, span, edges, s, lanes) }
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
    let flow = Flow::new(coef, gamma, w, p, n);
    // SAFETY: forwarded.
    unsafe { sweep(FirstOrder { flow, kdiss }, span, edges, s, lanes) }
}

/// Roe matrix dissipation `½|Â|(w_b − w_a)|η|` into target 0 (`diss`,
/// plane-major `5n`): [`crate::gas::roe_dissipation_flux`]'s tree per
/// edge, its branches (entropy fix, degenerate faces) selected lane by
/// lane.
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
    let flow = Flow::new(coef, gamma, w, p, n);
    // SAFETY: forwarded.
    unsafe { sweep(RoeDiss(flow), span, edges, s, lanes) }
}

/// Residual-averaging neighbour accumulation `acc_a += r̄_b`,
/// `acc_b += r̄_a` into target 0 (`acc`, plane-major `5n`), reading the
/// plane-major residual `res`. Pure data movement.
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
    let body = SmoothAccumulate {
        res: res.as_ptr(),
        n,
    };
    // SAFETY: forwarded.
    unsafe { sweep(body, span, edges, s, lanes) }
}
