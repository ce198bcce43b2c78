//! Lane-chunked SoA edge kernels, one body each — and one body, `Flow`,
//! for every kernel that reads the flow, so one sweep can write all of
//! their outputs.
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
struct FlowIn<'a> {
    coef: &'a [Vec3],
    gamma: f64,
    w: *const f64,
    p: *const f64,
    n: usize,
}

/// What a flow sweep gathers once per edge: the face vector `η`, then
/// both endpoints' state and pressure.
struct Edge<L: Lane> {
    eta: [L; 3],
    wa: [L; NVAR],
    wb: [L; NVAR],
    pa: L,
    pb: L,
}

impl FlowIn<'_> {
    /// # Safety
    /// The module contract, for the edges of `g`.
    #[inline(always)]
    unsafe fn gather<L: Lane>(self, g: &Group<L>) -> Edge<L> {
        // SAFETY: forwarded.
        unsafe {
            let eta = g.eta(self.coef);
            let (wa, wb) = g.planes(self.w, self.n);
            let (pa, pb) = g.values(self.p);
            Edge {
                eta,
                wa,
                wb,
                pa,
                pb,
            }
        }
    }

    /// The edge's spectral radius: the endpoints' [`radius`] averaged.
    #[inline(always)]
    fn lambda<L: Lane>(self, x: &Edge<L>) -> L {
        let (gamma, norm) = (L::splat(self.gamma), norm(x.eta));
        L::splat(0.5)
            * (radius(gamma, x.wa, x.pa, x.eta, norm) + radius(gamma, x.wb, x.pb, x.eta, norm))
    }
}

/// The dissipation a [`Flow`] sweep writes: its per-edge tree over the
/// gathered edge and the edge's spectral radius `λ`.
trait Diss: Copy {
    /// Whether the sweep writes a dissipation target at all.
    const WRITES: bool = true;
    /// Whether the tree reads `λ`.
    const LAMBDA: bool;

    /// # Safety
    /// The module contract, for the edges of `g`.
    unsafe fn flux<L: Lane>(self, g: &Group<L>, n: usize, x: &Edge<L>, lam: L) -> [L; NVAR];
}

/// No dissipation: the sweep writes convection and/or radii only.
#[derive(Clone, Copy)]
struct NoDiss;

impl Diss for NoDiss {
    const WRITES: bool = false;
    const LAMBDA: bool = false;

    #[inline(always)]
    unsafe fn flux<L: Lane>(self, _: &Group<L>, _: usize, _: &Edge<L>, _: L) -> [L; NVAR] {
        [L::splat(0.0); NVAR]
    }
}

/// JST pass 2.
#[derive(Clone, Copy)]
struct Jst {
    k2: f64,
    k4: f64,
    lapl: *const f64,
    nu: *const f64,
}

impl Diss for Jst {
    const LAMBDA: bool = true;

    #[inline(always)]
    unsafe fn flux<L: Lane>(self, g: &Group<L>, n: usize, x: &Edge<L>, lam: L) -> [L; NVAR] {
        // SAFETY: forwarded.
        unsafe {
            let (nua, nub) = g.values(self.nu);
            let eps2 = L::splat(self.k2) * nua.max(nub);
            let eps4 = (L::splat(self.k4) - eps2).max(L::splat(0.0));
            let (la, lb) = g.planes(self.lapl, n);
            each!(k => lam * (eps2 * (x.wb[k] - x.wa[k]) - eps4 * (lb[k] - la[k])))
        }
    }
}

/// First-order coarse-level dissipation.
#[derive(Clone, Copy)]
struct FirstOrder {
    kdiss: f64,
}

impl Diss for FirstOrder {
    const LAMBDA: bool = true;

    #[inline(always)]
    unsafe fn flux<L: Lane>(self, _: &Group<L>, _: usize, x: &Edge<L>, lam: L) -> [L; NVAR] {
        let kl = L::splat(self.kdiss) * lam;
        each!(k => kl * (x.wb[k] - x.wa[k]))
    }
}

/// Roe matrix dissipation.
#[derive(Clone, Copy)]
struct Roe {
    gamma: f64,
}

impl Diss for Roe {
    const LAMBDA: bool = false;

    #[inline(always)]
    unsafe fn flux<L: Lane>(self, _: &Group<L>, _: usize, x: &Edge<L>, _: L) -> [L; NVAR] {
        roe(self.gamma, x.wa, x.wb, x.pa, x.pb, x.eta)
    }
}

/// **The** flow edge body: gather `η, w_a, w_b, p_a, p_b` once, compute
/// `λ` once if anything reads it, then scatter each output into its own
/// target — the dissipation `D` (when `D` writes), the convective flux
/// (`CONV`), the spectral radius (`RADII`), in that target order. Every
/// target is a separate array, so writing several from one pass leaves
/// each slot the accumulation order of the sweep that writes it alone.
#[derive(Clone, Copy)]
struct Flow<'a, D, const CONV: bool, const RADII: bool> {
    input: FlowIn<'a>,
    diss: D,
}

impl<D: Diss, const CONV: bool, const RADII: bool> EdgeBody for Flow<'_, D, CONV, RADII> {
    #[inline(always)]
    unsafe fn run<L: Lane, const M: bool>(self, g: &Group<L>, s: Epilogue<'_, '_, M>) {
        let n = self.input.n;
        // SAFETY: forwarded.
        unsafe {
            let x = self.input.gather(g);
            let lam = if D::LAMBDA || RADII {
                self.input.lambda(&x)
            } else {
                L::splat(0.0)
            };
            if D::WRITES {
                g.add_sub(s, 0, n, self.diss.flux(g, n, &x, lam));
            }
            let t = D::WRITES as usize;
            if CONV {
                let (fa, fb, half) = (
                    flux(x.wa, x.pa, x.eta),
                    flux(x.wb, x.pb, x.eta),
                    L::splat(0.5),
                );
                g.add_sub(s, t, n, each!(k => half * (fa[k] + fb[k])));
            }
            if RADII {
                g.add_pair(s, t + CONV as usize, n, [lam], [lam]);
            }
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

/// The dissipation a flow sweep writes into its first target (`diss`,
/// plane-major `5n`), with its coefficients.
#[derive(Debug, Clone, Copy)]
pub enum Dissipation<'a> {
    /// None: the sweep writes no dissipation target.
    None,
    /// JST pass 2: the switched Laplacian/biharmonic blend
    /// `d = λ [ε₂ (w_b − w_a) − ε₄ (L_b − L_a)]`, with
    /// `ε₂ = k2 · max(ν_a, ν_b)` and `ε₄ = max(k4 − ε₂, 0)` under the
    /// lane module's `max`; `lapl` `≥ 5n`, `nu` `≥ n`.
    Jst {
        k2: f64,
        k4: f64,
        lapl: &'a [f64],
        nu: &'a [f64],
    },
    /// First-order coarse-level dissipation `d = k λ (w_b − w_a)`.
    FirstOrder { kdiss: f64 },
    /// Roe matrix dissipation `½|Â|(w_b − w_a)|η|`:
    /// [`crate::gas::roe_dissipation_flux`]'s tree per edge, its branches
    /// (entropy fix, degenerate faces) selected lane by lane.
    Roe,
}

/// One flow sweep: the flow it reads and the outputs it writes. The
/// targets are packed in the order dissipation (unless
/// [`Dissipation::None`]), convective flux `q` (when `conv`, plane-major
/// `5n`), spectral radii `lam` (when `radii`, scalar `n`).
#[derive(Debug, Clone, Copy)]
pub struct FlowSweep<'a> {
    pub coef: &'a [Vec3],
    pub gamma: f64,
    /// Plane-major state, `5n`.
    pub w: &'a [f64],
    /// Pressure, `n`.
    pub p: &'a [f64],
    pub n: usize,
    pub diss: Dissipation<'a>,
    /// Central convective fluxes `½(F_a + F_b)·η`, `+` at `a`, `−` at `b`.
    pub conv: bool,
    /// Spectral-radius accumulation `Λ_a += λ_ab`, `Λ_b += λ_ab`.
    pub radii: bool,
}

/// Every output of `f` in one pass over `span`: each edge's flow is
/// gathered once and its `λ` computed once, whatever reads them. Each
/// target receives exactly the bits the sweep writing it alone leaves
/// (`tests/ownership_equivalence.rs`).
///
/// # Safety
/// See the module contract. The targets are packed and sized as
/// [`FlowSweep`] documents.
pub unsafe fn flow_edges(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    f: &FlowSweep<'_>,
    s: &ScatterAccess,
    lanes: usize,
) {
    let n = f.n;
    debug_assert!(f.w.len() >= NVAR * n && f.p.len() >= n);
    let input = FlowIn {
        coef: f.coef,
        gamma: f.gamma,
        w: f.w.as_ptr(),
        p: f.p.as_ptr(),
        n,
    };
    // SAFETY: forwarded.
    unsafe {
        match f.diss {
            Dissipation::None => outputs(input, NoDiss, f, span, edges, s, lanes),
            Dissipation::Jst { k2, k4, lapl, nu } => {
                debug_assert!(lapl.len() >= NVAR * n && nu.len() >= n);
                let (lapl, nu) = (lapl.as_ptr(), nu.as_ptr());
                outputs(input, Jst { k2, k4, lapl, nu }, f, span, edges, s, lanes)
            }
            Dissipation::FirstOrder { kdiss } => {
                outputs(input, FirstOrder { kdiss }, f, span, edges, s, lanes)
            }
            Dissipation::Roe => {
                let roe = Roe { gamma: f.gamma };
                outputs(input, roe, f, span, edges, s, lanes)
            }
        }
    }
}

/// [`flow_edges`] for one dissipation kind: the instance of [`Flow`]
/// with `f`'s outputs.
///
/// # Safety
/// As [`flow_edges`].
#[inline(always)]
unsafe fn outputs<D: Diss>(
    input: FlowIn<'_>,
    diss: D,
    f: &FlowSweep<'_>,
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    s: &ScatterAccess,
    lanes: usize,
) {
    let n = f.n;
    let sizes = [(D::WRITES, NVAR * n), (f.conv, NVAR * n), (f.radii, n)];
    for (t, len) in sizes
        .iter()
        .filter_map(|&(on, len)| on.then_some(len))
        .enumerate()
    {
        debug_assert!(s.len_of(t) >= len, "flow target {t} holds fewer than {len}");
    }
    // SAFETY: forwarded.
    unsafe {
        match (f.conv, f.radii) {
            (false, false) => sweep(
                Flow::<D, false, false> { input, diss },
                span,
                edges,
                s,
                lanes,
            ),
            (true, false) => sweep(
                Flow::<D, true, false> { input, diss },
                span,
                edges,
                s,
                lanes,
            ),
            (false, true) => sweep(
                Flow::<D, false, true> { input, diss },
                span,
                edges,
                s,
                lanes,
            ),
            (true, true) => sweep(Flow::<D, true, true> { input, diss }, span, edges, s, lanes),
        }
    }
}

/// [`flow_edges`] from the argument list of the single-output entries.
///
/// # Safety
/// As [`flow_edges`].
#[allow(clippy::too_many_arguments)]
unsafe fn one_output(
    span: &EdgeSpan<'_>,
    edges: &[[u32; 2]],
    coef: &[Vec3],
    gamma: f64,
    w: &[f64],
    p: &[f64],
    n: usize,
    diss: Dissipation<'_>,
    conv: bool,
    radii: bool,
    s: &ScatterAccess,
    lanes: usize,
) {
    let f = FlowSweep {
        coef,
        gamma,
        w,
        p,
        n,
        diss,
        conv,
        radii,
    };
    // SAFETY: forwarded.
    unsafe { flow_edges(span, edges, &f, s, lanes) }
}

/// Central convective fluxes `½(F_a + F_b)·η`, accumulated `+` at `a`
/// and `−` at `b` into target 0 (`q`, plane-major `5n`): the
/// convection-only [`flow_edges`].
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
    // The convective flux does not read γ.
    let none = Dissipation::None;
    // SAFETY: forwarded.
    unsafe { one_output(span, edges, coef, 0.0, w, p, n, none, true, false, s, lanes) }
}

/// Spectral-radius accumulation `Λ_a += λ_ab`, `Λ_b += λ_ab` into target
/// 0 (`lam`, scalar `n`): the radii-only [`flow_edges`].
///
/// **Reference oracle + referee probe target, not on the solver path**,
/// like every single-output flow entry here: the solver writes these
/// outputs through one [`flow_edges`] pass per stage.
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
    let none = Dissipation::None;
    // SAFETY: forwarded.
    unsafe {
        one_output(
            span, edges, coef, gamma, w, p, n, none, false, true, s, lanes,
        )
    }
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

/// JST pass 2 ([`Dissipation::Jst`]) alone into target 0 (`diss`,
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
    let jst = Dissipation::Jst { k2, k4, lapl, nu };
    // SAFETY: forwarded.
    unsafe {
        one_output(
            span, edges, coef, gamma, w, p, n, jst, false, false, s, lanes,
        )
    }
}

/// First-order coarse-level dissipation ([`Dissipation::FirstOrder`])
/// alone into target 0 (`diss`, plane-major `5n`).
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
    let fo = Dissipation::FirstOrder { kdiss };
    // SAFETY: forwarded.
    unsafe {
        one_output(
            span, edges, coef, gamma, w, p, n, fo, false, false, s, lanes,
        )
    }
}

/// Roe matrix dissipation ([`Dissipation::Roe`]) alone into target 0
/// (`diss`, plane-major `5n`).
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
    let roe = Dissipation::Roe;
    // SAFETY: forwarded.
    unsafe {
        one_output(
            span, edges, coef, gamma, w, p, n, roe, false, false, s, lanes,
        )
    }
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
