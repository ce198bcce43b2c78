//! Ownership-managed scatter access and the edge-span descriptor shared
//! by every `Executor` backend (the trait itself lives in `eul3d-core`;
//! the raw access types live here so the kernels stay dependency-free).
//!
//! # Conflict contract
//! **No two concurrently executing kernels own the same vertex, and a
//! kernel writes only through the ownership-tested epilogue**
//! (`Epilogue::add_pair` / `Epilogue::add_sub`). A view
//! from [`ScatterAccess::new`] owns every vertex (serial, distributed:
//! one kernel at a time); the shared backend hands member `t` a
//! [`ScatterAccess::restricted`] view that owns one contiguous vertex
//! block, together with the ascending list of every edge touching that
//! block. An edge cut by a block boundary is computed by both
//! neighbours, each keeping only its own endpoint's half.
//!
//! # Why ownership keeps every bit
//! A slot's value is decided by the order of the additions into it. An
//! owner sweeps *all* edges touching its vertices in ascending id
//! order, so each slot receives exactly the contributions — same
//! per-edge expression tree, same order — the single span
//! `EdgeSpan::Range(0..nedges)` gives it: any split of `0..n` into
//! blocks, any member count, is bit-identical to the serial sweep.

use std::marker::PhantomData;
use std::ops::Range;

/// Maximum number of target arrays one edge loop may scatter into (the
/// stage-0 flow sweep writes three: `diss`, `q` and `lam`).
pub const MAX_SCATTER_TARGETS: usize = 3;

/// A raw shared view of the scatter-target arrays of one edge loop.
///
/// # Safety contract
/// [`ScatterAccess::add`] performs an unsynchronized read-modify-write.
/// It is sound because every backend arranges that no two concurrently
/// executing kernels write the same vertex (the module's conflict
/// contract): the serial and distributed backends run one kernel at a
/// time, and the shared-memory backend gives concurrent kernels views
/// with disjoint ownership windows, which the edge epilogue tests per
/// endpoint. Indices must be in bounds.
pub struct ScatterAccess<'a> {
    ptrs: [(*mut f64, usize); MAX_SCATTER_TARGETS],
    ntargets: usize,
    /// Ownership window `own_lo..own_lo + own_len` over vertex ids.
    own_lo: usize,
    own_len: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

unsafe impl Sync for ScatterAccess<'_> {}

impl<'a> ScatterAccess<'a> {
    /// Wrap the target arrays of one edge loop; the view owns every
    /// vertex.
    pub fn new(targets: &mut [&'a mut [f64]]) -> ScatterAccess<'a> {
        assert!(
            targets.len() <= MAX_SCATTER_TARGETS,
            "too many scatter targets"
        );
        let mut ptrs = [(std::ptr::null_mut(), 0); MAX_SCATTER_TARGETS];
        for (slot, t) in ptrs.iter_mut().zip(targets.iter_mut()) {
            *slot = (t.as_mut_ptr(), t.len());
        }
        ScatterAccess {
            ptrs,
            ntargets: targets.len(),
            own_lo: 0,
            own_len: usize::MAX,
            _marker: PhantomData,
        }
    }

    /// The same targets seen by the owner of vertex `block` alone: the
    /// edge epilogue drops every contribution to a vertex outside it.
    pub fn restricted(&self, block: Range<usize>) -> ScatterAccess<'a> {
        ScatterAccess {
            own_lo: block.start,
            own_len: block.end.saturating_sub(block.start),
            ..*self
        }
    }

    /// Whether this view may write vertex `v`.
    #[inline(always)]
    pub fn owns(&self, v: usize) -> bool {
        v.wrapping_sub(self.own_lo) < self.own_len
    }

    /// Whether this view owns every vertex (it came from
    /// [`ScatterAccess::new`]): its sweeps run the unmasked epilogue.
    #[inline(always)]
    pub(crate) fn owns_all(&self) -> bool {
        self.own_lo == 0 && self.own_len == usize::MAX
    }

    /// Add `v` at flat index `i` of target `t` — the raw store under
    /// [`Epilogue::add_pair`], with no ownership test of its own.
    ///
    /// # Safety
    /// Caller must uphold the conflict contract documented on
    /// [`ScatterAccess`]: within one parallel region no other kernel
    /// writes index `i` of target `t`.
    #[inline(always)]
    pub unsafe fn add(&self, t: usize, i: usize, v: f64) {
        debug_assert!(t < self.ntargets);
        debug_assert!(i < self.ptrs[t].1);
        unsafe { *self.ptrs[t].0.add(i) += v }
    }

    /// Overwrite flat index `i` of target `t` with `v` (vertex loops:
    /// each index written by exactly one concurrent kernel).
    ///
    /// # Safety
    /// Same disjointness contract as [`ScatterAccess::add`].
    #[inline(always)]
    pub unsafe fn set(&self, t: usize, i: usize, v: f64) {
        debug_assert!(t < self.ntargets);
        debug_assert!(i < self.ptrs[t].1);
        unsafe { *self.ptrs[t].0.add(i) = v }
    }

    /// Length of target `t` (for caller-side debug assertions).
    #[inline(always)]
    pub fn len_of(&self, t: usize) -> usize {
        assert!(t < self.ntargets);
        self.ptrs[t].1
    }
}

/// The edge epilogue of one sweep — **the** place the ownership test
/// lives. `MASKED = false` is the sweep of a view that owns every
/// vertex and tests nothing (the serial and distributed backends: the
/// stores of a plain edge loop); `MASKED = true` tests each endpoint
/// against the view's window. An edge kernel is compiled once per mode
/// and `by_ownership!` picks the instance per call, so the test costs
/// the single-owner sweeps nothing. Passed by value: the kernels then
/// hold the `&ScatterAccess` itself, not a reference to one in memory,
/// and the target pointers stay in registers across the stores.
#[derive(Clone, Copy)]
pub(crate) struct Epilogue<'s, 'a, const MASKED: bool>(pub(crate) &'s ScatterAccess<'a>);

impl<const MASKED: bool> Epilogue<'_, '_, MASKED> {
    /// Add `fa[k]` at vertex `a` and `fb[k]` at vertex `b` of plane `k`
    /// of the plane-major (`n` slots per plane) target `t`, each
    /// endpoint only if the view owns it.
    ///
    /// # Safety
    /// Target `t` must hold `K` planes of `n` slots, `a, b < n`, no
    /// concurrently executing kernel may own `a` or `b` as well (the
    /// module's conflict contract), and an unmasked epilogue must wrap
    /// a view that owns every vertex.
    #[inline(always)]
    pub(crate) unsafe fn add_pair<const K: usize>(
        self,
        t: usize,
        n: usize,
        a: usize,
        b: usize,
        fa: [f64; K],
        fb: [f64; K],
    ) {
        // Two straight-line runs of stores, not one loop over the
        // endpoints: that shape measured 6 % slower on the convective
        // sweep.
        if !MASKED || self.0.owns(a) {
            for (k, f) in fa.into_iter().enumerate() {
                // SAFETY: `k * n + a` is in bounds by the caller's
                // sizes; `a` is owned by this view alone.
                unsafe { self.0.add(t, k * n + a, f) }
            }
        }
        if !MASKED || self.0.owns(b) {
            for (k, f) in fb.into_iter().enumerate() {
                // SAFETY: as above, for `b`.
                unsafe { self.0.add(t, k * n + b, f) }
            }
        }
    }

    /// [`Epilogue::add_pair`] for an antisymmetric edge quantity: `+f`
    /// at `a`, `−f` at `b`.
    ///
    /// # Safety
    /// As [`Epilogue::add_pair`].
    #[inline(always)]
    pub(crate) unsafe fn add_sub<const K: usize>(
        self,
        t: usize,
        n: usize,
        a: usize,
        b: usize,
        f: [f64; K],
    ) {
        // SAFETY: forwarded contract.
        unsafe { self.add_pair(t, n, a, b, f, f.map(|x| -x)) }
    }
}

/// Evaluate `$sweep` with `$s` (a `&ScatterAccess`) rebound to the
/// [`Epilogue`] of its ownership mode — one monomorphic instance of the
/// sweep per mode.
macro_rules! by_ownership {
    ($s:ident => $sweep:expr) => {
        if $s.owns_all() {
            let $s = $crate::scatter::Epilogue::<false>($s);
            $sweep
        } else {
            let $s = $crate::scatter::Epilogue::<true>($s);
            $sweep
        }
    };
}
pub(crate) use by_ownership;

/// The portion of an edge loop one kernel invocation covers: either a
/// contiguous id range (serial and distributed backends: the whole
/// loop) or an explicit id list (shared backend: every edge touching
/// one member's vertex block, ascending).
#[derive(Debug, Clone)]
pub enum EdgeSpan<'a> {
    /// Edges `start..end` of the loop's edge array.
    Range(Range<usize>),
    /// An explicit edge-id list.
    Ids(&'a [u32]),
}

impl EdgeSpan<'_> {
    /// Number of edges covered.
    pub fn len(&self) -> usize {
        match self {
            EdgeSpan::Range(r) => r.end.saturating_sub(r.start),
            EdgeSpan::Ids(ids) => ids.len(),
        }
    }

    /// True when the span covers no edges.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every covered edge id, in span order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        match self {
            EdgeSpan::Range(r) => {
                for e in r.clone() {
                    f(e);
                }
            }
            EdgeSpan::Ids(ids) => {
                for &e in *ids {
                    f(e as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_set_through_the_raw_view() {
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 2];
        let access = ScatterAccess::new(&mut [&mut a, &mut b]);
        unsafe {
            access.add(0, 1, 2.5);
            access.add(0, 1, 0.5);
            access.set(1, 0, 7.0);
        }
        assert_eq!(access.len_of(0), 4);
        assert_eq!(a, vec![0.0, 3.0, 0.0, 0.0]);
        assert_eq!(b, vec![7.0, 0.0]);
    }

    #[test]
    fn the_epilogue_writes_owned_endpoints_only() {
        // Two planes of three slots; edge (0, 2).
        let mut t = vec![0.0; 6];
        let all = ScatterAccess::new(&mut [&mut t]);
        assert!(all.owns(0) && all.owns(usize::MAX - 1));
        let low = all.restricted(0..2);
        let high = all.restricted(2..3);
        let none = all.restricted(1..1);
        assert!(low.owns(1) && !low.owns(2) && high.owns(2) && !high.owns(1));
        assert!(!none.owns(0) && !none.owns(1));
        assert!(all.owns_all() && !low.owns_all());
        // SAFETY: single-threaded; 2 planes of 3 slots, endpoints < 3.
        unsafe {
            Epilogue::<true>(&low).add_sub(0, 3, 0, 2, [1.0, 2.0]);
            Epilogue::<true>(&high).add_pair(0, 3, 0, 2, [9.0, 9.0], [0.5, 0.25]);
            Epilogue::<true>(&none).add_sub(0, 3, 0, 2, [7.0, 7.0]);
            Epilogue::<true>(&all).add_sub(0, 3, 1, 1, [4.0, 0.0]);
            Epilogue::<false>(&all).add_sub(0, 3, 1, 0, [0.0, 8.0]);
        }
        // A degenerate edge adds and then subtracts at its one vertex.
        assert_eq!(t, vec![1.0, 0.0, 0.5, -6.0, 8.0, 0.25]);
    }

    #[test]
    fn span_iteration_orders() {
        let mut seen = Vec::new();
        EdgeSpan::Range(2..5).for_each(|e| seen.push(e));
        EdgeSpan::Ids(&[7, 1]).for_each(|e| seen.push(e));
        assert_eq!(seen, vec![2, 3, 4, 7, 1]);
        assert_eq!(EdgeSpan::Range(3..3).len(), 0);
        assert!(EdgeSpan::Ids(&[]).is_empty());
        assert_eq!(EdgeSpan::Ids(&[1, 2]).len(), 2);
    }
}
