//! Conflict-managed scatter access and the edge-span descriptor shared
//! by every `Executor` backend (the trait itself lives in `eul3d-core`;
//! the raw access types live here so the kernels stay dependency-free).

use std::marker::PhantomData;
use std::ops::Range;

/// Maximum number of target arrays one edge loop may scatter into
/// (the JST Laplacian pass writes two: `lapl` and `sens`).
pub const MAX_SCATTER_TARGETS: usize = 2;

/// A raw shared view of the scatter-target arrays of one edge loop.
///
/// # Safety contract
/// [`ScatterAccess::add`] performs an unsynchronized read-modify-write.
/// It is sound because every backend arranges that no two concurrently
/// executing edge kernels touch the same vertex: the serial and
/// distributed backends run one edge at a time, and the shared-memory
/// backend only runs edges of one *colour group* concurrently (a
/// validated colouring guarantees disjoint endpoints within a group, and
/// groups are separated by joins). Indices must be in bounds.
pub struct ScatterAccess<'a> {
    ptrs: [(*mut f64, usize); MAX_SCATTER_TARGETS],
    ntargets: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

unsafe impl Sync for ScatterAccess<'_> {}

impl<'a> ScatterAccess<'a> {
    /// Wrap the target arrays of one edge loop.
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
            _marker: PhantomData,
        }
    }

    /// Add `v` at flat index `i` of target `t`.
    ///
    /// # Safety
    /// Caller must uphold the conflict contract documented on
    /// [`ScatterAccess`]: within one parallel region no other edge kernel
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

/// The portion of an edge loop one kernel invocation covers: either a
/// contiguous id range (serial and distributed backends: the whole
/// loop) or an explicit id list (shared backend: one slice of one
/// colour group).
#[derive(Debug, Clone)]
pub enum EdgeSpan<'a> {
    /// Edges `start..end` of the loop's edge array.
    Range(Range<usize>),
    /// An explicit edge-id list (disjoint endpoints when issued from a
    /// colour group).
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
