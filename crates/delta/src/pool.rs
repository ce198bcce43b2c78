//! Reusable communication buffers of the channel traffic.
//!
//! Record streams keep their storage in their windows ([`crate::shm`]);
//! what still rides the channels — collectives, the inspector's request
//! lists — and the inter-grid transfers' staging take their buffers from
//! here, with **zero steady-state heap allocation** as the goal (PARTI's
//! schedules are built once and executed thousands of times, §4.1).
//! Every rank owns a [`CommBuffers`] free-list: a sender *takes* an empty
//! buffer to pack into and hands it to the network, and a receiver
//! *recycles* every received payload into its own pool once its contents
//! are unpacked. Buffers are never freed — they circulate through the
//! simulated network, so after a warm-up the pools of a balanced
//! communication pattern are self-sustaining and `take` never allocates
//! again.
//!
//! The pool is deliberately simple: a best-fit scan of a short free-list
//! (smallest pooled capacity that satisfies the request), so an
//! exact-size match wins over a larger stranger and buffers do not
//! slowly drift between requests of different sizes. A request that no
//! pooled buffer can satisfy allocates a fresh one (and reports the fresh
//! bytes, so [`crate::RankCounters`] can expose allocation counts to the
//! per-phase accounting layer); undersized buffers are left in the pool
//! for smaller requests rather than grown.

/// Per-rank free-lists of communication buffers.
#[derive(Debug, Default)]
pub struct CommBuffers {
    free_f64: Vec<Vec<f64>>,
    free_u32: Vec<Vec<u32>>,
}

fn take<T>(free: &mut Vec<Vec<T>>, cap: usize, elem_bytes: u64) -> (Vec<T>, u64) {
    let best = free
        .iter()
        .enumerate()
        .filter(|(_, b)| b.capacity() >= cap)
        .min_by_key(|(_, b)| b.capacity())
        .map(|(k, _)| k);
    if let Some(k) = best {
        return (free.swap_remove(k), 0);
    }
    (Vec::with_capacity(cap), cap as u64 * elem_bytes)
}

impl CommBuffers {
    pub fn new() -> CommBuffers {
        CommBuffers::default()
    }

    /// Take an empty `f64` buffer with capacity ≥ `cap`. Returns the
    /// buffer and the number of freshly allocated bytes (0 on a pool hit).
    pub fn take_f64(&mut self, cap: usize) -> (Vec<f64>, u64) {
        take(&mut self.free_f64, cap, 8)
    }

    /// Return a consumed `f64` buffer to the pool (cleared, capacity kept).
    pub fn recycle_f64(&mut self, mut v: Vec<f64>) {
        v.clear();
        self.free_f64.push(v);
    }

    /// Take an empty `u32` buffer with capacity ≥ `cap`. Returns the
    /// buffer and the number of freshly allocated bytes (0 on a pool hit).
    pub fn take_u32(&mut self, cap: usize) -> (Vec<u32>, u64) {
        take(&mut self.free_u32, cap, 4)
    }

    /// Return a consumed `u32` buffer to the pool (cleared, capacity kept).
    pub fn recycle_u32(&mut self, mut v: Vec<u32>) {
        v.clear();
        self.free_u32.push(v);
    }

    /// Buffers currently pooled (both types), for tests and reporting.
    pub fn pooled(&self) -> usize {
        self.free_f64.len() + self.free_u32.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_allocates_only_on_miss() {
        let mut pool = CommBuffers::new();
        let (buf, fresh) = pool.take_f64(16);
        assert_eq!(fresh, 16 * 8);
        assert!(buf.is_empty() && buf.capacity() >= 16);
        pool.recycle_f64(buf);
        assert_eq!(pool.pooled(), 1);

        // Hit: same-size request reuses the recycled buffer.
        let (buf, fresh) = pool.take_f64(16);
        assert_eq!(fresh, 0);
        assert!(buf.is_empty());
        pool.recycle_f64(buf);

        // Smaller request also hits (best fit: the 16-cap buffer is the
        // smallest — and only — candidate).
        let (buf, fresh) = pool.take_f64(4);
        assert_eq!(fresh, 0);
        pool.recycle_f64(buf);

        // Larger request misses; the small buffer stays pooled.
        let (big, fresh) = pool.take_f64(64);
        assert_eq!(fresh, 64 * 8);
        assert_eq!(pool.pooled(), 1);
        pool.recycle_f64(big);
        assert_eq!(pool.pooled(), 2);
    }

    #[test]
    fn u32_pool_is_independent() {
        let mut pool = CommBuffers::new();
        let (b, fresh) = pool.take_u32(8);
        assert_eq!(fresh, 8 * 4);
        pool.recycle_u32(b);
        let (_f, fresh_f) = pool.take_f64(8);
        assert_eq!(fresh_f, 8 * 8, "f64 requests must not steal u32 buffers");
        let (b2, fresh2) = pool.take_u32(8);
        assert_eq!(fresh2, 0);
        assert!(b2.capacity() >= 8);
    }
}
