//! Set-up work on two threads: the finest level of a multigrid sequence
//! on the calling thread, the coarser ones beside it.

use std::sync::{Mutex, OnceLock};

/// Finest levels with fewer vertices than this are set up on the
/// calling thread alone. A helper thread brings its own allocator arena,
/// which stays resident for the life of the process; below this size
/// (a bump channel up to `nx` = 32) the split saves about a millisecond
/// or less, so small builds, such as the jobs a service already runs
/// side by side on its workers, do not pay for one.
pub const SPLIT_MIN_VERTS: usize = 4096;

/// Run `a` on the calling thread and `b` beside it on one scoped helper
/// thread, and return both results. When the finest level holds fewer
/// than [`SPLIT_MIN_VERTS`] of `fine_verts`, on a one-CPU host, or when
/// the helper cannot be spawned, `b` runs on the caller after `a`. A
/// panic in either is raised again on the caller once both have
/// finished.
pub fn join<A, B, RA, RB>(fine_verts: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if fine_verts < SPLIT_MIN_VERTS || !two_cpus() {
        let ra = a();
        return (ra, b());
    }
    // `b` waits here for whichever thread runs it: the helper, or the
    // caller when the helper could not be spawned.
    let b = Mutex::new(Some(b));
    let run_b = || b.lock().ok().and_then(|mut b| b.take()).map(|b| b());
    std::thread::scope(|s| {
        let helper = std::thread::Builder::new().spawn_scoped(s, run_b);
        let ra = a();
        let rb = match helper {
            Ok(helper) => helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(_) => run_b(),
        };
        match rb {
            Some(rb) => (ra, rb),
            None => unreachable!("`b` runs exactly once"),
        }
    })
}

/// `f` of every level, finest first: the finest on the calling thread,
/// the coarser ones one after another beside it ([`join`], the finest
/// level holding `fine_verts` vertices).
pub fn map_levels<T, R>(fine_verts: usize, levels: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let mut levels = levels.into_iter();
    let finest = levels.next();
    let (finest, coarse) = join(
        fine_verts,
        || finest.map(&f),
        || levels.map(&f).collect::<Vec<_>>(),
    );
    finest.into_iter().chain(coarse).collect()
}

/// Whether this process may run on more than one CPU.
fn two_cpus() -> bool {
    static TWO: OnceLock<bool> = OnceLock::new();
    *TWO.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both_results_in_order() {
        let data = [1u64, 2, 3];
        for size in [0, SPLIT_MIN_VERTS] {
            let (a, b) = join(size, || data.iter().sum::<u64>(), || data.len());
            assert_eq!((a, b), (6, 3));
        }
    }

    #[test]
    fn map_levels_keeps_the_order() {
        for size in [0, SPLIT_MIN_VERTS] {
            let doubled = map_levels(size, vec![3, 1, 4, 1, 5], |x| x * 2);
            assert_eq!(doubled, [6, 2, 8, 2, 10]);
            assert_eq!(map_levels(size, vec![7], |x| x + 1), [8]);
            assert!(map_levels(size, Vec::<u8>::new(), |x| x).is_empty());
        }
    }

    #[test]
    fn a_panic_on_the_helper_reaches_the_caller() {
        for size in [0, SPLIT_MIN_VERTS] {
            let r = std::panic::catch_unwind(|| {
                join(size, || 1, || -> u32 { panic!("helper failed") })
            });
            assert!(r.is_err());
        }
    }
}
