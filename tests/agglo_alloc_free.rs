//! The agglomerated W-cycle allocates nothing in steady state — the
//! heap analogue of `steady_state_cycles_are_allocation_free` on the
//! distributed path. Correction smoothing used to clone its field on
//! every prolongation; it now runs on the level's own `r0`/`acc` planes.
//!
//! One test per binary on purpose: the counter is per thread, but a
//! second test would still share the process-wide allocator hook.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eul3d::mesh::gen::{bump_channel, BumpSpec};
use eul3d::solver::agglo::Agglomeration;
use eul3d::solver::{Grids, MultigridSolver, SolverConfig, Strategy};

thread_local! {
    /// Allocations (fresh or grown) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// plain thread-local `Cell` with no destructor and no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_agglomerated_cycles_are_allocation_free() {
    let spec = BumpSpec {
        nx: 12,
        ny: 5,
        nz: 4,
        jitter: 0.1,
        ..BumpSpec::default()
    };
    let cfg = SolverConfig {
        mach: 0.5,
        ..SolverConfig::default()
    };
    let agg = Agglomeration::new(bump_channel(&spec), 3);
    let mut mg = MultigridSolver::new(Grids::Agglo(agg), cfg, Strategy::WCycle);
    assert!(mg.levels.len() >= 2);
    let mut last = 0.0;
    for _ in 0..2 {
        last = mg.cycle();
    }
    let warm = ALLOCS.with(Cell::get);
    for _ in 0..5 {
        last = mg.cycle();
    }
    let steady = ALLOCS.with(Cell::get);
    assert!(last.is_finite());
    assert_eq!(
        steady - warm,
        0,
        "5 steady-state agglomerated W-cycles made {} heap allocations",
        steady - warm
    );
}
