//! Heap allocations on the steady §V-B call path, counted by a global
//! allocator. Service bodies allocate (RamFS three times and MM once per
//! call), so each SuperGlue count is compared with Bare's: the stubs and
//! the tracking they add must not allocate per call. The counts are
//! deterministic for a fixed call sequence.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sg_bench::{rig_elided, SERVICES};
use superglue::testbed::Variant;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling
/// thread. `realloc` and `alloc_zeroed` keep their default bodies, which
/// call `alloc`, so they count too.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialized thread-local `Cell` with no
// destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 200;
const ITERATIONS: u64 = 1_000;

/// Allocations made by `ITERATIONS` §V-B iterations of `iface` after a
/// `WARMUP`-iteration warm-up on one rig.
fn allocations(variant: Variant, elide: bool, iface: &str) -> u64 {
    let mut rig = rig_elided(variant, elide);
    for seq in 0..WARMUP {
        rig.run_iteration(iface, seq).unwrap();
    }
    let before = ALLOCATIONS.with(Cell::get);
    for seq in WARMUP..WARMUP + ITERATIONS {
        rig.run_iteration(iface, seq).unwrap();
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn superglue_stubs_add_no_per_call_allocations() {
    for iface in SERVICES {
        let bare = allocations(Variant::Bare, false, iface);
        for elide in [false, true] {
            let sg = allocations(Variant::SuperGlue, elide, iface);
            assert!(
                sg < bare + 200,
                "{iface} (elide {elide}): SuperGlue {sg} allocations vs Bare {bare} \
                 over {ITERATIONS} iterations"
            );
        }
    }
}
