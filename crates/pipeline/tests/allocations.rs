//! Heap allocations of a fault-free pipeline run, counted by a global
//! allocator. The channel names its ring slots on the stack and storage
//! keeps the caller's key and payload buffers rather than copying them
//! (`sg_services::storage`), so what a message allocates is its payloads,
//! its 8-byte counter writes and the ring's tree growth. The counts are
//! deterministic for a fixed configuration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use composite::SimTime;
use sg_pipeline::{compile_chan, run_pipeline_variant, PipelineConfig, PipelineVariant};

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

const MESSAGES: u64 = 1_000;

/// Allocations per message of the whole run: build, stages, channels and
/// storage, but not the one-time compile of `chan.sg`.
fn allocations_per_message(variant: PipelineVariant) -> f64 {
    let cfg = PipelineConfig {
        jobs: MESSAGES,
        work: SimTime::from_millis(10),
        capacity: 8,
        ..PipelineConfig::default()
    };
    let _ = compile_chan();
    let before = ALLOCATIONS.with(Cell::get);
    let r = run_pipeline_variant(variant, &cfg);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(r.delivered, MESSAGES, "{variant}");
    allocations as f64 / MESSAGES as f64
}

#[test]
fn fault_free_run_allocates_at_most_40_per_message() {
    for variant in [
        PipelineVariant::Bare { faults: false },
        PipelineVariant::SuperGlue { faults: false },
    ] {
        let per_message = allocations_per_message(variant);
        assert!(
            per_message <= 40.0,
            "{variant}: {per_message:.1} allocations per message over {MESSAGES} messages"
        );
    }
}
