//! An exact work gate for the Jive front end: the number of heap
//! allocations `isf_frontend::compile` makes on the ten default-scale
//! workloads. The count is a property of the code, not of the machine, so
//! unlike a wall-time bound it cannot flake; it fails when a change makes
//! the front end copy what it does not emit.
//!
//! The counting allocator is this binary's `#[global_allocator]`, so this
//! file holds one test and counts on its own thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use isf_workloads::{suite, Scale};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which got
        // them from `System`; forwarded from the caller unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) the ten default compiles made
/// when this gate was set.
const MEASURED: u64 = 2_176;

#[test]
fn compiling_the_default_workloads_stays_within_its_allocation_budget() {
    let workloads = suite(Scale::Default);
    let before = ALLOCATIONS.with(Cell::get);
    for w in &workloads {
        let module = isf_frontend::compile(w.source()).expect("workloads compile");
        drop(module);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    println!("front end: {allocations} allocations for the ten default workloads");
    assert!(
        allocations <= MEASURED + MEASURED / 10,
        "{allocations} allocations, more than 110% of the measured {MEASURED}"
    );
}
