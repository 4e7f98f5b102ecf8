//! A counting global allocator for steady-state allocation tests.
//!
//! A test binary includes this file as a module and thereby installs the
//! allocator. Counts are kept per thread: the default test harness runs
//! tests on parallel threads, and a process-wide tally would charge one
//! test's measurement with a sibling test's allocations. [`allocations`]
//! reports only the calling thread's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // The slot is gone while a thread's locals are torn down; allocations
    // made then belong to no measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (reallocations included) made so far by the calling
/// thread.
pub fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}
