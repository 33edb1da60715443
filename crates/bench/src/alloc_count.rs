//! Heap-allocation counting, so allocs/round is a first-class measured
//! quantity next to wall-clock.
//!
//! With the `count-allocs` cargo feature enabled, a zero-dependency
//! counting [`GlobalAlloc`](std::alloc::GlobalAlloc) wraps the system
//! allocator and bumps one relaxed atomic per `alloc`/`realloc` call
//! (deallocations are pass-through: the interesting regression signal is
//! allocator *traffic*, which `alloc` alone captures). Without the
//! feature this module compiles to a stub whose [`allocations`] returns
//! `None`, so callers can report "counting off" instead of a misleading
//! zero.
//!
//! The counter is process-global and monotone; measure a region by
//! differencing two [`allocations`] snapshots. Counts are deterministic
//! for a deterministic single-threaded workload, which is what the CI
//! alloc-regression gate pins (`LPPA_THREADS=1`, so one shard): thread
//! pools and channels allocate on their own schedule, so multi-threaded
//! counts are reproducible only up to scheduling.

/// Snapshot of the process-wide allocation counter.
///
/// `Some(count)` with the `count-allocs` feature, `None` without it.
pub fn allocations() -> Option<u64> {
    imp::allocations()
}

#[cfg(feature = "count-allocs")]
#[allow(unsafe_code)]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Pass-through allocator that counts `alloc` and `realloc` calls.
    struct CountingAllocator;

    // SAFETY: every method forwards verbatim to `System`, which upholds
    // the `GlobalAlloc` contract; the counter bump has no effect on the
    // returned memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTER: CountingAllocator = CountingAllocator;

    pub(super) fn allocations() -> Option<u64> {
        Some(ALLOCS.load(Ordering::Relaxed))
    }
}

#[cfg(not(feature = "count-allocs"))]
mod imp {
    pub(super) fn allocations() -> Option<u64> {
        None
    }
}

#[cfg(all(test, feature = "count-allocs"))]
mod tests {
    use super::*;

    #[test]
    fn counter_moves_with_heap_traffic() {
        let before = allocations().unwrap();
        let v: Vec<u64> = (0..1024).collect();
        let after = allocations().unwrap();
        assert!(after > before, "allocating a Vec must bump the counter");
        drop(v);
        // Dealloc is pass-through: the counter never decreases.
        assert!(allocations().unwrap() >= after);
    }
}
