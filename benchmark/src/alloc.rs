//! The benchmark binary's own counting allocator: exact allocation counts
//! for the per-layer ledger and the peak live heap for `peak_heap_mb`.
//!
//! Counting costs two or three atomic read-modify-writes per allocation —
//! contended ones when `fleet_paced`'s two workers allocate at once — so
//! the timed untraced phase switches it off (`set_counting(false)`): with
//! counting off an allocation pays one relaxed load of a read-shared flag.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

// All four are statistics that publish no other data, hence `Relaxed`.
static ON: AtomicBool = AtomicBool::new(true);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        // SAFETY: `p` and `layout` are passed through as received.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p`, `layout` and `new_size` are passed through as received.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if ON.load(Relaxed) && !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

/// Switch counting on or off. `live`/`peak` stay meaningful only until the
/// first switch-off (later frees of earlier allocations go unseen);
/// `allocs()` deltas are exact across any stretch counted throughout.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}

/// Allocations (and reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Restart the peak from the heap live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Heap live right now, in bytes.
#[cfg(test)]
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Highest live heap since the last `reset_peak`, in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
