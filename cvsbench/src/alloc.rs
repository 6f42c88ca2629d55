//! A counting global allocator for the traced run's allocation metrics.
//!
//! Counting is gated by one relaxed flag, so the untraced run pays a
//! single relaxed load per allocation; the counters are statistics that
//! publish no other data, hence `Relaxed` throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc(size: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

#[inline]
fn note_free(size: usize) {
    if ON.load(Ordering::Relaxed) {
        FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory handed out by the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller meets the requirements of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller meets the requirements of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: the caller meets the requirements of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: the caller meets the requirements of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn counting on or off (process-wide).
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocation totals since process start, over the intervals counting
/// was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub freed_bytes: u64,
}

impl Totals {
    pub fn now() -> Totals {
        Totals {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations and bytes between `earlier` and `self`.
    pub fn since(self, earlier: Totals) -> Totals {
        Totals {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            freed_bytes: self.freed_bytes - earlier.freed_bytes,
        }
    }

    /// Net heap growth in bytes (negative when more was freed).
    pub fn net_bytes(self) -> f64 {
        self.alloc_bytes as f64 - self.freed_bytes as f64
    }
}
