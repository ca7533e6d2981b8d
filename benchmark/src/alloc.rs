//! A counting allocator for the traced binary: allocation count, bytes,
//! and peak live bytes per request are exact work counters of every layer
//! at once. The untraced binary links the system allocator untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters a [`CountingAlloc`] maintains. `Relaxed` everywhere: each is a
/// statistic that publishes no other data, read after the work it counts.
#[derive(Debug, Default)]
pub struct AllocCounters {
    count: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
}

/// A snapshot of [`AllocCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations made (including the growing half of reallocations).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes live now.
    pub live: u64,
    /// Most bytes live at once since the last [`AllocCounters::reset_peak`].
    pub peak_live: u64,
}

impl AllocCounters {
    /// Zeroed counters (const, for a `static`).
    pub const fn new() -> Self {
        AllocCounters {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak_live: AtomicU64::new(0),
        }
    }

    /// Read every counter.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            count: self.count.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            peak_live: self.peak_live.load(Ordering::Relaxed),
        }
    }

    /// Restart peak tracking from the bytes live now.
    pub fn reset_peak(&self) {
        self.peak_live.store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn grew(&self, size: usize) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        let live = self.live.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

/// The system allocator, counted.
pub struct CountingAlloc(pub &'static AllocCounters);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are
// atomics touched only before/after the forwarded call and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.shrank(layout.size());
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // this layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.0.grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.0.shrank(layout.size());
        self.0.grew(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller-checked new size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
