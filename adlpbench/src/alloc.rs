//! A counting global allocator: a process-wide allocation count, live and
//! peak heap bytes, and a per-thread allocation count.
//!
//! It forwards every request to [`System`] and only keeps counters, so the
//! program under test allocates exactly as it would without it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The benchmark binary's global allocator.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` initialisation and a `Cell` without a destructor: touching it
    // never allocates, so it is safe to use from inside the allocator.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    // `try_with` fails only while the thread's locals are being torn down;
    // an allocation then is simply not attributed to the thread.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn note_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged to
// `System`, which meets every requirement of `GlobalAlloc`; the counters touched
// around the calls are atomics or a const-initialised thread-local `Cell`,
// none of which allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from the caller, who guarantees it has a
        // non-zero size, as `System.alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` was allocated by this
        // allocator (hence by `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // from this allocator and that `new_size` is valid for its alignment.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        new
    }
}

/// Allocations made by the whole process so far.
pub fn process_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// The highest number of live heap bytes seen so far.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
