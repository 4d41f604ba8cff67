//! A counting global allocator: exact allocations and bytes per
//! operation for the ladder and for `allocs_per_iter`.
//!
//! Counting is off unless a [`Counting`] guard is alive, so the timed
//! end-to-end segments pay one relaxed load per allocation and never
//! touch the shared counters (two threads bumping one cache line would
//! be a cost the program does not have).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs`; forwards to [`System`].
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note(size: usize) {
        // Relaxed: statistics only, nothing is published through them.
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes)` counted while the guard is alive, process-wide
/// (every thread, helper threads included).
pub struct Counting {
    allocs: u64,
    bytes: u64,
}

impl Counting {
    /// Starts counting. Guards do not nest: one measurement at a time.
    pub fn start() -> Counting {
        let c = Counting {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        };
        ENABLED.store(true, Ordering::SeqCst);
        c
    }

    /// Stops counting and returns `(allocations, bytes)` since `start`.
    pub fn stop(self) -> (u64, u64) {
        ENABLED.store(false, Ordering::SeqCst);
        (
            ALLOCS.load(Ordering::Relaxed) - self.allocs,
            BYTES.load(Ordering::Relaxed) - self.bytes,
        )
    }
}

/// `cargo test` runs tests on parallel threads and the counters are
/// process-wide, so every test that starts a [`Counting`] guard holds
/// this lock.
#[cfg(test)]
pub(crate) static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_while_enabled_and_nothing_otherwise() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Tests that do not count may still allocate concurrently;
        // retry until one quiet window shows the exact figure.
        let exact = (0..200).any(|_| {
            let c = Counting::start();
            let v: Vec<u8> = Vec::with_capacity(4096);
            let b = Box::new(7u64);
            let got = c.stop();
            drop((v, b));
            got == (2, 4096 + 8)
        });
        assert!(
            exact,
            "two allocations of 4096 + 8 bytes were never counted exactly"
        );

        // No guard alive (and none can start: we hold SERIAL).
        let before = ALLOCS.load(Ordering::Relaxed);
        drop(Vec::<u8>::with_capacity(1 << 16));
        assert_eq!(ALLOCS.load(Ordering::Relaxed), before);
    }
}
