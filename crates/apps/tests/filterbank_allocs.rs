//! Steady-state allocation profile of the filter bank at its default
//! configuration on the discrete-event simulator: the source writes its
//! frames straight into its output slots, each branch filters its input
//! in place of a kept buffer and writes the decimated band into its
//! slot, so an iteration costs the framed messages and the frame the
//! combiner keeps.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is per-binary, and a sibling test allocating concurrently
//! would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spi_apps::{FilterBankApp, FilterBankConfig};
use spi_platform::{Machine, Op};

/// Counts allocation calls; frees are uncounted (a steady state that
/// allocates nothing frees nothing).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The apps crate forbids unsafe; this test binary needs it only to
// delegate to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
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
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls so far, sampled as the distributor begins
/// iterations 200, 300 and 400: each window holds 100 whole
/// iterations, every firing of every PE included.
static MARKS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

const ITERATIONS: u64 = 410;

/// What one iteration allocates, line by line. P0 hosts the
/// distributor and the combiner, P1 the low band and P2 the high band.
///
/// | actor | allocation | count |
/// |---|---|---|
/// | every cross send | the framed message: a frame to each branch, a band back from each | 4 |
/// | combine | the interleaved frame it keeps, read from both bands at once | 1 |
///
/// Nothing for a firing's input list or its outputs: the two frames
/// and the two bands go into output slots the lowered firings keep.
/// Nothing for the distributor's synthesis, an iterator written
/// straight into its slots; nothing for a branch's filtering, which
/// fills a buffer the branch keeps, or its decimation, an iterator
/// over that buffer.
const ALLOCS_PER_ITERATION: u64 = 4 + 1;

#[test]
fn filter_bank_actors_allocate_only_messages_and_the_kept_frame() {
    let app = FilterBankApp::new(FilterBankConfig::default()).expect("valid configuration");
    // The output log grows by doubling; give it room up front so its
    // growth stays out of the windows.
    app.output
        .lock()
        .expect("output")
        .reserve(ITERATIONS as usize);
    let sys = app.system(ITERATIONS).expect("the filter bank lowers");
    let (specs, mut programs) = sys.into_parts();
    let fired = programs[0]
        .ops
        .iter_mut()
        .find_map(|op| match op {
            Op::Compute { label, work } if label.starts_with("fire:distribute#") => Some(work),
            _ => None,
        })
        .expect("the distributor fires on P0");
    let mut inner = std::mem::replace(fired, Box::new(|_| 0));
    let mut iter = 0;
    *fired = Box::new(move |local| {
        if let Some(mark) = [200, 300, 400].iter().position(|&i| i == iter) {
            MARKS[mark].store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        iter += 1;
        inner(local)
    });
    let mut machine = Machine::new();
    for spec in &specs {
        machine.add_channel(*spec);
    }
    for program in programs {
        machine.add_pe(program);
    }
    machine.run().expect("the run completes");
    assert_eq!(app.output.lock().expect("output").len() as u64, ITERATIONS);

    let [at_200, at_300, at_400] = [0, 1, 2].map(|i| MARKS[i].load(Ordering::Relaxed));
    println!(
        "per iteration: {} and {} allocations",
        (at_300 - at_200) as f64 / 100.0,
        (at_400 - at_300) as f64 / 100.0
    );
    assert_eq!(at_300 - at_200, 100 * ALLOCS_PER_ITERATION);
    assert_eq!(at_400 - at_300, 100 * ALLOCS_PER_ITERATION);
}
