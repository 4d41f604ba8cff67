//! Steady-state allocation profile of application 2, the distributed
//! particle filter, at figure 7's two-PE, 300-particle configuration
//! on the discrete-event simulator: every actor reads its inputs in
//! place, keeps its working buffers between firings and writes its
//! outputs into slots the lowered firings keep, so an iteration costs
//! the framed messages and the step's pooled particle set.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is per-binary, and a sibling test allocating concurrently
//! would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spi_apps::{PrognosisApp, PrognosisConfig};
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

/// Allocator calls so far, sampled as the observation source begins
/// iterations 200, 300 and 400: each window holds 100 whole
/// iterations, every firing of every PE included.
static MARKS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

const ITERATIONS: u64 = 410;

/// What one iteration allocates at two PEs, line by line. P0 hosts the
/// observation source and PE 0's three stages, P1 PE 1's.
///
/// | actor | allocation | count |
/// |---|---|---|
/// | every cross send | the framed message: the observation to P1, one weight-sum pair each way, one particle exchange each way | 5 |
/// | `S-intra` | the step's pooled particle set, sized for every PE's share by the first PE to merge | 1 |
///
/// Nothing for a firing's input list or its outputs: the observation,
/// the sums, the surplus particles and the local trigger go into
/// output slots the lowered firings keep. Nothing for reading an
/// input, which every stage decodes straight from the bytes. Nothing
/// for `E/U`'s predict and update, which work on the PE's particle
/// store in place; nothing for `S-local`'s weight sums and allocation,
/// which it keeps, for the exchange plan or the draw, which are
/// iterators, or for the kept draws, a buffer the PE's store keeps;
/// nothing for `S-intra`'s merge, which refills the store's particles
/// and uniform weights in place.
const ALLOCS_PER_ITERATION: u64 = 5 + 1;

#[test]
fn particle_filter_actors_allocate_only_messages_and_the_pooled_set() {
    let app = PrognosisApp::new(PrognosisConfig {
        n_pes: 2,
        particles: 300,
        steps: ITERATIONS as usize,
        ..PrognosisConfig::default()
    })
    .expect("valid configuration");
    // The estimate and pool logs grow by doubling; give them room up
    // front so their growth stays out of the windows.
    let room = ITERATIONS as usize;
    app.estimates.lock().expect("estimates").reserve(room);
    app.pooled_particles.lock().expect("pool").reserve(room);
    let sys = app.system(ITERATIONS).expect("application 2 lowers");
    let (specs, mut programs) = sys.into_parts();
    let fired = programs[0]
        .ops
        .iter_mut()
        .find_map(|op| match op {
            Op::Compute { label, work } if label.starts_with("fire:obs#") => Some(work),
            _ => None,
        })
        .expect("the observation source fires on P0");
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
    assert_eq!(
        app.estimates.lock().expect("estimates").len() as u64,
        ITERATIONS
    );

    let [at_200, at_300, at_400] = [0, 1, 2].map(|i| MARKS[i].load(Ordering::Relaxed));
    println!(
        "per iteration: {} and {} allocations",
        (at_300 - at_200) as f64 / 100.0,
        (at_400 - at_300) as f64 / 100.0
    );
    assert_eq!(at_300 - at_200, 100 * ALLOCS_PER_ITERATION);
    assert_eq!(at_400 - at_300, 100 * ALLOCS_PER_ITERATION);
}
