//! Steady-state allocation profile of application 1's error stage on
//! the discrete-event simulator: the actors' own work — the frame
//! analysis, decoding sections and coefficients, the prediction error,
//! the residual energy — allocates nothing once the system is built,
//! and the actors write their outputs into slots the lowered firings
//! keep, so an iteration costs only the framed messages each error
//! PE's transfers carry.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is per-binary, and a sibling test allocating concurrently
//! would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spi_apps::{ErrorStageApp, ErrorStageConfig};
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

/// Allocator calls so far, sampled as `io_send0` begins iterations
/// 200, 300 and 400. The first 200 iterations are left out: a frame
/// length met for the first time in the process may build a tone table
/// or an FFT plan, and the data plane's buffers grow to the largest
/// message so far. Both transform sizes (1024 and 512 points) are met
/// by iteration 1, but the tone table of 256-sample frames is built at
/// iteration 175, where a frame of exactly 256 samples first comes.
static MARKS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

const PES: u64 = 2;
const ITERATIONS: u64 = 410;

/// What one iteration allocates at two error PEs, line by line. P0
/// hosts every `io_send_i` and `io_recv_i`, P(1 + i) hosts `D_i`.
///
/// | per error PE | allocation | count |
/// |---|---|---|
/// | every cross send | the framed message (`message::encode`): section, coefficients, errors | 3 |
///
/// Nothing for a firing's input list or its outputs: `io_send_i` writes
/// the section and the order and coefficients, and `D_i` the error
/// values, into output slots the lowered firing keeps, grown by the
/// longest frame so far. Nothing outside the firings: the DES wakes a
/// blocked PE from one stack it keeps for the run. Nothing for the
/// frame analysis (synthesis, autocorrelation, normal equations), which
/// is refilled in place in buffers the first firing sized for the
/// longest frame; nothing for decoding a section or coefficients, or
/// for the errors, which `D_i` computes into buffers it keeps; nothing
/// for the residual energy, summed straight from the bytes.
const ALLOCS_PER_ITERATION: u64 = PES * 3;

#[test]
fn error_stage_actors_allocate_only_their_outputs() {
    let app = ErrorStageApp::new(ErrorStageConfig {
        n_pes: PES as usize,
        frame: 512,
        order: 10,
        vary_rates: true,
        seed: 5,
    })
    .expect("valid configuration");
    // The residual log grows by doubling; give it room up front so its
    // growth stays out of the windows.
    app.residual_energy
        .lock()
        .expect("residuals")
        .reserve(ITERATIONS as usize);
    let sys = app.system(ITERATIONS).expect("application 1 lowers");
    let (specs, mut programs) = sys.into_parts();
    let fired = programs[0]
        .ops
        .iter_mut()
        .find_map(|op| match op {
            Op::Compute { label, work } if label.starts_with("fire:io_send0") => Some(work),
            _ => None,
        })
        .expect("io_send0 fires on P0");
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
        app.residual_energy.lock().expect("residuals").len() as u64,
        ITERATIONS
    );

    let [at_200, at_300, at_400] = [0, 1, 2].map(|i| MARKS[i].load(Ordering::Relaxed));
    assert_eq!(at_300 - at_200, 100 * ALLOCS_PER_ITERATION);
    assert_eq!(at_400 - at_300, 100 * ALLOCS_PER_ITERATION);
}
