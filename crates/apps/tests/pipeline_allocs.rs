//! Steady-state allocation profile of application 1's figure-2
//! pipeline (A → B → C → D × n → E) on the discrete-event simulator:
//! every actor keeps its working buffers between firings and writes its
//! outputs into slots the lowered firings keep, so an iteration costs
//! the framed messages and what E keeps in each `CompressedFrame`.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is per-binary, and a sibling test allocating concurrently
//! would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spi_apps::{ErrorStageConfig, SpeechApp};
use spi_dsp::huffman::HuffmanCode;
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

/// Allocator calls so far, sampled as actor A begins iterations 200,
/// 300 and 400: each window holds 100 whole iterations, every firing of
/// every PE included.
static MARKS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

const ITERATIONS: u64 = 410;

/// What one iteration allocates at the default configuration's two
/// error PEs, line by line, besides E's Huffman code. P0 hosts A, B,
/// C and E, P(1 + i) hosts `D_i`.
///
/// | actor | allocation | count |
/// |---|---|---|
/// | E | the frame's coefficients | 1 |
/// | every cross send | the framed message: two sections, two coefficients, two errors | 6 |
///
/// Nothing for a firing's input list or its outputs: A's frame and
/// sections, B's order and lags, C's order and coefficients (written
/// once into each of its three slots) and `D_i`'s error values go
/// into output slots the lowered firings keep. Nothing for A's frame,
/// B's frame and lags, C's lags, LU factors and coefficients, `D_i`'s
/// section, coefficients and errors, or E's residual and symbols: each
/// actor keeps them between firings. What else E allocates is the
/// frame's Huffman code and bitstream, which the `CompressedFrame`
/// keeps; how many allocations building a code takes depends on how
/// many distinct symbols the frame has, so the test counts them by
/// building the same code again.
const ALLOCS_PER_ITERATION: u64 = 1 + 6;

#[test]
fn pipeline_actors_allocate_only_their_outputs_and_the_compressed_frame() {
    let app = SpeechApp::new(ErrorStageConfig::default()).expect("valid configuration");
    assert_eq!(app.config().n_pes, 2);
    // The output log grows by doubling; give it room up front so its
    // growth stays out of the windows.
    app.output
        .lock()
        .expect("output")
        .reserve(ITERATIONS as usize);
    let sys = app.system(ITERATIONS).expect("application 1 lowers");
    let (specs, mut programs) = sys.into_parts();
    let fired = programs[0]
        .ops
        .iter_mut()
        .find_map(|op| match op {
            Op::Compute { label, work } if label.starts_with("fire:A:read") => Some(work),
            _ => None,
        })
        .expect("A fires on P0");
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

    // E's Huffman code and bitstream of each frame in a window, built
    // again from the same symbols.
    let frames = app.output.lock().expect("output");
    assert_eq!(frames.len() as u64, ITERATIONS);
    let huffman = |window: std::ops::Range<usize>| -> u64 {
        frames[window]
            .iter()
            .map(|f| {
                let code = f.code.as_ref().expect("a non-silent frame");
                let symbols = code
                    .decode(&f.bits, f.bitlen, f.frame_len)
                    .expect("decodable frame");
                let before = ALLOCS.load(Ordering::Relaxed);
                let again = HuffmanCode::from_symbols(&symbols).expect("code");
                let (bits, _) = again.encode(&symbols).expect("encodable");
                let count = ALLOCS.load(Ordering::Relaxed) - before;
                drop((again, bits));
                count
            })
            .sum()
    };
    let [at_200, at_300, at_400] = [0, 1, 2].map(|i| MARKS[i].load(Ordering::Relaxed));
    let (first, second) = (huffman(200..300), huffman(300..400));
    println!(
        "per iteration: {} and {} allocations, of which Huffman {} and {}",
        (at_300 - at_200) as f64 / 100.0,
        (at_400 - at_300) as f64 / 100.0,
        first as f64 / 100.0,
        second as f64 / 100.0
    );
    assert_eq!(at_300 - at_200, 100 * ALLOCS_PER_ITERATION + first);
    assert_eq!(at_400 - at_300, 100 * ALLOCS_PER_ITERATION + second);
}
