//! Steady-state allocation profile of the socket edge: once the
//! endpoints exist, a record framed in place on the sender
//! (`send_in_place`) and consumed in place on the receiver
//! (`recv_with`) must touch the global allocator exactly zero times —
//! it is staged in the sender's one buffer, read into the receiver's
//! one buffer, and handed out as a borrowed slice.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is per-binary, and a sibling test allocating concurrently
//! would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use spi_net::{loopback_with, BatchParams};
use spi_platform::{ChannelSpec, Transport};

/// Counts allocation calls; frees are uncounted (a steady state that
/// allocates nothing frees nothing).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// spi-net denies unsafe; this test binary needs it only to delegate to
// the system allocator.
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

const FRAME: usize = 2048;
const T: Duration = Duration::from_secs(5);

/// `rounds` batches of `per_round` frames, each framed in place, then
/// each consumed in place and checked.
fn traffic(tx: &dyn Transport, rx: &dyn Transport, rounds: u32, per_round: u32) {
    for round in 0..rounds {
        for i in 0..per_round {
            tx.send_in_place(
                FRAME,
                &mut |buf| {
                    buf.fill((round + i) as u8);
                    FRAME
                },
                T,
            )
            .expect("send_in_place");
        }
        for i in 0..per_round {
            rx.recv_with(
                &mut |bytes| {
                    assert_eq!(bytes.len(), FRAME);
                    assert!(bytes.iter().all(|&b| b == (round + i) as u8));
                },
                T,
            )
            .expect("recv_with");
        }
    }
}

#[test]
fn a_frame_sent_and_consumed_in_place_allocates_nothing() {
    let spec = ChannelSpec {
        capacity_bytes: 32 * FRAME,
        max_message_bytes: FRAME,
    };
    for max_msgs in [1usize, 16] {
        let batch = BatchParams {
            max_msgs,
            flush_after: Duration::from_micros(200),
        };
        let (tx, rx) = loopback_with(&spec, batch).expect("loopback");
        // Warm-up: the first batch registers with the thread's
        // flush-before-block list, and several windows go round so the
        // sender has read acknowledgements. A record left staged past
        // its deadline sees the net-timer thread through its start-up
        // (a new thread allocates as it comes to life) and a full cycle.
        traffic(&tx, &rx, 8, 16);
        tx.send(&[0u8; FRAME], T).expect("send");
        std::thread::sleep(Duration::from_millis(20));
        rx.recv_with(&mut |_| {}, T).expect("recv");
        let before = ALLOCS.load(Ordering::Relaxed);
        // Partial batches too (12 of 16): they leave by the
        // flush-before-block rule when the receive finds nothing.
        traffic(&tx, &rx, 32, 12);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "batch of {max_msgs}: {allocs} allocations across 384 frames"
        );
    }
}
