//! Steady-state allocation profile of the lowered data plane: what one
//! iteration of a lowered system costs the global allocator on the
//! discrete-event simulator, counted exactly and attributed. The edge
//! queues and staged sends are indexed slots of `PeLocal`, so moving
//! bytes between two ops of a PE must not appear in the count at all.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is per-binary, and a sibling test allocating concurrently
//! would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spi::{Firing, SpiSystemBuilder};
use spi_dataflow::SdfGraph;
use spi_platform::ByteQueue;
use spi_sched::ProcId;

/// Counts allocation calls; frees are uncounted (a steady state that
/// allocates nothing frees nothing).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The spi crate denies unsafe; this test binary needs it only to
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

/// Allocator calls so far, sampled by `a` as iterations 100, 200 and
/// 300 begin.
static MARKS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// What one iteration allocates, line by line. `a` and `d` share P0,
/// `b` is alone on P1; `a -> b` is a dynamic cross edge, `b -> d` a
/// static cross edge, `a -> d` a local edge with one delay token.
///
/// | firing | allocation | count |
/// |---|---|---|
/// | `a` | the framed message for `a -> b` (`message::encode`) | 1 |
/// | `b` | the framed message for `b -> d` | 1 |
///
/// Nothing for a firing's inputs or outputs: each lowered firing keeps
/// its input list (ranges of the edge queues) and one output slot per
/// produced edge, which the actor writes into and the first firing
/// sized for the edge's bound. Nothing for a queue push, take or frame,
/// nothing for a staged send (the framed message *is* the staged
/// buffer, and the `Send` op moves it into the channel), nothing for a
/// received message (decoded borrowed, copied into the queue's own
/// buffer), nothing for waking a blocked PE (the DES keeps one wake-up
/// stack a run).
const ALLOCS_PER_ITERATION: u64 = 2;

#[test]
fn lowered_data_plane_allocates_only_what_is_attributed() {
    let mut g = SdfGraph::new();
    let a = g.add_actor("a", 10);
    let b = g.add_actor("b", 10);
    let d = g.add_actor("d", 10);
    let ab = g.add_dynamic_edge(a, b, 64, 64, 0, 1).unwrap();
    let bd = g.add_edge(b, d, 1, 1, 0, 8).unwrap();
    let ad = g.add_edge(a, d, 1, 1, 1, 4).unwrap();
    let mut builder = SpiSystemBuilder::new(g);
    builder.actor(a, move |ctx: &mut Firing| {
        if let Some(mark) = [100, 200, 300].iter().position(|&i| i == ctx.iter) {
            MARKS[mark].store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        // 1..=64 bytes, a different size every iteration.
        let iter = ctx.iter;
        ctx.output(ab).resize(1 + (iter % 64) as usize, iter as u8);
        ctx.output(ad).extend((iter as u32).to_le_bytes());
        10
    });
    builder.actor(b, move |ctx: &mut Firing| {
        let sum: u64 = ctx.input(ab).iter().map(|&x| u64::from(x)).sum();
        ctx.output(bd).extend(sum.to_le_bytes());
        10
    });
    builder.actor(d, move |ctx: &mut Firing| {
        let sum = u64::from_le_bytes(ctx.input(bd).try_into().expect("8 bytes"));
        let len = 1 + ctx.iter % 64;
        assert_eq!(sum, len * (ctx.iter & 0xFF), "iteration {}", ctx.iter);
        let delayed = u32::from_le_bytes(ctx.input(ad).try_into().expect("4 bytes"));
        assert_eq!(u64::from(delayed), ctx.iter.saturating_sub(1));
        10
    });
    builder.iterations(320);
    let system = builder.build(2, |x| ProcId(usize::from(x == b))).unwrap();
    assert!(
        system.edge_plans().values().all(|p| p.ack_ch.is_none()),
        "no acknowledgement traffic in the count"
    );
    system.run().expect("the run completes");

    let [at_100, at_200, at_300] = [0, 1, 2].map(|i| MARKS[i].load(Ordering::Relaxed));
    assert_eq!(at_200 - at_100, 100 * ALLOCS_PER_ITERATION);
    assert_eq!(at_300 - at_200, 100 * ALLOCS_PER_ITERATION);

    // The queue itself, once its buffer has grown: pushes, takes and
    // the compaction of a queue that never drains allocate nothing.
    let mut q = ByteQueue::default();
    let round = |q: &mut ByteQueue| {
        q.push(&[1; 48]);
        q.push(&[2; 16]);
        assert_eq!(q.take(64).map(<[u8]>::len), Some(64));
    };
    q.push(&[0; 24]);
    (0..8).for_each(|_| round(&mut q));
    let before = ALLOCS.load(Ordering::Relaxed);
    (0..1000).for_each(|_| round(&mut q));
    assert_eq!(ALLOCS.load(Ordering::Relaxed), before);
    assert_eq!(q.pending().len(), 24);
}
