//! Lock-free trace capture: the [`RingTracer`].
//!
//! The capture buffer follows the same discipline as the runtime's
//! `RingTransport`: preallocated storage, atomics for coordination, and
//! zero heap allocation on the hot path. Each PE gets its **own** event
//! buffer, and the writer contract is what makes recording cheap:
//!
//! * only the thread running a PE records that PE's events — the
//!   runner's PE thread, or the DES's one thread — so the PE's own
//!   stream claims a slot with a plain `Relaxed` load and store of its
//!   length, no read-modify-write;
//! * [`ProbeKind::BatchFlush`] is the one exception: a `spi-net`
//!   endpoint's `net-timer` thread, or the thread that drops a sender,
//!   can flush on the PE's behalf. Flushes therefore go to a second
//!   per-PE stream whose claim is a `fetch_add`, so any number of
//!   threads may write it.
//!
//! [`RingTracer::finish`] merges each PE's flush stream into its own
//! stream by timestamp, then merges the PEs once, causally, with
//! [`Trace::linearize`].
//!
//! When a stream fills, further events for it are **dropped and
//! counted**, never blocked on: observability must not perturb the
//! execution it observes beyond its fixed per-event cost. A non-zero
//! [`RingTracer::dropped`] count is carried into the trace metadata so
//! the conformance checker can flag that its verdict covers a partial
//! stream (SPI084).

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use spi_platform::{PeId, ProbeEvent, ProbeKind, Tracer};

use crate::model::{Trace, TraceMeta};

/// Monotonic nanosecond clock for [`Tracer::now`].
///
/// On x86-64 a raw `rdtsc` plus a once-per-process calibration against
/// the OS monotonic clock shaves a vDSO call off every timestamp — the
/// timestamp is the single largest fixed cost of recording an event, so
/// this is worth the few lines — and the calibrated rate is a 32.32
/// fixed-point factor, so scaling ticks to nanoseconds is one integer
/// multiply. Elsewhere it falls back to [`Instant::elapsed`].
struct NsClock {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    epoch: Instant,
    #[cfg(target_arch = "x86_64")]
    tsc_base: u64,
    /// Nanoseconds per tick, scaled by 2^32.
    #[cfg(target_arch = "x86_64")]
    ns_per_tick: u64,
}

#[cfg(target_arch = "x86_64")]
fn tsc_ns_per_tick() -> u64 {
    use std::sync::OnceLock;
    static NS_PER_TICK: OnceLock<u64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        // The TSC rate is a hardware constant (the kernel exposes `tsc`
        // as a clocksource only when it is invariant), so one short
        // calibration spin per process suffices.
        let t0 = Instant::now();
        let c0 = unsafe { core::arch::x86_64::_rdtsc() };
        while t0.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let c1 = unsafe { core::arch::x86_64::_rdtsc() };
        let ticks = c1.wrapping_sub(c0);
        if ticks == 0 {
            // Degenerate TSC (emulator): fall back to 1 ns per tick so
            // now() stays monotonic even if meaningless.
            1 << 32
        } else {
            ((t0.elapsed().as_nanos() << 32) / u128::from(ticks)) as u64
        }
    })
}

impl NsClock {
    fn start() -> Self {
        NsClock {
            epoch: Instant::now(),
            #[cfg(target_arch = "x86_64")]
            tsc_base: unsafe { core::arch::x86_64::_rdtsc() },
            #[cfg(target_arch = "x86_64")]
            ns_per_tick: tsc_ns_per_tick(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            let ticks = unsafe { core::arch::x86_64::_rdtsc() }.wrapping_sub(self.tsc_base);
            ((u128::from(ticks) * u128::from(self.ns_per_tick)) >> 32) as u64
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.epoch.elapsed().as_nanos() as u64
        }
    }
}

/// Default per-PE event capacity (events, not bytes).
pub const DEFAULT_EVENTS_PER_PE: usize = 1 << 16;

/// A captured event without its PE, which is the buffer's: the
/// timestamp and the kind.
type Slot = (u64, ProbeKind);

/// A run of event slots and the count of claims made on them.
struct Stream {
    /// Preallocated, never pre-written slots: a slot is written at most
    /// once per capture (between two [`RingTracer::reset`] calls), by
    /// the thread that claimed it, and only claimed slots are read. An
    /// untouched slot costs address space, not memory.
    slots: Box<[MaybeUninit<UnsafeCell<Slot>>]>,
    /// Number of claims; may run past `slots.len()` when events
    /// overflow (the excess is the stream's drop count).
    len: AtomicUsize,
}

impl Stream {
    fn new(capacity: usize) -> Self {
        Stream {
            slots: Box::new_uninit_slice(capacity),
            len: AtomicUsize::new(0),
        }
    }

    /// Writes an event into claim `idx`, or drops it when the stream is
    /// full (the excess claim stays counted in `len`).
    #[inline]
    fn put(&self, idx: usize, ts: u64, kind: ProbeKind) {
        if let Some(slot) = self.slots.get(idx) {
            // SAFETY: claim `idx` is this writer's alone (see `PeBuffer`),
            // and nothing reads the slot before the capture quiesces.
            unsafe { UnsafeCell::raw_get(slot.as_ptr()).write((ts, kind)) }
        }
    }

    /// Events captured (clamped to capacity) and events dropped.
    fn counts(&self) -> (usize, u64) {
        let n = self.len.load(Ordering::Acquire);
        let kept = n.min(self.slots.len());
        (kept, (n - kept) as u64)
    }

    /// The captured events of PE `pe`, in claim order.
    fn events(&self, pe: PeId) -> impl Iterator<Item = ProbeEvent> + '_ {
        (self.slots[..self.counts().0].iter()).map(move |slot| {
            // SAFETY: every claimed slot below `kept` was written before
            // the capture quiesced (see `PeBuffer`).
            let (ts, kind) = unsafe { *UnsafeCell::raw_get(slot.as_ptr()) };
            ProbeEvent { ts, pe, kind }
        })
    }
}

/// One PE's event buffer: the PE's own stream, written by the one
/// thread running the PE, and its [`ProbeKind::BatchFlush`] stream,
/// written by whichever thread flushes one of the PE's senders.
struct PeBuffer {
    /// Every kind but `BatchFlush`. Claimed with a `Relaxed` load and
    /// store of `len`: one writer at a time, so no read-modify-write.
    own: Stream,
    /// `BatchFlush` only. Claimed with `fetch_add`, so concurrent
    /// writers each get a slot of their own. As long as `own`: every
    /// flush carries at least one message the PE recorded a `Send` for,
    /// so it overflows only after `own` has.
    flushes: Stream,
    /// Set while a thread is inside an own-stream claim and write, so a
    /// debug build panics when two threads overlap there — a broken
    /// writer contract, which the release build's plain claim cannot
    /// survive.
    #[cfg(debug_assertions)]
    writing: std::sync::atomic::AtomicBool,
}

// SAFETY: each slot is written at most once per capture, by the thread
// that claimed its index. A flush slot's claim is a `fetch_add`, so it
// is exclusive among any number of writers. An own slot's claim is a
// plain load and store, which is exclusive because only the thread
// running the PE writes that stream (the writer contract in the module
// docs; debug builds assert it), and a PE that moves to another thread
// between runs does so across a join or a spawn. Slots are read only
// after the capture quiesces (run threads joined and endpoints dropped,
// or the same thread for the DES); the join / program order provides
// the needed happens-before.
unsafe impl Sync for PeBuffer {}

impl PeBuffer {
    fn new(capacity: usize) -> Self {
        PeBuffer {
            own: Stream::new(capacity),
            flushes: Stream::new(capacity),
            #[cfg(debug_assertions)]
            writing: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Events captured and events dropped, over both streams.
    fn counts(&self) -> (usize, u64) {
        let (own, flushes) = (self.own.counts(), self.flushes.counts());
        (own.0 + flushes.0, own.1 + flushes.1)
    }

    /// Both streams as one, each in its own order: by timestamp, the
    /// own event first on a tie.
    fn merged(&self, pe: PeId, out: &mut Vec<ProbeEvent>) {
        let mut flushes = self.flushes.events(pe).peekable();
        for ev in self.own.events(pe) {
            while let Some(f) = flushes.next_if(|f| f.ts < ev.ts) {
                out.push(f);
            }
            out.push(ev);
        }
        out.extend(flushes);
    }
}

/// A lock-free, allocation-free probe sink with per-PE event buffers.
///
/// Construct it once per capture, share it with the engine via
/// `Arc<RingTracer>`, run, then turn the buffers into an owned
/// [`Trace`] with [`RingTracer::finish`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use spi_platform::{PeId, ProbeKind, Tracer};
/// use spi_trace::{ClockKind, RingTracer, TraceMeta};
///
/// let tracer = Arc::new(RingTracer::new(2, 64));
/// let label = tracer.intern("fire:src#0");
/// tracer.record(PeId(0), 5, ProbeKind::FiringBegin { label });
/// tracer.record(PeId(0), 9, ProbeKind::FiringEnd { label });
/// let trace = tracer.finish(TraceMeta::new(ClockKind::Cycles));
/// assert_eq!(trace.events.len(), 2);
/// assert_eq!(trace.meta.label(label), "fire:src#0");
/// ```
pub struct RingTracer {
    clock: NsClock,
    pes: Vec<PeBuffer>,
    /// Interned label table. Locking is fine here: labels are static per
    /// program and interned once, outside the hot loops (the `Tracer`
    /// contract).
    labels: Mutex<Vec<String>>,
    /// Events recorded for PEs beyond the configured PE count.
    out_of_range: AtomicU64,
}

impl RingTracer {
    /// A tracer for up to `pes` processing elements with room for
    /// `events_per_pe` of each PE's own events and as many of its
    /// `BatchFlush` events. The slots are allocated here but not
    /// written: a page is touched by the first event that lands on it.
    pub fn new(pes: usize, events_per_pe: usize) -> Self {
        RingTracer {
            clock: NsClock::start(),
            pes: (0..pes)
                .map(|_| PeBuffer::new(events_per_pe.max(1)))
                .collect(),
            labels: Mutex::new(Vec::new()),
            out_of_range: AtomicU64::new(0),
        }
    }

    /// A tracer for `pes` PEs with the default per-PE capacity.
    pub fn with_default_capacity(pes: usize) -> Self {
        RingTracer::new(pes, DEFAULT_EVENTS_PER_PE)
    }

    /// Total events dropped so far (full streams, own and flush, plus
    /// out-of-range PE ids).
    pub fn dropped(&self) -> u64 {
        let overflow: u64 = self.pes.iter().map(|b| b.counts().1).sum();
        overflow + self.out_of_range.load(Ordering::Relaxed)
    }

    /// Events currently captured across all PEs, both streams.
    pub fn captured(&self) -> usize {
        self.pes.iter().map(|b| b.counts().0).sum()
    }

    /// Clears all buffers and drop counts for reuse (benchmark loops).
    /// Must not be called while a traced run is in flight.
    pub fn reset(&self) {
        for b in &self.pes {
            b.own.len.store(0, Ordering::Release);
            b.flushes.len.store(0, Ordering::Release);
        }
        self.out_of_range.store(0, Ordering::Relaxed);
    }

    /// The label table. A panic while it was held cannot leave it half
    /// written — an intern only pushes one whole label — so a poisoned
    /// lock still guards a valid table.
    fn labels(&self) -> MutexGuard<'_, Vec<String>> {
        self.labels.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the capture into an owned [`Trace`]: each PE's flush
    /// stream merged into its own stream by timestamp (own event first
    /// on a tie), then the PEs merged by [`Trace::linearize`] under
    /// `meta`'s edge bounds, plus
    /// `meta` with the label table and drop count filled in from this
    /// tracer. The caller supplies the rest of the metadata (clock,
    /// edge bounds, predicted makespan) — typically via
    /// `SpiSystem::trace_meta`.
    pub fn finish(&self, mut meta: TraceMeta) -> Trace {
        meta.labels = self.labels().clone();
        meta.dropped += self.dropped();
        let mut events = Vec::with_capacity(self.captured());
        for (pe, b) in self.pes.iter().enumerate() {
            b.merged(PeId(pe), &mut events);
        }
        let mut trace = Trace { meta, events };
        trace.linearize();
        trace
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn intern(&self, label: &str) -> u32 {
        let mut labels = self.labels();
        if let Some(i) = labels.iter().position(|l| l == label) {
            return i as u32;
        }
        labels.push(label.to_string());
        (labels.len() - 1) as u32
    }

    fn record(&self, pe: PeId, ts: u64, kind: ProbeKind) {
        let Some(buf) = self.pes.get(pe.0) else {
            self.out_of_range.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if let ProbeKind::BatchFlush { .. } = kind {
            // Any thread may flush for this PE: claim atomically.
            let idx = buf.flushes.len.fetch_add(1, Ordering::Relaxed);
            buf.flushes.put(idx, ts, kind);
        } else {
            // Only this PE's thread writes its own stream, so a plain
            // load and store claim the slot. Relaxed suffices: the
            // reader synchronizes via thread join (threaded) or program
            // order (DES).
            #[cfg(debug_assertions)]
            assert!(
                !buf.writing.swap(true, Ordering::Acquire),
                "writer contract broken: two threads record PE {}'s own events at once",
                pe.0
            );
            let idx = buf.own.len.load(Ordering::Relaxed);
            buf.own.len.store(idx + 1, Ordering::Relaxed);
            buf.own.put(idx, ts, kind);
            #[cfg(debug_assertions)]
            buf.writing.store(false, Ordering::Release);
        }
    }

    fn now(&self) -> u64 {
        self.clock.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClockKind;
    use std::sync::Arc;

    #[test]
    fn records_each_pe_stream_in_its_own_order() {
        let t = RingTracer::new(2, 8);
        let l = t.intern("fire:a#0");
        // PE 1 events recorded first but timestamped later/equal.
        t.record(PeId(1), 5, ProbeKind::FiringBegin { label: l });
        t.record(PeId(1), 5, ProbeKind::FiringEnd { label: l });
        t.record(PeId(0), 3, ProbeKind::FiringBegin { label: l });
        t.record(PeId(0), 5, ProbeKind::FiringEnd { label: l });
        let ev = t.finish(TraceMeta::new(ClockKind::Cycles)).events;
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].ts, 3);
        // Tie at ts=5: PE 0's stream order is preserved relative to
        // itself and PE 1's Begin stays before its End.
        let pe1: Vec<_> = ev.iter().filter(|e| e.pe == PeId(1)).collect();
        assert!(matches!(pe1[0].kind, ProbeKind::FiringBegin { .. }));
        assert!(matches!(pe1[1].kind, ProbeKind::FiringEnd { .. }));
    }

    fn flush(msgs: u32) -> ProbeKind {
        ProbeKind::BatchFlush {
            channel: spi_platform::ChannelId(0),
            msgs,
            bytes: 8 * msgs,
            reason: spi_platform::FlushReason::Deadline,
        }
    }

    /// The writer contract: the PE's own thread records its events while
    /// a second thread records `BatchFlush` for the same PE. Nothing is
    /// lost, and each stream keeps its own order in the finished trace.
    #[test]
    fn a_second_thread_flushes_while_the_owner_records() {
        const N: u64 = 5_000;
        let t = Arc::new(RingTracer::new(1, N as usize));
        std::thread::scope(|s| {
            let owner = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..N {
                    owner.record(
                        PeId(0),
                        owner.now(),
                        ProbeKind::FiringBegin { label: i as u32 },
                    );
                }
            });
            let timer = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..N {
                    timer.record(PeId(0), timer.now(), flush(i as u32 + 1));
                }
            });
        });
        assert_eq!(t.captured(), 2 * N as usize);
        assert_eq!(t.dropped(), 0);
        let ev = t.finish(TraceMeta::new(ClockKind::Nanos)).events;
        let own: Vec<u32> = (ev.iter())
            .filter_map(|e| match e.kind {
                ProbeKind::FiringBegin { label } => Some(label),
                _ => None,
            })
            .collect();
        let flushes: Vec<u32> = (ev.iter())
            .filter_map(|e| match e.kind {
                ProbeKind::BatchFlush { msgs, .. } => Some(msgs - 1),
                _ => None,
            })
            .collect();
        let in_order: Vec<u32> = (0..N as u32).collect();
        assert_eq!(own, in_order);
        assert_eq!(flushes, in_order);
        assert!(ev.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    /// A debug build catches a second thread inside a PE's own-stream
    /// write, here simulated by the flag that thread would have set.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "writer contract broken")]
    fn overlapping_owner_writes_panic_in_debug_builds() {
        let t = RingTracer::new(1, 4);
        t.pes[0].writing.store(true, Ordering::Relaxed);
        t.record(PeId(0), 0, ProbeKind::FiringBegin { label: 0 });
    }

    /// A flush stamped at the same time as an own event follows it; one
    /// stamped earlier precedes it.
    #[test]
    fn finish_merges_flushes_by_timestamp_own_events_first_on_ties() {
        let t = RingTracer::new(1, 4);
        t.record(PeId(0), 10, ProbeKind::FiringBegin { label: 0 });
        t.record(PeId(0), 20, ProbeKind::FiringEnd { label: 0 });
        t.record(PeId(0), 5, flush(1));
        t.record(PeId(0), 20, flush(2));
        let ev = t.finish(TraceMeta::new(ClockKind::Nanos)).events;
        let order: Vec<(u64, bool)> = (ev.iter())
            .map(|e| (e.ts, matches!(e.kind, ProbeKind::BatchFlush { .. })))
            .collect();
        assert_eq!(order, [(5, true), (10, false), (20, false), (20, true)]);
    }

    /// A full flush stream drops and counts like a full own stream, and
    /// the count reaches the checker as SPI084.
    #[test]
    fn an_overflowing_flush_stream_is_counted_and_fires_spi084() {
        let t = RingTracer::new(1, 2);
        t.record(PeId(0), 0, ProbeKind::FiringBegin { label: 0 });
        for ts in 1..=5 {
            t.record(PeId(0), ts, flush(1));
        }
        assert_eq!(t.captured(), 3);
        assert_eq!(t.dropped(), 3);
        let trace = t.finish(TraceMeta::new(ClockKind::Nanos));
        assert_eq!(trace.meta.dropped, 3);
        assert_eq!(trace.events.len(), 3);
        let report = crate::check(&trace);
        assert!(
            report.diagnostics.iter().any(|d| d.code == "SPI084"),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let t = RingTracer::new(1, 2);
        for ts in 0..5 {
            t.record(PeId(0), ts, ProbeKind::FiringBegin { label: 0 });
        }
        assert_eq!(t.captured(), 2);
        assert_eq!(t.dropped(), 3);
        let trace = t.finish(TraceMeta::new(ClockKind::Cycles));
        assert_eq!(trace.meta.dropped, 3);
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn out_of_range_pe_counts_as_dropped() {
        let t = RingTracer::new(1, 4);
        t.record(PeId(7), 0, ProbeKind::FiringBegin { label: 0 });
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.captured(), 0);
    }

    #[test]
    fn intern_is_idempotent() {
        let t = RingTracer::new(1, 4);
        let a = t.intern("fire:x#0");
        let b = t.intern("fire:y#0");
        assert_ne!(a, b);
        assert_eq!(t.intern("fire:x#0"), a);
    }

    #[test]
    fn reset_clears_for_reuse() {
        let t = RingTracer::new(1, 2);
        t.record(PeId(0), 1, ProbeKind::FiringBegin { label: 0 });
        t.record(PeId(3), 1, ProbeKind::FiringBegin { label: 0 });
        t.reset();
        assert_eq!(t.captured(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn concurrent_per_pe_writers_do_not_interfere() {
        let t = Arc::new(RingTracer::new(4, 1024));
        std::thread::scope(|s| {
            for pe in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        t.record(PeId(pe), i, ProbeKind::FiringBegin { label: pe as u32 });
                    }
                });
            }
        });
        assert_eq!(t.captured(), 4 * 1000);
        assert_eq!(t.dropped(), 0);
        let ev = t.finish(TraceMeta::new(ClockKind::Nanos)).events;
        // Each PE's stream is intact and in its own order.
        for pe in 0..4 {
            let mine: Vec<_> = ev.iter().filter(|e| e.pe == PeId(pe)).collect();
            assert_eq!(mine.len(), 1000);
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(e.ts, i as u64);
            }
        }
    }

    /// The supervised and the unsupervised runner are one op walk over
    /// two ports, so a fault-free run reports the same firings and the
    /// same transfers — payload sizes, digests and *logical*
    /// occupancies — either way. (Block / Unblock events exist only
    /// unsupervised and are left out.) The compute closures meet at a
    /// barrier so that no send races the receive that drains it, which
    /// makes every occupancy snapshot deterministic.
    #[test]
    fn runner_reports_the_same_events_supervised_and_not() {
        use spi_platform::{
            ChannelId, ChannelSpec, Op, Program, SupervisionPolicy, ThreadedRunner, TransportKind,
        };
        use std::sync::Barrier;

        const ITERS: u64 = 5;
        let events_per_pe = |kind: TransportKind, policy: Option<SupervisionPolicy>| {
            let ch = ChannelId(0);
            let meet = Arc::new(Barrier::new(2));
            let wait = |times: usize| -> Op {
                let meet = meet.clone();
                Op::Compute {
                    label: format!("meet x{times}"),
                    work: Box::new(move |_| {
                        for _ in 0..times {
                            meet.wait();
                        }
                        0
                    }),
                }
            };
            let producer = Program::new(
                vec![
                    Op::Send {
                        channel: ch,
                        payload: Box::new(|l| vec![l.iter as u8; 4]),
                    },
                    wait(2), // sent, then drained
                ],
                ITERS,
            );
            let consumer = Program::new(vec![wait(1), Op::Recv { channel: ch }, wait(1)], ITERS);
            let spec = ChannelSpec {
                capacity_bytes: 16,
                max_message_bytes: 4,
            };
            let tracer = Arc::new(RingTracer::new(2, 256));
            let mut runner = ThreadedRunner::new().transport(kind).tracer(tracer.clone());
            if let Some(policy) = policy {
                runner = runner.supervise(policy);
            }
            runner
                .run(&[spec], vec![producer, consumer])
                .expect("clean run");
            assert_eq!(tracer.dropped(), 0);
            let events = tracer.finish(TraceMeta::new(ClockKind::Nanos)).events;
            let of = |pe: usize| -> Vec<ProbeKind> {
                let all = events.iter().filter(move |e| e.pe == PeId(pe));
                let compared = |k: &ProbeKind| {
                    use ProbeKind::{FiringBegin, FiringEnd, Recv, Send};
                    matches!(
                        k,
                        FiringBegin { .. } | FiringEnd { .. } | Send { .. } | Recv { .. }
                    )
                };
                all.map(|e| e.kind).filter(compared).collect()
            };
            [of(0), of(1)]
        };
        for kind in [TransportKind::Locked, TransportKind::Ring] {
            let plain = events_per_pe(kind, None);
            let supervised = events_per_pe(kind, Some(SupervisionPolicy::default()));
            assert_eq!(plain, supervised, "{kind:?}");
            // One transfer and one firing per iteration on the producer,
            // and the send saw exactly its own 4 logical bytes buffered.
            assert_eq!(plain[0].len(), 3 * ITERS as usize, "{kind:?}");
            assert!(plain[0].iter().any(|k| matches!(
                k,
                ProbeKind::Send {
                    bytes: 4,
                    occ_bytes: 4,
                    occ_msgs: 1,
                    ..
                }
            )));
        }
    }

    /// The traced runner stamps a `Send` after its push, so a receiver
    /// that pops first can stamp its `Recv` earlier. `finish` still
    /// emits the send first, with timestamps that never decrease, and
    /// the replay finds nothing to report.
    #[test]
    fn finish_orders_a_recv_stamped_before_its_send() {
        let t = RingTracer::new(2, 8);
        let channel = spi_platform::ChannelId(0);
        let recv = ProbeKind::Recv {
            channel,
            bytes: 4,
            digest: 7,
            occ_bytes: 0,
            occ_msgs: 0,
        };
        let send = ProbeKind::Send {
            channel,
            bytes: 4,
            digest: 7,
            occ_bytes: 4,
            occ_msgs: 1,
        };
        t.record(PeId(1), 100, recv);
        t.record(PeId(0), 130, send);
        let trace = t.finish(TraceMeta::new(ClockKind::Nanos));
        assert!(matches!(trace.events[0].kind, ProbeKind::Send { .. }));
        assert!(matches!(trace.events[1].kind, ProbeKind::Recv { .. }));
        assert!(trace.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        let report = crate::check(&trace);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        assert_eq!(report.hb_edges, 1);
    }

    #[test]
    fn now_is_monotonic() {
        let t = RingTracer::new(1, 4);
        let a = t.now();
        let b = t.now();
        assert!(b >= a);
    }
}
