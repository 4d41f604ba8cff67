//! `fir2k_ring` / `fir2k_pointer` / `fir2k_net`: 2 KiB frames from an
//! I/O processor through one filter PE and back — the shape of the
//! paper's application-1 I/O-processor ↔ PE subsystem, at the ROADMAP's
//! reference frame size.
//!
//! PE0 (the calling thread) frames inputs in place on edge 1
//! (`send_in_place`) and receives results on edge 2 (`recv_token`),
//! checking every one against the reference. PE1 (one spawned thread)
//! receives a token, runs a 16-tap moving average over it **in place**
//! and forwards it (`send_token`). With 16 frames in flight and
//! ≈ 2.5 µs of filter per frame the bottleneck PE never starves, so
//! throughput is 1 / (PE1's per-frame time) and does not depend on
//! whether an idle peer happens to spin or park — the bistability that
//! rules out a zero-compute pipeline as a metric (see the README).
//!
//! It is a closed loop: PE0 sends frame *i + window* only after result
//! *i* has come back. Window 16 measures throughput, window 1 latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_net::{loopback_with, BatchParams};
use spi_platform::{
    BufferPool, ChannelSpec, PointerTransport, RingTransport, Token, Transport, TransportError,
};

use crate::host::{Pin, TaskSample, Usage};
use crate::spans::{self, Kind, PeTrace};
use crate::stats;
use crate::workload::{
    cost_layers, layer, repeat_for, sample_for, splitmix64, time_builds, Calibration, EdgeKind,
    Layer, Round, Workload, TIMEOUT,
};

pub const FRAME_BYTES: usize = 2048;
/// The first 8 bytes carry the frame's sequence number and pass through
/// the filter untouched, so a lost, duplicated or reordered frame is
/// caught even where two inputs are equal.
pub const HEADER_BYTES: usize = 8;
pub const TAPS: usize = 16;
pub const EDGE_SLOTS: usize = 32;
pub const THROUGHPUT_WINDOW: u64 = 16;
/// Distinct input frames per seed.
const TEMPLATES: usize = 64;

pub fn edge_spec() -> ChannelSpec {
    ChannelSpec {
        capacity_bytes: EDGE_SLOTS * FRAME_BYTES,
        max_message_bytes: FRAME_BYTES,
        ..ChannelSpec::default()
    }
}

/// Socket-edge batching as the schedule would lower it for a
/// 32-message credit window — not hand-picked.
pub fn net_batch() -> BatchParams {
    let plan = spi_sched::batch_plan(EDGE_SLOTS as u64, None);
    BatchParams {
        max_msgs: plan.max_msgs as usize,
        flush_after: plan.flush_after,
    }
}

// ---------------------------------------------------------------------
// Inputs, filter, reference
// ---------------------------------------------------------------------

/// PE1's kernel: `y[n] = (x[n] + … + x[n-15]) >> 4` over the `i16`
/// samples after the header, zero history, result in place. Direct form
/// — 16 additions per output over a decoded copy on the stack — so PE1
/// has microseconds of real work per message.
pub fn filter_in_place(frame: &mut [u8]) {
    const SAMPLES: usize = (FRAME_BYTES - HEADER_BYTES) / 2;
    let body = &mut frame[HEADER_BYTES..];
    let mut x = [0i16; TAPS - 1 + SAMPLES];
    for (v, s) in x[TAPS - 1..].iter_mut().zip(body.chunks_exact(2)) {
        *v = i16::from_le_bytes([s[0], s[1]]);
    }
    for (window, out) in x.windows(TAPS).zip(body.chunks_exact_mut(2)) {
        let sum: i32 = window.iter().map(|&v| i32::from(v)).sum();
        out.copy_from_slice(&((sum >> 4) as i16).to_le_bytes());
    }
}

/// The same filter written the obvious way — decoded samples, out of
/// place, ascending — which is what results are checked against.
pub fn filter_reference(frame: &[u8]) -> Vec<u8> {
    let x: Vec<i32> = frame[HEADER_BYTES..]
        .chunks_exact(2)
        .map(|s| i32::from(i16::from_le_bytes([s[0], s[1]])))
        .collect();
    let mut out = frame[..HEADER_BYTES].to_vec();
    for n in 0..x.len() {
        let sum: i32 = x[n.saturating_sub(TAPS - 1)..=n].iter().sum();
        out.extend_from_slice(&((sum >> 4) as i16).to_le_bytes());
    }
    out
}

/// Seeded input frames and their reference outputs. Frame `i` of a
/// segment is template `i % 64` with `i` in its header.
pub struct Inputs {
    templates: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut state = seed ^ 0xF1B2_4C00;
        let templates: Vec<Vec<u8>> = (0..TEMPLATES)
            .map(|_| {
                let mut f = vec![0u8; FRAME_BYTES];
                for s in f[HEADER_BYTES..].chunks_exact_mut(2) {
                    s.copy_from_slice(&(splitmix64(&mut state) as i16).to_le_bytes());
                }
                f
            })
            .collect();
        let expected = templates.iter().map(|t| filter_reference(t)).collect();
        Inputs {
            templates,
            expected,
        }
    }

    fn fill(&self, i: u64, buf: &mut [u8]) {
        buf[..FRAME_BYTES].copy_from_slice(&self.templates[i as usize % TEMPLATES]);
        buf[..HEADER_BYTES].copy_from_slice(&i.to_le_bytes());
    }

    fn verify(&self, i: u64, got: &[u8]) -> bool {
        got.len() == FRAME_BYTES
            && got[..HEADER_BYTES] == i.to_le_bytes()
            && got[HEADER_BYTES..] == self.expected[i as usize % TEMPLATES][HEADER_BYTES..]
    }
}

// ---------------------------------------------------------------------
// Edges
// ---------------------------------------------------------------------

/// The two edges of the loop. In-process transports are one object with
/// both ends; a socket edge is a sender and a receiver.
pub struct Edges {
    e1_tx: Arc<dyn Transport>,
    e1_rx: Arc<dyn Transport>,
    e2_tx: Arc<dyn Transport>,
    e2_rx: Arc<dyn Transport>,
    pool: Option<BufferPool>,
    /// Both ends of each edge are one object in this process (no
    /// helper threads).
    in_process: bool,
}

impl Edges {
    /// Everything between "inputs in hand" and "first frame can be
    /// sent" — what `setup_s` times.
    pub fn build(kind: EdgeKind) -> Edges {
        let spec = edge_spec();
        match kind {
            EdgeKind::Ring => {
                let e1: Arc<dyn Transport> =
                    Arc::new(RingTransport::new(spec.capacity_bytes, FRAME_BYTES));
                let e2: Arc<dyn Transport> =
                    Arc::new(RingTransport::new(spec.capacity_bytes, FRAME_BYTES));
                Edges {
                    e1_tx: e1.clone(),
                    e1_rx: e1,
                    e2_tx: e2.clone(),
                    e2_rx: e2,
                    pool: None,
                    in_process: true,
                }
            }
            EdgeKind::Pointer => {
                // §5.2 forwarding: both edges publish into one slab,
                // sized to the sum of their eq. (2) bounds, so PE1
                // forwards a frame by handing on its descriptor.
                let e1 = PointerTransport::new(2 * spec.capacity_bytes, FRAME_BYTES);
                let pool = e1.buffer_pool().clone();
                let e2 = PointerTransport::with_pool(pool.clone());
                let (e1, e2): (Arc<dyn Transport>, Arc<dyn Transport>) =
                    (Arc::new(e1), Arc::new(e2));
                Edges {
                    e1_tx: e1.clone(),
                    e1_rx: e1,
                    e2_tx: e2.clone(),
                    e2_rx: e2,
                    pool: Some(pool),
                    in_process: true,
                }
            }
            EdgeKind::Net => {
                let batch = net_batch();
                let (tx1, rx1) = loopback_with(&spec, batch).expect("socketpair for edge 1");
                let (tx2, rx2) = loopback_with(&spec, batch).expect("socketpair for edge 2");
                Edges {
                    e1_tx: Arc::new(tx1),
                    e1_rx: Arc::new(rx1),
                    e2_tx: Arc::new(tx2),
                    e2_rx: Arc::new(rx2),
                    pool: None,
                    in_process: false,
                }
            }
        }
    }

    /// eq. (2) storage in bytes: each edge's capacity; a shared slab
    /// counts once.
    pub fn buffer_bytes(&self) -> u64 {
        match &self.pool {
            Some(pool) => (pool.slots() * pool.slot_bytes()) as u64,
            None => (self.e1_tx.capacity_bytes() + self.e2_tx.capacity_bytes()) as u64,
        }
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// How the driver calls into the transport and the kernels: directly
/// (end-to-end rounds) or through spans (traced round). Monomorphized,
/// so the untraced loop carries no trace of the traced one.
trait Probe: Sync {
    /// Receives one token: by polling `try_recv_token` if `poll`, else
    /// through the blocking call.
    fn recv(
        &self,
        pe: usize,
        iter: u64,
        t: &dyn Transport,
        poll: bool,
    ) -> Result<Token, TransportError>;
    fn span<R>(&self, pe: usize, kind: Kind, iter: u64, f: impl FnOnce() -> R) -> R;
    fn sent(&self, pe: usize, bytes: usize);
    fn checkpoint(&self, done: u64, of: u64);
}

/// Polls `t` until a token arrives (or [`TIMEOUT`] passes, checked
/// every few thousand polls so the clock stays out of the loop).
fn poll_token(t: &dyn Transport) -> Result<Token, TransportError> {
    let mut deadline = None;
    loop {
        for _ in 0..4096 {
            match t.try_recv_token() {
                Err(TransportError::Empty) => std::hint::spin_loop(),
                done => return done,
            }
        }
        let now = Instant::now();
        if now > *deadline.get_or_insert(now + TIMEOUT) {
            return Err(TransportError::Timeout {
                after: TIMEOUT,
                idle: TIMEOUT,
            });
        }
    }
}

fn recv_token(t: &dyn Transport, poll: bool) -> Result<Token, TransportError> {
    if poll {
        poll_token(t)
    } else {
        t.recv_token(TIMEOUT)
    }
}

struct Untraced;

impl Probe for Untraced {
    #[inline]
    fn recv(
        &self,
        _: usize,
        _: u64,
        t: &dyn Transport,
        poll: bool,
    ) -> Result<Token, TransportError> {
        recv_token(t, poll)
    }
    #[inline]
    fn span<R>(&self, _: usize, _: Kind, _: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline]
    fn sent(&self, _: usize, _: usize) {}
    #[inline]
    fn checkpoint(&self, _: u64, _: u64) {}
}

/// Spans around every transport call and kernel. A receive tries the
/// non-blocking call first; if that comes back empty, everything until
/// the token arrives is waiting, not transport work.
struct Traced {
    pes: [PeTrace; 2],
    /// `/proc/self/task` walks at 1/8 and 7/8 of the segment, taken by
    /// PE0 while every thread of the workload is alive.
    samples: std::sync::Mutex<Vec<TaskSample>>,
}

impl Probe for Traced {
    fn recv(
        &self,
        pe: usize,
        iter: u64,
        t: &dyn Transport,
        poll: bool,
    ) -> Result<Token, TransportError> {
        let start = spans::now_ns();
        match t.try_recv_token() {
            Ok(tok) => {
                self.pes[pe].record(Kind::Recv, iter, start, spans::now_ns());
                Ok(tok)
            }
            Err(TransportError::Empty) => {
                let r = recv_token(t, poll);
                self.pes[pe].record(Kind::Wait, iter, start, spans::now_ns());
                r
            }
            Err(e) => Err(e),
        }
    }
    fn span<R>(&self, pe: usize, kind: Kind, iter: u64, f: impl FnOnce() -> R) -> R {
        self.pes[pe].span(kind, iter, f)
    }
    fn sent(&self, pe: usize, bytes: usize) {
        self.pes[pe].note_sent(bytes);
    }
    fn checkpoint(&self, done: u64, of: u64) {
        if done == of / 8 || done == of - of / 8 {
            self.samples
                .lock()
                .expect("sample lock")
                .push(TaskSample::take());
        }
    }
}

/// Outcome of one segment of `count` frames.
struct Segment {
    elapsed: Duration,
    verified: u64,
    wrong: u64,
    /// A transport call failed (timeout, closed socket); the segment
    /// stopped there.
    error: Option<String>,
}

/// Runs `count` frames through the loop with `window` in flight. With
/// `latencies`, PE0 also times each frame from the start of writing it
/// to the end of verifying its result.
fn run_segment<P: Probe>(
    edges: &Edges,
    inputs: &Inputs,
    count: u64,
    window: u64,
    probe: &P,
    mut latencies: Option<&mut Vec<f64>>,
) -> Segment {
    let mut seg = Segment {
        elapsed: Duration::ZERO,
        verified: 0,
        wrong: 0,
        error: None,
    };
    let mut started = vec![Instant::now(); window as usize];
    let (io_cpu, pe_cpu) = crate::host::placement();
    // A PE that waits for its peer takes microseconds to be served:
    // whether a blocking receive catches the message inside the
    // transport's spin phase or parks — and then costs the peer a wake-up
    // system call per frame, and the round trip a wake-up through the
    // hypervisor (≈ 20 µs against 3.5 µs of software) — is decided by
    // nanoseconds and flips between runs, in both phases. Each PE has a
    // CPU of its own, so on in-process edges both poll and the figures
    // are the software on the path. A socket edge's helper threads need
    // the CPU a polling PE would burn (a polling PE0 halves
    // `fir2k_net`'s throughput), so there both block, as they must where
    // the PEs share the only CPU.
    let poll = edges.in_process && io_cpu != pe_cpu;
    let start = Instant::now();
    std::thread::scope(|s| {
        let pe1 = s.spawn(move || -> Result<(), TransportError> {
            let _pin = Pin::to(pe_cpu);
            for i in 0..count {
                let mut tok = probe.recv(1, i, edges.e1_rx.as_ref(), poll)?;
                probe.span(1, Kind::Compute, i, || filter_in_place(&mut tok));
                let bytes = tok.len();
                probe.span(1, Kind::Send, i, || edges.e2_tx.send_token(tok, TIMEOUT))?;
                probe.sent(1, bytes);
            }
            Ok(())
        });

        let pe0 = (|| -> Result<(), TransportError> {
            let _pin = Pin::to(io_cpu);
            let (mut sent, mut recvd) = (0u64, 0u64);
            while recvd < count {
                while sent < count && sent - recvd < window {
                    if latencies.is_some() {
                        started[(sent % window) as usize] = Instant::now();
                    }
                    probe.span(0, Kind::Send, sent, || {
                        edges.e1_tx.send_in_place(
                            FRAME_BYTES,
                            &mut |buf| {
                                inputs.fill(sent, buf);
                                FRAME_BYTES
                            },
                            TIMEOUT,
                        )
                    })?;
                    probe.sent(0, FRAME_BYTES);
                    sent += 1;
                }
                let tok = probe.recv(0, recvd, edges.e2_rx.as_ref(), poll)?;
                let ok = probe.span(0, Kind::Compute, recvd, || inputs.verify(recvd, &tok));
                drop(tok);
                if let Some(l) = latencies.as_deref_mut() {
                    l.push(started[(recvd % window) as usize].elapsed().as_secs_f64() * 1e6);
                }
                seg.verified += 1;
                seg.wrong += u64::from(!ok);
                recvd += 1;
                probe.checkpoint(recvd, count);
            }
            Ok(())
        })();
        seg.elapsed = start.elapsed();
        let pe1 = pe1.join().expect("PE1 does not panic");
        if let Err(e) = pe0.and(pe1) {
            seg.error = Some(e.to_string());
        }
    });
    seg
}

fn account(round: &mut Round, name: &str, count: u64, seg: &Segment) {
    round.attempted += count;
    if seg.wrong > 0 {
        round.fail(
            seg.wrong,
            format!("{name}: frames differ from the reference filter output"),
        );
    }
    if let Some(e) = &seg.error {
        round.fail(
            count - seg.verified,
            format!("{name}: transport error: {e}"),
        );
    }
}

/// One end-to-end round: set-up builds, throughput segments at window
/// 16, latency segments at window 1.
pub fn round(kind: EdgeKind, inputs: &Inputs, budget: Duration, quick: bool) -> Round {
    let w = Workload::Fir(kind);
    let (count, lat_count) = w.counts(quick);
    let mut round = Round::default();

    // Helper threads of a socket edge inherit the builder's CPU mask:
    // the edges the segments use are built before the main thread is
    // pinned, so their helpers may run anywhere.
    let edges = Edges::build(kind);
    round.buffer_bytes = edges.buffer_bytes();
    let _pin = Pin::to(crate::host::placement().1);
    time_builds(
        budget.mul_f64(0.10),
        20,
        Calibration::Off,
        &mut round.setup_s,
        || Edges::build(kind),
    );

    let mut rates = Vec::new();
    sample_for(budget.mul_f64(0.60), Calibration::Off, &mut rates, || {
        let seg = run_segment(&edges, inputs, count, THROUGHPUT_WINDOW, &Untraced, None);
        account(&mut round, w.name(), count, &seg);
        seg.error
            .is_none()
            .then(|| count as f64 / seg.elapsed.as_secs_f64())
    });
    let mut latencies = Vec::new();
    sample_for(
        budget.mul_f64(0.30),
        Calibration::Off,
        &mut latencies,
        || {
            let mut lat = Vec::with_capacity(lat_count as usize);
            let seg = run_segment(&edges, inputs, lat_count, 1, &Untraced, Some(&mut lat));
            account(&mut round, w.name(), lat_count, &seg);
            seg.error.is_none().then(|| stats::median(&lat))
        },
    );
    round.iters_per_s = rates;
    round.latency_us = latencies;
    round
}

/// The traced round: one window-16 segment under spans, one untraced
/// segment under the counting allocator, and the window-1 tail.
pub fn traced(
    kind: EdgeKind,
    inputs: &Inputs,
    budget: Duration,
    quick: bool,
    round: &mut Round,
    span_file: &mut Option<crate::json::Value>,
) -> Vec<Layer> {
    let w = Workload::Fir(kind);
    let (count, lat_count) = w.counts(quick);
    let edges = Edges::build(kind);
    let _pin = Pin::to(crate::host::placement().1);

    // Untraced reference segments, interleaved with the traced ones so
    // `trace_overhead_share` compares like with like.
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut last = None;
    let mut usage = Usage::default();
    repeat_for(budget.mul_f64(0.55), || {
        let seg = run_segment(&edges, inputs, count, THROUGHPUT_WINDOW, &Untraced, None);
        account(round, w.name(), count, &seg);
        untraced_s.push(seg.elapsed.as_secs_f64());

        let probe = Traced {
            pes: [PeTrace::default(), PeTrace::default()],
            samples: Default::default(),
        };
        let before = Usage::now();
        let seg = run_segment(&edges, inputs, count, THROUGHPUT_WINDOW, &probe, None);
        usage = Usage::now().since(before);
        account(round, w.name(), count, &seg);
        traced_s.push(seg.elapsed.as_secs_f64());
        last = Some((probe, seg.elapsed));
    });
    let (probe, wall) = last.expect("repeat_for runs at least once");
    let wall_ns = wall.as_nanos() as f64;
    let [pe0, pe1] = &probe.pes;

    // Steady-state allocations, exact, on an untraced segment (spans
    // allocate nothing per call, but the figure should not depend on
    // believing that).
    let counting = crate::alloc::Counting::start();
    let seg = run_segment(&edges, inputs, count, THROUGHPUT_WINDOW, &Untraced, None);
    let (allocs, alloc_bytes) = counting.stop();
    account(round, w.name(), count, &seg);
    if kind == EdgeKind::Pointer {
        // Spawning PE1 allocates a handful of times per segment; per
        // frame the pointer path must allocate nothing.
        round.check(allocs < count / 100, || {
            format!("fir2k_pointer: {allocs} allocations in a {count}-frame steady-state segment, expected none per frame")
        });
    }

    // Exact counts: one message per frame per edge, 2 KiB each.
    let msgs = pe0.msgs_sent.load(std::sync::atomic::Ordering::Relaxed)
        + pe1.msgs_sent.load(std::sync::atomic::Ordering::Relaxed);
    let bytes = pe0.bytes_sent.load(std::sync::atomic::Ordering::Relaxed)
        + pe1.bytes_sent.load(std::sync::atomic::Ordering::Relaxed);
    round.check(
        msgs == 2 * count && bytes == 2 * count * FRAME_BYTES as u64,
        || {
            format!(
                "{}: {msgs} messages / {bytes} bytes traced, closed form is {} / {}",
                w.name(),
                2 * count,
                2 * count * FRAME_BYTES as u64
            )
        },
    );

    // Latency tail at window 1.
    let mut lat = Vec::new();
    repeat_for(budget.mul_f64(0.25), || {
        let seg = run_segment(&edges, inputs, lat_count, 1, &Untraced, Some(&mut lat));
        account(round, w.name(), lat_count, &seg);
    });
    let lat = stats::sorted(&lat);

    let samples = probe.samples.lock().expect("sample lock");
    let (threads_peak, runqueue) = TaskSample::summarize(&samples);

    let share = |pe: &PeTrace, kinds: &[Kind]| {
        kinds.iter().map(|k| pe.ns(*k)).sum::<u64>() as f64 / wall_ns
    };
    let per_iter = |x: u64| x as f64 / count as f64;
    let recv_calls = pe0.calls(Kind::Recv)
        + pe0.calls(Kind::Wait)
        + pe1.calls(Kind::Recv)
        + pe1.calls(Kind::Wait);
    let blocked = pe0.calls(Kind::Wait) + pe1.calls(Kind::Wait);
    let pe1_wait = share(pe1, &[Kind::Wait]);
    if kind != EdgeKind::Net && pe1_wait > 0.05 {
        println!(
            "NOT_SATURATED {}: PE1 waited {:.1} % of the traced segment; throughput is not 1 / (PE1's per-frame time) on this run",
            w.name(),
            pe1_wait * 100.0
        );
    }

    *span_file = Some(spans::to_json(
        w.name(),
        count,
        wall.as_nanos() as u64,
        &[pe0, pe1],
    ));

    let mut out = vec![
        layer("pe0.compute_share", share(pe0, &[Kind::Compute]), "ratio"),
        layer(
            "pe0.transport_share",
            share(pe0, &[Kind::Send, Kind::Recv]),
            "ratio",
        ),
        layer("pe0.wait_share", share(pe0, &[Kind::Wait]), "ratio"),
        layer("pe1.compute_share", share(pe1, &[Kind::Compute]), "ratio"),
        layer(
            "pe1.transport_share",
            share(pe1, &[Kind::Send, Kind::Recv]),
            "ratio",
        ),
        layer("pe1.wait_share", pe1_wait, "ratio"),
        layer("transport.send_ns_p50", pe1.p50_ns(Kind::Send), "ns"),
        layer("transport.recv_ns_p50", pe1.p50_ns(Kind::Recv), "ns"),
        layer(
            "transport.blocked_calls_share",
            blocked as f64 / recv_calls.max(1) as f64,
            "ratio",
        ),
        layer(
            "spi.actor_ns_per_iter",
            per_iter(pe0.ns(Kind::Compute) + pe1.ns(Kind::Compute)),
            "ns",
        ),
        layer("msgs_per_iter", per_iter(msgs), "count"),
        layer("payload_bytes_per_iter", per_iter(bytes), "B"),
        layer("threads_peak", threads_peak as f64, "count"),
        layer("runqueue_wait_share", runqueue, "ratio"),
        layer(
            "trace_overhead_share",
            stats::median(&traced_s) / stats::median(&untraced_s) - 1.0,
            "ratio",
        ),
        layer(
            "iter_ns",
            stats::median(&untraced_s) * 1e9 / count as f64,
            "ns",
        ),
        // A tail percentile needs ten samples beyond it to be a figure.
        layer(
            "latency_p99_us",
            if lat.len() >= 1_000 {
                stats::percentile_sorted(&lat, 99.0)
            } else {
                0.0
            },
            "us",
        ),
        layer(
            "latency_p999_us",
            if lat.len() >= 10_000 {
                stats::percentile_sorted(&lat, 99.9)
            } else {
                0.0
            },
            "us",
        ),
        layer("latency_samples", lat.len() as f64, "count"),
    ];
    out.extend(cost_layers(count, (allocs, alloc_bytes), usage));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_place_filter_equals_the_reference_on_seeded_and_extreme_frames() {
        let inputs = Inputs::generate(7);
        let mut frames = inputs.templates.clone();
        // Saturated samples exercise the running sum's range.
        for extreme in [i16::MAX, i16::MIN] {
            let mut f = vec![0u8; FRAME_BYTES];
            for s in f[HEADER_BYTES..].chunks_exact_mut(2) {
                s.copy_from_slice(&extreme.to_le_bytes());
            }
            frames.push(f);
        }
        for f in &frames {
            let mut got = f.clone();
            filter_in_place(&mut got);
            assert_eq!(got, filter_reference(f));
        }
    }

    #[test]
    fn same_seed_same_inputs_and_verify_rejects_wrong_frames() {
        let (a, b, c) = (
            Inputs::generate(1),
            Inputs::generate(1),
            Inputs::generate(2),
        );
        assert_eq!(a.templates, b.templates);
        assert_ne!(a.templates, c.templates);

        let mut buf = vec![0u8; FRAME_BYTES];
        a.fill(70, &mut buf);
        filter_in_place(&mut buf);
        assert!(a.verify(70, &buf));
        assert!(!a.verify(71, &buf), "sequence number is checked");
        buf[FRAME_BYTES - 1] ^= 1;
        assert!(!a.verify(70, &buf), "payload is checked");
        assert!(!a.verify(70, &buf[..100]), "length is checked");
    }

    #[test]
    fn every_edge_kind_carries_a_segment_correctly() {
        let inputs = Inputs::generate(3);
        for kind in [EdgeKind::Ring, EdgeKind::Pointer, EdgeKind::Net] {
            let edges = Edges::build(kind);
            assert_eq!(
                edges.buffer_bytes(),
                2 * (EDGE_SLOTS * FRAME_BYTES) as u64,
                "{kind:?}"
            );
            for window in [1, THROUGHPUT_WINDOW] {
                let mut lat = Vec::new();
                let seg = run_segment(&edges, &inputs, 300, window, &Untraced, Some(&mut lat));
                assert_eq!(seg.error, None, "{kind:?}");
                assert_eq!(
                    (seg.verified, seg.wrong, lat.len()),
                    (300, 0, 300),
                    "{kind:?}"
                );
            }
        }
    }
}
