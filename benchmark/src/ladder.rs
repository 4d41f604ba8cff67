//! The single-thread ladder: what each layer's public calls cost with
//! nothing else running — no peer thread, no blocking, no scheduler.
//!
//! Each rung is the median ns/op over [`BATCHES`] timed batches, with
//! allocations/op counted exactly on one further batch. The rungs are
//! what `ledger.unexplained_share` subtracts from a workload's measured
//! per-iteration time: whatever the ladder cannot account for is
//! reported, not hidden.

use std::hint::black_box;
use std::time::Instant;

use spi_apps::speech::{autocorr_via_fft, solve_normal_equations, synth_frame};
use spi_dataflow::EdgeId;
use spi_dsp::lpc::prediction_error_range;
use spi_net::loopback_with;
use spi_platform::{
    decode_frame, encode_frame_into, BufferPool, LockedTransport, PeId, PointerTransport,
    ProbeKind, RingTransport, Tracer, Transport,
};
use spi_trace::RingTracer;

use crate::alloc::Counting;
use crate::fir::{self, EDGE_SLOTS, FRAME_BYTES};
use crate::stats;
use crate::workload::{layer, Layer, TIMEOUT};

const BATCHES: usize = 9;

/// `(median ns/op, allocations/op)` of `op`, run `ops` times per batch.
fn rung(ops: u64, mut op: impl FnMut()) -> (f64, f64) {
    let mut batch = |ops: u64| {
        let start = Instant::now();
        for _ in 0..ops {
            op();
        }
        start.elapsed().as_nanos() as f64 / ops as f64
    };
    batch(ops / 4 + 1); // warm caches and lazy state
    let timed: Vec<f64> = (0..BATCHES).map(|_| batch(ops)).collect();
    let counting = Counting::start();
    batch(ops);
    let (allocs, _) = counting.stop();
    (stats::median(&timed), allocs as f64 / ops as f64)
}

/// The four transport calls one `fir2k` frame makes — frame in place,
/// receive a token, forward the token, receive it — on one thread, so
/// none of them ever blocks.
fn frame_chain(e1: &dyn Transport, e2: &dyn Transport, template: &[u8]) {
    e1.send_in_place(
        FRAME_BYTES,
        &mut |buf| {
            buf[..FRAME_BYTES].copy_from_slice(template);
            FRAME_BYTES
        },
        TIMEOUT,
    )
    .expect("ladder send_in_place");
    let tok = e1.recv_token(TIMEOUT).expect("ladder recv_token");
    e2.send_token(tok, TIMEOUT).expect("ladder send_token");
    let tok = e2.recv_token(TIMEOUT).expect("ladder recv_token");
    black_box(tok[FRAME_BYTES - 1]);
}

/// Climbs every rung once. `calib` is the host calibration kernel's
/// timings taken across the run.
pub fn climb(seed: u64, calib: &[f64]) -> Vec<Layer> {
    let mut out = Vec::new();
    let mut push = |name, value, unit| out.push(layer(name, value, unit));
    let capacity = EDGE_SLOTS * FRAME_BYTES;
    let template: Vec<u8> = (0..FRAME_BYTES).map(|i| (i as u64 ^ seed) as u8).collect();

    // --- spi-platform: transports -----------------------------------
    let ring8 = RingTransport::new(16 * 8, 8);
    let (ns, allocs) = rung(200_000, || {
        ring8.send(&template[..8], TIMEOUT).expect("ladder send");
        black_box(ring8.recv_token(TIMEOUT).expect("ladder recv"));
    });
    push("platform.transport.ring_op_ns.8B", ns, "ns");
    push("platform.transport.ring_op_allocs.8B", allocs, "count");

    let (a, b) = (
        RingTransport::new(capacity, FRAME_BYTES),
        RingTransport::new(capacity, FRAME_BYTES),
    );
    let (ns, allocs) = rung(20_000, || frame_chain(&a, &b, &template));
    push("platform.transport.ring_frame_ns.2k", ns, "ns");
    push("platform.transport.ring_frame_allocs.2k", allocs, "count");

    let a = PointerTransport::new(2 * capacity, FRAME_BYTES);
    let b = PointerTransport::with_pool(a.buffer_pool().clone());
    let (ns, allocs) = rung(20_000, || frame_chain(&a, &b, &template));
    push("platform.transport.pointer_frame_ns.2k", ns, "ns");
    push(
        "platform.transport.pointer_frame_allocs.2k",
        allocs,
        "count",
    );

    let (a, b) = (
        LockedTransport::new(capacity, FRAME_BYTES),
        LockedTransport::new(capacity, FRAME_BYTES),
    );
    let (ns, allocs) = rung(20_000, || frame_chain(&a, &b, &template));
    push("platform.transport.locked_frame_ns.2k", ns, "ns");
    push("platform.transport.locked_frame_allocs.2k", allocs, "count");

    let pool = BufferPool::new(EDGE_SLOTS, FRAME_BYTES);
    let (ns, _) = rung(200_000, || {
        drop(black_box(pool.acquire(TIMEOUT).expect("ladder lease")))
    });
    push("platform.pool.lease_ns", ns, "ns");

    // --- spi-net: the socket edge -----------------------------------
    // A record reaches the wire when its batch fills, so the rung moves
    // one full batch per op down the same four calls and divides.
    let (spec, batch) = (fir::edge_spec(), fir::net_batch());
    let per_op = batch.max_msgs as u64;
    let (tx1, rx1) = loopback_with(&spec, batch).expect("ladder socketpair");
    let (tx2, rx2) = loopback_with(&spec, batch).expect("ladder socketpair");
    let (ns, allocs) = rung(200, || {
        for _ in 0..per_op {
            tx1.send_in_place(
                FRAME_BYTES,
                &mut |buf| {
                    buf[..FRAME_BYTES].copy_from_slice(&template);
                    FRAME_BYTES
                },
                TIMEOUT,
            )
            .expect("ladder net send");
        }
        for _ in 0..per_op {
            let tok = rx1.recv_token(TIMEOUT).expect("ladder net recv");
            tx2.send_token(tok, TIMEOUT).expect("ladder net forward");
        }
        for _ in 0..per_op {
            black_box(rx2.recv_token(TIMEOUT).expect("ladder net recv"));
        }
    });
    push("net.transport.frame_ns.2k", ns / per_op as f64, "ns");
    push(
        "net.transport.frame_allocs.2k",
        allocs / per_op as f64,
        "count",
    );
    drop((tx1, rx1, tx2, rx2));

    // --- spi: message framing ---------------------------------------
    let payload = &template[..FRAME_BYTES - 8];
    let mut buf = vec![0u8; FRAME_BYTES];
    let (ns, _) = rung(200_000, || {
        let n = spi::encode_static_into(EdgeId(3), black_box(payload), &mut buf)
            .expect("static encode");
        black_box(
            spi::decode_static_borrowed(&buf[..n], EdgeId(3), payload.len())
                .expect("static decode"),
        );
    });
    push("spi.message.static_codec_ns.2k", ns, "ns");
    let (ns, _) = rung(200_000, || {
        let n = spi::encode_dynamic_into(EdgeId(3), black_box(payload), &mut buf)
            .expect("dynamic encode");
        black_box(
            spi::decode_dynamic_borrowed(&buf[..n], EdgeId(3), payload.len())
                .expect("dynamic decode"),
        );
    });
    push("spi.message.dynamic_codec_ns.2k", ns, "ns");

    // --- spi-platform: supervision framing --------------------------
    let mut frame = Vec::with_capacity(FRAME_BYTES + 8);
    for (name, len, ops) in [
        ("platform.supervise.frame_codec_ns.8B", 8, 500_000),
        ("platform.supervise.frame_codec_ns.2k", FRAME_BYTES, 50_000),
    ] {
        let mut seq = 0u32;
        let (ns, _) = rung(ops, || {
            seq = seq.wrapping_add(1);
            encode_frame_into(&mut frame, seq, black_box(&template[..len]));
            black_box(decode_frame(&frame).expect("frame decodes"));
        });
        push(name, ns, "ns");
    }

    // --- spi-trace: one probe event ---------------------------------
    const EVENTS: u64 = 200_000;
    let tracer = RingTracer::new(1, EVENTS as usize + 1);
    let mut left = 0u64;
    let (ns, _) = rung(EVENTS, || {
        if left == 0 {
            tracer.reset();
            left = EVENTS;
        }
        left -= 1;
        tracer.record(PeId(0), tracer.now(), ProbeKind::FiringBegin { label: 0 });
    });
    push("trace.capture.record_ns", ns, "ns");

    // --- the benchmark's own kernel ---------------------------------
    let mut work = template.clone();
    let (ns, _) = rung(20_000, || fir::filter_in_place(black_box(&mut work)));
    push("bench.filter_ns.2k", ns, "ns");

    // --- spi-dsp, over application 1's run-time frame lengths and
    // orders (`vary_rates`), so the four rungs add up to one average
    // iteration of `app1_lpc` / `des_app1` -----------------------------
    const ITERS: u64 = 64;
    let dims: Vec<(usize, usize)> = (0..ITERS).map(crate::app1::iteration_dims).collect();
    let frames: Vec<Vec<f64>> = dims
        .iter()
        .zip(0..)
        .map(|(d, i)| synth_frame(seed, i, d.0))
        .collect();
    let lags: Vec<Vec<f64>> = frames
        .iter()
        .zip(&dims)
        .map(|(f, d)| autocorr_via_fft(f, d.1))
        .collect();
    let coeffs: Vec<Vec<f64>> = lags
        .iter()
        .zip(&dims)
        .map(|(r, d)| solve_normal_equations(r, d.1))
        .collect();
    let mut i = 0usize;
    let mut next = move || {
        i = (i + 1) % ITERS as usize;
        i
    };
    let (ns, _) = rung(10 * ITERS, || {
        let i = next();
        black_box(synth_frame(seed, i as u64, dims[i].0));
    });
    push("dsp.synth_frame_ns.app1", ns, "ns");
    let (ns, _) = rung(10 * ITERS, || {
        let i = next();
        black_box(autocorr_via_fft(&frames[i], dims[i].1));
    });
    push("dsp.autocorr_fft_ns.app1", ns, "ns");
    let (ns, _) = rung(100 * ITERS, || {
        let i = next();
        black_box(solve_normal_equations(&lags[i], dims[i].1));
    });
    push("dsp.normal_eq_ns.app1", ns, "ns");
    let (ns, _) = rung(10 * ITERS, || {
        let i = next();
        black_box(prediction_error_range(
            &frames[i],
            &coeffs[i],
            0,
            frames[i].len(),
        ));
    });
    push("dsp.prediction_error_ns.app1", ns, "ns");

    // --- the host itself --------------------------------------------
    let sorted = stats::sorted(calib);
    let mid = stats::median(calib);
    push("host.calib_ns", mid, "ns");
    let spread = match (sorted.first(), sorted.last()) {
        (Some(lo), Some(hi)) if mid > 0.0 => (hi - lo) / mid,
        _ => 0.0,
    };
    push("host.calib_spread", spread, "ratio");
    out
}

/// The value of rung `name`, 0 if the ladder has no such rung.
pub fn get(ladder: &[Layer], name: &str) -> f64 {
    ladder
        .iter()
        .find(|l| l.name == name)
        .map_or(0.0, |l| l.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_counts_allocations_per_op_exactly() {
        let _serial = crate::alloc::SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Concurrent tests may allocate during the counted batch; the
        // exact figure must be reachable in a quiet window.
        let exact = (0..50).any(|_| {
            let (ns, allocs) = rung(1_000, || drop(black_box(vec![0u8; 64])));
            ns > 0.0 && allocs == 1.0
        });
        assert!(exact);
        let none = (0..50).any(|_| {
            rung(1_000, || {
                black_box(3u64);
            })
            .1 == 0.0
        });
        assert!(none);
    }
}
