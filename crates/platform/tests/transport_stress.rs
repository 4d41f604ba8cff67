//! Stress tests for the transport layer, written to be run under
//! ThreadSanitizer (see `scripts/tsan.sh` and the CI `tsan` job) as well
//! as in the normal suite. They hammer the lock-free ring's claim /
//! publish / consume protocol and the park–unpark backpressure path with
//! enough volume that an ordering bug has a realistic chance to surface,
//! while still finishing in a few seconds without instrumentation.
//!
//! `SPI_STRESS_ITERS` scales the per-test message count (default
//! 20 000); the sanitizer script raises it since TSan's interleaving
//! exploration benefits from more traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use spi_platform::{
    ChannelId, ChannelSpec, LockedTransport, Op, Program, RingTransport, ThreadedRunner, Transport,
    TransportKind,
};

fn iters() -> u64 {
    std::env::var("SPI_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// Deterministic payload for message `i`: length varies over the full
/// 0..=max range (zero-length included), bytes derive from the index.
fn payload(i: u64, max: usize) -> Vec<u8> {
    let len = (i as usize).wrapping_mul(7) % (max + 1);
    (0..len).map(|b| (i as u8).wrapping_add(b as u8)).collect()
}

/// One producer, one consumer, a ring so small that both sides block
/// constantly — the worst case for the park/unpark handshake.
#[test]
fn ring_spsc_survives_constant_backpressure() {
    let n = iters();
    let ring = RingTransport::new(16, 8); // 2 slots of 8 bytes
    thread::scope(|s| {
        s.spawn(|| {
            for i in 0..n {
                ring.send(&payload(i, 8), TIMEOUT).expect("send");
            }
        });
        s.spawn(|| {
            for i in 0..n {
                let got = ring.recv(TIMEOUT).expect("recv");
                assert_eq!(got, payload(i, 8), "message {i} corrupted");
            }
        });
    });
    assert!(ring.try_recv().is_err(), "ring drained");
}

/// The in-place path: payloads are written into and read out of the ring
/// slot directly, so TSan watches the raw slot bytes themselves.
#[test]
fn ring_in_place_path_is_race_free() {
    let n = iters();
    let ring = RingTransport::new(24, 8); // 3 slots
    let checksum = AtomicU64::new(0);
    thread::scope(|s| {
        s.spawn(|| {
            for i in 0..n {
                let data = payload(i, 8);
                ring.send_with(data.len(), &mut |slot| slot.copy_from_slice(&data), TIMEOUT)
                    .expect("send_with");
            }
        });
        s.spawn(|| {
            for _ in 0..n {
                ring.recv_with(
                    &mut |bytes| {
                        let sum: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
                        checksum.fetch_add(sum, Ordering::Relaxed);
                    },
                    TIMEOUT,
                )
                .expect("recv_with");
            }
        });
    });
    let expected: u64 = (0..n).flat_map(|i| payload(i, 8)).map(u64::from).sum();
    assert_eq!(checksum.load(Ordering::Relaxed), expected);
}

/// Two rings in opposite directions, strict request/response — every
/// message alternates which side parks, so wake-ups must never be lost.
#[test]
fn ring_pingpong_never_loses_a_wakeup() {
    let n = iters() / 4; // round trips are 2 messages each
    let req = RingTransport::new(8, 8); // 1 slot: strict alternation
    let rsp = RingTransport::new(8, 8);
    thread::scope(|s| {
        s.spawn(|| {
            for i in 0..n {
                req.send(&(i as u32).to_le_bytes(), TIMEOUT).expect("req");
                let echo = rsp.recv(TIMEOUT).expect("rsp");
                assert_eq!(echo, (i as u32).wrapping_mul(3).to_le_bytes());
            }
        });
        s.spawn(|| {
            for _ in 0..n {
                let got = req.recv(TIMEOUT).expect("req");
                let v = u32::from_le_bytes(got.try_into().expect("4 bytes"));
                rsp.send(&v.wrapping_mul(3).to_le_bytes(), TIMEOUT)
                    .expect("rsp");
            }
        });
    });
}

/// The locked reference transport under the same load — keeps the
/// sanitizer honest about the baseline too.
#[test]
fn locked_transport_survives_constant_backpressure() {
    let n = iters();
    let q = LockedTransport::new(16, 8);
    thread::scope(|s| {
        s.spawn(|| {
            for i in 0..n {
                q.send(&payload(i, 8), TIMEOUT).expect("send");
            }
        });
        s.spawn(|| {
            for i in 0..n {
                let got = q.recv(TIMEOUT).expect("recv");
                assert_eq!(got, payload(i, 8), "message {i} corrupted");
            }
        });
    });
}

/// Full executor stack: a 4-stage pipeline on tight channels, run under
/// every transport, with the stage stores checked for the exact fold.
#[test]
fn runner_pipeline_stress_under_all_transports() {
    let n = (iters() / 10).max(100);
    for kind in [
        TransportKind::Locked,
        TransportKind::Ring,
        TransportKind::Pointer,
    ] {
        let channels: Vec<ChannelSpec> = (0..3)
            .map(|_| ChannelSpec {
                capacity_bytes: 8,
                max_message_bytes: 4,
            })
            .collect();
        let mut programs = vec![Program::new(
            vec![Op::Send {
                channel: ChannelId(0),
                payload: Box::new(|l| (l.iter as u32).to_le_bytes().to_vec()),
            }],
            n,
        )];
        for pe in 1..4 {
            let input = ChannelId(pe - 1);
            let mut ops = vec![
                Op::Recv { channel: input },
                Op::Compute {
                    label: format!("stage{pe}"),
                    work: Box::new(move |l| {
                        let v = l.take_from(input).expect("message");
                        let x = u32::from_le_bytes(v.try_into().expect("4 bytes")).wrapping_add(1);
                        l.store.insert("fwd".into(), x.to_le_bytes().to_vec());
                        l.store.insert("last".into(), x.to_le_bytes().to_vec());
                        0
                    }),
                },
            ];
            if pe != 3 {
                ops.push(Op::Send {
                    channel: ChannelId(pe),
                    payload: Box::new(|l| l.store.get("fwd").cloned().expect("staged")),
                });
            }
            programs.push(Program::new(ops, n));
        }
        let results = ThreadedRunner::new()
            .transport(kind)
            .timeout(TIMEOUT)
            .run(&channels, programs)
            .expect("pipeline run");
        let last = u32::from_le_bytes(
            results[3].store["last"]
                .clone()
                .try_into()
                .expect("4 bytes"),
        );
        // Final stage saw iteration n-1 incremented once per stage.
        assert_eq!(u64::from(last), (n - 1) + 3, "{kind:?}");
    }
}
