//! Ready-made whole-system scenarios for the deterministic simulator.
//!
//! Every builder constructs its entire object graph *inside* the call,
//! so a scenario closure like `|| fir_pipeline(4, false)` produces the
//! same shim-object numbering — and therefore a byte-identical event
//! log — on every run of the same seed. All of them run the real
//! production stack: [`ThreadedRunner`] worker threads over
//! [`RingTransport`] rings, `spi-fault` decorators, and the `spi-net`
//! framed credit protocol over [`crate::SimStream`] sockets.
//!
//! [`TransportKind::Locked`] is deliberately absent: the locked queue
//! uses raw `std::sync` primitives (by design — it is the
//! uninstrumented baseline), which would block real OS threads
//! invisibly to the scheduler and hang the controller.

use std::sync::Arc;
use std::time::Duration;

use spi_fault::{FaultKind, FaultPlan};
use spi_net::{BatchParams, NetReceiver, NetSender};
use spi_platform::shim;
use spi_platform::{
    BlockKind, ChannelId, ChannelSpec, FlushReason, Op, PeId, PeLocal, PlatformError, ProbeKind,
    Program, RingTransport, SupervisionPolicy, ThreadedRunner, Tracer, Transport, TransportKind,
};

use crate::{sim_socket_pair, sim_stream_pair, SIM_TIMEOUT};

fn byte_spec(capacity_bytes: usize) -> ChannelSpec {
    ChannelSpec {
        capacity_bytes,
        max_message_bytes: 4,
    }
}

/// A 3-PE FIR pipeline over ring channels: a source streams `u32`
/// samples, a filter PE folds a 3-tap moving sum over them, a sink
/// accumulates the filtered stream. With `faulted`, a `spi-fault` plan
/// injects delays and a duplicated token — faults the unsupervised
/// pipeline tolerates (completion is still asserted), but which
/// perturb the schedule and the message stream. (`Corrupt`/`Drop`
/// surface as channel faults without supervision, so they belong to
/// the supervised scenarios, not this one.)
///
/// # Panics
///
/// When the run fails or the sink's final accumulator state is absent.
pub fn fir_pipeline(iterations: u64, faulted: bool) {
    let channels = vec![byte_spec(16), byte_spec(16)];
    let source = Program::new(
        vec![Op::Send {
            channel: ChannelId(0),
            payload: Box::new(|l: &mut PeLocal| (l.iter as u32).to_le_bytes().to_vec()),
        }],
        iterations,
    );
    let filter = Program::new(
        vec![
            Op::Recv {
                channel: ChannelId(0),
            },
            Op::Compute {
                label: "fir3".into(),
                work: Box::new(|l: &mut PeLocal| {
                    let v = l.take_from(ChannelId(0)).expect("sample");
                    let x = u32::from_le_bytes(v[..4].try_into().expect("4-byte sample"));
                    let mut taps = l.store.remove("taps").unwrap_or_default();
                    taps.extend_from_slice(&x.to_le_bytes());
                    let n = taps.len() / 4;
                    let start = n.saturating_sub(3);
                    let y: u32 = (start..n)
                        .map(|i| {
                            u32::from_le_bytes(taps[i * 4..i * 4 + 4].try_into().expect("tap"))
                        })
                        .fold(0u32, u32::wrapping_add);
                    l.store.insert("taps".into(), taps);
                    l.store.insert("y".into(), y.to_le_bytes().to_vec());
                    3
                }),
            },
            Op::Send {
                channel: ChannelId(1),
                payload: Box::new(|l: &mut PeLocal| l.store["y"].clone()),
            },
        ],
        iterations,
    );
    let sink = Program::new(
        vec![
            Op::Recv {
                channel: ChannelId(1),
            },
            Op::Compute {
                label: "acc".into(),
                work: Box::new(|l: &mut PeLocal| {
                    let v = l.take_from(ChannelId(1)).expect("filtered sample");
                    let y = u32::from_le_bytes(v[..4].try_into().expect("4-byte result"));
                    let acc = l
                        .store
                        .get("acc")
                        .map(|a| u32::from_le_bytes(a[..4].try_into().expect("acc")))
                        .unwrap_or(0);
                    l.store
                        .insert("acc".into(), y.wrapping_add(acc).to_le_bytes().to_vec());
                    1
                }),
            },
        ],
        iterations,
    );

    let mut runner = ThreadedRunner::new()
        .transport(TransportKind::Ring)
        .timeout(SIM_TIMEOUT);
    if faulted {
        // Delays perturb timing, the duplicate perturbs the stream;
        // none of them lose a message, so the pipeline still completes
        // (the duplicate follows its original, and what the filter does
        // not read, at most one message, stays behind).
        let plan = FaultPlan::new()
            .inject(ChannelId(0), 1, FaultKind::Delay { micros: 300 })
            .inject(ChannelId(0), 2, FaultKind::Duplicate)
            .inject(ChannelId(1), 1, FaultKind::Delay { micros: 700 });
        let (decorator, _log) = plan.into_decorator().expect("valid fault plan");
        runner = runner.decorate_transports(decorator);
    }
    let results = runner
        .run(&channels, vec![source, filter, sink])
        .expect("pipeline completes");
    assert_eq!(results.len(), 3, "one result per PE");
    assert!(
        iterations == 0 || results[2].store.contains_key("acc"),
        "sink accumulated"
    );
}

/// The PR 3 lost-wakeup scenario at whole-system scale: one producer
/// pushes two messages through a single-slot ring while two consumers
/// share the receive endpoint, each taking one message. Under
/// `strict_park` scheduling (park deadlines never fire) a wait list
/// that loses a wakeup deadlocks it on some seeds, so it must complete
/// on every seed; `mutants/pr3_wake_dequeue_sim.patch` is the wait list
/// that fails it.
pub fn ring_shared_consumers() {
    let ring = Arc::new(RingTransport::new(4, 4));
    shim::scope(|s| {
        let p = Arc::clone(&ring);
        s.spawn_named("producer".into(), move || {
            for i in 0..2u32 {
                p.send_with(
                    4,
                    &mut |buf| buf.copy_from_slice(&i.to_le_bytes()),
                    SIM_TIMEOUT,
                )
                .expect("send");
            }
        });
        for name in ["consumer-1", "consumer-2"] {
            let c = Arc::clone(&ring);
            s.spawn_named(name.into(), move || {
                c.recv_with(&mut |_| {}, SIM_TIMEOUT).expect("recv");
            });
        }
    });
}

/// Builds a connected `NetSender`/`NetReceiver` pair over a seeded
/// [`SimStream`] socket, with the receiver's ack policy matched to the
/// sender's batch parameters.
fn net_pair(
    stream_seed: u64,
    batch: BatchParams,
) -> (NetSender<crate::SimStream>, NetReceiver<crate::SimStream>) {
    let spec = byte_spec(64);
    let (a, b) = sim_stream_pair(stream_seed);
    let tx = NetSender::from_stream_with(a, &spec, batch).expect("sim sender");
    let rx = NetReceiver::from_stream_with(b, &spec, batch);
    (tx, rx)
}

/// Full framed round trip over the simulated socket: a producer thread
/// sends `msgs` sequenced records through the credit window, a
/// consumer thread receives and checks order. Partial reads and short
/// writes on the [`crate::SimStream`] exercise the wire-format resume loops
/// on nearly every record.
pub fn net_round_trip(stream_seed: u64, msgs: u32, batch: BatchParams) {
    let (tx, rx) = net_pair(stream_seed, batch);
    shim::scope(|s| {
        let txr = &tx;
        s.spawn_named("producer".into(), move || {
            for i in 0..msgs {
                txr.send(&i.to_le_bytes(), SIM_TIMEOUT).expect("send");
            }
            txr.flush_pending().expect("final flush");
        });
        let rxr = &rx;
        s.spawn_named("consumer".into(), move || {
            for i in 0..msgs {
                let got = rxr.recv(SIM_TIMEOUT).expect("recv");
                assert_eq!(got, i.to_le_bytes(), "FIFO order violated");
            }
        });
    });
    drop(tx);
    drop(rx);
}

/// A probe tracer that records every [`ProbeKind::BatchFlush`] reason.
struct FlushLog {
    reasons: shim::Mutex<Vec<FlushReason>>,
}

impl Tracer for FlushLog {
    fn enabled(&self) -> bool {
        true
    }

    fn intern(&self, _label: &str) -> u32 {
        0
    }

    fn record(&self, _pe: PeId, _ts: u64, kind: ProbeKind) {
        if let ProbeKind::BatchFlush { reason, .. } = kind {
            self.reasons.lock().push(reason);
        }
    }

    fn now(&self) -> u64 {
        // Keep probe timestamps off the wall clock: determinism over
        // fidelity, the sim log carries virtual time already.
        0
    }
}

fn flush_log() -> Arc<FlushLog> {
    Arc::new(FlushLog {
        reasons: shim::Mutex::labeled(Vec::new(), "sim_flush_log"),
    })
}

/// Flush-policy edge: the deadline fires with a non-empty partial
/// batch. Three records go into an 8-record batch window and their
/// owner then sleeps — off computing, no `spi-net` wait point in sight —
/// so neither a Full nor an Idle trigger can flush; the records must
/// reach the parked consumer via the `net-timer`'s
/// [`FlushReason::Deadline`] flush, on the virtual clock.
pub fn net_deadline_flush(stream_seed: u64) {
    let batch = BatchParams {
        max_msgs: 8,
        flush_after: Duration::from_millis(5),
    };
    let (tx, rx) = net_pair(stream_seed, batch);
    let log = flush_log();
    tx.set_probe(Arc::clone(&log) as Arc<dyn Tracer>, PeId(0), ChannelId(0));
    let started = shim::now();
    shim::scope(|s| {
        let txr = &tx;
        s.spawn_named("producer".into(), move || {
            for i in 0..3u32 {
                txr.send(&i.to_le_bytes(), SIM_TIMEOUT).expect("send");
            }
            shim::sleep(Duration::from_millis(50));
        });
        let rxr = &rx;
        s.spawn_named("consumer".into(), move || {
            for i in 0..3u32 {
                let got = rxr.recv(SIM_TIMEOUT).expect("recv");
                assert_eq!(got, i.to_le_bytes());
            }
            assert!(
                shim::now().duration_since(started) < Duration::from_millis(50),
                "records arrived only once their owner woke up"
            );
        });
    });
    let reasons = log.reasons.lock().clone();
    assert_eq!(
        reasons,
        [FlushReason::Deadline],
        "expected exactly one Deadline flush"
    );
    drop(tx);
    drop(rx);
}

/// Flush-policy edge: the Idle→Full transition. A producer stages one
/// request in a cold 4-record batch with an hour-long deadline and then
/// waits for the reply: flush-before-block must put the request on the
/// wire ([`FlushReason::Idle`]), and the consumer's reply leaves the
/// same way. After that a full window of records must flush on count
/// ([`FlushReason::Full`]).
pub fn net_idle_then_full(stream_seed: u64) {
    let batch = BatchParams {
        max_msgs: 4,
        flush_after: Duration::from_secs(3600),
    };
    let (tx, rx) = net_pair(stream_seed, batch);
    let (back_tx, back_rx) = net_pair(stream_seed ^ 0x5EED, batch);
    let log = flush_log();
    tx.set_probe(Arc::clone(&log) as Arc<dyn Tracer>, PeId(0), ChannelId(0));
    let back_log = flush_log();
    back_tx.set_probe(
        Arc::clone(&back_log) as Arc<dyn Tracer>,
        PeId(1),
        ChannelId(1),
    );
    shim::scope(|s| {
        let (txr, back_rxr) = (&tx, &back_rx);
        s.spawn_named("producer".into(), move || {
            txr.send(&0u32.to_le_bytes(), SIM_TIMEOUT).expect("request");
            let reply = back_rxr.recv(SIM_TIMEOUT).expect("reply");
            assert_eq!(reply, 0u32.to_le_bytes());
            // Now a full window: must flush on count, not deadline.
            for i in 1..=4u32 {
                txr.send(&i.to_le_bytes(), SIM_TIMEOUT).expect("send");
            }
        });
        let (rxr, back_txr) = (&rx, &back_tx);
        s.spawn_named("consumer".into(), move || {
            for i in 0..=4u32 {
                let got = rxr.recv(SIM_TIMEOUT).expect("recv");
                assert_eq!(got, i.to_le_bytes());
                if i == 0 {
                    back_txr.send(&got, SIM_TIMEOUT).expect("reply");
                }
            }
        });
    });
    assert_eq!(
        *log.reasons.lock(),
        [FlushReason::Idle, FlushReason::Full],
        "request leaves when its owner blocks, the window when it fills"
    );
    assert_eq!(
        *back_log.reasons.lock(),
        [FlushReason::Idle],
        "reply leaves when the consumer goes back to waiting"
    );
    drop((tx, rx, back_tx, back_rx));
}

/// Flush-policy edge: the Final flush racing peer EOF. A producer
/// batches records, the consumer tears down concurrently; the sender's `flush_pending` (and its Drop-time
/// Final flush) must either deliver cleanly or observe the close as an
/// error — never panic, never hang the virtual clock.
pub fn net_final_flush_races_eof(stream_seed: u64) {
    let batch = BatchParams {
        max_msgs: 8,
        flush_after: Duration::from_secs(3600),
    };
    let (tx, rx) = net_pair(stream_seed, batch);
    shim::scope(|s| {
        let txr = &tx;
        s.spawn_named("producer".into(), move || {
            for i in 0..3u32 {
                // The peer may already be gone: Closed is acceptable,
                // wedging or panicking is not.
                if txr.send(&i.to_le_bytes(), SIM_TIMEOUT).is_err() {
                    return;
                }
            }
            let _ = txr.flush_pending();
        });
        s.spawn_named("closer".into(), move || {
            drop(rx);
        });
    });
    drop(tx);
}

/// A producer that finishes ahead of its consumer: it stages two and a
/// half batches through a socket that refuses writes on a coin toss,
/// drops its endpoint and exits while the consumer is still asleep. The
/// consumer must then receive every record — the acknowledgements it can
/// no longer deliver say that the sender is gone, not that its stream is
/// over — and only after the last one see the channel closed.
pub fn net_sender_finishes_first(stream_seed: u64) {
    let batch = BatchParams {
        max_msgs: 4,
        flush_after: Duration::from_secs(3600),
    };
    let (tx, rx) = net_pair(stream_seed, batch);
    shim::scope(|s| {
        s.spawn_named("producer".into(), move || {
            for i in 0..10u32 {
                tx.send(&i.to_le_bytes(), SIM_TIMEOUT).expect("send");
            }
        });
        let rxr = &rx;
        s.spawn_named("consumer".into(), move || {
            shim::sleep(Duration::from_millis(50));
            for i in 0..10u32 {
                let got = rxr.recv(SIM_TIMEOUT).expect("recv");
                assert_eq!(got, i.to_le_bytes(), "tail lost or reordered");
            }
            assert!(rxr.recv(SIM_TIMEOUT).is_err(), "stream is over");
        });
    });
    drop(rx);
}

/// What [`net_closed_loop`]'s I/O PE spends on each result.
pub const CLOSED_LOOP_IO_STEP: Duration = Duration::from_nanos(1_000);

/// What [`net_closed_loop`]'s filter PE spends on each frame.
pub const CLOSED_LOOP_FILTER_STEP: Duration = Duration::from_nanos(2_500);

/// The `fir2k_net` benchmark's loop in virtual time: an I/O PE keeps
/// `tokens` frames in flight to a filter PE and back over two socket
/// edges batched under `batch`, each provisioned with a credit window of
/// `2 * tokens` messages, for `rounds * tokens` frames. The I/O PE
/// spends [`CLOSED_LOOP_IO_STEP`] on each result before it sends the
/// next frame and the filter PE [`CLOSED_LOOP_FILTER_STEP`] on each
/// frame, both as `shim::sleep`: the filter PE is the bottleneck and,
/// wherever the two overlap, never has to wait. Returns how long it
/// nevertheless sat in `recv` after the first `tokens` frames (the
/// pipeline filling).
///
/// The edges are [`sim_socket_pair`]s — every batch arrives whole and at
/// once — so the only thing that takes time is a PE's own work, and what
/// the figure shows is when batches are *sent*.
///
/// # Panics
///
/// When a frame is lost, reordered or altered.
pub fn net_closed_loop(tokens: u32, rounds: u32, batch: BatchParams) -> Duration {
    let spec = byte_spec(4 * 2 * tokens as usize);
    let edge = || {
        let (a, b) = sim_socket_pair();
        let tx = NetSender::from_stream_with(a, &spec, batch).expect("sim sender");
        (tx, NetReceiver::from_stream_with(b, &spec, batch))
    };
    let ((tx, rx), (back_tx, back_rx)) = (edge(), edge());
    let frames = rounds * tokens;
    let mut idle = Duration::ZERO;
    shim::scope(|s| {
        let (txr, back_rxr) = (&tx, &back_rx);
        s.spawn_named("io-pe".into(), move || {
            let (mut sent, mut recvd) = (0u32, 0u32);
            while recvd < frames {
                while sent < frames && sent - recvd < tokens {
                    txr.send(&sent.to_le_bytes(), SIM_TIMEOUT).expect("frame");
                    sent += 1;
                }
                let got = back_rxr.recv(SIM_TIMEOUT).expect("result");
                assert_eq!(got, (!recvd).to_le_bytes(), "result lost or reordered");
                shim::sleep(CLOSED_LOOP_IO_STEP);
                recvd += 1;
            }
        });
        let (rxr, back_txr, idle) = (&rx, &back_tx, &mut idle);
        s.spawn_named("filter-pe".into(), move || {
            for i in 0..frames {
                let waiting_since = shim::now();
                let got = rxr.recv(SIM_TIMEOUT).expect("frame");
                if i >= tokens {
                    *idle += shim::now().duration_since(waiting_since);
                }
                assert_eq!(got, i.to_le_bytes(), "frame lost or reordered");
                shim::sleep(CLOSED_LOOP_FILTER_STEP);
                back_txr
                    .send(&(!i).to_le_bytes(), SIM_TIMEOUT)
                    .expect("result");
            }
            // A simulated thread's exit flushes nothing.
            back_txr.flush_pending().expect("final flush");
        });
    });
    drop((tx, rx, back_tx, back_rx));
    idle
}

/// A stalled ring channel under virtual time: a full single-slot ring
/// times a second send out after exactly the requested deadline, and
/// the error's idle measurement equals the deadline to the nanosecond —
/// assertions that are only exact because `shim::now()` reads the
/// virtual clock.
pub fn stalled_ring_reports_exact_idle() {
    let spec = byte_spec(4);
    let t = TransportKind::Ring.instantiate(&spec);
    t.send(&[1, 2, 3, 4], Duration::from_millis(10))
        .expect("first send fills the slot");
    let before = shim::now();
    let err = t
        .send(&[5, 6, 7, 8], Duration::from_millis(50))
        .expect_err("single slot is full");
    let waited = shim::now().duration_since(before);
    match err {
        spi_platform::TransportError::Timeout { after, idle } => {
            assert_eq!(after, Duration::from_millis(50));
            assert!(
                idle >= Duration::from_millis(50),
                "peer never progressed, idle {idle:?}"
            );
            assert!(
                waited >= Duration::from_millis(50),
                "deadline honored in virtual time, waited {waited:?}"
            );
        }
        other => panic!("expected Timeout, got {other}"),
    }
}

/// A supervised PE receiving on a channel nobody feeds, under
/// `retry(2)` with a 50 ms deadline: three deadline misses end the op
/// in `RetryBudgetExhausted`, and its `idle` — how long the op had
/// been failing, from the start of its first failed attempt — is
/// exactly the three deadlines, 150 ms.
///
/// # Panics
///
/// When the run ends any other way.
pub fn lone_recv_exhausts_with_exact_idle() {
    let recv = Program::new(
        vec![Op::Recv {
            channel: ChannelId(0),
        }],
        1,
    );
    let policy = SupervisionPolicy::retry(2).with_deadline(Duration::from_millis(50));
    let err = ThreadedRunner::new()
        .transport(TransportKind::Ring)
        .supervise(policy)
        .run(&[byte_spec(4)], vec![recv])
        .expect_err("nothing is ever sent");
    match err {
        PlatformError::RetryBudgetExhausted {
            pe,
            channel,
            attempts,
            kind,
            idle,
        } => {
            assert_eq!(
                (pe, channel, kind),
                (PeId(0), ChannelId(0), BlockKind::Recv)
            );
            assert_eq!(attempts, 3, "first try + 2 retries");
            assert_eq!(idle, Duration::from_millis(150), "three whole deadlines");
        }
        other => panic!("expected RetryBudgetExhausted, got {other}"),
    }
}

/// One PE sending itself `iterations` 4-byte tokens over a ring
/// self-edge — supervised with `retry(3)` or not — checking each one
/// comes back. Fault-free, so the supervised run must read the clock
/// exactly as often as the bare one.
///
/// # Panics
///
/// When the run fails or a token comes back altered.
pub fn self_loop(iterations: u64, supervised: bool) {
    let word = |iter: u64| (iter as u32).wrapping_mul(0x9E37_79B9).to_le_bytes();
    let program = Program::new(
        vec![
            Op::Send {
                channel: ChannelId(0),
                payload: Box::new(move |l: &mut PeLocal| word(l.iter).to_vec()),
            },
            Op::Recv {
                channel: ChannelId(0),
            },
            Op::Compute {
                label: "verify".into(),
                work: Box::new(move |l: &mut PeLocal| {
                    let got = l.take_from(ChannelId(0)).expect("token");
                    assert_eq!(*got, word(l.iter), "token altered");
                    0
                }),
            },
        ],
        iterations,
    );
    let runner = ThreadedRunner::new()
        .transport(TransportKind::Ring)
        .timeout(SIM_TIMEOUT);
    let runner = if supervised {
        runner.supervise(SupervisionPolicy::retry(3))
    } else {
        runner
    };
    runner
        .run(&[byte_spec(16)], vec![program])
        .expect("self-loop completes");
}
