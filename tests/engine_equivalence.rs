//! The discrete-event engine and the OS-thread runner must agree
//! functionally on identical programs: same stores, same per-channel
//! message order — protocol logic that only works under the event
//! queue's serialization would be a bug.
//!
//! The randomized case also runs every engine under a `RingTracer` and
//! cross-checks the captured traces: identical per-channel send/receive
//! digest sequences on every backend — the DES, the three in-process
//! transports, and the `spi-net` socket endpoints over `spi-sim`'s
//! fragmenting in-memory stream — and a clean FIFO/conservation replay
//! by the conformance checker.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use spi_net::{BatchParams, NetReceiver, NetSender};
use spi_repro::platform::{
    ChannelId, ChannelSpec, Machine, Op, Program, ThreadedPeResult, ThreadedRunner, Transport,
    TransportError, TransportKind,
};
use spi_repro::sim::{sim_stream_pair, SimStream};
use spi_repro::trace::{check, ClockKind, ProbeEvent, ProbeKind, RingTracer, TraceMeta};

/// Builds the same 3-PE pipeline twice (programs contain closures and
/// cannot be cloned).
fn pipeline_programs() -> (Vec<ChannelSpec>, Vec<Program>) {
    let specs = vec![ChannelSpec::default(), ChannelSpec::default()];
    let c1 = ChannelId(0);
    let c2 = ChannelId(1);
    let producer = Program::new(
        vec![Op::Send {
            channel: c1,
            payload: Box::new(|l| vec![(l.iter * 3 % 251) as u8]),
        }],
        25,
    );
    let transformer = Program::new(
        vec![
            Op::Recv { channel: c1 },
            Op::Compute {
                label: "xform".into(),
                work: Box::new(move |l| {
                    let v = l.take_from(c1).expect("input");
                    l.store.insert("fwd".into(), vec![v[0].wrapping_mul(2)]);
                    7
                }),
            },
            Op::Send {
                channel: c2,
                payload: Box::new(|l| l.store.get("fwd").cloned().expect("staged")),
            },
        ],
        25,
    );
    let collector = Program::new(
        vec![
            Op::Recv { channel: c2 },
            Op::Compute {
                label: "collect".into(),
                work: Box::new(move |l| {
                    let v = l.take_from(c2).expect("input");
                    let mut acc = l.store.remove("acc").unwrap_or_default();
                    acc.push(v[0]);
                    l.store.insert("acc".into(), acc);
                    3
                }),
            },
        ],
        25,
    );
    (specs, vec![producer, transformer, collector])
}

#[test]
fn des_and_threads_produce_identical_stores() {
    // DES run.
    let (specs, programs) = pipeline_programs();
    let mut machine = Machine::new();
    for s in &specs {
        machine.add_channel(*s);
    }
    for p in programs {
        machine.add_pe(p);
    }
    let des = machine.run().expect("DES run");

    // Threaded run of freshly built identical programs.
    let (specs, programs) = pipeline_programs();
    let runner = ThreadedRunner::new().timeout(Duration::from_secs(10));
    let threaded = runner.run(&specs, programs).expect("threaded run");

    for (i, t) in threaded.iter().enumerate() {
        assert_eq!(des.locals[i].store, t.store, "store mismatch on PE {i}");
        assert_eq!(des.locals[i].leftover_inbox, t.leftover_inbox);
    }
    // The collector saw the full transformed sequence, in order.
    let acc = &threaded[2].store["acc"];
    assert_eq!(acc.len(), 25);
    for (iter, &v) in acc.iter().enumerate() {
        assert_eq!(v, ((iter as u64 * 3 % 251) as u8).wrapping_mul(2));
    }
}

#[test]
fn engines_agree_with_prologues_and_backpressure() {
    let build = || {
        let specs = vec![ChannelSpec {
            capacity_bytes: 8, // tight: forces back-pressure
            ..ChannelSpec::default()
        }];
        let ch = ChannelId(0);
        let mut producer = Program::new(
            vec![Op::Send {
                channel: ch,
                payload: Box::new(|l| vec![l.iter as u8; 4]),
            }],
            10,
        );
        // Prologue primes one extra message.
        producer.prologue = vec![Op::Send {
            channel: ch,
            payload: Box::new(|_| vec![0xFF; 4]),
        }];
        let consumer = Program::new(
            vec![
                Op::Recv { channel: ch },
                Op::Compute {
                    label: "fold".into(),
                    work: Box::new(move |l| {
                        let v = l.take_from(ch).expect("msg");
                        let mut acc = l.store.remove("acc").unwrap_or_default();
                        acc.push(v[0]);
                        l.store.insert("acc".into(), acc);
                        11
                    }),
                },
            ],
            11, // 10 + the primed message
        );
        (specs, vec![producer, consumer])
    };

    let (specs, programs) = build();
    let mut machine = Machine::new();
    for s in &specs {
        machine.add_channel(*s);
    }
    for p in programs {
        machine.add_pe(p);
    }
    let des = machine.run().expect("DES run");

    let (specs, programs) = build();
    let runner = ThreadedRunner::new().timeout(Duration::from_secs(10));
    let threaded = runner.run(&specs, programs).expect("threads");

    assert_eq!(des.locals[1].store, threaded[1].store);
    let acc = &threaded[1].store["acc"];
    assert_eq!(acc[0], 0xFF, "primed message arrives first");
    assert_eq!(acc.len(), 11);
}

/// Parameters of one randomized linear pipeline.
#[derive(Debug, Clone, Copy)]
struct PipelineParams {
    n_pes: u64,
    payload: u64,
    cap_msgs: u64,
    iterations: u64,
    seed: u64,
}

/// Builds a random linear pipeline: PE 0 produces `payload`-byte
/// messages derived from (iteration, seed); every later PE folds the
/// first byte of each arrival into its "acc" store key (recording the
/// per-channel message order) and, except the last, forwards a
/// deterministically transformed message. Channels are `cap_msgs`
/// messages deep with the per-message bound declared, so the ring sizes
/// its slots exactly.
fn random_pipeline(p: PipelineParams) -> (Vec<ChannelSpec>, Vec<Program>) {
    let n = p.n_pes as usize;
    let payload = p.payload as usize;
    let specs: Vec<ChannelSpec> = (0..n - 1)
        .map(|_| ChannelSpec {
            capacity_bytes: (p.cap_msgs as usize) * payload,
            max_message_bytes: payload,
            ..ChannelSpec::default()
        })
        .collect();
    let mut programs = Vec::with_capacity(n);
    let seed = p.seed;
    programs.push(Program::new(
        vec![Op::Send {
            channel: ChannelId(0),
            payload: Box::new(move |l| {
                (0..payload)
                    .map(|b| (l.iter.wrapping_mul(31).wrapping_add(seed + b as u64) % 251) as u8)
                    .collect()
            }),
        }],
        p.iterations,
    ));
    for pe in 1..n {
        let input = ChannelId(pe - 1);
        let mul = (2 * pe + 1) as u8; // odd → invertible mod 256
        let add = (seed % 256) as u8;
        let mut ops = vec![
            Op::Recv { channel: input },
            Op::Compute {
                label: format!("stage{pe}"),
                work: Box::new(move |l| {
                    let v = l.take_from(input).expect("message");
                    let out: Vec<u8> = v
                        .iter()
                        .map(|&b| b.wrapping_mul(mul).wrapping_add(add))
                        .collect();
                    let mut acc = l.store.remove("acc").unwrap_or_default();
                    acc.push(out[0]);
                    l.store.insert("acc".into(), acc);
                    l.store.insert("fwd".into(), out);
                    1
                }),
            },
        ];
        if pe != n - 1 {
            ops.push(Op::Send {
                channel: ChannelId(pe),
                payload: Box::new(|l| l.store.get("fwd").cloned().expect("staged")),
            });
        }
        programs.push(Program::new(ops, p.iterations));
    }
    (specs, programs)
}

/// Per-channel send and receive digest sequences of a captured event
/// stream — the trace-level fingerprint two engines must share.
fn channel_digests(events: &[ProbeEvent]) -> (HashMap<usize, Vec<u64>>, HashMap<usize, Vec<u64>>) {
    let mut sends: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut recvs: HashMap<usize, Vec<u64>> = HashMap::new();
    for ev in events {
        match ev.kind {
            ProbeKind::Send {
                channel, digest, ..
            } => sends.entry(channel.0).or_default().push(digest),
            ProbeKind::Recv {
                channel, digest, ..
            } => recvs.entry(channel.0).or_default().push(digest),
            _ => {}
        }
    }
    (sends, recvs)
}

/// Both ends of one `spi-net` channel as the single endpoint object a
/// one-process run needs: sends go to the sender, receives to the
/// receiver, and occupancy is the sender's credit view (what eq. (2)
/// bounds).
struct NetEdge {
    tx: NetSender<SimStream>,
    rx: NetReceiver<SimStream>,
}

impl NetEdge {
    /// The edge over a [`SimStream`] pair that splits reads and writes
    /// at boundaries drawn from `seed`, batched as the schedule would
    /// lower a window of this depth.
    fn boxed(spec: &ChannelSpec, seed: u64) -> Box<dyn Transport> {
        let window = (spec.capacity_bytes / spec.max_message_bytes.max(1)) as u64;
        let batch = BatchParams::from(spi_repro::sched::batch_plan(window, None));
        let (a, b) = sim_stream_pair(seed);
        Box::new(NetEdge {
            tx: NetSender::from_stream_with(a, spec, batch).expect("sender"),
            rx: NetReceiver::from_stream_with(b, spec, batch),
        })
    }
}

impl Transport for NetEdge {
    fn capacity_bytes(&self) -> usize {
        self.tx.capacity_bytes()
    }
    fn max_message_bytes(&self) -> usize {
        self.tx.max_message_bytes()
    }
    fn len_bytes(&self) -> usize {
        self.tx.len_bytes()
    }
    fn occupancy(&self) -> usize {
        self.tx.occupancy()
    }
    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.tx.try_send(data)
    }
    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.rx.try_recv()
    }
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.tx.send_with(len, fill, timeout)
    }
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.rx.recv_with(consume, timeout)
    }
}

/// One threaded backend of the randomized comparison.
#[derive(Debug, Clone, Copy)]
enum Backend {
    InProcess(TransportKind),
    NetOverSimStream,
}

impl Backend {
    fn run(
        self,
        p: PipelineParams,
        tracer: Arc<RingTracer>,
    ) -> spi_repro::platform::Result<Vec<ThreadedPeResult>> {
        let (specs, programs) = random_pipeline(p);
        let runner = ThreadedRunner::new()
            .timeout(Duration::from_secs(20))
            .tracer(tracer);
        match self {
            Backend::InProcess(kind) => runner.transport(kind).run(&specs, programs),
            Backend::NetOverSimStream => {
                let endpoints = specs
                    .iter()
                    .enumerate()
                    .map(|(ch, spec)| NetEdge::boxed(spec, p.seed * 16 + ch as u64))
                    .collect();
                runner.run_with_endpoints(&specs, endpoints, programs)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DES and every threaded backend — Locked, Ring, Pointer and
    /// the socket endpoints over a simulated stream — must produce
    /// identical stores, per-channel message orders, and — under trace
    /// capture — identical per-channel digest sequences with a clean
    /// conformance replay.
    #[test]
    fn all_three_engines_agree_on_random_pipelines(
        n_pes in 2u64..5,
        payload in 1u64..9,
        cap_msgs in 1u64..5,
        iterations in 1u64..21,
        seed in 0u64..256,
    ) {
        let p = PipelineParams { n_pes, payload, cap_msgs, iterations, seed };

        // Reference: the discrete-event engine, traced.
        let (specs, programs) = random_pipeline(p);
        let mut machine = Machine::new();
        for s in &specs {
            machine.add_channel(*s);
        }
        for prog in programs {
            machine.add_pe(prog);
        }
        let ring = Arc::new(RingTracer::new(n_pes as usize, 4096));
        machine.set_tracer(ring.clone());
        let des = machine.run().expect("DES run");
        let des_trace = ring.finish(TraceMeta::new(ClockKind::Cycles));
        prop_assert_eq!(des_trace.meta.dropped, 0);
        let des_report = check(&des_trace);
        prop_assert!(
            des_report.diagnostics.is_empty(),
            "DES trace must replay clean:\n{}", des_report.render_human()
        );
        let (des_sends, des_recvs) = channel_digests(&des_trace.events);
        // Every message the pipeline carries is accounted for: channel 0
        // sees one send per iteration.
        prop_assert_eq!(des_sends[&0].len() as u64, iterations);

        for kind in [
            Backend::InProcess(TransportKind::Locked),
            Backend::InProcess(TransportKind::Ring),
            Backend::InProcess(TransportKind::Pointer),
            Backend::NetOverSimStream,
        ] {
            let ring = Arc::new(RingTracer::new(n_pes as usize, 4096));
            let threaded = kind.run(p, ring.clone()).expect("threaded run");
            for (i, t) in threaded.iter().enumerate() {
                prop_assert_eq!(
                    &des.locals[i].store, &t.store,
                    "store mismatch on PE {} under {:?} with {:?}", i, kind, p
                );
                prop_assert_eq!(
                    des.locals[i].leftover_inbox, t.leftover_inbox,
                    "inbox mismatch on PE {} under {:?} with {:?}", i, kind, p
                );
            }
            let trace = ring.finish(TraceMeta::new(ClockKind::Nanos));
            prop_assert_eq!(trace.meta.dropped, 0);
            let report = check(&trace);
            prop_assert!(
                report.diagnostics.is_empty(),
                "{:?} trace must replay clean:\n{}", kind, report.render_human()
            );
            let (sends, recvs) = channel_digests(&trace.events);
            prop_assert_eq!(
                &sends, &des_sends,
                "send digests diverge under {:?} with {:?}", kind, p
            );
            prop_assert_eq!(
                &recvs, &des_recvs,
                "recv digests diverge under {:?} with {:?}", kind, p
            );
        }
    }
}
