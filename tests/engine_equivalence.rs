//! The discrete-event engine and the OS-thread runner must agree
//! functionally on identical programs: same stores, same per-channel
//! message order — protocol logic that only works under the event
//! queue's serialization would be a bug.
//!
//! Two hand-built programs pin that on the platform alone; the
//! generated-system oracle (`support/oracle.rs`) holds every backend —
//! the DES, the three in-process transports and the `spi-net` socket
//! endpoints over `spi-sim`'s fragmenting in-memory stream — to one
//! sequential reference over random systems built through the whole
//! SPI flow.

use std::time::Duration;

use spi_repro::dataflow::SdfGraph;
use spi_repro::platform::rng::cases;
use spi_repro::platform::{ChannelId, ChannelSpec, Machine, Op, Program, ThreadedRunner};

#[path = "support/oracle.rs"]
mod oracle;

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
            max_message_bytes: 4,
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

/// The oracle over its fixed seed set (`CHAOS_CASES` systems, 200 by
/// default; `SPI_CHAOS_SEED=<n>` checks system `n` alone). The floors
/// keep a generator regression from leaving it vacuous.
#[test]
fn generated_systems_agree_with_the_reference() {
    let systems = std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok());
    let seeds = cases(systems.unwrap_or(oracle::SYSTEMS));
    let mut covered = oracle::Covered::default();
    for &seed in &seeds {
        covered.add(oracle::check_seed(seed));
    }
    let checked = seeds.len() as u64;
    eprintln!("{checked} generated systems agree with the reference");
    let whole_set = checked >= oracle::SYSTEMS;
    for (what, count, floor) in covered.floors() {
        eprintln!("  {what}: {count}");
        assert!(
            !whole_set || count >= floor,
            "{what}: {count}, floor {floor}"
        );
    }
}

/// System 414 fires a duplicate or a corruption on an acknowledgement
/// channel, whose last credits are never read. While the injector put
/// the extra frame into the channel it took one of the
/// `window + fill_msgs + 1` slots, and the supervised run on `Locked`
/// exhausted its retry budget sending on ch1. The extra frame now
/// waits beside the channel.
#[test]
fn an_ack_channel_extra_frame_takes_no_credit_slot() {
    let covered = oracle::check_seed(414);
    assert!(covered.ack_extras > 0, "{covered:?}");
}

/// `lowering_pins.rs`'s `delayed` graph on the ordered-transactions bus:
/// e2 keeps its acknowledgements and carries two pipeline-fill messages,
/// which the consumer acknowledges on top of the credit window. Its ack
/// channel used to hold one window plus one, so the plan was refused;
/// sized `window + fill_msgs + 1` it runs and agrees with the reference.
///
/// The graph below is a copy of `crates/spi/tests/lowering_pins.rs::
/// delayed` (actors, costs, edge order and rates): change both or
/// neither.
#[test]
fn formerly_refused_delayed_plan_runs_on_the_ordered_bus() {
    let mut graph = SdfGraph::new();
    let a = graph.add_actor("a", 30);
    let b = graph.add_actor("b", 40);
    let c = graph.add_actor("c", 25);
    graph.add_dynamic_edge(a, b, 16, 16, 2, 1).expect("edge");
    graph.add_edge(b, a, 1, 1, 1, 4).expect("edge");
    graph.add_edge(b, c, 2, 3, 5, 2).expect("edge");
    let system = oracle::Generated {
        graph,
        procs: 3,
        assign: vec![0, 1, 2],
        iterations: 6,
        resync: true,
        bus: oracle::Bus::Ordered,
        ..Default::default()
    };
    let covered = oracle::check(&system);
    assert_eq!(covered.ordered_bus_acked_fills, 1, "{covered:?}");
}
