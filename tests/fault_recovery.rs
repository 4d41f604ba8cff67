//! Fault-recovery integration: every fault kind injected into the
//! filter-bank application, with fixed seeds, must be absorbed by the
//! supervised runner **byte-identically** under the strict retry
//! policy.
//!
//! This is the application-level face of the robustness claim: the
//! generated-system oracle (`support/oracle.rs`) runs random fault plans
//! on random systems over every threaded backend; here each [`FaultKind`]
//! is pinned, one at a time, against the paper's evaluation application,
//! and the decimated band outputs are compared against a fault-free
//! reference run. Supervision recovers a token exactly or stops, so
//! success *means* exactness — there is no substitution path that could
//! mask corruption.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use spi_repro::apps::{FilterBankApp, FilterBankConfig};
use spi_repro::dataflow::SdfGraph;
use spi_repro::fault::{FaultKind, FaultPlan};
use spi_repro::platform::{
    ChannelId, ChannelSpec, Op, PeLocalSnapshot, Program, SupervisionPolicy, ThreadedRunner,
    TransportKind, MAX_RESTARTS,
};
use spi_repro::sched::ProcId;
use spi_repro::spi::{Firing, SpiSystem, SpiSystemBuilder};
use spi_repro::trace::{ClockKind, RingTracer};

const ITERATIONS: u64 = 6;

/// Fresh app + system (programs hold closures and cannot be reused
/// across runs; the fixed seed makes every build identical).
fn build() -> (Arc<std::sync::Mutex<Vec<Vec<f64>>>>, SpiSystem) {
    let app = FilterBankApp::new(FilterBankConfig::default()).expect("filter bank builds");
    let output = app.output.clone();
    let system = app.system(ITERATIONS).expect("system builds");
    (output, system)
}

/// Fault-free reference: the discrete-event engine's band outputs.
fn reference() -> Vec<Vec<f64>> {
    let (output, system) = build();
    system.run().expect("fault-free DES run");
    let out = output.lock().unwrap().clone();
    assert!(!out.is_empty(), "combiner produced output");
    out
}

/// The strict policy every recovery test runs under: generous per-op
/// deadline (faults are injected, not timing-related), bounded retries,
/// then a fail-stop.
fn strict() -> SupervisionPolicy {
    SupervisionPolicy::retry(3).with_deadline(Duration::from_secs(2))
}

/// Runs the filter bank supervised with `kind` injected at a fixed
/// `(channel, message_index)` slot on the source→low data channel, and
/// asserts byte-identical convergence plus a non-vacuous injection.
fn recovers_byte_identically(kind: FaultKind, transport: TransportKind) {
    let want = reference();
    let (output, system) = build();
    // Edge 0 is source→low; its data channel carries one frame per
    // iteration, so message index 1 is the second frame.
    let data_ch = system.edge_plans()[&system.edge_plans().keys().min().copied().unwrap()].data_ch;
    let plan = FaultPlan::new().inject(data_ch, 1, kind);
    let (decorator, log) = plan.into_decorator().expect("valid plan");
    let results = system
        .run_threaded_with(
            &ThreadedRunner::new()
                .transport(transport)
                .supervise(strict())
                .decorate_transports(decorator),
        )
        .unwrap_or_else(|e| panic!("{kind} under {transport:?} must recover: {e}"));
    assert!(!results.is_empty());
    let fired = log.lock().unwrap();
    assert_eq!(fired.len(), 1, "the planned {kind} fired exactly once");
    assert_eq!(fired[0].channel, data_ch);
    let got = output.lock().unwrap().clone();
    assert_eq!(
        want, got,
        "band outputs must match the fault-free reference bit-for-bit \
         after a recovered {kind} ({transport:?})"
    );
}

#[test]
fn fault_free_supervised_run_matches_reference() {
    let want = reference();
    for transport in [TransportKind::Locked, TransportKind::Ring] {
        let (output, system) = build();
        let results = system
            .run_threaded_with(
                &ThreadedRunner::new()
                    .transport(transport)
                    .supervise(strict()),
            )
            .expect("fault-free supervised run");
        assert!(!results.is_empty());
        assert_eq!(want, output.lock().unwrap().clone(), "{transport:?}");
    }
}

#[test]
fn delay_fault_recovers_byte_identically() {
    recovers_byte_identically(FaultKind::Delay { micros: 500 }, TransportKind::Locked);
    recovers_byte_identically(FaultKind::Delay { micros: 500 }, TransportKind::Ring);
}

#[test]
fn stall_fault_recovers_byte_identically() {
    // 30 ms is a real scheduling perturbation but far under the 2 s
    // per-attempt deadline.
    recovers_byte_identically(FaultKind::Stall { millis: 30 }, TransportKind::Locked);
    recovers_byte_identically(FaultKind::Stall { millis: 30 }, TransportKind::Ring);
}

#[test]
fn drop_fault_recovers_byte_identically() {
    recovers_byte_identically(FaultKind::Drop, TransportKind::Locked);
    recovers_byte_identically(FaultKind::Drop, TransportKind::Ring);
}

#[test]
fn duplicate_fault_recovers_byte_identically() {
    recovers_byte_identically(FaultKind::Duplicate, TransportKind::Locked);
    recovers_byte_identically(FaultKind::Duplicate, TransportKind::Ring);
}

#[test]
fn corrupt_fault_recovers_byte_identically() {
    recovers_byte_identically(FaultKind::Corrupt, TransportKind::Locked);
    recovers_byte_identically(FaultKind::Corrupt, TransportKind::Ring);
}

#[test]
fn faults_on_every_data_channel_recover_together() {
    // One benign fault per inter-processor data edge, all in one run.
    let want = reference();
    let (output, system) = build();
    let mut channels: Vec<ChannelId> = system.edge_plans().values().map(|p| p.data_ch).collect();
    channels.sort();
    let kinds = [
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::Duplicate,
        FaultKind::Delay { micros: 200 },
    ];
    let mut plan = FaultPlan::new();
    for (i, &ch) in channels.iter().enumerate() {
        plan = plan.inject(ch, (i as u64) % ITERATIONS, kinds[i % kinds.len()]);
    }
    let (decorator, log) = plan.into_decorator().expect("valid plan");
    system
        .run_threaded_with(
            &ThreadedRunner::new()
                .supervise(strict())
                .decorate_transports(decorator),
        )
        .expect("multi-edge fault run recovers");
    assert_eq!(log.lock().unwrap().len(), channels.len());
    assert_eq!(want, output.lock().unwrap().clone());
}

/// A fault index means "the k-th message the PE sends on the channel",
/// whichever way the port reaches the transport: untraced it calls
/// `send` alone, under an enabled tracer `try_send` first and `send`
/// only on `Full`. The same plan over the same two-PE program must
/// therefore fire the same faults and end the same way with and without
/// a tracer attached. (Unsupervised, so nothing recovers: `Drop` and
/// `Corrupt` surface as channel faults, the other kinds complete.)
#[test]
fn a_tracer_does_not_change_which_planned_faults_fire() {
    for kind in [
        FaultKind::Delay { micros: 200 },
        FaultKind::Stall { millis: 2 },
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Corrupt,
    ] {
        let run = |traced: bool| {
            let channels = vec![ChannelSpec {
                capacity_bytes: 16,
                max_message_bytes: 4,
            }];
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|l| (l.iter as u32).to_le_bytes().to_vec()),
                }],
                4,
            );
            let consumer = Program::new(
                vec![Op::Recv {
                    channel: ChannelId(0),
                }],
                4,
            );
            let (decorator, log) = FaultPlan::new()
                .inject(ChannelId(0), 1, kind)
                .into_decorator()
                .expect("valid plan");
            let mut runner = ThreadedRunner::new()
                .transport(TransportKind::Ring)
                .timeout(Duration::from_millis(300))
                .decorate_transports(decorator);
            if traced {
                runner = runner.tracer(Arc::new(RingTracer::with_default_capacity(2)));
            }
            let outcome = runner
                .run(&channels, vec![producer, consumer])
                .map(|results| results.len())
                .map_err(|e| std::mem::discriminant(&e));
            let fired = log.lock().unwrap().clone();
            (outcome, fired)
        };
        let (untraced, traced) = (run(false), run(true));
        assert_eq!(untraced.1.len(), 1, "the planned {kind} fired untraced");
        assert_eq!(untraced, traced, "{kind}: a tracer changed the run");
    }
}

/// A restart must roll back the whole of the PE's local state, the
/// indexed queues and staged sends of the lowered data plane included.
/// `a` and `b` share P0, `c` is alone on P1; `a -> b` is a local edge
/// with one delay token, `a -> c` and `b -> c` cross. In iteration 2 a
/// closure wrapped around `b`'s firing panics once — after `a` has
/// pushed its token on the local edge, staged its message and sent it.
/// The replay fires `a` again: a checkpoint that forgot the queues
/// would leave that token queued twice, and `b` would run one token
/// behind from then on. In the second case `b`'s actor itself panics
/// once, after it has written the first byte of its output into the
/// slot its firing lends: the replay must start from an empty slot, or
/// `c` receives that byte twice.
#[test]
fn restart_rolls_back_the_lowered_data_plane() {
    /// Where the one panic of iteration 2 strikes.
    #[derive(Clone, Copy, PartialEq)]
    enum Panic {
        AroundTheFiring,
        InsideTheActor,
    }
    const PANIC_ITER: u64 = 2;
    let run = |panic: Option<Panic>| -> (Vec<PeLocalSnapshot>, Vec<Vec<u8>>) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 10);
        let b = g.add_actor("b", 10);
        let c = g.add_actor("c", 10);
        let ab = g.add_edge(a, b, 1, 1, 1, 1).unwrap();
        let ac = g.add_edge(a, c, 1, 1, 0, 1).unwrap();
        let bc = g.add_dynamic_edge(b, c, 4, 4, 0, 1).unwrap();
        let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let mut builder = SpiSystemBuilder::new(g);
        builder.actor(a, move |ctx: &mut Firing| {
            let iter = ctx.iter;
            ctx.output(ab).push(iter as u8 + 1);
            ctx.output(ac).push(iter as u8 + 1);
            10
        });
        let mut armed = panic == Some(Panic::InsideTheActor);
        builder.actor(b, move |ctx: &mut Firing| {
            let (bytes, iter) = (ctx.input(ab), ctx.iter);
            let out = ctx.output(bc);
            for &byte in bytes {
                out.push(byte);
                if iter == PANIC_ITER && std::mem::take(&mut armed) {
                    panic!("injected fault inside b in iteration {iter}");
                }
            }
            10
        });
        builder.actor(c, move |ctx: &mut Firing| {
            sink.lock()
                .unwrap()
                .push([ctx.input(ac), ctx.input(bc)].concat());
            10
        });
        builder.iterations(ITERATIONS);
        let system = builder.build(2, |x| ProcId(usize::from(x == c))).unwrap();
        let (specs, mut programs) = system.into_parts();
        if panic == Some(Panic::AroundTheFiring) {
            let fire_b = programs[0].ops.iter_mut().find_map(|op| match op {
                Op::Compute { label, work } if label == "fire:b#0" => Some(work),
                _ => None,
            });
            let work = fire_b.expect("b fires on P0");
            let mut inner = std::mem::replace(work, Box::new(|_| 0));
            let mut armed = true;
            *work = Box::new(move |l| {
                if l.iter == PANIC_ITER && std::mem::take(&mut armed) {
                    panic!("injected fault in iteration {PANIC_ITER}");
                }
                inner(l)
            });
        }
        let results = ThreadedRunner::new()
            .supervise(strict())
            .run(&specs, programs)
            .expect("one restart is inside the budget");
        let seen = seen.lock().unwrap().clone();
        (results, seen)
    };
    let clean = run(None);
    let want: Vec<Vec<u8>> = (0..ITERATIONS as u8).map(|i| vec![i + 1, i]).collect();
    assert_eq!(clean.1, want, "b forwards what a produced an iteration ago");
    assert_eq!(
        run(Some(Panic::AroundTheFiring)),
        clean,
        "a panic around b's firing"
    );
    assert_eq!(
        run(Some(Panic::InsideTheActor)),
        clean,
        "a panic inside b's actor"
    );
}

#[test]
fn predicted_makespan_derives_a_sane_supervision_deadline() {
    let (_, system) = build();
    // 100 MHz default clock; the analytic deadline must exist for the
    // baseline configuration and respect the 1 ms OS-jitter floor.
    let d = system
        .supervision_deadline(10.0)
        .expect("baseline config is analyzable");
    assert!(d >= Duration::from_millis(1), "{d:?}");
    assert!(d <= Duration::from_secs(60), "deadline stays sane: {d:?}");
    // More safety factor, no tighter deadline.
    let d2 = system.supervision_deadline(20.0).expect("same config");
    assert!(d2 >= d);
}

#[test]
fn trace_meta_supervised_declares_policy_budgets() {
    let (_, system) = build();
    let policy = strict();
    let meta = system.trace_meta_supervised(ClockKind::Nanos, &policy);
    let bounds = meta.supervision.expect("supervised meta declares bounds");
    assert_eq!(bounds.max_retries, 3);
    assert_eq!(bounds.max_restarts, u64::from(MAX_RESTARTS));
    // The bounds survive the native-format roundtrip the CI gate uses.
    let parsed = spi_repro::trace::Trace::from_native(
        &spi_repro::trace::Trace {
            meta: meta.clone(),
            events: vec![],
        }
        .to_native(),
    )
    .expect("native roundtrip");
    assert_eq!(parsed.meta.supervision, Some(bounds));
}
