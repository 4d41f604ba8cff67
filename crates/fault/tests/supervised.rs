//! Supervised recovery from planned faults, one recovery path per test:
//! each fault is a [`FaultPlan`] on the one edge of a two-PE pipeline,
//! injected through the runner's transport decorator. (Random plans on
//! generated systems are the generated-system oracle's fault dimension.)

use std::sync::{Arc, Mutex};
use std::time::Duration;

use spi_fault::{FaultKind, FaultPlan, InjectionLog};
use spi_platform::{
    ChannelId, ChannelSpec, Op, PeLocal, PeLocalSnapshot, PlatformError, Program,
    SupervisionPolicy, ThreadedRunner, TransportKind,
};

const ITERS: u64 = 6;

/// Producer sending `[iter, iter, iter, iter]`, consumer folding the
/// first byte of each token into `store["acc"]`.
fn pipeline() -> (Vec<ChannelSpec>, Vec<Program>) {
    let channels = vec![ChannelSpec {
        capacity_bytes: 16,
        max_message_bytes: 4,
    }];
    let producer = Program::new(
        vec![Op::Send {
            channel: ChannelId(0),
            payload: Box::new(|l: &mut PeLocal| vec![l.iter as u8; 4]),
        }],
        ITERS,
    );
    let consumer = Program::new(
        vec![
            Op::Recv {
                channel: ChannelId(0),
            },
            Op::Compute {
                label: "fold".into(),
                work: Box::new(|l: &mut PeLocal| {
                    let v = l.take_from(ChannelId(0)).expect("token");
                    let mut acc = l.store.remove("acc").unwrap_or_default();
                    acc.push(if v.is_empty() { 0xEE } else { v[0] });
                    l.store.insert("acc".into(), acc);
                    0
                }),
            },
        ],
        ITERS,
    );
    (channels, vec![producer, consumer])
}

fn kinds() -> [TransportKind; 2] {
    [TransportKind::Locked, TransportKind::Ring]
}

fn fast_policy() -> SupervisionPolicy {
    SupervisionPolicy::retry(3).with_deadline(Duration::from_millis(100))
}

/// `kind` at each of `indices` on ch0, the pipeline's one edge.
fn on_ch0(kind: FaultKind, indices: impl IntoIterator<Item = u64>) -> FaultPlan {
    let inject = |plan: FaultPlan, i| plan.inject(ChannelId(0), i, kind);
    indices.into_iter().fold(FaultPlan::new(), inject)
}

/// Runs the pipeline on `runner` with `plan` injected.
fn run(
    runner: ThreadedRunner,
    plan: FaultPlan,
) -> (Result<Vec<PeLocalSnapshot>, PlatformError>, InjectionLog) {
    let (decorator, log) = plan.into_decorator().expect("valid plan");
    let (channels, programs) = pipeline();
    let outcome = runner
        .decorate_transports(decorator)
        .run(&channels, programs);
    (outcome, log)
}

fn supervised(kind: TransportKind, policy: SupervisionPolicy, plan: FaultPlan) -> PeLocalSnapshot {
    let runner = ThreadedRunner::new().transport(kind).supervise(policy);
    let (outcome, _) = run(runner, plan);
    outcome
        .unwrap_or_else(|e| panic!("{kind:?}: {e}"))
        .remove(1)
}

#[test]
fn dropped_frame_is_retransmitted_byte_identically() {
    for kind in kinds() {
        let consumer = supervised(kind, fast_policy(), on_ch0(FaultKind::Drop, [2]));
        assert_eq!(consumer.store["acc"], vec![0, 1, 2, 3, 4, 5], "{kind:?}");
    }
}

#[test]
fn corrupt_frame_is_rejected_and_recovered() {
    for kind in kinds() {
        let consumer = supervised(kind, fast_policy(), on_ch0(FaultKind::Corrupt, [1]));
        // The corrupted copy is CRC-rejected by the receiver; the
        // retransmission restores the exact byte stream.
        assert_eq!(consumer.store["acc"], vec![0, 1, 2, 3, 4, 5], "{kind:?}");
    }
}

#[test]
fn fail_policy_names_the_faulted_edge() {
    for kind in kinds() {
        // Every send the run can reach is dropped.
        let plan = on_ch0(FaultKind::Drop, 0..ITERS * 4);
        let runner = ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy());
        match run(runner, plan).0.unwrap_err() {
            PlatformError::RetryBudgetExhausted {
                channel, attempts, ..
            } => {
                assert_eq!(channel, ChannelId(0), "{kind:?}");
                assert_eq!(attempts, 4, "first try + 3 retries ({kind:?})");
            }
            // The receiver may hit its own budget first and also names
            // the edge; either is a correct outcome.
            other => panic!("expected RetryBudgetExhausted under {kind:?}, got {other}"),
        }
    }
}

/// Two receives in one iteration, then a firing that panics once after
/// both: the restart replays the two tokens from the checkpoint's byte
/// log, and the firing sees exactly the bytes it saw before the panic
/// — pooled tokens (`Pointer`) and tokens of unequal length included.
#[test]
fn restart_replays_two_receives_byte_identically() {
    let a = |i: u64| vec![i as u8, 0xA1, 0xA2, 0xA3];
    let b = |i: u64| vec![!(i as u8), 0x5B];
    for kind in [TransportKind::Ring, TransportKind::Pointer] {
        let spec = ChannelSpec {
            capacity_bytes: 16,
            max_message_bytes: 4,
        };
        let producer = Program::new(
            vec![
                Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(move |l: &mut PeLocal| a(l.iter)),
                },
                Op::Send {
                    channel: ChannelId(1),
                    payload: Box::new(move |l: &mut PeLocal| b(l.iter)),
                },
            ],
            ITERS,
        );
        let seen = Arc::new(Mutex::new(Vec::new()));
        let firings = Arc::clone(&seen);
        let mut panicked = false;
        let consumer = Program::new(
            vec![
                Op::Recv {
                    channel: ChannelId(0),
                },
                Op::Recv {
                    channel: ChannelId(1),
                },
                Op::Compute {
                    label: "fire".into(),
                    work: Box::new(move |l: &mut PeLocal| {
                        let got_a = l.take_from(ChannelId(0)).expect("token on ch0");
                        let got_b = l.take_from(ChannelId(1)).expect("token on ch1");
                        firings.lock().unwrap().push((l.iter, got_a, got_b));
                        if l.iter == 3 && !panicked {
                            panicked = true;
                            panic!("transient fault after both receives");
                        }
                        0
                    }),
                },
            ],
            ITERS,
        );
        ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy())
            .run(&[spec, spec], vec![producer, consumer])
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        // Every iteration fires once, iteration 3 twice: the pass that
        // panicked and its replay.
        let want: Vec<_> = (0..ITERS)
            .flat_map(|i| std::iter::repeat_n(i, if i == 3 { 2 } else { 1 }))
            .map(|i| (i, a(i), b(i)))
            .collect();
        assert_eq!(*seen.lock().unwrap(), want, "{kind:?}");
    }
}

#[test]
fn unsupervised_run_surfaces_injected_fault_as_channel_fault() {
    // Without supervision nothing retries: the injection is a terminal,
    // named error — not a hang, not silent corruption.
    let runner = ThreadedRunner::new().timeout(Duration::from_secs(2));
    let (outcome, _) = run(runner, on_ch0(FaultKind::Drop, 0..ITERS));
    match outcome.unwrap_err() {
        PlatformError::ChannelFault { channel, detail } => {
            assert_eq!(channel, ChannelId(0));
            assert!(detail.contains("dropped"), "{detail}");
        }
        other => panic!("expected ChannelFault, got {other}"),
    }
}

/// The deterministic error path: on a 2-PE system the only edge is
/// ch0, so a stall longer than the whole retry budget (3 attempts of
/// 100 ms) must surface as a supervision error naming exactly that edge.
#[test]
fn budget_busting_stall_names_the_only_edge() {
    let policy = SupervisionPolicy::retry(2).with_deadline(Duration::from_millis(100));
    for kind in kinds() {
        let plan = on_ch0(FaultKind::Stall { millis: 400 }, [2]);
        let runner = ThreadedRunner::new().transport(kind).supervise(policy);
        let (outcome, log) = run(runner, plan);
        let err = outcome.unwrap_err();
        match &err {
            PlatformError::RetryBudgetExhausted { channel, .. }
            | PlatformError::TokensLost { channel, .. } => {
                assert_eq!(*channel, ChannelId(0), "{kind:?}: {err}");
            }
            other => panic!("expected supervision error under {kind:?}, got {other}"),
        }
        assert!(err.to_string().contains("ch0"), "{err}");
        let fired = log.lock().unwrap();
        assert_eq!(fired.len(), 1, "exactly the planned stall fired");
        assert_eq!(fired[0].channel, ChannelId(0));
    }
}
