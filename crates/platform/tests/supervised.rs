//! Supervised-runner semantics without injected faults: the fault-free
//! run, checkpoint restarts, and deadline misses. (Recovery from injected
//! transport faults is `spi-fault`'s `tests/supervised.rs`.)

use std::time::Duration;

use spi_platform::{
    ChannelId, ChannelSpec, Op, PeLocal, PlatformError, Program, SupervisionPolicy, ThreadedRunner,
    TransportError, TransportKind,
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

#[test]
fn supervised_fault_free_matches_unsupervised() {
    for kind in kinds() {
        let (channels, programs) = pipeline();
        let plain = ThreadedRunner::new()
            .transport(kind)
            .timeout(Duration::from_secs(5))
            .run(&channels, programs)
            .unwrap();
        let (channels, programs) = pipeline();
        let supervised = ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy())
            .run(&channels, programs)
            .unwrap();
        assert_eq!(plain[1].store, supervised[1].store, "{kind:?}");
        assert_eq!(supervised[1].leftover_inbox, 0);
    }
}

#[test]
fn panicking_compute_restarts_from_checkpoint_byte_identically() {
    for kind in kinds() {
        let (channels, mut programs) = pipeline();
        // Consumer panics once, mid-iteration 3, after the recv landed.
        let mut panicked = false;
        programs[1].ops.push(Op::Compute {
            label: "maybe-panic".into(),
            work: Box::new(move |l: &mut PeLocal| {
                if l.iter == 3 && !panicked {
                    panicked = true;
                    panic!("transient fault");
                }
                0
            }),
        });
        let results = ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy())
            .run(&channels, programs)
            .unwrap();
        // The iteration rolled back to its checkpoint and replayed the
        // received token from the local log — no token consumed twice,
        // no byte diverges.
        assert_eq!(results[1].store["acc"], vec![0, 1, 2, 3, 4, 5], "{kind:?}");
    }
}

#[test]
fn panicking_producer_does_not_retransmit_completed_sends() {
    for kind in kinds() {
        let (channels, mut programs) = pipeline();
        // Producer panics once after its iteration-3 send completed;
        // the replay must *not* re-send (a duplicate would shift every
        // later token).
        let mut panicked = false;
        programs[0].ops.push(Op::Compute {
            label: "maybe-panic".into(),
            work: Box::new(move |l: &mut PeLocal| {
                if l.iter == 3 && !panicked {
                    panicked = true;
                    panic!("transient fault after send");
                }
                0
            }),
        });
        let results = ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy())
            .run(&channels, programs)
            .unwrap();
        assert_eq!(results[1].store["acc"], vec![0, 1, 2, 3, 4, 5], "{kind:?}");
        assert_eq!(results[1].leftover_inbox, 0);
    }
}

#[test]
fn restart_budget_exhaustion_is_fatal_and_descriptive() {
    let (channels, mut programs) = pipeline();
    programs[1].ops.push(Op::Compute {
        label: "always-panic".into(),
        work: Box::new(|l: &mut PeLocal| {
            if l.iter == 2 {
                panic!("permanent fault");
            }
            0
        }),
    });
    let err = ThreadedRunner::new()
        .supervise(fast_policy())
        .run(&channels, programs)
        .unwrap_err();
    match err {
        PlatformError::RestartBudgetExhausted { restarts, iter, .. } => {
            assert_eq!(restarts, spi_platform::MAX_RESTARTS);
            assert_eq!(iter, 2);
        }
        other => panic!("expected RestartBudgetExhausted, got {other}"),
    }
}

fn assert_stalled_timeout(kind: TransportKind) {
    let spec = ChannelSpec {
        capacity_bytes: 4,
        max_message_bytes: 4,
    };
    let t = kind.instantiate(&spec);
    t.send(&[1, 2, 3, 4], Duration::from_millis(10)).unwrap();
    let err = t
        .send(&[5, 6, 7, 8], Duration::from_millis(50))
        .unwrap_err();
    match err {
        TransportError::Timeout { after, idle } => {
            assert_eq!(after, Duration::from_millis(50), "{kind:?}");
            // Nobody drained the channel, so the peer was idle for
            // (at least) the whole wait.
            assert!(idle >= Duration::from_millis(50), "{kind:?}: idle {idle:?}");
        }
        other => panic!("expected Timeout under {kind:?}, got {other}"),
    }
}

#[test]
fn stalled_channel_timeout_reports_peer_idle_time() {
    // A deadline miss distinguishes "peer alive but slow" from "peer
    // dead": the error carries how long the peer showed no progress.
    //
    // With the instrumentation seam compiled in, the deadline waits on
    // the simulator's virtual clock: the 50ms assertion is exact and
    // costs no wall time. The locked transport is the uninstrumented
    // raw-std baseline by design, so it (and the no-feature build)
    // keeps the wall-clock variant.
    #[cfg(feature = "verify-shim")]
    {
        let r = spi_platform::model::run(&spi_platform::model::SimOptions::seeded(17), || {
            assert_stalled_timeout(TransportKind::Ring)
        });
        assert!(r.failure.is_none(), "sim run failed: {:?}", r.failure);
        assert!(
            r.vtime >= Duration::from_millis(50),
            "deadline must wait on the virtual clock, vtime {:?}",
            r.vtime
        );
        assert_stalled_timeout(TransportKind::Locked);
    }
    #[cfg(not(feature = "verify-shim"))]
    for kind in kinds() {
        assert_stalled_timeout(kind);
    }
}
