//! Supervised-runner recovery semantics, driven by a scripted
//! fault-injecting [`Transport`] decorator (the same seam `spi-fault`
//! uses, scripted here instead of seeded so each test pins one
//! recovery path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spi_platform::{
    ChannelId, ChannelSpec, DegradePolicy, InjectedFault, Op, PeLocal, PlatformError, Program,
    SupervisionPolicy, ThreadedRunner, Transport, TransportError, TransportKind,
};

/// What the scripted decorator does to send attempts.
#[derive(Clone, Copy)]
enum FaultMode {
    /// Drop (fail without delivering) every attempt carrying the given
    /// frame sequence number — exhausts the sender's budget for
    /// exactly one token.
    DropSeq(u32),
    /// Drop the first attempt of the given sequence number only; the
    /// retransmission goes through.
    DropSeqOnce(u32),
    /// Deliver a corrupted copy of the first attempt of the given
    /// sequence number and report the injection; retransmission clean.
    CorruptSeqOnce(u32),
    /// Drop every attempt on the channel.
    DropAll,
}

struct FaultingTransport {
    inner: Box<dyn Transport>,
    mode: FaultMode,
    injected: AtomicU64,
}

fn frame_seq(data: &[u8]) -> u32 {
    u32::from_le_bytes(data[0..4].try_into().expect("frame header"))
}

impl Transport for FaultingTransport {
    fn capacity_bytes(&self) -> usize {
        self.inner.capacity_bytes()
    }
    fn max_message_bytes(&self) -> usize {
        self.inner.max_message_bytes()
    }
    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.inner.try_send(data)
    }
    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.inner.try_recv()
    }
    fn send(&self, data: &[u8], timeout: Duration) -> Result<(), TransportError> {
        let seq = frame_seq(data);
        match self.mode {
            FaultMode::DropSeq(target) if seq == target => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(TransportError::Injected {
                    fault: InjectedFault::Dropped,
                })
            }
            FaultMode::DropSeqOnce(target) | FaultMode::CorruptSeqOnce(target)
                if seq == target && self.injected.load(Ordering::Relaxed) == 0 =>
            {
                self.injected.fetch_add(1, Ordering::Relaxed);
                if matches!(self.mode, FaultMode::CorruptSeqOnce(_)) {
                    let mut bad = data.to_vec();
                    *bad.last_mut().expect("non-empty frame") ^= 0x5A;
                    // Best effort: if the channel is full the corrupt
                    // copy vanishes, which is also a valid fault.
                    let _ = self.inner.try_send(&bad);
                }
                Err(TransportError::Injected {
                    fault: if matches!(self.mode, FaultMode::CorruptSeqOnce(_)) {
                        InjectedFault::Corrupted
                    } else {
                        InjectedFault::Dropped
                    },
                })
            }
            FaultMode::DropAll => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(TransportError::Injected {
                    fault: InjectedFault::Dropped,
                })
            }
            _ => self.inner.send(data, timeout),
        }
    }
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.inner.send_with(len, fill, timeout)
    }
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.inner.recv_with(consume, timeout)
    }
}

/// Wraps channel 0 in a [`FaultingTransport`]; other channels pass
/// through untouched.
fn faulty_ch0(mode: FaultMode) -> Arc<spi_platform::TransportDecorator> {
    Arc::new(
        move |ch: ChannelId, inner: Box<dyn Transport>| -> Box<dyn Transport> {
            if ch.0 == 0 {
                Box::new(FaultingTransport {
                    inner,
                    mode,
                    injected: AtomicU64::new(0),
                })
            } else {
                inner
            }
        },
    )
}

const ITERS: u64 = 6;

/// Producer sending `[iter, iter, iter, iter]`, consumer folding the
/// first byte of each token into `store["acc"]`.
fn pipeline() -> (Vec<ChannelSpec>, Vec<Program>) {
    let channels = vec![ChannelSpec {
        capacity_bytes: 16,
        max_message_bytes: 4,
        ..ChannelSpec::default()
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
fn dropped_frame_is_retransmitted_byte_identically() {
    for kind in kinds() {
        let (channels, programs) = pipeline();
        let results = ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy())
            .decorate_transports(faulty_ch0(FaultMode::DropSeqOnce(2)))
            .run(&channels, programs)
            .unwrap();
        assert_eq!(results[1].store["acc"], vec![0, 1, 2, 3, 4, 5], "{kind:?}");
    }
}

#[test]
fn corrupt_frame_is_rejected_and_recovered() {
    for kind in kinds() {
        let (channels, programs) = pipeline();
        let results = ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy())
            .decorate_transports(faulty_ch0(FaultMode::CorruptSeqOnce(1)))
            .run(&channels, programs)
            .unwrap();
        // The corrupted copy is CRC-rejected by the receiver; the
        // retransmission restores the exact byte stream.
        assert_eq!(results[1].store["acc"], vec![0, 1, 2, 3, 4, 5], "{kind:?}");
    }
}

#[test]
fn fail_policy_names_the_faulted_edge() {
    for kind in kinds() {
        let (channels, programs) = pipeline();
        let err = ThreadedRunner::new()
            .transport(kind)
            .supervise(fast_policy())
            .decorate_transports(faulty_ch0(FaultMode::DropAll))
            .run(&channels, programs)
            .unwrap_err();
        match err {
            PlatformError::RetryBudgetExhausted {
                channel, attempts, ..
            } => {
                assert_eq!(channel, ChannelId(0), "{kind:?}");
                assert_eq!(attempts, 4, "first try + 3 retries ({kind:?})");
            }
            // The receiver may hit its own budget first and also names
            // the edge; under Fail either is a correct outcome.
            other => panic!("expected RetryBudgetExhausted under {kind:?}, got {other}"),
        }
    }
}

#[test]
fn substitute_policy_fills_lost_token_with_zeros() {
    for kind in kinds() {
        let (channels, programs) = pipeline();
        let results = ThreadedRunner::new()
            .transport(kind)
            .supervise(
                fast_policy()
                    .with_degrade(DegradePolicy::Substitute)
                    .with_deadline(Duration::from_millis(50)),
            )
            .decorate_transports(faulty_ch0(FaultMode::DropSeq(2)))
            .run(&channels, programs)
            .unwrap();
        // Token 2 is unrecoverable: the sender skips it after its
        // budget, the receiver sees the sequence gap and substitutes a
        // zero token shaped like the last delivered one.
        assert_eq!(results[1].store["acc"], vec![0, 1, 0, 3, 4, 5], "{kind:?}");
        assert_eq!(results[1].leftover_inbox, 0);
    }
}

#[test]
fn substitute_for_a_lost_first_token_has_the_declared_size() {
    for kind in kinds() {
        let (channels, programs) = pipeline();
        let results = ThreadedRunner::new()
            .transport(kind)
            .supervise(
                fast_policy()
                    .with_degrade(DegradePolicy::Substitute)
                    .with_deadline(Duration::from_millis(50)),
            )
            .decorate_transports(faulty_ch0(FaultMode::DropSeq(0)))
            .run(&channels, programs)
            .unwrap();
        // Nothing has been delivered yet to size the substitute from:
        // it takes the spec's 4-byte message bound, not zero bytes
        // (which the consumer would fold as 0xEE).
        assert_eq!(results[1].store["acc"], vec![0, 1, 2, 3, 4, 5], "{kind:?}");
    }
}

#[test]
fn skip_policy_drops_lost_token_and_continues() {
    for kind in kinds() {
        let (channels, programs) = pipeline();
        let results = ThreadedRunner::new()
            .transport(kind)
            .supervise(
                fast_policy()
                    .with_degrade(DegradePolicy::Skip)
                    .with_deadline(Duration::from_millis(50)),
            )
            .decorate_transports(faulty_ch0(FaultMode::DropSeq(2)))
            .run(&channels, programs)
            .unwrap();
        // The receive op where token 2 went missing delivers the next
        // arrived token instead; the final receive finds the stream
        // dry, degrades to an empty token (folded as 0xEE).
        assert_eq!(
            results[1].store["acc"],
            vec![0, 1, 3, 4, 5, 0xEE],
            "{kind:?}"
        );
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
        .supervise(fast_policy().with_restarts(2))
        .run(&channels, programs)
        .unwrap_err();
    match err {
        PlatformError::RestartBudgetExhausted { restarts, iter, .. } => {
            assert_eq!(restarts, 2);
            assert_eq!(iter, 2);
        }
        other => panic!("expected RestartBudgetExhausted, got {other}"),
    }
}

#[test]
fn unsupervised_run_surfaces_injected_fault_as_channel_fault() {
    // Without supervision nothing retries: the injection is a terminal,
    // named error — not a hang, not silent corruption.
    let (channels, programs) = pipeline();
    let err = ThreadedRunner::new()
        .timeout(Duration::from_secs(2))
        .decorate_transports(faulty_ch0(FaultMode::DropAll))
        .run(&channels, programs)
        .unwrap_err();
    match err {
        PlatformError::ChannelFault { channel, detail } => {
            assert_eq!(channel, ChannelId(0));
            assert!(detail.contains("dropped"), "{detail}");
        }
        other => panic!("expected ChannelFault, got {other}"),
    }
}

fn assert_stalled_timeout(kind: TransportKind) {
    let spec = ChannelSpec {
        capacity_bytes: 4,
        max_message_bytes: 4,
        ..ChannelSpec::default()
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
