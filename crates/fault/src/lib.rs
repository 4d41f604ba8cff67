//! # spi-fault — deterministic fault injection for SPI transports
//!
//! The supervision layer in `spi-platform` claims a strong property:
//! under its declared budgets, a run either converges to the fault-free
//! output or terminates with an error naming the faulted edge — never a
//! hang, never silent corruption. This crate supplies the adversary
//! that claim is tested against.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s — *(channel, message
//! index, kind)* triples — built explicitly or sampled from a seed
//! ([`FaultPlan::random`]). [`FaultPlan::into_decorator`] compiles the
//! plan into a [`spi_platform::TransportDecorator`]: channels named by
//! the plan are wrapped in a [`FaultyTransport`] that counts the
//! messages the PE sends and fires the planned fault when the count
//! matches, so the same plan on the same program faults the same tokens
//! every run — *schedule-indexed* determinism, independent of thread
//! timing and of whether a tracer is attached.
//!
//! ## Fault kinds and their observable contracts
//!
//! | kind | wire effect | typed signal to the sender |
//! |------|-------------|-----------------------------|
//! | [`FaultKind::Delay`] | token arrives late | none (send succeeds) |
//! | [`FaultKind::Stall`] | link stalls for a long beat | none (send succeeds) |
//! | [`FaultKind::Drop`] | token never delivered | [`InjectedFault::Dropped`] |
//! | [`FaultKind::Duplicate`] | token delivered twice | none (send succeeds) |
//! | [`FaultKind::Corrupt`] | bit-flipped copy delivered after the next message | [`InjectedFault::Corrupted`] |
//!
//! An index counts **the k-th message the PE sends on the channel**
//! (0-based), whichever send shape carries it and whichever way the
//! port reaches the transport — one blocking `send`, or the traced
//! port's `try_send` followed by `send` on `Full`; a retransmission is
//! the next message. [`FaultyTransport`] states the exact rule.
//!
//! A fault's extra frame (a duplicate, a corrupt copy) never takes a
//! slot in the channel: the receiving end makes it from the plan, as a
//! copy of the message it follows — a duplicate after its original, a
//! corrupt copy after the retransmission. So what a receiver reads, and
//! what room a sender finds, is the same on every run, and a channel
//! whose two ends are wrapped in two processes (`spi-noded --chaos`)
//! delivers the extra frame like a channel wrapped once.
//!
//! `Drop` and `Corrupt` report a typed [`TransportError::Injected`] so
//! a *supervised* sender retransmits the same sequence number (the
//! receiver's CRC check rejects the corrupt copy, its sequence dedup
//! discards the duplicate). An *unsupervised* runner surfaces the same
//! error as a terminal `ChannelFault` naming the edge — injected
//! faults are never silent.
//!
//! Every fault that fires is appended to the shared [`InjectionLog`]
//! returned alongside the decorator, so tests can assert exactly which
//! faults the run absorbed.
//!
//! ```
//! use spi_fault::{FaultKind, FaultPlan};
//! use spi_platform::ChannelId;
//!
//! let plan = FaultPlan::new()
//!     .inject(ChannelId(0), 2, FaultKind::Drop)
//!     .inject(ChannelId(0), 5, FaultKind::Corrupt);
//! let (decorator, log) = plan.into_decorator().unwrap();
//! // ThreadedRunner::new().supervise(policy).decorate_transports(decorator)…
//! # let _ = (decorator, log);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use spi_platform::rng::SplitMix64;
use spi_platform::{
    BufferPool, ChannelId, InjectedFault, Token, Transport, TransportDecorator, TransportError,
};

/// One kind of injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The token is delivered after an extra `micros` microseconds —
    /// models a transient slow link. Invisible to the sender.
    Delay {
        /// Added latency in microseconds.
        micros: u64,
    },
    /// The link stalls for `millis` milliseconds before delivering —
    /// long enough to trip receiver deadlines and exercise the retry
    /// path (or, past the retry budget, a fail-stop).
    Stall {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The token is never delivered; the sender gets
    /// [`InjectedFault::Dropped`].
    Drop,
    /// The token is delivered twice; the second copy takes no slot in
    /// the channel, so duplication never pushes occupancy past the
    /// eq. (2) bound.
    Duplicate,
    /// A copy with a flipped byte is delivered after the next message
    /// the channel accepts, and the sender gets
    /// [`InjectedFault::Corrupted`] — under supervision the
    /// retransmission is that next message, and the receiver's CRC
    /// check rejects the bad frame behind it.
    Corrupt,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Delay { micros } => write!(f, "delay({micros}µs)"),
            FaultKind::Stall { millis } => write!(f, "stall({millis}ms)"),
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Duplicate => write!(f, "duplicate"),
            FaultKind::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// One planned fault: fire `kind` on the `message_index`-th message
/// sent on `channel` (0-based; retransmissions count, so a fault at
/// index *i* can land on the retry of a fault at *i − 1*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The edge to fault.
    pub channel: ChannelId,
    /// Which message sent on that edge to fault (0-based).
    pub message_index: u64,
    /// What to do to it.
    pub kind: FaultKind,
}

/// A plan rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// Two faults target the same `(channel, message_index)` — the
    /// plan would be ambiguous.
    DuplicateTarget {
        /// The doubly-targeted channel.
        channel: ChannelId,
        /// The doubly-targeted send index.
        message_index: u64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::DuplicateTarget {
                channel,
                message_index,
            } => write!(
                f,
                "fault plan targets {channel} message {message_index} more than once"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A fault that actually fired at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord {
    /// The faulted edge.
    pub channel: ChannelId,
    /// The send index the fault fired on.
    pub message_index: u64,
    /// The fault that fired.
    pub kind: FaultKind,
}

/// Shared log of fired injections, filled by every [`FaultyTransport`]
/// the decorator created.
pub type InjectionLog = Arc<Mutex<Vec<InjectionRecord>>>;

/// A deterministic set of planned faults over a system's edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault (builder-style).
    #[must_use]
    pub fn inject(mut self, channel: ChannelId, message_index: u64, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec {
            channel,
            message_index,
            kind,
        });
        self
    }

    /// Samples `count` faults over `n_channels` edges and the first
    /// `messages` sends of each, deterministically from `seed`. Fault
    /// kinds are drawn uniformly; delays are 10–200 µs and stalls 1–3 ms,
    /// both ranges inclusive — sized to perturb scheduling without
    /// blowing sensible retry budgets (a test wanting a budget-busting
    /// stall adds it explicitly via [`FaultPlan::inject`]).
    pub fn random(seed: u64, n_channels: usize, messages: u64, count: usize) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut taken: HashSet<(usize, u64)> = HashSet::new();
        let mut plan = FaultPlan::new();
        if n_channels == 0 || messages == 0 {
            return plan;
        }
        let max_faults = (n_channels as u64 * messages).min(count as u64);
        while (plan.faults.len() as u64) < max_faults {
            let ch = rng.gen_range(0..n_channels);
            let idx = rng.gen_range(0..messages);
            if !taken.insert((ch, idx)) {
                continue;
            }
            let kind = match rng.gen_range(0..5u32) {
                0 => FaultKind::Delay {
                    micros: rng.gen_range(10..=200u64),
                },
                1 => FaultKind::Stall {
                    millis: rng.gen_range(1..=3u64),
                },
                2 => FaultKind::Drop,
                3 => FaultKind::Duplicate,
                _ => FaultKind::Corrupt,
            };
            plan = plan.inject(ChannelId(ch), idx, kind);
        }
        plan
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Rejects ambiguous plans (two faults on one `(channel, index)`).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let mut seen = HashSet::new();
        for f in &self.faults {
            if !seen.insert((f.channel, f.message_index)) {
                return Err(FaultPlanError::DuplicateTarget {
                    channel: f.channel,
                    message_index: f.message_index,
                });
            }
        }
        Ok(())
    }

    /// Compiles the plan into a transport decorator for
    /// [`spi_platform::ThreadedRunner::decorate_transports`], plus the
    /// shared log of faults that actually fire. Channels the plan does
    /// not name pass through undecorated (zero overhead).
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] when [`FaultPlan::validate`] fails.
    pub fn into_decorator(self) -> Result<(Arc<TransportDecorator>, InjectionLog), FaultPlanError> {
        self.validate()?;
        let mut by_channel: HashMap<usize, HashMap<u64, FaultKind>> = HashMap::new();
        for f in self.faults {
            by_channel
                .entry(f.channel.0)
                .or_default()
                .insert(f.message_index, f.kind);
        }
        let log: InjectionLog = Arc::new(Mutex::new(Vec::new()));
        let log_out = Arc::clone(&log);
        let decorator: Arc<TransportDecorator> = Arc::new(
            move |ch: ChannelId, inner: Box<dyn Transport>| -> Box<dyn Transport> {
                match by_channel.get(&ch.0) {
                    Some(faults) => Box::new(FaultyTransport {
                        inner,
                        channel: ch,
                        faults: faults.clone(),
                        sends: AtomicU64::new(0),
                        extras: extras_after(faults),
                        taken: AtomicU64::new(0),
                        pending: Mutex::default(),
                        log: Arc::clone(&log),
                    }),
                    None => inner,
                }
            },
        );
        Ok((decorator, log_out))
    }
}

/// A message on its way into the wrapped transport, in the form its
/// sender handed it over.
enum Msg<'a> {
    Bytes(&'a [u8]),
    Token(Token),
}

impl Msg<'_> {
    /// Passes the message on in the form it came — the decorator adds
    /// no copy to a message it does not rewrite — waiting at most
    /// `wait` for room (`None`: not at all).
    fn forward(self, to: &dyn Transport, wait: Option<Duration>) -> Result<(), TransportError> {
        match (self, wait) {
            (Msg::Bytes(data), Some(timeout)) => to.send(data, timeout),
            (Msg::Bytes(data), None) => to.try_send(data),
            (Msg::Token(token), wait) => to.send_token(token, wait.unwrap_or(Duration::ZERO)),
        }
    }
}

/// Where the plan puts each extra frame: for a count `n` of messages
/// taken out of the wrapped channel, the kinds whose frame follows the
/// `n`-th, in plan order. The fault planned for send index `k` meets the
/// `k − lost + 1`-th message the channel accepts, `lost` being the
/// drops and corruptions planned before `k` (those sends deliver
/// nothing); a duplicate follows that message, its original, and a
/// corrupt copy follows it as the retransmission. A blocking send that
/// times out also delivers nothing and moves later extras one message
/// on: they still copy the message they follow.
fn extras_after(faults: &HashMap<u64, FaultKind>) -> HashMap<u64, Vec<FaultKind>> {
    let mut planned: Vec<(u64, FaultKind)> = faults.iter().map(|(&k, &kind)| (k, kind)).collect();
    planned.sort_unstable_by_key(|&(k, _)| k);
    let mut lost = 0;
    let mut extras: HashMap<u64, Vec<FaultKind>> = HashMap::new();
    for (k, kind) in planned {
        if matches!(kind, FaultKind::Duplicate | FaultKind::Corrupt) {
            extras.entry(k - lost + 1).or_default().push(kind);
        }
        if matches!(kind, FaultKind::Drop | FaultKind::Corrupt) {
            lost += 1;
        }
    }
    extras
}

/// A [`Transport`] decorator that fires planned faults on sends,
/// indexed by the per-channel count of messages the PE has sent — every
/// send shape (bytes or token; copied, filled or framed in place;
/// blocking or not) goes through one body, so none bypasses the plan.
///
/// What an index counts: each blocking send call is one message and
/// advances the index whatever its outcome (so a retransmission is the
/// next message). A non-blocking send is the port's first attempt
/// *ahead of* its blocking call for the same message (`try_send`, then
/// `send` on `Full`): it advances the index only when the wrapped
/// transport accepts it, and when a fault is planned for the index it
/// answers `Full`, leaving the fault to fire on the blocking call that
/// follows. Either way the *k*-th message the PE sends meets the fault
/// planned for *k*.
///
/// A fault's extra frame — a [`FaultKind::Duplicate`]'s second copy, a
/// [`FaultKind::Corrupt`] copy — never takes a slot in the wrapped
/// channel, and the sending side does not make it: a duplicate is
/// delivered once, a corruption not at all. The receive methods make
/// it, from the plan alone, as a copy of the message taken out of the
/// wrapped channel that the plan puts it behind, and hand it out next:
/// a duplicate right after its original, a corrupt copy (last byte
/// flipped) right after the next message the channel accepts — under
/// supervision, its retransmission, so a receiver's CRC check rejects
/// it and its sequence dedup discards the duplicate. Sending and
/// receiving need not go through one object: a socket channel whose
/// ends are wrapped in two processes with the same plan reads the same
/// frames as a channel wrapped once.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    channel: ChannelId,
    faults: HashMap<u64, FaultKind>,
    sends: AtomicU64,
    /// The extra frames due after each count of taken messages
    /// ([`extras_after`]).
    extras: HashMap<u64, Vec<FaultKind>>,
    taken: AtomicU64,
    /// Extra frames made from the last message taken, still to hand
    /// out.
    pending: Mutex<VecDeque<Vec<u8>>>,
    log: InjectionLog,
}

impl FaultyTransport {
    /// The one send body: decides which index `msg` has, whether a
    /// fault is planned for it, and what the fault does.
    fn inject(&self, msg: Msg<'_>, wait: Option<Duration>) -> Result<(), TransportError> {
        if wait.is_none() {
            if self
                .faults
                .contains_key(&self.sends.load(Ordering::Relaxed))
            {
                return Err(TransportError::Full);
            }
            return msg.forward(&*self.inner, None).inspect(|()| {
                self.sends.fetch_add(1, Ordering::Relaxed);
            });
        }
        let message_index = self.sends.fetch_add(1, Ordering::Relaxed);
        let Some(&kind) = self.faults.get(&message_index) else {
            return msg.forward(&*self.inner, wait);
        };
        // A poisoned log still holds every record pushed before the
        // panic that poisoned it: keep appending.
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(InjectionRecord {
                channel: self.channel,
                message_index,
                kind,
            });
        match kind {
            FaultKind::Delay { micros } => {
                spi_platform::shim::sleep(Duration::from_micros(micros));
                msg.forward(&*self.inner, wait)
            }
            FaultKind::Stall { millis } => {
                spi_platform::shim::sleep(Duration::from_millis(millis));
                msg.forward(&*self.inner, wait)
            }
            // Dropping a token releases its pool slot, if any — a
            // dropped lease can never leak (the fault leak test pins
            // this down).
            FaultKind::Drop => Err(TransportError::Injected {
                fault: InjectedFault::Dropped,
            }),
            // The second copy is the receiving side's (`took`).
            FaultKind::Duplicate => msg.forward(&*self.inner, wait),
            // The sender is told, and retransmits under supervision;
            // the receiving side puts the bad copy behind that message.
            FaultKind::Corrupt => Err(TransportError::Injected {
                fault: InjectedFault::Corrupted,
            }),
        }
    }

    fn pending(&self) -> MutexGuard<'_, VecDeque<Vec<u8>>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An extra frame made from the last message taken, if one is
    /// still to hand out.
    fn due(&self) -> Option<Vec<u8>> {
        self.pending().pop_front()
    }

    /// Counts a message taken from the wrapped channel and makes the
    /// extra frames the plan puts behind it.
    fn took<T: Deref<Target = [u8]>>(
        &self,
        got: Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        let msg = got?;
        let n = self.taken.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(kinds) = self.extras.get(&n) {
            self.pending().extend(kinds.iter().map(|kind| {
                let mut frame = msg.to_vec();
                if let (FaultKind::Corrupt, Some(last)) = (kind, frame.last_mut()) {
                    *last ^= 0x5A;
                }
                frame
            }));
        }
        Ok(msg)
    }
}

impl Transport for FaultyTransport {
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

    fn snapshot(&self) -> (usize, usize) {
        self.inner.snapshot()
    }

    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.inject(Msg::Bytes(data), None)
    }

    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        match self.due() {
            Some(frame) => Ok(frame),
            None => self.took(self.inner.try_recv()),
        }
    }

    fn send(&self, data: &[u8], timeout: Duration) -> Result<(), TransportError> {
        self.inject(Msg::Bytes(data), Some(timeout))
    }

    // `send_in_place` is the trait's default, which materializes the
    // frame like this and hands the bytes to `send`.
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let mut buf = vec![0u8; len];
        fill(&mut buf);
        self.send(&buf, timeout)
    }

    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        // Through a token, so that `took` can copy the message.
        consume(&self.recv_token(timeout)?);
        Ok(())
    }

    fn send_token(&self, token: Token, timeout: Duration) -> Result<(), TransportError> {
        self.inject(Msg::Token(token), Some(timeout))
    }

    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        match self.due() {
            Some(frame) => Ok(Token::Owned(frame)),
            None => self.took(self.inner.recv_token(timeout)),
        }
    }

    fn try_recv_token(&self) -> Result<Token, TransportError> {
        match self.due() {
            Some(frame) => Ok(Token::Owned(frame)),
            None => self.took(self.inner.try_recv_token()),
        }
    }

    fn pool(&self) -> Option<&BufferPool> {
        self.inner.pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_platform::TransportKind;

    fn transport() -> Box<dyn Transport> {
        TransportKind::Locked.instantiate(&spi_platform::ChannelSpec {
            capacity_bytes: 64,
            max_message_bytes: 8,
        })
    }

    fn wrap(plan: FaultPlan) -> (Box<dyn Transport>, InjectionLog) {
        let (decorator, log) = plan.into_decorator().unwrap();
        (decorator(ChannelId(0), transport()), log)
    }

    const T: Duration = Duration::from_millis(100);

    #[test]
    fn empty_plan_leaves_channels_undecorated() {
        let (decorator, log) = FaultPlan::new().into_decorator().unwrap();
        let t = decorator(ChannelId(0), transport());
        t.send(b"hello", T).unwrap();
        assert_eq!(t.recv(T).unwrap(), b"hello");
        assert!(log.lock().unwrap().is_empty());
    }

    #[test]
    fn drop_faults_the_planned_send_only() {
        let (t, log) = wrap(FaultPlan::new().inject(ChannelId(0), 1, FaultKind::Drop));
        t.send(b"msg0", T).unwrap();
        let err = t.send(b"msg1", T).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Injected {
                fault: InjectedFault::Dropped
            }
        ));
        t.send(b"msg1-2nd", T).unwrap();
        assert_eq!(t.recv(T).unwrap(), b"msg0");
        assert_eq!(t.recv(T).unwrap(), b"msg1-2nd");
        let records = log.lock().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].message_index, 1);
        assert_eq!(records[0].kind, FaultKind::Drop);
    }

    #[test]
    fn duplicate_delivers_twice_within_capacity() {
        let (t, _log) = wrap(FaultPlan::new().inject(ChannelId(0), 0, FaultKind::Duplicate));
        t.send(b"twice", T).unwrap();
        assert_eq!(t.recv(T).unwrap(), b"twice");
        assert_eq!(t.recv(T).unwrap(), b"twice");
        assert!(t.try_recv().is_err());
    }

    #[test]
    fn corrupt_delivers_flipped_copy_and_reports() {
        let (t, _log) = wrap(FaultPlan::new().inject(ChannelId(0), 0, FaultKind::Corrupt));
        let err = t.send(b"data", T).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Injected {
                fault: InjectedFault::Corrupted
            }
        ));
        // The bad copy follows the retransmission.
        t.send(b"data", T).unwrap();
        assert_eq!(t.recv(T).unwrap(), b"data");
        let got = t.recv(T).unwrap();
        assert_eq!(got.len(), 4);
        assert_ne!(got, b"data");
        assert_eq!(got[3], b'a' ^ 0x5A);
        assert!(t.try_recv().is_err());
    }

    #[test]
    fn a_duplicate_takes_no_slot_in_the_channel() {
        let (decorator, _log) = FaultPlan::new()
            .inject(ChannelId(0), 0, FaultKind::Duplicate)
            .into_decorator()
            .unwrap();
        let two_slots = spi_platform::ChannelSpec {
            capacity_bytes: 16,
            max_message_bytes: 8,
        };
        let t = decorator(ChannelId(0), TransportKind::Locked.instantiate(&two_slots));
        t.send(&[0; 8], T).unwrap();
        t.try_send(&[1; 8])
            .expect("the duplicate took the channel's second slot");
        let got: Vec<u8> = (0..3).map(|_| t.recv(T).unwrap()[0]).collect();
        assert_eq!(got, [0, 0, 1]);
        assert!(t.try_recv().is_err());
    }

    #[test]
    fn delay_and_stall_deliver_late_but_intact() {
        let (t, log) = wrap(
            FaultPlan::new()
                .inject(ChannelId(0), 0, FaultKind::Delay { micros: 100 })
                .inject(ChannelId(0), 1, FaultKind::Stall { millis: 1 }),
        );
        t.send(b"a", T).unwrap();
        t.send(b"b", T).unwrap();
        assert_eq!(t.recv(T).unwrap(), b"a");
        assert_eq!(t.recv(T).unwrap(), b"b");
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    #[test]
    fn send_with_path_is_also_faulted() {
        let (t, _log) = wrap(FaultPlan::new().inject(ChannelId(0), 0, FaultKind::Drop));
        let err = t
            .send_with(3, &mut |buf| buf.copy_from_slice(b"abc"), T)
            .unwrap_err();
        assert!(matches!(err, TransportError::Injected { .. }));
    }

    #[test]
    fn validate_rejects_ambiguous_plans() {
        let plan = FaultPlan::new()
            .inject(ChannelId(2), 7, FaultKind::Drop)
            .inject(ChannelId(2), 7, FaultKind::Corrupt);
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::DuplicateTarget {
                channel: ChannelId(2),
                message_index: 7
            })
        );
        assert!(plan.into_decorator().is_err());
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let a = FaultPlan::random(42, 3, 100, 10);
        let b = FaultPlan::random(42, 3, 100, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        a.validate().unwrap();
        let c = FaultPlan::random(43, 3, 100, 10);
        assert_ne!(a, c, "different seeds give different plans");
        // Degenerate shapes saturate instead of looping forever.
        assert_eq!(FaultPlan::random(1, 0, 100, 10).len(), 0);
        assert_eq!(FaultPlan::random(1, 2, 2, 100).len(), 4);
    }
}
