//! Threaded functional runner — a concurrency cross-check for the DES.
//!
//! The discrete-event engine in [`crate::sim`] is deterministic; this
//! runner executes the *same* PE programs on real OS threads connected by
//! pluggable [`Transport`] channels. It carries no notion of simulated
//! time — its purpose is to validate that protocol logic (blocking sends
//! and receives, message ordering per channel) is correct under genuine
//! parallel, racy execution, not just under the event queue's
//! serialization. Integration tests run both engines on the same
//! programs and compare the functional outputs.
//!
//! Channel capacity is accounted in **bytes**, matching the DES and the
//! paper's eq. (2) buffer bounds. The transport implementation is chosen
//! per run via [`ThreadedRunner::transport`]: the `Mutex`+`Condvar`
//! reference queue, or the lock-free ring sized to the static bound.
//!
//! There is one executor, [`run_pes`]: it walks each PE's ops through a
//! [`Port`], and whether a run is supervised only decides which port
//! that is ([`Direct`] here, `Supervised` in [`crate::supervise`]).
//!
//! A traced PE reads the clock only where something finished or a wait
//! changed: a `Recv` after the take, a `FiringEnd`, a `Block*` /
//! `Unblock*` edge, a fault event, and the PE's first event. A `Send`
//! and a `FiringBegin` carry the stamp of the PE's last event, which is
//! when the walk started the op — the stamp the DES gives both. So a
//! `[Send, Recv, Compute]` iteration reads the clock twice, each PE's
//! stream is non-decreasing by construction, and a `Send` that did not
//! wait is stamped before its push, hence no later than the `Recv` of
//! its message (see [`PeIo::record`]).

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::error::{BlockKind, BlockedOp, PlatformError, Result};
use crate::pool::Token;
use crate::sim::{ChannelId, ChannelSpec, ComputeFn, Op, PeId, PeLocal, PeLocalSnapshot, Program};
use crate::supervise::{framed_spec, Checkpointed, SupervisionPolicy};
use crate::trace::{payload_digest, ProbeKind, Tracer};
use crate::transport::{Transport, TransportError, TransportKind};

/// A hook wrapping each channel's [`Transport`] after instantiation —
/// the seam fault injectors (`spi-fault`) and other instrumenting
/// decorators plug into. Called once per channel with the channel id
/// and the transport the runner built (the framed transport when
/// supervision is on, so injected corruption hits real frame bytes).
pub type TransportDecorator =
    dyn Fn(ChannelId, Box<dyn Transport>) -> Box<dyn Transport> + Send + Sync;

/// Default bound on every blocking channel operation before the runner
/// declares a deadlock. Generous: real systems block for microseconds,
/// so half a minute of no progress is unambiguous even on a loaded CI
/// machine.
pub const DEFAULT_DEADLOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// Builder-style configuration for threaded execution.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use spi_platform::{ChannelSpec, ChannelId, Op, Program, ThreadedRunner, TransportKind};
///
/// let channels = vec![ChannelSpec::default()];
/// let producer = Program::new(vec![Op::Send {
///     channel: ChannelId(0),
///     payload: Box::new(|_| vec![42u8; 4]),
/// }], 3);
/// let consumer = Program::new(vec![Op::Recv { channel: ChannelId(0) }], 3);
/// let results = ThreadedRunner::new()
///     .transport(TransportKind::Ring)
///     .timeout(Duration::from_secs(5))
///     .run(&channels, vec![producer, consumer])?;
/// assert_eq!(results[1].leftover_inbox, 3);
/// # Ok::<(), spi_platform::PlatformError>(())
/// ```
#[derive(Clone)]
pub struct ThreadedRunner {
    kind: TransportKind,
    timeout: Duration,
    tracer: Option<Arc<dyn Tracer>>,
    supervision: Option<SupervisionPolicy>,
    decorator: Option<Arc<TransportDecorator>>,
}

impl fmt::Debug for ThreadedRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedRunner")
            .field("kind", &self.kind)
            .field("timeout", &self.timeout)
            .field("tracer", &self.tracer.is_some())
            .field("supervision", &self.supervision)
            .field("decorator", &self.decorator.is_some())
            .finish()
    }
}

impl Default for ThreadedRunner {
    fn default() -> Self {
        ThreadedRunner {
            kind: TransportKind::default(),
            timeout: DEFAULT_DEADLOCK_TIMEOUT,
            tracer: None,
            supervision: None,
            decorator: None,
        }
    }
}

impl ThreadedRunner {
    /// A runner with the default transport ([`TransportKind::Locked`])
    /// and deadlock timeout ([`DEFAULT_DEADLOCK_TIMEOUT`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the transport implementation used for every channel.
    #[must_use]
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the deadlock timeout bounding each blocking channel
    /// operation.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attaches a [`Tracer`] probe sink: every PE thread emits firing
    /// begin/end, send/receive (with payload digest and post-op channel
    /// occupancy) and block/unblock events through it, timestamped with
    /// [`Tracer::now`] (monotonic nanoseconds) — read where an event
    /// finished something, while a send and a firing's begin carry their
    /// PE's last stamp (module docs). Blocking detection works
    /// by attempting the non-blocking variant first, so a tracer whose
    /// [`Tracer::enabled`] is `false` keeps the untraced fast path.
    #[must_use]
    pub fn tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables supervised execution: every message travels in a
    /// CRC-checked, sequence-numbered frame; transient channel failures
    /// (injected faults, per-op deadline misses) are retried with
    /// exponential backoff inside the policy's budgets; a token the
    /// budget cannot recover stops the run with a typed error; and a
    /// compute closure that panics rolls its PE back to the
    /// iteration-boundary checkpoint and replays (receives from a local
    /// log, transmitted sends not re-sent), up to [`crate::MAX_RESTARTS`]
    /// times. All fault handling
    /// is emitted through the attached [`Tracer`] as `Fault*` events.
    ///
    /// Under supervision, the policy's `op_deadline` replaces the
    /// runner [`ThreadedRunner::timeout`] for channel operations, and
    /// block/unblock probe events are not emitted (retry events take
    /// their place).
    #[must_use]
    pub fn supervise(mut self, policy: SupervisionPolicy) -> Self {
        self.supervision = Some(policy);
        self
    }

    /// Installs a [`TransportDecorator`] wrapping each channel's
    /// transport after instantiation — the hook `spi-fault` uses to
    /// inject deterministic faults on selected edges.
    #[must_use]
    pub fn decorate_transports(mut self, decorator: Arc<TransportDecorator>) -> Self {
        self.decorator = Some(decorator);
        self
    }

    /// Executes `programs` on OS threads over `channels`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Deadlock`] once any thread's blocking operation
    /// times out; [`PlatformError::MessageExceedsCapacity`] when a
    /// payload exceeds the channel's per-message bound;
    /// [`PlatformError::ZeroCapacity`] for unusable channels (no
    /// capacity, or no declared message bound).
    pub fn run(
        &self,
        channels: &[ChannelSpec],
        programs: Vec<Program>,
    ) -> Result<Vec<PeLocalSnapshot>> {
        let instantiate = |(i, spec): (usize, &ChannelSpec)| {
            // Supervision inflates the physical spec by one frame
            // header per slot; the decorator wraps the result so
            // injected corruption hits real frame bytes.
            let framed = self.supervision.map(|_| framed_spec(spec));
            let transport = self.kind.instantiate(framed.as_ref().unwrap_or(spec));
            match &self.decorator {
                Some(d) => d(ChannelId(i), transport),
                None => transport,
            }
        };
        self.launch(channels, programs, || {
            channels.iter().enumerate().map(instantiate).collect()
        })
    }

    /// As [`ThreadedRunner::run`], over **pre-built** channel endpoints
    /// instead of transports instantiated from the configured
    /// [`TransportKind`] — the seam a distributed deployment (`spi-net`)
    /// uses to mix in-memory rings for intra-node channels with socket
    /// endpoints for cross-node channels. `endpoints[i]` serves
    /// `ChannelId(i)`; `channels` still describes the logical specs (for
    /// supervision bookkeeping and the zero-capacity guard). Under
    /// supervision the caller must size each endpoint with
    /// [`crate::framed_spec`]; the configured transport decorator is
    /// *not* applied here — callers wrap endpoints themselves.
    ///
    /// # Errors
    ///
    /// As [`ThreadedRunner::run`].
    pub fn run_with_endpoints(
        &self,
        channels: &[ChannelSpec],
        endpoints: Vec<Box<dyn Transport>>,
        programs: Vec<Program>,
    ) -> Result<Vec<PeLocalSnapshot>> {
        self.launch(channels, programs, || endpoints)
    }

    /// Checks the specs, takes the endpoints (built only once the specs
    /// are known to be usable) and runs the programs through the port
    /// the configuration selects.
    fn launch(
        &self,
        channels: &[ChannelSpec],
        programs: Vec<Program>,
        endpoints: impl FnOnce() -> Vec<Box<dyn Transport>>,
    ) -> Result<Vec<PeLocalSnapshot>> {
        if let Some(i) = channels.iter().position(|c| !c.is_usable()) {
            return Err(PlatformError::ZeroCapacity {
                channel: ChannelId(i),
            });
        }
        let endpoints = endpoints();
        assert_eq!(channels.len(), endpoints.len(), "one endpoint per spec");
        // Resolve the tracer once: a disabled tracer takes the untraced
        // code path everywhere (emitters check a plain Option).
        let probe = self.tracer.as_deref().filter(|t| t.enabled());
        let (endpoints, timeout) = (endpoints.as_slice(), self.timeout);
        match self.supervision {
            None => run_pes(channels, endpoints, probe, programs, |io| Direct {
                io,
                timeout,
            }),
            Some(policy) => run_pes(channels, endpoints, probe, programs, |io| {
                Checkpointed::new(io, policy)
            }),
        }
    }
}

/// One PE's view of a run: its id, the channels' logical specs and
/// endpoints, the probe sink, the stamp of the PE's last event and the
/// wakes its quiet sends owe. Every port owns one.
pub(crate) struct PeIo<'a> {
    pub(crate) pe: PeId,
    pub(crate) specs: &'a [ChannelSpec],
    pub(crate) endpoints: &'a [Box<dyn Transport>],
    pub(crate) probe: Option<&'a dyn Tracer>,
    /// The stamp of the last event this PE recorded; `None` before its
    /// first.
    last: Option<u64>,
    /// The channels this PE published on quietly and has not woken
    /// since, each once, in publishing order.
    owed: Vec<ChannelId>,
}

impl<'a> PeIo<'a> {
    fn new(
        pe: PeId,
        specs: &'a [ChannelSpec],
        endpoints: &'a [Box<dyn Transport>],
        probe: Option<&'a dyn Tracer>,
    ) -> Self {
        PeIo {
            pe,
            specs,
            endpoints,
            probe,
            last: None,
            owed: Vec::new(),
        }
    }

    /// The first attempt of every send: publishes `data` on `channel`
    /// without waking its consumer and owes the channel that wake. An
    /// attempt that does not go through is followed by a wait or an
    /// error, so the PE pays what it owes first (DESIGN §9, "Who wakes
    /// whom").
    pub(crate) fn send_quiet(
        &mut self,
        channel: ChannelId,
        data: &[u8],
    ) -> std::result::Result<(), TransportError> {
        let sent = self.endpoints[channel.0].try_send_quiet(data);
        match sent {
            Ok(()) if !self.owed.contains(&channel) => self.owed.push(channel),
            Ok(()) => {}
            Err(_) => self.pay(),
        }
        sent
    }

    /// Wakes every channel this PE owes a wake, each once. The walk
    /// calls it before any op that can wait or fail and when its op
    /// list ends; a send calls it before its blocking fallback.
    pub(crate) fn pay(&mut self) {
        for channel in &self.owed {
            self.endpoints[channel.0].wake();
        }
        self.owed.clear();
    }

    /// Records `kind` at `at`, which becomes the PE's last stamp.
    fn record_at(&mut self, t: &dyn Tracer, at: u64, kind: ProbeKind) {
        self.last = Some(at);
        t.record(self.pe, at, kind);
    }

    /// Records `kind` under the stamping rule: a `Send` or a
    /// `FiringBegin` carries the stamp of the PE's last event — the walk
    /// started the op then, and a `Send` that did not wait pushed after
    /// it — and every other event, or a PE's first, reads the clock.
    /// A `Send` that recorded a wait carries its `UnblockSend` stamp,
    /// taken after the push.
    #[inline]
    fn record(&mut self, t: &dyn Tracer, kind: ProbeKind) {
        let at = match (kind, self.last) {
            (ProbeKind::Send { .. } | ProbeKind::FiringBegin { .. }, Some(last)) => last,
            _ => t.now(),
        };
        self.record_at(t, at, kind);
    }

    pub(crate) fn emit(&mut self, kind: ProbeKind) {
        if let Some(t) = self.probe {
            self.emit_traced(t, kind);
        }
    }

    // Kept out of line so that the walk's untraced firing edges stay one
    // branch each: inlined, the stamping rule slowed the bare `selfloop8`
    // walk by ≈ 2 % (EXPERIMENTS.md, "Stamps where something finished").
    #[inline(never)]
    fn emit_traced(&mut self, t: &dyn Tracer, kind: ProbeKind) {
        self.record(t, kind);
    }

    /// Records the Send / Recv event for `data` having moved through
    /// `channel`. `header` is what each buffered message carries beyond
    /// its logical payload (the supervision frame header, or nothing),
    /// so the occupancies reported are the logical ones the analyzer's
    /// bounds are about.
    pub(crate) fn moved(
        &mut self,
        t: &dyn Tracer,
        dir: BlockKind,
        channel: ChannelId,
        data: &[u8],
        header: usize,
    ) {
        let (occ_bytes, occ_msgs) = self.endpoints[channel.0].snapshot();
        let occ_bytes = occ_bytes.saturating_sub(occ_msgs * header) as u32;
        let (occ_msgs, bytes) = (occ_msgs as u32, data.len() as u32);
        let digest = payload_digest(data);
        let kind = match dir {
            BlockKind::Send => ProbeKind::Send {
                channel,
                bytes,
                digest,
                occ_bytes,
                occ_msgs,
            },
            BlockKind::Recv => ProbeKind::Recv {
                channel,
                bytes,
                digest,
                occ_bytes,
                occ_msgs,
            },
        };
        self.record(t, kind);
    }

    /// Maps a transport failure nothing will retry to the platform
    /// error space. `bytes` is the logical size of the payload being
    /// sent (0 on the receive side).
    pub(crate) fn failed(
        &self,
        channel: ChannelId,
        kind: BlockKind,
        err: &TransportError,
        bytes: usize,
    ) -> PlatformError {
        match err {
            // The deadlock timeout: one entry of the run's report.
            &TransportError::Timeout { idle, .. } => {
                let ep = &self.endpoints[channel.0];
                let op = BlockedOp {
                    pe: self.pe,
                    channel,
                    kind,
                    occupied_bytes: ep.len_bytes(),
                    occupied_messages: ep.occupancy(),
                    capacity_bytes: ep.capacity_bytes(),
                    idle: Some(idle),
                };
                PlatformError::Deadlock {
                    blocked: vec![op.pe],
                    detail: vec![op],
                }
            }
            TransportError::TooLarge { .. } => PlatformError::MessageExceedsCapacity {
                channel,
                bytes,
                capacity: self.specs[channel.0].capacity_bytes,
            },
            // Without supervision nothing retries an injected fault, so
            // it surfaces as an unrecovered channel fault naming the
            // edge.
            other => PlatformError::ChannelFault {
                channel,
                detail: other.to_string(),
            },
        }
    }
}

/// What the walk does after a compute op.
#[derive(PartialEq, Eq)]
pub(crate) enum Flow {
    Next,
    /// The op list is run again from its first op (a rolled-back
    /// iteration).
    Restart,
}

/// How one PE moves tokens and fires actors. The op walk in
/// [`run_pes`] is written once against this; what differs between an
/// unsupervised and a supervised run is only the port.
pub(crate) trait Port<'a> {
    /// Transmits one logical token. Its first attempt is
    /// [`PeIo::send_quiet`].
    fn send(&mut self, channel: ChannelId, data: &[u8]) -> Result<()>;

    /// Receives one logical token.
    fn recv(&mut self, channel: ChannelId) -> Result<Token>;

    /// Fires a compute closure.
    fn compute(&mut self, work: &mut ComputeFn, local: &mut PeLocal) -> Result<Flow> {
        let _cycles = work(local);
        Ok(Flow::Next)
    }

    /// An iteration of the program's loop is about to start.
    fn begin_iteration(&mut self, _local: &PeLocal) {}

    /// The port's [`PeIo`]: the walk records its firing edges and pays
    /// the owed wakes through it.
    fn io(&mut self) -> &mut PeIo<'a>;
}

/// The one PE executor: a named thread per program, firing labels
/// interned up front, the prologue and then the iterations walked op by
/// op through the port `make_port` builds for each PE, results and
/// errors collected.
fn run_pes<'a, P: Port<'a>>(
    specs: &'a [ChannelSpec],
    endpoints: &'a [Box<dyn Transport>],
    probe: Option<&'a dyn Tracer>,
    programs: Vec<Program>,
    make_port: impl Fn(PeIo<'a>) -> P + Sync,
) -> Result<Vec<PeLocalSnapshot>> {
    // A PE thread only pushes to `errors`, so a poisoned lock still
    // holds every error pushed before the panic.
    let errors: Mutex<Vec<PlatformError>> = Mutex::new(Vec::new());
    let mut results = vec![PeLocalSnapshot::default(); programs.len()];

    crate::shim::scope(|scope| {
        let pes = programs.into_iter().zip(results.iter_mut()).enumerate();
        for (idx, (mut program, result)) in pes {
            let (errors, make_port) = (&errors, &make_port);
            // Firing labels are static across iterations; intern them
            // up front so the hot loop never touches the tracer's
            // (locking) intern table.
            let intern = |ops: &[Op]| -> Vec<u32> {
                let label = |op: &Op| match (op, probe) {
                    (Op::Compute { label, .. }, Some(t)) => t.intern(label),
                    _ => 0,
                };
                ops.iter().map(label).collect()
            };
            let labels = (intern(&program.prologue), intern(&program.ops));
            scope.spawn_named(format!("pe{idx}"), move || {
                let mut port = make_port(PeIo::new(PeId(idx), specs, endpoints, probe));
                let mut local = PeLocal::default();
                let mut walk = || -> Result<()> {
                    // Prologue ops run before the first iteration
                    // boundary; nothing restarts them.
                    run_ops(&mut port, &mut program.prologue, &labels.0, &mut local)?;
                    for iter in 0..program.iterations {
                        local.iter = iter;
                        port.begin_iteration(&local);
                        while run_ops(&mut port, &mut program.ops, &labels.1, &mut local)?
                            == Flow::Restart
                        {}
                    }
                    Ok(())
                };
                if let Err(err) = walk() {
                    let mut errors = errors.lock().unwrap_or_else(PoisonError::into_inner);
                    errors.push(err);
                }
                *result = PeLocalSnapshot::from(local);
            });
        }
    });

    // Every PE that ran into the deadlock timeout is one entry of a
    // single report; any other error fails the run by itself, first
    // come first.
    let (mut blocked, mut detail) = (Vec::new(), Vec::new());
    for err in errors.into_inner().unwrap_or_else(PoisonError::into_inner) {
        match err {
            PlatformError::Deadlock {
                blocked: b,
                detail: d,
            } => {
                blocked.extend(b);
                detail.extend(d);
            }
            other => return Err(other),
        }
    }
    if !blocked.is_empty() {
        return Err(PlatformError::Deadlock { blocked, detail });
    }
    Ok(results)
}

/// Runs `ops` once, in order. `labels` is parallel to `ops` (id 0 for
/// everything but compute ops). A send publishes quietly and owes its
/// consumer a wake; the PE pays what it owes before an op that can wait
/// or fail and when the list ends, so a run of consecutive sends wakes
/// each of its consumers once, after its last publish.
fn run_ops<'a, P: Port<'a>>(
    port: &mut P,
    ops: &mut [Op],
    labels: &[u32],
    local: &mut PeLocal,
) -> Result<Flow> {
    for (op, &label) in ops.iter_mut().zip(labels) {
        match op {
            Op::Compute { work, .. } => {
                let io = port.io();
                io.pay();
                io.emit(ProbeKind::FiringBegin { label });
                if port.compute(work, local)? == Flow::Restart {
                    return Ok(Flow::Restart);
                }
                port.io().emit(ProbeKind::FiringEnd { label });
            }
            Op::Send { channel, payload } => {
                let data = payload(local);
                port.send(*channel, &data)?;
            }
            Op::Recv { channel } => {
                port.io().pay();
                let token = port.recv(*channel)?;
                local.inbox.push_back((*channel, token));
            }
            // The functional runner has no simulated clock.
            Op::WaitUntil { .. } => {}
        }
    }
    port.io().pay();
    Ok(Flow::Next)
}

/// Shortest wait worth recording as a Block/Unblock event pair, in
/// nanoseconds. A failed non-blocking attempt that the blocking retry
/// resolves within this window is a claim race, not a stall — recording
/// every such blip on a fast pipeline doubles the event volume (and its
/// cost) without telling the trace reader anything. Genuine
/// backpressure parks the thread for multiple microseconds and is
/// always captured.
const STALL_RECORD_NS: u64 = 1_000;

/// The unsupervised [`Port`]: a send is a quiet publish and, on
/// `Full`, one blocking call; a receive is one blocking call. Each
/// blocking call is bounded by the deadlock timeout.
struct Direct<'a> {
    io: PeIo<'a>,
    timeout: Duration,
}

impl Direct<'_> {
    /// The traced form of a blocking channel op. The non-blocking
    /// variant went first and came to `attempt`: a `Full` / `Empty`
    /// answer marks the block edge, and the Block/Unblock pair is
    /// emitted retroactively once the blocking call resolves — but only
    /// when the wait reached [`STALL_RECORD_NS`]. (Without a probe a
    /// receive is the single blocking call and a send the same quiet
    /// publish, so tracing costs nothing when disabled.)
    // Kept out of line (and `send` / `recv` marked for inlining) so that
    // an untraced op stays small enough to be inlined into the walk: on
    // `selfloop8` the difference is 4 ns of a 106 ns iteration.
    #[inline(never)]
    fn stalling<T>(
        &mut self,
        t: &dyn Tracer,
        channel: ChannelId,
        dir: BlockKind,
        attempt: std::result::Result<T, TransportError>,
        block: impl FnOnce() -> std::result::Result<T, TransportError>,
    ) -> std::result::Result<T, TransportError> {
        if !matches!(attempt, Err(TransportError::Full | TransportError::Empty)) {
            return attempt;
        }
        let (stalled, resumed) = match dir {
            BlockKind::Send => (
                ProbeKind::BlockSend { channel },
                ProbeKind::UnblockSend { channel },
            ),
            BlockKind::Recv => (
                ProbeKind::BlockRecv { channel },
                ProbeKind::UnblockRecv { channel },
            ),
        };
        let blocked_at = t.now();
        let res = block();
        if res.is_err() {
            // Never resumed: keep the block edge so the trace shows
            // where the PE was stuck.
            self.io.record_at(t, blocked_at, stalled);
            return res;
        }
        let resumed_at = t.now();
        if resumed_at.saturating_sub(blocked_at) >= STALL_RECORD_NS {
            self.io.record_at(t, blocked_at, stalled);
            self.io.record_at(t, resumed_at, resumed);
        }
        res
    }
}

impl<'a> Port<'a> for Direct<'a> {
    #[inline]
    fn send(&mut self, channel: ChannelId, data: &[u8]) -> Result<()> {
        let (ep, timeout, dir) = (&self.io.endpoints[channel.0], self.timeout, BlockKind::Send);
        let sent = match (self.io.send_quiet(channel, data), self.io.probe) {
            (Err(TransportError::Full), None) => ep.send(data, timeout),
            (attempt, None) => attempt,
            (attempt, Some(t)) => self
                .stalling(t, channel, dir, attempt, || ep.send(data, timeout))
                .inspect(|()| self.io.moved(t, dir, channel, data, 0)),
        };
        sent.map_err(|e| self.io.failed(channel, dir, &e, data.len()))
    }

    #[inline]
    fn recv(&mut self, channel: ChannelId) -> Result<Token> {
        let (ep, timeout, dir) = (&self.io.endpoints[channel.0], self.timeout, BlockKind::Recv);
        let got = match self.io.probe {
            None => ep.recv_token(timeout),
            Some(t) => self
                .stalling(t, channel, dir, ep.try_recv_token(), || {
                    ep.recv_token(timeout)
                })
                .inspect(|token| self.io.moved(t, dir, channel, token, 0)),
        };
        got.map_err(|e| self.io.failed(channel, dir, &e, 0))
    }

    #[inline]
    fn io(&mut self) -> &mut PeIo<'a> {
        &mut self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ChannelId, ChannelSpec};

    /// Every runner test runs under all three transports — the executor
    /// must be implementation-agnostic.
    fn kinds() -> [TransportKind; 3] {
        [
            TransportKind::Locked,
            TransportKind::Ring,
            TransportKind::Pointer,
        ]
    }

    #[test]
    fn threaded_pipeline_matches_expectations() {
        for kind in kinds() {
            let channels = vec![ChannelSpec::default()];
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|l| vec![l.iter as u8 * 3]),
                }],
                4,
            );
            let consumer = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(0),
                    },
                    Op::Compute {
                        label: "fold".into(),
                        work: Box::new(|l| {
                            let v = l.take_from(ChannelId(0)).expect("data");
                            let mut acc = l.store.remove("acc").unwrap_or_default();
                            acc.push(v[0]);
                            l.store.insert("acc".into(), acc);
                            0
                        }),
                    },
                ],
                4,
            );
            let results = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_secs(5))
                .run(&channels, vec![producer, consumer])
                .unwrap();
            assert_eq!(results[1].store["acc"], vec![0, 3, 6, 9], "{kind:?}");
            assert_eq!(results[1].leftover_inbox, 0);
        }
    }

    #[test]
    fn threaded_deadlock_times_out() {
        for kind in kinds() {
            let channels = vec![ChannelSpec::default(), ChannelSpec::default()];
            let a = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(1),
                    },
                    Op::Send {
                        channel: ChannelId(0),
                        payload: Box::new(|_| vec![0]),
                    },
                ],
                1,
            );
            let b = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(0),
                    },
                    Op::Send {
                        channel: ChannelId(1),
                        payload: Box::new(|_| vec![0]),
                    },
                ],
                1,
            );
            let err = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_millis(100))
                .run(&channels, vec![a, b]);
            match err {
                Err(e @ PlatformError::Deadlock { .. }) => {
                    // The report must name the starved channels and
                    // their observed fill, not just count PEs.
                    let msg = e.to_string();
                    assert!(
                        msg.contains("ch0") && msg.contains("ch1"),
                        "{kind:?}: {msg}"
                    );
                    assert!(msg.contains("recv from"), "{kind:?}: {msg}");
                    assert!(
                        msg.contains("0/"),
                        "empty-channel fill shown: {kind:?}: {msg}"
                    );
                }
                other => panic!("expected deadlock under {kind:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn deadlock_detail_reports_send_side_occupancy() {
        // Producer fills a 1-slot channel nobody drains: the report
        // must show the channel as full on the send side.
        let channels = vec![ChannelSpec {
            capacity_bytes: 4,
            max_message_bytes: 4,
        }];
        for kind in kinds() {
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|_| vec![7; 4]),
                }],
                3,
            );
            let err = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_millis(100))
                .run(&channels, vec![Program::new(vec![], 0), producer]);
            match err {
                Err(PlatformError::Deadlock { blocked, detail }) => {
                    assert_eq!(blocked, vec![PeId(1)]);
                    assert_eq!(detail.len(), 1);
                    assert_eq!(detail[0].channel, ChannelId(0));
                    assert_eq!(detail[0].kind, BlockKind::Send);
                    assert_eq!(detail[0].occupied_bytes, 4, "{kind:?}");
                    assert_eq!(detail[0].occupied_messages, 1);
                    assert_eq!(detail[0].capacity_bytes, 4);
                }
                other => panic!("expected deadlock under {kind:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_capacity_rejected_up_front() {
        // No room at all, or no declared message bound to size slots
        // from: both are refused before any transport is built.
        let no_capacity = ChannelSpec {
            capacity_bytes: 0,
            ..ChannelSpec::default()
        };
        let no_bound = ChannelSpec {
            max_message_bytes: 0,
            ..ChannelSpec::default()
        };
        for (bad, policy) in [
            (no_capacity, None),
            (no_bound, None),
            (no_bound, Some(SupervisionPolicy::default())),
        ] {
            let mut runner = ThreadedRunner::new().transport(TransportKind::Ring);
            runner.supervision = policy;
            let err = runner.run(&[ChannelSpec::default(), bad], vec![]);
            let channel = ChannelId(1);
            assert_eq!(err, Err(PlatformError::ZeroCapacity { channel }));
        }
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        // One-slot channel: producer cannot run more than one message
        // ahead; with a slow consumer the run still completes.
        for kind in kinds() {
            let channels = vec![ChannelSpec {
                capacity_bytes: 4,
                ..ChannelSpec::default()
            }];
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|_| vec![1, 2, 3, 4]),
                }],
                16,
            );
            let consumer = Program::new(
                vec![
                    Op::Recv {
                        channel: ChannelId(0),
                    },
                    Op::Compute {
                        label: "drop".into(),
                        work: Box::new(|l| {
                            let _ = l.take_from(ChannelId(0));
                            std::thread::sleep(Duration::from_millis(1));
                            0
                        }),
                    },
                ],
                16,
            );
            let results = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_secs(10))
                .run(&channels, vec![producer, consumer])
                .unwrap();
            assert_eq!(results[1].leftover_inbox, 0, "{kind:?}");
        }
    }

    #[test]
    fn oversized_message_surfaces_as_capacity_error() {
        // The declared max message size is the eq. (1) bound on every
        // transport (a ring slot, a pool slot, the reference queue's
        // per-message cap); a larger payload is a programming error,
        // not a deadlock.
        for kind in kinds() {
            let channels = vec![ChannelSpec {
                capacity_bytes: 16,
                max_message_bytes: 4,
            }];
            let producer = Program::new(
                vec![Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|_| vec![0u8; 9]),
                }],
                1,
            );
            let consumer = Program::new(
                vec![Op::Recv {
                    channel: ChannelId(0),
                }],
                1,
            );
            let err = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_millis(200))
                .run(&channels, vec![producer, consumer]);
            assert!(
                matches!(
                    err,
                    Err(PlatformError::MessageExceedsCapacity { bytes: 9, .. })
                ),
                "{kind:?}: {err:?}"
            );
        }
    }

    /// A `Vec`-backed [`Tracer`] that sees each PE's stream as recorded,
    /// before any merge. Its clock is a count of its own reads
    /// (`counting`) or nanoseconds since it was made.
    struct Recording {
        counting: bool,
        epoch: std::time::Instant,
        reads: std::sync::atomic::AtomicU64,
        events: Mutex<Vec<crate::trace::ProbeEvent>>,
    }

    impl Recording {
        fn new(counting: bool) -> Arc<Self> {
            Arc::new(Recording {
                counting,
                epoch: std::time::Instant::now(),
                reads: Default::default(),
                events: Mutex::default(),
            })
        }

        fn reads(&self) -> u64 {
            self.reads.load(std::sync::atomic::Ordering::Relaxed)
        }

        /// PE `pe`'s events, in the order it recorded them.
        fn stream(&self, pe: usize) -> Vec<(u64, ProbeKind)> {
            let events = self.events.lock().unwrap();
            (events.iter().filter(|e| e.pe == PeId(pe)))
                .map(|e| (e.ts, e.kind))
                .collect()
        }
    }

    impl Tracer for Recording {
        fn enabled(&self) -> bool {
            true
        }
        fn intern(&self, _: &str) -> u32 {
            0
        }
        fn record(&self, pe: PeId, ts: u64, kind: ProbeKind) {
            let ev = crate::trace::ProbeEvent { ts, pe, kind };
            self.events.lock().unwrap().push(ev);
        }
        fn now(&self) -> u64 {
            let n = 1 + self
                .reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.counting {
                n
            } else {
                self.epoch.elapsed().as_nanos() as u64
            }
        }
    }

    fn non_decreasing(stream: &[(u64, ProbeKind)]) -> bool {
        stream.windows(2).all(|w| w[0].0 <= w[1].0)
    }

    #[test]
    fn a_traced_iteration_reads_the_clock_twice() {
        // A `[Send, Recv, Compute]` self-loop: the `Recv` and the
        // `FiringEnd` read the clock, the `Send` and the `FiringBegin`
        // carry the last stamp, and the PE's first event reads it once.
        const ITERS: u64 = 100;
        for supervised in [false, true] {
            let ops = vec![
                Op::Send {
                    channel: ChannelId(0),
                    payload: Box::new(|l| l.iter.to_le_bytes().to_vec()),
                },
                Op::Recv {
                    channel: ChannelId(0),
                },
                Op::Compute {
                    label: "drain".into(),
                    work: Box::new(|l| l.take_from(ChannelId(0)).map_or(1, |_| 0)),
                },
            ];
            let tracer = Recording::new(true);
            let mut runner = ThreadedRunner::new()
                .transport(TransportKind::Ring)
                .tracer(tracer.clone());
            if supervised {
                runner = runner.supervise(SupervisionPolicy::default());
            }
            let spec = ChannelSpec {
                capacity_bytes: 64,
                max_message_bytes: 8,
            };
            runner.run(&[spec], vec![Program::new(ops, ITERS)]).unwrap();
            let stream = tracer.stream(0);
            assert_eq!(tracer.reads(), 2 * ITERS + 1, "supervised: {supervised}");
            assert_eq!(stream.len() as u64, 4 * ITERS, "supervised: {supervised}");
            assert!(non_decreasing(&stream), "supervised: {supervised}");
        }
    }

    #[test]
    fn raw_streams_stamp_each_recv_no_earlier_than_its_send_started() {
        // Before any merge: each PE's stamps never decrease, and the
        // k-th `Recv` on the channel is stamped no earlier than the k-th
        // `Send` started — at its own stamp, or at its `BlockSend`
        // when it waited (such a `Send` carries its `UnblockSend` stamp,
        // taken after the push). A four-message channel makes the
        // producer wait often.
        const MSGS: u64 = 3_000;
        let ch = ChannelId(0);
        let spec = ChannelSpec {
            capacity_bytes: 16,
            max_message_bytes: 4,
        };
        for kind in kinds() {
            let producer = Program::new(
                vec![
                    Op::Compute {
                        label: "make".into(),
                        work: Box::new(|_| 0),
                    },
                    Op::Send {
                        channel: ch,
                        payload: Box::new(|l| (l.iter as u32).to_le_bytes().to_vec()),
                    },
                ],
                MSGS,
            );
            let consumer = Program::new(
                vec![
                    Op::Recv { channel: ch },
                    Op::Compute {
                        label: "use".into(),
                        work: Box::new(|l| l.take_from(ChannelId(0)).map_or(1, |_| 0)),
                    },
                ],
                MSGS,
            );
            let tracer = Recording::new(false);
            ThreadedRunner::new()
                .transport(kind)
                .tracer(tracer.clone())
                .run(&[spec], vec![producer, consumer])
                .unwrap();
            let (tx, rx) = (tracer.stream(0), tracer.stream(1));
            assert!(non_decreasing(&tx) && non_decreasing(&rx), "{kind:?}");
            let mut started = Vec::new();
            let (mut blocked_at, mut waited) = (None, 0);
            for &(ts, kind) in &tx {
                match kind {
                    ProbeKind::BlockSend { .. } => blocked_at = Some(ts),
                    ProbeKind::Send { .. } => {
                        waited += usize::from(blocked_at.is_some());
                        started.push(blocked_at.take().unwrap_or(ts));
                    }
                    _ => {}
                }
            }
            let received = rx
                .iter()
                .filter(|(_, k)| matches!(k, ProbeKind::Recv { .. }));
            let received: Vec<u64> = received.map(|&(ts, _)| ts).collect();
            assert_eq!(
                (started.len(), received.len()),
                (MSGS as usize, MSGS as usize)
            );
            let early = (started.iter().zip(&received)).position(|(sent, got)| got < sent);
            assert_eq!(early, None, "{kind:?}: {waited} sends waited");
        }
    }

    #[test]
    fn default_runner_uses_locked_transport_and_default_timeout() {
        let shown = format!("{:?}", ThreadedRunner::new());
        assert!(shown.contains("kind: Locked"), "{shown}");
        assert!(shown.contains("timeout: 30s"), "{shown}");
    }

    fn send(channel: usize, payload: impl FnMut(&mut PeLocal) -> Vec<u8> + Send + 'static) -> Op {
        Op::Send {
            channel: ChannelId(channel),
            payload: Box::new(payload),
        }
    }

    fn recv(channel: usize) -> Op {
        Op::Recv {
            channel: ChannelId(channel),
        }
    }

    /// A compute op appending the first byte of each message waiting
    /// from `channel` to the store's `key`.
    fn keep(channel: usize, key: &'static str) -> Op {
        Op::Compute {
            label: "keep".into(),
            work: Box::new(move |l| {
                while let Some(m) = l.take_from(ChannelId(channel)) {
                    l.store.entry(key.into()).or_default().push(m[0]);
                }
                0
            }),
        }
    }

    /// Application 1's hand-off, `[Send, Send, Recv]` against
    /// `[Recv, Recv, Send]`, and a run of two sends into a one-message
    /// channel, on every transport: each ends with the stores the DES
    /// computes.
    #[test]
    fn send_runs_end_with_the_des_stores() {
        type Shape = fn() -> (Vec<ChannelSpec>, Vec<Program>);
        fn spec(bytes: usize) -> ChannelSpec {
            ChannelSpec {
                capacity_bytes: bytes,
                max_message_bytes: bytes,
            }
        }
        let hand_off: Shape = || {
            let producer = vec![
                send(0, |l| vec![l.iter as u8; 8]),
                send(1, |l| vec![2 * l.iter as u8; 8]),
                recv(2),
                keep(2, "sums"),
            ];
            let fold = Op::Compute {
                label: "fold".into(),
                work: Box::new(|l| {
                    let (a, b) = (l.take_from(ChannelId(0)), l.take_from(ChannelId(1)));
                    let sum = a.zip(b).map_or(0, |(a, b)| a[0].wrapping_add(b[0]));
                    l.store.insert("sum".into(), vec![sum]);
                    0
                }),
            };
            let consumer = vec![recv(0), recv(1), fold, send(2, |l| l.store["sum"].clone())];
            let programs = [producer, consumer].map(|ops| Program::new(ops, 40));
            (vec![spec(8), spec(8), spec(1)], programs.into())
        };
        let full: Shape = || {
            let producer = vec![
                send(0, |l| vec![2 * l.iter as u8; 4]),
                send(0, |l| vec![2 * l.iter as u8 + 1; 4]),
            ];
            let consumer = vec![recv(0), keep(0, "got"), recv(0), keep(0, "got")];
            let programs = [producer, consumer].map(|ops| Program::new(ops, 40));
            (vec![spec(4)], programs.into())
        };
        for (name, shape) in [("hand-off", hand_off), ("full channel", full)] {
            let mut des = crate::sim::Machine::new();
            let (specs, programs) = shape();
            for spec in specs {
                des.add_channel(spec);
            }
            for program in programs {
                des.add_pe(program);
            }
            let want = des.run().unwrap().locals;
            assert!(want.iter().any(|l| !l.store.is_empty()), "{name}");
            for kind in kinds() {
                let (specs, programs) = shape();
                let got = ThreadedRunner::new()
                    .transport(kind)
                    .timeout(Duration::from_secs(10))
                    .run(&specs, programs)
                    .unwrap();
                assert_eq!(got, want, "{name} over {kind:?}");
            }
        }
    }

    /// Records each quiet publish and each wake on a channel.
    struct Logged {
        channel: usize,
        inner: Box<dyn Transport>,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Logged {
        fn note(&self, what: String) {
            self.log.lock().unwrap().push(what);
        }
    }

    impl Transport for Logged {
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
        fn try_send(&self, data: &[u8]) -> std::result::Result<(), TransportError> {
            self.inner.try_send(data)
        }
        fn try_recv(&self) -> std::result::Result<Vec<u8>, TransportError> {
            self.inner.try_recv()
        }
        fn send_with(
            &self,
            len: usize,
            fill: &mut dyn FnMut(&mut [u8]),
            timeout: Duration,
        ) -> std::result::Result<(), TransportError> {
            self.inner.send_with(len, fill, timeout)
        }
        fn recv_with(
            &self,
            consume: &mut dyn FnMut(&[u8]),
            timeout: Duration,
        ) -> std::result::Result<(), TransportError> {
            self.inner.recv_with(consume, timeout)
        }
        fn try_send_quiet(&self, data: &[u8]) -> std::result::Result<(), TransportError> {
            let sent = self.inner.try_send_quiet(data);
            self.note(format!("quiet ch{}: {sent:?}", self.channel));
            sent
        }
        fn wake(&self) {
            self.note(format!("wake ch{}", self.channel));
            self.inner.wake();
        }
    }

    #[test]
    fn a_send_failing_inside_a_run_wakes_the_run_first() {
        // The run's second send can never fit its channel: the first
        // send's consumer is woken before the error ends the walk.
        let specs = [
            ChannelSpec::default(),
            ChannelSpec {
                capacity_bytes: 16,
                max_message_bytes: 4,
            },
        ];
        for kind in kinds() {
            let log = Arc::new(Mutex::new(Vec::new()));
            let logged = Arc::clone(&log);
            let producer = vec![send(0, |_| vec![1; 4]), send(1, |_| vec![2; 9])];
            let programs = vec![Program::new(producer, 1), Program::new(vec![recv(0)], 1)];
            let err = ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_secs(10))
                .decorate_transports(Arc::new(move |ch, inner| {
                    let log = Arc::clone(&logged);
                    Box::new(Logged {
                        channel: ch.0,
                        inner,
                        log,
                    })
                }))
                .run(&specs, programs);
            assert!(
                matches!(
                    err,
                    Err(PlatformError::MessageExceedsCapacity { bytes: 9, .. })
                ),
                "{kind:?}: {err:?}"
            );
            let too_large = TransportError::TooLarge { bytes: 9, max: 4 };
            assert_eq!(
                *log.lock().unwrap(),
                [
                    "quiet ch0: Ok(())".to_string(),
                    format!("quiet ch1: Err({too_large:?})"),
                    "wake ch0".to_string(),
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn a_pe_pays_each_owed_wake_once_before_it_can_wait() {
        // Two runs of sends around a firing: every send publishes
        // quietly, the firing first wakes channels 0 and 1 once each,
        // and channel 2 is woken when the op list ends.
        let programs = || {
            let producer = vec![
                send(0, |_| vec![1]),
                send(1, |_| vec![2]),
                send(0, |_| vec![3]),
                keep(9, "none"),
                send(2, |_| vec![4]),
            ];
            let consumers = [vec![recv(0), recv(0)], vec![recv(1)], vec![recv(2)]];
            let pes = std::iter::once(producer).chain(consumers);
            pes.map(|ops| Program::new(ops, 1)).collect()
        };
        for kind in kinds() {
            let log = Arc::new(Mutex::new(Vec::new()));
            let logged = Arc::clone(&log);
            ThreadedRunner::new()
                .transport(kind)
                .timeout(Duration::from_secs(10))
                .decorate_transports(Arc::new(move |ch, inner| {
                    let log = Arc::clone(&logged);
                    Box::new(Logged {
                        channel: ch.0,
                        inner,
                        log,
                    })
                }))
                .run(&[ChannelSpec::default(); 3], programs())
                .unwrap();
            assert_eq!(
                *log.lock().unwrap(),
                [
                    "quiet ch0: Ok(())",
                    "quiet ch1: Ok(())",
                    "quiet ch0: Ok(())",
                    "wake ch0",
                    "wake ch1",
                    "quiet ch2: Ok(())",
                    "wake ch2",
                ],
                "{kind:?}"
            );
        }
    }
}
