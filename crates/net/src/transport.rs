//! [`Transport`] over Unix-domain sockets with an eq. (2) credit window.
//!
//! A cross-process SPI channel is one socket carrying length-prefixed
//! data records sender→receiver and credit acknowledgements
//! receiver→sender. Capacity is enforced **sender-side**: the sender
//! starts with a credit balance equal to the channel's
//! [`ChannelSpec::capacity_bytes`] (the eq. (2) allocation, inflated by
//! [`spi_platform::framed_spec`] under supervision), debits every send
//! by its payload size, and blocks when the balance cannot cover the
//! next message. The receiver returns credits only when the application
//! actually **consumes** a message — not on socket arrival — so the
//! bytes in the sender's staging buffer, the socket and the receiver's
//! read-ahead buffer together never exceed the eq. (2) bound, exactly
//! like the in-memory ring.
//!
//! # PE-driven endpoints
//!
//! The endpoints run no threads of their own. The **consuming thread
//! reads the socket itself** into one read-ahead buffer
//! ([`crate::wire::RecordBuf`]): one `read` pulls in a whole batch and
//! [`Transport::recv_with`] hands each record out as a borrowed slice.
//! The **sending thread reads credit acks itself**, and only when its
//! window is short (the occupancy accessors poll without blocking, so
//! an observer still sees credit come back); an ack carries the
//! receiver's running totals, so the latest one is the whole truth.
//! Records are framed **directly into one staging buffer**
//! ([`Transport::send_with`], [`Transport::send_in_place`]) that a flush
//! puts on the wire with one `write`.
//!
//! **No endpoint ever waits for socket space.** Every write is made in
//! non-blocking mode. The staging buffer holds a whole credit window, so
//! a sender blocks on credit and on nothing else — exactly where the
//! in-memory ring would — however little of the window the kernel's
//! socket buffer takes; what the socket refuses stays staged and is
//! offered again at the sender's next flush and, every millisecond until
//! it is gone, by the `net-timer`. A receiver whose acknowledgement is
//! refused offers it again at its next wait point and hands it to the
//! same timer meanwhile (its thread may not come back to this channel
//! while the sender waits for that credit); the totals it carries cover
//! everything consumed since.
//!
//! # Batching and the liveness contract
//!
//! The paper's resynchronization pass (§4) removes redundant UBS
//! acknowledgements at compile time; this transport applies the same
//! idea at runtime. With [`BatchParams`] a sender stages up to
//! `max_msgs` records per write — debiting credits at append, so the
//! eq. (2) accounting is untouched — and the receiver of a batched edge
//! acknowledges every `max_msgs` consumptions or at the half-window
//! byte mark. The schedule lowers `max_msgs` to a quarter of the window
//! (`spi_sched::batch_plan`), so a window holds the batch being staged,
//! the one in the socket and the read-ahead, the one being consumed and
//! the one whose acknowledgement is on its way back, and neither end
//! has to stop for the other. No runtime feedback tells a sender that its peer is waiting; a
//! staged record is on the wire by the **earliest** of:
//!
//! | trigger | [`FlushReason`] |
//! |---|---|
//! | the batch holds `max_msgs` records | `Full` |
//! | the credit window cannot cover another message | `Window` |
//! | the thread that staged it is about to wait in `spi-net`, polls an empty receiver, or exits | `Idle` |
//! | `flush_after` has passed since the batch started | `Deadline` |
//! | the endpoint is flushed explicitly or dropped | `Final` |
//!
//! `Idle` is the flush-before-block rule and `Deadline` the `net-timer`
//! safety net, both in `flush.rs`. Symmetrically, a receiver
//! returns all accumulated credit before it waits, so coalesced acks
//! can never starve a blocked sender. Every batch closed this way is a
//! [`ProbeKind::BatchFlush`] event when a probe is attached.
//!
//! # Waiting
//!
//! Both blocking waits — a receiver's for data, a sender's for credit —
//! are one function (`read_within`) and have the shape of the rings'
//! claim wait: **poll, then block**. After flushing what it owes and
//! returning the credit it holds (the peer may be waiting on either),
//! the thread reads the socket in non-blocking mode for at most
//! [`spi_sched::WAKEUP_COST`] and only then sleeps in a blocking read
//! for what is left of its deadline. A peer that the schedule keeps busy
//! answers within its own turnaround, a few microseconds; a thread that
//! goes straight to sleep is woken ≈ 20 µs later, so a round trip that
//! takes ≈ 8 µs of software used to take ≈ 58. The bound is time, not a
//! retry count: a count is a cliff (on the reference host 4 or 8 polls
//! cost more than they caught, 16 and up caught everything), whereas
//! polling for as long as the sleep would cost is within 2× of the best
//! possible whatever the peer does. It is read through the shim clock
//! and gated like the rings' spin ([`shim::spin_budget`]): none inside a
//! model or `spi-sim` session, none on a host with one hardware thread.
//! The non-blocking calls (`try_send`, `try_recv`, a zero timeout, the
//! occupancy accessors) make one read and never poll.
//!
//! Supervision frames (`[seq][crc32]`) ride opaquely inside the data
//! records. Error semantics mirror [`spi_platform::RingTransport`]:
//! [`TransportError::Timeout`] carries the configured deadline and the
//! time since the channel last made progress; non-blocking ops return
//! [`TransportError::Full`] / [`TransportError::Empty`]; oversized
//! payloads return [`TransportError::TooLarge`] without consuming
//! credits. A torn connection (peer exit, socket error, a corrupt
//! length prefix or acknowledgement) closes the channel: blocking ops
//! then fail fast with a `Timeout`, which the supervised runner treats
//! like any other unresponsive peer. A receiver first hands out every
//! record the sender managed to write — a sender that finishes and exits
//! ahead of its consumer loses nothing.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use spi_platform::shim::{self, AtomicBool, Mutex, MutexGuard};
use spi_platform::{
    ChannelId, ChannelSpec, FlushReason, PeId, ProbeKind, Tracer, Transport, TransportError,
};

use crate::flush::{self, Seat, Staged, RETRY_STEP};
use crate::stream::NetStream;
use crate::wire::{
    commit, decode_ack, encode_ack, is_would_block, write_staged, RecordBuf, ACK_BYTES,
};

/// How long [`NetSender::connect_with`] keeps retrying a missing socket path
/// before giving up — covers the window between the launcher's PROCEED
/// and a peer node finishing its binds under load.
pub const CONNECT_RETRY_WINDOW: Duration = Duration::from_secs(10);

const CONNECT_RETRY_STEP: Duration = Duration::from_millis(5);

/// How long a final flush (explicit, or the endpoint's drop) keeps
/// offering a socket that takes nothing before it gives the rest up.
const DRAIN_PATIENCE: Duration = Duration::from_secs(5);

/// Acknowledgements taken in per read.
const ACK_READ_RECORDS: usize = 16;

fn effective_capacity(spec: &ChannelSpec) -> usize {
    // Like the in-memory transports, a channel always admits at least
    // one maximum-size message so progress can never wedge on a spec
    // whose capacity under-runs its own message bound.
    spec.capacity_bytes.max(spec.max_message_bytes.max(1))
}

fn closed_err(timeout: Duration, since: Instant) -> TransportError {
    // `idle` never exceeds the configured deadline (scheduling jitter
    // can overshoot it); RingTransport reports the same shape. Read the
    // clock through the shim so the figure is virtual under `spi-sim`.
    TransportError::Timeout {
        after: timeout,
        idle: shim::now().saturating_duration_since(since).min(timeout),
    }
}

/// How a stream read waits: for at most this long, or not at all.
type Wait = Option<Duration>;

/// How long a wait polls the stream before it blocks: for as long as
/// the sleep it may avoid would cost (spin-then-block is within 2× of
/// the best possible when the spin lasts what the block costs). A peer
/// that the schedule keeps busy answers within its turnaround — a few
/// microseconds — which a thread on its way into the kernel and back
/// sleeps through. Measured on the target, not tuned
/// ([`spi_sched::WAKEUP_COST`]); none where [`shim::spin_budget`] allows
/// no spinning (a session, a host with one hardware thread). That looks
/// at the host on its first call, so the endpoints call as they are
/// built — by the thread assembling the system, not by a PE thread that
/// may since have pinned itself to one CPU.
fn poll_window() -> Duration {
    shim::spin_budget(spi_sched::WAKEUP_COST)
}

fn nothing_yet(res: &io::Result<usize>) -> bool {
    matches!(res, Err(e) if is_would_block(e) || e.kind() == io::ErrorKind::Interrupted)
}

/// Reads from `stream` under `wait`, through `read`: without waiting at
/// all, or by polling for up to `poll` — non-blocking reads, timed on
/// [`shim::now`] — and then blocking for what is left of `wait`. The
/// non-blocking mode belongs to the connection end, shared with every
/// clone, and is switched once around the reads made in it, under
/// `own_mode`'s guard: the lock the end's writes are made under, unless
/// the caller holds it already. `timeout_set` caches the stream's read
/// timeout so waits of one length cost no `setsockopt`. "Nothing yet"
/// comes back as `Ok(None)`.
fn read_within<S: NetStream, G>(
    stream: &mut S,
    timeout_set: &mut Option<Duration>,
    wait: Wait,
    poll: Duration,
    own_mode: impl FnOnce() -> G,
    mut read: impl FnMut(&mut S) -> io::Result<usize>,
) -> io::Result<Option<usize>> {
    let mut left = wait.unwrap_or_default();
    let poll = poll.min(left);
    let mut res = Err(io::ErrorKind::WouldBlock.into());
    if wait.is_none() || !poll.is_zero() {
        let _mode = own_mode();
        stream.set_nonblocking(true)?;
        let started = (!poll.is_zero()).then(shim::now);
        loop {
            res = read(stream);
            let (true, Some(started)) = (nothing_yet(&res), started) else {
                break;
            };
            let polled = shim::now().saturating_duration_since(started);
            if polled >= poll {
                // The poll counts against the caller's deadline.
                left = left.saturating_sub(polled);
                break;
            }
        }
        stream.set_nonblocking(false)?;
    }
    if nothing_yet(&res) && !left.is_zero() {
        if *timeout_set != Some(left) {
            stream.set_read_timeout(Some(left))?;
            *timeout_set = Some(left);
        }
        res = read(stream);
    }
    if nothing_yet(&res) {
        return Ok(None);
    }
    res.map(Some)
}

/// Writes as much of `bytes` as `stream` takes without waiting; the
/// caller holds the lock that owns the connection end's blocking mode.
fn write_now<S: NetStream>(stream: &mut S, bytes: &[u8]) -> io::Result<usize> {
    stream.set_nonblocking(true)?;
    let res = write_staged(stream, bytes);
    stream.set_nonblocking(false)?;
    res
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection")
}

// ---------------------------------------------------------------------
// Batching configuration
// ---------------------------------------------------------------------

/// Sender-side record-coalescing parameters: the schedule's per-edge
/// plan, lowered by `spi_sched::batch_plan` for distributed runs. The
/// default is the unbatched path.
pub use spi_sched::BatchPlan as BatchParams;

/// Receiver-side credit-acknowledgement coalescing, derived from the
/// edge's [`BatchParams`] (the sender's batch decides how often credit
/// has to come back, so there is nothing to configure separately).
#[derive(Debug, Clone, Copy)]
struct AckPolicy {
    /// Emit a cumulative ack after this many consumptions.
    every_msgs: usize,
    /// ... or as soon as the accumulated un-acked bytes reach this
    /// low-water mark, whichever comes first. Half the credit window
    /// keeps the sender from ever draining completely while the
    /// receiver is making progress.
    low_water_bytes: usize,
}

impl AckPolicy {
    /// The policy matched to a sender batching under `batch`: ack every
    /// `batch.max_msgs` consumptions or at the half-window byte mark;
    /// one ack per consumed message when the sender does not batch.
    fn for_batch(spec: &ChannelSpec, batch: BatchParams) -> AckPolicy {
        if !batch.is_batched() {
            return AckPolicy {
                every_msgs: 1,
                low_water_bytes: 0,
            };
        }
        AckPolicy {
            every_msgs: batch.max_msgs,
            low_water_bytes: effective_capacity(spec) / 2,
        }
    }
}

/// Where a sender's [`ProbeKind::BatchFlush`] events go: a tracer plus
/// the identity they are recorded under.
struct ProbePoint {
    tracer: Arc<dyn Tracer>,
    pe: PeId,
    channel: ChannelId,
}

// ---------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------

/// The credit side of a sender: what was sent, what the receiver says it
/// consumed, and the stream handle the acknowledgements are read from.
struct Credit<S> {
    acks: S,
    /// `(bytes, messages)` totals debited at append, and the receiver's
    /// totals from the latest acknowledgement. Their difference is the
    /// in-flight load.
    sent: (u64, u64),
    acked: (u64, u64),
    ack_buf: [u8; ACK_READ_RECORDS * ACK_BYTES],
    ack_len: usize,
    timeout_set: Option<Duration>,
}

impl<S: NetStream> Credit<S> {
    fn in_flight_bytes(&self) -> usize {
        (self.sent.0 - self.acked.0) as usize
    }

    fn in_flight_msgs(&self) -> usize {
        (self.sent.1 - self.acked.1) as usize
    }

    /// Reads acknowledgements under `wait`, applying the latest. Returns
    /// whether any credit came back. `mode` is the lock that owns the
    /// connection end's blocking mode, taken around non-blocking reads.
    ///
    /// # Errors
    ///
    /// End of stream, a socket error, or totals that run backwards or
    /// ahead of what was sent (stream corruption).
    fn read_acks(&mut self, wait: Wait, mode: &Mutex<Staging<S>>) -> io::Result<bool> {
        let (buf, at) = (&mut self.ack_buf, self.ack_len);
        let (acks, timeout_set) = (&mut self.acks, &mut self.timeout_set);
        let read = |s: &mut S| s.read(&mut buf[at..]);
        match read_within(acks, timeout_set, wait, poll_window(), || mode.lock(), read)? {
            Some(0) => return Err(eof()),
            Some(n) => self.ack_len += n,
            None => return Ok(false),
        }
        let whole = self.ack_len - self.ack_len % ACK_BYTES;
        if whole == 0 {
            return Ok(false);
        }
        let mut latest = [0u8; ACK_BYTES];
        latest.copy_from_slice(&self.ack_buf[whole - ACK_BYTES..whole]);
        self.ack_buf.copy_within(whole..self.ack_len, 0);
        self.ack_len -= whole;
        let (was, now) = (self.acked, decode_ack(&latest));
        if !(was.0..=self.sent.0).contains(&now.0) || !(was.1..=self.sent.1).contains(&now.1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "credit ack of {now:?} (bytes, msgs) against {:?} sent",
                    self.sent
                ),
            ));
        }
        self.acked = now;
        Ok(now != was)
    }
}

/// Records framed but not yet on the wire, back to back in one buffer,
/// and the stream handle they are written to. Credits are debited at
/// append time, so staged bytes already count against the eq. (2) window.
struct Staging<S> {
    stream: S,
    buf: Vec<u8>,
    /// `buf[head..len]` is staged, prefixes included.
    head: usize,
    len: usize,
    /// Records and payload bytes of the open batch: staged since the
    /// last flush.
    msgs: usize,
    bytes: usize,
    /// When the open batch's first record was appended (deadline anchor).
    first_at: Option<Instant>,
    /// The socket refused part of the last flush.
    stuck: bool,
}

impl<S> Staging<S> {
    /// Whether a record of up to `reserve` bytes fits behind what is
    /// staged, after moving that to the front of the buffer if need be.
    fn room_for(&mut self, reserve: usize) -> bool {
        commit(&mut self.buf);
        if self.buf.len() - self.len < 4 + reserve && self.head > 0 {
            self.buf.copy_within(self.head..self.len, 0);
            (self.head, self.len) = (0, self.len - self.head);
        }
        self.buf.len() - self.len >= 4 + reserve
    }
}

struct SenderShared<S: NetStream> {
    capacity: usize,
    max_msg: usize,
    batch: BatchParams,
    /// Lock order: `credit` → `staging`. The owner holds `credit` while
    /// it waits for acknowledgements; the timer and other threads'
    /// flushes take `staging` alone.
    credit: Mutex<Credit<S>>,
    /// In-flight `(bytes, messages)` as of the last change made under
    /// `credit` — what an occupancy reader reports while the owner is
    /// inside.
    in_flight: [AtomicUsize; 2],
    /// Held across a flush's socket write so batches land whole and in
    /// order — and so [`ProbeKind::BatchFlush`] records made under it are
    /// release/acquire-ordered with the endpoint's final flush, which the
    /// trace collector runs after. Also owns the connection end's
    /// blocking mode, which only writes and acknowledgement polls change.
    staging: Mutex<Staging<S>>,
    closed: AtomicBool,
    probe: OnceLock<ProbePoint>,
}

impl<S: NetStream> SenderShared<S> {
    fn closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn publish(&self, credit: &Credit<S>) -> (usize, usize) {
        let now = (credit.in_flight_bytes(), credit.in_flight_msgs());
        self.in_flight[0].store(now.0, Ordering::Relaxed);
        self.in_flight[1].store(now.1, Ordering::Relaxed);
        now
    }

    /// Closes the open batch and offers the socket everything staged,
    /// with one write when it takes it all. Returns whether nothing is
    /// left: what a full socket refuses stays staged. On a socket error
    /// the channel closes and the staged records are dropped.
    fn flush_locked(&self, st: &mut Staging<S>, reason: FlushReason) -> io::Result<bool> {
        if st.head == st.len {
            return Ok(true);
        }
        let res = if self.closed() {
            Err(io::Error::from(io::ErrorKind::BrokenPipe))
        } else {
            if let (true, Some(pr)) = (st.msgs > 0, self.probe.get()) {
                pr.tracer.record(
                    pr.pe,
                    pr.tracer.now(),
                    ProbeKind::BatchFlush {
                        channel: pr.channel,
                        msgs: st.msgs as u32,
                        bytes: st.bytes as u32,
                        reason,
                    },
                );
            }
            write_now(&mut st.stream, &st.buf[st.head..st.len])
        };
        (st.msgs, st.bytes, st.first_at) = (0, 0, None);
        match res {
            Ok(n) if st.head + n < st.len => {
                st.head += n;
                st.stuck = true;
                Ok(false)
            }
            _ => {
                (st.head, st.len, st.stuck) = (0, 0, false);
                if res.is_err() {
                    self.closed.store(true, Ordering::Release);
                }
                res.map(|_| true)
            }
        }
    }

    /// A final flush: keeps offering the socket what is staged until it
    /// has taken everything, or nothing for [`DRAIN_PATIENCE`].
    fn drain(&self) -> io::Result<()> {
        let mut last = (usize::MAX, shim::now());
        loop {
            let left = {
                let mut st = self.staging.lock();
                if self.flush_locked(&mut st, FlushReason::Final)? {
                    return Ok(());
                }
                st.len - st.head
            };
            let now = shim::now();
            if left < last.0 {
                last = (left, now);
            } else if now.duration_since(last.1) >= DRAIN_PATIENCE {
                return Err(io::ErrorKind::TimedOut.into());
            }
            shim::sleep(RETRY_STEP);
        }
    }

    /// Returns with `credit` able to cover `need` bytes, waiting until
    /// `timeout` after `started` (set by a send's first wait) for the
    /// receiver to consume.
    fn wait_for_credit(
        &self,
        credit: &mut MutexGuard<'_, Credit<S>>,
        need: usize,
        timeout: Duration,
        started: &mut Option<Instant>,
    ) -> Result<(), TransportError> {
        // An idle channel always admits one message (the window is at
        // least `max_msg`), so this cannot wedge on a degenerate spec.
        if self.capacity - credit.in_flight_bytes() >= need {
            return Ok(());
        }
        let start = *started.get_or_insert_with(shim::now);
        let deadline = start + timeout;
        let mut progress_at = start;
        // Credit can only return for records the peer has seen (this
        // sender's went out when the window ran short), and the peer may
        // itself be waiting on this thread's other batches.
        flush::flush_owed();
        loop {
            if self.closed() {
                return Err(closed_err(timeout, start));
            }
            let now = shim::now();
            let wait = (now < deadline).then(|| deadline - now);
            match credit.read_acks(wait, &self.staging) {
                Ok(true) => {
                    progress_at = now;
                    self.publish(credit);
                }
                Ok(false) => {}
                Err(_) => {
                    self.closed.store(true, Ordering::Release);
                    return Err(closed_err(timeout, start));
                }
            }
            if self.capacity - credit.in_flight_bytes() >= need {
                return Ok(());
            }
            if wait.is_none() {
                return Err(TransportError::Timeout {
                    after: timeout,
                    idle: now.duration_since(progress_at).min(timeout),
                });
            }
        }
    }
}

impl<S: NetStream> Staged for SenderShared<S> {
    fn flush_idle(&self) -> bool {
        self.flush_locked(&mut self.staging.lock(), FlushReason::Idle)
            .unwrap_or(true)
    }

    fn flush_due(&self, now: Instant) -> Option<Instant> {
        let mut st = self.staging.lock();
        if let (false, Some(first_at)) = (st.stuck, st.first_at) {
            let due = first_at + self.batch.flush_after;
            if now < due {
                return Some(due);
            }
        }
        match self.flush_locked(&mut st, FlushReason::Deadline) {
            Ok(false) => Some(now + RETRY_STEP),
            _ => None,
        }
    }
}

/// The sending endpoint of a cross-process channel.
///
/// Owns both directions of the socket and runs no thread: the thread
/// that sends also reads the credit acknowledgements, when it needs
/// them. It holds a seat on the process's `net-timer` thread (see
/// `flush.rs`).
///
/// Generic over the underlying byte stream ([`NetStream`]): real
/// deployments use the `UnixStream` default, `spi-sim` substitutes a
/// deterministic in-memory pair.
pub struct NetSender<S: NetStream = UnixStream> {
    shared: Arc<SenderShared<S>>,
    seat: Seat,
}

impl NetSender {
    /// Connects to the receiving endpoint at `path`, retrying for up to
    /// [`CONNECT_RETRY_WINDOW`] while the peer is still binding.
    ///
    /// # Errors
    ///
    /// The final connect error if the window elapses; as
    /// [`NetSender::from_stream_with`].
    pub fn connect_with(
        path: &Path,
        spec: &ChannelSpec,
        batch: BatchParams,
    ) -> io::Result<NetSender> {
        let deadline = Instant::now() + CONNECT_RETRY_WINDOW;
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => std::thread::sleep(CONNECT_RETRY_STEP),
                Err(e) => return Err(e),
            }
        };
        NetSender::from_stream_with(stream, spec, batch)
    }
}

impl<S: NetStream> NetSender<S> {
    /// Wraps an already-connected stream (socketpair loopback,
    /// `spi-sim`), coalescing records under `batch`.
    ///
    /// # Errors
    ///
    /// The stream refusing a second handle (the acknowledgement reader).
    pub fn from_stream_with(
        stream: S,
        spec: &ChannelSpec,
        batch: BatchParams,
    ) -> io::Result<NetSender<S>> {
        let capacity = effective_capacity(spec);
        let max_msg = spec.max_message_bytes.max(1);
        // Has the host judged from this thread's CPU mask, not a PE's.
        poll_window();
        let batch = BatchParams {
            max_msgs: batch.max_msgs.max(1),
            ..batch
        };
        // Room for a credit window of maximum-size records, so that a
        // socket taking less than the window never makes a send wait.
        // (Smaller records carry more prefixes per byte; a window of
        // those can fill the buffer early and waits for the socket.)
        let stage_bytes = capacity + 4 * capacity.div_ceil(max_msg);
        let acks = stream.try_clone()?;
        let shared = Arc::new(SenderShared {
            capacity,
            max_msg,
            batch,
            credit: Mutex::labeled(
                Credit {
                    acks,
                    sent: (0, 0),
                    acked: (0, 0),
                    ack_buf: [0u8; ACK_READ_RECORDS * ACK_BYTES],
                    ack_len: 0,
                    timeout_set: None,
                },
                "net_sender_credit",
            ),
            staging: Mutex::labeled(
                Staging {
                    stream,
                    buf: Vec::with_capacity(stage_bytes),
                    head: 0,
                    len: 0,
                    msgs: 0,
                    bytes: 0,
                    first_at: None,
                    stuck: false,
                },
                "net_sender_staging",
            ),
            in_flight: [AtomicUsize::new(0), AtomicUsize::new(0)],
            closed: AtomicBool::labeled(false, "net_sender_closed"),
            probe: OnceLock::new(),
        });
        let seat = flush::seat(Arc::clone(&shared) as Arc<dyn Staged>);
        Ok(NetSender { shared, seat })
    }

    /// Attaches a tracer: every batch flush records a
    /// [`ProbeKind::BatchFlush`] under `pe`/`channel`. May be set once,
    /// before the endpoint is shared; later calls are ignored.
    pub fn set_probe(&self, tracer: Arc<dyn Tracer>, pe: PeId, channel: ChannelId) {
        if tracer.enabled() {
            let _ = self.shared.probe.set(ProbePoint {
                tracer,
                pe,
                channel,
            });
        }
    }

    /// Forces everything staged onto the wire now (reason `Final`),
    /// waiting for a full socket as the endpoint's drop does. Useful at
    /// iteration boundaries and in tests; the liveness contract makes
    /// routine calls unnecessary.
    ///
    /// # Errors
    ///
    /// A closed-channel timeout shape if the socket write fails or the
    /// socket takes nothing for five seconds.
    pub fn flush_pending(&self) -> Result<(), TransportError> {
        self.shared
            .drain()
            .map_err(|_| closed_err(Duration::ZERO, shim::now()))
    }

    /// Reserves `reserve` bytes of credit and staging, lets `frame`
    /// build the message in place and stages the length it returns.
    fn send_framed(
        &self,
        reserve: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let sh = &*self.shared;
        if reserve > sh.max_msg {
            return Err(TransportError::TooLarge {
                bytes: reserve,
                max: sh.max_msg,
            });
        }
        let gone = || closed_err(timeout, shim::now());
        let mut started = None;
        let mut credit = sh.credit.lock();
        sh.wait_for_credit(&mut credit, reserve, timeout, &mut started)?;
        let mut st = sh.staging.lock();
        let was_stuck = st.stuck;
        while !st.room_for(reserve) {
            // Only a socket that refuses a window of small records gets
            // here: make room by writing, for as long as the send may
            // wait.
            let out = sh.flush_locked(&mut st, FlushReason::Full);
            if out.map_err(|_| gone())? || st.room_for(reserve) {
                break;
            }
            drop(st);
            let waited = shim::now().duration_since(*started.get_or_insert_with(shim::now));
            if waited >= timeout {
                return Err(TransportError::Timeout {
                    after: timeout,
                    idle: timeout,
                });
            }
            shim::sleep(RETRY_STEP.min(timeout - waited));
            st = sh.staging.lock();
        }
        if sh.closed() {
            return Err(gone());
        }
        let at = st.len;
        let n = frame(&mut st.buf[at + 4..at + 4 + reserve]).min(reserve);
        st.buf[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes());
        st.len += 4 + n;
        st.msgs += 1;
        st.bytes += n;
        credit.sent.0 += n as u64;
        credit.sent.1 += 1;
        let credit_left = sh.capacity - sh.publish(&credit).0;
        drop(credit);

        let reason = if st.msgs >= sh.batch.max_msgs {
            Some(FlushReason::Full)
        } else if credit_left < sh.max_msg {
            // The window cannot cover another message; the peer must
            // see these records to return credits.
            Some(FlushReason::Window)
        } else {
            None
        };
        // When the timer has to look: at what a full socket refused, in
        // a moment; at a batch this record opened, after `flush_after` —
        // unless this thread reaches a wait point first.
        let due = if let Some(reason) = reason {
            sh.flush_locked(&mut st, reason).map_err(|_| gone())?;
            (st.stuck && !was_stuck).then(|| shim::now() + RETRY_STEP)
        } else if st.msgs == 1 {
            let now = shim::now();
            st.first_at = Some(now);
            flush::owe(&self.seat);
            Some(now + sh.batch.flush_after)
        } else {
            None
        };
        drop(st);
        if let Some(due) = due {
            self.seat.staged(due);
        }
        Ok(())
    }

    /// `(in-flight bytes, in-flight messages)`, after taking in any
    /// acknowledgement that has arrived — unless a sending thread is
    /// inside (it takes them in itself), in which case the figures are
    /// as of its last change.
    fn observe(&self) -> (usize, usize) {
        let sh = &*self.shared;
        let Some(mut credit) = sh.credit.try_lock() else {
            return (
                sh.in_flight[0].load(Ordering::Relaxed),
                sh.in_flight[1].load(Ordering::Relaxed),
            );
        };
        if credit.in_flight_msgs() > 0
            && !sh.closed()
            && credit.read_acks(None, &sh.staging).is_err()
        {
            sh.closed.store(true, Ordering::Release);
        }
        sh.publish(&credit)
    }
}

impl<S: NetStream> Drop for NetSender<S> {
    fn drop(&mut self) {
        // Drain any staged records first: peers distinguish a clean
        // EOF from a truncated stream, and credits for unsent bytes are
        // unrecoverable either way.
        let _ = self.shared.drain();
        self.shared.closed.store(true, Ordering::Release);
        let st = self.shared.staging.lock();
        let _ = st.stream.shutdown(std::net::Shutdown::Both);
        drop(st);
        self.seat.vacate();
    }
}

impl<S: NetStream> Transport for NetSender<S> {
    fn capacity_bytes(&self) -> usize {
        self.shared.capacity
    }

    fn max_message_bytes(&self) -> usize {
        self.shared.max_msg
    }

    fn len_bytes(&self) -> usize {
        self.observe().0
    }

    fn occupancy(&self) -> usize {
        self.observe().1
    }

    fn snapshot(&self) -> (usize, usize) {
        self.observe()
    }

    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.send(data, Duration::ZERO).map_err(|e| match e {
            TransportError::Timeout { .. } => TransportError::Full,
            other => other,
        })
    }

    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        unreachable!("receive on the sending endpoint of a network channel")
    }

    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.send_framed(
            len,
            &mut |buf| {
                fill(buf);
                len
            },
            timeout,
        )
    }

    fn send_in_place(
        &self,
        max_len: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.send_framed(max_len, frame, timeout)
    }

    fn recv_with(
        &self,
        _consume: &mut dyn FnMut(&[u8]),
        _timeout: Duration,
    ) -> Result<(), TransportError> {
        unreachable!("receive on the sending endpoint of a network channel")
    }
}

// ---------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------

struct ReceiverState<S> {
    stream: S,
    ahead: RecordBuf,
    /// Totals consumed by the application, and the totals the sender
    /// has been told.
    consumed: (u64, u64),
    acked: (u64, u64),
    /// The acknowledgement being written and how much of it is out: one
    /// the socket cut short is finished before the next is started.
    ack: [u8; ACK_BYTES],
    ack_out: usize,
    /// The sender is gone or no longer listening; there may still be
    /// records of its to read.
    acks_off: bool,
    timeout_set: Option<Duration>,
    closed: bool,
}

impl<S: NetStream> ReceiverState<S> {
    /// Whether the sender has yet to be told of something consumed.
    fn owes_ack(&self) -> bool {
        self.acked != self.consumed && !self.acks_off
    }

    /// Whether the socket refused (part of) the last acknowledgement:
    /// one was started and is not out yet.
    fn ack_stuck(&self) -> bool {
        self.ack_out < ACK_BYTES && !self.acks_off
    }

    /// Tells the sender everything consumed so far. An acknowledgement
    /// the socket has no room for right now is left for the next wait
    /// point, or the timer (see [`NetReceiver::recv_with`]); the totals it
    /// then carries cover everything consumed in between.
    fn settle(&mut self) {
        while self.owes_ack() {
            if self.ack_out.is_multiple_of(ACK_BYTES) {
                self.ack = encode_ack(self.consumed.0, self.consumed.1);
                self.ack_out = 0;
            }
            match write_now(&mut self.stream, &self.ack[self.ack_out..]) {
                // Try again at the next wait point.
                Ok(0) => return,
                Ok(n) => self.ack_out += n,
                Err(_) => self.acks_off = true,
            }
            if self.ack_out == ACK_BYTES {
                self.acked = decode_ack(&self.ack);
            }
        }
    }

    /// Accounts for one consumed message of `len` bytes and acknowledges
    /// if `policy` says it is time.
    fn consume(&mut self, len: usize, policy: AckPolicy) {
        self.consumed.0 += len as u64;
        self.consumed.1 += 1;
        if self.consumed.1 - self.acked.1 >= policy.every_msgs as u64
            || self.consumed.0 - self.acked.0 >= policy.low_water_bytes.max(1) as u64
        {
            self.settle();
        }
    }

    /// Reads into the read-ahead buffer under `wait`. Returns whether
    /// bytes arrived.
    ///
    /// # Errors
    ///
    /// End of stream or a socket error.
    fn fill(&mut self, wait: Wait) -> io::Result<bool> {
        let (stream, timeout_set, ahead) =
            (&mut self.stream, &mut self.timeout_set, &mut self.ahead);
        let read = |s: &mut S| ahead.fill_from(s);
        // The caller's lock on this state owns the end's blocking mode.
        match read_within(stream, timeout_set, wait, poll_window(), || (), read)? {
            Some(0) => Err(eof()),
            Some(_) => Ok(true),
            None => Ok(false),
        }
    }
}

/// The receiving endpoint of a cross-process channel.
///
/// Runs no thread: the consuming thread reads the socket into the
/// endpoint's read-ahead buffer, and consuming a message accumulates
/// credit that is returned to the sender at the rate the edge's
/// [`BatchParams`] imply. Generic over the underlying byte stream
/// ([`NetStream`]): real deployments use the `UnixStream` default,
/// `spi-sim` substitutes a deterministic in-memory pair.
pub struct NetReceiver<S: NetStream = UnixStream> {
    capacity: usize,
    max_msg: usize,
    ack_policy: AckPolicy,
    state: Arc<Mutex<ReceiverState<S>>>,
    /// A place on the `net-timer`, taken the first time the socket
    /// refuses an acknowledgement.
    seat: OnceLock<Seat>,
}

/// The timer's look at a receiver: offers the socket the acknowledgement
/// it refused. It never waits for the lock: a consuming thread that is
/// inside offers the acknowledgement itself before it waits, and whoever
/// holds the lock re-stages it after letting go (`NetReceiver::restage`).
impl<S: NetStream> Staged for Mutex<ReceiverState<S>> {
    fn flush_idle(&self) -> bool {
        self.flush_due(shim::now()).is_none()
    }

    fn flush_due(&self, now: Instant) -> Option<Instant> {
        let mut rx = self.try_lock()?;
        rx.settle();
        rx.ack_stuck().then(|| now + RETRY_STEP)
    }
}

/// A receiving endpoint bound to its socket path, waiting for its sender
/// to connect. Dropping it removes the path.
pub struct NetListener {
    listener: UnixListener,
    path: PathBuf,
    spec: ChannelSpec,
    batch: BatchParams,
}

impl NetReceiver {
    /// Binds a listener at `path`, which must not exist yet, for an
    /// edge whose sender batches under `batch`.
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn bind_with(
        path: &Path,
        spec: &ChannelSpec,
        batch: BatchParams,
    ) -> io::Result<NetListener> {
        Ok(NetListener {
            listener: UnixListener::bind(path)?,
            path: path.to_path_buf(),
            spec: *spec,
            batch,
        })
    }
}

impl NetListener {
    /// Waits for the sender's connection. A sender can connect (and
    /// send) as soon as the listener is bound, so two nodes that each
    /// connect their senders before accepting cannot wait on each other.
    ///
    /// # Errors
    ///
    /// Any accept error.
    pub fn accept(self) -> io::Result<NetReceiver> {
        let (stream, _) = self.listener.accept()?;
        Ok(NetReceiver::from_stream_with(
            stream, &self.spec, self.batch,
        ))
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl<S: NetStream> NetReceiver<S> {
    /// Wraps an already-connected stream (socketpair loopback,
    /// `spi-sim`), acknowledging at the rate the sender's `batch`
    /// needs its credit back.
    pub fn from_stream_with(stream: S, spec: &ChannelSpec, batch: BatchParams) -> NetReceiver<S> {
        let (capacity, max_msg) = (effective_capacity(spec), spec.max_message_bytes.max(1));
        // Has the host judged from this thread's CPU mask, not a PE's.
        poll_window();
        NetReceiver {
            capacity,
            max_msg,
            ack_policy: AckPolicy::for_batch(spec, batch),
            state: Arc::new(Mutex::labeled(
                ReceiverState {
                    stream,
                    ahead: RecordBuf::new(max_msg, capacity),
                    consumed: (0, 0),
                    acked: (0, 0),
                    ack: [0u8; ACK_BYTES],
                    ack_out: ACK_BYTES,
                    acks_off: false,
                    timeout_set: None,
                    closed: false,
                },
                "net_receiver_state",
            )),
            seat: OnceLock::new(),
        }
    }
}

impl<S: NetStream> Drop for NetReceiver<S> {
    fn drop(&mut self) {
        let _ = self.state.lock().stream.shutdown(std::net::Shutdown::Both);
        if let Some(seat) = self.seat.get() {
            seat.vacate();
        }
    }
}

impl<S: NetStream> Transport for NetReceiver<S> {
    fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    fn max_message_bytes(&self) -> usize {
        self.max_msg
    }

    /// Payload bytes read ahead and not yet consumed; what the socket
    /// still holds is not counted.
    fn len_bytes(&self) -> usize {
        self.snapshot().0
    }

    fn occupancy(&self) -> usize {
        self.snapshot().1
    }

    fn snapshot(&self) -> (usize, usize) {
        // A consumer inside is waiting on an empty buffer, or about to
        // take what it found: zero never over-states either.
        let Some(rx) = self.state.try_lock() else {
            return (0, 0);
        };
        let (ready, stuck) = (rx.ahead.ready(), rx.ack_stuck());
        drop(rx);
        self.restage(stuck);
        ready
    }

    fn try_send(&self, _data: &[u8]) -> Result<(), TransportError> {
        unreachable!("send on the receiving endpoint of a network channel")
    }

    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        let mut out = Vec::new();
        match self.recv_with(&mut |bytes| out.extend_from_slice(bytes), Duration::ZERO) {
            Ok(()) => Ok(out),
            Err(TransportError::Timeout { .. }) => Err(TransportError::Empty),
            Err(other) => Err(other),
        }
    }

    fn send_with(
        &self,
        _len: usize,
        _fill: &mut dyn FnMut(&mut [u8]),
        _timeout: Duration,
    ) -> Result<(), TransportError> {
        unreachable!("send on the receiving endpoint of a network channel")
    }

    /// An acknowledgement the socket refused is offered again at this
    /// channel's next wait point — and by the timer from then on, since
    /// the consuming thread may never wait here again (its last message,
    /// or credit left over) while the sender waits for that credit.
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let mut rx = self.state.lock();
        let got = self.take(&mut rx, consume, timeout);
        let stuck = rx.ack_stuck();
        drop(rx);
        self.restage(stuck);
        got
    }
}

impl<S: NetStream> NetReceiver<S> {
    /// Hands an acknowledgement the socket refused to the `net-timer`.
    /// Called once the state is unlocked: a timer that looked while it
    /// was locked skipped this receiver, and looks again only when told.
    fn restage(&self, stuck: bool) {
        if stuck {
            let seat = self.seat.get_or_init(|| flush::seat(self.state.clone()));
            seat.staged(shim::now() + RETRY_STEP);
        }
    }

    fn take(
        &self,
        rx: &mut ReceiverState<S>,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        // The clock is read only once there is something to wait for.
        let mut waiting: Option<(Instant, Instant)> = None;
        loop {
            match rx.ahead.front() {
                Ok(Some(payload)) => {
                    consume(payload);
                    let len = payload.len();
                    rx.ahead.pop();
                    rx.consume(len, self.ack_policy);
                    return Ok(());
                }
                Ok(None) => {}
                // A corrupt length prefix: the stream has lost framing.
                Err(_) => rx.closed = true,
            }
            let now = shim::now();
            let (start, progress_at) = *waiting.get_or_insert((now, now));
            if rx.closed {
                return Err(closed_err(timeout, start));
            }
            // About to wait. Whatever this thread staged elsewhere may
            // be what the peer needs before it sends more, and a sender
            // short of credit needs everything consumed here back.
            flush::flush_owed();
            rx.settle();
            let deadline = start + timeout;
            let wait = (now < deadline).then(|| match rx.owes_ack() {
                false => deadline - now,
                // A full socket refused the totals: offer them again.
                true => (deadline - now).min(RETRY_STEP),
            });
            match rx.fill(wait) {
                Ok(true) => waiting = Some((start, now)),
                Ok(false) if wait.is_none() => {
                    return Err(TransportError::Timeout {
                        after: timeout,
                        idle: now.duration_since(progress_at).min(timeout),
                    });
                }
                Ok(false) => {}
                // End of stream, once everything written has been read.
                Err(_) => rx.closed = true,
            }
        }
    }
}

/// A connected loopback channel over `socketpair(2)` — both endpoints
/// in one process, the full wire protocol in between, no coalescing.
/// The workhorse of the transport tests.
pub fn loopback(spec: &ChannelSpec) -> io::Result<(NetSender, NetReceiver)> {
    loopback_with(spec, BatchParams::disabled())
}

/// [`loopback`] with the batched fast path: the sender coalesces under
/// `batch` and the receiver acks at the matching rate. The
/// `fir2k_net` benchmark's configuration.
pub fn loopback_with(
    spec: &ChannelSpec,
    batch: BatchParams,
) -> io::Result<(NetSender, NetReceiver)> {
    let (a, b) = UnixStream::pair()?;
    Ok((
        NetSender::from_stream_with(a, spec, batch)?,
        NetReceiver::from_stream_with(b, spec, batch),
    ))
}

#[cfg(test)]
mod tests {
    //! The wait policy of `read_within`, against a stream that answers
    //! from a script. The poll window is passed in, so what the host
    //! gate says about this machine does not matter here.

    use super::*;
    use std::sync::atomic::AtomicBool as StdBool;
    use std::sync::Mutex as StdMutex;

    /// What the stream was asked to do.
    #[derive(Default)]
    struct Asked {
        nonblocking: bool,
        /// Times the end was switched into non-blocking mode.
        switched: usize,
        timeout: Option<Duration>,
        polls: usize,
        /// The read timeout in force at each blocking read.
        blocked_for: Vec<Duration>,
        /// A blocking read was made with the mode lock held.
        blocked_under_lock: bool,
    }

    /// Non-blocking reads find nothing `empty_polls` times and then get
    /// `then`; a blocking read gets `blocked`.
    struct Scripted {
        empty_polls: usize,
        then: fn() -> io::Result<usize>,
        blocked: fn() -> io::Result<usize>,
        asked: Arc<StdMutex<Asked>>,
        mode_locked: Arc<StdBool>,
    }

    fn timed_out() -> io::Result<usize> {
        Err(io::ErrorKind::WouldBlock.into())
    }

    impl Scripted {
        fn new(empty_polls: usize, then: fn() -> io::Result<usize>) -> Scripted {
            Scripted {
                empty_polls,
                then,
                blocked: timed_out,
                asked: Arc::default(),
                mode_locked: Arc::default(),
            }
        }

        /// `read_within` over this stream, the mode lock modelled by a
        /// flag the stream can see.
        fn read(&mut self, wait: Wait, poll: Duration) -> io::Result<Option<usize>> {
            struct Held(Arc<StdBool>);
            impl Drop for Held {
                fn drop(&mut self) {
                    self.0.store(false, Ordering::SeqCst);
                }
            }
            let flag = Arc::clone(&self.mode_locked);
            let own_mode = || {
                flag.store(true, Ordering::SeqCst);
                Held(flag)
            };
            let mut timeout_set = None;
            let mut byte = [0u8; 1];
            read_within(self, &mut timeout_set, wait, poll, own_mode, |s| {
                io::Read::read(s, &mut byte)
            })
        }

        fn asked(&self) -> std::sync::MutexGuard<'_, Asked> {
            self.asked.lock().unwrap()
        }
    }

    impl io::Read for Scripted {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            let mut asked = self.asked.lock().unwrap();
            if asked.nonblocking {
                asked.polls += 1;
                if asked.polls <= self.empty_polls {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                return (self.then)();
            }
            let timeout = asked.timeout.expect("blocking read without a timeout");
            asked.blocked_for.push(timeout);
            asked.blocked_under_lock |= self.mode_locked.load(Ordering::SeqCst);
            (self.blocked)()
        }
    }

    impl io::Write for Scripted {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl NetStream for Scripted {
        fn try_clone(&self) -> io::Result<Self> {
            Ok(Scripted {
                asked: Arc::clone(&self.asked),
                mode_locked: Arc::clone(&self.mode_locked),
                ..*self
            })
        }

        fn shutdown(&self, _: std::net::Shutdown) -> io::Result<()> {
            Ok(())
        }

        fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
            assert_ne!(dur, Some(Duration::ZERO), "a socket refuses a zero timeout");
            self.asked().timeout = dur;
            Ok(())
        }

        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            let mut asked = self.asked();
            asked.switched += usize::from(nonblocking && !asked.nonblocking);
            asked.nonblocking = nonblocking;
            Ok(())
        }
    }

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn data_within_the_poll_window_is_taken_without_blocking() {
        for k in [0, 1, 7] {
            let mut s = Scripted::new(k, || Ok(1));
            assert_eq!(s.read(Some(LONG), LONG).unwrap(), Some(1));
            let asked = s.asked();
            assert_eq!(asked.polls, k + 1);
            assert!(asked.blocked_for.is_empty(), "slept with the reply there");
            assert_eq!((asked.switched, asked.nonblocking), (1, false));
        }
    }

    #[test]
    fn an_exhausted_poll_window_blocks_once_for_the_rest_of_the_deadline() {
        let (wait, poll) = (Duration::from_secs(10), Duration::from_millis(2));
        let mut s = Scripted::new(usize::MAX, || Ok(1));
        assert_eq!(s.read(Some(wait), poll).unwrap(), None);
        let asked = s.asked();
        assert!(asked.polls > 1, "no poll phase");
        let [blocked_for] = asked.blocked_for[..] else {
            panic!("blocking reads: {:?}", asked.blocked_for);
        };
        // The time polled came off the caller's deadline.
        assert!(blocked_for <= wait - poll, "{blocked_for:?}");
        assert!(
            blocked_for > wait - Duration::from_secs(5),
            "{blocked_for:?}"
        );
        assert!(!asked.blocked_under_lock, "slept holding the mode lock");
        assert_eq!((asked.switched, asked.nonblocking), (1, false));
    }

    #[test]
    fn a_deadline_inside_the_poll_window_never_blocks() {
        let mut s = Scripted::new(usize::MAX, || Ok(1));
        let before = Instant::now();
        assert_eq!(s.read(Some(Duration::from_millis(2)), LONG).unwrap(), None);
        assert!(before.elapsed() >= Duration::from_millis(2));
        assert!(s.asked().blocked_for.is_empty());
        assert!(!s.asked().nonblocking);
    }

    #[test]
    fn no_poll_window_means_the_blocking_read_alone() {
        // A session, a host with one hardware thread.
        let mut s = Scripted::new(0, || Ok(1));
        s.blocked = || Ok(1);
        assert_eq!(s.read(Some(LONG), Duration::ZERO).unwrap(), Some(1));
        let asked = s.asked();
        assert_eq!((asked.polls, asked.switched), (0, 0));
        assert_eq!(asked.blocked_for, [LONG]);
    }

    #[test]
    fn a_caller_that_will_not_wait_reads_once_and_never_polls() {
        let mut s = Scripted::new(usize::MAX, || Ok(1));
        assert_eq!(s.read(None, LONG).unwrap(), None);
        let asked = s.asked();
        assert_eq!(asked.polls, 1);
        assert!(asked.blocked_for.is_empty());
        assert_eq!((asked.switched, asked.nonblocking), (1, false));
    }

    #[test]
    fn end_of_stream_and_errors_come_out_of_the_poll_as_out_of_the_block() {
        let reset = || Err(io::ErrorKind::ConnectionReset.into());
        for (then, polled) in [(0, true), (3, true), (0, false)] {
            let poll = if polled { LONG } else { Duration::ZERO };
            let mut s = Scripted::new(then, || Ok(0));
            s.blocked = || Ok(0);
            assert_eq!(s.read(Some(LONG), poll).unwrap(), Some(0));
            assert_eq!(s.asked().blocked_for.is_empty(), polled);
            assert!(!s.asked().nonblocking);

            let mut s = Scripted::new(then, reset);
            s.blocked = reset;
            let err = s.read(Some(LONG), poll).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            assert_eq!(s.asked().blocked_for.is_empty(), polled);
            assert!(!s.asked().nonblocking);
        }
    }

    #[test]
    fn a_stream_that_ends_while_its_receiver_waits_closes_the_channel() {
        // Whichever phase of the wait meets the end of the stream.
        let spec = ChannelSpec {
            capacity_bytes: 64,
            max_message_bytes: 8,
        };
        let mut s = Scripted::new(2, || Ok(0));
        s.blocked = || Ok(0);
        let rx = NetReceiver::from_stream_with(s, &spec, BatchParams::disabled());
        let before = Instant::now();
        for _ in 0..2 {
            assert!(matches!(
                rx.recv(LONG),
                Err(TransportError::Timeout { after: LONG, .. })
            ));
        }
        assert!(before.elapsed() < LONG / 2, "waited the deadline out");
    }
}
