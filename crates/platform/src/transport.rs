//! Pluggable channel transports for the OS-thread runner.
//!
//! The discrete-event engine in [`crate::sim`] accounts channel
//! occupancy in *bytes* against the statically derived capacity
//! `B(e) = (Γ + delay(e)) · c(e)` of the paper's eq. (2). The threaded
//! runner historically approximated that bound by message count through
//! one hardwired `Mutex`+`Condvar` queue; this module turns the channel
//! into a first-class [`Transport`] abstraction with three byte-accurate
//! implementations:
//!
//! * [`LockedTransport`] — the reference implementation: a bounded FIFO
//!   of owned payloads behind a `Mutex` with two `Condvar`s. Simple,
//!   obviously correct, and the baseline the ring is benchmarked
//!   against.
//! * [`RingTransport`] — a lock-free ring buffer of fixed packed-token
//!   slots, sized exactly `capacity_bytes / max_message_bytes` slots of
//!   `max_message_bytes` each, so the eq. (2) bound *is* the allocation.
//!   Head/tail move with atomics (per-slot sequence numbers, Vyukov
//!   style), payloads are written into the ring storage in place
//!   ([`Transport::send_with`] / [`Transport::recv_with`] never touch
//!   the heap), and a full/empty ring backpressures via
//!   `thread::park_timeout` / `unpark` instead of a condition variable.
//! * [`PointerTransport`] — the paper's §5.2 pointer exchange: payloads
//!   live in a [`BufferPool`] slab sized to eq. (2), and only 12-byte
//!   slot *descriptors* travel through a Vyukov ring. Send acquires a
//!   pool slot (that acquisition is the eq. (2) backpressure), receive
//!   hands out a [`crate::TokenBuf`] lease over the slot bytes — zero
//!   payload copies and zero heap allocation in the steady state; the
//!   lease's drop is the UBS-style slot-release acknowledgement.
//!
//! Each implementation has **one send body and one receive body** — the
//! paper's one `SPI_send` and one `SPI_receive` per edge — taking how
//! long the caller may wait (`None`: not at all, answering
//! [`TransportError::Full`] / [`TransportError::Empty`]; `Some(timeout)`:
//! until that deadline), and every data-path [`Transport`] method is a
//! one-expression adaptor over the pair:
//!
//! | transport | send body | receive body |
//! |-----------|-----------|--------------|
//! | [`LockedTransport`] | `push`: frame an owned buffer → wait for admission → enqueue | `pop`: wait for a message → dequeue |
//! | [`RingTransport`] | `send_framed`: claim a slot → frame up to `max_len` bytes in place → publish the returned length | `recv_framed`: claim → hand out the slot bytes → recycle |
//! | [`PointerTransport`] | `send_framed`: acquire a pool slot → frame → publish its descriptor | `next_lease`: dequeue a descriptor → lease the slot |
//!
//! So the non-blocking calls the traced runner makes run the same code
//! the blocking calls do (and the model checker explores), and the
//! per-message eq. (1) bound is checked in one place (`admit`).
//!
//! SPI edges are point-to-point, so the rings are used single-producer /
//! single-consumer in practice; the per-slot sequence protocol keeps
//! them memory-safe (merely slower) if a hand-written program ever
//! shares an endpoint between threads.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::pool::{BufferPool, Token, TokenBuf};
use crate::shim;
use crate::sim::ChannelSpec;

/// A declared, injected fault surfaced by a fault-injecting transport
/// decorator (see the `spi-fault` crate).
///
/// The variants describe what happened to the message so a supervising
/// runner can pick the right recovery: a dropped message was never
/// delivered (retransmit it), a corrupted one *was* delivered in
/// mangled form (retransmit; the receiver discards the bad frame by
/// CRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectedFault {
    /// The message was silently discarded instead of delivered.
    Dropped,
    /// A corrupted copy of the message was delivered.
    Corrupted,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedFault::Dropped => write!(f, "message dropped"),
            InjectedFault::Corrupted => write!(f, "message corrupted"),
        }
    }
}

/// Errors surfaced by [`Transport`] operations.
///
/// Blocking operations fail with [`TransportError::Timeout`] (the
/// runner's deadlock detector), non-blocking ones with
/// [`TransportError::Full`] / [`TransportError::Empty`], and both send
/// paths reject messages that could never fit with
/// [`TransportError::TooLarge`]. Fault-injecting decorators report
/// declared faults with [`TransportError::Injected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// A blocking send or receive gave up after its timeout — the
    /// runner interprets this as a deadlocked processing element.
    Timeout {
        /// The timeout that elapsed.
        after: Duration,
        /// How long the peer side had shown no progress when the
        /// deadline fired. Equal to `after` when the channel was dead
        /// for the whole wait; smaller when the peer kept moving (e.g.
        /// draining a byte-bounded queue) without freeing enough space
        /// — the difference between a stalled link and a deadlock.
        idle: Duration,
    },
    /// A non-blocking send found the channel full.
    Full,
    /// A non-blocking receive found the channel empty.
    Empty,
    /// The message can never be accepted: it exceeds the per-message
    /// bound (ring slot size) or the whole channel capacity.
    TooLarge {
        /// Payload size in bytes.
        bytes: usize,
        /// Largest acceptable message in bytes.
        max: usize,
    },
    /// A fault-injecting decorator applied a declared fault to this
    /// operation. Supervised runners treat these as transient and
    /// retry; unsupervised runners surface them as channel faults.
    Injected {
        /// What the injector did to the message.
        fault: InjectedFault,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Timeout { after, idle } => {
                write!(
                    f,
                    "transport operation timed out after {after:?} (peer idle {idle:?})"
                )
            }
            TransportError::Full => write!(f, "channel full"),
            TransportError::Empty => write!(f, "channel empty"),
            TransportError::TooLarge { bytes, max } => {
                write!(
                    f,
                    "message of {bytes} bytes exceeds transport maximum of {max} bytes"
                )
            }
            TransportError::Injected { fault } => {
                write!(f, "injected fault: {fault}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A bounded, blocking, FIFO point-to-point channel between OS threads.
///
/// Capacity is accounted in **bytes**, matching the discrete-event
/// engine and the paper's eq. (1)/(2) buffer bounds, not in message
/// counts. All methods take `&self`; implementations are internally
/// synchronized.
pub trait Transport: Send + Sync {
    /// Total payload capacity in bytes. For [`RingTransport`] this is
    /// exactly `slots × slot_bytes`, i.e. the eq. (2) allocation.
    fn capacity_bytes(&self) -> usize;

    /// Largest single message this transport accepts, in bytes.
    fn max_message_bytes(&self) -> usize;

    /// Payload bytes currently buffered in the channel.
    ///
    /// Exact for [`LockedTransport`]; for [`RingTransport`] it is
    /// **slot-granular** (`occupancy() × slot size` — the ring reserves
    /// a full packed-token slot per message, which is also what the
    /// eq. (2) bound accounts). Under concurrent traffic the value is a
    /// point-in-time snapshot, never an over-estimate of what a
    /// linearized observer could have seen.
    fn len_bytes(&self) -> usize;

    /// Messages currently buffered in the channel (same snapshot
    /// semantics as [`Transport::len_bytes`]).
    fn occupancy(&self) -> usize;

    /// `(len_bytes, occupancy)` from a single observation. Semantically
    /// identical to calling the two accessors back to back, but
    /// implementations override it to read their shared state once —
    /// this sits on the traced runner's per-message path, where a
    /// redundant load of a cache line owned by the peer thread is
    /// measurable.
    fn snapshot(&self) -> (usize, usize) {
        (self.len_bytes(), self.occupancy())
    }

    /// Blocking send of an owned payload; gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::TooLarge`] if the payload can never fit;
    /// [`TransportError::Timeout`] if no space freed up in time.
    fn send(&self, data: &[u8], timeout: Duration) -> Result<(), TransportError> {
        self.send_with(data.len(), &mut |buf| buf.copy_from_slice(data), timeout)
    }

    /// Non-blocking send.
    ///
    /// # Errors
    ///
    /// [`TransportError::Full`] when no space is available right now;
    /// [`TransportError::TooLarge`] if the payload can never fit.
    fn try_send(&self, data: &[u8]) -> Result<(), TransportError>;

    /// Blocking receive of an owned payload; gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if no message arrived in time.
    fn recv(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let mut out = Vec::new();
        self.recv_with(&mut |bytes| out.extend_from_slice(bytes), timeout)?;
        Ok(out)
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`TransportError::Empty`] when no message is waiting.
    fn try_recv(&self) -> Result<Vec<u8>, TransportError>;

    /// Blocking zero-copy send: reserves `len` bytes of channel storage
    /// and invokes `fill` to write the payload directly into it. The
    /// ring implementation performs **no heap allocation** on this path;
    /// the locked implementation allocates its owned queue entry.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`].
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError>;

    /// Blocking zero-copy receive: invokes `consume` on the payload
    /// bytes while they still live in channel storage, then releases
    /// the slot. No heap allocation on the ring implementation.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv`].
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError>;

    /// Blocking in-place framing send: reserves up to `max_len` bytes of
    /// writable channel storage, invokes `frame` to build the message in
    /// place, and sends the prefix of `frame`'s returned length.
    /// [`RingTransport`] frames directly into the claimed ring slot and
    /// [`PointerTransport`] into the acquired pool slot — no heap
    /// allocation on either; the default copies through a scratch
    /// buffer, preserving semantics for owned-payload transports.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`]; `max_len` itself must satisfy the
    /// per-message bound.
    fn send_in_place(
        &self,
        max_len: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        admit(max_len, self.max_message_bytes())?;
        let mut buf = vec![0u8; max_len];
        let n = frame(&mut buf).min(max_len);
        self.send(&buf[..n], timeout)
    }

    /// Ownership-passing send of a [`Token`].
    ///
    /// On [`PointerTransport`], a pooled lease from the transport's own
    /// pool moves slot *ownership* to the consumer — the paper's §5.2
    /// pointer exchange, no payload bytes touched. Every other
    /// transport (and foreign-pool leases) copies the bytes like
    /// [`Transport::send`]; the token's lease, if any, releases its
    /// slot on return.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`].
    fn send_token(&self, token: Token, timeout: Duration) -> Result<(), TransportError> {
        self.send(&token, timeout)
    }

    /// Blocking receive returning a [`Token`]: a zero-copy pooled lease
    /// on [`PointerTransport`] (dropping it is the slot-release
    /// acknowledgement), an owned heap buffer elsewhere.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv`].
    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        self.recv(timeout).map(Token::Owned)
    }

    /// Non-blocking variant of [`Transport::recv_token`].
    ///
    /// # Errors
    ///
    /// As [`Transport::try_recv`].
    fn try_recv_token(&self) -> Result<Token, TransportError> {
        self.try_recv().map(Token::Owned)
    }

    /// Non-blocking send that publishes the message without waking a
    /// consumer parked on the channel: that wake is left to
    /// [`Transport::wake`], which the caller owes the channel before it
    /// makes any call that can wait. The runner makes every send's
    /// first attempt this way and wakes each owed channel once, before
    /// the PE can wait or stop — so a run of consecutive sends wakes
    /// its consumers after its last publish (DESIGN §9, "Who wakes
    /// whom"). The default is [`Transport::try_send`], which wakes at
    /// once.
    ///
    /// # Errors
    ///
    /// As [`Transport::try_send`].
    fn try_send_quiet(&self, data: &[u8]) -> Result<(), TransportError> {
        self.try_send(data)
    }

    /// Wakes a consumer parked on this channel for what
    /// [`Transport::try_send_quiet`] published. The default has nothing
    /// to wake: its quiet send woke at once.
    fn wake(&self) {}

    /// The buffer pool backing this transport's payloads, when it has
    /// one ([`PointerTransport`]; decorators forward their inner
    /// transport's pool), for a caller that leases its payloads from
    /// the channel's own slab.
    fn pool(&self) -> Option<&BufferPool> {
        None
    }
}

/// The eq. (1) per-message bound, checked here for every send shape of
/// every transport in this module: a message of `bytes` bytes (for an
/// in-place frame, the bytes it reserves) either fits `max` or can never
/// be accepted.
fn admit(bytes: usize, max: usize) -> Result<(), TransportError> {
    if bytes > max {
        return Err(TransportError::TooLarge { bytes, max });
    }
    Ok(())
}

/// The framing closure of a plain byte send: copy `data` into the
/// reserved storage, all of it.
fn copy_of(data: &[u8]) -> impl FnOnce(&mut [u8]) -> usize + '_ {
    move |buf| {
        buf.copy_from_slice(data);
        data.len()
    }
}

/// The framing closure of [`Transport::send_with`]: `fill` writes
/// exactly the `len` bytes reserved.
fn filled<'a>(
    len: usize,
    fill: &'a mut dyn FnMut(&mut [u8]),
) -> impl FnOnce(&mut [u8]) -> usize + 'a {
    move |buf| {
        fill(buf);
        len
    }
}

/// Which [`Transport`] implementation a runner should instantiate per
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// `Mutex`+`Condvar` bounded queue ([`LockedTransport`]) — the
    /// reference implementation.
    #[default]
    Locked,
    /// Lock-free SPSC ring of fixed slots ([`RingTransport`]).
    Ring,
    /// Pointer exchange through a pooled slab ([`PointerTransport`]):
    /// payloads stay in place, only slot descriptors move.
    Pointer,
}

impl TransportKind {
    /// Builds a transport for `spec`.
    ///
    /// The per-message bound is [`ChannelSpec::max_message_bytes`] (the
    /// SPI builder declares the packed token size
    /// `c(e) = c_sdf(e) · b_max(e)` plus header).
    pub fn instantiate(self, spec: &ChannelSpec) -> Box<dyn Transport> {
        let max_msg = spec.max_message_bytes;
        match self {
            TransportKind::Locked => Box::new(LockedTransport::new(spec.capacity_bytes, max_msg)),
            TransportKind::Ring => Box::new(RingTransport::new(spec.capacity_bytes, max_msg)),
            TransportKind::Pointer => Box::new(PointerTransport::new(spec.capacity_bytes, max_msg)),
        }
    }
}

// ---------------------------------------------------------------------
// LockedTransport
// ---------------------------------------------------------------------

struct LockedInner {
    queue: VecDeque<Vec<u8>>,
    used_bytes: usize,
    /// Monotonic count of completed enqueues — a blocked receiver
    /// watches this to tell "peer is alive but slow" from "peer is
    /// gone" when its deadline fires.
    pushes: u64,
    /// Monotonic count of completed dequeues (watched by blocked
    /// senders).
    pops: u64,
}

/// The reference transport: a byte-accounted bounded FIFO behind a
/// `Mutex` with separate not-full / not-empty `Condvar`s (std's mpsc
/// offers no `send_timeout`, and deadlock detection needs timeouts in
/// both directions).
pub struct LockedTransport {
    inner: Mutex<LockedInner>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity_bytes: usize,
    max_message_bytes: usize,
}

impl LockedTransport {
    /// Creates a queue holding at most `capacity_bytes` of payload, with
    /// single messages capped at `max_message_bytes`.
    pub fn new(capacity_bytes: usize, max_message_bytes: usize) -> Self {
        let capacity_bytes = capacity_bytes.max(1);
        LockedTransport {
            inner: Mutex::new(LockedInner {
                queue: VecDeque::new(),
                used_bytes: 0,
                pushes: 0,
                pops: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity_bytes,
            max_message_bytes: max_message_bytes.clamp(1, capacity_bytes),
        }
    }

    /// The queue lock, taken poison-tolerantly: nothing panics while
    /// holding it part-way through an update.
    fn locked(&self) -> MutexGuard<'_, LockedInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the queue lock and holds it until `blocked` stops holding,
    /// sleeping on `cv` for at most `wait` (`None`: not at all — a
    /// blocked queue answers `would_block`). `peer_ops` reads the
    /// peer's monotonic operation counter: any movement while blocked
    /// is peer progress, and its absence over the whole wait marks the
    /// timeout as a dead link rather than a slow one.
    fn unblocked(
        &self,
        cv: &Condvar,
        wait: Option<Duration>,
        would_block: TransportError,
        blocked: impl Fn(&LockedInner) -> bool,
        peer_ops: impl Fn(&LockedInner) -> u64,
    ) -> Result<MutexGuard<'_, LockedInner>, TransportError> {
        let mut inner = self.locked();
        if !blocked(&inner) {
            return Ok(inner);
        }
        let Some(timeout) = wait else {
            return Err(would_block);
        };
        let start = Instant::now();
        let deadline = start + timeout;
        let mut seen = peer_ops(&inner);
        let mut progress_at = start;
        while blocked(&inner) {
            let (now, ops) = (Instant::now(), peer_ops(&inner));
            if ops != seen {
                seen = ops;
                progress_at = now;
            }
            if now >= deadline {
                return Err(TransportError::Timeout {
                    after: timeout,
                    idle: now.duration_since(progress_at),
                });
            }
            let (guard, _) =
                (cv.wait_timeout(inner, deadline - now)).unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        Ok(inner)
    }

    /// The one send body: frames the message into an owned buffer of up
    /// to `max_len` bytes, waits (per `wait`) until the queue admits
    /// it, and enqueues it.
    fn push(
        &self,
        max_len: usize,
        wait: Option<Duration>,
        frame: impl FnOnce(&mut [u8]) -> usize,
    ) -> Result<(), TransportError> {
        admit(max_len, self.max_message_bytes)?;
        let mut data = vec![0u8; max_len];
        let len = frame(&mut data).min(max_len);
        data.truncate(len);
        // An empty queue always admits one message: `max_message_bytes`
        // is clamped to the capacity, so progress is never wedged.
        let mut inner = self.unblocked(
            &self.not_full,
            wait,
            TransportError::Full,
            |q| q.used_bytes + len > self.capacity_bytes && !q.queue.is_empty(),
            |q| q.pops,
        )?;
        inner.used_bytes += len;
        inner.pushes += 1;
        inner.queue.push_back(data);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// The one receive body: waits (per `wait`) for a message and
    /// dequeues it.
    fn pop(&self, wait: Option<Duration>) -> Result<Vec<u8>, TransportError> {
        let mut inner = self.unblocked(
            &self.not_empty,
            wait,
            TransportError::Empty,
            |q| q.queue.is_empty(),
            |q| q.pushes,
        )?;
        let data = inner.queue.pop_front().ok_or(TransportError::Empty)?;
        inner.used_bytes -= data.len();
        inner.pops += 1;
        drop(inner);
        self.not_full.notify_one();
        Ok(data)
    }
}

impl Transport for LockedTransport {
    fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn max_message_bytes(&self) -> usize {
        self.max_message_bytes
    }

    fn len_bytes(&self) -> usize {
        self.locked().used_bytes
    }

    fn occupancy(&self) -> usize {
        self.locked().queue.len()
    }

    fn snapshot(&self) -> (usize, usize) {
        let inner = self.locked();
        (inner.used_bytes, inner.queue.len())
    }

    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.push(data.len(), None, copy_of(data))
    }

    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.pop(None)
    }

    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.push(len, Some(timeout), filled(len, fill))
    }

    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.pop(Some(timeout)).map(|data| consume(&data))
    }

    fn send_in_place(
        &self,
        max_len: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.push(max_len, Some(timeout), frame)
    }
}

// ---------------------------------------------------------------------
// RingTransport
// ---------------------------------------------------------------------

/// A set of threads parked on one side (producer or consumer) of a
/// ring. The fast path is a `SeqCst` fence and an `Acquire` load of
/// `waiting`; the mutex is only touched when a thread actually has to
/// park — i.e. when the ring is full or empty and blocking was
/// inevitable anyway.
struct WaitList {
    waiting: shim::AtomicUsize,
    threads: shim::Mutex<Vec<shim::ThreadHandle>>,
}

impl WaitList {
    fn new(waiting_label: &'static str, list_label: &'static str) -> Self {
        WaitList {
            waiting: shim::AtomicUsize::labeled(0, waiting_label),
            threads: shim::Mutex::labeled(Vec::new(), list_label),
        }
    }
    /// Wakes every registered thread. Entries are *not* removed — only
    /// the owning thread deregisters itself in [`WaitList::park_until`],
    /// so a waiter whose wake token gets absorbed early (consumed by an
    /// interleaved park on another channel's wait list — the park token
    /// is per-thread, not per-list) is simply re-unparked by the next
    /// wake. Removing on wake would orphan such a re-parking thread for
    /// good. SPI edges are SPSC, so "every" is at most one thread.
    ///
    /// The caller has just stored new slot state (a `seq` publish or
    /// recycle). The fence pairs with the one in [`WaitList::park_until`]
    /// — the store-buffer (Dekker) pattern: without it, this thread's
    /// slot store and the parker's `waiting` store can both sit in store
    /// buffers while each side's subsequent load reads stale state, so
    /// the parker re-checks "still blocked" *and* this load reads
    /// "nobody waiting", losing the wakeup for good.
    ///
    /// No thread is woken while its waker holds a lock the woken thread
    /// takes next: the handles are cloned out of the list and unparked
    /// *after* the unlock. A woken waiter goes straight to its
    /// deregistration in [`WaitList::park_until`]; where it pre-empts
    /// its waker (every PE on one CPU) an unpark under the lock sends
    /// it to sleep again on this mutex, and each hand-off pays two more
    /// context switches and a futex pair to pass the lock back. With
    /// one waiter (every SPI edge) the clone is a reference-count bump;
    /// only a shared end (the pool's free list) allocates for the rest.
    fn wake_all(&self) {
        shim::fence(Ordering::SeqCst);
        if self.waiting.load(Ordering::Acquire) == 0 {
            return;
        }
        let threads = self.threads.lock();
        let Some((first, rest)) = threads.split_first() else {
            return;
        };
        let (first, rest) = (first.clone(), rest.to_vec());
        drop(threads);
        for t in std::iter::once(first).chain(rest) {
            t.unpark();
        }
    }

    /// Longest single park before re-checking `ready` regardless of
    /// wake tokens. Parking only happens once the channel is already
    /// full/empty — i.e. off the throughput path — so a periodic
    /// re-check costs nothing measurable, and it bounds the damage of
    /// any wake lost to scheduler pathology to one slice instead of the
    /// full deadlock-detection timeout.
    const MAX_PARK_SLICE: Duration = Duration::from_millis(50);

    /// Registers the current thread, re-checks `ready`, and parks until
    /// `deadline` if it still holds false. Returns `false` on timeout.
    ///
    /// The registration-before-recheck order closes the lost-wakeup
    /// race: a publisher that misses the registration is ordered before
    /// the re-check; one that sees it will unpark us. The SeqCst fence
    /// between registration and re-check makes that ordering real on
    /// hardware with store buffers (see [`WaitList::wake_all`]).
    fn park_until(&self, deadline: Instant, ready: &dyn Fn() -> bool) -> bool {
        {
            let mut threads = self.threads.lock();
            threads.push(shim::current());
            self.waiting.store(threads.len(), Ordering::Release);
        }
        shim::fence(Ordering::SeqCst);
        let mut timed_out = false;
        loop {
            if ready() {
                break;
            }
            // One `shim::now()` read per slice, shared between the
            // deadline test and the park duration — the same clock the
            // supervision deadline derives from, and a frozen constant
            // under a model session (so the timeout below can never
            // fire inside an exploration).
            let now = shim::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            shim::park_timeout((deadline - now).min(Self::MAX_PARK_SLICE));
        }
        {
            let mut threads = self.threads.lock();
            let me = shim::current().id();
            threads.retain(|t| t.id() != me);
            self.waiting.store(threads.len(), Ordering::Release);
        }
        !timed_out
    }
}

/// One end of a ring — the producer's or the consumer's — so that
/// claiming, parking and progress tracking are each written once, over
/// an end and its peer, instead of as send / receive mirror functions.
struct End {
    /// The claim counter this end advances: the next position it will
    /// take. A blocked peer watches it for signs of life.
    cursor: shim::AtomicUsize,
    /// This end's threads, parked on a ring with nothing to claim.
    waiters: WaitList,
    /// Low bit of the `seq` value that hands a slot to this end: `0` —
    /// free, the producer's; `1` — published, the consumer's.
    ready: usize,
    /// What a non-blocking caller is told when there is nothing to
    /// claim.
    would_block: TransportError,
}

/// A lock-free bounded ring of fixed-size packed-token slots.
///
/// Layout: `slots × slot_bytes` of payload storage, a length word per
/// slot, and a per-slot sequence number driving the claim/publish
/// protocol (Vyukov's bounded queue). `capacity_bytes()` is exactly the
/// storage allocation, so when the SPI builder sizes a channel to the
/// eq. (2) bound `B(e)` with slot size `c(e)`, those numbers *are* the
/// runtime buffer — no approximation layer in between.
///
/// Designed for the single-producer / single-consumer topology of SPI's
/// point-to-point edges; the sequence protocol keeps concurrent misuse
/// memory-safe. `send_with` / `recv_with` move payload bytes directly
/// between caller buffers and ring storage with zero heap allocation
/// per message.
pub struct RingTransport {
    slot_bytes: usize,
    slots: usize,
    /// Claim/publish state per slot, in a doubled sequence space so the
    /// states stay distinct even for a single-slot ring: `seq == 2·pos`
    /// ⇒ free for the enqueuer at position `pos`; `seq == 2·pos + 1` ⇒
    /// holds the message published at `pos`, free for the dequeuer,
    /// which recycles it to `2·(pos + slots)`.
    seq: Box<[shim::AtomicUsize]>,
    /// Payload length per slot; written by the owning producer before
    /// the publishing seq store, read by the consumer after its
    /// acquiring seq load.
    lens: Box<[UnsafeCell<usize>]>,
    /// Slot payload storage, `slots × slot_bytes` contiguous bytes.
    buf: Box<[UnsafeCell<u8>]>,
    /// The enqueuing end: `tail`, producers parked on a full ring.
    producer: End,
    /// The dequeuing end: `head`, consumers parked on an empty ring.
    consumer: End,
}

// SAFETY: slot payload (`lens`, `buf`) is only accessed by the thread
// that currently owns the slot via the `seq` claim/publish protocol;
// the release/acquire pairs on `seq` order those accesses.
unsafe impl Sync for RingTransport {}

impl RingTransport {
    /// Claim retries spun through before a blocked send/receive parks,
    /// where [`shim::spin_budget`] allows any. Roughly a few hundred
    /// nanoseconds of polling — shorter than one park/unpark round
    /// trip, long enough to ride out a pipelined peer's typical slot
    /// turnaround.
    const SPIN_CLAIMS: u32 = 64;

    /// Creates a ring with `capacity_bytes / slot_bytes` slots (at least
    /// one) of `slot_bytes` each.
    pub fn new(capacity_bytes: usize, slot_bytes: usize) -> Self {
        let slot_bytes = slot_bytes.max(1);
        let slots = (capacity_bytes / slot_bytes).max(1);
        let seq: Box<[shim::AtomicUsize]> = (0..slots)
            .map(|i| shim::AtomicUsize::labeled(2 * i, "seq"))
            .collect();
        let lens: Box<[UnsafeCell<usize>]> = (0..slots).map(|_| UnsafeCell::new(0)).collect();
        let buf: Box<[UnsafeCell<u8>]> = (0..slots * slot_bytes)
            .map(|_| UnsafeCell::new(0))
            .collect();
        // Shim objects are numbered in creation order, which the
        // simulator's golden logs print: cursors first, head before
        // tail, then the consumer's wait list, then the producer's.
        let head = shim::AtomicUsize::labeled(0, "head");
        let tail = shim::AtomicUsize::labeled(0, "tail");
        RingTransport {
            slot_bytes,
            slots,
            seq,
            lens,
            buf,
            consumer: End {
                cursor: head,
                waiters: WaitList::new("recv_waiting", "recv_waitlist"),
                ready: 1,
                would_block: TransportError::Empty,
            },
            producer: End {
                cursor: tail,
                waiters: WaitList::new("send_waiting", "send_waitlist"),
                ready: 0,
                would_block: TransportError::Full,
            },
        }
    }

    /// Number of message slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// `seq[pos % slots]` relative to the value that hands position
    /// `pos` to `end`: zero when the slot is ready to claim, negative
    /// when it still belongs to the peer from one lap ago (ring full /
    /// empty), positive when another thread sharing this end already
    /// took `pos`.
    fn lead(&self, end: &End, pos: usize) -> isize {
        let seq = self.seq[pos % self.slots].load(Ordering::Acquire);
        seq as isize - pos.wrapping_mul(2).wrapping_add(end.ready) as isize
    }

    /// Claims `end`'s next position, or `None` when the ring is full
    /// (send end) / empty (receive end). On success the caller owns
    /// slot `pos % slots` until it stores the slot's next `seq`.
    #[inline]
    fn try_claim(&self, end: &End) -> Option<usize> {
        let mut pos = end.cursor.load(Ordering::Relaxed);
        loop {
            let dif = self.lead(end, pos);
            if dif == 0 {
                match end.cursor.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some(pos),
                    Err(p) => pos = p,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = end.cursor.load(Ordering::Relaxed);
            }
        }
    }

    /// Whether `end` can currently claim a slot (the park re-check;
    /// exact in the SPSC case).
    fn claimable(&self, end: &End) -> bool {
        self.lead(end, end.cursor.load(Ordering::Relaxed)) >= 0
    }

    /// The slot claim under every send and receive: an immediate
    /// attempt — all a caller that may not wait (`None`) gets — then
    /// [`RingTransport::await_claim`]. On success the caller owns the
    /// slot and **must** store its next `seq`.
    // Inlined, with the waiting half out of line: a claim that succeeds
    // at once is the per-message path of every transport built on this
    // ring. As one out-of-line function it cost the benchmark ladder
    // 3–9 ns per ring operation (`ring_op_ns.8B` +8 %,
    // `pointer_frame_ns.2k` +20 % against the mirrored-function parent;
    // split like this, −7 % and within the parent's own spread).
    #[inline]
    fn claim(
        &self,
        end: &End,
        peer: &End,
        wait: Option<Duration>,
    ) -> Result<usize, TransportError> {
        match (self.try_claim(end), wait) {
            (Some(pos), _) => Ok(pos),
            (None, Some(timeout)) => self.await_claim(end, peer, timeout),
            (None, None) => Err(end.would_block),
        }
    }

    /// The waiting half of a claim: a brief spin, then parking with
    /// peer-progress tracking for the timeout's idle report.
    #[cold]
    fn await_claim(
        &self,
        end: &End,
        peer: &End,
        timeout: Duration,
    ) -> Result<usize, TransportError> {
        // Brief spin before parking: a pipelined peer typically turns a
        // slot around within a few hundred nanoseconds, far cheaper to
        // catch here than via a park/unpark round trip through the
        // kernel.
        for _ in 0..shim::spin_budget(Self::SPIN_CLAIMS) {
            std::hint::spin_loop();
            if let Some(pos) = self.try_claim(end) {
                return Ok(pos);
            }
        }
        let start = shim::now();
        let deadline = start + timeout;
        // A blocked caller watches the peer's claim counter: any
        // movement is peer progress, and its absence over the whole
        // wait marks the timeout as a dead link rather than a slow one.
        let mut seen = peer.cursor.load(Ordering::Relaxed);
        let mut progress_at = start;
        loop {
            if let Some(pos) = self.try_claim(end) {
                return Ok(pos);
            }
            let parked = end.waiters.park_until(deadline, &|| self.claimable(end));
            // One clock read per wake, shared by the progress stamp and
            // the idle computation below.
            let now = shim::now();
            let at = peer.cursor.load(Ordering::Relaxed);
            if at != seen {
                seen = at;
                progress_at = now;
            }
            if !parked {
                // One last claim attempt closes the race where the slot
                // turned around exactly at the deadline.
                if let Some(pos) = self.try_claim(end) {
                    return Ok(pos);
                }
                return Err(TransportError::Timeout {
                    after: timeout,
                    idle: now.duration_since(progress_at),
                });
            }
        }
    }

    /// The one send body: claims a slot (waiting per `wait`), lets
    /// `frame` build the message in the slot's first `max_len` bytes,
    /// and publishes the length it returns to the consumer side, waking
    /// a parked consumer when `wake` asks for it.
    // Always inlined: every caller passes a constant `wake`, but the
    // quiet and the eager non-blocking sends share a framing closure, so
    // the body went out of line, behind a branch on `wake` (with the
    // pointer transport's twin, `fir2k_pointer` read ≈ 5 % and
    // `selfloop8_traced` ≈ 4 % slower in 4 benchmark pairs each).
    #[inline(always)]
    fn send_framed(
        &self,
        max_len: usize,
        wait: Option<Duration>,
        wake: bool,
        frame: impl FnOnce(&mut [u8]) -> usize,
    ) -> Result<(), TransportError> {
        admit(max_len, self.slot_bytes)?;
        let pos = self.claim(&self.producer, &self.consumer, wait)?;
        let idx = pos % self.slots;
        // SAFETY: the claim protocol gives this thread exclusive access
        // to slot `idx` between the claim and the seq store below;
        // slots are disjoint byte ranges of `buf`, and `admit` keeps
        // `max_len` within the slot.
        unsafe {
            let dst =
                std::slice::from_raw_parts_mut(self.buf[idx * self.slot_bytes].get(), max_len);
            *self.lens[idx].get() = frame(dst).min(max_len);
        }
        self.seq[idx].store(pos.wrapping_mul(2).wrapping_add(1), Ordering::Release);
        if wake {
            self.consumer.waiters.wake_all();
        }
        Ok(())
    }

    /// The one receive body: claims the next message (waiting per
    /// `wait`), hands `read` its bytes while they still live in ring
    /// storage, then recycles the slot to the producer side.
    /// Crate-visible because the pool's free list is such a ring, read
    /// without allocating.
    pub(crate) fn recv_framed<R>(
        &self,
        wait: Option<Duration>,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, TransportError> {
        let pos = self.claim(&self.consumer, &self.producer, wait)?;
        let idx = pos % self.slots;
        // SAFETY: symmetric to `send_framed` — exclusive access between
        // the claim and the seq store below; the length was written by
        // the slot's producer before its publishing seq store.
        let out = unsafe {
            let len = *self.lens[idx].get();
            read(std::slice::from_raw_parts(
                self.buf[idx * self.slot_bytes].get() as *const u8,
                len,
            ))
        };
        self.seq[idx].store(
            pos.wrapping_add(self.slots).wrapping_mul(2),
            Ordering::Release,
        );
        self.producer.waiters.wake_all();
        Ok(out)
    }
}

impl Transport for RingTransport {
    fn capacity_bytes(&self) -> usize {
        self.slots * self.slot_bytes
    }

    fn max_message_bytes(&self) -> usize {
        self.slot_bytes
    }

    fn len_bytes(&self) -> usize {
        self.occupancy() * self.slot_bytes
    }

    fn occupancy(&self) -> usize {
        // `tail` and `head` are monotonic claim counters; their
        // difference is the number of occupied (claimed-or-published)
        // slots. Loading `tail` first means a racing consumer can only
        // shrink the difference (possibly below zero, which clamps to
        // empty), so the snapshot never over-estimates.
        let tail = self.producer.cursor.load(Ordering::Acquire);
        let head = self.consumer.cursor.load(Ordering::Acquire);
        let diff = tail.wrapping_sub(head);
        if diff > self.slots {
            0
        } else {
            diff
        }
    }

    fn snapshot(&self) -> (usize, usize) {
        let occ = self.occupancy();
        (occ * self.slot_bytes, occ)
    }

    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.send_framed(data.len(), None, true, copy_of(data))
    }

    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.recv_framed(None, <[u8]>::to_vec)
    }

    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.send_framed(len, Some(timeout), true, filled(len, fill))
    }

    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.recv_framed(Some(timeout), consume)
    }

    fn send_in_place(
        &self,
        max_len: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.send_framed(max_len, Some(timeout), true, frame)
    }

    fn try_send_quiet(&self, data: &[u8]) -> Result<(), TransportError> {
        self.send_framed(data.len(), None, false, copy_of(data))
    }

    fn wake(&self) {
        self.consumer.waiters.wake_all();
    }
}

// ---------------------------------------------------------------------
// PointerTransport
// ---------------------------------------------------------------------

/// Bytes of one slot descriptor on the wire: `[slot][off][len]`, each a
/// little-endian `u32`. Carrying the offset lets a trimmed lease (e.g.
/// a frame header stripped in place) be forwarded without compaction.
const DESC_BYTES: usize = 12;

fn encode_desc(slot: u32, off: u32, len: u32) -> [u8; DESC_BYTES] {
    let mut d = [0u8; DESC_BYTES];
    d[0..4].copy_from_slice(&slot.to_le_bytes());
    d[4..8].copy_from_slice(&off.to_le_bytes());
    d[8..12].copy_from_slice(&len.to_le_bytes());
    d
}

fn decode_desc(d: &[u8]) -> (u32, u32, u32) {
    (le_u32(&d[0..4]), le_u32(&d[4..8]), le_u32(&d[8..12]))
}

/// One little-endian `u32` word of a fixed-layout ring message — a
/// descriptor field here, a slot index on the pool's free ring — read
/// in place (the rings' receive body hands out slot bytes, so neither
/// reader allocates).
// Invariant: fixed-layout rings carry whole words (their slot size).
#[allow(clippy::expect_used)]
pub(crate) fn le_u32(word: &[u8]) -> u32 {
    u32::from_le_bytes(word.try_into().expect("4-byte word"))
}

/// The paper's §5.2 pointer exchange: payloads live in a [`BufferPool`]
/// slab sized to the eq. (2) bound, and only 12-byte slot descriptors
/// travel through a Vyukov ring.
///
/// * **Send** acquires a free pool slot (blocking there *is* the
///   eq. (2) backpressure), writes the payload in place — or, for
///   [`Transport::send_token`] with a same-pool lease, writes nothing
///   at all — and publishes the slot's descriptor.
/// * **Receive** dequeues a descriptor and hands out a [`TokenBuf`]
///   lease over the slot bytes; dropping the lease releases the slot
///   back to the pool — the UBS-style acknowledgement closing the
///   flow-control loop.
///
/// So a received message keeps its pool slot, and counts against the
/// channel, until its consumer drops the lease: in the runner, until
/// the firing that consumes it takes it out of the PE's inbox. The DES,
/// [`LockedTransport`] and [`RingTransport`] free the space on receive.
/// A program that receives more messages of a channel before one
/// firing than the pool has slots deadlocks here only; a lowered
/// program never does (DESIGN §13, "Slot-lease lifetimes").
///
/// Steady state touches the payload bytes exactly as many times as the
/// application requires and performs **zero heap allocations** per
/// message (asserted by a counting-allocator test in `spi`).
pub struct PointerTransport {
    pool: BufferPool,
    /// FIFO of `(slot, off, len)` descriptors, with exactly as many
    /// descriptor slots as the pool has payload slots. Descriptors are
    /// conserved the same way free indices are: every in-flight message
    /// holds a distinct pool slot, so at most `slots` descriptors exist
    /// and publishing one can never find this ring full.
    ring: RingTransport,
}

impl PointerTransport {
    /// Creates a pointer transport with `capacity_bytes / slot_bytes`
    /// pool slots (at least one) of `slot_bytes` each — the same sizing
    /// rule as [`RingTransport::new`], so the eq. (2) bound is the
    /// slab allocation.
    pub fn new(capacity_bytes: usize, slot_bytes: usize) -> Self {
        let slot_bytes = slot_bytes.max(1);
        Self::with_pool(BufferPool::new(capacity_bytes / slot_bytes, slot_bytes))
    }

    /// A pointer transport publishing into an existing `pool` — the
    /// §5.2 forwarding case, where several edges of a processing chain
    /// share one statically bounded slab (sized to the *sum* of the
    /// edges' eq. (2) bounds). A same-pool lease received from one
    /// transport passes through the next as a bare descriptor: a relay
    /// or in-place-filter PE moves frames down the chain without the
    /// payload bytes ever being copied.
    ///
    /// The descriptor ring is sized to the pool's full slot count, so
    /// the conservation argument on `PointerTransport::ring` holds
    /// regardless of how the shared slots distribute across edges.
    pub fn with_pool(pool: BufferPool) -> Self {
        let slots = pool.slots();
        PointerTransport {
            pool,
            ring: RingTransport::new(slots * DESC_BYTES, DESC_BYTES),
        }
    }

    /// The backing pool — e.g. to pre-acquire leases and frame payloads
    /// in place before [`Transport::send_token`].
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Number of pool slots (= maximum in-flight messages).
    pub fn slots(&self) -> usize {
        self.pool.slots()
    }

    /// Moves a same-pool lease's slot ownership into the descriptor
    /// ring, waking a parked consumer when `wake` asks for it.
    /// Infallible by the conservation argument on
    /// [`PointerTransport::ring`]; if that invariant is ever broken the
    /// slot is returned to the pool rather than leaked.
    fn publish_lease(&self, lease: TokenBuf, wake: bool) -> Result<(), TransportError> {
        let (slot, off, len) = BufferPool::detach(lease);
        let desc = encode_desc(slot, off, len);
        self.ring
            .send_framed(DESC_BYTES, None, wake, copy_of(&desc))
            .inspect_err(|_| drop(self.pool.lease(slot, 0, 0)))
    }

    /// The one send body: acquires a free pool slot (waiting per `wait`
    /// — an exhausted pool *is* the full channel), lets `frame` build
    /// the message in its first `max_len` bytes, and publishes the
    /// slot's descriptor, waking a parked consumer when `wake` asks for
    /// it.
    // Always inlined, like the ring's send body.
    #[inline(always)]
    fn send_framed(
        &self,
        max_len: usize,
        wait: Option<Duration>,
        wake: bool,
        frame: impl FnOnce(&mut [u8]) -> usize,
    ) -> Result<(), TransportError> {
        admit(max_len, self.pool.slot_bytes())?;
        let mut lease = match wait {
            Some(timeout) => self.pool.acquire(timeout)?,
            None => self.pool.try_acquire().ok_or(TransportError::Full)?,
        };
        let len = frame(&mut lease[..max_len]).min(max_len);
        lease.truncate(len);
        self.publish_lease(lease, wake)
    }

    /// The one receive body: dequeues the next descriptor (waiting per
    /// `wait`) and wraps its slot in a lease, which releases the slot
    /// when it drops — including if its reader panics mid-read.
    fn next_lease(&self, wait: Option<Duration>) -> Result<TokenBuf, TransportError> {
        let (slot, off, len) = self.ring.recv_framed(wait, decode_desc)?;
        Ok(self.pool.lease(slot, off, len))
    }
}

impl Transport for PointerTransport {
    fn capacity_bytes(&self) -> usize {
        self.pool.slots() * self.pool.slot_bytes()
    }

    fn max_message_bytes(&self) -> usize {
        self.pool.slot_bytes()
    }

    fn len_bytes(&self) -> usize {
        // Slot-granular, like the ring: eq. (2) accounts a full
        // packed-token slot per in-flight message.
        self.ring.occupancy() * self.pool.slot_bytes()
    }

    fn occupancy(&self) -> usize {
        self.ring.occupancy()
    }

    fn snapshot(&self) -> (usize, usize) {
        let occ = self.ring.occupancy();
        (occ * self.pool.slot_bytes(), occ)
    }

    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.send_framed(data.len(), None, true, copy_of(data))
    }

    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.next_lease(None).map(|lease| lease.to_vec())
    }

    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.send_framed(len, Some(timeout), true, filled(len, fill))
    }

    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.next_lease(Some(timeout)).map(|lease| consume(&lease))
    }

    fn send_in_place(
        &self,
        max_len: usize,
        frame: &mut dyn FnMut(&mut [u8]) -> usize,
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.send_framed(max_len, Some(timeout), true, frame)
    }

    fn send_token(&self, token: Token, timeout: Duration) -> Result<(), TransportError> {
        match token {
            // The zero-copy path: the lease's slot changes hands, the
            // payload bytes never move.
            Token::Pooled(lease) if self.pool.owns(&lease) => self.publish_lease(lease, true),
            // Owned buffers and foreign-pool leases copy into a local
            // slot (the foreign lease releases on drop, after the copy).
            token => self.send(&token, timeout),
        }
    }

    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        self.next_lease(Some(timeout)).map(Token::Pooled)
    }

    fn try_recv_token(&self) -> Result<Token, TransportError> {
        self.next_lease(None).map(Token::Pooled)
    }

    fn try_send_quiet(&self, data: &[u8]) -> Result<(), TransportError> {
        self.send_framed(data.len(), None, false, copy_of(data))
    }

    fn wake(&self) {
        self.ring.wake();
    }

    fn pool(&self) -> Option<&BufferPool> {
        Some(&self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn all(capacity: usize, slot: usize) -> Vec<Box<dyn Transport>> {
        vec![
            Box::new(LockedTransport::new(capacity, slot)),
            Box::new(RingTransport::new(capacity, slot)),
            Box::new(PointerTransport::new(capacity, slot)),
        ]
    }

    const T: Duration = Duration::from_millis(200);

    #[test]
    fn fifo_order_preserved() {
        for t in all(64, 8) {
            for i in 0..5u8 {
                t.send(&[i; 3], T).unwrap();
            }
            for i in 0..5u8 {
                assert_eq!(t.recv(T).unwrap(), vec![i; 3]);
            }
        }
    }

    #[test]
    fn capacity_is_byte_accurate() {
        let locked = LockedTransport::new(24, 8);
        assert_eq!(locked.capacity_bytes(), 24);
        let ring = RingTransport::new(24, 8);
        assert_eq!(ring.capacity_bytes(), 24);
        assert_eq!(ring.slots(), 3);
        assert_eq!(ring.max_message_bytes(), 8);
        // Capacity not divisible by the slot size rounds down (eq. (2)
        // sizing always divides exactly; raw specs may not).
        assert_eq!(RingTransport::new(20, 8).slots(), 2);
        assert_eq!(RingTransport::new(4, 8).slots(), 1, "at least one slot");
    }

    #[test]
    fn full_channel_rejects_try_send_then_times_out() {
        for t in all(8, 8) {
            t.send(&[1; 8], T).unwrap();
            assert_eq!(t.try_send(&[2; 8]), Err(TransportError::Full));
            assert!(matches!(
                t.send(&[2; 8], Duration::from_millis(30)),
                Err(TransportError::Timeout { .. })
            ));
            assert_eq!(t.recv(T).unwrap(), vec![1; 8]);
            assert_eq!(t.try_recv(), Err(TransportError::Empty));
        }
    }

    #[test]
    fn oversized_message_rejected() {
        for t in all(64, 8) {
            assert_eq!(
                t.send(&[0; 9], T),
                Err(TransportError::TooLarge { bytes: 9, max: 8 })
            );
            assert_eq!(
                t.try_send(&[0; 9]),
                Err(TransportError::TooLarge { bytes: 9, max: 8 })
            );
        }
    }

    #[test]
    fn empty_recv_times_out() {
        for t in all(64, 8) {
            assert!(matches!(
                t.recv(Duration::from_millis(30)),
                Err(TransportError::Timeout { .. })
            ));
        }
    }

    #[test]
    fn zero_length_messages_flow() {
        for t in all(16, 4) {
            t.send(&[], T).unwrap();
            t.send(&[7], T).unwrap();
            assert_eq!(t.recv(T).unwrap(), Vec::<u8>::new());
            assert_eq!(t.recv(T).unwrap(), vec![7]);
        }
    }

    /// Every way of putting `data` (at most 8 bytes) into a transport.
    type SendShape = fn(&dyn Transport, &[u8]) -> Result<(), TransportError>;
    const SEND_SHAPES: [(&str, SendShape); 5] = [
        ("try_send", |t, data| t.try_send(data)),
        ("send", |t, data| t.send(data, T)),
        ("send_with", |t, data| {
            t.send_with(data.len(), &mut |buf| buf.copy_from_slice(data), T)
        }),
        ("send_in_place", |t, data| {
            // Reserve the whole slot when the message fits one, as a
            // framing sender does, and publish only the prefix.
            let frame = &mut |buf: &mut [u8]| {
                buf[..data.len()].copy_from_slice(data);
                data.len()
            };
            t.send_in_place(data.len().max(8), frame, T)
        }),
        ("send_token", |t, data| {
            t.send_token(Token::Owned(data.to_vec()), T)
        }),
    ];

    /// Every way of taking the next message out of a transport.
    type RecvShape = fn(&dyn Transport) -> Result<Vec<u8>, TransportError>;
    const RECV_SHAPES: [(&str, RecvShape); 5] = [
        ("try_recv", |t| t.try_recv()),
        ("recv", |t| t.recv(T)),
        ("recv_with", |t| {
            let mut got = Vec::new();
            t.recv_with(&mut |bytes| got.extend_from_slice(bytes), T)?;
            Ok(got)
        }),
        ("recv_token", |t| t.recv_token(T).map(Token::into_vec)),
        ("try_recv_token", |t| {
            t.try_recv_token().map(Token::into_vec)
        }),
    ];

    #[test]
    fn in_place_send_and_recv_roundtrip() {
        for t in all(32, 8) {
            for (sent_by, send) in SEND_SHAPES {
                for (got_by, recv) in RECV_SHAPES {
                    send(&*t, b"packed").unwrap();
                    assert_eq!(recv(&*t).unwrap(), b"packed", "{sent_by} → {got_by}");
                }
                // One bound, one error, whichever shape carries the
                // oversized message.
                assert_eq!(
                    send(&*t, &[0; 9]),
                    Err(TransportError::TooLarge { bytes: 9, max: 8 }),
                    "{sent_by}"
                );
            }
            assert_eq!(t.occupancy(), 0, "every shape left the channel empty");
        }
    }

    #[test]
    fn blocked_sender_wakes_on_recv() {
        for (kind, t) in [
            (
                "locked",
                Arc::new(LockedTransport::new(4, 4)) as Arc<dyn Transport>,
            ),
            (
                "ring",
                Arc::new(RingTransport::new(4, 4)) as Arc<dyn Transport>,
            ),
            (
                "pointer",
                Arc::new(PointerTransport::new(4, 4)) as Arc<dyn Transport>,
            ),
        ] {
            t.send(&[1; 4], T).unwrap();
            let t2 = Arc::clone(&t);
            let sender = thread::spawn(move || t2.send(&[2; 4], Duration::from_secs(5)));
            thread::sleep(Duration::from_millis(20));
            assert_eq!(t.recv(T).unwrap(), vec![1; 4], "{kind}");
            sender.join().unwrap().unwrap();
            assert_eq!(t.recv(T).unwrap(), vec![2; 4], "{kind}");
        }
    }

    #[test]
    fn blocked_receiver_wakes_on_send() {
        for t in [
            Arc::new(LockedTransport::new(16, 4)) as Arc<dyn Transport>,
            Arc::new(RingTransport::new(16, 4)) as Arc<dyn Transport>,
            Arc::new(PointerTransport::new(16, 4)) as Arc<dyn Transport>,
        ] {
            let t2 = Arc::clone(&t);
            let receiver = thread::spawn(move || t2.recv(Duration::from_secs(5)));
            thread::sleep(Duration::from_millis(20));
            t.send(&[9; 4], T).unwrap();
            assert_eq!(receiver.join().unwrap().unwrap(), vec![9; 4]);
        }
    }

    /// `wake_all` with more than one waiter registered — a shared end,
    /// which among real threads only the pool's free list is: every
    /// one of them is unparked (after the unlock), so each wake-up lets
    /// one through and leaves the other parked for the next.
    #[test]
    fn every_registered_waiter_is_woken() {
        let long = Duration::from_secs(5);
        let both_registered = |ring: &RingTransport| {
            while ring.consumer.waiters.waiting.load(Ordering::Acquire) < 2 {
                thread::yield_now();
            }
        };

        let ring = Arc::new(RingTransport::new(4, 4));
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&ring);
                thread::spawn(move || r.recv(long))
            })
            .collect();
        both_registered(&ring);
        ring.send(&[1; 4], long).unwrap();
        ring.send(&[2; 4], long).unwrap();
        let mut got: Vec<Vec<u8>> = receivers
            .into_iter()
            .map(|r| r.join().unwrap().unwrap())
            .collect();
        got.sort();
        assert_eq!(got, [vec![1; 4], vec![2; 4]]);

        let pool = BufferPool::new(1, 8);
        let held = pool.acquire(T).unwrap();
        let acquirers: Vec<_> = (0..2)
            .map(|_| {
                let p = pool.clone();
                thread::spawn(move || p.acquire(long).map(drop))
            })
            .collect();
        both_registered(pool.free_list());
        // The release wakes both; the winner's own release, the other.
        drop(held);
        for a in acquirers {
            a.join().unwrap().unwrap();
        }
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn ring_streams_many_messages_across_threads() {
        let ring = Arc::new(RingTransport::new(8 * 16, 16));
        let tx = Arc::clone(&ring);
        let n: u32 = 20_000;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.send_with(
                    4,
                    &mut |buf| buf.copy_from_slice(&i.to_le_bytes()),
                    Duration::from_secs(10),
                )
                .unwrap();
            }
        });
        let mut next = 0u32;
        for _ in 0..n {
            ring.recv_with(
                &mut |bytes| {
                    let got = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
                    assert_eq!(got, next);
                    next += 1;
                },
                Duration::from_secs(10),
            )
            .unwrap();
        }
        producer.join().unwrap();
        assert_eq!(next, n);
    }

    #[test]
    fn transport_kind_sizes_from_spec() {
        let spec = ChannelSpec {
            capacity_bytes: 48,
            max_message_bytes: 6,
        };
        let ring = TransportKind::Ring.instantiate(&spec);
        assert_eq!(ring.capacity_bytes(), 48);
        assert_eq!(ring.max_message_bytes(), 6);
        let locked = TransportKind::Locked.instantiate(&spec);
        assert_eq!(locked.capacity_bytes(), 48);
        assert_eq!(locked.max_message_bytes(), 6);
        let pointer = TransportKind::Pointer.instantiate(&spec);
        assert_eq!(pointer.capacity_bytes(), 48);
        assert_eq!(pointer.max_message_bytes(), 6);
    }

    #[test]
    fn occupancy_tracks_sends_and_recvs() {
        // Locked is byte-exact; the ring reports slot-granular bytes.
        let locked = LockedTransport::new(64, 8);
        locked.send(&[1; 3], T).unwrap();
        locked.send(&[2; 5], T).unwrap();
        assert_eq!(locked.occupancy(), 2);
        assert_eq!(locked.len_bytes(), 8);
        locked.recv(T).unwrap();
        assert_eq!((locked.occupancy(), locked.len_bytes()), (1, 5));

        let ring = RingTransport::new(64, 8);
        assert_eq!((ring.occupancy(), ring.len_bytes()), (0, 0));
        ring.send(&[1; 3], T).unwrap();
        ring.send(&[2; 5], T).unwrap();
        assert_eq!(ring.occupancy(), 2);
        assert_eq!(ring.len_bytes(), 16, "slot-granular: 2 slots × 8 B");
        ring.recv(T).unwrap();
        ring.recv(T).unwrap();
        assert_eq!((ring.occupancy(), ring.len_bytes()), (0, 0));
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        for t in all(16, 4) {
            for _ in 0..4 {
                t.send(&[0; 4], T).unwrap();
            }
            assert_eq!(t.occupancy(), 4);
            assert_eq!(t.len_bytes(), 16);
        }
    }

    #[test]
    fn send_in_place_frames_into_channel_storage() {
        for t in all(32, 8) {
            t.send_in_place(
                8,
                &mut |buf| {
                    buf[..6].copy_from_slice(b"framed");
                    6
                },
                T,
            )
            .unwrap();
            assert_eq!(t.recv(T).unwrap(), b"framed");
            assert_eq!(
                t.send_in_place(9, &mut |_| 0, T),
                Err(TransportError::TooLarge { bytes: 9, max: 8 })
            );
        }
    }

    #[test]
    fn recv_token_is_owned_on_copying_transports() {
        for t in [
            Box::new(LockedTransport::new(16, 8)) as Box<dyn Transport>,
            Box::new(RingTransport::new(16, 8)),
        ] {
            t.send(b"abc", T).unwrap();
            let tok = t.recv_token(T).unwrap();
            assert!(!tok.is_pooled());
            assert_eq!(&*tok, b"abc");
        }
    }

    #[test]
    fn pointer_send_token_moves_the_slot_without_copying() {
        let t = PointerTransport::new(4 * 16, 16);
        let mut lease = t.buffer_pool().acquire(T).unwrap();
        lease[..5].copy_from_slice(b"zcopy");
        lease.truncate(5);
        let addr = lease.as_ptr();
        t.send_token(Token::Pooled(lease), T).unwrap();
        let got = t.recv_token(T).unwrap();
        assert!(got.is_pooled());
        assert_eq!(&*got, b"zcopy");
        assert_eq!(
            got.as_ptr(),
            addr,
            "same slot bytes on both sides — pointer exchange, not a copy"
        );
        drop(got);
        assert_eq!(t.buffer_pool().available(), 4, "drop released the slot");
    }

    #[test]
    fn shared_pool_chain_relays_without_copying() {
        // Two edges of a chain share one slab (§5.2 forwarding): a
        // token received from the first hop passes through the second
        // as a bare descriptor, payload bytes staying put.
        let t1 = PointerTransport::new(4 * 16, 16);
        let t2 = PointerTransport::with_pool(t1.buffer_pool().clone());
        t1.send(b"chained", T).unwrap();
        let mut token = t1.recv_token(T).unwrap();
        let addr = token.as_ptr();
        // An in-place transform over the lease, as a filter PE would.
        token[0] = b'C';
        t2.send_token(token, T).unwrap();
        let got = t2.recv_token(T).unwrap();
        assert_eq!(&*got, b"Chained");
        assert_eq!(got.as_ptr(), addr, "both hops served from one slot");
        drop(got);
        assert_eq!(t1.buffer_pool().available(), 4);
        assert_eq!(t2.buffer_pool().available(), 4, "same pool");
    }

    #[test]
    fn pointer_forwards_trimmed_leases_by_offset() {
        let t = PointerTransport::new(2 * 16, 16);
        let mut lease = t.buffer_pool().acquire(T).unwrap();
        lease[..8].copy_from_slice(b"hdr!body");
        lease.truncate(8);
        lease.trim_front(4);
        t.send_token(Token::Pooled(lease), T).unwrap();
        assert_eq!(t.recv(T).unwrap(), b"body");
    }

    #[test]
    fn pointer_foreign_tokens_fall_back_to_copy() {
        let t = PointerTransport::new(2 * 8, 8);
        t.send_token(Token::Owned(b"owned".to_vec()), T).unwrap();
        let other = BufferPool::new(1, 8);
        let mut lease = other.acquire(T).unwrap();
        lease[..3].copy_from_slice(b"for");
        lease.truncate(3);
        t.send_token(Token::Pooled(lease), T).unwrap();
        assert_eq!(other.available(), 1, "foreign lease released after copy");
        assert_eq!(t.recv(T).unwrap(), b"owned");
        assert_eq!(t.recv(T).unwrap(), b"for");
    }

    #[test]
    fn pointer_streams_many_tokens_across_threads() {
        let t = Arc::new(PointerTransport::new(8 * 16, 16));
        let tx = Arc::clone(&t);
        let n: u32 = 20_000;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.send_in_place(
                    4,
                    &mut |buf| {
                        buf.copy_from_slice(&i.to_le_bytes());
                        4
                    },
                    Duration::from_secs(10),
                )
                .unwrap();
            }
        });
        for i in 0..n {
            let tok = t.recv_token(Duration::from_secs(10)).unwrap();
            assert_eq!(u32::from_le_bytes(tok[..4].try_into().unwrap()), i);
        }
        producer.join().unwrap();
        assert_eq!(t.buffer_pool().available(), 8, "all slots back in the pool");
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = TransportError::TooLarge {
            bytes: 100,
            max: 64,
        };
        assert!(e.to_string().contains("100") && e.to_string().contains("64"));
        assert!(TransportError::Full.to_string().contains("full"));
    }
}
