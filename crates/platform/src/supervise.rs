//! Supervised execution: framed channels, bounded retry, fail-stop
//! and checkpoint/restart for the OS-thread runner.
//!
//! The DATE 2008 resynchronization result assumes IPC messages arrive
//! intact and on time. This module is what the threaded runner adds on
//! top of the PRUNE-style discipline of *declared and bounded*
//! deviations so that assumption can be dropped without giving up the
//! static guarantees:
//!
//! * **Framing** — every supervised message is wrapped in an 8-byte
//!   header (`[seq: u32 LE][crc32: u32 LE]`) so the receiver can detect
//!   corruption (CRC mismatch), loss and reordering (sequence gap) and
//!   duplication (stale sequence). The channel's eq. (1)/(2) numbers
//!   are inflated by exactly one header per packed-token slot
//!   ([`framed_spec`]), and all probe events report *logical* payload
//!   sizes and occupancies, so the traced invariants stay the ones the
//!   analyzer derived.
//! * **Retry** — transient failures (injected faults, per-op deadline
//!   misses) are retried up to [`SupervisionPolicy::max_retries`] times
//!   with exponential backoff. A dropped or corrupted frame is simply
//!   retransmitted under the *same* sequence number; the receiver
//!   discards CRC-failed frames and stale duplicates, which makes the
//!   retransmission protocol idempotent without a reverse channel.
//! * **Fail-stop** — a token the retry budget cannot recover stops the
//!   run with an error naming the edge
//!   ([`PlatformError::RetryBudgetExhausted`], or
//!   [`PlatformError::TokensLost`] for a gap in the sequence). The
//!   eq. (1)/(2) bounds and the predicted periods hold only for tokens
//!   the schedule produced, so no stand-in token is ever delivered.
//! * **Checkpoint / restart** — each PE snapshots its functional state
//!   (all of [`PeLocal`]: store, inbox, indexed queues and staged
//!   sends) at every iteration boundary. A panicking compute
//!   closure rolls the iteration back and replays it, at most
//!   [`MAX_RESTARTS`] times per PE: receives are
//!   replayed from a local log (the transport is not touched again) and
//!   already-transmitted sends are not re-sent, so a restart can never
//!   push channel occupancy past the eq. (2) bound. Replay assumes
//!   compute and payload closures are deterministic functions of
//!   [`PeLocal`].
//!
//! What the protocol *decides* lives in [`protocol`], two pure state
//! machines per channel; what it *does* — transport calls, deadlines,
//! backoff — lives in the `Supervised` port that drives them inside the
//! runner's one op walk, with checkpoint / restart as an adaptor around
//! it. Every fault-handling decision is emitted through the
//! [`crate::Tracer`] as a `FaultRetry` / `FaultCorrupt` /
//! `FaultRestart` probe event; the `spi-trace` conformance checker
//! holds those events against the declared budgets (diagnostics
//! SPI090, SPI092–SPI094).

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::error::{BlockKind, PlatformError, Result};
use crate::pool::Token;
use crate::runner::{Flow, PeIo, Port};
use crate::sim::{ChannelId, ChannelSpec, ComputeFn, PeLocal};
use crate::trace::ProbeKind;
use crate::transport::TransportError;

/// Bytes of supervision header prepended to every framed message:
/// `[seq: u32 LE][crc32: u32 LE]`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Checkpoint restarts allowed per PE before a panicking compute
/// closure is fatal ([`PlatformError::RestartBudgetExhausted`]).
pub const MAX_RESTARTS: u32 = 1;

/// Base of the exponential backoff between retries
/// (`base · 2^(attempt−1)`, capped at [`MAX_BACKOFF`]). Deadline-miss
/// retries skip the backoff — the deadline already waited.
const BACKOFF_BASE: Duration = Duration::from_micros(500);

/// Longest single exponential-backoff sleep between retries.
const MAX_BACKOFF: Duration = Duration::from_millis(100);

/// Bounded-recovery configuration for [`crate::ThreadedRunner`]:
/// recover a token exactly within the retry budget, or stop the run.
///
/// All bounds are *declared*: the trace-conformance checker verifies
/// the observed fault handling stayed inside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionPolicy {
    /// Deadline for one blocking channel-operation attempt. Derive it
    /// from the predicted makespan (`sched::predicted`) when one is
    /// available: no single token should take longer than the whole
    /// schedule was predicted to.
    pub op_deadline: Duration,
    /// Retries after the first failed attempt before the run stops.
    pub max_retries: u32,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            op_deadline: Duration::from_secs(2),
            max_retries: 3,
        }
    }
}

impl SupervisionPolicy {
    /// `retries` attempts beyond the first, then fail-stop.
    pub fn retry(retries: u32) -> Self {
        SupervisionPolicy {
            max_retries: retries,
            ..SupervisionPolicy::default()
        }
    }

    /// Overrides the per-attempt deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.op_deadline = deadline;
        self
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// The CRC-32C (Castagnoli) polynomial, bit-reflected: the one the
/// SSE4.2 `crc32` instruction computes.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slice-by-16 CRC-32C lookup tables (Castagnoli polynomial, reflected):
/// `t[k][b]` is the CRC contribution of byte `b` positioned `k` bytes
/// from the end of a 16-byte block.
fn crc_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: std::sync::OnceLock<Box<[[u32; 256]; 16]>> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for i in 0..256 {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC32C_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..16 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// The supervision-frame checksum.
///
/// Fault-free supervision overhead is capped at 5%, and for the
/// 512-byte frames of a typical audio pipeline a naive byte-at-a-time
/// CRC (serial ~5-cycle-per-byte dependency chain) puts the checksum —
/// not the signal processing — on the critical path. Two fast paths
/// keep it off:
///
/// * x86-64 with SSE4.2: the hardware `crc32` instruction at
///   ~0.07 ns/byte with **no** lookup-table cache footprint next to the
///   application's working set;
/// * elsewhere: slice-by-16 software tables at ~0.5 ns/byte.
///
/// Both compute CRC-32C (Castagnoli polynomial), so a frame checks the
/// same on either path.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: gated on runtime SSE4.2 detection.
        #[allow(unsafe_code)]
        return unsafe { crc32c_hw(bytes) };
    }
    crc32_sw(bytes)
}

/// Hardware CRC-32C: 8 bytes per 3-cycle `crc32` instruction.
///
/// Safety: callers must ensure SSE4.2 is available (runtime-detected
/// in [`crc32`]); the body itself touches only the `bytes` slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
#[allow(unsafe_code)]
unsafe fn crc32c_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c: u64 = 0xFFFF_FFFF;
    let (words, tail) = bytes.as_chunks::<8>();
    for &w in words {
        c = _mm_crc32_u64(c, u64::from_le_bytes(w));
    }
    let mut c = c as u32;
    for &b in tail {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// Software CRC-32C, slice-by-16.
fn crc32_sw(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = !0u32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for &b in blocks {
        let b = u128::from_le_bytes(b);
        let (w0, w1, w2, w3) = (
            b as u32 ^ c,
            (b >> 32) as u32,
            (b >> 64) as u32,
            (b >> 96) as u32,
        );
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Why a received frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the 8-byte header.
    Truncated,
    /// Payload CRC did not match the header.
    BadCrc,
}

/// Wraps `payload` in a supervision frame, in a reused buffer: the hot
/// send path frames one message per iteration per channel, so after the
/// first message the caller's scratch buffer makes framing
/// allocation-free.
pub fn encode_frame_into(frame: &mut Vec<u8>, seq: u32, payload: &[u8]) {
    frame.clear();
    frame.reserve(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
}

/// Splits and verifies a supervision frame, returning `(seq, payload)`.
pub fn decode_frame(frame: &[u8]) -> std::result::Result<(u32, &[u8]), FrameError> {
    let Some((&header, payload)) = frame.split_first_chunk::<FRAME_HEADER_BYTES>() else {
        return Err(FrameError::Truncated);
    };
    let header = u64::from_le_bytes(header);
    let (seq, crc) = (header as u32, (header >> 32) as u32);
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((seq, payload))
}

/// The physical channel spec backing a supervised logical spec: one
/// frame header per packed-token slot is added to both the per-message
/// bound and the capacity, so the slot *count* — the eq. (2) token
/// bound `Γ + delay(e)` — is unchanged and a supervised run can never
/// hold more tokens in flight than the unsupervised bound allows.
///
/// Public because external endpoint builders — `spi-net` sizing a
/// socket channel's credit window for a supervised distributed run —
/// must apply the same inflation before handing endpoints to
/// [`crate::ThreadedRunner::run_with_endpoints`].
///
/// # Panics
///
/// If `spec` declares no message bound; the runner rejects such a spec
/// before sizing anything from it.
pub fn framed_spec(spec: &ChannelSpec) -> ChannelSpec {
    assert!(spec.max_message_bytes > 0, "spec declares no message bound");
    let slots = (spec.capacity_bytes / spec.max_message_bytes).max(1);
    ChannelSpec {
        max_message_bytes: spec.max_message_bytes + FRAME_HEADER_BYTES,
        capacity_bytes: spec.capacity_bytes + slots * FRAME_HEADER_BYTES,
    }
}

// ---------------------------------------------------------------------
// The protocol, as a pure state machine
// ---------------------------------------------------------------------

/// The supervision protocol with the I/O taken out: sequence numbering,
/// stale-duplicate discard, gap detection and the retry-budget
/// verdicts, as one send-side and one receive-side state machine per
/// channel. Nothing in here touches a transport, a tracer or a clock —
/// `Supervised` does that and asks these machines for every decision,
/// and `spi_verify::framing` drives the same machines against an
/// adversarial channel (which is why the module is exported, under
/// `verify-shim` only).
pub mod protocol {
    use super::{decode_frame, encode_frame_into, FRAME_HEADER_BYTES};
    use crate::pool::Token;

    /// A fault-handling step a machine took on the way to its verdict.
    /// The supervised port turns each into the `Fault*` probe event of
    /// the same name.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Note {
        /// A deadline miss is being retried; 1-based attempt number.
        Retry(u32),
        /// A frame failed its CRC and was discarded.
        Corrupt,
    }

    /// What the sender does after a transmission attempt failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SendVerdict {
        /// Retransmit the same frame; 1-based attempt number.
        Retry(u32),
        /// Budget spent: stop the run. Carries the attempts made (first
        /// try plus retries).
        Fail(u32),
    }

    /// Sender side of one channel.
    #[derive(Debug, Clone)]
    pub struct SendSide {
        max_retries: u32,
        /// Sequence number of the token in flight.
        seq: u32,
        /// Failed attempts at transmitting it.
        attempt: u32,
    }

    impl SendSide {
        /// A sender at sequence number 0.
        pub fn new(max_retries: u32) -> Self {
            SendSide {
                max_retries,
                seq: 0,
                attempt: 0,
            }
        }

        /// Frames `payload` under the sequence number of the token in
        /// flight — the same one on every retransmission, which is what
        /// lets the receiver discard duplicates without a reverse
        /// channel.
        pub fn frame_into(&self, frame: &mut Vec<u8>, payload: &[u8]) {
            encode_frame_into(frame, self.seq, payload);
        }

        /// The transport took the frame.
        pub fn sent(&mut self) {
            self.seq = self.seq.wrapping_add(1);
            self.attempt = 0;
        }

        /// A transmission attempt failed transiently.
        pub fn failed(&mut self) -> SendVerdict {
            self.attempt += 1;
            if self.attempt <= self.max_retries {
                SendVerdict::Retry(self.attempt)
            } else {
                SendVerdict::Fail(self.attempt)
            }
        }
    }

    /// What one step of a receive op came to.
    #[derive(Debug)]
    pub enum RecvVerdict {
        /// The next token of the stream, intact and in order.
        Deliver(Token),
        /// Nothing to hand over yet: read the transport (again).
        Read,
        /// A frame from the future arrived: stop the run. Carries the
        /// number of tokens missing before that frame.
        Lost(u32),
        /// Retry budget spent: stop the run. Carries the attempts made
        /// (first try plus retries).
        Exhausted(u32),
    }

    /// Receiver side of one channel. A receive op feeds
    /// [`RecvSide::frame`] / [`RecvSide::timeout`] for as long as the
    /// verdict is [`RecvVerdict::Read`]; every op ends in exactly one
    /// token or a fail-stop.
    #[derive(Debug, Clone)]
    pub struct RecvSide {
        max_retries: u32,
        /// Next sequence number to deliver.
        expected: u32,
        /// Failed attempts of the receive op in progress.
        attempt: u32,
    }

    impl RecvSide {
        /// A receiver expecting sequence number 0.
        pub fn new(max_retries: u32) -> Self {
            RecvSide {
                max_retries,
                expected: 0,
                attempt: 0,
            }
        }

        /// A frame came off the transport. Pooled leases flow through
        /// unchanged: the CRC check reads the frame in place and the
        /// verified header is stripped by a pointer bump, not a copy.
        pub fn frame(&mut self, mut frame: Token, mut note: impl FnMut(Note)) -> RecvVerdict {
            match decode_frame(&frame).map(|(seq, _)| seq) {
                Ok(seq) => {
                    frame.trim_front(FRAME_HEADER_BYTES);
                    self.accept(seq, frame)
                }
                // The sender was told (typed error) and retransmits;
                // wait for the clean copy.
                Err(_) => {
                    note(Note::Corrupt);
                    self.missed(false, note)
                }
            }
        }

        /// The attempt's deadline passed with nothing to read.
        pub fn timeout(&mut self, note: impl FnMut(Note)) -> RecvVerdict {
            self.missed(true, note)
        }

        fn accept(&mut self, seq: u32, payload: Token) -> RecvVerdict {
            // Serial-number arithmetic: sequence numbers wrap, so a frame
            // is stale when it lies less than half the number space
            // behind `expected`.
            let ahead = seq.wrapping_sub(self.expected);
            if (ahead as i32) < 0 {
                // A duplicate of a delivered token (injected, or a
                // retransmission that raced its original): no attempt
                // consumed.
                return RecvVerdict::Read;
            }
            if ahead == 0 {
                self.expected = self.expected.wrapping_add(1);
                self.attempt = 0;
                return RecvVerdict::Deliver(payload);
            }
            // A frame from the future: tokens `expected..seq` are gone.
            RecvVerdict::Lost(ahead)
        }

        /// One failed attempt; past the budget the op fails.
        fn missed(&mut self, timed_out: bool, mut note: impl FnMut(Note)) -> RecvVerdict {
            self.attempt += 1;
            if self.attempt > self.max_retries {
                return RecvVerdict::Exhausted(self.attempt);
            }
            if timed_out {
                note(Note::Retry(self.attempt));
            }
            RecvVerdict::Read
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// A sender / receiver pair part-way through a long stream, two
        /// tokens before the sequence number wraps, and the frames of
        /// the next `n` tokens.
        fn near_the_wrap(n: u8) -> (RecvSide, Vec<Vec<u8>>) {
            let mut tx = SendSide::new(1);
            let mut rx = RecvSide::new(1);
            (tx.seq, rx.expected) = (u32::MAX - 1, u32::MAX - 1);
            let frames = (0..n)
                .map(|i| {
                    let mut frame = Vec::new();
                    tx.frame_into(&mut frame, &[i]);
                    tx.sent();
                    frame
                })
                .collect();
            (rx, frames)
        }

        /// What the receiver makes of `frames[k]` for each `k` in `wire`.
        fn feed(rx: &mut RecvSide, frames: &[Vec<u8>], wire: &[usize]) -> Vec<String> {
            let verdict = |v: RecvVerdict| match v {
                RecvVerdict::Deliver(token) => format!("deliver {}", token[0]),
                other => format!("{other:?}"),
            };
            (wire.iter())
                .map(|&k| verdict(rx.frame(Token::Owned(frames[k].clone()), |_| {})))
                .collect()
        }

        #[test]
        fn a_duplicate_across_the_wrap_is_discarded() {
            // Tokens u32::MAX − 1, u32::MAX, 0, 1; the one numbered
            // u32::MAX comes twice, the second time after `expected`
            // has wrapped to 0.
            let (mut rx, frames) = near_the_wrap(4);
            let got = feed(&mut rx, &frames, &[0, 1, 1, 2, 3]);
            let want = ["deliver 0", "deliver 1", "Read", "deliver 2", "deliver 3"];
            assert_eq!(got, want);
            assert_eq!(rx.expected, 2);
        }

        #[test]
        fn a_gap_across_the_wrap_is_a_loss_of_its_width() {
            // Tokens u32::MAX − 1, u32::MAX and 0 never arrive.
            let (mut rx, frames) = near_the_wrap(4);
            assert_eq!(feed(&mut rx, &frames, &[3]), ["Lost(3)"]);
        }
    }
}

use protocol::{Note, RecvSide, RecvVerdict, SendSide, SendVerdict};

// ---------------------------------------------------------------------
// The supervised port
// ---------------------------------------------------------------------

/// One channel as one PE uses it (edges are SPSC, so each side's
/// machine is only ever driven by the PE that owns that side).
struct Chan {
    tx: SendSide,
    rx: RecvSide,
}

/// The supervised [`Port`]: transport calls, deadlines, backoff and
/// `Fault*` probe events around the [`protocol`] machines' decisions.
///
/// A fault-free op reads no clock: the only time a failure report
/// needs — when the failing op's first failed attempt began — is
/// stamped by that failure, in `failed_at`.
pub(crate) struct Supervised<'a> {
    io: PeIo<'a>,
    policy: SupervisionPolicy,
    chans: Vec<Chan>,
    /// Reused send-side framing buffer.
    frame_buf: Vec<u8>,
}

/// Stamps `since` with when the failing op's first failed attempt
/// began, unless an earlier attempt of the op already did: a deadline
/// miss (`waited`) began one deadline ago, any other failure just now.
fn failed_at(since: &Cell<Option<Instant>>, waited: Option<Duration>) {
    if since.get().is_none() {
        let now = crate::shim::now();
        since.set(Some(waited.and_then(|d| now.checked_sub(d)).unwrap_or(now)));
    }
}

impl<'a> Supervised<'a> {
    fn new(io: PeIo<'a>, policy: SupervisionPolicy) -> Self {
        let chan = |_| Chan {
            tx: SendSide::new(policy.max_retries),
            rx: RecvSide::new(policy.max_retries),
        };
        Supervised {
            chans: io.specs.iter().map(chan).collect(),
            io,
            policy,
            frame_buf: Vec::new(),
        }
    }

    /// The error for an op whose retry budget ran out; it had been
    /// failing since `since`.
    fn exhausted(
        &self,
        ch: ChannelId,
        kind: BlockKind,
        attempts: u32,
        since: Option<Instant>,
    ) -> PlatformError {
        let now = crate::shim::now();
        PlatformError::RetryBudgetExhausted {
            pe: self.io.pe,
            channel: ch,
            attempts,
            kind,
            idle: since.map_or(Duration::ZERO, |t| now.duration_since(t)),
        }
    }

    fn backoff(&self, attempt: u32) {
        let exp = BACKOFF_BASE.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        crate::shim::sleep(exp.min(MAX_BACKOFF));
    }
}

impl<'a> Port<'a> for Supervised<'a> {
    fn send(&mut self, ch: ChannelId, data: &[u8]) -> Result<()> {
        // The frame is built once and retransmitted as is; its buffer
        // goes back to the port afterwards, so framing stops allocating
        // after the first message.
        let mut frame = std::mem::take(&mut self.frame_buf);
        self.chans[ch.0].tx.frame_into(&mut frame, data);
        let ep = &self.io.endpoints[ch.0];
        let deadline = self.policy.op_deadline;
        let failing_since = Cell::new(None);
        // A quiet publish first, as on the direct port; on `Full` the
        // blocking send waits, and every retransmission is one too.
        let mut outcome = match self.io.send_quiet(ch, &frame) {
            Err(TransportError::Full) => ep.send(&frame, deadline),
            outcome => outcome,
        };
        let sent = loop {
            let err = match outcome {
                Ok(()) => {
                    self.chans[ch.0].tx.sent();
                    if let Some(t) = self.io.probe {
                        (self.io).moved(t, BlockKind::Send, ch, data, FRAME_HEADER_BYTES);
                    }
                    break Ok(());
                }
                Err(e) => e,
            };
            // Declared injections and deadline misses are transient.
            let injected = matches!(err, TransportError::Injected { .. });
            if !injected && !matches!(err, TransportError::Timeout { .. }) {
                break Err((self.io).failed(ch, BlockKind::Send, &err, data.len()));
            }
            failed_at(&failing_since, (!injected).then_some(deadline));
            match self.chans[ch.0].tx.failed() {
                SendVerdict::Retry(attempt) => {
                    self.io.emit(ProbeKind::FaultRetry {
                        channel: ch,
                        attempt,
                    });
                    // A deadline miss already waited out the op
                    // deadline; only immediate failures back off.
                    if injected {
                        self.backoff(attempt);
                    }
                }
                SendVerdict::Fail(attempts) => {
                    break Err(self.exhausted(ch, BlockKind::Send, attempts, failing_since.get()))
                }
            }
            outcome = ep.send(&frame, deadline);
        };
        self.frame_buf = frame;
        sent
    }

    fn io(&mut self) -> &mut PeIo<'a> {
        &mut self.io
    }

    fn recv(&mut self, ch: ChannelId) -> Result<Token> {
        let (ep, deadline) = (&self.io.endpoints[ch.0], self.policy.op_deadline);
        let failing_since = Cell::new(None);
        loop {
            let io = &mut self.io;
            let note = |n: Note| {
                if n == Note::Corrupt {
                    failed_at(&failing_since, None);
                }
                io.emit(match n {
                    Note::Retry(attempt) => ProbeKind::FaultRetry {
                        channel: ch,
                        attempt,
                    },
                    Note::Corrupt => ProbeKind::FaultCorrupt { channel: ch },
                })
            };
            let rx = &mut self.chans[ch.0].rx;
            let verdict = match ep.recv_token(deadline) {
                Ok(frame) => rx.frame(frame, note),
                Err(TransportError::Timeout { .. }) => {
                    failed_at(&failing_since, Some(deadline));
                    rx.timeout(note)
                }
                Err(e) => return Err(self.io.failed(ch, BlockKind::Recv, &e, 0)),
            };
            match verdict {
                RecvVerdict::Deliver(token) => {
                    if let Some(t) = self.io.probe {
                        (self.io).moved(t, BlockKind::Recv, ch, &token, FRAME_HEADER_BYTES);
                    }
                    return Ok(token);
                }
                RecvVerdict::Read => {}
                RecvVerdict::Lost(missing) => {
                    return Err(PlatformError::TokensLost {
                        pe: self.io.pe,
                        channel: ch,
                        missing,
                    })
                }
                RecvVerdict::Exhausted(attempts) => {
                    return Err(self.exhausted(ch, BlockKind::Recv, attempts, failing_since.get()))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint / restart
// ---------------------------------------------------------------------

/// Checkpoint / replay around the [`Supervised`] port. The functional
/// state (store + inbox) is snapshotted at every iteration boundary; a
/// compute closure that panics rolls the iteration back and replays it:
/// receives are served from a local log (the transport is not touched
/// again) and transmitted sends are not re-sent, so a restart can never
/// push channel occupancy past the eq. (2) bound. The buffers live
/// across iterations so `clone_from` / `clear` reuse their allocations
/// on the fault-free hot path.
pub(crate) struct Checkpointed<'a> {
    port: Supervised<'a>,
    restarts: u32,
    /// An iteration boundary has been passed. Prologue ops run before
    /// the first one, so a panic there has nothing to roll back to.
    armed: bool,
    /// The PE's local state as the current iteration began.
    saved: PeLocal,
    /// The bytes of every token received since the checkpoint, back to
    /// back in one reused buffer (so the log never pins a pool slot and
    /// a fault-free receive allocates nothing), where each token ends in
    /// it, and how many of them the current pass has consumed.
    log: Vec<u8>,
    ends: Vec<usize>,
    cursor: usize,
    /// Sends transmitted since the checkpoint, and how many of them the
    /// current pass has yet to skip.
    sent: usize,
    skip: usize,
}

impl<'a> Checkpointed<'a> {
    pub(crate) fn new(io: PeIo<'a>, policy: SupervisionPolicy) -> Self {
        Checkpointed {
            port: Supervised::new(io, policy),
            restarts: 0,
            armed: false,
            saved: PeLocal::default(),
            log: Vec::new(),
            ends: Vec::new(),
            cursor: 0,
            sent: 0,
            skip: 0,
        }
    }
}

impl<'a> Port<'a> for Checkpointed<'a> {
    fn send(&mut self, ch: ChannelId, data: &[u8]) -> Result<()> {
        if self.skip > 0 {
            // Transmitted before the rollback: the payload closure
            // re-ran (determinism) but nothing is re-sent.
            self.skip -= 1;
            return Ok(());
        }
        self.port.send(ch, data)?;
        self.sent += 1;
        Ok(())
    }
    fn recv(&mut self, ch: ChannelId) -> Result<Token> {
        let i = self.cursor;
        self.cursor += 1;
        if let Some(&end) = self.ends.get(i) {
            // A replay after a restart: the one allocating path.
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            return Ok(Token::Owned(self.log[start..end].to_vec()));
        }
        let token = self.port.recv(ch)?;
        self.log.extend_from_slice(&token);
        self.ends.push(self.log.len());
        Ok(token)
    }

    fn begin_iteration(&mut self, local: &PeLocal) {
        self.saved.copy_from(local);
        self.log.clear();
        self.ends.clear();
        (self.cursor, self.sent, self.skip, self.armed) = (0, 0, 0, true);
    }

    fn compute(&mut self, work: &mut ComputeFn, local: &mut PeLocal) -> Result<Flow> {
        if catch_unwind(AssertUnwindSafe(|| work(local))).is_ok() {
            return Ok(Flow::Next);
        }
        if !self.armed || self.restarts >= MAX_RESTARTS {
            return Err(PlatformError::RestartBudgetExhausted {
                pe: self.port.io.pe,
                restarts: self.restarts,
                iter: local.iter,
            });
        }
        self.restarts += 1;
        self.io().emit(ProbeKind::FaultRestart { iter: local.iter });
        local.copy_from(&self.saved);
        (self.cursor, self.skip) = (0, self.sent);
        Ok(Flow::Restart)
    }

    fn io(&mut self) -> &mut PeIo<'a> {
        &mut self.port.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, seq, payload);
        frame
    }

    #[test]
    fn crc32_software_matches_crc32c_vectors() {
        // Standard CRC-32C (Castagnoli) check values for the portable
        // path.
        assert_eq!(crc32_sw(b""), 0);
        assert_eq!(crc32_sw(b"123456789"), 0xE306_9283);
        // The 9-byte vector exercises only the bytewise tail; check a
        // long input against a bitwise reference too.
        let buf: Vec<u8> = (0..512u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut want = !0u32;
        for &b in &buf {
            want ^= u32::from(b);
            for _ in 0..8 {
                want = if want & 1 != 0 {
                    0x82F6_3B78 ^ (want >> 1)
                } else {
                    want >> 1
                };
            }
        }
        assert_eq!(crc32_sw(&buf), !want);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_software_matches_the_hardware_path() {
        if !std::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let mut rng = crate::rng::SplitMix64::seed_from_u64(32);
        for _ in 0..200 {
            let len = rng.gen_range(0..=4096usize);
            let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            assert_eq!(crc32_sw(&buf), crc32(&buf), "{len} bytes");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_hardware_matches_crc32c_vectors() {
        if !std::is_x86_feature_detected!("sse4.2") {
            return;
        }
        // Standard CRC-32C (Castagnoli) check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let frame = encode_frame(7, b"payload");
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + 7);
        let (seq, payload) = decode_frame(&frame).unwrap();
        assert_eq!((seq, payload), (7, b"payload".as_slice()));

        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x5A;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadCrc));

        assert_eq!(decode_frame(&frame[..4]), Err(FrameError::Truncated));

        // Zero-length payloads frame cleanly.
        let empty = encode_frame(0, b"");
        assert_eq!(decode_frame(&empty).unwrap(), (0, b"".as_slice()));
    }

    #[test]
    fn framed_spec_preserves_slot_count() {
        let spec = ChannelSpec {
            capacity_bytes: 64,
            max_message_bytes: 16,
        };
        let framed = framed_spec(&spec);
        assert_eq!(framed.max_message_bytes, 24);
        assert_eq!(framed.capacity_bytes, 64 + 4 * 8);
        assert_eq!(
            framed.capacity_bytes / framed.max_message_bytes,
            spec.capacity_bytes / spec.max_message_bytes,
            "token bound Γ + delay(e) must be unchanged"
        );
    }

    #[test]
    fn policy_defaults_are_strict() {
        let p = SupervisionPolicy::default();
        let strict = SupervisionPolicy {
            op_deadline: Duration::from_secs(2),
            max_retries: 3,
        };
        assert_eq!(p, strict, "two settable values");
        let p = SupervisionPolicy::retry(5).with_deadline(Duration::from_millis(50));
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.op_deadline, Duration::from_millis(50));
    }
}
