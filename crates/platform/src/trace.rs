//! Runtime probe points and the [`Tracer`] sink they feed.
//!
//! The paper's pitch is that SPI's *static* analysis — packed-token
//! capacity `c(e)` (eq. 1), the IPC buffer bound `B(e)` (eq. 2), the
//! self-timed schedule's predicted period — makes dynamic-rate execution
//! predictable. This module is the runtime half of checking that claim:
//! both execution engines (the DES in [`crate::sim`] and the OS-thread
//! runner in [`crate::runner`]) emit a common event vocabulary through a
//! [`Tracer`] chosen at build time, and the `spi-trace` crate turns the
//! captured stream into metrics and conformance diagnostics.
//!
//! Only the *interface* lives here (the platform crate must stay at the
//! bottom of the dependency stack); the lock-free capture buffer, the
//! exporters and the checker live in `spi-trace`. By default no tracer
//! is attached; a tracer whose [`Tracer::enabled`] returns `false` is
//! treated the same — emitters resolve the flag once, before their hot
//! loops, so a disabled tracer costs one branch per run, not per event.
//!
//! Timestamps are a bare `u64` whose unit depends on the engine: the
//! DES stamps events with its **simulation cycle**, the threaded runner
//! with **monotonic nanoseconds** since the tracer's epoch
//! ([`Tracer::now`]). Trace consumers learn which from the trace
//! metadata. Both engines stamp a [`ProbeKind::Send`] and a
//! [`ProbeKind::FiringBegin`] with the moment the PE started the op: the
//! DES at its current cycle, the runner with the stamp of the PE's last
//! event, so it reads the clock only where something finished or a wait
//! changed (`crate::runner`'s module docs). Each PE's stream is
//! therefore non-decreasing.

use crate::sim::{ChannelId, PeId};

/// What a probe observed. Every variant is `Copy` and fixed-size so a
/// capture buffer can be a flat preallocated array — no allocation on
/// the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbeKind {
    /// An actor firing (compute op) started. `label` is an id interned
    /// via [`Tracer::intern`] (firing labels are static per program, so
    /// emitters intern once, outside the iteration loop). Stamped when
    /// the PE started the firing: in the threaded runner, with the stamp
    /// of the PE's previous event.
    FiringBegin {
        /// Interned compute label.
        label: u32,
    },
    /// The firing that began with the same `label` on this PE ended.
    FiringEnd {
        /// Interned compute label.
        label: u32,
    },
    /// A message was committed into a channel. Stamped when the PE
    /// started the op: in the threaded runner, with the stamp of the PE's
    /// previous event, which precedes the push — or, when the send
    /// recorded a wait, with its [`ProbeKind::UnblockSend`]'s, which
    /// follows it.
    Send {
        /// Destination channel.
        channel: ChannelId,
        /// Payload bytes.
        bytes: u32,
        /// [`payload_digest`] of the payload — lets consumers check
        /// per-edge FIFO order and cross-engine agreement without
        /// storing bytes.
        digest: u64,
        /// Channel occupancy in bytes observed just after the push
        /// (exact in the DES; a racy-but-conservative snapshot from
        /// [`crate::Transport::len_bytes`] in the threaded runner).
        occ_bytes: u32,
        /// Channel occupancy in messages observed just after the push.
        occ_msgs: u32,
    },
    /// A message was taken out of a channel. Stamped after the take.
    Recv {
        /// Source channel.
        channel: ChannelId,
        /// Payload bytes.
        bytes: u32,
        /// [`payload_digest`] of the payload.
        digest: u64,
        /// Channel occupancy in bytes just after the receive.
        occ_bytes: u32,
        /// Channel occupancy in messages just after the receive.
        occ_msgs: u32,
    },
    /// A send found the channel full and the PE started blocking.
    BlockSend {
        /// The full channel.
        channel: ChannelId,
    },
    /// A receive found the channel empty and the PE started blocking.
    BlockRecv {
        /// The empty channel.
        channel: ChannelId,
    },
    /// A PE blocked on a send resumed.
    UnblockSend {
        /// The channel it was blocked on.
        channel: ChannelId,
    },
    /// A PE blocked on a receive resumed.
    UnblockRecv {
        /// The channel it was blocked on.
        channel: ChannelId,
    },
    /// A supervised channel operation failed transiently (injected
    /// fault, deadline miss) and is being retried.
    FaultRetry {
        /// The faulted channel.
        channel: ChannelId,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A CRC-checked frame failed verification and was discarded; the
    /// supervisor expects a retransmission.
    FaultCorrupt {
        /// The channel the corrupt frame arrived on.
        channel: ChannelId,
    },
    /// A supervised PE restored its iteration-boundary checkpoint and
    /// restarted the iteration after a panic.
    FaultRestart {
        /// The iteration that was rolled back and replayed.
        iter: u64,
    },
    /// A batched network sender flushed its pending records in one
    /// write. `msgs`/`bytes` size the flush; `reason` records
    /// which adaptive-flush trigger fired, so trace consumers can audit
    /// the Nagle policy against the schedule's batching budget.
    BatchFlush {
        /// The channel the batch was written to.
        channel: ChannelId,
        /// Records coalesced into this flush.
        msgs: u32,
        /// Total payload bytes across the flushed records.
        bytes: u32,
        /// Which flush trigger fired.
        reason: FlushReason,
    },
}

/// Why a batched sender flushed its pending records. Carried by
/// [`ProbeKind::BatchFlush`]; the numeric codes are the trace wire
/// encoding and must stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlushReason {
    /// The batch reached its configured `batch_max` records.
    Full,
    /// The credit window could not cover another message — unsent
    /// records can never earn credits back, so the sender drains before
    /// blocking.
    Window,
    /// The Nagle deadline elapsed with the batch still partial.
    Deadline,
    /// The thread that appended the records stopped feeding the batch:
    /// it was about to block in (or polled empty) a network endpoint, or
    /// it exited — nothing more will join the batch soon, so latency
    /// beats amortization.
    Idle,
    /// Endpoint teardown drained the remaining records.
    Final,
}

impl FlushReason {
    /// Stable numeric code used by the native trace format.
    pub fn code(self) -> u32 {
        match self {
            FlushReason::Full => 0,
            FlushReason::Window => 1,
            FlushReason::Deadline => 2,
            FlushReason::Idle => 3,
            FlushReason::Final => 4,
        }
    }

    /// Inverse of [`FlushReason::code`]; `None` for unknown codes.
    pub fn from_code(code: u32) -> Option<FlushReason> {
        Some(match code {
            0 => FlushReason::Full,
            1 => FlushReason::Window,
            2 => FlushReason::Deadline,
            3 => FlushReason::Idle,
            4 => FlushReason::Final,
            _ => return None,
        })
    }
}

/// One captured probe record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Engine timestamp: DES cycle or monotonic nanoseconds (see the
    /// module docs).
    pub ts: u64,
    /// PE the event belongs to.
    pub pe: PeId,
    /// What happened.
    pub kind: ProbeKind,
}

/// A sink for runtime probe events.
///
/// Implementations must be cheap and callable from multiple PE threads
/// concurrently ([`Tracer::record`] is invoked from each runner thread
/// with that thread's own `pe` id). The contract emitters rely on:
///
/// * [`Tracer::enabled`] is constant for the lifetime of a run —
///   engines read it once and skip all probe work when `false`;
/// * [`Tracer::intern`] may lock (it is only called outside hot loops);
/// * [`Tracer::record`] must not lock or allocate in a real capture
///   implementation — the `spi-trace` ring uses per-PE single-writer
///   buffers;
/// * the writer contract: only the thread running a PE records that
///   PE's events (the runner's PE thread, the DES's one thread), with
///   one exception — [`ProbeKind::BatchFlush`], which a network
///   endpoint's timer thread or the thread dropping a sender may record
///   on the sending PE's behalf, concurrently with the PE's own thread.
///   A capture may rely on it: the `spi-trace` ring claims an owned
///   slot without a read-modify-write.
pub trait Tracer: Send + Sync {
    /// Whether this tracer captures anything at all. `false` lets
    /// emitters skip payload digests, occupancy reads and timestamping
    /// entirely.
    fn enabled(&self) -> bool;

    /// Interns a label string, returning the id carried by
    /// [`ProbeKind::FiringBegin`] / [`ProbeKind::FiringEnd`].
    fn intern(&self, label: &str) -> u32;

    /// Records one event. `ts` follows the emitting engine's clock.
    fn record(&self, pe: PeId, ts: u64, kind: ProbeKind);

    /// Monotonic nanoseconds since the tracer's epoch — the timestamp
    /// source for engines without a simulated clock.
    fn now(&self) -> u64;
}

/// The payload digest carried by send/receive probe events: FNV-1a's
/// offset basis and prime, folding the payload 8 little-endian bytes
/// per multiply (leftover tail bytes one at a time). Stable across
/// engines and platforms, so two traces of the same system can be
/// compared digest-by-digest. Each fold step is a bijection in both the
/// state and the input word, so two payloads that differ in a single
/// word always digest differently.
///
/// Payloads up to 64 bytes are hashed in full. Longer payloads hash
/// their length plus the first and last 32 bytes, bounding the
/// per-event cost on frame-sized messages: the digest exists to pin
/// down message *identity* across engines (FIFO order, truncation,
/// cross-engine divergence), not to checksum every byte, and both
/// engines apply the same rule so traces stay comparable.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    const FULL: usize = 64;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |chunk: &[u8]| {
        let (words, tail) = chunk.as_chunks::<8>();
        for &w in words {
            h ^= u64::from_le_bytes(w);
            h = h.wrapping_mul(PRIME);
        }
        for &b in tail {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    if bytes.len() <= FULL {
        mix(bytes);
    } else {
        mix(&(bytes.len() as u64).to_le_bytes());
        mix(&bytes[..FULL / 2]);
        mix(&bytes[bytes.len() - FULL / 2..]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_distinguishes_payloads_and_is_stable() {
        assert_eq!(payload_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(payload_digest(b"a"), payload_digest(b"b"));
        assert_eq!(payload_digest(b"spi"), payload_digest(b"spi"));
    }

    #[test]
    fn digest_bounds_work_on_long_payloads() {
        let frame = vec![0x5Au8; 512];
        assert_eq!(payload_digest(&frame), payload_digest(&frame));

        // Identity-bearing differences are visible: length, head, tail.
        let longer = vec![0x5Au8; 513];
        assert_ne!(payload_digest(&frame), payload_digest(&longer));
        let mut head = frame.clone();
        head[0] = 0;
        assert_ne!(payload_digest(&frame), payload_digest(&head));
        let mut tail = frame.clone();
        *tail.last_mut().unwrap() = 0;
        assert_ne!(payload_digest(&frame), payload_digest(&tail));

        // Middle bytes are outside the sampled window by design.
        let mut mid = frame.clone();
        mid[256] = 0;
        assert_eq!(payload_digest(&frame), payload_digest(&mid));
    }
}
