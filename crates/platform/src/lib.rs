//! # spi-platform — simulated multi-PE FPGA platform
//!
//! The hardware substrate of the DATE 2008 SPI reproduction. The paper
//! evaluates on a Xilinx Virtex-4; this crate substitutes (see
//! `DESIGN.md`) a cycle-level **discrete-event simulator** of processing
//! elements connected by hardware FIFOs:
//!
//! * [`Machine`] / [`Program`] / [`Op`] — PEs execute looped
//!   compute/send/receive programs with real payload bytes, so runs are
//!   simultaneously functional and timed;
//! * [`ChannelSpec`] — a FIFO's eq. (2) capacity and eq. (1) message
//!   bound; its word width, wire latency and per-message occupancy are
//!   the platform's constants ([`WORD_BYTES`], [`CYCLES_PER_WORD`],
//!   [`SEND_OVERHEAD_CYCLES`], [`RECV_OVERHEAD_CYCLES`]);
//! * [`ResourceEstimate`] / [`Device`] — the additive area model standing
//!   in for ISE synthesis reports (tables 1–2);
//! * [`Transport`] / [`LockedTransport`] / [`RingTransport`] — pluggable
//!   byte-accurate inter-thread channels; the ring is a lock-free SPSC
//!   buffer sized exactly to the paper's eq. (2) bound `B(e)`;
//! * [`ThreadedRunner`] — an OS-thread functional
//!   runner cross-checking the DES's protocol logic under real
//!   concurrency, executing over any [`Transport`];
//! * [`Tracer`] — runtime probe points both engines emit
//!   through (firing begin/end, send/receive with payload digests and
//!   occupancy, block/unblock); the `spi-trace` crate supplies the
//!   lock-free capture buffer, exporters, and the conformance checker
//!   that validates the paper's eq. (2) bounds against observed runs;
//! * [`SupervisionPolicy`] — supervised execution for the threaded
//!   runner: CRC-checked sequence-numbered frames, bounded retry with
//!   backoff, fail-stop past the budget and iteration-boundary
//!   checkpoint/restart (at most [`MAX_RESTARTS`] per PE), with every recovery
//!   decision emitted as a `Fault*` probe event. [`TransportDecorator`]
//!   is the seam deterministic fault injectors (`spi-fault`) plug into;
//! * [`rng`] — the workspace's one seeded generator and the case loop
//!   every property and fuzz test runs on.
//!
//! # Examples
//!
//! ```
//! use spi_platform::{ChannelSpec, Machine, Op, Program};
//!
//! let mut m = Machine::new();
//! // Room for 256 messages of at most 16 bytes.
//! let ch = m.add_channel(ChannelSpec { capacity_bytes: 4096, max_message_bytes: 16 });
//! m.add_pe(Program::new(vec![
//!     Op::Compute { label: "produce".into(), work: Box::new(|_| 10) },
//!     Op::Send { channel: ch, payload: Box::new(|_| vec![0u8; 16]) },
//! ], 100));
//! m.add_pe(Program::new(vec![Op::Recv { channel: ch }], 100));
//! let report = m.run()?;
//! assert_eq!(report.channels[ch.0].messages, 100);
//! println!("makespan: {:.1} µs at 100 MHz", report.makespan_us(100.0));
//! # Ok::<(), spi_platform::PlatformError>(())
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the lock-free ring in `transport` and
// the SSE4.2 hardware CRC in `supervise` need scoped
// `#[allow(unsafe_code)]`; everything else stays safe Rust.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
#[cfg(feature = "verify-shim")]
pub mod model;
mod pool;
mod resource;
pub mod rng;
mod runner;
pub mod shim;
mod sim;
mod supervise;
mod trace;
mod transport;

pub use error::{BlockKind, BlockedOp, PlatformError, Result};
pub use pool::{BufferPool, Token, TokenBuf};
pub use resource::{components, Device, ResourceEstimate, ResourcePercent};
pub use runner::{ThreadedRunner, TransportDecorator, DEFAULT_DEADLOCK_TIMEOUT};
pub use sim::{
    BusSpec, ByteQueue, ChannelId, ChannelSpec, ChannelStats, ComputeFn, Machine, Op, PayloadFn,
    PeId, PeLocal, PeLocalSnapshot, PeStats, Program, SimReport, WaitFn, CYCLES_PER_WORD,
    ORDERED_SLOT_CYCLES, RECV_OVERHEAD_CYCLES, SEND_OVERHEAD_CYCLES, WORD_BYTES,
};
#[cfg(feature = "verify-shim")]
pub use supervise::protocol;
pub use supervise::{
    decode_frame, encode_frame_into, framed_spec, FrameError, SupervisionPolicy,
    FRAME_HEADER_BYTES, MAX_RESTARTS,
};
pub use trace::{payload_digest, FlushReason, ProbeEvent, ProbeKind, Tracer};
pub use transport::{
    InjectedFault, LockedTransport, PointerTransport, RingTransport, Transport, TransportError,
    TransportKind,
};
