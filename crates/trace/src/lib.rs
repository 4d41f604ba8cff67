//! # spi-trace — runtime observability for SPI systems
//!
//! The static layers of this repo derive guarantees *before* a system
//! runs: eq. (1) bounds every packed message, eq. (2) sizes every IPC
//! buffer, and the self-timed analysis predicts a makespan. This crate
//! turns those paper bounds into **checked runtime invariants**:
//!
//! * [`RingTracer`] — lock-free per-PE event capture implementing the
//!   platform's [`Tracer`] probe trait: no locks or allocation on the
//!   hot path, overflow drops-and-counts instead of blocking.
//! * [`Trace::linearize`] — the one merge of per-PE streams: the k-th
//!   receive on a channel after its k-th send, a reused slot after the
//!   receive that freed it, timestamps never decreasing.
//!   [`RingTracer::finish`] and the distributed merge both call it.
//! * [`Trace`] / [`TraceMeta`] — the owned capture model plus a
//!   line-oriented native format (`# spi-trace v1`) that is diffable
//!   and greppable in failure reports.
//! * [`aggregate`] — per-actor utilization, per-PE stall time,
//!   per-channel occupancy high-water marks, observed iteration period.
//! * [`to_chrome_json`] / [`render_gantt`] — Chrome `trace_event`
//!   export (open in `chrome://tracing` or Perfetto) and a terminal
//!   Gantt chart.
//! * [`check`] — the one replay: holds a trace to the eq. (1)/(2)
//!   bounds, per-channel FIFO, token conservation, the predicted
//!   makespan and the supervision budgets (`SPI080`–`SPI094`), and
//!   rebuilds its happens-before order with vector clocks to report
//!   premature receives, endpoint races and slot-reuse violations
//!   (`SPI100`–`SPI105`).
//!
//! ## Typical flow
//!
//! ```text
//! builder.tracer(ring.clone())         // attach a RingTracer
//!     -> system.run()                  // engines emit probe events
//!     -> ring.finish(system.trace_meta(ClockKind::Cycles))
//!     -> check(&trace)                 // SPI080–SPI105 report
//!     -> to_chrome_json(&trace)        // visualize
//! ```
//!
//! The capture module is the only unsafe code in the crate (the same
//! single-writer claim/publish idiom as the platform's `RingTransport`);
//! everything else is `#![deny(unsafe_code)]`-clean.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod capture;
mod check;
mod export;
mod linearize;
mod metrics;
mod model;

pub use capture::{RingTracer, DEFAULT_EVENTS_PER_PE};
pub use check::{check, ConformanceReport};
pub use export::{render_gantt, to_chrome_json};
pub use metrics::{aggregate, ActorMetrics, ChannelMetrics, PeMetrics, TraceMetrics};
pub use model::{
    BatchBound, ClockKind, EdgeBound, SupervisionBounds, Trace, TraceMeta, TraceParseError,
    MAX_NATIVE_PES, NATIVE_VERSION,
};

// Re-export the probe-side vocabulary so trace consumers need only this
// crate.
pub use spi_platform::{payload_digest, FlushReason, ProbeEvent, ProbeKind, Tracer};
