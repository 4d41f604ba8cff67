//! # spi-verify — static & exhaustive-dynamic verification for SPI
//!
//! Two connected engines that check the places where the SPI
//! reproduction is most exposed to ordering bugs (the trace-replay
//! happens-before checks, SPI100–SPI105, live in `spi_trace::check`:
//! they need nothing from the instrumented shim):
//!
//! 1. **Bounded model checking** ([`ring`], engine in
//!    [`spi_platform::model`]) — a loom-style stateless explorer that
//!    enumerates every thread interleaving (up to happens-before
//!    equivalence, via DFS with sleep-set pruning) of the
//!    [`RingTransport`](spi_platform::RingTransport) ring + waitlist
//!    protocol at small bounds, and ([`walk`]) of the threaded
//!    runner's op walk over it. The scenarios run the shipped code;
//!    that they can fail is shown by the mutant registry (`mutants/`,
//!    `scripts/mutants.sh`), whose PR 3 lost-wakeup entry
//!    [`ring::explore_ring_shared_consumers`] must report as a
//!    deadlocking schedule with a minimized interleaving.
//! 2. **Framing-protocol exploration** ([`framing`]) — exhaustive DFS
//!    over adversarial channel behavior (drop / corrupt / duplicate
//!    within a fault budget) against the real supervision seq/crc
//!    framing codecs, checking that every run at the bound either
//!    delivers the sent stream exactly or stops.
//!
//! The companion `spi-analyze` pass `ResyncCertification` (SPI061 /
//! SPI062) closes the loop on the static side: every synchronization
//! edge the resynchronization optimizer removes must carry a
//! machine-checkable redundancy proof (see
//! [`spi_sched::ResyncCertificate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framing;
pub mod ring;
pub mod walk;

pub use framing::{explore_framing, FramingExploration, FramingOptions, FramingViolation};
pub use ring::{
    explore_pointer_spsc, explore_ring_shared_consumers, explore_ring_spsc,
    explore_try_then_block_spsc,
};
pub use spi_platform::model::{
    explore, Exploration, Failure, FailureKind, ModelOptions, Scenario, Step,
};
pub use walk::explore_send_run;
