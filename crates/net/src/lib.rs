//! # spi-net — distributed multi-process backend
//!
//! Runs a partitioned SPI system across several OS processes connected
//! by Unix-domain sockets, while keeping every guarantee of the
//! single-process path:
//!
//! * **[`transport::NetSender`] / [`transport::NetReceiver`]** carry
//!   the existing seq+crc32 framed messages byte-for-byte over a
//!   socket. Capacity is enforced sender-side with a credit window
//!   sized from the channel's [`spi_platform::ChannelSpec`] — i.e. from
//!   the paper's eq. (2) buffer bound — so a remote edge blocks its
//!   producer exactly where an in-memory ring would. With
//!   [`transport::BatchParams`] the sender coalesces up to `batch_max`
//!   records into one write (on the wire no later than the liveness
//!   contract in [`transport`] says), and the receiver returns credit
//!   in cumulative acks paced by the same parameters — the runtime analogue of the paper's
//!   §4 resynchronization, trading per-message acknowledgement traffic
//!   for one byte-accurate cumulative grant.
//! * **[`node`]** lowers a partition-annotated
//!   [`spi::SpiSystem`] onto one node process: intra-partition edges
//!   keep their in-memory transports, only cross-partition edges lower
//!   to sockets.
//! * **[`launcher`]** spawns the node workers, cross-checks their
//!   deterministic builds against a manifest, barriers socket
//!   establishment, estimates per-node clock offsets, and supervises
//!   child failure with whole-run restarts.
//! * **[`merge`]** folds the per-node trace captures into one
//!   clock-aligned, causally consistent trace that `spi-lint
//!   trace-check` accepts unchanged.
//!
//! The `spi-noded` binary packages all of this: `spi-noded launch`
//! drives a multi-process run from one command line, `spi-noded
//! worker` is the per-node entry point it spawns.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
mod flush;
pub mod launcher;
pub mod merge;
pub mod node;
pub mod stream;
pub mod transport;
pub mod wire;

pub use error::NetError;
pub use launcher::{
    launch, manifest_of, verify_manifest, ChanDecl, CtlMsg, LaunchOutcome, LaunchSpec, Manifest,
    NodeDone, CLOCK_SYNC_ROUNDS, CONTROL_SOCKET,
};
pub use merge::{merge_node_traces, NodeTrace};
pub use node::{build_endpoints, deploy, socket_path, ChannelRole, Deployment};
pub use stream::NetStream;
pub use transport::{loopback, loopback_with, BatchParams, NetListener, NetReceiver, NetSender};
