//! # spi — the Signal Passing Interface
//!
//! Reproduction of the framework presented in *"An Optimized Message
//! Passing Framework for Parallel Implementation of Signal Processing
//! Applications"* (DATE 2008): a message-passing interface that fuses
//! MPI-style explicit communication with coarse-grain dataflow analysis,
//! specialized for embedded signal processing.
//!
//! The flow, end to end:
//!
//! 1. model the application as a [`spi_dataflow::SdfGraph`] (dynamic-rate
//!    edges welcome — they go through **VTS conversion**, paper §3);
//! 2. register an implementation per actor ([`ActorFire`]);
//! 3. [`SpiSystemBuilder::build`] schedules the graph self-timed onto `n`
//!    processors, classifies every inter-processor edge as **SPI_BBS**
//!    (bounded buffer, eq. 2) or **SPI_UBS** (credit/ack based), runs
//!    **resynchronization** (§4.1) to delete redundant acknowledgements,
//!    and lowers the system onto the simulated FPGA platform with
//!    2-byte (static) / 6-byte (dynamic) message headers (§5.1);
//! 4. [`SpiSystem::run`] executes functionally *and* cycle-timed,
//!    returning traffic, timing and resource reports — the raw material
//!    for every figure and table in the paper.
//!
//! # Examples
//!
//! See [`SpiSystemBuilder`] for a complete two-processor pipeline, and
//! the `spi-apps` crate for the paper's two evaluation applications.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod actors;
mod error;
mod library;
mod message;
mod system;

pub use actors::{ActorFire, Firing};
pub use error::{Result, SpiError};
pub use library::SpiLibraryReport;
pub use message::{
    decode_dynamic, decode_dynamic_borrowed, decode_static, decode_static_borrowed,
    dynamic_frame_bytes, encode_dynamic, encode_dynamic_into, encode_static, encode_static_into,
    header_bytes, static_frame_bytes, SpiPhase, DYNAMIC_HEADER_BYTES, STATIC_HEADER_BYTES,
};
pub use system::{
    recorded_failure, root_failure, EdgePlan, MessageCost, SchedulingMode, SpiRunReport, SpiSystem,
    SpiSystemBuilder, ACK_BYTES,
};
