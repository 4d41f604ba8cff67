//! # spi-repro — umbrella crate for the DATE 2008 SPI reproduction
//!
//! Re-exports every layer of the reproduction of *"An Optimized Message
//! Passing Framework for Parallel Implementation of Signal Processing
//! Applications"* so examples and integration tests can reach the whole
//! stack through one dependency:
//!
//! * [`dataflow`] — SDF + VTS modeling ([`spi_dataflow`]);
//! * [`sched`] — self-timed scheduling, IPC/sync graphs,
//!   resynchronization ([`spi_sched`]);
//! * [`platform`] — the simulated multi-PE FPGA platform and the MPI
//!   baseline ([`spi_platform`]);
//! * [`dsp`] — FFT / LPC / Huffman / particle-filter kernels
//!   ([`spi_dsp`]);
//! * [`spi`] — the Signal Passing Interface itself;
//! * [`trace`] — runtime observability: lock-free capture with one
//!   causal linearization, Chrome trace export, and the one replay
//!   (bounds, FIFO, supervision budgets, vector-clock ordering) behind
//!   `spi-lint trace-check` ([`spi_trace`]);
//! * [`fault`] — deterministic fault injection: seeded fault plans and
//!   the faulty-transport decorator for chaos testing ([`spi_fault`]);
//! * [`verify`] — bounded model checking of the transport protocols
//!   and the supervision-framing fault explorer ([`spi_verify`]);
//! * [`apps`] — the paper's two evaluation applications
//!   ([`spi_apps`]).
//!
//! Start with `examples/quickstart.rs`, then the per-application
//! examples; `DESIGN.md` maps every paper artifact to the module and
//! binary that reproduces it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use spi;
pub use spi_apps as apps;
pub use spi_dataflow as dataflow;
pub use spi_dsp as dsp;
pub use spi_fault as fault;
pub use spi_platform as platform;
pub use spi_sched as sched;
pub use spi_sim as sim;
pub use spi_trace as trace;
pub use spi_verify as verify;
