//! # spi-dataflow — SDF + VTS modeling substrate
//!
//! Dataflow modeling layer for the reproduction of *"An Optimized Message
//! Passing Framework for Parallel Implementation of Signal Processing
//! Applications"* (DATE 2008). It provides:
//!
//! * [`SdfGraph`] — coarse-grain dataflow graphs with static (SDF) and
//!   bounded-dynamic port rates;
//! * [`RepetitionVector`] — balance-equation solving and consistency
//!   checking;
//! * class-S scheduling, deadlock detection and per-edge buffer bounds
//!   ([`SdfGraph::class_s_schedule`], [`BufferBounds`]);
//! * [`VtsConversion`] — the paper's §3 *variable token size* transform
//!   that re-models dynamic-rate edges as static rate-1 packed-token
//!   edges (with [`TokenPacker`] handling the run-time framing);
//! * [`PrecedenceGraph`] — single-rate expansion feeding multiprocessor
//!   scheduling in `spi-sched`;
//! * [`CsdfGraph`] — cyclo-static dataflow with reduction to SDF;
//! * [`psdf`] — parameterized dataflow with per-configuration
//!   instantiation and the VTS envelope bridging it to the paper's
//!   dynamic-rate discipline.
//!
//! # Examples
//!
//! Model a dynamic-rate edge, convert it with VTS, and analyze the result
//! with ordinary SDF machinery:
//!
//! ```
//! use spi_dataflow::{SdfGraph, VtsConversion};
//!
//! let mut g = SdfGraph::new();
//! let a = g.add_actor("A", 10);
//! let b = g.add_actor("B", 12);
//! let e = g.add_dynamic_edge(a, b, 10, 8, 0, 4)?; // paper figure 1
//!
//! let vts = VtsConversion::convert(&g)?;
//! let q = vts.graph().repetition_vector()?;       // now solvable
//! assert_eq!(q.total_firings(), 2);
//! assert_eq!(vts.packed_capacity_bytes(e)?, 40);  // paper eq. (1)
//! # Ok::<(), spi_dataflow::DataflowError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csdf;
pub mod dif;
mod error;
mod graph;
mod hsdf;
pub mod psdf;
mod rates;
mod schedule;
mod vts;

pub use csdf::{CsdfGraph, CsdfReduction, PhaseRates};
pub use error::{DataflowError, Result};
pub use graph::{Actor, ActorId, Edge, EdgeId, Rate, SdfGraph};
pub use hsdf::{Firing, Precedence, PrecedenceGraph};
pub use rates::{gcd, lcm, RepetitionVector};
pub use schedule::{BufferBounds, FlatSchedule, ScheduleReport, ValidationReport};
pub use vts::{LengthSignal, PackError, TokenPacker, VtsConversion, VtsEdge};
