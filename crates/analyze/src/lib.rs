//! Static verification and lint passes for SPI systems.
//!
//! The scheduler and builder in the rest of the workspace *reject* bad
//! inputs; this crate *explains* them. An [`Analyzer`] runs an ordered
//! pipeline of [`Pass`]es over an [`AnalysisInput`] — at minimum an SDF
//! graph, optionally the VTS conversion, IPC graph, synchronization
//! graph, protocol decisions and resource totals of a full build — and
//! produces [`Diagnostic`]s with stable codes (`SPI001`…), severities
//! and concrete suggestions. See [`passes`] for the full code table.
//!
//! Three consumers drive the design:
//!
//! * **the builder** — `SpiSystemBuilder::build` runs the pipeline
//!   once, over the full schedule it built; error diagnostics abort the
//!   build, warnings are collected on the built system. A graph that
//!   cannot be scheduled is explained by the graph-level passes, whose
//!   errors replace the bare scheduler error;
//! * **`spi-lint`** — a CLI that analyzes DIF files and renders the
//!   report for humans or as JSON;
//! * **tests** — randomized stress tests use the analyzer as an oracle:
//!   a graph that builds and simulates correctly must produce no error
//!   diagnostics (zero false positives).
//!
//! ```
//! use spi_analyze::{Analyzer, AnalysisInput};
//! use spi_dataflow::SdfGraph;
//!
//! let mut g = SdfGraph::new();
//! let a = g.add_actor("src", 10);
//! let b = g.add_actor("dst", 10);
//! g.add_edge(a, b, 2, 3, 0, 4).unwrap();
//! let report = Analyzer::default_pipeline().run(&AnalysisInput::new(&g));
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analyzer;
mod diag;
mod input;
pub mod passes;

pub use analyzer::{AnalysisReport, Analyzer, Pass};
pub use diag::{Diagnostic, Locus, Severity};
pub use input::{AnalysisInput, EdgeDecl};
