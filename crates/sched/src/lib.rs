//! # spi-sched — multiprocessor scheduling & synchronization machinery
//!
//! The scheduling substrate of the DATE 2008 SPI reproduction:
//!
//! * [`Assignment`] / [`ProcId`] — firing→processor mapping (manual or
//!   HLFET list scheduling);
//! * [`SelfTimedSchedule`] — the self-timed model the paper adopts
//!   (compile-time order, run-time synchronization);
//! * [`IpcGraph`] — the §4.1 inter-processor communication graph with the
//!   eq. (2) IPC buffer bound;
//! * [`SyncGraph`] — synchronization-only view with redundant-edge
//!   elimination and greedy [`SyncGraph::resynchronize`] (§4.1);
//! * [`maximum_cycle_ratio`] — the iteration period (throughput) as an
//!   exact [`CycleRatio`], by Howard's policy iteration, and
//!   [`PeriodicRegime`] — eq. (3) up to its periodic regime, so a
//!   predicted makespan is exact at any horizon.
//!
//! # Examples
//!
//! Map a pipeline onto two processors and measure the synchronization
//! cost before/after resynchronization:
//!
//! ```
//! use spi_dataflow::{PrecedenceGraph, SdfGraph};
//! use spi_sched::{Assignment, IpcGraph, ProcId, Protocol, SelfTimedSchedule, SyncGraph};
//!
//! let mut g = SdfGraph::new();
//! let a = g.add_actor("A", 10);
//! let b = g.add_actor("B", 10);
//! g.add_edge(a, b, 1, 1, 0, 4)?;
//! g.add_edge(b, a, 1, 1, 1, 4)?; // results feed the next iteration
//!
//! let pg = PrecedenceGraph::expand(&g)?;
//! let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0))?;
//! let st = SelfTimedSchedule::from_assignment(&pg, assign)?;
//! let ipc = IpcGraph::build(&g, &pg, &st)?;
//! let mut sync = SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 1 })?;
//! let report = sync.resynchronize().report;
//! assert!(report.sync_cost_after <= report.sync_cost_before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analysis;
mod assign;
mod batch;
mod error;
mod ipc_graph;
pub mod latency;
mod predicted;
mod selftimed;
mod sync_graph;

pub use analysis::{
    maximum_cycle_ratio, speedup_bounds, CriticalCycle, CycleRatio, SpeedupBounds, WeightedEdge,
};
pub use assign::{Assignment, Partition, ProcId};
pub use batch::{
    batch_plan, BatchPlan, BATCH_MAX_MSGS_CAP, FLUSH_AFTER_DEFAULT, FLUSH_AFTER_MAX,
    FLUSH_AFTER_MIN, WAKEUP_COST,
};
pub use error::{Result, SchedError};
pub use ipc_graph::{IpcEdge, IpcEdgeKind, IpcGraph, Task, TaskId};
pub use latency::{self_timed_times, PeriodicRegime};
pub use predicted::{predicted_metrics, PredictedMetrics};
pub use selftimed::SelfTimedSchedule;
pub use sync_graph::{
    Protocol, RedundancyProof, ResyncAddition, ResyncCertificate, ResyncReport, SyncEdge,
    SyncGraph, SyncKind,
};
