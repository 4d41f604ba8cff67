//! Run: the built system — accessors over the lowering records,
//! execution on the discrete-event simulator or on OS threads, and the
//! reports of a run.

use std::collections::HashMap;
use std::sync::Arc;

use spi_dataflow::EdgeId;
use spi_platform::{ChannelId, Machine, SimReport, Tracer};
use spi_sched::{CycleRatio, Partition, Protocol, ResyncReport, SyncGraph};

use super::build::{EdgePlan, Plans, CLOCK_MHZ};
use super::lower::root_failure;
use crate::error::Result;
use crate::library::SpiLibraryReport;
use crate::message::SpiPhase;

/// The synchronization graph once optimized, and what the optimization
/// reported.
pub(super) struct SyncOutcome {
    pub(super) report: Option<ResyncReport>,
    pub(super) period_estimate: Option<CycleRatio>,
    /// The graph before resynchronization, when the pass ran.
    pub(super) before: Option<SyncGraph>,
    pub(super) graph: SyncGraph,
}

/// A built, runnable SPI system.
pub struct SpiSystem {
    pub(super) machine: Machine,
    pub(super) plans: Plans,
    pub(super) sync: SyncOutcome,
    pub(super) library: SpiLibraryReport,
    pub(super) iterations: u64,
    pub(super) analysis: spi_analyze::AnalysisReport,
    pub(super) predicted: Option<spi_sched::PredictedMetrics>,
    pub(super) tracer: Option<Arc<dyn Tracer>>,
    pub(super) partition: Option<Partition>,
}

impl SpiSystem {
    /// The per-edge lowering records: protocol, eq. (1)/(2) sizes,
    /// message counts and costs, channels, and — for edges crossing the
    /// partition of a distributed build — the record batch `spi-net`
    /// applies to the edge's socket.
    pub fn edge_plans(&self) -> &HashMap<EdgeId, EdgePlan> {
        &self.plans
    }

    /// The processor→node mapping of a distributed build (set with
    /// [`crate::SpiSystemBuilder::partition`]), for the node launcher. `None`
    /// for a single-process system.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// The full static-analysis report of the build. Error-severity
    /// diagnostics abort [`crate::SpiSystemBuilder::build`], so this contains
    /// at most warnings and notes.
    pub fn analysis(&self) -> &spi_analyze::AnalysisReport {
        &self.analysis
    }

    /// Warning-severity diagnostics collected during the build (e.g.
    /// SPI040 when `force_ubs` discards a provable BBS bound).
    pub fn analysis_warnings(&self) -> Vec<&spi_analyze::Diagnostic> {
        self.analysis.warnings().collect()
    }

    /// Resynchronization outcome (if the pass was enabled).
    pub fn resync_report(&self) -> Option<ResyncReport> {
        self.sync.report
    }

    /// Removable synchronization edges remaining after optimization.
    pub fn sync_cost(&self) -> usize {
        self.sync.graph.sync_cost()
    }

    /// Analytic iteration period (the maximum cycle ratio), in cycles.
    pub fn iteration_period_estimate(&self) -> Option<f64> {
        self.sync.period_estimate.map(CycleRatio::as_f64)
    }

    /// Hardware cost report of the generated system.
    pub fn library(&self) -> &SpiLibraryReport {
        &self.library
    }

    /// Graphviz DOT of the synchronization graph before and after the
    /// optimization passes — the raw material of the paper's figures 3
    /// and 5.
    pub fn sync_graph_dot(&self) -> (String, String) {
        let after = &self.sync.graph;
        let before = self.sync.before.as_ref().unwrap_or(after);
        (
            before.to_dot("before resynchronization"),
            after.to_dot("after resynchronization"),
        )
    }

    /// The predicted self-timed makespan bound in cycles for this
    /// system's iteration horizon — the eq. (3) fixed point plus
    /// conservative per-message communication slack. `None` when the
    /// configuration falls outside the analytic model (fully-static
    /// mode, shared or ordered bus, heterogeneous processor speeds).
    pub fn predicted_makespan_cycles(&self) -> Option<u64> {
        self.predicted.as_ref().map(|m| m.makespan_cycles)
    }

    /// A wall-clock per-operation deadline for a **supervised** threaded
    /// run, derived from the predicted per-iteration cost at this
    /// system's configured clock: no single channel op of a healthy peer
    /// should block longer than `safety_factor` iterations' worth of
    /// predicted cycles (see
    /// [`spi_sched::PredictedMetrics::op_deadline`]). Clamped below at
    /// 1 ms — OS scheduling jitter on a loaded host dwarfs sub-millisecond
    /// analytic deadlines and would turn them into false fault reports.
    ///
    /// `None` when the configuration falls outside the analytic model
    /// (same conditions as [`SpiSystem::predicted_makespan_cycles`]);
    /// callers then keep the policy's configured default.
    pub fn supervision_deadline(&self, safety_factor: f64) -> Option<std::time::Duration> {
        let clock_hz = (CLOCK_MHZ * 1e6) as u64;
        let d = self
            .predicted
            .as_ref()?
            .op_deadline(clock_hz, safety_factor)?;
        Some(d.max(std::time::Duration::from_millis(1)))
    }

    /// As [`SpiSystem::trace_meta`], additionally stamping the
    /// supervision budgets of `policy` into the metadata so the trace
    /// checker can hold the observed fault events against them
    /// (diagnostics SPI090 and SPI092): the policy's retry budget and
    /// the per-PE restart budget [`spi_platform::MAX_RESTARTS`].
    pub fn trace_meta_supervised(
        &self,
        clock: spi_trace::ClockKind,
        policy: &spi_platform::SupervisionPolicy,
    ) -> spi_trace::TraceMeta {
        let mut meta = self.trace_meta(clock);
        meta.supervision = Some(spi_trace::SupervisionBounds {
            max_retries: u64::from(policy.max_retries),
            max_restarts: u64::from(spi_platform::MAX_RESTARTS),
        });
        meta
    }

    /// Trace metadata for a capture of this system: the per-edge
    /// eq. (1)/(2) bounds, the iteration horizon, and (for cycle-clocked
    /// captures) the predicted makespan bound. Pass the result to
    /// `spi_trace::RingTracer::finish` so the conformance checker can
    /// replay the observed run against the static contract.
    ///
    /// Ack and control channels are deliberately absent from the edge
    /// table: their sizing is a protocol concern, not an eq. (2) bound,
    /// so the checker replays them for FIFO order only.
    pub fn trace_meta(&self, clock: spi_trace::ClockKind) -> spi_trace::TraceMeta {
        let mut meta = spi_trace::TraceMeta::new(clock);
        meta.iterations = self.iterations;
        if clock == spi_trace::ClockKind::Cycles {
            meta.predicted_makespan_cycles = self.predicted_makespan_cycles();
        }
        let mut plans: Vec<&EdgePlan> = self.plans.values().collect();
        plans.sort_by_key(|p| p.edge);
        for p in plans {
            meta.edges.push(spi_trace::EdgeBound {
                edge: p.edge,
                channel: p.data_ch,
                capacity_bytes: p.transport.capacity_bytes,
                max_message_bytes: p.transport.message_bytes_max,
                bound_tokens: p.bound_msgs,
            });
            // Batching budgets for cross-partition channels: the
            // checker's SPI086 holds every observed flush against these.
            if let Some(batch) = p.batch.filter(|b| b.is_batched()) {
                meta.batch_bounds.push(spi_trace::BatchBound {
                    channel: p.data_ch,
                    max_msgs: batch.max_msgs as u64,
                });
            }
        }
        meta
    }

    /// Per-edge buffer sizing report: the paper's bounded-memory story
    /// (eqs. 1–2) made concrete. One row per inter-processor edge with
    /// its protocol (the eq.-(2)-derived BBS capacity or the UBS credit
    /// window) and the bytes actually reserved for the FIFO.
    pub fn buffer_report(&self) -> Vec<BufferRow> {
        let mut rows: Vec<BufferRow> = self
            .plans
            .values()
            .map(|p| BufferRow {
                edge: p.edge,
                phase: p.phase,
                protocol: p.protocol,
                capacity_bytes: p.transport.capacity_bytes,
                message_bytes_max: p.msg_max,
            })
            .collect();
        rows.sort_by_key(|r| r.edge);
        rows
    }

    /// Executes the system on OS threads instead of the discrete-event
    /// engine: no timing, but genuine parallel execution of the same
    /// generated programs — the strongest check that the protocol logic
    /// is not an artifact of event-queue serialization.
    ///
    /// Runs with the default [`spi_platform::ThreadedRunner`]
    /// configuration (locked transport, 30 s deadlock timeout); use
    /// [`SpiSystem::run_threaded_with`] to select the lock-free ring
    /// transport or a different timeout.
    ///
    /// # Errors
    ///
    /// Platform errors (a timeout surfaces as deadlock) and
    /// [`crate::SpiError::ActorFailed`] if any actor recorded a failure
    /// (the one [`crate::root_failure`] names).
    pub fn run_threaded(self) -> Result<Vec<spi_platform::PeLocalSnapshot>> {
        self.run_threaded_with(&spi_platform::ThreadedRunner::new())
    }

    /// As [`SpiSystem::run_threaded`], with an explicit runner
    /// configuration (transport implementation, deadlock timeout).
    ///
    /// # Errors
    ///
    /// As [`SpiSystem::run_threaded`].
    pub fn run_threaded_with(
        self,
        runner: &spi_platform::ThreadedRunner,
    ) -> Result<Vec<spi_platform::PeLocalSnapshot>> {
        // A tracer attached at build time follows the system onto
        // whichever engine runs it.
        let runner = match &self.tracer {
            Some(t) => runner.clone().tracer(t.clone()),
            None => runner.clone(),
        };
        let (channels, programs) = self.machine.into_parts();
        let results = runner.run(&channels, programs)?;
        match root_failure(results.iter().map(|r| &r.store)) {
            Some(err) => Err(err),
            None => Ok(results),
        }
    }

    /// Decomposes the built system into its channel specs and PE
    /// programs — the raw inputs of the threaded runner, for callers
    /// (benchmarks, harnesses) that drive transports directly.
    pub fn into_parts(self) -> (Vec<spi_platform::ChannelSpec>, Vec<spi_platform::Program>) {
        self.machine.into_parts()
    }

    /// Executes the system to completion.
    ///
    /// # Errors
    ///
    /// Platform errors (deadlock, budget) and
    /// [`crate::SpiError::ActorFailed`] if any actor recorded a failure during
    /// the run (the one [`crate::root_failure`] names).
    pub fn run(self) -> Result<SpiRunReport> {
        let sim = self.machine.run()?;
        if let Some(err) = root_failure(sim.locals.iter().map(|l| &l.store)) {
            return Err(err);
        }
        Ok(SpiRunReport {
            edge_channels: self.plans.values().map(|p| (p.edge, p.data_ch)).collect(),
            sim,
            clock_mhz: CLOCK_MHZ,
            iterations: self.iterations,
        })
    }
}

/// One row of [`SpiSystem::buffer_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferRow {
    /// The application edge.
    pub edge: EdgeId,
    /// SPI_static or SPI_dynamic.
    pub phase: SpiPhase,
    /// Chosen protocol (BBS capacity is the eq.-(2)-derived size).
    pub protocol: Protocol,
    /// Bytes reserved for the edge's FIFO.
    pub capacity_bytes: u64,
    /// Largest single message (header + payload bound).
    pub message_bytes_max: usize,
}

impl std::fmt::Display for BufferRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>4}  {:<8}  {:<22}  {:>6} B  ≤{} B/msg",
            self.edge.to_string(),
            format!("{:?}", self.phase),
            format!("{:?}", self.protocol),
            self.capacity_bytes,
            self.message_bytes_max,
        )
    }
}

/// Outcome of running an SPI system.
#[derive(Debug)]
pub struct SpiRunReport {
    /// Raw platform statistics (timing, traffic, final PE state).
    pub sim: SimReport,
    /// Clock for µs conversion.
    pub clock_mhz: f64,
    /// Iterations simulated.
    pub iterations: u64,
    /// Data channel of each inter-processor edge.
    pub edge_channels: HashMap<EdgeId, ChannelId>,
}

impl SpiRunReport {
    /// End-to-end execution time in microseconds.
    pub fn makespan_us(&self) -> f64 {
        self.sim.makespan_us(self.clock_mhz)
    }

    /// Average iteration period in microseconds.
    pub fn period_us(&self) -> f64 {
        self.makespan_us() / self.iterations.max(1) as f64
    }

    /// Traffic statistics of one application edge's data channel
    /// (messages and payload bytes including SPI headers), or `None`
    /// for local edges.
    pub fn edge_traffic(&self, edge: EdgeId) -> Option<spi_platform::ChannelStats> {
        let ch = self.edge_channels.get(&edge)?;
        self.sim.channels.get(ch.0).copied()
    }

    /// Per-processor utilization: compute-busy cycles over the makespan
    /// (0.0–1.0). The balance goes to communication stalls, protocol
    /// overhead and idling — the quantity parallelization studies watch.
    pub fn utilization(&self) -> Vec<f64> {
        let total = self.sim.makespan_cycles.max(1) as f64;
        self.sim
            .pe
            .iter()
            .map(|p| p.busy_cycles as f64 / total)
            .collect()
    }
}
