//! What the analyzer looks at.
//!
//! Passes degrade gracefully: each one inspects only the sections of
//! [`AnalysisInput`] it understands and stays silent when its section is
//! absent. A graph-only input therefore runs the graph-level passes (the
//! analyzer converts the graph to VTS once for them); the builder's one
//! analysis adds the schedule-level sections, its own VTS conversion
//! among them.

use spi_dataflow::{EdgeId, LengthSignal, SdfGraph, VtsConversion};
use spi_platform::ResourceEstimate;
use spi_sched::{IpcGraph, Protocol, ResyncCertificate, SyncGraph};

/// What a lowering decided for one dataflow edge with at least one IPC
/// instance: its synchronization protocol and the eq. (2) bound it was
/// chosen against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeDecl {
    /// The dataflow edge.
    pub edge: EdgeId,
    /// Protocol chosen for it.
    pub protocol: Protocol,
    /// Its eq. (2) bound in tokens under the schedule
    /// ([`IpcGraph::buffer_bounds_by_edge`]: the worst of its IPC
    /// instances); `None` when some instance has no bound.
    pub bound_tokens: Option<u64>,
}

/// Everything a pass may inspect. Only `graph` is mandatory.
pub struct AnalysisInput<'a> {
    /// The SDF graph under analysis (possibly with dynamic-rate edges).
    pub graph: &'a SdfGraph,
    /// VTS conversion of `graph`, if already computed. When absent,
    /// [`crate::Analyzer::run`] converts once for every pass.
    pub vts: Option<&'a VtsConversion>,
    /// Length-signalling scheme chosen for dynamic tokens.
    pub signal: Option<LengthSignal>,
    /// The interprocessor-communication graph of the chosen schedule.
    pub ipc: Option<&'a IpcGraph>,
    /// The synchronization graph after protocol selection (and after
    /// resynchronization, if it ran).
    pub sync: Option<&'a SyncGraph>,
    /// Proof artifact of a certified resynchronization run; checked by
    /// the `ResyncCertification` pass (SPI061/SPI062) against `sync`.
    pub resync_cert: Option<&'a ResyncCertificate>,
    /// The lowering's per-edge protocol decisions, one entry per
    /// dataflow edge with an IPC instance.
    pub edges: Option<&'a [EdgeDecl]>,
    /// Aggregated hardware cost of the system, checked against the
    /// paper's Virtex-4 SX35.
    pub resources: Option<ResourceEstimate>,
}

impl<'a> AnalysisInput<'a> {
    /// Graph-only input: runs the structural passes.
    pub fn new(graph: &'a SdfGraph) -> Self {
        AnalysisInput {
            graph,
            vts: None,
            signal: None,
            ipc: None,
            sync: None,
            resync_cert: None,
            edges: None,
            resources: None,
        }
    }

    /// Attaches a precomputed VTS conversion.
    pub fn with_vts(mut self, vts: &'a VtsConversion) -> Self {
        self.vts = Some(vts);
        self
    }

    /// Declares the length-signalling scheme.
    pub fn with_signal(mut self, signal: LengthSignal) -> Self {
        self.signal = Some(signal);
        self
    }

    /// Attaches the IPC graph of the schedule.
    pub fn with_ipc(mut self, ipc: &'a IpcGraph) -> Self {
        self.ipc = Some(ipc);
        self
    }

    /// Attaches the synchronization graph.
    pub fn with_sync(mut self, sync: &'a SyncGraph) -> Self {
        self.sync = Some(sync);
        self
    }

    /// Attaches the proof artifact of a certified resynchronization
    /// run, enabling the SPI061/SPI062 certification checks.
    pub fn with_resync_cert(mut self, cert: &'a ResyncCertificate) -> Self {
        self.resync_cert = Some(cert);
        self
    }

    /// Attaches the per-edge protocol decisions, enabling the
    /// SPI040–SPI042 protocol lints.
    pub fn with_edges(mut self, edges: &'a [EdgeDecl]) -> Self {
        self.edges = Some(edges);
        self
    }

    /// Attaches the aggregated resource estimate.
    pub fn with_resources(mut self, used: ResourceEstimate) -> Self {
        self.resources = Some(used);
        self
    }

    /// Resolves the actor name for messages, tolerating bad ids.
    pub(crate) fn actor_name(&self, id: spi_dataflow::ActorId) -> String {
        self.graph
            .try_actor(id)
            .map(|a| a.name.clone())
            .unwrap_or_else(|_| format!("{id}"))
    }
}
