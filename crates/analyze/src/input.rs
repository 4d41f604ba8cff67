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
/// instance: its synchronization protocol and what the execution layer
/// allocated for it.
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
    /// Transport allocated for its data channel, when declared; enables
    /// the SPI043/SPI044 capacity checks.
    pub transport: Option<TransportDecl>,
    /// Socket transport of a **cross-partition** edge of a distributed
    /// deployment: the sender-side credit window it was granted (SPI045)
    /// and its record batch (SPI046). `None` for edges inside one node.
    pub net_transport: Option<TransportDecl>,
}

/// Runtime transport declared for one edge's data channel: what the
/// execution layer actually allocated, checked by SPI043 against the
/// statically required eq. (2) bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportDecl {
    /// Total payload capacity of the channel in bytes.
    pub capacity_bytes: u64,
    /// Framed size of the largest message (packed token + header).
    pub message_bytes_max: u64,
    /// Slot count of the buffer pool backing a pointer-exchange
    /// transport, when one is used. `None` for copying transports.
    /// Checked by SPI044 against the channel's message capacity.
    pub pool_slots: Option<u64>,
    /// Most records the sending endpoint may coalesce into one write,
    /// when the transport batches (`spi-net`'s staged fast path). `None`
    /// for unbatched transports. Checked by SPI046
    /// against the credit window in messages: a batch larger than the
    /// window can never fill before the window forces a flush, so the
    /// configuration is lying about its own amortization, and one
    /// larger than half of it runs the edge in lock-step.
    pub batch_msgs: Option<u64>,
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
    /// The lowering's per-edge decisions: protocol and declared
    /// transports, one entry per dataflow edge with an IPC instance.
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

    /// Attaches the per-edge protocol decisions and transport
    /// declarations, enabling the SPI040–SPI046 protocol lints.
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
