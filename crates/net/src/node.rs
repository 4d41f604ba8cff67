//! Lowering a partitioned [`SpiSystem`] onto one node process.
//!
//! A distributed run builds the **same** system in every process (the
//! SPI flow is deterministic, and the launcher's manifest cross-checks
//! that determinism byte-for-byte), then each node keeps only its share:
//!
//! * the programs of the processors its partition block assigns to it;
//! * per channel, an endpoint matching where the channel's two ends
//!   live — an in-memory transport when both are local, a socket
//!   endpoint ([`NetSender`] / [`NetReceiver`]) when the edge crosses
//!   the partition, and a poisoned placeholder when the channel does
//!   not touch this node at all (any use is a routing bug and fails
//!   loudly rather than silently exchanging data with nobody).
//!
//! Socket establishment is deadlock-free by construction: every node
//! binds **all** of its listeners before the launcher's barrier, and
//! only connects after it, so no connect can race a missing listener.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use spi::SpiSystem;
use spi_platform::{
    framed_spec, ChannelId, ChannelSpec, PeId, Program, Tracer, Transport, TransportError,
    TransportKind,
};
use spi_sched::{Partition, ProcId};

use crate::error::NetError;
use crate::transport::{BatchParams, NetReceiver, NetSender};

/// The two processors a channel connects (data channels run
/// producer→consumer; UBS acknowledgement channels run the reverse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRole {
    /// Processor whose program sends on this channel.
    pub sender: ProcId,
    /// Processor whose program receives on this channel.
    pub receiver: ProcId,
}

/// A built system decomposed for multi-process deployment: the
/// partition, every channel's spec and endpoint roles, and the
/// per-processor programs (indexed by `ProcId`).
pub struct Deployment {
    /// Processor→node mapping (from [`spi::SpiSystemBuilder::partition`]).
    pub partition: Partition,
    /// Per-channel endpoint roles, indexed by `ChannelId`.
    pub roles: Vec<ChannelRole>,
    /// Per-channel logical specs (un-inflated; supervision framing is
    /// applied at endpoint construction), indexed by `ChannelId`.
    pub specs: Vec<ChannelSpec>,
    /// Per-channel batching parameters lowered from the schedule
    /// ([`spi::EdgePlan::batch`]), indexed by `ChannelId`.
    /// [`BatchParams::disabled`] for ack channels and edges whose
    /// credit window is too small to amortize.
    pub batches: Vec<BatchParams>,
    /// One program per processor, indexed by `ProcId`.
    programs: Vec<Program>,
}

/// Decomposes a partitioned system into its deployment parts.
///
/// Grab anything else you need from the system first (trace metadata,
/// supervision deadline) — this consumes it.
///
/// # Errors
///
/// [`NetError::Unpartitioned`] when the system was built without a
/// partition; [`NetError::UncoveredChannel`] if a platform channel
/// belongs to no edge plan (a builder invariant violation).
pub fn deploy(system: SpiSystem) -> Result<Deployment, NetError> {
    let partition = system.partition().cloned().ok_or(NetError::Unpartitioned)?;
    let mut ends: Vec<(usize, ChannelRole, BatchParams)> = Vec::new();
    for plan in system.edge_plans().values() {
        let data = ChannelRole {
            sender: plan.src_proc,
            receiver: plan.dst_proc,
        };
        let batch = plan.batch.unwrap_or_default();
        ends.push((plan.data_ch.0, data, batch));
        if let Some(ack) = plan.ack_ch {
            let back = ChannelRole {
                sender: plan.dst_proc,
                receiver: plan.src_proc,
            };
            ends.push((ack.0, back, BatchParams::disabled()));
        }
    }
    let (specs, programs) = system.into_parts();
    // Every channel of the machine belongs to exactly one plan: sorted
    // by id, the collected endpoints read 0, 1, 2, ….
    ends.sort_by_key(|&(ch, ..)| ch);
    if let Some(ch) = (0..specs.len()).find(|&i| ends.get(i).map(|e| e.0) != Some(i)) {
        return Err(NetError::UncoveredChannel(ch));
    }
    let (roles, batches): (Vec<ChannelRole>, Vec<BatchParams>) = ends
        .into_iter()
        .map(|(_, role, batch)| (role, batch))
        .unzip();
    for role in &roles {
        partition.node_of(role.sender)?;
        partition.node_of(role.receiver)?;
    }
    Ok(Deployment {
        partition,
        roles,
        specs,
        batches,
        programs,
    })
}

impl Deployment {
    /// Global processor ids hosted by `node`, ascending — also the
    /// local-PE→global-processor map for that node's trace capture.
    pub fn procs_on(&self, node: usize) -> Vec<usize> {
        self.partition
            .procs_on(node)
            .into_iter()
            .map(|p| p.0)
            .collect()
    }

    /// Moves out the programs `node` should execute, in processor-id
    /// order (local `PeId(i)` runs global processor `procs_on(node)[i]`).
    pub fn take_local_programs(&mut self, node: usize) -> Vec<Program> {
        let mine = self.procs_on(node);
        std::mem::take(&mut self.programs)
            .into_iter()
            .enumerate()
            .filter_map(|(i, prog)| mine.contains(&i).then_some(prog))
            .collect()
    }

    /// Whether channel `ch` crosses the partition boundary.
    pub fn is_cross(&self, ch: usize) -> bool {
        self.partition
            .is_cross(self.roles[ch].sender, self.roles[ch].receiver)
    }
}

/// Filesystem path of the socket carrying channel `ch` (the receiver
/// binds it; the sender connects to it).
pub fn socket_path(dir: &Path, ch: usize) -> PathBuf {
    dir.join(format!("c{ch}.sock"))
}

/// Builds this node's endpoint for every channel. Two-phase: all
/// listeners are bound first, then `barrier` runs (the worker reports
/// READY and waits for the launcher's PROCEED — i.e. for *every* node's
/// binds), then senders connect and, last, each listener accepts its
/// sender (a connect needs only the bind, so no two nodes can wait on
/// each other here). A channel with both ends on this node is a
/// [`TransportKind::Ring`]. Under supervision each endpoint is
/// sized with [`framed_spec`], matching what the supervised runner
/// expects of pre-built endpoints.
///
/// Cross-partition channels with a batched entry in
/// [`Deployment::batches`] get the coalescing sender and a receiver
/// acknowledging at the matching rate; when `tracer` is given, each batched sender records a
/// [`spi_platform::ProbeKind::BatchFlush`] probe per flush, stamped with
/// the local PE that runs the sending processor (so merged traces pass
/// the SPI086 budget check).
///
/// The caller applies any fault-injection decorator to the result; this
/// function hands back bare endpoints.
///
/// # Errors
///
/// Socket errors, partition lookups out of range, or the barrier's own
/// failure.
pub fn build_endpoints(
    d: &Deployment,
    node: usize,
    dir: &Path,
    supervised: bool,
    tracer: Option<&Arc<dyn Tracer>>,
    barrier: impl FnOnce() -> Result<(), NetError>,
) -> Result<Vec<Box<dyn Transport>>, NetError> {
    let eff: Vec<ChannelSpec> = d
        .specs
        .iter()
        .map(|s| if supervised { framed_spec(s) } else { *s })
        .collect();
    let local_procs = d.procs_on(node);
    let mut slots: Vec<Option<Box<dyn Transport>>> = (0..d.specs.len()).map(|_| None).collect();
    let mut listeners = Vec::new();
    for (ch, role) in d.roles.iter().enumerate() {
        let s_node = d.partition.node_of(role.sender)?;
        let r_node = d.partition.node_of(role.receiver)?;
        if r_node == node && s_node != node {
            let bound = NetReceiver::bind_with(&socket_path(dir, ch), &eff[ch], d.batches[ch])?;
            listeners.push((ch, bound));
        }
    }
    barrier()?;
    for (ch, role) in d.roles.iter().enumerate() {
        let s_node = d.partition.node_of(role.sender)?;
        let r_node = d.partition.node_of(role.receiver)?;
        slots[ch] = match (s_node == node, r_node == node) {
            (true, false) => {
                let sender =
                    NetSender::connect_with(&socket_path(dir, ch), &eff[ch], d.batches[ch])?;
                if let Some(tracer) = tracer {
                    if d.batches[ch].is_batched() {
                        // The probe's PE is the *local* index of the
                        // sending processor, matching how the worker's
                        // runner stamps every other event on this node.
                        if let Some(pe) = local_procs.iter().position(|&p| p == role.sender.0) {
                            sender.set_probe(Arc::clone(tracer), PeId(pe), ChannelId(ch));
                        }
                    }
                }
                Some(Box::new(sender))
            }
            (true, true) => Some(TransportKind::Ring.instantiate(&eff[ch])),
            (false, true) => None, // bound above, accepted below
            (false, false) => Some(Box::new(UnmappedChannel {
                spec: eff[ch],
                channel: ch,
                node,
            })),
        };
    }
    for (ch, bound) in listeners {
        slots[ch] = Some(Box::new(bound.accept()?));
    }
    (slots.into_iter().enumerate())
        .map(|(ch, s)| s.ok_or(NetError::UncoveredChannel(ch)))
        .collect()
}

/// Placeholder endpoint for a channel whose two ends both live on other
/// nodes. The accessors answer honestly (deadlock reports may consult
/// them); any data operation is a routing bug and panics with the
/// channel id.
struct UnmappedChannel {
    spec: ChannelSpec,
    channel: usize,
    node: usize,
}

impl UnmappedChannel {
    fn misroute(&self) -> ! {
        panic!(
            "channel {} is not mapped to node {}: both endpoints live elsewhere, \
             yet a local program touched it (partition/program mismatch)",
            self.channel, self.node
        );
    }
}

impl Transport for UnmappedChannel {
    fn capacity_bytes(&self) -> usize {
        self.spec.capacity_bytes
    }
    fn max_message_bytes(&self) -> usize {
        self.spec.max_message_bytes
    }
    fn len_bytes(&self) -> usize {
        0
    }
    fn occupancy(&self) -> usize {
        0
    }
    fn try_send(&self, _data: &[u8]) -> Result<(), TransportError> {
        self.misroute()
    }
    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.misroute()
    }
    fn send_with(
        &self,
        _len: usize,
        _fill: &mut dyn FnMut(&mut [u8]),
        _timeout: Duration,
    ) -> Result<(), TransportError> {
        self.misroute()
    }
    fn recv_with(
        &self,
        _consume: &mut dyn FnMut(&[u8]),
        _timeout: Duration,
    ) -> Result<(), TransportError> {
        self.misroute()
    }
}
