//! Discrete-event simulation of a multi-PE system with hardware FIFOs.
//!
//! This is the reproduction's stand-in for the paper's Virtex-4 FPGA
//! testbed. Each processing element (PE) executes a *program* — a looped
//! sequence of compute / send / receive operations — under self-timed
//! semantics: operations run as soon as their data is available, sends
//! block on full FIFOs, receives block on empty ones. Payloads are real
//! bytes, so a simulation is simultaneously a functional execution (the
//! DSP kernels actually run inside compute closures) and a timed one
//! (every operation advances a cycle-accurate clock).
//!
//! Costs are intentionally explicit and fixed: the FIFO's timing is a
//! property of the platform ([`WORD_BYTES`]-wide words at
//! [`CYCLES_PER_WORD`], [`SEND_OVERHEAD_CYCLES`] and
//! [`RECV_OVERHEAD_CYCLES`] of framing per message), and a channel is
//! declared by its eq. (1) message bound and eq. (2) buffer bound alone.
//! Protocol layers (SPI, the MPI baseline) lower to these primitives, so
//! their overhead differences are measured, not assumed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::error::{BlockKind, BlockedOp, PlatformError, Result};
use crate::pool::Token;
use crate::trace::{payload_digest, ProbeKind, Tracer};

/// Identifier of a processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(pub usize);

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// Identifier of a point-to-point FIFO channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub usize);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Channel word width in bytes: a 32-bit FPGA FIFO moves 4 B per word.
pub const WORD_BYTES: usize = 4;

/// Cycles for one word to traverse a channel.
pub const CYCLES_PER_WORD: u64 = 1;

/// Fixed cycles of sender-side occupancy per message (handshake, header
/// emission).
pub const SEND_OVERHEAD_CYCLES: u64 = 2;

/// Fixed cycles of receiver-side occupancy per message (header parse,
/// pointer update).
pub const RECV_OVERHEAD_CYCLES: u64 = 2;

/// A FIFO channel as the paper declares it: its eq. (2) buffer bound and
/// its eq. (1) message bound. Its timing is the platform's (the
/// constants above).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Buffer capacity in bytes (a full FIFO blocks the sender).
    pub capacity_bytes: usize,
    /// Largest single message the channel carries, in bytes — the packed
    /// token size `c(e) = c_sdf(e) · b_max(e)` plus header when derived
    /// from the paper's eq. (1). Every engine refuses a larger send, and
    /// slot-based transports size their slots from it, so it is always
    /// declared: a spec where it is 0 is unusable.
    pub max_message_bytes: usize,
}

impl Default for ChannelSpec {
    fn default() -> Self {
        ChannelSpec {
            capacity_bytes: 4096,
            max_message_bytes: WORD_BYTES, // one channel word
        }
    }
}

impl ChannelSpec {
    /// Cycles to push `bytes` of payload through a channel wire.
    pub fn wire_cycles(bytes: usize) -> u64 {
        bytes.div_ceil(WORD_BYTES) as u64 * CYCLES_PER_WORD
    }

    /// Whether the channel can carry anything: a buffer and a message
    /// bound. Both engines refuse a spec without them up front.
    pub(crate) fn is_usable(&self) -> bool {
        self.capacity_bytes > 0 && self.max_message_bytes > 0
    }
}

/// A FIFO of bytes in one reused buffer with a read cursor: what a
/// dataflow edge between two ops of one PE is made of.
///
/// [`take`](ByteQueue::take) lends the next bytes out of the buffer and
/// moves the cursor past them; [`push`](ByteQueue::push) appends, first
/// dropping the consumed prefix once it is longer than what is still
/// pending. A queue that drains therefore restarts at offset 0, one
/// that never drains (an edge with delay tokens) stays within twice its
/// pending bytes plus one push, and neither allocates once its buffer
/// has reached that size.
#[derive(Debug, Default, Clone)]
pub struct ByteQueue {
    buf: Vec<u8>,
    head: usize,
}

impl ByteQueue {
    /// Appends `bytes`.
    pub fn push(&mut self, bytes: &[u8]) {
        let pending = self.buf.len() - self.head;
        if self.head > pending {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(pending);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes pushed and not yet taken.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Takes the next `n` bytes; `None` (and nothing consumed) if fewer
    /// are pending.
    pub fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.head.checked_add(n).filter(|&e| e <= self.buf.len())?;
        let start = std::mem::replace(&mut self.head, end);
        Some(&self.buf[start..end])
    }

    /// Bytes the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Mutable per-PE state visible to program closures.
///
/// `store` is the PE's local memory (keyed scratch space shared by all
/// ops of the PE); `inbox` receives payloads in arrival order, tagged by
/// channel. `queues` and `staged` are the same memory addressed by
/// index, for whoever generated the program and numbered its slots
/// (both start empty; the generator's closures size them): bytes moving
/// between two ops every iteration have no name to hash.
#[derive(Debug, Default)]
pub struct PeLocal {
    /// Current iteration index (0-based).
    pub iter: u64,
    /// Payloads received and not yet consumed by compute closures.
    /// Pointer transports deliver pooled [`Token`] leases here — the
    /// received bytes are still the sender's slot, not a copy.
    pub inbox: VecDeque<(ChannelId, Token)>,
    /// Keyed local memory.
    pub store: HashMap<String, Vec<u8>>,
    /// Indexed byte queues: tokens produced by one compute op and
    /// consumed by a later one.
    pub queues: Vec<ByteQueue>,
    /// Indexed staged messages: built by a compute op, taken by the
    /// send op that follows it.
    pub staged: Vec<Vec<u8>>,
}

impl PeLocal {
    /// Makes `self` a copy of `from`, reusing `self`'s buffers: what a
    /// checkpoint takes and a restart puts back. The destructuring is
    /// exhaustive so that a new field cannot be left out of either.
    pub(crate) fn copy_from(&mut self, from: &PeLocal) {
        let PeLocal {
            iter,
            inbox,
            store,
            queues,
            staged,
        } = from;
        self.iter = *iter;
        self.inbox.clone_from(inbox);
        self.store.clone_from(store);
        // A program that indexes nothing keeps both tables empty on both
        // sides; `Vec::clone_from` is not free even then (5 % of a
        // supervised 8-byte self-loop iteration for the pair).
        if !(queues.is_empty() && self.queues.is_empty()) {
            self.queues.clone_from(queues);
        }
        if !(staged.is_empty() && self.staged.is_empty()) {
            self.staged.clone_from(staged);
        }
    }

    /// Pops the oldest pending payload from `channel` as an owned
    /// buffer (copying if it was a pooled lease; the lease's slot is
    /// released on return).
    ///
    /// Compute closures use this to consume data received by earlier
    /// `Recv` ops of the same program.
    pub fn take_from(&mut self, channel: ChannelId) -> Option<Vec<u8>> {
        self.take_token_from(channel).map(Token::into_vec)
    }

    /// Pops the oldest pending payload from `channel` as a [`Token`],
    /// preserving a pooled lease for zero-copy consumption (read via
    /// `&token[..]`, slot released when the token drops).
    pub fn take_token_from(&mut self, channel: ChannelId) -> Option<Token> {
        let idx = self.inbox.iter().position(|(c, _)| *c == channel)?;
        self.inbox.remove(idx).map(|(_, d)| d)
    }
}

/// Closure computing a data-dependent cycle cost and performing the
/// actual (functional) work of an operation.
pub type ComputeFn = Box<dyn FnMut(&mut PeLocal) -> u64 + Send>;
/// Closure producing the payload for a send.
pub type PayloadFn = Box<dyn FnMut(&mut PeLocal) -> Vec<u8> + Send>;
/// Closure computing an absolute target cycle for a timed wait.
pub type WaitFn = Box<dyn FnMut(u64) -> u64 + Send>;

/// One operation in a PE program.
pub enum Op {
    /// Run `work`, advancing the PE clock by the returned cycle count.
    Compute {
        /// Label for traces and profiling.
        label: String,
        /// The functional work + cost model.
        work: ComputeFn,
    },
    /// Produce a payload and push it into `channel` (blocking while the
    /// FIFO lacks space).
    Send {
        /// Destination channel.
        channel: ChannelId,
        /// Payload generator.
        payload: PayloadFn,
    },
    /// Block until one message is available on `channel`, then deliver it
    /// to the PE's inbox.
    Recv {
        /// Source channel.
        channel: ChannelId,
    },
    /// Stall until the absolute cycle returned by `target(iter)` —
    /// the primitive behind *fully-static* schedules, where a global
    /// clock (not data arrival) releases each firing.
    WaitUntil {
        /// Computes the release cycle for the current iteration.
        target: WaitFn,
    },
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute { label, .. } => write!(f, "Compute({label})"),
            Op::Send { channel, .. } => write!(f, "Send({channel})"),
            Op::Recv { channel } => write!(f, "Recv({channel})"),
            Op::WaitUntil { .. } => write!(f, "WaitUntil"),
        }
    }
}

/// A PE program: `prologue` executed once, then `ops` executed
/// `iterations` times.
#[derive(Debug, Default)]
pub struct Program {
    /// The looped operation sequence.
    pub ops: Vec<Op>,
    /// Number of loop iterations to run.
    pub iterations: u64,
    /// One-shot ops run before the loop (pipeline fills, credit grants,
    /// delay-token priming).
    pub prologue: Vec<Op>,
    /// Compute-time scaling as a rational `num/den`: a software PE at a
    /// third of the hardware clock uses `(3, 1)`; a double-speed
    /// hardware block uses `(1, 2)`. Communication costs are unaffected
    /// (the wires run at fabric speed). Zero components are treated as 1.
    pub speed: (u64, u64),
}

impl Program {
    /// Creates a program running `ops` for `iterations` iterations with
    /// an empty prologue at nominal speed.
    pub fn new(ops: Vec<Op>, iterations: u64) -> Self {
        Program {
            ops,
            iterations,
            prologue: Vec::new(),
            speed: (1, 1),
        }
    }

    /// Scales every compute op's duration by `num/den` (heterogeneous
    /// hardware/software platforms).
    pub fn with_speed(mut self, num: u64, den: u64) -> Self {
        self.speed = (num.max(1), den.max(1));
        self
    }
}

/// Per-channel traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// High-water mark of buffer occupancy in bytes (committed +
    /// in-flight), the number an RTL FIFO would be sized to.
    pub peak_bytes: u64,
}

/// Per-PE blocking statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Cycles spent blocked waiting to send.
    pub send_stall_cycles: u64,
    /// Cycles spent blocked waiting to receive.
    pub recv_stall_cycles: u64,
    /// Cycles spent in compute ops.
    pub busy_cycles: u64,
    /// Cycles spent stalled on `WaitUntil` releases (fully-static mode).
    pub wait_cycles: u64,
    /// Cycle at which the PE finished its program.
    pub finish_cycle: u64,
}

/// Result of a completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cycle at which the last PE finished (makespan).
    pub makespan_cycles: u64,
    /// Per-PE statistics, indexed by `PeId`.
    pub pe: Vec<PeStats>,
    /// Per-channel statistics, indexed by `ChannelId`.
    pub channels: Vec<ChannelStats>,
    /// Final local state of each PE (for functional checks).
    pub locals: Vec<PeLocalSnapshot>,
}

/// Snapshot of a PE's local memory after a run, on the DES or on
/// threads: the functional result of its program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeLocalSnapshot {
    /// The PE's keyed store.
    pub store: HashMap<String, Vec<u8>>,
    /// Messages left unconsumed in the PE's inbox.
    pub leftover_inbox: usize,
}

impl From<PeLocal> for PeLocalSnapshot {
    fn from(local: PeLocal) -> Self {
        PeLocalSnapshot {
            leftover_inbox: local.inbox.len(),
            store: local.store,
        }
    }
}

impl SimReport {
    /// Converts the makespan to microseconds at `clock_mhz`.
    pub fn makespan_us(&self, clock_mhz: f64) -> f64 {
        self.makespan_cycles as f64 / clock_mhz
    }

    /// Total messages over all channels.
    pub fn total_messages(&self) -> u64 {
        self.channels.iter().map(|c| c.messages).sum()
    }

    /// Total payload bytes over all channels.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes).sum()
    }
}

/// Builder/owner of one simulated platform instance.
///
/// # Examples
///
/// A producer PE streams two words to a consumer PE over a FIFO with
/// room for four one-word messages:
///
/// ```
/// use spi_platform::{Machine, ChannelSpec, Op, Program};
///
/// let mut m = Machine::new();
/// let ch = m.add_channel(ChannelSpec { capacity_bytes: 16, max_message_bytes: 4 });
/// let producer = m.add_pe(Program::new(vec![
///     Op::Send { channel: ch, payload: Box::new(|_| vec![1, 2, 3, 4]) },
/// ], 2));
/// let _consumer = m.add_pe(Program::new(vec![
///     Op::Recv { channel: ch },
/// ], 2));
/// let report = m.run()?;
/// assert_eq!(report.channels[ch.0].messages, 2);
/// assert!(report.makespan_cycles > 0);
/// # let _ = producer;
/// # Ok::<(), spi_platform::PlatformError>(())
/// ```
pub struct Machine {
    channels: Vec<ChannelSpec>,
    programs: Vec<Program>,
    budget_cycles: u64,
    tracer: Option<Arc<dyn Tracer>>,
    bus: Option<BusSpec>,
    ordered_bus: Option<Vec<ChannelId>>,
}

/// A shared interconnect: every channel transfer serializes through one
/// bus. Models bus-based MPSoC fabrics for the point-to-point-vs-bus
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusSpec {
    /// Arbitration cycles charged per transfer.
    pub arbitration_cycles: u64,
}

/// Cycles per granted slot of an ordered-transactions bus (address
/// strobe etc.): smaller than an arbitrated bus's
/// [`BusSpec::arbitration_cycles`], since no arbitration runs.
pub const ORDERED_SLOT_CYCLES: u64 = 1;

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// Creates an empty machine with a generous default cycle budget.
    pub fn new() -> Self {
        Machine {
            channels: Vec::new(),
            programs: Vec::new(),
            budget_cycles: u64::MAX / 4,
            tracer: None,
            bus: None,
            ordered_bus: None,
        }
    }

    /// Attaches a [`Tracer`] probe sink: the engine emits firing
    /// begin/end, send/receive (with payload digest and occupancy), and
    /// block/unblock events through it, timestamped in **simulation
    /// cycles**. A tracer whose [`Tracer::enabled`] is `false` costs
    /// nothing.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Routes every transfer through a shared bus with the given
    /// arbitration cost instead of dedicated point-to-point wires.
    pub fn set_shared_bus(&mut self, bus: BusSpec) {
        self.bus = Some(bus);
        self.ordered_bus = None;
    }

    /// Routes transfers through an *ordered-transactions* bus
    /// (Sriram): bus grants follow `order`, a compile-time cyclic order
    /// of channels with one entry per steady-state send per iteration
    /// (a channel may appear more than once), so no run-time arbitration
    /// is needed — a transfer whose channel is next in the order
    /// proceeds after [`ORDERED_SLOT_CYCLES`]; one out of turn waits for
    /// its slot. Channels absent from the order (and sends issued from a
    /// PE's prologue) bypass the ordering.
    ///
    /// The order is a contract the programs must be able to meet: the
    /// bus never skips a slot, so each PE's gated sends must appear in
    /// the order its program issues them, and no gated send may find its
    /// channel full when its slot comes up — the PE that would drain it
    /// may be waiting for a later slot, and the run ends in
    /// [`PlatformError::Deadlock`](crate::PlatformError).
    pub fn set_ordered_bus(&mut self, order: Vec<ChannelId>) {
        self.ordered_bus = Some(order);
        self.bus = None;
    }

    /// Adds a channel; returns its id.
    pub fn add_channel(&mut self, spec: ChannelSpec) -> ChannelId {
        self.channels.push(spec);
        ChannelId(self.channels.len() - 1)
    }

    /// Adds a PE running `program`; returns its id.
    pub fn add_pe(&mut self, program: Program) -> PeId {
        self.programs.push(program);
        PeId(self.programs.len() - 1)
    }

    /// Caps simulated time; exceeding it aborts with
    /// [`PlatformError::BudgetExceeded`].
    pub fn set_budget_cycles(&mut self, budget: u64) {
        self.budget_cycles = budget;
    }

    /// Decomposes the machine into its channel specs and PE programs —
    /// the inputs [`crate::ThreadedRunner::run`] needs to execute the same
    /// system on OS threads.
    pub fn into_parts(self) -> (Vec<ChannelSpec>, Vec<Program>) {
        (self.channels, self.programs)
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::ZeroCapacity`] for an unusable channel;
    /// * [`PlatformError::MessageExceedsCapacity`] if a payload can never
    ///   fit its channel;
    /// * [`PlatformError::Deadlock`] if PEs block each other forever;
    /// * [`PlatformError::BudgetExceeded`] if the cycle budget runs out.
    pub fn run(self) -> Result<SimReport> {
        Engine::new(self)?.run()
    }
}

// ---------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeState {
    Ready,
    BlockedSend(ChannelId),
    BlockedRecv(ChannelId),
    /// Waiting for the ordered bus to reach this channel's slot.
    BlockedBus(ChannelId),
    Done,
}

struct ChannelState {
    spec: ChannelSpec,
    /// Bytes committed (sent or in flight) and not yet consumed.
    used_bytes: usize,
    /// Messages in flight: (arrival_cycle, payload).
    in_flight: VecDeque<(u64, Vec<u8>)>,
    /// Messages arrived and waiting for a receiver.
    available: VecDeque<Vec<u8>>,
    stats: ChannelStats,
}

struct PeRuntime {
    program: Program,
    pc: usize,
    in_prologue: bool,
    iter: u64,
    state: PeState,
    local: PeLocal,
    stats: PeStats,
    /// Cycle at which the current blocking started (for stall stats).
    blocked_since: u64,
    /// Pending payload for a blocked send.
    pending_send: Option<Vec<u8>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    PeReady(PeId),
    Arrival(ChannelId),
}

struct Engine {
    now: u64,
    seq: u64,
    /// Min-heap on `(time, seq)`; `seq` is unique, so the event itself
    /// never decides an order.
    queue: BinaryHeap<Reverse<(u64, u64, Event)>>,
    pes: Vec<PeRuntime>,
    channels: Vec<ChannelState>,
    budget: u64,
    /// Fatal condition detected inside the event loop.
    fault: Option<PlatformError>,
    /// Probe sink, `None` when absent or disabled so the hot loop pays
    /// one pointer test per emission site.
    probe: Option<Arc<dyn Tracer>>,
    bus: Option<BusSpec>,
    ordered_bus: Option<Vec<ChannelId>>,
    /// Position in the ordered-bus grant sequence.
    grant_idx: usize,
    /// Cycle at which the shared bus frees up (bus modes only).
    bus_free: u64,
    /// The PEs a wake-up is stepping, one range per nested wake-up:
    /// each pushes its snapshot above its caller's range and truncates
    /// back when done, so the run allocates it once.
    wakeups: Vec<usize>,
}

impl Engine {
    fn new(m: Machine) -> Result<Self> {
        if let Some(i) = m.channels.iter().position(|c| !c.is_usable()) {
            return Err(PlatformError::ZeroCapacity {
                channel: ChannelId(i),
            });
        }
        let channels = m
            .channels
            .into_iter()
            .map(|spec| ChannelState {
                spec,
                used_bytes: 0,
                in_flight: VecDeque::new(),
                available: VecDeque::new(),
                stats: ChannelStats::default(),
            })
            .collect();
        let pes = m
            .programs
            .into_iter()
            .map(|program| PeRuntime {
                in_prologue: !program.prologue.is_empty(),
                program,
                pc: 0,
                iter: 0,
                state: PeState::Ready,
                local: PeLocal::default(),
                stats: PeStats::default(),
                blocked_since: 0,
                pending_send: None,
            })
            .collect();
        Ok(Engine {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            pes,
            channels,
            budget: m.budget_cycles,
            fault: None,
            probe: m.tracer.filter(|t| t.enabled()),
            bus: m.bus,
            ordered_bus: m.ordered_bus,
            grant_idx: 0,
            bus_free: 0,
            wakeups: Vec::new(),
        })
    }

    fn schedule(&mut self, time: u64, ev: Event) {
        self.queue.push(Reverse((time, self.seq, ev)));
        self.seq += 1;
    }

    fn run(mut self) -> Result<SimReport> {
        for i in 0..self.pes.len() {
            self.schedule(0, Event::PeReady(PeId(i)));
        }
        while let Some(Reverse((time, _, ev))) = self.queue.pop() {
            if time > self.budget {
                return Err(PlatformError::BudgetExceeded {
                    budget_cycles: self.budget,
                });
            }
            self.now = time;
            match ev {
                Event::PeReady(p) => self.step_pe(p),
                Event::Arrival(ch) => self.handle_arrival(ch),
            }
            if let Some(fault) = self.fault.take() {
                return Err(fault);
            }
        }

        let blocked: Vec<PeId> = self
            .pes
            .iter()
            .enumerate()
            .filter(|(_, pe)| pe.state != PeState::Done)
            .map(|(i, _)| PeId(i))
            .collect();
        if !blocked.is_empty() {
            let detail = self
                .pes
                .iter()
                .enumerate()
                .filter_map(|(i, pe)| {
                    let (ch, kind) = match pe.state {
                        PeState::BlockedSend(c) | PeState::BlockedBus(c) => (c, BlockKind::Send),
                        PeState::BlockedRecv(c) => (c, BlockKind::Recv),
                        _ => return None,
                    };
                    let cs = &self.channels[ch.0];
                    Some(BlockedOp {
                        pe: PeId(i),
                        channel: ch,
                        kind,
                        occupied_bytes: cs.used_bytes,
                        occupied_messages: cs.in_flight.len() + cs.available.len(),
                        capacity_bytes: cs.spec.capacity_bytes,
                        // The DES declares deadlock analytically (event
                        // queue drained), not by waiting out a timeout.
                        idle: None,
                    })
                })
                .collect();
            return Err(PlatformError::Deadlock { blocked, detail });
        }

        Ok(SimReport {
            makespan_cycles: self
                .pes
                .iter()
                .map(|p| p.stats.finish_cycle)
                .max()
                .unwrap_or(0),
            pe: self.pes.iter().map(|p| p.stats).collect(),
            channels: self.channels.iter().map(|c| c.stats).collect(),
            locals: self
                .pes
                .into_iter()
                .map(|p| PeLocalSnapshot::from(p.local))
                .collect(),
        })
    }

    fn handle_arrival(&mut self, ch: ChannelId) {
        let c = &mut self.channels[ch.0];
        let now = self.now;
        while let Some((_, data)) = c.in_flight.pop_front_if(|(arrival, _)| *arrival <= now) {
            c.stats.messages += 1;
            c.stats.bytes += data.len() as u64;
            c.available.push_back(data);
        }
        // Wake any PE blocked receiving on this channel.
        let waiters = self.snapshot_waiters(|state| state == PeState::BlockedRecv(ch));
        for slot in waiters.clone() {
            let i = self.wakeups[slot];
            self.pes[i].state = PeState::Ready;
            self.pes[i].stats.recv_stall_cycles += self.now - self.pes[i].blocked_since;
            if let Some(t) = &self.probe {
                t.record(PeId(i), self.now, ProbeKind::UnblockRecv { channel: ch });
            }
            self.step_pe(PeId(i));
        }
        self.wakeups.truncate(waiters.start);
    }

    /// Pushes the PEs whose state `blocked` matches, in index order,
    /// onto the wake-up stack and returns their slots. A PE the caller
    /// steps may wake others; that nested call's slots lie above these
    /// and are gone again when it returns.
    fn snapshot_waiters(&mut self, blocked: impl Fn(PeState) -> bool) -> Range<usize> {
        let start = self.wakeups.len();
        let matching = self
            .pes
            .iter()
            .enumerate()
            .filter(|(_, p)| blocked(p.state));
        self.wakeups.extend(matching.map(|(i, _)| i));
        start..self.wakeups.len()
    }

    /// Advances one PE until it blocks, finishes, or schedules a timed
    /// resume.
    fn step_pe(&mut self, id: PeId) {
        loop {
            let pe = &mut self.pes[id.0];
            if !pe.in_prologue && (pe.iter >= pe.program.iterations || pe.program.ops.is_empty()) {
                pe.state = PeState::Done;
                pe.stats.finish_cycle = pe.stats.finish_cycle.max(self.now);
                return;
            }
            let pc = pe.pc;
            let op = if pe.in_prologue {
                &mut pe.program.prologue[pc]
            } else {
                &mut pe.program.ops[pc]
            };
            match op {
                Op::Compute { label, work } => {
                    pe.local.iter = pe.iter;
                    let speed = pe.program.speed;
                    let raw = work(&mut pe.local);
                    let cycles = (raw * speed.0.max(1)).div_ceil(speed.1.max(1));
                    pe.stats.busy_cycles += cycles;
                    pe.state = PeState::Ready;
                    if let Some(t) = &self.probe {
                        // The DES knows the firing's duration up front,
                        // so both endpoints are stamped here; the PE
                        // resumes exactly at the end cycle, keeping the
                        // per-PE stream ordered.
                        let lbl = t.intern(label);
                        t.record(id, self.now, ProbeKind::FiringBegin { label: lbl });
                        t.record(id, self.now + cycles, ProbeKind::FiringEnd { label: lbl });
                    }
                    self.advance_pc(id.0);
                    if cycles > 0 {
                        let resume = self.now + cycles;
                        self.pes[id.0].stats.finish_cycle = resume;
                        self.schedule(resume, Event::PeReady(id));
                        return;
                    }
                }
                Op::Send { channel, payload } => {
                    let ch = *channel;
                    // Produce the payload once, retry delivery as needed.
                    let data_len = (pe.pending_send)
                        .get_or_insert_with(|| {
                            pe.local.iter = pe.iter;
                            payload(&mut pe.local)
                        })
                        .len();
                    let in_prologue = pe.in_prologue;
                    let spec = self.channels[ch.0].spec;
                    if data_len > spec.max_message_bytes.min(spec.capacity_bytes) {
                        // eq. (1), as every transport admits a message:
                        // payload sizes are dynamic, so this can only be
                        // checked at send time. Abort the whole run with
                        // the error the threaded runner returns.
                        pe.state = PeState::BlockedSend(ch);
                        pe.blocked_since = self.now;
                        self.fault = Some(PlatformError::MessageExceedsCapacity {
                            channel: ch,
                            bytes: data_len,
                            capacity: spec.capacity_bytes,
                        });
                        return;
                    }
                    // Ordered-transactions bus: out-of-turn steady-state
                    // sends wait for their slot (prologue sends and
                    // channels outside the order bypass).
                    if let Some(order) = &self.ordered_bus {
                        let gated = !in_prologue && !order.is_empty() && order.contains(&ch);
                        if gated && order[self.grant_idx % order.len()] != ch {
                            let pe = &mut self.pes[id.0];
                            pe.state = PeState::BlockedBus(ch);
                            pe.blocked_since = self.now;
                            if let Some(t) = &self.probe {
                                // A bus-slot wait stalls the send side.
                                t.record(id, self.now, ProbeKind::BlockSend { channel: ch });
                            }
                            return;
                        }
                    }
                    if self.channels[ch.0].used_bytes + data_len <= spec.capacity_bytes {
                        // Invariant: filled at the top of this arm.
                        #[allow(clippy::expect_used)]
                        let data = self.pes[id.0].pending_send.take().expect("pending");
                        let sent = self.now + SEND_OVERHEAD_CYCLES;
                        let wire = ChannelSpec::wire_cycles(data.len());
                        let mut advanced_order = false;
                        let arrival = match (&self.bus, &self.ordered_bus) {
                            (None, None) => sent + wire,
                            (Some(bus), _) => {
                                // Shared bus: the transfer occupies the
                                // single interconnect after arbitration.
                                let grant = self.bus_free.max(sent) + bus.arbitration_cycles;
                                self.bus_free = grant + wire;
                                self.bus_free
                            }
                            (None, Some(order)) => {
                                let gated =
                                    !in_prologue && !order.is_empty() && order.contains(&ch);
                                if gated {
                                    advanced_order = true;
                                    let grant = self.bus_free.max(sent) + ORDERED_SLOT_CYCLES;
                                    self.bus_free = grant + wire;
                                    self.bus_free
                                } else {
                                    sent + wire
                                }
                            }
                        };
                        if advanced_order {
                            self.grant_idx += 1;
                        }
                        let c = &mut self.channels[ch.0];
                        c.used_bytes += data.len();
                        c.stats.peak_bytes = c.stats.peak_bytes.max(c.used_bytes as u64);
                        if let Some(t) = &self.probe {
                            t.record(
                                id,
                                self.now,
                                ProbeKind::Send {
                                    channel: ch,
                                    bytes: data.len() as u32,
                                    digest: payload_digest(&data),
                                    occ_bytes: c.used_bytes as u32,
                                    occ_msgs: (c.in_flight.len() + c.available.len() + 1) as u32,
                                },
                            );
                        }
                        c.in_flight.push_back((arrival, data));
                        self.schedule(arrival, Event::Arrival(ch));
                        self.advance_pc(id.0);
                        let pe = &mut self.pes[id.0];
                        pe.state = PeState::Ready;
                        if advanced_order {
                            self.wake_bus_waiters();
                        }
                        self.pes[id.0].stats.finish_cycle = sent;
                        self.schedule(sent, Event::PeReady(id));
                        return;
                    } else {
                        pe.state = PeState::BlockedSend(ch);
                        pe.blocked_since = self.now;
                        if let Some(t) = &self.probe {
                            t.record(id, self.now, ProbeKind::BlockSend { channel: ch });
                        }
                        return;
                    }
                }
                Op::WaitUntil { target } => {
                    let release = target(pe.iter);
                    self.advance_pc(id.0);
                    if release > self.now {
                        let pe = &mut self.pes[id.0];
                        pe.stats.wait_cycles += release - self.now;
                        pe.state = PeState::Ready;
                        pe.stats.finish_cycle = pe.stats.finish_cycle.max(release);
                        self.schedule(release, Event::PeReady(id));
                        return;
                    }
                }
                Op::Recv { channel } => {
                    let ch = *channel;
                    if let Some(data) = self.channels[ch.0].available.pop_front() {
                        self.channels[ch.0].used_bytes -= data.len();
                        if let Some(t) = &self.probe {
                            let c = &self.channels[ch.0];
                            t.record(
                                id,
                                self.now,
                                ProbeKind::Recv {
                                    channel: ch,
                                    bytes: data.len() as u32,
                                    digest: payload_digest(&data),
                                    occ_bytes: c.used_bytes as u32,
                                    occ_msgs: (c.in_flight.len() + c.available.len()) as u32,
                                },
                            );
                        }
                        let pe = &mut self.pes[id.0];
                        pe.local.inbox.push_back((ch, Token::Owned(data)));
                        pe.state = PeState::Ready;
                        self.advance_pc(id.0);
                        // Freed space: wake blocked senders on this channel.
                        self.wake_senders(ch);
                        let resume = self.now + RECV_OVERHEAD_CYCLES;
                        self.pes[id.0].stats.finish_cycle = resume;
                        self.schedule(resume, Event::PeReady(id));
                        return;
                    } else {
                        pe.state = PeState::BlockedRecv(ch);
                        pe.blocked_since = self.now;
                        if let Some(t) = &self.probe {
                            t.record(id, self.now, ProbeKind::BlockRecv { channel: ch });
                        }
                        return;
                    }
                }
            }
        }
    }

    fn advance_pc(&mut self, i: usize) {
        let pe = &mut self.pes[i];
        pe.pc += 1;
        if pe.in_prologue {
            if pe.pc >= pe.program.prologue.len() {
                pe.in_prologue = false;
                pe.pc = 0;
            }
        } else if pe.pc >= pe.program.ops.len() {
            pe.pc = 0;
            pe.iter += 1;
        }
    }

    /// Re-steps PEs waiting for their ordered-bus slot; the one whose
    /// channel matches the new grant position proceeds.
    fn wake_bus_waiters(&mut self) {
        let waiters = self.snapshot_waiters(|state| matches!(state, PeState::BlockedBus(_)));
        for slot in waiters.clone() {
            let i = self.wakeups[slot];
            // Stepping an earlier waiter re-enters this function when its
            // send advances the order, and that inner call may already
            // have woken this one.
            let PeState::BlockedBus(ch) = self.pes[i].state else {
                continue;
            };
            self.pes[i].state = PeState::Ready;
            self.pes[i].stats.send_stall_cycles += self.now - self.pes[i].blocked_since;
            if let Some(t) = &self.probe {
                t.record(PeId(i), self.now, ProbeKind::UnblockSend { channel: ch });
            }
            self.step_pe(PeId(i));
        }
        self.wakeups.truncate(waiters.start);
    }

    fn wake_senders(&mut self, ch: ChannelId) {
        let waiters = self.snapshot_waiters(|state| state == PeState::BlockedSend(ch));
        for slot in waiters.clone() {
            let i = self.wakeups[slot];
            self.pes[i].state = PeState::Ready;
            self.pes[i].stats.send_stall_cycles += self.now - self.pes[i].blocked_since;
            if let Some(t) = &self.probe {
                t.record(PeId(i), self.now, ProbeKind::UnblockSend { channel: ch });
            }
            self.step_pe(PeId(i));
        }
        self.wakeups.truncate(waiters.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A channel of exactly one 8-byte message.
    fn tight_channel() -> ChannelSpec {
        ChannelSpec {
            capacity_bytes: 8,
            max_message_bytes: 8,
        }
    }

    /// The default 4 KiB channel, declaring messages of up to `max` bytes.
    fn carrying(max: usize) -> ChannelSpec {
        ChannelSpec {
            max_message_bytes: max,
            ..ChannelSpec::default()
        }
    }

    #[test]
    fn byte_queue_is_a_fifo_across_reset_and_compaction() {
        // Interleaved pushes and takes against a plain byte list; the
        // take sizes walk the cursor over both boundaries — a drain (the
        // next push restarts at offset 0) and a dead prefix longer than
        // what is pending (the next push compacts).
        let mut q = ByteQueue::default();
        let mut model: VecDeque<u8> = VecDeque::new();
        let mut next = 0u8;
        for round in 0..200usize {
            let burst: Vec<u8> = (0..1 + round % 7).map(|_| next).collect();
            next = next.wrapping_add(1);
            q.push(&burst);
            model.extend(&burst);
            let n = [0, 1, 3, model.len(), model.len() / 2][round % 5].min(model.len());
            let want: Vec<u8> = model.drain(..n).collect();
            assert_eq!(q.take(n), Some(&want[..]), "round {round}");
            assert_eq!(q.pending(), model.make_contiguous(), "round {round}");
        }
    }

    #[test]
    fn byte_queue_short_take_consumes_nothing() {
        let mut q = ByteQueue::default();
        assert_eq!(q.take(1), None);
        assert_eq!(q.take(0), Some(&[][..]));
        q.push(&[1, 2, 3]);
        assert_eq!(q.take(4), None);
        assert_eq!(q.take(usize::MAX), None);
        assert_eq!(q.pending(), [1, 2, 3]);
        assert_eq!(q.take(3), Some(&[1, 2, 3][..]));
        assert_eq!(q.take(1), None);
    }

    #[test]
    fn byte_queue_that_never_drains_stays_bounded() {
        // 5 bytes stay pending for ever, 3 move per round: the buffer
        // holds at most twice the pending bytes plus the push.
        let mut q = ByteQueue::default();
        q.push(&[0; 5]);
        for _ in 0..10_000 {
            q.push(&[1; 3]);
            assert!(q.take(3).is_some());
        }
        assert_eq!(q.pending().len(), 5);
        assert!(q.capacity() <= 2 * (2 * 5 + 3), "capacity {}", q.capacity());
    }

    #[test]
    fn single_pe_compute_accumulates_time() {
        let mut m = Machine::new();
        m.add_pe(Program::new(
            vec![Op::Compute {
                label: "work".into(),
                work: Box::new(|_| 25),
            }],
            4,
        ));
        let report = m.run().unwrap();
        assert_eq!(report.makespan_cycles, 100);
        assert_eq!(report.pe[0].busy_cycles, 100);
    }

    #[test]
    fn producer_consumer_delivers_payloads() {
        let mut m = Machine::new();
        let ch = m.add_channel(ChannelSpec::default());
        m.add_pe(Program::new(
            vec![Op::Send {
                channel: ch,
                payload: Box::new(|l| vec![l.iter as u8; 4]),
            }],
            3,
        ));
        m.add_pe(Program::new(
            vec![
                Op::Recv { channel: ch },
                Op::Compute {
                    label: "check".into(),
                    work: Box::new(move |l| {
                        let data = l.take_from(ChannelId(0)).expect("payload");
                        let key = format!("got{}", l.iter);
                        l.store.insert(key, data);
                        1
                    }),
                },
            ],
            3,
        ));
        let report = m.run().unwrap();
        assert_eq!(report.channels[0].messages, 3);
        assert_eq!(report.channels[0].bytes, 12);
        let store = &report.locals[1].store;
        assert_eq!(store["got0"], vec![0, 0, 0, 0]);
        assert_eq!(store["got2"], vec![2, 2, 2, 2]);
        assert_eq!(report.locals[1].leftover_inbox, 0);
    }

    #[test]
    fn full_fifo_blocks_sender() {
        let mut m = Machine::new();
        let ch = m.add_channel(tight_channel()); // 8 B capacity
                                                 // Sender pushes 8 B messages back-to-back; receiver consumes
                                                 // slowly (100-cycle compute between receives).
        m.add_pe(Program::new(
            vec![Op::Send {
                channel: ch,
                payload: Box::new(|_| vec![0u8; 8]),
            }],
            4,
        ));
        m.add_pe(Program::new(
            vec![
                Op::Recv { channel: ch },
                Op::Compute {
                    label: "slow".into(),
                    work: Box::new(|_| 100),
                },
            ],
            4,
        ));
        let report = m.run().unwrap();
        // The first message arrives after the send framing and its two
        // words of wire; from then on every message waits for the
        // receiver, which frames each receive and computes 100 cycles:
        // 2 + 8/4 · 1 + 4 · (2 + 100) = 412.
        let first = SEND_OVERHEAD_CYCLES + ChannelSpec::wire_cycles(8);
        assert_eq!(first, 4);
        assert_eq!(
            report.makespan_cycles,
            first + 4 * (RECV_OVERHEAD_CYCLES + 100)
        );
        // The sender blocks three times: once until the first receive
        // (at cycle 4, after its own framing to cycle 2), then for a
        // whole receive-to-receive interval before each of the last two
        // sends: 2 + 2 · 100 = 202.
        assert_eq!(report.pe[0].send_stall_cycles, 2 + 2 * 100);
        assert_eq!(report.channels[0].messages, 4);
    }

    #[test]
    fn empty_fifo_blocks_receiver() {
        let mut m = Machine::new();
        let ch = m.add_channel(ChannelSpec::default());
        m.add_pe(Program::new(
            vec![
                Op::Compute {
                    label: "slow-src".into(),
                    work: Box::new(|_| 500),
                },
                Op::Send {
                    channel: ch,
                    payload: Box::new(|_| vec![1, 2, 3, 4]),
                },
            ],
            1,
        ));
        m.add_pe(Program::new(vec![Op::Recv { channel: ch }], 1));
        let report = m.run().unwrap();
        assert!(report.pe[1].recv_stall_cycles >= 500);
    }

    #[test]
    fn deadlock_detected() {
        // Two PEs each receive before sending → classic deadlock.
        let mut m = Machine::new();
        let ab = m.add_channel(ChannelSpec::default());
        let ba = m.add_channel(ChannelSpec::default());
        m.add_pe(Program::new(
            vec![
                Op::Recv { channel: ba },
                Op::Send {
                    channel: ab,
                    payload: Box::new(|_| vec![0; 4]),
                },
            ],
            1,
        ));
        m.add_pe(Program::new(
            vec![
                Op::Recv { channel: ab },
                Op::Send {
                    channel: ba,
                    payload: Box::new(|_| vec![0; 4]),
                },
            ],
            1,
        ));
        match m.run() {
            Err(PlatformError::Deadlock { blocked, detail }) => {
                assert_eq!(blocked.len(), 2);
                // Both PEs are named with the channel they starve on.
                assert_eq!(detail.len(), 2);
                let msg = PlatformError::Deadlock { blocked, detail }.to_string();
                assert!(msg.contains("ch0") && msg.contains("ch1"), "{msg}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        let mut m = Machine::new();
        let bad = ChannelSpec {
            capacity_bytes: 0,
            ..ChannelSpec::default()
        };
        m.add_channel(bad);
        assert!(matches!(m.run(), Err(PlatformError::ZeroCapacity { .. })));
        // Nor can a channel that declares no message bound.
        let mut m = Machine::new();
        m.add_channel(carrying(0));
        assert!(matches!(m.run(), Err(PlatformError::ZeroCapacity { .. })));
    }

    #[test]
    fn a_message_above_the_declared_bound_is_refused() {
        // eq. (1): the channel carries messages of at most 4 bytes, and
        // has room for a thousand of them. A 5-byte send ends the run
        // with the threaded runner's error, before anything is enqueued.
        let mut m = Machine::new();
        let ch = m.add_channel(ChannelSpec::default());
        m.add_pe(Program::new(
            vec![Op::Send {
                channel: ch,
                payload: Box::new(|_| vec![0; 5]),
            }],
            1,
        ));
        m.add_pe(Program::new(vec![Op::Recv { channel: ch }], 1));
        match m.run() {
            Err(PlatformError::MessageExceedsCapacity {
                channel,
                bytes,
                capacity,
            }) => {
                assert_eq!((channel, bytes, capacity), (ch, 5, 4096));
            }
            other => panic!("expected the eq. (1) refusal, got {other:?}"),
        }
    }

    #[test]
    fn wire_latency_scales_with_message_size() {
        // 4 B words, 1 cycle per word.
        assert_eq!(ChannelSpec::wire_cycles(4), 1);
        assert_eq!(ChannelSpec::wire_cycles(5), 2);
        assert_eq!(ChannelSpec::wire_cycles(400), 100);
        assert_eq!(ChannelSpec::wire_cycles(0), 0);
    }

    #[test]
    fn makespan_in_microseconds() {
        let mut m = Machine::new();
        m.add_pe(Program::new(
            vec![Op::Compute {
                label: "w".into(),
                work: Box::new(|_| 100),
            }],
            1,
        ));
        let report = m.run().unwrap();
        let us = report.makespan_us(100.0); // 100 MHz → 1 µs per 100 cycles
        assert!((us - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exceeded_detected() {
        let mut m = Machine::new();
        m.add_pe(Program::new(
            vec![Op::Compute {
                label: "w".into(),
                work: Box::new(|_| 1000),
            }],
            10,
        ));
        m.set_budget_cycles(500);
        assert!(matches!(m.run(), Err(PlatformError::BudgetExceeded { .. })));
    }

    #[test]
    fn two_hop_pipeline_composes() {
        let mut m = Machine::new();
        let c1 = m.add_channel(ChannelSpec::default());
        let c2 = m.add_channel(ChannelSpec::default());
        m.add_pe(Program::new(
            vec![Op::Send {
                channel: c1,
                payload: Box::new(|l| vec![l.iter as u8]),
            }],
            5,
        ));
        m.add_pe(Program::new(
            vec![
                Op::Recv { channel: c1 },
                Op::Compute {
                    label: "double".into(),
                    work: Box::new(move |l| {
                        let v = l.take_from(ChannelId(0)).expect("data");
                        l.store.insert("fwd".into(), vec![v[0] * 2]);
                        5
                    }),
                },
                Op::Send {
                    channel: c2,
                    payload: Box::new(|l| l.store.get("fwd").cloned().expect("set")),
                },
            ],
            5,
        ));
        m.add_pe(Program::new(
            vec![
                Op::Recv { channel: c2 },
                Op::Compute {
                    label: "sink".into(),
                    work: Box::new(move |l| {
                        let v = l.take_from(ChannelId(1)).expect("data");
                        let mut acc = l.store.remove("acc").unwrap_or_default();
                        acc.push(v[0]);
                        l.store.insert("acc".into(), acc);
                        1
                    }),
                },
            ],
            5,
        ));
        let report = m.run().unwrap();
        assert_eq!(report.locals[2].store["acc"], vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn speed_scaling_slows_software_pes() {
        let mut m = Machine::new();
        m.add_pe(Program::new(
            vec![Op::Compute {
                label: "hw".into(),
                work: Box::new(|_| 100),
            }],
            4,
        ));
        m.add_pe(
            Program::new(
                vec![Op::Compute {
                    label: "sw".into(),
                    work: Box::new(|_| 100),
                }],
                4,
            )
            .with_speed(3, 1),
        );
        let report = m.run().unwrap();
        assert_eq!(report.pe[0].busy_cycles, 400);
        assert_eq!(report.pe[1].busy_cycles, 1200, "software PE runs 3× slower");
        assert_eq!(report.makespan_cycles, 1200);
    }

    #[test]
    fn speed_scaling_can_also_accelerate() {
        let mut m = Machine::new();
        m.add_pe(
            Program::new(
                vec![Op::Compute {
                    label: "fast".into(),
                    work: Box::new(|_| 99),
                }],
                1,
            )
            .with_speed(1, 2),
        );
        let report = m.run().unwrap();
        assert_eq!(report.pe[0].busy_cycles, 50, "ceil(99/2)");
    }

    #[test]
    fn engine_is_deterministic() {
        let build = || {
            let mut m = Machine::new();
            let c1 = m.add_channel(carrying(8));
            let c2 = m.add_channel(tight_channel());
            m.add_pe(Program::new(
                vec![
                    Op::Compute {
                        label: "w".into(),
                        work: Box::new(|l| 3 + l.iter % 7),
                    },
                    Op::Send {
                        channel: c1,
                        payload: Box::new(|l| vec![l.iter as u8; 8]),
                    },
                ],
                20,
            ));
            m.add_pe(Program::new(
                vec![
                    Op::Recv { channel: c1 },
                    Op::Send {
                        channel: c2,
                        payload: Box::new(|_| vec![9; 4]),
                    },
                ],
                20,
            ));
            m.add_pe(Program::new(vec![Op::Recv { channel: c2 }], 20));
            m
        };
        let a = build().run().unwrap();
        let b = build().run().unwrap();
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.pe, b.pe);
        assert_eq!(a.channels, b.channels);
    }

    #[test]
    fn peak_bytes_tracks_high_water_mark() {
        let mut m = Machine::new();
        let ch = m.add_channel(carrying(16));
        // Producer bursts 3 × 16 B before the consumer wakes up.
        m.add_pe(Program::new(
            vec![Op::Send {
                channel: ch,
                payload: Box::new(|_| vec![0; 16]),
            }],
            3,
        ));
        m.add_pe(Program::new(
            vec![
                Op::Compute {
                    label: "late".into(),
                    work: Box::new(|_| 1000),
                },
                Op::Recv { channel: ch },
            ],
            3,
        ));
        let report = m.run().unwrap();
        assert_eq!(report.channels[0].peak_bytes, 48);
    }

    #[test]
    fn shared_bus_serializes_transfers() {
        // Two disjoint producer→consumer pairs: point-to-point they run
        // fully parallel; on a shared bus the wire times serialize.
        let run = |bus: Option<BusSpec>| {
            let mut m = Machine::new();
            if let Some(b) = bus {
                m.set_shared_bus(b);
            }
            for _ in 0..2 {
                let ch = m.add_channel(carrying(4000));
                m.add_pe(Program::new(
                    vec![Op::Send {
                        channel: ch,
                        payload: Box::new(|_| vec![0; 4000]),
                    }],
                    4,
                ));
                m.add_pe(Program::new(vec![Op::Recv { channel: ch }], 4));
            }
            m.run().unwrap().makespan_cycles
        };
        let p2p = run(None);
        let bus = run(Some(BusSpec {
            arbitration_cycles: 4,
        }));
        assert!(
            bus > p2p + 500,
            "bus contention must slow disjoint streams: p2p={p2p} bus={bus}"
        );
    }

    #[test]
    fn ordered_bus_enforces_grant_order() {
        // Three producers; the order says ch1 goes first each round. PE0
        // (ch0) and PE4 (ch2) are ready immediately but must wait for
        // PE1's send — and waking PE0 hands the slot straight on to PE4
        // from inside that wake-up.
        let mut m = Machine::new();
        let ch0 = m.add_channel(ChannelSpec::default());
        let ch1 = m.add_channel(ChannelSpec::default());
        let ch2 = m.add_channel(ChannelSpec::default());
        m.set_ordered_bus(vec![ch1, ch0, ch2]);
        let sender = |channel| {
            let payload: PayloadFn = Box::new(|_| vec![0; 4]);
            Program::new(vec![Op::Send { channel, payload }], 3)
        };
        m.add_pe(sender(ch0));
        m.add_pe(Program::new(
            vec![
                Op::Compute {
                    label: "slow".into(),
                    work: Box::new(|_| 200),
                },
                Op::Send {
                    channel: ch1,
                    payload: Box::new(|_| vec![0; 4]),
                },
            ],
            3,
        ));
        m.add_pe(Program::new(vec![Op::Recv { channel: ch0 }], 3));
        m.add_pe(Program::new(vec![Op::Recv { channel: ch1 }], 3));
        m.add_pe(sender(ch2));
        m.add_pe(Program::new(vec![Op::Recv { channel: ch2 }], 3));
        let report = m.run().unwrap();
        // PE0 and PE4 stall waiting for their slots behind PE1's slow
        // compute.
        assert!(report.pe[0].send_stall_cycles >= 200);
        assert!(report.pe[4].send_stall_cycles >= 200);
        for channel in &report.channels {
            assert_eq!(channel.messages, 3);
        }
    }

    #[test]
    fn ordered_bus_bypasses_unlisted_channels() {
        let mut m = Machine::new();
        let listed = m.add_channel(ChannelSpec::default());
        let unlisted = m.add_channel(ChannelSpec::default());
        m.set_ordered_bus(vec![listed]);
        m.add_pe(Program::new(
            vec![
                Op::Send {
                    channel: unlisted,
                    payload: Box::new(|_| vec![0; 4]),
                },
                Op::Send {
                    channel: listed,
                    payload: Box::new(|_| vec![0; 4]),
                },
            ],
            2,
        ));
        m.add_pe(Program::new(
            vec![Op::Recv { channel: unlisted }, Op::Recv { channel: listed }],
            2,
        ));
        let report = m.run().unwrap();
        assert_eq!(report.total_messages(), 4);
    }

    #[test]
    fn stats_account_busy_and_stall_separately() {
        let mut m = Machine::new();
        let ch = m.add_channel(ChannelSpec::default());
        m.add_pe(Program::new(
            vec![
                Op::Compute {
                    label: "w".into(),
                    work: Box::new(|_| 10),
                },
                Op::Send {
                    channel: ch,
                    payload: Box::new(|_| vec![0; 4]),
                },
            ],
            2,
        ));
        m.add_pe(Program::new(vec![Op::Recv { channel: ch }], 2));
        let report = m.run().unwrap();
        assert_eq!(report.pe[0].busy_cycles, 20);
        assert!(report.pe[1].recv_stall_cycles >= 10);
    }
}
