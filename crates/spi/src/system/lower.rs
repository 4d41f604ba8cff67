//! Lower: [`EdgePlan`]s → platform channels and PE programs.
//!
//! One FIFO channel per inter-processor edge (sized by the plan's
//! eq. (2) capacity), an acknowledgement channel where resynchronization
//! could not prove the acks redundant, and per processor a looped
//! program of `SPI_receive` / fire / `SPI_send` ops framing messages
//! with the 2-byte (static) or 6-byte (dynamic) headers of §5.1, behind
//! a one-shot prologue (delay-token priming, credit grants, pipeline
//! fills). Every number used here is read from the plan.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::PoisonError;

use spi_dataflow::{ActorId, EdgeId, SdfGraph, VtsConversion};
use spi_platform::{ByteQueue, ChannelId, ChannelSpec, Machine, Op, PeLocal, Program};
use spi_sched::{IpcGraph, SyncGraph};

use super::build::{
    EdgePlan, MessageCost, Plans, Scheduled, SchedulingMode, SpiSystemBuilder, ACK_BYTES,
};
use crate::actors::{Firing, SharedActor};
use crate::error::{Result, SpiError};
use crate::message::{self, SpiPhase};

/// Plans → machine: channels, interconnect and one program per
/// processor.
pub(super) fn machine(
    b: &SpiSystemBuilder,
    s: &Scheduled,
    sync: &SyncGraph,
    plans: &mut Plans,
) -> Result<Machine> {
    let mut machine = Machine::new();
    if let Some(tracer) = &b.tracer {
        machine.set_tracer(tracer.clone());
    }
    if let Some(bus) = b.bus {
        machine.set_shared_bus(bus);
    }
    add_channels(&mut machine, plans);
    if b.ordered_transactions {
        machine.set_ordered_bus(grant_order(s, sync, plans));
    }
    let gen = Lowering {
        graph: s.vts.graph(),
        vts: &s.vts,
        plans,
        impls: &b.impls,
        initial_payloads: &b.initial_payloads,
        static_timing: match b.mode {
            SchedulingMode::SelfTimed => None,
            SchedulingMode::FullyStatic { slack_percent } => {
                Some(static_timing(&s.ipc, sync, slack_percent))
            }
        },
    };
    for (proc, order) in s.st.processors() {
        let mut program = gen.program_for(order, b.iterations)?;
        if let Some(&(num, den)) = b.proc_speeds.get(&proc) {
            program = program.with_speed(num, den);
        }
        machine.add_pe(program);
    }
    Ok(machine)
}

/// Allocates the machine's channels in edge order — each edge's data
/// channel, then its acknowledgement channel if the acks were kept — and
/// records the ids in the plans.
fn add_channels(machine: &mut Machine, plans: &mut Plans) {
    let mut in_edge_order: Vec<&mut EdgePlan> = plans.values_mut().collect();
    in_edge_order.sort_by_key(|p| p.edge);
    for plan in in_edge_order {
        plan.data_ch = machine.add_channel(ChannelSpec {
            capacity_bytes: plan.capacity_bytes() as usize,
            max_message_bytes: plan.msg_max,
        });
        if plan.ack_kept {
            plan.ack_ch = Some(machine.add_channel(ChannelSpec {
                capacity_bytes: plan.ack_channel_bytes(),
                max_message_bytes: ACK_BYTES,
            }));
        }
    }
}

const FAIL_KEY: &str = "__spi_error";

/// Which part of a firing failed: decoding what it received, or
/// checking and framing what the actor produced. A PE that has failed
/// sends empty messages from then on, so an `Input` failure may be
/// another PE's failure seen downstream; an `Output` failure never is.
/// [`root_failure`] prefers the lower discriminant.
#[derive(Clone, Copy)]
enum FailedAt {
    Output = 0,
    Input = 1,
}

/// Records the PE's first failure, its [`FailedAt`] as the first byte.
fn fail(local: &mut PeLocal, at: FailedAt, msg: String) {
    local
        .store
        .entry(FAIL_KEY.to_string())
        .or_insert_with(|| [&[at as u8], msg.as_bytes()].concat());
}

/// Lowered programs keep nothing in the store, so a run without a
/// failure answers from the emptiness test and hashes no key.
fn failed(local: &PeLocal) -> bool {
    !local.store.is_empty() && local.store.contains_key(FAIL_KEY)
}

/// The failure an actor implementation recorded in a PE's final store,
/// if any — what a caller running the lowered programs itself
/// ([`super::SpiSystem::into_parts`]) checks each PE's result for.
pub fn recorded_failure(store: &HashMap<String, Vec<u8>>) -> Option<SpiError> {
    store.get(FAIL_KEY).map(|err| SpiError::ActorFailed {
        message: String::from_utf8_lossy(err.get(1..).unwrap_or_default()).into_owned(),
    })
}

/// The failure that caused the others among the final stores of a run's
/// PEs, in PE order: the first PE whose own outputs failed (a bound or
/// size check, framing), else the first PE that failed at all. A failed
/// PE's empty messages make its receivers fail to decode, never to
/// produce, so an output failure is where a cascade starts.
pub fn root_failure<'a>(
    stores: impl IntoIterator<Item = &'a HashMap<String, Vec<u8>>>,
) -> Option<SpiError> {
    let store = stores
        .into_iter()
        .filter_map(|store| Some((store.get(FAIL_KEY)?.first().copied(), store)))
        .min_by_key(|(at, _)| *at)?
        .1;
    recorded_failure(store)
}

/// The slot of `edge` in one of a PE's two tables, which are indexed by
/// `EdgeId`. Both engines start a PE from `PeLocal::default()`, so the
/// tables are empty until the first write to each slot — a prime op, or
/// the PE's first iteration — grows them to hold it (an edge that never
/// touches the PE keeps an empty slot below one that does); every later
/// write pays the bounds test an index pays anyway. Reads index.
fn slot<T: Default>(table: &mut Vec<T>, edge: EdgeId) -> &mut T {
    if table.len() <= edge.0 {
        table.resize_with(edge.0 + 1, T::default);
    }
    &mut table[edge.0]
}

/// Appends a length-prefixed frame (dynamic edges).
pub(super) fn frame_push(queue: &mut ByteQueue, bytes: &[u8]) {
    queue.push(&(bytes.len() as u32).to_le_bytes());
    queue.push(bytes);
}

/// Where the first frame's payload lies in a queue's `pending` bytes;
/// `None` if they are empty or end inside the frame. Taking up to the
/// range's end consumes the frame.
pub(super) fn next_frame(pending: &[u8]) -> Option<Range<usize>> {
    let prefix: [u8; 4] = pending.get(..4)?.try_into().ok()?;
    let end = (u32::from_le_bytes(prefix) as usize).checked_add(4)?;
    (end <= pending.len()).then_some(4..end)
}

fn ack_send(edge: EdgeId, ack_ch: ChannelId) -> Op {
    Op::Send {
        channel: ack_ch,
        payload: Box::new(move |_| (edge.0 as u16).to_le_bytes().to_vec()),
    }
}

/// Precomputed release schedule for the fully-static mode.
struct StaticTiming {
    start: HashMap<spi_dataflow::Firing, u64>,
    period: u64,
}

/// Fully-static release times (paper §2's alternative): each firing's
/// analytic start inflated by `slack_percent`, in a blocked
/// (non-overlapped) schedule whose period is the worst-case makespan of
/// one iteration.
fn static_timing(ipc: &IpcGraph, sync: &SyncGraph, slack_percent: u32) -> StaticTiming {
    let times = spi_sched::latency::self_timed_times(sync, 1);
    let scale = 1.0 + f64::from(slack_percent) / 100.0;
    let start = ipc
        .tasks()
        .iter()
        .enumerate()
        .map(|(i, t)| (t.firing, (times[0][i].0 as f64 * scale).ceil() as u64))
        .collect();
    let max_end = times[0].iter().map(|&(_, e)| e).max().unwrap_or(0);
    StaticTiming {
        start,
        period: ((max_end as f64) * scale).ceil() as u64,
    }
}

/// Ordered-transactions grant order: one grant per steady-state send
/// event — acknowledgements (one per message the firing receives) and
/// data messages at their task's analytic end time — merged across
/// processors by (time, edge, channel). Each processor's sends keep the
/// order its program issues them in (a firing's acks, then its data):
/// a grant order that inverted two sends of one PE could never be met.
fn grant_order(s: &Scheduled, sync: &SyncGraph, plans: &Plans) -> Vec<ChannelId> {
    let times = spi_sched::latency::self_timed_times(sync, 1);
    let graph = s.vts.graph();
    let mut per_pe = vec![VecDeque::new(); s.st.processor_count()];
    // Tasks are numbered processor by processor, in firing order.
    for (i, task) in s.ipc.tasks().iter().enumerate() {
        let end = times[0][i].1;
        let events = &mut per_pe[task.proc.0];
        for eid in graph.in_edges(task.firing.actor) {
            if let Some((plan, ack)) = plans.get(&eid).and_then(|p| Some((p, p.ack_ch?))) {
                let count = plan.recv_counts[task.firing.k as usize];
                events.extend(std::iter::repeat_n((end, eid.0, ack), count as usize));
            }
        }
        for eid in graph.out_edges(task.firing.actor) {
            if let Some(plan) = plans.get(&eid) {
                events.push_back((end, eid.0, plan.data_ch));
            }
        }
    }
    let mut order = Vec::new();
    let pending = |q: &&mut VecDeque<_>| !q.is_empty();
    while let Some(next) = per_pe.iter_mut().filter(pending).min_by_key(|q| q[0]) {
        order.extend(next.pop_front().map(|(_, _, ch)| ch));
    }
    order
}

/// Program generator over the finished plans.
struct Lowering<'a> {
    graph: &'a SdfGraph,
    vts: &'a VtsConversion,
    plans: &'a Plans,
    impls: &'a HashMap<ActorId, SharedActor>,
    initial_payloads: &'a HashMap<EdgeId, Vec<Vec<u8>>>,
    static_timing: Option<StaticTiming>,
}

impl Lowering<'_> {
    /// The program of the processor that fires `order` each iteration.
    fn program_for(&self, order: &[spi_dataflow::Firing], iterations: u64) -> Result<Program> {
        // Prologue: ahead of an actor's first firing, prime its in-edges
        // and send the pipeline fills of its cross out-edges.
        let mut prologue: Vec<Op> = Vec::new();
        let mut started: HashSet<ActorId> = HashSet::new();
        for f in order {
            if started.insert(f.actor) {
                for eid in self.graph.in_edges(f.actor) {
                    self.prime_consumer(eid, &mut prologue);
                }
                for eid in self.graph.out_edges(f.actor) {
                    self.fill_producer(eid, &mut prologue)?;
                }
            }
        }

        let mut ops: Vec<Op> = Vec::new();
        for &f in order {
            self.emit_firing(f, &mut ops);
        }

        let mut program = Program::new(ops, iterations);
        program.prologue = prologue;
        Ok(program)
    }

    /// Consumer-side priming: local-queue delay tokens and UBS credits.
    fn prime_consumer(&self, eid: EdgeId, prologue: &mut Vec<Op>) {
        let e = self.graph.edge(eid);
        let plan = self.plans.get(&eid);
        // A cross edge primes only the `delay mod produce` remainder —
        // whole production batches arrive as the producer's pipeline-fill
        // messages, whose override entries come first; a local edge
        // primes its whole delay from entry 0.
        let (prime_tokens, offset) = match plan {
            Some(p) => (p.prime_tokens, p.fill_msgs as usize),
            None => (e.delay, 0),
        };
        if prime_tokens > 0 {
            // The queue's initial image: for a dynamic edge one frame per
            // delay token (default empty), for a static one the tokens'
            // bytes (default zeros).
            let overrides = self.initial_payloads.get(&eid);
            let mut image = ByteQueue::default();
            if self.vts.edge_info(eid).is_some() {
                for i in offset..offset + prime_tokens as usize {
                    let payload = overrides.and_then(|v| v.get(i));
                    frame_push(&mut image, payload.map_or(&[], Vec::as_slice));
                }
            } else {
                match overrides.and_then(|v| v.get(offset)) {
                    Some(bytes) => image.push(bytes),
                    None => image.push(&vec![0; prime_tokens as usize * e.token_bytes as usize]),
                }
            }
            prologue.push(Op::Compute {
                label: format!("spi:prime:{eid}"),
                work: Box::new(move |l| {
                    slot(&mut l.queues, eid).push(image.pending());
                    1
                }),
            });
        }
        // UBS credits: the receiver grants the initial window.
        if let Some((plan, ack_ch)) = plan.and_then(|p| Some((p, p.ack_ch?))) {
            prologue.extend((0..plan.ack_window()).map(|_| ack_send(eid, ack_ch)));
        }
    }

    /// Producer-side pipeline-fill messages of a cross edge with delay.
    fn fill_producer(&self, eid: EdgeId, prologue: &mut Vec<Op>) -> Result<()> {
        let Some(plan) = self.plans.get(&eid) else {
            return Ok(());
        };
        let overrides = self.initial_payloads.get(&eid);
        for i in 0..plan.fill_msgs {
            // Fill payloads depend only on the fill index, so frame them
            // now and surface encoding problems as build errors instead
            // of panicking inside the send closure at run time.
            let payload = overrides
                .and_then(|v| v.get(i as usize))
                .cloned()
                .unwrap_or_else(|| match plan.phase {
                    SpiPhase::Static => vec![0u8; plan.payload_max],
                    SpiPhase::Dynamic => Vec::new(),
                });
            let framed = message::encode(plan.phase, eid, &payload)?;
            prologue.push(Op::Send {
                channel: plan.data_ch,
                payload: Box::new(move |_| framed.clone()),
            });
        }
        Ok(())
    }

    /// Emits the op sequence of one firing.
    fn emit_firing(&self, f: spi_dataflow::Firing, ops: &mut Vec<Op>) {
        let actor = f.actor;
        if let Some(timing) = &self.static_timing {
            let start = timing.start.get(&f).copied().unwrap_or(0);
            let period = timing.period;
            ops.push(Op::WaitUntil {
                target: Box::new(move |iter| start + iter * period),
            });
        }
        // Both lists come back in ascending edge order.
        let in_edges = self.graph.in_edges(actor);
        let out_edges = self.graph.out_edges(actor);

        // 1. Receive ops for cross in-edges (and, for step 3, one ack per
        //    received message where acks were kept).
        let mut receives: Vec<Receive> = Vec::new();
        let mut acks: Vec<Op> = Vec::new();
        for plan in in_edges.iter().filter_map(|eid| self.plans.get(eid)) {
            let count = plan.recv_counts[f.k as usize];
            let channel = plan.data_ch;
            ops.extend((0..count).map(|_| Op::Recv { channel }));
            if let Some(ack_ch) = plan.ack_ch {
                acks.extend((0..count).map(|_| ack_send(plan.edge, ack_ch)));
            }
            receives.push(Receive {
                edge: plan.edge,
                channel,
                count,
                phase: plan.phase,
                payload_max: plan.payload_max,
                cost: plan.cost,
            });
        }

        // 2. The firing's compute op: decode messages, gather inputs,
        //    run the actor, stage outputs.
        let port = |eid: EdgeId, rate: u32| {
            let packed = self.vts.edge_info(eid);
            Port {
                edge: eid,
                dynamic: packed.is_some(),
                bytes: match packed {
                    Some(info) => info.b_max as usize,
                    None => rate as usize * self.graph.edge(eid).token_bytes as usize,
                },
                cross: self.plans.get(&eid).map(|p| p.phase),
            }
        };
        let mut body = FiringBody {
            k: f.k,
            actor: self.impls[&actor].clone(),
            receives,
            consumes: in_edges
                .iter()
                .map(|&e| port(e, self.graph.edge(e).consume.bound()))
                .collect(),
            produces: out_edges
                .iter()
                .map(|&e| port(e, self.graph.edge(e).produce.bound()))
                .collect(),
            inputs: Vec::new(),
            outputs: out_edges.iter().map(|&e| (e, Vec::new())).collect(),
        };
        ops.push(Op::Compute {
            label: format!("fire:{}#{}", self.graph.actor(actor).name, f.k),
            work: Box::new(move |l| body.run(l)),
        });

        // 3. Ack sends for consumed messages (UBS with acks).
        ops.extend(acks);

        // 4. Data sends for cross out-edges (credit-gated when acks are
        //    kept).
        for plan in out_edges.iter().filter_map(|eid| self.plans.get(eid)) {
            let edge = plan.edge;
            if let Some(ack_ch) = plan.ack_ch {
                ops.push(Op::Recv { channel: ack_ch });
                ops.push(Op::Compute {
                    label: format!("spi:credit:{edge}"),
                    work: Box::new(move |l| {
                        drop(l.take_token_from(ack_ch));
                        1
                    }),
                });
            }
            ops.push(Op::Send {
                channel: plan.data_ch,
                payload: Box::new(move |l| std::mem::take(slot(&mut l.staged, edge))),
            });
        }
    }
}

/// One cross in-edge of a firing: what to receive and how to decode it.
struct Receive {
    edge: EdgeId,
    channel: ChannelId,
    count: u64,
    phase: SpiPhase,
    payload_max: usize,
    cost: MessageCost,
}

/// One edge of a firing as its queue sees it. `bytes` is what a static
/// edge moves per firing (exactly) or the most a dynamic one may
/// (eq. (1)); `cross` is the phase to frame an inter-processor output in.
struct Port {
    edge: EdgeId,
    dynamic: bool,
    bytes: usize,
    cross: Option<SpiPhase>,
}

/// Everything a firing's compute op needs at run time, and the lists
/// it lends the actor, kept from one firing to the next: the inputs as
/// ranges of their queues, and one output slot per `produces` port, in
/// port order.
struct FiringBody {
    k: u64,
    actor: SharedActor,
    receives: Vec<Receive>,
    consumes: Vec<Port>,
    produces: Vec<Port>,
    inputs: Vec<(EdgeId, Range<usize>)>,
    outputs: Vec<(EdgeId, Vec<u8>)>,
}

impl FiringBody {
    /// Returns the cycles the firing took. A failure is recorded in the
    /// PE's store (see [`recorded_failure`]) and turns every later
    /// firing of that PE into a no-op.
    fn run(&mut self, l: &mut PeLocal) -> u64 {
        if failed(l) {
            return 0;
        }
        self.try_run(l).unwrap_or_else(|(at, msg)| {
            fail(l, at, msg);
            0
        })
    }

    fn try_run(&mut self, l: &mut PeLocal) -> std::result::Result<u64, (FailedAt, String)> {
        use FailedAt::{Input, Output};
        let mut overhead = 0u64;
        // Decode incoming messages into edge queues.
        for r in &self.receives {
            for _ in 0..r.count {
                // Take the token by ownership (a pooled lease stays in
                // its slot) and decode borrowed: the payload view aliases
                // the slot until it is pushed into the edge queue.
                let msg = l
                    .take_token_from(r.channel)
                    .ok_or_else(|| (Input, format!("missing message on {}", r.edge)))?;
                let payload = message::decode_borrowed(r.phase, &msg, r.edge, r.payload_max)
                    .map_err(|e| (Input, e.to_string()))?;
                overhead += r.cost.decode_cycles(payload.len());
                match r.phase {
                    SpiPhase::Static => slot(&mut l.queues, r.edge).push(payload),
                    SpiPhase::Dynamic => frame_push(slot(&mut l.queues, r.edge), payload),
                }
            }
        }
        // Find this firing's inputs in the edge queues; the queues move
        // past them once the actor has read them.
        self.inputs.clear();
        for c in &self.consumes {
            let range = match l.queues.get(c.edge.0).map(ByteQueue::pending) {
                Some(pending) if c.dynamic => next_frame(pending),
                Some(pending) => (c.bytes <= pending.len()).then_some(0..c.bytes),
                None => None,
            };
            let range = range.ok_or_else(|| (Input, format!("input underflow on {}", c.edge)))?;
            self.inputs.push((c.edge, range));
        }
        // Fire, into slots emptied now (a replay after a panic in the
        // actor must not find the bytes the failed firing wrote), each
        // sized for its port's bound by its first firing.
        for ((_, slot), p) in self.outputs.iter_mut().zip(&self.produces) {
            slot.clear();
            slot.reserve(p.bytes);
        }
        let mut ctx = Firing {
            iter: l.iter,
            k: self.k,
            queues: &l.queues,
            inputs: &self.inputs,
            outputs: &mut self.outputs,
            discard: Vec::new(),
        };
        // A panic inside `fire` poisons the lock; a supervised restart
        // replays the firing on the same actor, which replay already
        // assumes is deterministic, so the poisoned guard is taken as is.
        let actor = self.actor.lock();
        let cycles = actor.unwrap_or_else(PoisonError::into_inner).fire(&mut ctx);
        for (edge, range) in &self.inputs {
            l.queues[edge.0].take(range.end);
        }
        // Stage outputs.
        for (p, (_, bytes)) in self.produces.iter().zip(&self.outputs) {
            let (edge, got) = (p.edge, bytes.len());
            if p.dynamic && got > p.bytes {
                let bound = p.bytes;
                let err = SpiError::VtsBoundExceeded { edge, got, bound };
                return Err((Output, err.to_string()));
            }
            if !p.dynamic && got != p.bytes {
                let expected = p.bytes;
                let err = SpiError::StaticSizeMismatch {
                    edge,
                    got,
                    expected,
                };
                return Err((Output, err.to_string()));
            }
            match p.cross {
                // Frame now (SPI_send header cost) and stash for the
                // Send op that follows.
                Some(phase) => {
                    *slot(&mut l.staged, p.edge) = message::encode(phase, p.edge, bytes)
                        .map_err(|e| (Output, e.to_string()))?;
                    overhead += 1;
                }
                None if p.dynamic => frame_push(slot(&mut l.queues, p.edge), bytes),
                None => slot(&mut l.queues, p.edge).push(bytes),
            }
        }
        Ok(cycles + overhead)
    }
}
