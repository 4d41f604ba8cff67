//! The generated-system oracle: random consistent graphs through the
//! whole SPI flow, every backend held to one sequential reference.
//!
//! The paper's eq. (1)/(2) bounds and its §4 resynchronization hold for
//! every consistent graph, so any generated one is a test vector.
//! [`generate`] draws from one seed a graph (static and dynamic edges,
//! multirate, delays, delayed feedback, self-loops, delay-token payloads
//! through `initial_tokens`), a processor count and placement, and the
//! builder options. Every actor is [`fire`], a pure digest of its
//! inputs. [`check`] runs the built system on every [`Backend`] and
//! asserts: the analyzer reports no error; every actor saw what
//! [`reference`] — a sequential interpreter calling the same [`fire`]
//! over plain FIFOs in `class_s_schedule` order, so a lowering defect
//! every engine shares cannot hide — fed it; the trace replays clean
//! under `spi_trace::check` against `trace_meta` (eq. (1)/(2) bounds
//! and, on the DES, the predicted makespan); and every channel carried
//! the messages its `EdgePlan` says.
//!
//! About half the multi-processor systems also draw [`Faults`]: their
//! threaded runs are supervised, with a seeded `FaultPlan` injected into
//! every channel and now and then one firing that panics once. The DES
//! stays the fault-free run, and the contract is supervision's: the run
//! converges to the same stores and digests, replays clean against the
//! policy's budgets, and fired every planned fault it reached — or, for
//! the rare plan that is one budget-busting stall, it ends in a typed
//! supervision error naming a channel of the system.
#![allow(dead_code)] // each test target uses its own part

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spi_analyze::{AnalysisInput, Analyzer};
use spi_net::{BatchParams, NetReceiver, NetSender};
use spi_repro::dataflow::VtsConversion;
use spi_repro::dataflow::{Actor, ActorId, Edge, EdgeId, LengthSignal, SdfGraph};
use spi_repro::fault::{FaultKind, FaultPlan, FaultSpec, InjectionLog};
use spi_repro::platform::rng::SplitMix64;
use spi_repro::platform::TransportKind::{Locked, Pointer, Ring};
use spi_repro::platform::{framed_spec, BusSpec, ChannelId, ChannelSpec, Op, PlatformError};
use spi_repro::platform::{Program, SupervisionPolicy, ThreadedRunner, Transport, TransportError};
use spi_repro::sched::{Partition, ProcId};
use spi_repro::sim::{sim_stream_pair, SimStream};
use spi_repro::spi::SpiSystemBuilder;
use spi_repro::spi::{root_failure, Firing, SchedulingMode, SpiPhase, SpiSystem};
use spi_repro::trace::{ClockKind, ProbeKind, RingTracer};

/// Systems the tier-1 test checks; `CHAOS_CASES` overrides.
pub const SYSTEMS: u64 = 200;
const MAX_ACTORS: usize = 6;
const MAX_ITERATIONS: u64 = 8;
/// Firings per iteration a generated graph stays within.
const MAX_FIRINGS: u64 = 20;
/// Per-attempt deadline of a supervised run.
const DEADLINE: Duration = Duration::from_millis(100);
/// Retries a supervised channel operation gets beyond its first attempt.
const RETRIES: u32 = 2;
/// A stall one deadline longer than the whole retry budget of
/// `deadline × (retries + 1)`: whoever waits on it gives up first.
const BUSTING_STALL_MS: u64 = DEADLINE.as_millis() as u64 * (RETRIES as u64 + 2);

/// The supervised runs' policy: retry, then stop.
fn policy() -> SupervisionPolicy {
    SupervisionPolicy::retry(RETRIES).with_deadline(DEADLINE)
}

/// Interconnect of a generated system.
#[derive(Debug, Clone, Copy, Default)]
pub enum Bus {
    #[default]
    PointToPoint,
    Shared,
    Ordered,
}

/// Per edge, its delay tokens in FIFO order (a frame each on a dynamic
/// edge); edges without an entry keep the builder's zeros / empty frames.
pub type DelayTokens = BTreeMap<EdgeId, Vec<Vec<u8>>>;

/// One system: graph, delay-token payloads, placement, builder options.
#[derive(Debug, Clone, Default)]
pub struct Generated {
    pub graph: SdfGraph,
    pub initial: DelayTokens,
    pub procs: usize,
    /// Processor of each actor.
    pub assign: Vec<usize>,
    /// Node count of a partitioned build.
    pub nodes: Option<usize>,
    pub iterations: u64,
    pub force_ubs: bool,
    pub resync: bool,
    pub delimiter: bool,
    /// Fully-static scheduling's slack; `None` is self-timed.
    pub slack: Option<u32>,
    pub bus: Bus,
    /// What the threaded runs are put through; `None` runs them plain.
    pub faults: Option<Faults>,
}

/// The fault dimension of a system: its threaded runs are supervised
/// under [`policy`] with `plan` injected into its channels, and the
/// first firing of `panic_once`'s actor in its iteration panics once,
/// which the checkpoint restart replays.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    pub plan: FaultPlan,
    pub panic_once: Option<(ActorId, u64)>,
}

impl Faults {
    /// Whether the plan is the budget-busting stall: the error path.
    fn busts_budget(&self) -> bool {
        let busting = FaultKind::Stall {
            millis: BUSTING_STALL_MS,
        };
        self.plan.faults().iter().any(|f| f.kind == busting)
    }
}

/// Each actor's input digests, keyed by `(iteration, firing)` so that a
/// replayed iteration overwrites its entries.
type ActorLogs = Arc<Mutex<Vec<BTreeMap<(u64, u64), u64>>>>;

impl Generated {
    /// The system, its actors logging every firing's input digest.
    fn build(&self, tracer: Arc<RingTracer>) -> (SpiSystem, ActorLogs) {
        let mut b = SpiSystemBuilder::new(self.graph.clone());
        b.iterations(self.iterations).tracer(tracer);
        b.force_ubs(self.force_ubs).resynchronization(self.resync);
        if self.delimiter {
            b.length_signal(LengthSignal::Delimiter);
        }
        if let Some(slack_percent) = self.slack {
            b.scheduling_mode(SchedulingMode::FullyStatic { slack_percent });
        }
        match self.bus {
            Bus::PointToPoint => &mut b,
            Bus::Shared => b.shared_bus(BusSpec {
                arbitration_cycles: 4,
            }),
            Bus::Ordered => b.ordered_transactions(),
        };
        if let Some(nodes) = self.nodes {
            b.partition(Partition::blocks(self.procs, nodes).expect("nodes ≤ processors"));
        }
        for (&edge, tokens) in &self.initial {
            b.initial_tokens(edge, self.entries(edge, tokens));
        }
        let logs = Arc::new(Mutex::new(vec![BTreeMap::new(); self.graph.actor_count()]));
        for shape in shapes(&self.graph) {
            let logs = logs.clone();
            b.actor(shape.actor, move |ctx: &mut Firing| {
                let inputs: Vec<&[u8]> = shape.ins.iter().map(|&(e, _)| ctx.input(e)).collect();
                let (digest, cycles, outputs) = fire(&shape, ctx.iter, ctx.k, &inputs);
                logs.lock().expect("logs")[shape.actor.0].insert((ctx.iter, ctx.k), digest);
                outputs
                    .into_iter()
                    .for_each(|(e, bytes)| ctx.output(e).extend(bytes));
                cycles
            });
        }
        let assign = self.assign.clone();
        let sys = b.build(self.procs, move |a| ProcId(assign[a.0]));
        (sys.unwrap_or_else(|e| panic!("build: {e}")), logs)
    }

    /// `tokens` as `initial_tokens` entries: a frame each on a dynamic
    /// edge; on a static one the whole delay if the edge is local, else
    /// the pipeline fills, a production batch each, followed by the
    /// `delay mod produce` tokens that sit ahead of them.
    fn entries(&self, edge: EdgeId, tokens: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let e = self.graph.edge(edge);
        if e.is_dynamic() {
            return tokens.to_vec();
        }
        if self.assign[e.src.0] == self.assign[e.dst.0] {
            return vec![tokens.concat()];
        }
        let p = e.produce.bound() as usize;
        let prime = tokens.len() % p;
        let mut entries: Vec<Vec<u8>> = tokens[prime..].chunks(p).map(<[_]>::concat).collect();
        entries.extend((prime > 0).then(|| tokens[..prime].concat()));
        entries
    }
}

/// Draws system `seed` with at most `max_actors` actors and
/// `max_iterations` iterations (what a shrink lowers).
fn generate(seed: u64, max_actors: usize, max_iterations: u64) -> Generated {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(2..=MAX_ACTORS).min(max_actors);
    let iterations = rng.gen_range(1..=MAX_ITERATIONS).min(max_iterations);
    let (graph, initial) = loop {
        if let Some(drawn) = draw_graph(&mut rng, n) {
            break drawn;
        }
    };
    let procs = rng.gen_range(1..=n.min(4));
    // Every processor gets an actor; the rest land anywhere.
    let mut assign: Vec<usize> = (0..n).map(|a| a.min(procs - 1)).collect();
    for slot in &mut assign[procs..] {
        *slot = rng.gen_range(0..procs);
    }
    for i in (1..n).rev() {
        assign.swap(i, rng.gen_range(0..=i));
    }
    let mut g = Generated {
        nodes: (procs > 1 && rng.gen_bool(0.3)).then(|| rng.gen_range(2..=procs)),
        force_ubs: rng.gen_bool(0.25),
        resync: rng.gen_bool(0.75),
        delimiter: rng.gen_bool(0.5),
        slack: rng.gen_bool(0.25).then(|| rng.gen_range(0..=50)),
        bus: [Bus::PointToPoint, Bus::Shared, Bus::Ordered][rng.gen_range(0..3usize)],
        graph,
        initial,
        procs,
        assign,
        iterations,
        faults: None,
    };
    // Drawn last, so the draws above do not depend on it.
    if procs > 1 && rng.gen_bool(0.5) {
        g.faults = Some(draw_faults(&mut rng, &g));
    }
    g
}

/// Draws the faults of multi-processor system `g`. One plan in about
/// seventy is the budget-busting stall alone, on the first message of a
/// data channel, which its consumer always waits for. The others are
/// `FaultPlan::random` over every channel and as many messages as the
/// busiest carries. One system in ten also panics once in a firing.
fn draw_faults(rng: &mut SplitMix64, g: &Generated) -> Faults {
    let (sys, _) = g.build(Arc::new(RingTracer::new(g.procs, 1)));
    let planned = planned_messages(&sys, g.iterations);
    let mut data: Vec<ChannelId> = sys.edge_plans().values().map(|p| p.data_ch).collect();
    data.sort_unstable();
    let channels = sys.into_parts().0.len();
    let plan = if rng.gen_bool(0.015) {
        let stall = FaultKind::Stall {
            millis: BUSTING_STALL_MS,
        };
        FaultPlan::new().inject(data[rng.gen_range(0..data.len())], 0, stall)
    } else {
        let busiest = planned.values().copied().max().unwrap_or(0);
        FaultPlan::random(rng.next_u64(), channels, busiest, rng.gen_range(0..=6))
    };
    let panic_once = rng.gen_bool(0.1).then(|| {
        let actor = ActorId(rng.gen_range(0..g.graph.actor_count()));
        (actor, rng.gen_range(0..g.iterations))
    });
    Faults { plan, panic_once }
}

/// Per channel, what the plan sends: the fills and one message per
/// producer firing on a data channel; the credit grants and one per
/// consumed message on an ack channel.
fn planned_messages(sys: &SpiSystem, iterations: u64) -> BTreeMap<usize, u64> {
    let mut planned = BTreeMap::new();
    for p in sys.edge_plans().values() {
        let looped = p.msgs_per_iter * iterations;
        planned.insert(p.data_ch.0, p.fill_msgs + looped);
        planned.extend(p.ack_ch.map(|ack| (ack.0, p.ack_window() + looped)));
    }
    planned
}

/// A consistent, live graph of `n` actors, or `None` if it would fire
/// more than [`MAX_FIRINGS`] times an iteration. A spanning tree of
/// forward edges fixes the repetition vector; extra forward edges,
/// feedback edges and self-loops take rates that keep it, and each
/// feedback edge or self-loop carries a whole iteration of delay.
fn draw_graph(rng: &mut SplitMix64, n: usize) -> Option<(SdfGraph, DelayTokens)> {
    let mut g = SdfGraph::new();
    let actors: Vec<ActorId> = (0..n)
        .map(|i| g.add_actor(format!("v{i}"), rng.gen_range(1..60)))
        .collect();
    let delay = |rng: &mut SplitMix64, at_least: u64| at_least + rng.gen_range(0..3u64) * 2;
    for i in 1..n {
        let (src, dst) = (actors[rng.gen_range(0..i)], actors[i]);
        let d = if rng.gen_bool(0.5) { 0 } else { delay(rng, 1) };
        let (p, c) = (rng.gen_range(1..=16), rng.gen_range(1..=16));
        match rng.gen_bool(0.35) {
            true => g.add_dynamic_edge(src, dst, p, c, d, rng.gen_range(1..=4)),
            false => g.add_edge(src, dst, 1 + p % 4, 1 + c % 4, d, rng.gen_range(1..=8)),
        }
        .ok()?;
    }
    let vts = VtsConversion::convert(&g).ok()?;
    let q = vts.graph().repetition_vector().ok()?;
    if actors.iter().map(|&a| q[a]).sum::<u64>() > MAX_FIRINGS {
        return None;
    }
    for _ in 0..rng.gen_range(0..=2u8) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let (src, dst) = (actors[u.min(v)], actors[u.max(v)]);
        let gcd = spi_repro::dataflow::gcd(q[src], q[dst]);
        let (p, c) = ((q[dst] / gcd) as u32, (q[src] / gcd) as u32);
        let tb = rng.gen_range(1..=8);
        match rng.gen_range(0..3u8) {
            0 if src != dst => g.add_edge(src, dst, p, c, 0, tb),
            // Feedback, dynamic where the rates allow it.
            1 if src != dst && p == 1 && c == 1 => {
                g.add_dynamic_edge(dst, src, tb, 1, delay(rng, q[src]), 2)
            }
            1 if src != dst => g.add_edge(dst, src, c, p, delay(rng, q[src] * u64::from(p)), tb),
            _ => g.add_edge(src, src, tb, tb, delay(rng, u64::from(tb)), 4),
        }
        .ok()?;
    }
    let mut initial = BTreeMap::new();
    for (id, e) in g.edges().filter(|(_, e)| e.delay > 0) {
        if rng.gen_bool(0.5) {
            let most = (e.produce.bound().max(e.consume.bound()) * e.token_bytes) as usize;
            let mut token = || match e.is_dynamic() {
                true => noise(rng.next_u64(), rng.gen_range(0..=most)),
                false => noise(rng.next_u64(), e.token_bytes as usize),
            };
            initial.insert(id, (0..e.delay).map(|_| token()).collect());
        }
    }
    Some((g, initial))
}

/// What an actor reads and writes: per in-edge the tokens it takes off
/// the converted graph's FIFO, per out-edge the bytes it produces —
/// exactly, or at most on a dynamic edge.
struct Shape {
    actor: ActorId,
    exec_cycles: u64,
    ins: Vec<(EdgeId, usize)>,
    outs: Vec<(EdgeId, usize, bool)>,
}

fn shapes(g: &SdfGraph) -> Vec<Shape> {
    let vts = VtsConversion::convert(g).expect("convertible");
    let packed = |e| vts.bytes_per_packed_token(e).expect("edge") as usize;
    let out = |e: EdgeId| match g.edge(e) {
        edge if edge.is_dynamic() => (e, packed(e), true),
        edge => (e, (edge.produce.bound() * edge.token_bytes) as usize, false),
    };
    let consumed = |e: EdgeId| (e, vts.graph().edge(e).consume.bound() as usize);
    let shape = |(actor, a): (ActorId, &Actor)| Shape {
        actor,
        exec_cycles: a.exec_cycles,
        ins: g.in_edges(actor).into_iter().map(consumed).collect(),
        outs: g.out_edges(actor).into_iter().map(out).collect(),
    };
    g.actors().map(shape).collect()
}

/// The one actor body the built systems and [`reference`] both run:
/// returns the FNV-1a digest of the firing and its inputs, a cost within
/// the actor's estimate (so the predicted makespan stays a bound), and
/// outputs drawn from the digest.
fn fire(shape: &Shape, iter: u64, k: u64, inputs: &[&[u8]]) -> (u64, u64, Vec<(EdgeId, Vec<u8>)>) {
    let fnv = |h: u64, bytes: &[u8]| {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    };
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for word in [shape.actor.0 as u64, iter, k] {
        digest = fnv(digest, &word.to_le_bytes());
    }
    for input in inputs {
        digest = fnv(fnv(digest, &input.len().to_le_bytes()), input);
    }
    let outputs = shape.outs.iter().map(|&(e, most, dynamic)| {
        let seed = digest ^ (e.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let len = if dynamic {
            seed as usize % (most + 1)
        } else {
            most
        };
        (e, noise(seed, len))
    });
    let cycles = shape.exec_cycles - digest % (shape.exec_cycles / 2 + 1);
    (digest, cycles, outputs.collect())
}

fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Every actor's input digests, firing by firing: the actors fired in
/// `class_s_schedule` order over plain FIFOs of tokens.
fn reference(g: &Generated) -> Vec<Vec<u64>> {
    let vts = VtsConversion::convert(&g.graph).expect("convertible");
    let order = vts.graph().class_s_schedule();
    let (order, shapes) = (order.expect("live").schedule, shapes(&g.graph));
    let delay_tokens = |(id, e): (EdgeId, &Edge)| {
        let token = vec![0; e.token_bytes as usize * usize::from(!e.is_dynamic())];
        let zeros = || vec![token; e.delay as usize];
        g.initial.get(&id).cloned().unwrap_or_else(zeros).into()
    };
    let mut fifos: Vec<VecDeque<Vec<u8>>> = g.graph.edges().map(delay_tokens).collect();
    let mut logs = vec![Vec::new(); shapes.len()];
    for iter in 0..g.iterations {
        let mut k = vec![0; shapes.len()];
        for &actor in order.firings() {
            let shape = &shapes[actor.0];
            let take = |&(e, n): &(EdgeId, usize)| fifos[e.0].drain(..n).flatten().collect();
            let inputs: Vec<Vec<u8>> = shape.ins.iter().map(take).collect();
            let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let (digest, _, outputs) = fire(shape, iter, k[actor.0], &inputs);
            logs[actor.0].push(digest);
            k[actor.0] += 1;
            for (e, bytes) in outputs {
                let edge = g.graph.edge(e);
                if edge.is_dynamic() {
                    fifos[e.0].push_back(bytes);
                } else {
                    let tokens = bytes.chunks(edge.token_bytes as usize);
                    fifos[e.0].extend(tokens.map(<[u8]>::to_vec));
                }
            }
        }
    }
    logs
}

/// Where a built system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Des,
    Threads(spi_repro::platform::TransportKind),
    /// Threads over `spi-net` socket endpoints on `SimStream`s.
    Net,
}

pub const BACKENDS: [Backend; 5] = [
    Backend::Des,
    Backend::Threads(Locked),
    Backend::Threads(Ring),
    Backend::Threads(Pointer),
    Backend::Net,
];

/// A PE's final keyed store.
pub type Store = HashMap<String, Vec<u8>>;

impl Backend {
    /// Runs `sys` to completion and returns every PE's final store, or
    /// a threaded run's error, and the log of the faults that fired.
    /// `probe` is the tracer `sys` was built with, which the threaded
    /// backends attach to their runner; under `faults` they run
    /// supervised under [`policy`] with the plan injected.
    pub fn run(
        self,
        sys: SpiSystem,
        probe: Option<Arc<RingTracer>>,
        faults: Option<&Faults>,
    ) -> (Result<Vec<Store>, PlatformError>, InjectionLog) {
        let plan = faults.map_or_else(FaultPlan::new, |f| f.plan.clone());
        let (decorate, log) = plan.into_decorator().expect("valid plan");
        if self == Backend::Des {
            let report = sys.run().unwrap_or_else(|e| panic!("DES: {e}"));
            let stores = report.sim.locals.into_iter().map(|l| l.store);
            return (Ok(stores.collect()), log);
        }
        let runner = ThreadedRunner::new().timeout(Duration::from_secs(20));
        let mut runner = runner.decorate_transports(decorate.clone());
        if let Some(probe) = probe {
            runner = runner.tracer(probe);
        }
        // Cross-partition edges batch as `spi_net::deploy` lowers them.
        let plans = sys.edge_plans().values();
        let batches = plans.filter_map(|p| Some((p.data_ch.0, p.batch?)));
        let mut batch: HashMap<usize, BatchParams> = batches.collect();
        let (specs, mut programs) = sys.into_parts();
        if let Some(faults) = faults {
            runner = runner.supervise(policy());
            if let Some((actor, iter)) = faults.panic_once {
                panic_once(&mut programs, actor, iter);
            }
        }
        let results = match self {
            Backend::Threads(kind) => runner.transport(kind).run(&specs, programs),
            // `Backend::Net`. The runner leaves pre-built endpoints to
            // their builder, so they are sized for frames and decorated
            // here, as `spi-noded --chaos` does.
            _ => {
                let ends = specs.iter().enumerate().map(|(ch, spec)| {
                    let batch = batch.remove(&ch).unwrap_or(BatchParams::disabled());
                    let spec = faults.map_or(*spec, |_| framed_spec(spec));
                    decorate(ChannelId(ch), NetEdge::boxed(&spec, batch, ch as u64))
                });
                runner.run_with_endpoints(&specs, ends.collect(), programs)
            }
        };
        let stores = results.map(|results| {
            if let Some(e) = root_failure(results.iter().map(|r| &r.store)) {
                panic!("{self:?}: {e}");
            }
            results.into_iter().map(|r| r.store).collect()
        });
        (stores, log)
    }
}

/// Wraps `actor`'s first firing in the loop so that in iteration `iter`
/// it panics once before it fires.
fn panic_once(programs: &mut [Program], actor: ActorId, iter: u64) {
    let label = format!("fire:v{}#0", actor.0);
    let fire = programs
        .iter_mut()
        .flat_map(|p| &mut p.ops)
        .find_map(|op| match op {
            Op::Compute { label: l, work } if *l == label => Some(work),
            _ => None,
        });
    let work = fire.unwrap_or_else(|| panic!("no {label} in a loop"));
    let mut inner = std::mem::replace(work, Box::new(|_| 0));
    let mut armed = true;
    *work = Box::new(move |l| {
        if l.iter == iter && std::mem::take(&mut armed) {
            panic!("injected panic in iteration {iter}");
        }
        inner(l)
    });
}

/// A freshly built system, the tracer it was built with, and what its
/// actors observed, read once it has run.
pub type Built<O> = (SpiSystem, Option<Arc<RingTracer>>, Box<dyn FnOnce() -> O>);

/// Runs one freshly built system per backend, the DES first, and holds
/// every other backend's final PE stores and observation to the DES's,
/// which it returns.
pub fn on_every_backend<O: PartialEq + Debug>(mut build: impl FnMut(Backend) -> Built<O>) -> O {
    let mut des: Option<(Vec<Store>, O)> = None;
    for backend in BACKENDS {
        let (sys, probe, observe) = build(backend);
        let (stores, _) = backend.run(sys, probe, None);
        let stores = stores.unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        let run = (stores, observe());
        match &des {
            None => des = Some(run),
            Some(des) => assert_eq!(des, &run, "{backend:?}: PE stores or observations"),
        }
    }
    des.expect("the DES ran").1
}

/// The kinds of system [`check`] saw — one each per system, or per
/// threaded run where a field says so, summed over a seed set — for the
/// coverage floors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Covered {
    pub multi_processor: u64,
    pub cross_dynamic: u64,
    pub delayed_or_feedback: u64,
    pub acknowledged: u64,
    /// A static-phase UBS edge, whose credit-window occupancy SPI080
    /// holds against `bound_msgs`.
    pub static_ubs: u64,
    pub ordered_bus_acked_fills: u64,
    pub partitioned: u64,
    pub supervised: u64,
    /// Injections that fired over the threaded runs, per kind in
    /// [`FIRED`] order.
    pub fired: [u64; 5],
    /// Duplicates and corruptions that fired on ack channels, whose
    /// last credits are never read: the extra frame must take no slot.
    pub ack_extras: u64,
    /// Checkpoint restarts over the threaded runs.
    pub restarts: u64,
    /// Threaded runs that ended in the budget-busting stall's error.
    pub error_path: u64,
}

/// [`Covered::fired`]'s kinds, each with its floor.
const FIRED: [(&str, u64); 5] = [
    ("fired delays", 65),
    ("fired stalls", 55),
    ("fired drops", 60),
    ("fired duplicates", 38),
    ("fired corruptions", 50),
];

fn fired_index(kind: FaultKind) -> usize {
    match kind {
        FaultKind::Delay { .. } => 0,
        FaultKind::Stall { .. } => 1,
        FaultKind::Drop => 2,
        FaultKind::Duplicate => 3,
        FaultKind::Corrupt => 4,
    }
}

impl Covered {
    /// Each count, named, with the floor the [`SYSTEMS`] set must reach.
    pub fn floors(self) -> Vec<(&'static str, u64, u64)> {
        let mut floors = vec![
            ("multi-processor systems", self.multi_processor, 100),
            ("cross-processor dynamic edges", self.cross_dynamic, 50),
            ("delayed or feedback edges", self.delayed_or_feedback, 150),
            ("acknowledged edges", self.acknowledged, 70),
            ("static-phase UBS edges", self.static_ubs, 60),
            (
                "ordered-bus plans with acknowledged fills",
                self.ordered_bus_acked_fills,
                5,
            ),
            ("partitioned builds", self.partitioned, 25),
            ("supervised systems", self.supervised, 44),
            ("checkpoint restarts", self.restarts, 24),
            ("error-path runs", self.error_path, 2),
        ];
        let fired = FIRED.iter().zip(self.fired);
        floors.extend(fired.map(|(&(what, floor), count)| (what, count, floor)));
        floors.push((
            "ack-channel duplicates and corruptions",
            self.ack_extras,
            36,
        ));
        floors
    }

    pub fn add(&mut self, other: Covered) {
        self.multi_processor += other.multi_processor;
        self.cross_dynamic += other.cross_dynamic;
        self.delayed_or_feedback += other.delayed_or_feedback;
        self.acknowledged += other.acknowledged;
        self.static_ubs += other.static_ubs;
        self.ordered_bus_acked_fills += other.ordered_bus_acked_fills;
        self.partitioned += other.partitioned;
        self.supervised += other.supervised;
        for (sum, fired) in self.fired.iter_mut().zip(other.fired) {
            *sum += fired;
        }
        self.ack_extras += other.ack_extras;
        self.restarts += other.restarts;
        self.error_path += other.error_path;
    }

    /// What `g`'s structure, as built into `sys`, exercises.
    fn structure(g: &Generated, sys: &SpiSystem) -> Covered {
        let plans = || sys.edge_plans().values();
        let acked_fills = || plans().any(|p| p.ack_kept && p.fill_msgs >= 2);
        Covered {
            multi_processor: u64::from(g.procs > 1),
            cross_dynamic: u64::from(plans().any(|p| p.phase == SpiPhase::Dynamic)),
            delayed_or_feedback: u64::from(g.graph.edges().any(|(_, e)| e.delay > 0)),
            acknowledged: u64::from(plans().any(|p| p.ack_kept)),
            static_ubs: u64::from(plans().any(|p| p.ack_window() > 0 && p.bound_msgs.is_some())),
            ordered_bus_acked_fills: u64::from(matches!(g.bus, Bus::Ordered) && acked_fills()),
            partitioned: u64::from(g.nodes.is_some()),
            supervised: u64::from(g.faults.is_some()),
            ..Covered::default()
        }
    }
}

/// Builds `g` once per backend, holds every run to [`reference`] and
/// every threaded run to the DES's stores (or, on the error path, to a
/// typed error); returns what of [`Covered`] the system exercises.
pub fn check(g: &Generated) -> Covered {
    let lint = Analyzer::default_pipeline().run(&AnalysisInput::new(&g.graph));
    assert!(!lint.has_errors(), "analyzer: {}", lint.render_human());
    let want = reference(g);
    let mut covered = Covered::default();
    let mut des: Option<(Vec<Store>, Vec<Vec<u64>>)> = None;
    for backend in BACKENDS {
        let faults = g.faults.as_ref().filter(|_| backend != Backend::Des);
        let ring = Arc::new(RingTracer::new(g.procs, 1 << 13));
        let (sys, logs) = g.build(ring.clone());
        if backend == Backend::Des {
            covered = Covered::structure(g, &sys);
        }
        let planned = planned_messages(&sys, g.iterations);
        let acks: Vec<ChannelId> = sys.edge_plans().values().filter_map(|p| p.ack_ch).collect();
        let meta = match (backend, faults) {
            (Backend::Des, _) => sys.trace_meta(ClockKind::Cycles),
            (_, None) => sys.trace_meta(ClockKind::Nanos),
            (_, Some(_)) => sys.trace_meta_supervised(ClockKind::Nanos, &policy()),
        };
        let (stores, fired) = backend.run(sys, Some(ring.clone()), faults);
        if faults.is_some_and(Faults::busts_budget) {
            let err = stores.err();
            let err = err.unwrap_or_else(|| panic!("{backend:?}: the stall was absorbed"));
            let channel = match &err {
                PlatformError::RetryBudgetExhausted { channel, .. }
                | PlatformError::TokensLost { channel, .. }
                | PlatformError::ChannelFault { channel, .. } => *channel,
                other => panic!("{backend:?}: not a supervision error: {other}"),
            };
            assert!(planned.contains_key(&channel.0), "{backend:?}: {err}");
            assert!(err.to_string().contains(&channel.to_string()), "{err}");
            covered.error_path += 1;
            continue;
        }
        let stores = stores.unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        let trace = ring.finish(meta);
        assert_eq!(trace.meta.dropped, 0, "{backend:?}: capture dropped events");
        let report = spi_repro::trace::check(&trace);
        // A frame the receiver's CRC rejected is the SPI094 warning.
        let clean = (report.diagnostics.iter()).all(|d| faults.is_some() && d.code == "SPI094");
        assert!(clean, "{backend:?}: {}", report.render_human());
        let (mut sent, mut restarts) = (BTreeMap::new(), 0);
        for ev in &trace.events {
            match ev.kind {
                ProbeKind::Send { channel, .. } => *sent.entry(channel.0).or_insert(0) += 1,
                ProbeKind::FaultRestart { .. } => restarts += 1,
                _ => {}
            }
        }
        assert_eq!(sent, planned, "{backend:?}: messages per channel");
        let panicked = faults.is_some_and(|f| f.panic_once.is_some());
        assert_eq!(restarts, u64::from(panicked), "{backend:?}: restarts");
        covered.restarts += restarts;
        let fired = fired.lock().expect("injection log");
        let reached =
            |f: &&FaultSpec| f.message_index < planned.get(&f.channel.0).copied().unwrap_or(0);
        let logged = |f: &FaultSpec| {
            let spec = (f.channel, f.message_index, f.kind);
            fired
                .iter()
                .any(|r| (r.channel, r.message_index, r.kind) == spec)
        };
        let planned_faults = faults.into_iter().flat_map(|f| f.plan.faults());
        if let Some(f) = planned_faults.filter(reached).find(|f| !logged(f)) {
            panic!("{backend:?}: {f:?} did not fire");
        }
        for r in fired.iter() {
            covered.fired[fired_index(r.kind)] += 1;
            let extra = matches!(r.kind, FaultKind::Duplicate | FaultKind::Corrupt);
            covered.ack_extras += u64::from(extra && acks.contains(&r.channel));
        }
        let logs = std::mem::take(&mut *logs.lock().expect("logs"));
        let seen = logs.into_iter().map(|log| log.into_values().collect());
        let seen = seen.collect();
        match &des {
            None => des = Some((stores, seen)),
            Some(des) => assert_eq!(des, &(stores, seen), "{backend:?}: PE stores or digests"),
        }
    }
    let (_, seen) = des.expect("the DES ran");
    for (a, (seen, want)) in seen.iter().zip(&want).enumerate() {
        assert_eq!(
            seen, want,
            "a{a}'s input digests differ from the reference's"
        );
    }
    covered
}

/// Checks system `seed`. On a failure, shrinks it — fewer iterations
/// first, then fewer actors — prints the smallest failing draw and the
/// replay command, and fails with the first panic.
pub fn check_seed(seed: u64) -> Covered {
    let attempt = |actors, iterations| {
        catch_unwind(AssertUnwindSafe(|| {
            check(&generate(seed, actors, iterations))
        }))
    };
    let cause = match attempt(MAX_ACTORS, MAX_ITERATIONS) {
        Ok(covered) => return covered,
        Err(cause) => cause,
    };
    let drawn = generate(seed, MAX_ACTORS, MAX_ITERATIONS);
    let (mut actors, mut iterations) = (drawn.graph.actor_count(), drawn.iterations);
    while iterations > 1 && attempt(actors, iterations - 1).is_err() {
        iterations -= 1;
    }
    while actors > 2 && attempt(actors - 1, iterations).is_err() {
        actors -= 1;
    }
    let shrunk = generate(seed, actors, iterations);
    eprintln!(
        "generated system {seed} failed; shrunk:\n{shrunk:#?}\nreplay: SPI_CHAOS_SEED={seed} \
         cargo test --test engine_equivalence generated_systems -- --nocapture"
    );
    resume_unwind(cause)
}

/// Both ends of one `spi-net` channel over a [`SimStream`] pair that
/// splits and refuses reads and writes as drawn from a seed: sends go to
/// the sender, receives to the receiver, and occupancy is the sender's
/// credit view (what eq. (2) bounds).
struct NetEdge {
    tx: NetSender<SimStream>,
    rx: NetReceiver<SimStream>,
}

impl NetEdge {
    fn boxed(spec: &ChannelSpec, batch: BatchParams, seed: u64) -> Box<dyn Transport> {
        let (a, b) = sim_stream_pair(seed);
        Box::new(NetEdge {
            tx: NetSender::from_stream_with(a, spec, batch).expect("sender"),
            rx: NetReceiver::from_stream_with(b, spec, batch),
        })
    }
}

impl Transport for NetEdge {
    fn capacity_bytes(&self) -> usize {
        self.tx.capacity_bytes()
    }
    fn max_message_bytes(&self) -> usize {
        self.tx.max_message_bytes()
    }
    fn len_bytes(&self) -> usize {
        self.tx.len_bytes()
    }
    fn occupancy(&self) -> usize {
        self.tx.occupancy()
    }
    fn snapshot(&self) -> (usize, usize) {
        self.tx.snapshot()
    }
    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        self.tx.try_send(data)
    }
    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.rx.try_recv()
    }
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.tx.send_with(len, fill, timeout)
    }
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        self.rx.recv_with(consume, timeout)
    }
}
