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
#![allow(dead_code)] // each test target uses its own part

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use spi_net::{BatchParams, NetReceiver, NetSender};
use spi_repro::dataflow::VtsConversion;
use spi_repro::dataflow::{Actor, ActorId, Edge, EdgeId, FirePolicy, LengthSignal, SdfGraph};
use spi_repro::platform::TransportKind::{Locked, Pointer, Ring};
use spi_repro::platform::{BusSpec, ChannelSpec, ThreadedRunner, Transport, TransportError};
use spi_repro::sched::{Partition, ProcId};
use spi_repro::sim::{sim_stream_pair, SimStream};
use spi_repro::spi::SpiSystemBuilder;
use spi_repro::spi::{recorded_failure, Firing, SchedulingMode, SpiPhase, SpiSystem};
use spi_repro::trace::{ClockKind, ProbeKind, RingTracer};

/// Systems the tier-1 test checks; `CHAOS_CASES` overrides.
pub const SYSTEMS: u64 = 200;
const MAX_ACTORS: usize = 6;
const MAX_ITERATIONS: u64 = 8;
/// Firings per iteration a generated graph stays within.
const MAX_FIRINGS: u64 = 20;

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
}

impl Generated {
    /// The system, its actors logging every firing's input digest.
    fn build(&self, tracer: Arc<RingTracer>) -> (SpiSystem, Arc<Mutex<Vec<Vec<u64>>>>) {
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
            Bus::Ordered => b.ordered_transactions(1),
        };
        if let Some(nodes) = self.nodes {
            b.partition(Partition::blocks(self.procs, nodes).expect("nodes ≤ processors"));
        }
        for (&edge, tokens) in &self.initial {
            b.initial_tokens(edge, self.entries(edge, tokens));
        }
        let logs = Arc::new(Mutex::new(vec![Vec::new(); self.graph.actor_count()]));
        for shape in shapes(&self.graph) {
            let logs = logs.clone();
            b.actor(shape.actor, move |ctx: &mut Firing| {
                let inputs: Vec<&[u8]> = shape.ins.iter().map(|&(e, _)| ctx.input(e)).collect();
                let (digest, cycles, outputs) = fire(&shape, ctx.iter, ctx.k, &inputs);
                logs.lock().expect("logs")[shape.actor.0].push(digest);
                outputs
                    .into_iter()
                    .for_each(|(e, bytes)| ctx.set_output(e, bytes));
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
    let mut rng = StdRng::seed_from_u64(seed);
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
    Generated {
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
    }
}

/// A consistent, live graph of `n` actors, or `None` if it would fire
/// more than [`MAX_FIRINGS`] times an iteration. A spanning tree of
/// forward edges fixes the repetition vector; extra forward edges,
/// feedback edges and self-loops take rates that keep it, and each
/// feedback edge or self-loop carries a whole iteration of delay.
fn draw_graph(rng: &mut StdRng, n: usize) -> Option<(SdfGraph, DelayTokens)> {
    let mut g = SdfGraph::new();
    let actors: Vec<ActorId> = (0..n)
        .map(|i| g.add_actor(format!("v{i}"), rng.gen_range(1..60)))
        .collect();
    let delay = |rng: &mut StdRng, at_least: u64| at_least + rng.gen_range(0..3u64) * 2;
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
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Every actor's input digests, firing by firing: the actors fired in
/// `class_s_schedule` order over plain FIFOs of tokens.
fn reference(g: &Generated) -> Vec<Vec<u64>> {
    let vts = VtsConversion::convert(&g.graph).expect("convertible");
    let order = vts.graph().class_s_schedule(FirePolicy::FewestFirings);
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
    /// Runs `sys` to completion and returns every PE's final store;
    /// panics on any failure. `probe` is the tracer `sys` was built with,
    /// which the threaded backends attach to their runner.
    pub fn run(self, sys: SpiSystem, probe: Option<Arc<RingTracer>>) -> Vec<Store> {
        let runner = ThreadedRunner::new().timeout(Duration::from_secs(20));
        let runner = match probe {
            Some(probe) => runner.tracer(probe),
            None => runner,
        };
        let results = match self {
            Backend::Des => {
                let report = sys.run().unwrap_or_else(|e| panic!("DES: {e}"));
                return report.sim.locals.into_iter().map(|l| l.store).collect();
            }
            Backend::Threads(kind) => {
                let (specs, programs) = sys.into_parts();
                runner.transport(kind).run(&specs, programs)
            }
            Backend::Net => {
                // Cross-partition edges batch as `spi_net::deploy` lowers them.
                let plans = sys.edge_plans().values();
                let batches = plans.filter_map(|p| Some((p.data_ch.0, p.batch?.into())));
                let mut batch: HashMap<usize, BatchParams> = batches.collect();
                let (specs, programs) = sys.into_parts();
                let ends = specs.iter().enumerate().map(|(ch, spec)| {
                    let batch = batch.remove(&ch).unwrap_or(BatchParams::disabled());
                    NetEdge::boxed(spec, batch, ch as u64)
                });
                runner.run_with_endpoints(&specs, ends.collect(), programs)
            }
        };
        let results = results.unwrap_or_else(|e| panic!("{self:?}: {e}"));
        if let Some(e) = results.iter().find_map(|r| recorded_failure(&r.store)) {
            panic!("{self:?}: {e}");
        }
        results.into_iter().map(|r| r.store).collect()
    }
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
        let run = (backend.run(sys, probe), observe());
        match &des {
            None => des = Some(run),
            Some(des) => assert_eq!(des, &run, "{backend:?}: PE stores or observations"),
        }
    }
    des.expect("the DES ran").1
}

/// The kinds of system [`check`] saw — one each per system, summed over
/// a seed set — for the coverage floors.
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
}

impl Covered {
    /// Each count, named, with the floor the [`SYSTEMS`] set must reach.
    pub fn floors(self) -> [(&'static str, u64, u64); 7] {
        [
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
        ]
    }

    pub fn add(&mut self, other: Covered) {
        self.multi_processor += other.multi_processor;
        self.cross_dynamic += other.cross_dynamic;
        self.delayed_or_feedback += other.delayed_or_feedback;
        self.acknowledged += other.acknowledged;
        self.static_ubs += other.static_ubs;
        self.ordered_bus_acked_fills += other.ordered_bus_acked_fills;
        self.partitioned += other.partitioned;
    }
}

/// Builds `g` once per backend and holds every run to [`reference`];
/// returns what of [`Covered`] the system exercises.
pub fn check(g: &Generated) -> Covered {
    let lint = spi_analyze::analyze_graph(&g.graph);
    assert!(!lint.has_errors(), "analyzer: {}", lint.render_human());
    let want = reference(g);
    let mut covered = Covered::default();
    let seen = on_every_backend(|backend| {
        let ring = Arc::new(RingTracer::new(g.procs, 1 << 13));
        let (sys, logs) = g.build(ring.clone());
        let plans = || sys.edge_plans().values();
        let acked_fills = || plans().any(|p| p.ack_kept && p.fill_msgs >= 2);
        covered = Covered {
            multi_processor: u64::from(g.procs > 1),
            cross_dynamic: u64::from(plans().any(|p| p.phase == SpiPhase::Dynamic)),
            delayed_or_feedback: u64::from(g.graph.edges().any(|(_, e)| e.delay > 0)),
            acknowledged: u64::from(plans().any(|p| p.ack_kept)),
            static_ubs: u64::from(plans().any(|p| p.ack_window() > 0 && p.bound_msgs.is_some())),
            ordered_bus_acked_fills: u64::from(matches!(g.bus, Bus::Ordered) && acked_fills()),
            partitioned: u64::from(g.nodes.is_some()),
        };
        // Per channel, what the plan sends: the fills and one message
        // per producer firing on a data channel; the credit grants and
        // one per consumed message on an ack channel.
        let mut planned = BTreeMap::new();
        for p in plans() {
            let looped = p.msgs_per_iter * g.iterations;
            planned.insert(p.data_ch.0, p.fill_msgs + looped);
            planned.extend(p.ack_ch.map(|ack| (ack.0, p.ack_window() + looped)));
        }
        let clock = match backend {
            Backend::Des => ClockKind::Cycles,
            _ => ClockKind::Nanos,
        };
        let (meta, probe) = (sys.trace_meta(clock), ring.clone());
        let observe = move || {
            let trace = probe.finish(meta);
            assert_eq!(trace.meta.dropped, 0, "{backend:?}: capture dropped events");
            let report = spi_repro::trace::check(&trace);
            let clean = report.diagnostics.is_empty();
            assert!(clean, "{backend:?}: {}", report.render_human());
            let mut sent = BTreeMap::new();
            for ev in &trace.events {
                if let ProbeKind::Send { channel, .. } = ev.kind {
                    *sent.entry(channel.0).or_insert(0) += 1;
                }
            }
            assert_eq!(sent, planned, "{backend:?}: messages per channel");
            std::mem::take(&mut *logs.lock().expect("logs"))
        };
        (sys, Some(ring), Box::new(observe))
    });
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
