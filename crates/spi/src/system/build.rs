//! Build: from dataflow graph to the per-edge lowering record.
//!
//! [`SpiSystemBuilder::plan`] schedules the graph, then computes one
//! [`EdgePlan`] per inter-processor edge — the only place the paper's
//! eq. (1) message size, eq. (2) buffer bound, the per-firing message
//! counts and the per-message cycle costs are worked out. Every later
//! stage (synchronization graph, channel and program generation in
//! [`super::lower`], the analyzer input, the predicted makespan, the
//! reports in [`super::run`], `spi-net`'s deployment) reads the record
//! and recomputes none of it.

use std::collections::HashMap;
use std::sync::Arc;

use spi_analyze::{AnalysisReport, EdgeDecl};
use spi_dataflow::{ActorId, EdgeId, LengthSignal, PrecedenceGraph, SdfGraph, VtsConversion};
use spi_platform::{
    ChannelId, ChannelSpec, ResourceEstimate, Tracer, RECV_OVERHEAD_CYCLES, SEND_OVERHEAD_CYCLES,
};
use spi_sched::{
    Assignment, BatchPlan, CycleRatio, IpcEdgeKind, IpcGraph, Partition, PredictedMetrics, ProcId,
    Protocol, ResyncCertificate, SelfTimedSchedule, SyncGraph, SyncKind,
};

use super::lower;
use super::run::{SpiSystem, SyncOutcome};
use crate::actors::SharedActor;
use crate::error::{Result, SpiError};
use crate::library::SpiLibraryReport;
use crate::message::{self, SpiPhase};

/// The platform clock in MHz: cycles to microseconds.
pub(super) const CLOCK_MHZ: f64 = 100.0;

/// Size of a UBS acknowledgement message (the edge id).
pub const ACK_BYTES: usize = 2;

/// Least UBS credit window in messages: deep enough that
/// acknowledgements pipeline across the wire latency of large messages
/// instead of degenerating into a per-message rendezvous.
const ACK_WINDOW: u64 = 16;

/// Which of the paper's §2 multiprocessor scheduling classes drives the
/// run-time release of firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Firings start as soon as their data is available (the paper's
    /// choice: robust to execution-time variation).
    SelfTimed,
    /// Firings start at precomputed clock targets derived from the
    /// synchronization graph's analytic times, inflated by
    /// `slack_percent` to budget for worst-case execution. Data arrival
    /// still guards correctness; the targets only ever delay starts.
    FullyStatic {
        /// Worst-case inflation over the actor estimates, in percent.
        slack_percent: u32,
    },
}

/// Builder for an SPI multiprocessor system.
///
/// # Examples
///
/// A two-actor pipeline split across two processors:
///
/// ```
/// use spi::{SpiSystemBuilder, Firing};
/// use spi_dataflow::SdfGraph;
/// use spi_sched::ProcId;
///
/// let mut g = SdfGraph::new();
/// let src = g.add_actor("src", 50);
/// let snk = g.add_actor("snk", 50);
/// let e = g.add_edge(src, snk, 1, 1, 0, 4)?;
///
/// let mut builder = SpiSystemBuilder::new(g);
/// builder.actor(src, move |ctx: &mut Firing| {
///     let sample = ctx.iter as u32;
///     ctx.output(e).extend(sample.to_le_bytes());
///     50
/// });
/// builder.actor(snk, move |ctx: &mut Firing| {
///     assert_eq!(ctx.input(e).len(), 4);
///     50
/// });
/// builder.iterations(10);
/// let system = builder.build(2, |a| ProcId(a.0))?;
/// let report = system.run()?;
/// assert!(report.sim.makespan_cycles > 0);
/// # Ok::<(), spi::SpiError>(())
/// ```
pub struct SpiSystemBuilder {
    graph: SdfGraph,
    pub(super) impls: HashMap<ActorId, SharedActor>,
    actor_resources: HashMap<ActorId, ResourceEstimate>,
    pub(super) initial_payloads: HashMap<EdgeId, Vec<Vec<u8>>>,
    pub(super) iterations: u64,
    resync: bool,
    force_ubs: bool,
    signal: LengthSignal,
    pub(super) bus: Option<spi_platform::BusSpec>,
    pub(super) mode: SchedulingMode,
    pub(super) proc_speeds: HashMap<ProcId, (u64, u64)>,
    pub(super) ordered_transactions: bool,
    pub(super) tracer: Option<Arc<dyn Tracer>>,
    partition: Option<Partition>,
}

impl SpiSystemBuilder {
    /// Starts building an SPI system for `graph`.
    pub fn new(graph: SdfGraph) -> Self {
        SpiSystemBuilder {
            graph,
            impls: HashMap::new(),
            actor_resources: HashMap::new(),
            initial_payloads: HashMap::new(),
            iterations: 1,
            resync: true,
            force_ubs: false,
            signal: LengthSignal::Header,
            bus: None,
            mode: SchedulingMode::SelfTimed,
            proc_speeds: HashMap::new(),
            ordered_transactions: false,
            tracer: None,
            partition: None,
        }
    }

    /// Splits the processors across node **processes** for a distributed
    /// deployment (`spi-net`). Intra-partition edges keep their
    /// in-memory transports; edges crossing a partition boundary lower
    /// to socket channels whose sender-side credit window is sized from
    /// the same eq. (2)-derived [`ChannelSpec`], and
    /// [`SpiSystem::partition`] exposes the mapping to the node
    /// launcher.
    pub fn partition(&mut self, partition: Partition) -> &mut Self {
        self.partition = Some(partition);
        self
    }

    /// Enables the *ordered transactions* interconnect strategy
    /// (Sriram; the "other scheduling models" the paper's conclusion
    /// points to): a compile-time global bus-access order derived from
    /// the synchronization graph's analytic send times replaces
    /// run-time arbitration; each grant costs
    /// [`spi_platform::ORDERED_SLOT_CYCLES`].
    pub fn ordered_transactions(&mut self) -> &mut Self {
        self.ordered_transactions = true;
        self
    }

    /// Scales processor `proc`'s compute times by `num/den` — model a
    /// software processor (slower, e.g. `(3, 1)`) next to custom
    /// hardware PEs, as in the paper's hardware/software co-design
    /// deployment of application 1.
    pub fn processor_speed(&mut self, proc: ProcId, num: u64, den: u64) -> &mut Self {
        self.proc_speeds.insert(proc, (num, den));
        self
    }

    /// Selects the scheduling class (default: self-timed, the paper's
    /// model).
    pub fn scheduling_mode(&mut self, mode: SchedulingMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Attaches a runtime probe ([`spi_platform::Tracer`], e.g.
    /// `spi_trace::RingTracer`): every engine the built system runs on —
    /// the discrete-event simulator and the threaded runner — emits
    /// firing begin/end, send/receive (with payload digest and
    /// post-operation occupancy) and block/unblock events into it.
    /// Combine with [`SpiSystem::trace_meta`] to produce a
    /// `spi_trace::Trace` that the conformance checker can replay
    /// against the eq. (1)/(2) bounds.
    pub fn tracer(&mut self, tracer: Arc<dyn Tracer>) -> &mut Self {
        self.tracer = Some(tracer);
        self
    }

    /// Routes all inter-processor traffic through a shared bus instead
    /// of dedicated point-to-point FIFOs (interconnect ablation).
    pub fn shared_bus(&mut self, bus: spi_platform::BusSpec) -> &mut Self {
        self.bus = Some(bus);
        self
    }

    /// Registers the implementation of `actor`.
    pub fn actor(
        &mut self,
        actor: ActorId,
        implementation: impl crate::ActorFire + 'static,
    ) -> &mut Self {
        self.impls
            .insert(actor, crate::actors::share(implementation));
        self
    }

    /// Declares the hardware cost of `actor` for resource reports.
    pub fn actor_resources(&mut self, actor: ActorId, estimate: ResourceEstimate) -> &mut Self {
        self.actor_resources.insert(actor, estimate);
        self
    }

    /// Overrides the payloads of `edge`'s initial (delay) tokens.
    ///
    /// For a cross-processor edge with delay `d` and production rate
    /// `p`, entries `0..d/p` fill the producer's pipeline-fill messages
    /// (each a whole production batch) and entry `d/p` supplies the
    /// `d mod p` remainder tokens primed directly into the consumer's
    /// queue (the remainder tokens sit at the FIFO head, so they are
    /// consumed before the fill messages). Local edges use entry 0 for
    /// the whole delay. Missing entries default to zeros.
    pub fn initial_tokens(&mut self, edge: EdgeId, payloads: Vec<Vec<u8>>) -> &mut Self {
        self.initial_payloads.insert(edge, payloads);
        self
    }

    /// Number of graph iterations to simulate.
    pub fn iterations(&mut self, n: u64) -> &mut Self {
        self.iterations = n;
        self
    }

    /// Enables/disables the resynchronization pass (default on). Used by
    /// the ablation benches.
    pub fn resynchronization(&mut self, on: bool) -> &mut Self {
        self.resync = on;
        self
    }

    /// Forces every edge onto SPI_UBS regardless of buffer bounds (the
    /// BBS-vs-UBS ablation).
    pub fn force_ubs(&mut self, on: bool) -> &mut Self {
        self.force_ubs = on;
        self
    }

    /// Length-signalling discipline for dynamic edges (header vs
    /// delimiter, paper §3's implementation discussion).
    pub fn length_signal(&mut self, signal: LengthSignal) -> &mut Self {
        self.signal = signal;
        self
    }

    /// Builds with an automatic actor→processor mapping: HLFET list
    /// scheduling runs at firing granularity, then each actor adopts the
    /// processor that received the plurality of its firings (ties to the
    /// lowest processor id). The VTS conversion and precedence graph
    /// HLFET ran on are the ones the build schedules.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpiSystemBuilder::build`].
    pub fn build_auto(self, processors: usize) -> Result<SpiSystem> {
        // Per actor, the firings each processor received.
        let mut votes: HashMap<ActorId, Vec<usize>> = HashMap::new();
        let expanded = self.expand().and_then(|(vts, pg)| {
            let firing_assign = Assignment::hlfet(vts.graph(), &pg, processors)?;
            for &f in pg.firings() {
                let ballots = votes.entry(f.actor).or_insert_with(|| vec![0; processors]);
                ballots[firing_assign.processor(f)?.0] += 1;
            }
            Ok((vts, pg))
        });
        self.build_expanded(expanded, processors, move |a| {
            let best = votes.get(&a).and_then(|ballots| {
                (0..ballots.len()).max_by_key(|&p| (ballots[p], std::cmp::Reverse(p)))
            });
            ProcId(best.unwrap_or(0))
        })
    }

    /// Everything [`SpiSystemBuilder::build`] does except generate the
    /// channels and programs: schedules the graph, plans every
    /// inter-processor edge, synchronizes, and runs the analyzer over
    /// the result. Needs no actor implementations. The report is
    /// returned whole — error diagnostics included, where `build` would
    /// fail on them. When scheduling fails on a graph the graph-level
    /// passes find errors in, the report is theirs alone, explaining
    /// the failure. `spi-lint --procs` is this call.
    ///
    /// # Errors
    ///
    /// Any dataflow/scheduling error from the underlying analyses on a
    /// graph without graph-level errors;
    /// [`SpiError::ActorSplitAcrossProcessors`] if the assignment puts
    /// firings of one actor on different processors.
    pub fn plan(
        &self,
        processors: usize,
        assign: impl FnMut(ActorId) -> ProcId,
    ) -> Result<AnalysisReport> {
        self.expand()
            .and_then(|expanded| self.planned(expanded, processors, assign, |_, _, _| Ok(())))
            .map(|(_, planned)| planned.analysis)
            .or_else(|error| self.explain(error))
    }

    /// Runs the full SPI flow and produces a runnable system. A built
    /// system is analysed once, with the full picture (see
    /// [`SpiSystem::analysis`]).
    ///
    /// # Errors
    ///
    /// [`SpiError::Analysis`] when the analyzer finds error-severity
    /// diagnostics (ill-formed graph, inconsistent rates, deadlock,
    /// unsound VTS bounds, uncovered IPC edges…) — the diagnostics
    /// explain each defect. A graph that cannot be scheduled is
    /// explained by the graph-level passes when they find an error;
    /// [`SpiError::MissingActorImpl`] for unregistered actors;
    /// otherwise as [`SpiSystemBuilder::plan`].
    pub fn build(
        self,
        processors: usize,
        assign: impl FnMut(ActorId) -> ProcId,
    ) -> Result<SpiSystem> {
        let expanded = self.expand();
        self.build_expanded(expanded, processors, assign)
    }

    /// [`SpiSystemBuilder::build`] from the graph's VTS conversion and
    /// precedence graph, or from the error that stopped them.
    fn build_expanded(
        self,
        expanded: Result<(VtsConversion, PrecedenceGraph)>,
        processors: usize,
        assign: impl FnMut(ActorId) -> ProcId,
    ) -> Result<SpiSystem> {
        let lower = |s: &Scheduled, sync: &SyncGraph, plans: &mut Plans| {
            lower::machine(&self, s, sync, plans)
        };
        let planned = expanded.and_then(|expanded| {
            if let Some((a, _)) = (self.graph.actors()).find(|(a, _)| !self.impls.contains_key(a)) {
                return Err(SpiError::MissingActorImpl(a));
            }
            self.planned(expanded, processors, assign, lower)
        });
        let (machine, planned) = match planned {
            Ok(built) => built,
            Err(error) => return Err(analysis_error(&self.explain(error)?)),
        };
        // Errors here are a defect of the graph that scheduling did not
        // trip over, or an unsound lowering — abort rather than hand out
        // a racy or overcommitted system; warnings (e.g. SPI040 under
        // `force_ubs`) ride along on the built system.
        if planned.analysis.has_errors() {
            return Err(analysis_error(&planned.analysis));
        }
        Ok(SpiSystem {
            machine,
            plans: planned.plans,
            sync: planned.sync,
            library: planned.library,
            iterations: self.iterations,
            analysis: planned.analysis,
            predicted: planned.predicted,
            tracer: self.tracer,
            partition: self.partition,
        })
    }

    /// Why a build that did not reach its analysis failed: the
    /// graph-level passes' report when it has errors (scheduling a
    /// malformed graph is meaningless, and the diagnostics say why),
    /// `error` itself otherwise.
    fn explain(&self, error: SpiError) -> Result<AnalysisReport> {
        let input = spi_analyze::AnalysisInput::new(&self.graph).with_signal(self.signal);
        let report = spi_analyze::Analyzer::default_pipeline().run(&input);
        if report.has_errors() {
            Ok(report)
        } else {
            Err(error)
        }
    }

    /// The VTS conversion and its precedence graph: what every schedule
    /// of the graph starts from.
    fn expand(&self) -> Result<(VtsConversion, PrecedenceGraph)> {
        let vts = VtsConversion::convert(&self.graph)?;
        let pg = PrecedenceGraph::expand(vts.graph())?;
        Ok((vts, pg))
    }

    /// Schedule → one [`EdgePlan`] per inter-processor edge →
    /// synchronization → `lower` (the one step [`SpiSystemBuilder::plan`]
    /// leaves out) → predicted makespan → batch plans → analysis.
    fn planned<M>(
        &self,
        (vts, pg): (VtsConversion, PrecedenceGraph),
        processors: usize,
        assign: impl FnMut(ActorId) -> ProcId,
        lower: impl FnOnce(&Scheduled, &SyncGraph, &mut Plans) -> Result<M>,
    ) -> Result<(M, Planned)> {
        let sched = self.schedule(vts, pg, processors, assign)?;
        // A channel's capacity must cover its longest-resident message,
        // so the eq. (2) bound is folded with MAX over the edge's
        // precedence instances; any unbounded instance forces UBS
        // (`buffer_bounds_by_edge` encodes exactly that fold).
        let mut plans = Plans::new();
        for (via, bound) in sched.ipc.buffer_bounds_by_edge() {
            plans.insert(via, self.plan_edge(&sched, via, bound));
        }
        let (sync, cert) = self.synchronize(&sched.ipc, &mut plans)?;
        let lowered = lower(&sched, &sync.graph, &mut plans)?;
        let library =
            SpiLibraryReport::for_system(&plans, &sched.actor_proc, &self.actor_resources);
        let predicted = self.predict(&sync.graph, sync.period_estimate, &plans);
        self.plan_batches(predicted.as_ref(), &mut plans)?;
        let analysis = self.verify(&sched, &sync.graph, cert.as_ref(), &plans, &library);
        let planned = Planned {
            sync,
            plans,
            library,
            predicted,
            analysis,
        };
        Ok((lowered, planned))
    }

    /// Assignment, self-timed schedule and IPC graph.
    fn schedule(
        &self,
        vts: VtsConversion,
        pg: PrecedenceGraph,
        processors: usize,
        assign: impl FnMut(ActorId) -> ProcId,
    ) -> Result<Scheduled> {
        let assignment = Assignment::by_actor(&pg, processors, assign)?;

        // Every actor must live on exactly one processor.
        let mut actor_proc: HashMap<ActorId, ProcId> = HashMap::new();
        for &f in pg.firings() {
            let p = assignment.processor(f)?;
            if *actor_proc.entry(f.actor).or_insert(p) != p {
                return Err(SpiError::ActorSplitAcrossProcessors(f.actor));
            }
        }

        let st = SelfTimedSchedule::from_assignment(&pg, assignment)?;
        let ipc = IpcGraph::build(vts.graph(), &pg, &st)?;
        Ok(Scheduled {
            vts,
            pg,
            actor_proc,
            st,
            ipc,
        })
    }

    /// Everything the schedule fixes about `via` — a dataflow edge with
    /// at least one inter-processor instance — before it runs.
    fn plan_edge(&self, s: &Scheduled, via: EdgeId, bound_tokens: Option<u64>) -> EdgePlan {
        let q = s.pg.repetitions();
        let edge = s.vts.graph().edge(via);
        let (phase, payload_max) = match s.vts.edge_info(via) {
            Some(packed) => (SpiPhase::Dynamic, packed.b_max as usize),
            None => {
                let exact = edge.produce.bound() as usize * edge.token_bytes as usize;
                (SpiPhase::Static, exact)
            }
        };
        // eq. (1) plus the §5.1 header: the largest message on the wire.
        let msg_max = message::header_bytes(phase) + payload_max;
        let msgs_per_iter = q[edge.src];

        // Consumer firing `j` receives `M(j) − M(j−1)` messages.
        let [p, c] = [edge.produce, edge.consume].map(|rate| i64::from(rate.bound()));
        let cumulative: Vec<i64> = (-1..q[edge.dst] as i64)
            .map(|j| cumulative_messages(j, c, edge.delay as i64, p))
            .collect();
        let recv_counts: Vec<u64> = cumulative
            .windows(2)
            .map(|m| (m[1] - m[0]).max(0) as u64)
            .collect();
        let max_burst = recv_counts.iter().copied().max().unwrap_or(1).max(1);
        let fill_msgs = edge.delay / u64::from(edge.produce.bound());

        let protocol = match bound_tokens {
            // Liveness guard: the BBS feedback edge of the most-delayed
            // instance has delay `capacity − d_max`; keep it ≥ 1.
            Some(b) if !self.force_ubs => {
                let instances = s.ipc.ipc_edges();
                let of_edge = instances.filter(|e| e.kind == IpcEdgeKind::Ipc { via });
                let d_max = of_edge.map(|e| e.delay).max().unwrap_or(0);
                Protocol::Bbs {
                    capacity: b.max(d_max + 1),
                }
            }
            // The credit window must cover (a) the consumer's largest
            // per-firing burst — it only acknowledges after its firing
            // consumes, so a smaller window deadlocks the self-timed
            // execution — and (b) one full iteration of producer sends:
            // a smaller window can exhaust credits mid-iteration and
            // deadlock against the program order of a coupled edge
            // (found by the stress fuzzer, seed 738).
            _ => Protocol::Ubs {
                ack_window: ACK_WINDOW.max(max_burst).max(msgs_per_iter),
            },
        };
        // The messages the data channel holds: the most its protocol
        // lets be in flight.
        let slots = match protocol {
            // eq. (2): the tokens-in-flight bound × messages per
            // iteration of drift.
            Protocol::Bbs { capacity } => capacity * msgs_per_iter,
            // The credit window: every data message past the pipeline
            // fills (sent without a credit) takes one of `ack_window`
            // credits. An edge whose acks resynchronization removed is
            // held to the same depth by the path that made them
            // redundant.
            Protocol::Ubs { ack_window } => ack_window + fill_msgs,
        };
        EdgePlan {
            edge: via,
            phase,
            payload_max,
            msg_max,
            src_proc: s.actor_proc[&edge.src],
            dst_proc: s.actor_proc[&edge.dst],
            msgs_per_iter,
            recv_counts,
            fill_msgs,
            prime_tokens: edge.delay % u64::from(edge.produce.bound()),
            max_burst,
            bound_tokens,
            slots,
            protocol,
            ack_kept: false,
            cost: MessageCost::new(phase, self.signal, payload_max, msg_max),
            batch: None,
            data_ch: ChannelId(0),
            ack_ch: None,
        }
    }

    /// Synchronization graph, resynchronization (with the certificate
    /// `verify` re-checks), and which UBS edges keep their
    /// acknowledgements.
    fn synchronize(
        &self,
        ipc: &IpcGraph,
        plans: &mut Plans,
    ) -> Result<(SyncOutcome, Option<ResyncCertificate>)> {
        let mut graph = SyncGraph::from_ipc(ipc, |e| match e.kind {
            IpcEdgeKind::Ipc { via } => plans[&via].sync_protocol(),
            // `from_ipc` asks only for the IPC edges' protocols.
            _ => unreachable!("protocol_of is only called for IPC edges"),
        })?;
        // The figures draw the graph before and after; `sync_graph_dot`
        // renders them on demand.
        let before = self.resync.then(|| graph.clone());
        // The certificate holds a redundancy proof (witness path in the
        // final graph) for every removed edge; the SPI061/SPI062 analyzer
        // pass re-verifies it in `verify`.
        let cert = self.resync.then(|| graph.resynchronize());
        let report = cert.as_ref().map(|c| c.report);
        // An edge keeps its acknowledgements if any Ack sync edge for it
        // survived the optimization.
        for plan in plans.values_mut() {
            plan.ack_kept = matches!(plan.protocol, Protocol::Ubs { .. })
                && graph
                    .edges()
                    .iter()
                    .any(|s| matches!(s.kind, SyncKind::Ack { via } if via == plan.edge));
        }
        let outcome = SyncOutcome {
            report,
            period_estimate: graph.iteration_period(),
            before,
            graph,
        };
        Ok((outcome, cert))
    }

    /// Predicted-makespan bound for trace conformance, supervision
    /// deadlines and flush deadlines.
    ///
    /// The sync-graph fixed point covers computation and blocking
    /// order; the engines additionally charge per-message channel costs
    /// (codec overhead, send/recv busy time, wire cycles). In a
    /// monotonic event system, inflating operation durations by deltas
    /// inflates the makespan by at most their sum, so adding every
    /// per-message cost as slack yields a sound upper bound. Only the
    /// paper's baseline configuration is predictable this way: a
    /// shared/ordered bus serializes transfers and heterogeneous
    /// processor speeds rescale compute outside the sync model.
    fn predict(
        &self,
        sync: &SyncGraph,
        period: Option<CycleRatio>,
        plans: &Plans,
    ) -> Option<PredictedMetrics> {
        if !matches!(self.mode, SchedulingMode::SelfTimed)
            || self.bus.is_some()
            || self.ordered_transactions
            || !self.proc_speeds.is_empty()
        {
            return None;
        }
        let base = spi_sched::predicted_metrics(sync, self.iterations, period);
        let mut per_iter = 0u64;
        let mut fixed = 0u64;
        for plan in plans.values() {
            let q_src = plan.msgs_per_iter;
            per_iter = per_iter.saturating_add(q_src.saturating_mul(plan.cost.data_cycles));
            // Pipeline-fill sends happen once, ahead of the loop.
            fixed = fixed.saturating_add(plan.fill_msgs.saturating_mul(plan.cost.fill_cycles));
            if plan.ack_kept {
                per_iter = per_iter.saturating_add(q_src.saturating_mul(plan.cost.ack_cycles));
                // The consumer grants the initial credit window once.
                fixed =
                    fixed.saturating_add(plan.ack_window().saturating_mul(plan.cost.grant_cycles));
            }
            // Consumer-side priming compute and iteration-boundary
            // drift of the cumulative-message counts.
            fixed = fixed.saturating_add(4);
        }
        // Keep the whole metrics struct (with the communication slack
        // folded into the makespan) so downstream consumers — the trace
        // checker's bound, the supervision deadline, the flush deadline
        // — all derive from one number.
        Some(PredictedMetrics {
            makespan_cycles: base.makespan_with_slack(per_iter, fixed),
            ..base
        })
    }

    /// Cross-partition edges additionally lower to socket channels: the
    /// sender-side credit window is the in-memory channel's `slots`
    /// (eq. (2) under BBS, the credit window under UBS), the record
    /// batch is bounded by that window in messages, and the Nagle flush
    /// deadline comes from the predicted per-iteration wall time at this
    /// system's clock.
    fn plan_batches(&self, predicted: Option<&PredictedMetrics>, plans: &mut Plans) -> Result<()> {
        let Some(partition) = &self.partition else {
            return Ok(());
        };
        let clock_hz = (CLOCK_MHZ * 1e6) as u64;
        let op_deadline = predicted.and_then(|m| m.op_deadline(clock_hz, 1.0));
        for plan in plans.values_mut() {
            // Out-of-range processors surface as a scheduling error
            // (partition narrower than the processor count).
            partition.node_of(plan.src_proc)?;
            partition.node_of(plan.dst_proc)?;
            if partition.is_cross(plan.src_proc, plan.dst_proc) {
                plan.batch = Some(spi_sched::batch_plan(plan.slots, op_deadline));
            }
        }
        Ok(())
    }

    /// The build's one analyzer run, with the full picture (VTS, IPC
    /// graph, optimized sync graph, every edge's protocol, resource
    /// totals): the graph-level passes and the schedule-level ones
    /// together.
    fn verify(
        &self,
        s: &Scheduled,
        sync: &SyncGraph,
        cert: Option<&ResyncCertificate>,
        plans: &Plans,
        library: &SpiLibraryReport,
    ) -> AnalysisReport {
        let decls: Vec<EdgeDecl> = plans.values().map(EdgePlan::decl).collect();
        let mut input = spi_analyze::AnalysisInput::new(&self.graph)
            .with_vts(&s.vts)
            .with_signal(self.signal)
            .with_ipc(&s.ipc)
            .with_sync(sync)
            .with_edges(&decls)
            .with_resources(library.full_system());
        if let Some(cert) = cert {
            input = input.with_resync_cert(cert);
        }
        spi_analyze::Analyzer::default_pipeline().run(&input)
    }
}

/// The [`SpiError::Analysis`] carrying `report`'s error-severity
/// diagnostics.
fn analysis_error(report: &AnalysisReport) -> SpiError {
    SpiError::Analysis {
        diagnostics: report.errors().cloned().collect(),
    }
}

/// What planning fixes about a system, lowered or not.
struct Planned {
    sync: SyncOutcome,
    plans: Plans,
    library: SpiLibraryReport,
    predicted: Option<PredictedMetrics>,
    analysis: AnalysisReport,
}

/// What scheduling produced, read by every later stage.
pub(super) struct Scheduled {
    pub(super) vts: VtsConversion,
    pg: PrecedenceGraph,
    actor_proc: HashMap<ActorId, ProcId>,
    pub(super) st: SelfTimedSchedule,
    pub(super) ipc: IpcGraph,
}

/// Steady-state cumulative message count: `M(j) = ⌈((j+1)·c − d) / p⌉`.
pub(super) fn cumulative_messages(j: i64, c: i64, d: i64, p: i64) -> i64 {
    let num = (j + 1) * c - d;
    num.div_euclid(p) + i64::from(num.rem_euclid(p) != 0)
}

/// Per-message cycle costs of one edge on the platform's FIFOs, as the
/// engines charge them. [`MessageCost::decode_cycles`]
/// is what the generated `SPI_receive` adds per message; the other
/// figures are the worst-case per-message slack of the predicted
/// makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageCost {
    /// `SPI_receive` cycles independent of the payload (header parse).
    pub decode_fixed: u64,
    /// `SPI_receive` cycles per payload byte: zero when the length is
    /// signalled in the header, one when a delimiter has to be scanned
    /// for.
    pub decode_per_byte: u64,
    /// One data message end to end at its largest: header emission, send
    /// occupancy, wire, receive occupancy, decode.
    pub data_cycles: u64,
    /// One pipeline-fill message: send occupancy and wire.
    pub fill_cycles: u64,
    /// One acknowledgement end to end, credit consumption included.
    pub ack_cycles: u64,
    /// Granting one initial credit: send occupancy and wire.
    pub grant_cycles: u64,
}

impl MessageCost {
    fn new(phase: SpiPhase, signal: LengthSignal, payload_max: usize, msg_max: usize) -> Self {
        // Constant header parse; the delimiter ablation instead scans
        // the payload.
        let (decode_fixed, decode_per_byte) = match (phase, signal) {
            (SpiPhase::Static, _) => (1, 0),
            (SpiPhase::Dynamic, LengthSignal::Header) => (2, 0),
            (SpiPhase::Dynamic, LengthSignal::Delimiter) => (2, 1),
        };
        let fill_cycles = SEND_OVERHEAD_CYCLES + ChannelSpec::wire_cycles(msg_max);
        let grant_cycles = SEND_OVERHEAD_CYCLES + ChannelSpec::wire_cycles(ACK_BYTES);
        MessageCost {
            decode_fixed,
            decode_per_byte,
            data_cycles: 1 // header emission inside the firing
                + fill_cycles
                + RECV_OVERHEAD_CYCLES
                + decode_fixed
                + decode_per_byte * payload_max as u64,
            fill_cycles,
            ack_cycles: grant_cycles + RECV_OVERHEAD_CYCLES + 1, // credit-consume compute
            grant_cycles,
        }
    }

    /// `SPI_receive` cycles for a message carrying `payload_len` bytes.
    pub fn decode_cycles(&self, payload_len: usize) -> u64 {
        self.decode_fixed + self.decode_per_byte * payload_len as u64
    }
}

/// The plan table: one [`EdgePlan`] per dataflow edge with at least one
/// inter-processor instance.
pub(super) type Plans = HashMap<EdgeId, EdgePlan>;

/// The per-edge lowering record: everything the schedule fixes about
/// one inter-processor edge before the system runs. Computed once by
/// [`SpiSystemBuilder::build`]; every consumer reads it.
///
/// | fields | read by |
/// |---|---|
/// | `phase`, `payload_max`, `msg_max` | channel specs, generated encode/decode, [`SpiSystem::buffer_report`], resource report |
/// | `recv_counts`, `fill_msgs`, `prime_tokens` | generated receive ops, prologue, ordered-bus grant order |
/// | `max_burst`, `msgs_per_iter`, `bound_tokens` | protocol choice, credit window, sync graph, eq. (2) capacity, analyzer (SPI040–SPI042, through `EdgeDecl::bound_tokens`) |
/// | `protocol`, `ack_kept` | sync graph, ack channels, analyzer, [`SpiSystem::trace_meta`] |
/// | `slots` (and [`EdgePlan::capacity_bytes`], [`EdgePlan::bound_msgs`]) | data channel spec, resource report, batch plan, [`SpiSystem::trace_meta`], [`SpiSystem::buffer_report`] |
/// | `cost` | generated `SPI_receive`, predicted makespan (and through it the supervision and flush deadlines) |
/// | `batch` | [`SpiSystem::trace_meta`], `spi-net` deployment |
/// | `src_proc`, `dst_proc`, `data_ch`, `ack_ch` | program generation, `spi-net` endpoint roles |
#[derive(Debug, Clone)]
pub struct EdgePlan {
    /// The application edge.
    pub edge: EdgeId,
    /// SPI_static or SPI_dynamic.
    pub phase: SpiPhase,
    /// Maximum payload bytes of one message (eq. (1) packed token).
    pub payload_max: usize,
    /// Largest message on the wire: header plus `payload_max`.
    pub msg_max: usize,
    /// Producer's processor.
    pub src_proc: ProcId,
    /// Consumer's processor.
    pub dst_proc: ProcId,
    /// Data messages per graph iteration (the producer's repetition
    /// count).
    pub msgs_per_iter: u64,
    /// Messages consumer firing `k` receives in steady state, indexed
    /// by `k`.
    pub recv_counts: Vec<u64>,
    /// Pipeline-fill messages the producer sends before the loop
    /// (`⌊delay / produce⌋`).
    pub fill_msgs: u64,
    /// Delay tokens primed directly into the consumer's local queue
    /// (`delay mod produce`).
    pub prime_tokens: u64,
    /// Largest entry of `recv_counts` (at least 1).
    pub max_burst: u64,
    /// eq. (2) bound in tokens, when it exists.
    pub bound_tokens: Option<u64>,
    /// Messages the data channel holds, the most its protocol lets be
    /// in flight: `capacity · msgs_per_iter` under BBS (eq. (2)),
    /// `ack_window + fill_msgs` under UBS. A ring of this many
    /// `msg_max`-byte slots is exactly the allocation.
    pub slots: u64,
    /// Chosen protocol, with its BBS capacity or UBS credit window.
    pub protocol: Protocol,
    /// Whether UBS acknowledgements survived resynchronization.
    pub ack_kept: bool,
    /// Per-message cycle costs on the platform's FIFOs.
    pub cost: MessageCost,
    /// Record batching of the edge's socket, for edges that cross the
    /// partition of a distributed build; unbatchable edges (windows of
    /// ≤ 3 messages) carry the disabled plan. `None` otherwise.
    pub batch: Option<BatchPlan>,
    /// Data channel in the lowered machine.
    pub data_ch: ChannelId,
    /// Ack channel (UBS with acks only).
    pub ack_ch: Option<ChannelId>,
}

impl std::fmt::Display for EdgePlan {
    /// One row of [`SpiSystem::buffer_report`]: edge, phase, protocol,
    /// the data channel's bytes and its largest message.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>4}  {:<8}  {:<22}  {:>6} B  ≤{} B/msg",
            self.edge.to_string(),
            format!("{:?}", self.phase),
            format!("{:?}", self.protocol),
            self.capacity_bytes(),
            self.msg_max,
        )
    }
}

impl EdgePlan {
    /// Bytes of the data channel: `slots` messages of `msg_max` bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.slots * self.msg_max as u64
    }

    /// The data channel's bound in messages, which the runtime
    /// conformance checker holds observed occupancy against: `slots` on
    /// a static edge, whose messages are all exactly `msg_max` bytes.
    /// `None` on a dynamic edge, where shorter messages may
    /// legitimately fit more of them in the same bytes.
    pub fn bound_msgs(&self) -> Option<u64> {
        (self.phase == SpiPhase::Static).then_some(self.slots)
    }

    /// The UBS credit window in messages; zero under BBS.
    pub fn ack_window(&self) -> u64 {
        match self.protocol {
            Protocol::Ubs { ack_window } => ack_window,
            Protocol::Bbs { .. } => 0,
        }
    }

    /// Bytes of the edge's acknowledgement channel. It never fills: the
    /// consumer acknowledges the edge's pipeline-fill messages too, which
    /// the producer sent from its prologue without taking a credit, so
    /// up to `window + fill_msgs` acks are outstanding at once — plus
    /// one. (On the ordered bus a sender blocked for space in its grant
    /// slot would stall every other sender.)
    pub fn ack_channel_bytes(&self) -> usize {
        (((self.ack_window() + self.fill_msgs) as usize + 1) * ACK_BYTES).max(16)
    }

    /// The protocol as the synchronization graph counts it: its delays
    /// are in iterations, and a window of `w` messages grants
    /// `⌊w / msgs_per_iter⌋` iterations of slack.
    fn sync_protocol(&self) -> Protocol {
        match self.protocol {
            Protocol::Ubs { ack_window } => Protocol::Ubs {
                ack_window: (ack_window / self.msgs_per_iter).max(1),
            },
            bbs => bbs,
        }
    }

    /// What the analyzer checks about this edge.
    fn decl(&self) -> EdgeDecl {
        EdgeDecl {
            edge: self.edge,
            protocol: self.protocol,
            bound_tokens: self.bound_tokens,
        }
    }
}
