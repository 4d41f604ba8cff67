//! Mutation tests: start from a known-good graph, break it one way,
//! and assert the exact diagnostic code fires. Every pass of the
//! default pipeline has at least one mutation here, plus a clean-graph
//! check proving the mutations (not the baseline) trigger the codes.

use std::collections::HashMap;

use spi_analyze::{AnalysisInput, Analyzer, EdgeDecl, Severity, TransportDecl};
use spi_dataflow::{EdgeId, LengthSignal, PrecedenceGraph, SdfGraph, VtsConversion};
use spi_platform::{Device, ResourceEstimate};
use spi_sched::{
    Assignment, IpcEdgeKind, IpcGraph, ProcId, Protocol, SelfTimedSchedule, SyncGraph,
};

/// A small known-good pipeline: src -2:3-> mid -1:1-> sink.
fn good_graph() -> SdfGraph {
    let mut g = SdfGraph::new();
    let a = g.add_actor("src", 10);
    let b = g.add_actor("mid", 20);
    let c = g.add_actor("sink", 15);
    g.add_edge(a, b, 2, 3, 0, 4).unwrap();
    g.add_edge(b, c, 1, 1, 0, 4).unwrap();
    g
}

fn analyze(g: &SdfGraph) -> spi_analyze::AnalysisReport {
    Analyzer::default_pipeline().run(&AnalysisInput::new(g))
}

fn codes(report: &spi_analyze::AnalysisReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

/// Schedule derivation mirroring the builder: VTS, precedence expansion,
/// round-robin assignment, IPC graph, protocol map, sync graph.
struct Derived {
    vts: VtsConversion,
    ipc: IpcGraph,
    sync: SyncGraph,
    /// One entry per IPC edge, ascending, with no transport declared.
    edges: Vec<EdgeDecl>,
}

/// A generously sized, unbatched copying transport of 6-byte messages:
/// no edge of these graphs can require more.
const ROOMY: TransportDecl = TransportDecl {
    capacity_bytes: 1 << 20,
    message_bytes_max: 6,
    pool_slots: None,
    batch_msgs: None,
};

/// `edges` with transports declared: `transport(i)` for the i-th edge's
/// in-memory channel, `net(i)` for its cross-partition socket.
fn declare(
    edges: &[EdgeDecl],
    transport: impl Fn(usize) -> Option<TransportDecl>,
    net: impl Fn(usize) -> Option<TransportDecl>,
) -> Vec<EdgeDecl> {
    edges
        .iter()
        .enumerate()
        .map(|(i, e)| EdgeDecl {
            transport: transport(i),
            net_transport: net(i),
            ..*e
        })
        .collect()
}

fn derive(
    g: &SdfGraph,
    procs: usize,
    protocol_of: impl Fn(EdgeId, Option<u64>) -> Protocol,
) -> Derived {
    let vts = VtsConversion::convert(g).unwrap();
    let cg = vts.graph().clone();
    let pg = PrecedenceGraph::expand(&cg).unwrap();
    let assignment = Assignment::by_actor(&pg, procs, |a| ProcId(a.0 % procs)).unwrap();
    let st = SelfTimedSchedule::from_assignment(&pg, assignment).unwrap();
    let ipc = IpcGraph::build(&cg, &pg, &st).unwrap();

    let mut edges: Vec<EdgeDecl> = ipc
        .buffer_bounds_by_edge()
        .into_iter()
        .map(|(edge, bound_tokens)| EdgeDecl {
            edge,
            protocol: protocol_of(edge, bound_tokens),
            bound_tokens,
            transport: None,
            net_transport: None,
        })
        .collect();
    edges.sort_by_key(|e| e.edge);
    let protocols: HashMap<EdgeId, Protocol> = edges.iter().map(|e| (e.edge, e.protocol)).collect();
    let sync = SyncGraph::from_ipc(&ipc, |e| {
        let IpcEdgeKind::Ipc { via } = e.kind else {
            unreachable!()
        };
        protocols[&via]
    })
    .unwrap();
    Derived {
        vts,
        ipc,
        sync,
        edges,
    }
}

/// Sound default: BBS at the bound when it exists, else UBS.
fn default_protocol(_via: EdgeId, bound: Option<u64>) -> Protocol {
    match bound {
        Some(b) => Protocol::Bbs { capacity: b.max(1) },
        None => Protocol::Ubs { ack_window: 1 },
    }
}

#[test]
fn baseline_graph_is_clean() {
    let report = analyze(&good_graph());
    assert!(
        report.is_clean(),
        "baseline must be clean, got: {}",
        report.render_human()
    );
}

#[test]
fn baseline_schedule_is_clean() {
    let g = good_graph();
    let d = derive(&g, 2, default_protocol);
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&d.edges),
    );
    assert!(
        !report.has_errors(),
        "sound schedule must carry no errors: {}",
        report.render_human()
    );
}

// ---- well-formedness ----------------------------------------------------

#[test]
fn mutation_unconnected_actor_fires_spi001() {
    let mut g = good_graph();
    g.add_actor("orphan", 5);
    let report = analyze(&g);
    assert!(
        codes(&report).contains(&"SPI001"),
        "got: {}",
        report.render_human()
    );
    // An orphan is a warning, not a build-stopping error.
    assert!(!report.has_errors());
}

#[test]
fn mutation_underdelayed_self_loop_fires_spi003() {
    let mut g = good_graph();
    let a = g.actor_by_name("mid").unwrap();
    // State edge that consumes 2 per firing but holds only 1 token.
    g.add_edge(a, a, 2, 2, 1, 4).unwrap();
    let report = analyze(&g);
    assert!(
        codes(&report).contains(&"SPI003"),
        "got: {}",
        report.render_human()
    );
    assert!(report.has_errors());
}

#[test]
fn mutation_disconnected_subgraph_fires_spi004() {
    let mut g = good_graph();
    let x = g.add_actor("island1", 5);
    let y = g.add_actor("island2", 5);
    g.add_edge(x, y, 1, 1, 0, 4).unwrap();
    let report = analyze(&g);
    assert!(
        codes(&report).contains(&"SPI004"),
        "got: {}",
        report.render_human()
    );
}

// ---- rate consistency ---------------------------------------------------

#[test]
fn mutation_inconsistent_rates_fire_spi010_with_cycle() {
    let mut g = good_graph();
    let a = g.actor_by_name("src").unwrap();
    let c = g.actor_by_name("sink").unwrap();
    // src -> sink shortcut whose rates contradict the 2:3 and 1:1 path.
    g.add_edge(a, c, 1, 1, 0, 4).unwrap();
    let report = analyze(&g);
    let spi010: Vec<_> = report.with_code("SPI010").collect();
    assert_eq!(spi010.len(), 1, "got: {}", report.render_human());
    assert_eq!(spi010[0].severity, Severity::Error);
    // The explainer names the full undirected cycle and both ratios.
    assert!(spi010[0].message.contains("src"));
    assert!(spi010[0].message.contains("sink"));
    assert!(
        spi010[0].message.contains("q("),
        "must show the conflicting ratios"
    );
}

// ---- deadlock witness ---------------------------------------------------

#[test]
fn mutation_delay_free_cycle_fires_spi020_naming_the_cycle() {
    let mut g = good_graph();
    let b = g.actor_by_name("mid").unwrap();
    let c = g.actor_by_name("sink").unwrap();
    // Feedback with zero initial tokens: mid and sink wait on each other.
    g.add_edge(c, b, 1, 1, 0, 4).unwrap();
    let report = analyze(&g);
    let spi020: Vec<_> = report.with_code("SPI020").collect();
    assert_eq!(spi020.len(), 1, "got: {}", report.render_human());
    assert!(spi020[0].message.contains("mid") && spi020[0].message.contains("sink"));
    assert!(matches!(spi020[0].locus, spi_analyze::Locus::Cycle(_)));
}

#[test]
fn adding_delay_to_the_cycle_clears_spi020() {
    let mut g = good_graph();
    let b = g.actor_by_name("mid").unwrap();
    let c = g.actor_by_name("sink").unwrap();
    g.add_edge(c, b, 1, 1, 1, 4).unwrap();
    let report = analyze(&g);
    assert!(!report.has_errors(), "got: {}", report.render_human());
}

// ---- VTS soundness ------------------------------------------------------

#[test]
fn mutation_zero_byte_dynamic_tokens_fire_spi030() {
    let mut g = good_graph();
    let b = g.actor_by_name("mid").unwrap();
    let c = g.actor_by_name("sink").unwrap();
    // Dynamic edge with 0-byte tokens: b_max = 8 * 0 = 0.
    g.add_dynamic_edge(b, c, 8, 8, 0, 0).unwrap();
    let report = analyze(&g);
    let spi030: Vec<_> = report.with_code("SPI030").collect();
    assert!(
        spi030.iter().any(|d| d.severity == Severity::Error),
        "got: {}",
        report.render_human()
    );
}

#[test]
fn mutation_delimiter_signalling_fires_spi032() {
    let mut g = good_graph();
    let b = g.actor_by_name("mid").unwrap();
    let c = g.actor_by_name("sink").unwrap();
    g.add_dynamic_edge(b, c, 8, 8, 0, 4).unwrap();
    let report = Analyzer::default_pipeline()
        .run(&AnalysisInput::new(&g).with_signal(LengthSignal::Delimiter));
    let spi032: Vec<_> = report.with_code("SPI032").collect();
    assert!(!spi032.is_empty(), "got: {}", report.render_human());
    assert!(spi032.iter().all(|d| d.severity == Severity::Warning));
    assert!(!report.has_errors(), "advisory only");
}

// ---- protocol lints -----------------------------------------------------

/// Good graph plus a delayed feedback edge so the eq. (2) bound exists
/// for the cross edges.
fn bounded_graph() -> SdfGraph {
    let mut g = SdfGraph::new();
    let a = g.add_actor("src", 10);
    let b = g.add_actor("dst", 20);
    g.add_edge(a, b, 1, 1, 0, 4).unwrap();
    g.add_edge(b, a, 1, 1, 2, 4).unwrap();
    g
}

#[test]
fn mutation_ubs_despite_bound_fires_spi040() {
    let g = bounded_graph();
    let d = derive(&g, 2, |_, _| Protocol::Ubs { ack_window: 4 });
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&d.edges),
    );
    let spi040: Vec<_> = report.with_code("SPI040").collect();
    assert!(!spi040.is_empty(), "got: {}", report.render_human());
    assert!(spi040.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        spi040[0].message.contains("5.1"),
        "cites the paper's selection rule"
    );
}

#[test]
fn mutation_bbs_without_bound_fires_spi041() {
    // Pure feed-forward two-actor split: no feedback path at all (not
    // even via shared-processor sequence edges), so eq. (2) has no bound.
    let mut g = SdfGraph::new();
    let a = g.add_actor("src", 10);
    let b = g.add_actor("dst", 20);
    g.add_edge(a, b, 1, 1, 0, 4).unwrap();
    let vts = VtsConversion::convert(&g).unwrap();
    let cg = vts.graph().clone();
    let pg = PrecedenceGraph::expand(&cg).unwrap();
    let assignment = Assignment::by_actor(&pg, 2, |a| ProcId(a.0 % 2)).unwrap();
    let st = SelfTimedSchedule::from_assignment(&pg, assignment).unwrap();
    let ipc = IpcGraph::build(&cg, &pg, &st).unwrap();
    // Declare BBS although the bound does not exist. (The sync graph is
    // built with UBS, since BBS feedback edges would be unconstructible.)
    let sync = SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 4 }).unwrap();
    let edges: Vec<EdgeDecl> = ipc
        .buffer_bounds_by_edge()
        .into_iter()
        .map(|(edge, bound_tokens)| EdgeDecl {
            edge,
            protocol: Protocol::Bbs { capacity: 4 },
            bound_tokens,
            transport: None,
            net_transport: None,
        })
        .collect();
    assert!(!edges.is_empty(), "schedule must cross processors");
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&vts)
            .with_ipc(&ipc)
            .with_sync(&sync)
            .with_edges(&edges),
    );
    assert!(
        codes(&report).contains(&"SPI041"),
        "got: {}",
        report.render_human()
    );
    assert!(report.has_errors());
}

#[test]
fn mutation_undersized_bbs_fires_spi042() {
    let g = bounded_graph();
    // Derive a *sound* schedule, then declare capacity 1 on every BBS
    // edge — below the eq. (2) bound of >= 2 on the forward edge. (The
    // sync graph itself stays sound; only the declared FIFO sizing lies.)
    let d = derive(&g, 2, default_protocol);
    let undersized: Vec<EdgeDecl> = d
        .edges
        .iter()
        .map(|e| match e.protocol {
            Protocol::Bbs { .. } => EdgeDecl {
                protocol: Protocol::Bbs { capacity: 1 },
                ..*e
            },
            _ => *e,
        })
        .collect();
    assert!(
        undersized
            .iter()
            .any(|e| matches!(e.protocol, Protocol::Bbs { .. })),
        "precondition: the schedule selects BBS somewhere"
    );
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&undersized),
    );
    assert!(
        codes(&report).contains(&"SPI042"),
        "got: {}",
        report.render_human()
    );
    assert!(report.has_errors());
}

#[test]
fn mutation_undersized_transport_fires_spi043() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    // Declare one byte of runtime buffer for every edge — far below any
    // eq. (2) requirement — while the protocol choices stay sound.
    let starved = TransportDecl {
        capacity_bytes: 1,
        ..ROOMY
    };
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| Some(starved), |_| None)),
    );
    let spi043: Vec<_> = report.with_code("SPI043").collect();
    assert!(!spi043.is_empty(), "got: {}", report.render_human());
    assert!(spi043.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        spi043[0].message.contains("eq. (2)"),
        "names the bound it checks against"
    );
}

#[test]
fn adequately_sized_transport_stays_clean_of_spi043() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| Some(ROOMY), |_| None)),
    );
    assert!(
        !codes(&report).contains(&"SPI043"),
        "got: {}",
        report.render_human()
    );
}

#[test]
fn mutation_starved_pointer_pool_fires_spi044() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    // The byte capacity is generous (SPI043 stays quiet), but the
    // pointer-exchange pool declares a single slot — far below the
    // `capacity / message` count the channel is supposed to hold.
    let starved_pool = TransportDecl {
        pool_slots: Some(1),
        ..ROOMY
    };
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| Some(starved_pool), |_| None)),
    );
    let spi044: Vec<_> = report.with_code("SPI044").collect();
    assert!(!spi044.is_empty(), "got: {}", report.render_human());
    assert!(spi044.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        spi044[0].message.contains("eq. (1)"),
        "names the packed-token capacity it checks against"
    );
    assert!(
        !codes(&report).contains(&"SPI043"),
        "the byte capacity itself is sound; only the pool is starved"
    );
}

#[test]
fn matching_pointer_pool_stays_clean_of_spi044() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    // PointerTransport::new's sizing rule: one slot per message the
    // declared capacity holds. Also covers copying transports, which
    // declare no pool at all.
    let sized = |i: usize| {
        Some(TransportDecl {
            pool_slots: i.is_multiple_of(2).then_some((1 << 20) / 6),
            ..ROOMY
        })
    };
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, sized, |_| None)),
    );
    assert!(
        !codes(&report).contains(&"SPI044"),
        "got: {}",
        report.render_human()
    );
}

#[test]
fn mutation_starved_credit_window_fires_spi045() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    // The in-memory transports are generous (SPI043 quiet), but the
    // cross-partition socket edges grant a one-byte credit window.
    let starved_net = TransportDecl {
        capacity_bytes: 1,
        ..ROOMY
    };
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| Some(ROOMY), |_| Some(starved_net))),
    );
    let spi045: Vec<_> = report.with_code("SPI045").collect();
    assert!(!spi045.is_empty(), "got: {}", report.render_human());
    assert!(spi045.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        spi045[0].message.contains("credit window"),
        "names the mechanism that under-runs the bound"
    );
    assert!(
        !codes(&report).contains(&"SPI043"),
        "only the socket window is starved, not the in-memory buffers"
    );
}

#[test]
fn adequate_credit_window_stays_clean_of_spi045() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| None, |_| Some(ROOMY))),
    );
    assert!(
        !codes(&report).contains(&"SPI045"),
        "got: {}",
        report.render_human()
    );
}

#[test]
fn mutation_oversized_batch_fires_spi046() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    // A generous credit window (SPI045 quiet) of 1 MiB / 6-byte
    // messages, but the batch claims more records than the window can
    // ever hold in flight.
    let over_batched = TransportDecl {
        batch_msgs: Some(((1u64 << 20) / 6) + 1),
        ..ROOMY
    };
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| None, |_| Some(over_batched))),
    );
    let spi046: Vec<_> = report.with_code("SPI046").collect();
    assert!(!spi046.is_empty(), "got: {}", report.render_human());
    assert!(spi046.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        spi046[0].message.contains("credit window"),
        "names the bound the batch outruns"
    );
    assert!(
        !codes(&report).contains(&"SPI045"),
        "the window itself is adequately sized"
    );
}

#[test]
fn window_bounded_batch_stays_clean_of_spi046() {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    // Batches at (and below) the window's message capacity are sound;
    // unbatched transports declare nothing at all.
    let bounded = |i: usize| {
        Some(TransportDecl {
            batch_msgs: i.is_multiple_of(2).then_some((1u64 << 20) / 6 / 2),
            ..ROOMY
        })
    };
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| None, bounded)),
    );
    assert!(
        !codes(&report).contains(&"SPI046"),
        "got: {}",
        report.render_human()
    );
}

/// SPI046 findings when every cross-partition socket of the bounded
/// graph carries a `window_msgs`-message window and batches `batch_msgs`.
fn spi046(window_msgs: u64, batch_msgs: u64) -> Vec<String> {
    let g = bounded_graph();
    let d = derive(&g, 2, default_protocol);
    let socket = TransportDecl {
        capacity_bytes: window_msgs * ROOMY.message_bytes_max,
        batch_msgs: Some(batch_msgs),
        ..ROOMY
    };
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync)
            .with_edges(&declare(&d.edges, |_| None, |_| Some(socket))),
    );
    report
        .with_code("SPI046")
        .map(|d| {
            assert_eq!(d.severity, Severity::Warning);
            d.message.clone()
        })
        .collect()
}

#[test]
fn mutation_lock_step_batch_fires_spi046() {
    // The whole window in one batch, and one record more than half of
    // it: either way a second batch cannot be staged while the first is
    // consumed. (Half the window was the lowering rule until PR 20 and
    // is the configuration measured as lock-step on `fir2k_net`; it
    // still leaves two batches and stays clean.)
    for batch in [32, 32 / 2 + 1] {
        let found = spi046(32, batch);
        assert!(!found.is_empty(), "batch {batch} of a 32-message window");
        assert!(found[0].contains("lock-step"), "got: {}", found[0]);
    }
    assert_eq!(spi046(32, 32 / 2), Vec::<String>::new());
}

#[test]
fn the_lowered_batch_plan_stays_clean_of_spi046() {
    // What `batch_plan` lowers is what the lint holds a declaration to,
    // at every window: the quarter rule (8 of 32, the benchmark's
    // edge), the halved small windows and the unbatched plan.
    assert_eq!(spi_sched::batch_plan(32, None).max_msgs, 8);
    for window in 1..=40 {
        let lowered = spi_sched::batch_plan(window, None).max_msgs as u64;
        assert_eq!(
            spi046(window, lowered),
            Vec::<String>::new(),
            "window {window}"
        );
    }
}

// ---- sync coverage ------------------------------------------------------

#[test]
fn mutation_missing_sync_edges_fire_spi050_with_processor_pair() {
    let g = good_graph();
    let vts = VtsConversion::convert(&g).unwrap();
    let cg = vts.graph().clone();
    let pg = PrecedenceGraph::expand(&cg).unwrap();

    // The real schedule: actors split across two processors.
    let two = Assignment::by_actor(&pg, 2, |a| ProcId(a.0 % 2)).unwrap();
    let st2 = SelfTimedSchedule::from_assignment(&pg, two).unwrap();
    let ipc2 = IpcGraph::build(&cg, &pg, &st2).unwrap();
    assert!(ipc2
        .ipc_edges()
        .any(|e| matches!(e.kind, IpcEdgeKind::Ipc { .. })));

    // The mutated sync graph: derived from a single-processor schedule,
    // so it never orders the cross-processor transfers above.
    let one = Assignment::by_actor(&pg, 1, |_| ProcId(0)).unwrap();
    let st1 = SelfTimedSchedule::from_assignment(&pg, one).unwrap();
    let ipc1 = IpcGraph::build(&cg, &pg, &st1).unwrap();
    let sync1 = SyncGraph::from_ipc(&ipc1, |_| Protocol::Ubs { ack_window: 1 }).unwrap();

    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&vts)
            .with_ipc(&ipc2)
            .with_sync(&sync1),
    );
    let spi050: Vec<_> = report.with_code("SPI050").collect();
    assert!(!spi050.is_empty(), "got: {}", report.render_human());
    assert!(spi050.iter().all(|d| d.severity == Severity::Error));
    assert!(
        spi050
            .iter()
            .all(|d| matches!(d.locus, spi_analyze::Locus::Processors(_, _))),
        "race reports name the processor pair"
    );
}

#[test]
fn intact_sync_graph_passes_spi050() {
    let g = good_graph();
    let d = derive(&g, 2, default_protocol);
    let report = Analyzer::default_pipeline().run(
        &AnalysisInput::new(&g)
            .with_vts(&d.vts)
            .with_ipc(&d.ipc)
            .with_sync(&d.sync),
    );
    assert!(
        report.with_code("SPI050").next().is_none(),
        "got: {}",
        report.render_human()
    );
}

// ---- resync fixpoint ----------------------------------------------------

#[test]
fn mutation_unoptimized_sync_graph_fires_spi060() {
    // UBS everywhere leaves ack edges that data paths already cover.
    let g = bounded_graph();
    let d = derive(&g, 2, |_, _| Protocol::Ubs { ack_window: 4 });
    assert!(
        !d.sync.redundant_edges().is_empty(),
        "precondition: the unoptimized sync graph has redundancy"
    );
    let report = Analyzer::default_pipeline().run(&AnalysisInput::new(&g).with_sync(&d.sync));
    let spi060: Vec<_> = report.with_code("SPI060").collect();
    assert_eq!(spi060.len(), 1, "got: {}", report.render_human());
    assert_eq!(spi060[0].severity, Severity::Warning);

    // Running the optimization to its fixpoint clears the lint.
    let mut optimized = derive(&g, 2, |_, _| Protocol::Ubs { ack_window: 4 });
    optimized.sync.remove_redundant();
    let report =
        Analyzer::default_pipeline().run(&AnalysisInput::new(&g).with_sync(&optimized.sync));
    assert!(
        report.with_code("SPI060").next().is_none(),
        "got: {}",
        report.render_human()
    );
}

// ---- resource overcommit ------------------------------------------------

#[test]
fn mutation_overcommitted_device_fires_spi070() {
    let g = good_graph();
    let sx35 = Device::virtex4_sx35();
    // 120 % of the device's slices: the design cannot place, which is
    // advisory — a simulated system need not fit real silicon.
    let used = ResourceEstimate::new(sx35.capacity.slices * 12 / 10, 100, 100, 10, 10);
    let report = Analyzer::default_pipeline().run(&AnalysisInput::new(&g).with_resources(used));
    let spi070: Vec<_> = report.with_code("SPI070").collect();
    assert!(!spi070.is_empty(), "got: {}", report.render_human());
    assert!(spi070.iter().all(|d| d.severity == Severity::Warning));
    assert!(spi070[0].message.contains("cannot place"));
    assert!(!report.has_errors(), "got: {}", report.render_human());

    // 85 % utilization: a timing-closure warning.
    let warn_used = ResourceEstimate::new(sx35.capacity.slices * 85 / 100, 0, 0, 0, 0);
    let report =
        Analyzer::default_pipeline().run(&AnalysisInput::new(&g).with_resources(warn_used));
    let spi070: Vec<_> = report.with_code("SPI070").collect();
    assert_eq!(spi070.len(), 1, "got: {}", report.render_human());
    assert_eq!(spi070[0].severity, Severity::Warning);
    assert!(spi070[0].message.contains("timing closure"));
}

// ---- report plumbing ----------------------------------------------------

#[test]
fn reports_render_both_formats_and_sort_errors_first() {
    let mut g = good_graph();
    g.add_actor("orphan", 1); // SPI001 warning
    let b = g.actor_by_name("mid").unwrap();
    g.add_edge(b, b, 2, 2, 0, 4).unwrap(); // SPI003 error
    let report = analyze(&g);
    assert!(report.has_errors());
    assert_eq!(
        report.diagnostics[0].severity,
        Severity::Error,
        "errors sort first"
    );
    let human = report.render_human();
    assert!(human.contains("error[SPI003]") && human.contains("warning[SPI001]"));
    let json = report.render_json();
    assert!(json.contains("\"code\":\"SPI003\"") && json.contains("\"errors\":"));
}
