//! Mutation tests: start from a known-good graph, break it one way,
//! and assert the exact diagnostic code fires. Every pass of the
//! default pipeline has at least one mutation here, plus a clean-graph
//! check proving the mutations (not the baseline) trigger the codes.

use std::collections::HashMap;

use spi_analyze::{AnalysisInput, Analyzer, EdgeDecl, Severity};
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
    /// One entry per IPC edge, ascending.
    edges: Vec<EdgeDecl>,
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
