//! What a build's analysis reports: a graph with graph-level errors is
//! refused with them whether or not it can be scheduled, and
//! `build_auto` lowers exactly what `build` lowers under the assignment
//! it chose.

use spi::{Firing, SpiError, SpiSystemBuilder};
use spi_dataflow::{ActorId, PrecedenceGraph, SdfGraph, VtsConversion};
use spi_sched::{Assignment, ProcId};

/// `crates/analyze/tests/mutations.rs`'s known-good pipeline:
/// src -2:3-> mid -1:1-> sink.
fn good_graph() -> SdfGraph {
    let mut g = SdfGraph::new();
    let a = g.add_actor("src", 10);
    let b = g.add_actor("mid", 20);
    let c = g.add_actor("sink", 15);
    g.add_edge(a, b, 2, 3, 0, 4).unwrap();
    g.add_edge(b, c, 1, 1, 0, 4).unwrap();
    g
}

/// The graph mutations of `mutations.rs` that carry an error-severity
/// code, with that code.
fn erroneous_graphs() -> Vec<(&'static str, SdfGraph)> {
    let with = |mutate: &dyn Fn(&mut SdfGraph, ActorId, ActorId, ActorId)| {
        let mut g = good_graph();
        let [src, mid, sink] = ["src", "mid", "sink"].map(|n| g.actor_by_name(n).unwrap());
        mutate(&mut g, src, mid, sink);
        g
    };
    vec![
        (
            "SPI003",
            with(&|g, _, mid, _| {
                g.add_edge(mid, mid, 2, 2, 1, 4).unwrap();
            }),
        ),
        (
            "SPI003",
            with(&|g, _, mid, _| {
                g.add_actor("orphan", 1);
                g.add_edge(mid, mid, 2, 2, 0, 4).unwrap();
            }),
        ),
        (
            "SPI010",
            with(&|g, src, _, sink| {
                g.add_edge(src, sink, 1, 1, 0, 4).unwrap();
            }),
        ),
        (
            "SPI020",
            with(&|g, _, mid, sink| {
                g.add_edge(sink, mid, 1, 1, 0, 4).unwrap();
            }),
        ),
        (
            "SPI030",
            with(&|g, _, mid, sink| {
                g.add_dynamic_edge(mid, sink, 8, 8, 0, 0).unwrap();
            }),
        ),
    ]
}

#[test]
fn every_graph_level_error_refuses_the_build_with_its_code() {
    for (code, graph) in erroneous_graphs() {
        let actors: Vec<ActorId> = graph.actors().map(|(a, _)| a).collect();
        let mut builder = SpiSystemBuilder::new(graph);
        for a in actors {
            builder.actor(a, |_: &mut Firing| 1);
        }
        match builder.build(2, |a| ProcId(a.0 % 2)) {
            Err(SpiError::Analysis { diagnostics }) => assert!(
                diagnostics.iter().any(|d| d.code == code),
                "{code}: refused with {diagnostics:?}"
            ),
            Err(other) => panic!("{code}: refused with {other}, not the analysis"),
            Ok(_) => panic!("{code}: built"),
        }
    }
}

/// The three-stage sample-rate converter of `examples/dif_workflow.rs`.
fn dif_workflow() -> SdfGraph {
    spi_dataflow::dif::from_dif(
        "graph src_pipeline {
           actor reader   exec 40;
           actor upsample exec 120;
           actor writer   exec 60;
           edge reader -> upsample produce 2 consume 1 bytes 8;
           edge upsample -> writer produce 3 consume 6 bytes 8;
         }",
    )
    .unwrap()
}

fn builder(graph: SdfGraph) -> SpiSystemBuilder {
    let actors: Vec<ActorId> = graph.actors().map(|(a, _)| a).collect();
    let mut builder = SpiSystemBuilder::new(graph);
    for a in actors {
        builder.actor(a, |_: &mut Firing| 1);
    }
    builder.iterations(5);
    builder
}

/// A diamond whose two middle stages HLFET runs in parallel.
fn diamond() -> SdfGraph {
    let mut g = SdfGraph::new();
    let a = g.add_actor("a", 10);
    let b = g.add_actor("b", 100);
    let c = g.add_actor("c", 100);
    let d = g.add_actor("d", 10);
    for (src, dst) in [(a, b), (a, c), (b, d), (c, d)] {
        g.add_edge(src, dst, 1, 1, 0, 4).unwrap();
    }
    g
}

/// Builds `graph` with `build_auto(2)` and with `build(2, …)` under the
/// assignment `build_auto` documents, requires the same plans and the
/// same analysis, and returns how many edges cross processors.
fn auto_matches_manual(graph: SdfGraph) -> usize {
    // HLFET at firing granularity, each actor on the processor with
    // the plurality of its firings, ties to the lowest processor.
    let vts = VtsConversion::convert(&graph).unwrap();
    let pg = PrecedenceGraph::expand(vts.graph()).unwrap();
    let firings = Assignment::hlfet(vts.graph(), &pg, 2).unwrap();
    let mut votes = vec![[0usize; 2]; graph.actor_count()];
    for &f in pg.firings() {
        votes[f.actor.0][firings.processor(f).unwrap().0] += 1;
    }
    let chosen = |a: ActorId| ProcId(usize::from(votes[a.0][1] > votes[a.0][0]));

    let auto = builder(graph.clone()).build_auto(2).unwrap();
    let manual = builder(graph).build(2, chosen).unwrap();
    let plans = |s: &spi::SpiSystem| {
        let mut plans: Vec<_> = s.edge_plans().values().map(|p| format!("{p:?}")).collect();
        plans.sort();
        plans
    };
    assert_eq!(plans(&auto), plans(&manual));
    assert_eq!(auto.analysis(), manual.analysis());
    auto.edge_plans().len()
}

#[test]
fn build_auto_lowers_what_build_lowers_under_its_assignment() {
    // HLFET keeps the converter's chain on one processor.
    assert_eq!(auto_matches_manual(dif_workflow()), 0);
    assert_eq!(auto_matches_manual(diamond()), 2);
}
