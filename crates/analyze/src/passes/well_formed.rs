//! Graph well-formedness: SPI001 (unconnected actor), SPI002 (zero
//! rate), SPI003 (underdelayed self-loop), SPI004 (disconnected
//! subgraph).

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Structural checks that need nothing but the graph itself.
pub struct WellFormedness;

impl Pass for WellFormedness {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let g = input.graph;

        // SPI002 / SPI003: per-edge rate and self-loop checks.
        for (id, e) in g.edges() {
            for (port, rate) in [("produces", e.produce), ("consumes", e.consume)] {
                if rate.bound() == 0 {
                    out.push(
                        Diagnostic::new(
                            "SPI002",
                            Severity::Error,
                            Locus::Edge(id),
                            format!(
                                "edge {id} ({} -> {}) {port} 0 tokens per firing; \
                                 no finite repetition vector exists",
                                input.actor_name(e.src),
                                input.actor_name(e.dst),
                            ),
                        )
                        .with_suggestion("give every port a positive rate (or rate bound)"),
                    );
                }
            }
            if e.src == e.dst && e.delay < u64::from(e.consume.bound()) && e.consume.bound() > 0 {
                out.push(
                    Diagnostic::new(
                        "SPI003",
                        Severity::Error,
                        Locus::Edge(id),
                        format!(
                            "self-loop {id} on {} carries {} initial token(s) but each firing \
                             consumes {}; the actor can never fire",
                            input.actor_name(e.src),
                            e.delay,
                            e.consume.bound(),
                        ),
                    )
                    .with_suggestion(format!(
                        "set delay >= {} on the self-loop",
                        e.consume.bound()
                    )),
                );
            }
        }

        // SPI001: actors touching no edge at all. A single-actor system
        // is legitimately edge-free, so only flag when peers exist.
        if g.actor_count() > 1 {
            for (id, a) in g.actors() {
                if g.out_edges(id).is_empty() && g.in_edges(id).is_empty() {
                    out.push(
                        Diagnostic::new(
                            "SPI001",
                            Severity::Warning,
                            Locus::Actor(id),
                            format!("actor {} is not connected to any edge", a.name),
                        )
                        .with_suggestion("connect the actor or remove it from the graph"),
                    );
                }
            }
        }

        // SPI004: weakly-connected components among actors that do have
        // edges. Isolated actors are already SPI001.
        let n = g.actor_count();
        if n > 0 {
            let mut comp: Vec<usize> = (0..n).collect();
            fn find(comp: &mut [usize], x: usize) -> usize {
                let mut root = x;
                while comp[root] != root {
                    root = comp[root];
                }
                let mut cur = x;
                while comp[cur] != root {
                    let next = comp[cur];
                    comp[cur] = root;
                    cur = next;
                }
                root
            }
            for (_, e) in g.edges() {
                let (a, b) = (find(&mut comp, e.src.0), find(&mut comp, e.dst.0));
                if a != b {
                    comp[a] = b;
                }
            }
            let connected: Vec<spi_dataflow::ActorId> = g
                .actors()
                .filter(|(id, _)| !g.out_edges(*id).is_empty() || !g.in_edges(*id).is_empty())
                .map(|(id, _)| id)
                .collect();
            if let Some(&first) = connected.first() {
                let main = find(&mut comp, first.0);
                let mut seen = std::collections::HashSet::new();
                for &id in &connected[1..] {
                    let root = find(&mut comp, id.0);
                    if root != main && seen.insert(root) {
                        let members: Vec<String> = connected
                            .iter()
                            .filter(|&&a| find(&mut comp, a.0) == root)
                            .map(|&a| input.actor_name(a))
                            .collect();
                        out.push(
                            Diagnostic::new(
                                "SPI004",
                                Severity::Warning,
                                Locus::Actor(id),
                                format!(
                                    "actors {{{}}} form a subgraph disconnected from {}; \
                                     they share no data and need not be one system",
                                    members.join(", "),
                                    input.actor_name(first),
                                ),
                            )
                            .with_suggestion(
                                "split the graph into independent systems or connect the parts",
                            ),
                        );
                    }
                }
            }
        }
    }
}
