//! SPI010 — rate-consistency explainer.
//!
//! The scheduler's repetition-vector computation reports *that* a graph
//! is inconsistent; this pass explains *why*: it propagates exact
//! rational firing ratios over a spanning tree and, for the first edge
//! whose rates contradict the propagated ratios, reconstructs the
//! undirected cycle that forces the contradiction and names the two
//! conflicting rate pairs.
//!
//! Dynamic edges are treated as the rate-1 packed-token edges the VTS
//! conversion (§3) turns them into, matching what the scheduler sees.

use std::collections::HashMap;

use spi_dataflow::{ActorId, EdgeId};

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// An exact nonnegative rational, kept reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Ratio {
    num: u128,
    den: u128,
}

impl Ratio {
    const ONE: Ratio = Ratio { num: 1, den: 1 };

    fn gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a.max(1)
    }

    fn reduced(num: u128, den: u128) -> Ratio {
        let g = Ratio::gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// `self * p / c`; rates fit u32 so u128 cannot overflow here for
    /// any graph small enough to schedule.
    fn scale(self, p: u32, c: u32) -> Ratio {
        Ratio::reduced(self.num * u128::from(p), self.den * u128::from(c))
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Effective static rates of an edge: dynamic edges pack to rate 1:1.
fn effective_rates(e: &spi_dataflow::Edge) -> (u32, u32) {
    if e.is_dynamic() {
        (1, 1)
    } else {
        (e.produce.bound(), e.consume.bound())
    }
}

/// Explains inconsistent SDF rate systems with a concrete cycle.
pub struct RateConsistency;

impl Pass for RateConsistency {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let g = input.graph;
        // Zero rates make the ratios meaningless; SPI002 already fired.
        if g.edges().any(|(_, e)| {
            let (p, c) = effective_rates(e);
            p == 0 || c == 0
        }) {
            return;
        }

        // q: actor -> exact firing ratio relative to its component root.
        let mut q: HashMap<ActorId, Ratio> = HashMap::new();
        // parent: BFS tree edge used to reach each actor.
        let mut parent: HashMap<ActorId, (ActorId, EdgeId)> = HashMap::new();

        // Undirected adjacency: (neighbor, edge, forward?).
        let mut adj: HashMap<ActorId, Vec<(ActorId, EdgeId, bool)>> = HashMap::new();
        for (id, e) in g.edges() {
            adj.entry(e.src).or_default().push((e.dst, id, true));
            adj.entry(e.dst).or_default().push((e.src, id, false));
        }

        for (root, _) in g.actors() {
            if q.contains_key(&root) {
                continue;
            }
            q.insert(root, Ratio::ONE);
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                let qu = q[&u];
                for &(v, eid, forward) in adj.get(&u).map(Vec::as_slice).unwrap_or(&[]) {
                    let e = g.edge(eid);
                    let (p, c) = effective_rates(e);
                    // Crossing src -> dst multiplies by p/c; the reverse
                    // direction by c/p.
                    let qv = if forward {
                        qu.scale(p, c)
                    } else {
                        qu.scale(c, p)
                    };
                    match q.get(&v) {
                        None => {
                            q.insert(v, qv);
                            parent.insert(v, (u, eid));
                            queue.push_back(v);
                        }
                        Some(&assigned) if assigned != qv => {
                            out.push(explain(input, &parent, eid, root, assigned, qv));
                            // One witness per component keeps the report
                            // readable; further contradictions in this
                            // component follow from the same cycle.
                            return;
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }
}

/// Builds the SPI010 diagnostic: reconstruct the cycle closed by
/// `bad_edge` through the BFS tree and show both conflicting ratios.
fn explain(
    input: &AnalysisInput<'_>,
    parent: &HashMap<ActorId, (ActorId, EdgeId)>,
    bad_edge: EdgeId,
    root: ActorId,
    assigned: Ratio,
    implied: Ratio,
) -> Diagnostic {
    let g = input.graph;
    let e = g.edge(bad_edge);
    let (p, c) = effective_rates(e);

    let path_to = |mut x: ActorId| {
        let mut path = vec![x];
        while x != root {
            let (up, _) = parent[&x];
            path.push(up);
            x = up;
        }
        path.reverse();
        path
    };
    let ps = path_to(e.src);
    let pd = path_to(e.dst);
    let mut lca = 0;
    while lca < ps.len() && lca < pd.len() && ps[lca] == pd[lca] {
        lca += 1;
    }
    // Cycle: LCA .. src, then dst .. back down to just above the LCA.
    let mut cycle: Vec<ActorId> = ps[lca.saturating_sub(1)..].to_vec();
    cycle.extend(pd[lca..].iter().rev());
    let names: Vec<String> = cycle.iter().map(|&a| input.actor_name(a)).collect();

    Diagnostic::new(
        "SPI010",
        Severity::Error,
        Locus::Cycle(cycle.clone()),
        format!(
            "rates are inconsistent around the cycle {}: edge {bad_edge} \
             ({} -> {}) produces {p} and consumes {c}, which implies \
             q({}) = {implied}, but the rest of the cycle fixes \
             q({}) = {assigned}; no integer repetition vector satisfies both",
            names.join(" -> "),
            input.actor_name(e.src),
            input.actor_name(e.dst),
            input.actor_name(e.dst),
            input.actor_name(e.dst),
        ),
    )
    .with_suggestion(format!(
        "adjust the production/consumption rates on edge {bad_edge} (or another \
         edge of the cycle) so the balance equations agree"
    ))
}
