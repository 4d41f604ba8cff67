//! Homogeneous SDF (single-rate) expansion and the acyclic precedence
//! graph (APG) of one graph iteration.
//!
//! Multiprocessor scheduling operates on *firings*, not actors: actor `v`
//! contributes `q[v]` task vertices per iteration. This module expands a
//! consistent SDF graph into its precedence structure using the classic
//! token-counting rule: consumer firing `j` of edge `e` (1-based) consumes
//! raw tokens `(j−1)·c+1 … j·c`; token `t` (counted past the `d` initial
//! delays) is produced by producer firing `⌈(t−d)/p⌉`. Dependencies whose
//! producer firing index falls beyond `q[src]` belong to a later iteration
//! and are recorded as *inter-iteration* edges with delay 1.

use crate::error::Result;
use crate::graph::{ActorId, EdgeId, SdfGraph};
use crate::rates::RepetitionVector;

/// One firing of one actor within an iteration: `(actor, k)` with
/// `0 ≤ k < q[actor]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Firing {
    /// The actor being fired.
    pub actor: ActorId,
    /// Zero-based firing index within the iteration.
    pub k: u64,
}

impl std::fmt::Display for Firing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.actor, self.k)
    }
}

/// A precedence edge between two firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Precedence {
    /// Producing firing.
    pub from: Firing,
    /// Consuming firing.
    pub to: Firing,
    /// The SDF edge inducing this dependence.
    pub via: EdgeId,
    /// 0 for intra-iteration dependences, ≥1 when the consumer reads
    /// tokens produced `delay` iterations earlier.
    pub delay: u64,
}

/// Ceiling division for signed numerators with positive denominators.
fn signed_div_ceil(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    (a + b - 1).div_euclid(b)
}

/// The expanded single-rate precedence graph of one SDF iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecedenceGraph {
    firings: Vec<Firing>,
    edges: Vec<Precedence>,
    q: RepetitionVector,
}

impl PrecedenceGraph {
    /// Expands `graph` into its precedence graph.
    ///
    /// # Errors
    ///
    /// Anything [`SdfGraph::repetition_vector`] can return; the graph must
    /// be pure SDF (run VTS conversion first) and consistent.
    pub fn expand(graph: &SdfGraph) -> Result<Self> {
        let q = graph.repetition_vector()?;
        let mut firings = Vec::new();
        for (a, _) in graph.actors() {
            for k in 0..q[a] {
                firings.push(Firing { actor: a, k });
            }
        }

        let mut edges = Vec::new();
        for (eid, e) in graph.edges() {
            let p = i128::from(e.produce.bound());
            let c = i128::from(e.consume.bound());
            let d = i128::from(e.delay);
            let q_src = i128::from(q[e.src]);
            for j in 1..=q[e.dst] {
                // Tokens consumed by consumer firing j (1-based token idx,
                // counted from the start of the current iteration).
                let first = i128::from(j - 1) * c + 1;
                let last = i128::from(j) * c;
                // Global producer firing index supplying token t is
                // ⌈(t−d)/p⌉; indices ≤ 0 belong to earlier iterations (in
                // steady state the initial tokens are the previous
                // iterations' products).
                let prod_first = signed_div_ceil(first - d, p);
                let prod_last = signed_div_ceil(last - d, p);
                for i_g in prod_first..=prod_last {
                    // Fold the global index into (iteration delay, k):
                    // k = (i_g−1) mod q_src, delay = −⌊(i_g−1)/q_src⌋.
                    let k_src = (i_g - 1).rem_euclid(q_src);
                    let delay = -((i_g - 1).div_euclid(q_src));
                    debug_assert!(delay >= 0, "future-iteration producer is impossible");
                    edges.push(Precedence {
                        from: Firing {
                            actor: e.src,
                            k: k_src as u64,
                        },
                        to: Firing {
                            actor: e.dst,
                            k: j - 1,
                        },
                        via: eid,
                        delay: delay as u64,
                    });
                }
            }
        }
        edges.sort_by_key(|p| (p.from, p.to, p.via.0, p.delay));
        edges.dedup();
        Ok(PrecedenceGraph { firings, edges, q })
    }

    /// All firings, grouped by actor in id order.
    pub fn firings(&self) -> &[Firing] {
        &self.firings
    }

    /// All precedence edges (including inter-iteration ones).
    pub fn edges(&self) -> &[Precedence] {
        &self.edges
    }

    /// Intra-iteration edges only: the acyclic precedence graph used for
    /// list scheduling.
    pub fn apg_edges(&self) -> impl Iterator<Item = &Precedence> {
        self.edges.iter().filter(|p| p.delay == 0)
    }

    /// The repetition vector of the source graph.
    pub fn repetitions(&self) -> &RepetitionVector {
        &self.q
    }

    /// Topological order of the intra-iteration APG.
    ///
    /// Returns `None` if the delay-0 subgraph has a cycle, which cannot
    /// happen for graphs that admit a class-S schedule (such a cycle is a
    /// deadlock); callers that have already scheduled may unwrap.
    pub fn topological_order(&self) -> Option<Vec<Firing>> {
        use std::collections::HashMap;
        let idx: HashMap<Firing, usize> = self
            .firings
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i))
            .collect();
        let n = self.firings.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for p in self.apg_edges() {
            let (u, v) = (idx[&p.from], idx[&p.to]);
            out[u].push(v);
            indeg[v] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        // Deterministic order: smallest index first.
        stack.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(self.firings[u]);
            for &v in &out[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                    stack.sort_unstable_by(|a, b| b.cmp(a));
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_chain_expands_one_to_one() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        assert_eq!(pg.firings().len(), 2);
        assert_eq!(pg.edges().len(), 1);
        let e = pg.edges()[0];
        assert_eq!(e.from, Firing { actor: a, k: 0 });
        assert_eq!(e.to, Firing { actor: b, k: 0 });
        assert_eq!(e.delay, 0);
    }

    #[test]
    fn multirate_expansion_counts_tokens() {
        // A (p=2) -> B (c=3): q = [3, 2].
        // B#0 consumes tokens 1..3 from A firings 1,2 (k=0,1).
        // B#1 consumes tokens 4..6 from A firings 2,3 (k=1,2).
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 2, 3, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        assert_eq!(pg.firings().len(), 5);
        let deps: Vec<(u64, u64)> = pg.edges().iter().map(|p| (p.from.k, p.to.k)).collect();
        assert_eq!(deps, vec![(0, 0), (1, 0), (1, 1), (2, 1)]);
        assert!(pg.edges().iter().all(|p| p.delay == 0));
    }

    #[test]
    fn delays_absorb_dependencies() {
        // With 3 initial tokens and c=3, B#0 reads only delays → no edge.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 3, 3, 3, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        // q = [1,1]; B#0's tokens 1..3 are all initial tokens, so in steady
        // state they come from the previous iteration's A: one delay-1
        // edge, nothing intra-iteration.
        assert_eq!(pg.apg_edges().count(), 0);
        let inter: Vec<_> = pg.edges().iter().filter(|p| p.delay > 0).collect();
        assert_eq!(inter.len(), 1);
        assert_eq!(inter[0].delay, 1);
    }

    #[test]
    fn feedback_cycle_becomes_inter_iteration_edge() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, a, 1, 1, 1, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let intra: Vec<_> = pg.apg_edges().collect();
        assert_eq!(intra.len(), 1, "A→B stays intra-iteration");
        let inter: Vec<_> = pg.edges().iter().filter(|p| p.delay > 0).collect();
        assert_eq!(inter.len(), 1, "B→A crosses the iteration boundary");
        assert_eq!(inter[0].delay, 1);
    }

    #[test]
    fn topological_order_respects_precedence() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let c = g.add_actor("C", 1);
        g.add_edge(a, b, 2, 1, 0, 4).unwrap();
        g.add_edge(b, c, 1, 2, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let order = pg.topological_order().unwrap();
        assert_eq!(order.len(), pg.firings().len());
        let pos = |f: Firing| order.iter().position(|&x| x == f).unwrap();
        for p in pg.apg_edges() {
            assert!(pos(p.from) < pos(p.to), "{} before {}", p.from, p.to);
        }
    }

    #[test]
    fn expansion_size_matches_repetition_vector() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let c = g.add_actor("C", 1);
        g.add_edge(a, b, 3, 2, 0, 4).unwrap();
        g.add_edge(b, c, 4, 6, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let q = pg.repetitions();
        assert_eq!(pg.firings().len() as u64, q.total_firings());
    }

    #[test]
    fn partial_delay_splits_dependencies() {
        // d=1, p=1, c=2, q=[2,1]: B#0 consumes tokens 1,2; token 1 is the
        // delay, token 2 comes from A#0.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 2, 1, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let intra: Vec<_> = pg.apg_edges().collect();
        assert_eq!(intra.len(), 1);
        assert_eq!(intra[0].from, Firing { actor: a, k: 0 });
    }
}
