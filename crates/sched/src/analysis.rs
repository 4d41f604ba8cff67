//! Throughput analysis: maximum cycle mean / cycle ratio.
//!
//! For a self-timed implementation, the asymptotic iteration period
//! equals the *maximum cycle ratio* of the synchronization graph:
//! `max over cycles C of (Σ execution time on C) / (Σ delay on C)`
//! (Sriram & Bhattacharyya). This module computes it with a
//! binary-search (Lawler) scheme over Bellman–Ford positive-cycle
//! detection — robust for the small, possibly non-strongly-connected
//! graphs that app schedules produce.

/// A generic weighted edge for cycle-ratio computation: traversing the
/// edge accrues `weight` time and consumes `delay` tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightedEdge {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Time accrued along the edge (typically `exec(from)`).
    pub weight: u64,
    /// Tokens (iteration delays) on the edge.
    pub delay: u64,
}

/// Maximum cycle ratio `max_C Σweight/Σdelay` of a directed graph.
///
/// Returns:
/// * `None` if the graph has no directed cycle;
/// * `Some(f64::INFINITY)` if some cycle has positive weight and zero
///   delay (a self-timed deadlock);
/// * the finite maximum otherwise (to ~1e-9 relative precision).
///
/// # Examples
///
/// ```
/// use spi_sched::{maximum_cycle_ratio, WeightedEdge};
///
/// // Two-node loop: 10 + 20 cycles of work, 1 token → period 30.
/// let edges = [
///     WeightedEdge { from: 0, to: 1, weight: 10, delay: 0 },
///     WeightedEdge { from: 1, to: 0, weight: 20, delay: 1 },
/// ];
/// let mcr = maximum_cycle_ratio(2, &edges).expect("cyclic");
/// assert!((mcr - 30.0).abs() < 1e-6);
/// ```
pub fn maximum_cycle_ratio(n: usize, edges: &[WeightedEdge]) -> Option<f64> {
    if n == 0 || edges.is_empty() {
        return None;
    }
    if !has_cycle(n, edges, |_| true) {
        return None;
    }
    // Zero-delay positive-weight cycle → infinite ratio.
    if has_cycle(n, edges, |e| e.delay == 0) {
        // Check the zero-delay cycle actually accrues weight; a cycle of
        // zero-weight zero-delay edges is a degenerate no-op.
        if has_positive_cycle(n, edges, f64::INFINITY) {
            return Some(f64::INFINITY);
        }
    }

    let mut lo = 0.0_f64;
    let mut hi: f64 = edges.iter().map(|e| e.weight as f64).sum::<f64>().max(1.0);
    // λ < MCR  ⟺  a positive cycle exists under weights w − λ·d.
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if has_positive_cycle(n, edges, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Classic parallel-speedup bounds of one graph iteration: the total
/// work and the critical path of the delay-0 precedence structure.
/// `speedup ≤ min(n, total_work / critical_path)`; the figures-6/7
/// saturation points follow directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeedupBounds {
    /// Σ execution cycles of every firing in one iteration.
    pub total_work_cycles: u64,
    /// Longest dependence chain (cycles) within one iteration.
    pub critical_path_cycles: u64,
}

impl SpeedupBounds {
    /// The asymptotic speedup limit `total / critical` (Brent's bound).
    pub fn max_speedup(&self) -> f64 {
        self.total_work_cycles as f64 / self.critical_path_cycles.max(1) as f64
    }
}

/// Computes [`SpeedupBounds`] for one iteration of a consistent graph.
///
/// # Errors
///
/// Anything [`spi_dataflow::PrecedenceGraph::expand`] can return, and
/// [`spi_dataflow::DataflowError::Deadlock`] naming the actors whose
/// firings sit on or behind a delay-0 precedence cycle.
pub fn speedup_bounds(
    graph: &spi_dataflow::SdfGraph,
) -> Result<SpeedupBounds, spi_dataflow::DataflowError> {
    let pg = spi_dataflow::PrecedenceGraph::expand(graph)?;
    let firings = pg.firings();
    let exec = |i: usize| graph.actor(firings[i].actor).exec_cycles;
    let total_work_cycles: u64 = (0..firings.len()).map(exec).sum();

    let idx: std::collections::HashMap<spi_dataflow::Firing, usize> =
        firings.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let apg: Vec<(usize, usize)> = pg.apg_edges().map(|e| (idx[&e.from], idx[&e.to])).collect();
    let mut preds = vec![Vec::new(); firings.len()];
    for &(u, v) in &apg {
        preds[v].push(u);
    }
    let order = topological_order(firings.len(), apg).map_err(|stuck| {
        let mut starved: Vec<_> = stuck.into_iter().map(|i| firings[i].actor).collect();
        starved.sort_unstable();
        starved.dedup();
        spi_dataflow::DataflowError::Deadlock { starved }
    })?;
    let mut finish = vec![0u64; firings.len()];
    for u in order {
        let ready = preds[u].iter().map(|&p| finish[p]).max().unwrap_or(0);
        finish[u] = ready + exec(u);
    }
    Ok(SpeedupBounds {
        total_work_cycles,
        critical_path_cycles: finish.into_iter().max().unwrap_or(0),
    })
}

/// Kahn's algorithm over nodes `0..n` and the `(from, to)` pairs of
/// `edges`: a topological order, or `Err` with the nodes that never
/// drain (each lies on a cycle or downstream of one), in index order.
pub(crate) fn topological_order(
    n: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> Result<Vec<usize>, Vec<usize>> {
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (u, v) in edges {
        succ[u].push(v);
        indeg[v] += 1;
    }
    // The order doubles as the work queue: `order[head..]` is ready.
    let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        for &v in &succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                order.push(v);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err((0..n).filter(|&i| indeg[i] > 0).collect())
    }
}

/// The min-plus path-delay table over nodes `0..n` and the
/// `(from, to, delay)` triples of `edges` (Floyd–Warshall):
/// `dist[u][v]` is the least total delay on a `u → v` path (0 for
/// `u == v`, `u64::MAX` when unreachable) and `next[u][v]` the first hop
/// of one such path (`usize::MAX` when unreachable). Of parallel edges
/// the first listed of the least delay sets the hop.
///
/// This is the one place the crate computes that quantity: eq. (2)'s Γ,
/// redundant-edge removal, resynchronization, its witness paths and the
/// analyzer's SPI050 coverage check all read this table.
pub(crate) struct PathDelays {
    pub(crate) dist: Vec<Vec<u64>>,
    pub(crate) next: Vec<Vec<usize>>,
}

impl PathDelays {
    pub(crate) fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize, u64)>) -> Self {
        let mut dist = vec![vec![u64::MAX; n]; n];
        let mut next = vec![vec![usize::MAX; n]; n];
        for i in 0..n {
            dist[i][i] = 0;
            next[i][i] = i;
        }
        for (u, v, delay) in edges {
            if delay < dist[u][v] {
                dist[u][v] = delay;
                next[u][v] = v;
            }
        }
        for k in 0..n {
            for i in 0..n {
                if dist[i][k] == u64::MAX {
                    continue;
                }
                for j in 0..n {
                    if dist[k][j] == u64::MAX {
                        continue;
                    }
                    let via = dist[i][k] + dist[k][j];
                    if via < dist[i][j] {
                        dist[i][j] = via;
                        next[i][j] = next[i][k];
                    }
                }
            }
        }
        PathDelays { dist, next }
    }

    /// The nodes along the recorded least-delay `u → v` path, endpoints
    /// inclusive, or `None` when `v` is unreachable from `u` (Floyd–
    /// Warshall's path reconstruction, exact when no cycle has negative
    /// delay).
    pub(crate) fn path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        if self.next[u][v] == usize::MAX {
            return None;
        }
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            cur = self.next[cur][v];
            path.push(cur);
        }
        Some(path)
    }
}

/// Cycle detection over the subgraph of edges passing `filter`.
fn has_cycle(n: usize, edges: &[WeightedEdge], filter: impl Fn(&WeightedEdge) -> bool) -> bool {
    let kept = edges.iter().filter(|e| filter(e)).map(|e| (e.from, e.to));
    topological_order(n, kept).is_err()
}

/// Does a cycle with `Σ(w − λ·d) > 0` exist? (Bellman–Ford, run from a
/// virtual super-source so disconnected components are covered.)
///
/// For `λ = ∞` the test degenerates to: does a positive-weight cycle of
/// zero-delay edges exist?
fn has_positive_cycle(n: usize, edges: &[WeightedEdge], lambda: f64) -> bool {
    let cost = |e: &WeightedEdge| -> f64 {
        if lambda.is_infinite() {
            if e.delay > 0 {
                return f64::NEG_INFINITY;
            }
            e.weight as f64
        } else {
            e.weight as f64 - lambda * e.delay as f64
        }
    };
    // Longest-path relaxation; start every node at 0 (super-source).
    let mut dist = vec![0.0_f64; n];
    for _ in 0..n {
        let mut changed = false;
        for e in edges {
            let c = cost(e);
            if c == f64::NEG_INFINITY {
                continue;
            }
            let cand = dist[e.from] + c;
            if cand > dist[e.to] + 1e-12 {
                dist[e.to] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    // Still relaxing after n rounds → positive cycle.
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_loop_ratio() {
        let edges = [
            WeightedEdge {
                from: 0,
                to: 1,
                weight: 5,
                delay: 0,
            },
            WeightedEdge {
                from: 1,
                to: 0,
                weight: 7,
                delay: 2,
            },
        ];
        let mcr = maximum_cycle_ratio(2, &edges).unwrap();
        assert!((mcr - 6.0).abs() < 1e-6, "(5+7)/2 = 6, got {mcr}");
    }

    #[test]
    fn acyclic_graph_has_no_ratio() {
        let edges = [
            WeightedEdge {
                from: 0,
                to: 1,
                weight: 5,
                delay: 0,
            },
            WeightedEdge {
                from: 1,
                to: 2,
                weight: 5,
                delay: 3,
            },
        ];
        assert_eq!(maximum_cycle_ratio(3, &edges), None);
    }

    #[test]
    fn zero_delay_cycle_is_infinite() {
        let edges = [
            WeightedEdge {
                from: 0,
                to: 1,
                weight: 5,
                delay: 0,
            },
            WeightedEdge {
                from: 1,
                to: 0,
                weight: 5,
                delay: 0,
            },
        ];
        assert_eq!(maximum_cycle_ratio(2, &edges), Some(f64::INFINITY));
    }

    #[test]
    fn max_over_multiple_cycles() {
        // Cycle A: ratio 10/1 = 10. Cycle B: ratio 30/2 = 15 → MCR 15.
        let edges = [
            WeightedEdge {
                from: 0,
                to: 0,
                weight: 10,
                delay: 1,
            },
            WeightedEdge {
                from: 1,
                to: 2,
                weight: 10,
                delay: 1,
            },
            WeightedEdge {
                from: 2,
                to: 1,
                weight: 20,
                delay: 1,
            },
        ];
        let mcr = maximum_cycle_ratio(3, &edges).unwrap();
        assert!((mcr - 15.0).abs() < 1e-6, "got {mcr}");
    }

    #[test]
    fn disconnected_components_both_considered() {
        let edges = [
            WeightedEdge {
                from: 0,
                to: 0,
                weight: 4,
                delay: 2,
            },
            WeightedEdge {
                from: 3,
                to: 3,
                weight: 9,
                delay: 1,
            },
        ];
        let mcr = maximum_cycle_ratio(4, &edges).unwrap();
        assert!((mcr - 9.0).abs() < 1e-6);
    }

    #[test]
    fn empty_graph_is_none() {
        assert_eq!(maximum_cycle_ratio(0, &[]), None);
        assert_eq!(maximum_cycle_ratio(5, &[]), None);
    }

    #[test]
    fn speedup_bounds_on_fork_join() {
        // A(10) → {B(100), C(100)} → D(10): work 220, critical 120.
        let mut g = spi_dataflow::SdfGraph::new();
        let a = g.add_actor("a", 10);
        let b = g.add_actor("b", 100);
        let c = g.add_actor("c", 100);
        let d = g.add_actor("d", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(a, c, 1, 1, 0, 4).unwrap();
        g.add_edge(b, d, 1, 1, 0, 4).unwrap();
        g.add_edge(c, d, 1, 1, 0, 4).unwrap();
        let bounds = speedup_bounds(&g).unwrap();
        assert_eq!(bounds.total_work_cycles, 220);
        assert_eq!(bounds.critical_path_cycles, 120);
        assert!((bounds.max_speedup() - 220.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_bounds_serial_chain_is_one() {
        let mut g = spi_dataflow::SdfGraph::new();
        let a = g.add_actor("a", 50);
        let b = g.add_actor("b", 50);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        let bounds = speedup_bounds(&g).unwrap();
        assert_eq!(bounds.total_work_cycles, bounds.critical_path_cycles);
        assert!((bounds.max_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_bounds_names_the_actors_of_a_deadlocked_cycle() {
        // c feeds a ⇄ b, a cycle with no initial token: c drains, a and
        // b never do.
        let mut g = spi_dataflow::SdfGraph::new();
        let c = g.add_actor("c", 1);
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_edge(c, a, 1, 1, 0, 4).unwrap();
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, a, 1, 1, 0, 4).unwrap();
        let starved = vec![a, b];
        let err = speedup_bounds(&g).unwrap_err();
        assert_eq!(err, spi_dataflow::DataflowError::Deadlock { starved });
    }

    #[test]
    fn topological_order_or_the_undrained_nodes() {
        assert_eq!(topological_order(3, [(2, 1), (1, 0)]), Ok(vec![2, 1, 0]));
        // 0 → 1 ⇄ 2 → 3: node 0 drains, the cycle and what it feeds do not.
        let edges = [(0, 1), (1, 2), (2, 1), (2, 3)];
        assert_eq!(topological_order(4, edges), Err(vec![1, 2, 3]));
    }

    #[test]
    fn zero_weight_zero_delay_cycle_is_not_infinite() {
        // A degenerate cycle that costs nothing should not report deadlock;
        // the other cycle dominates.
        let edges = [
            WeightedEdge {
                from: 0,
                to: 1,
                weight: 0,
                delay: 0,
            },
            WeightedEdge {
                from: 1,
                to: 0,
                weight: 0,
                delay: 0,
            },
            WeightedEdge {
                from: 2,
                to: 2,
                weight: 8,
                delay: 4,
            },
        ];
        let mcr = maximum_cycle_ratio(3, &edges).unwrap();
        assert!((mcr - 2.0).abs() < 1e-6, "got {mcr}");
    }
}
