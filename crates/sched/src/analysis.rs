//! Throughput analysis: the maximum cycle ratio, exactly.
//!
//! For a self-timed implementation, the asymptotic iteration period
//! equals the *maximum cycle ratio* of the synchronization graph:
//! `max over cycles C of (Σ execution time on C) / (Σ delay on C)`
//! (Sriram & Bhattacharyya). This module computes it with Howard's
//! policy iteration (Cochet-Terrasson et al. 1998) over the integer
//! weights and delays, so the ratio comes back as the exact pair of sums
//! of one critical cycle — robust for the small, possibly
//! non-strongly-connected graphs that app schedules produce.

use std::cmp::Ordering;

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

/// The ratio `weight / delay` of a cycle, kept as the exact pair of its
/// sums. Equality and order are by value (`6/2 == 3/1`). A positive
/// weight over zero delay is +∞ (a self-timed deadlock); `0/0`, a cycle
/// that costs nothing and holds no token, constrains nothing and reads
/// as 0.
#[derive(Debug, Clone, Copy)]
pub struct CycleRatio {
    /// Σ weight along the cycle.
    pub weight: u64,
    /// Σ delay along the cycle.
    pub delay: u64,
}

impl CycleRatio {
    /// `true` for a positive weight over zero delay.
    pub fn is_infinite(self) -> bool {
        self.delay == 0 && self.weight > 0
    }

    /// The ratio as a float, for display and wall-clock arithmetic.
    pub fn as_f64(self) -> f64 {
        let (num, den) = self.terms();
        match den {
            0 => f64::INFINITY,
            _ => num as f64 / den as f64,
        }
    }

    /// Numerator and denominator with `0/0` read as `0/1` and every
    /// infinite ratio as `1/0`, so cross-multiplication orders them.
    fn terms(self) -> (u64, u64) {
        match (self.weight, self.delay) {
            (0, 0) => (0, 1),
            (_, 0) => (1, 0),
            terms => terms,
        }
    }

    /// The same value in lowest terms (`0/1` for zero).
    fn reduced(self) -> CycleRatio {
        let (num, den) = self.terms();
        let g = spi_dataflow::gcd(num, den);
        CycleRatio {
            weight: num / g,
            delay: den / g,
        }
    }
}

impl PartialEq for CycleRatio {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for CycleRatio {}

impl PartialOrd for CycleRatio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CycleRatio {
    fn cmp(&self, other: &Self) -> Ordering {
        let ((a, b), (c, d)) = (self.terms(), other.terms());
        (u128::from(a) * u128::from(d)).cmp(&(u128::from(c) * u128::from(b)))
    }
}

/// A cycle of maximum ratio: its ratio and its edges, as indices into
/// the edge list given to [`maximum_cycle_ratio`], in traversal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalCycle {
    /// Σ weight and Σ delay of [`CriticalCycle::edges`].
    pub ratio: CycleRatio,
    /// The cycle's edges; each one's `to` is the next one's `from`, and
    /// the last one's `to` is the first one's `from`.
    pub edges: Vec<usize>,
}

/// Maximum cycle ratio `max_C Σweight/Σdelay` of a directed graph over
/// nodes `0..n`, with one cycle that attains it.
///
/// Returns `None` if the graph has no directed cycle. A cycle with
/// positive weight and zero delay (a self-timed deadlock) gives an
/// infinite ratio; a graph whose only cycles weigh nothing gives 0.
///
/// Howard's policy iteration: every node that reaches a cycle follows
/// one out-edge (its policy), each node takes the ratio of the policy
/// cycle it runs into and a potential relative to that cycle, and a node
/// switches to an edge that leads to a larger ratio, or at an equal
/// ratio to a larger potential, until none can. Ratios and potentials
/// are integers (potentials are scaled by the ratio's reduced
/// denominator), so every comparison is exact and the iteration stops.
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
/// let critical = maximum_cycle_ratio(2, &edges).expect("cyclic");
/// assert_eq!((critical.ratio.weight, critical.ratio.delay), (30, 1));
/// assert_eq!(critical.edges, [0, 1]);
/// ```
pub fn maximum_cycle_ratio(n: usize, edges: &[WeightedEdge]) -> Option<CriticalCycle> {
    // Kahn's algorithm on the reversed graph drains exactly the nodes
    // that reach no cycle; the others are live.
    let live = topological_order(n, edges.iter().map(|e| (e.to, e.from))).err()?;
    let mut alive = vec![false; n];
    for &u in &live {
        alive[u] = true;
    }
    let kept: Vec<usize> = (0..edges.len()).filter(|&i| alive[edges[i].to]).collect();
    // Every live node starts on its heaviest out-edge.
    let mut policy = vec![usize::MAX; n];
    for &i in &kept {
        let u = edges[i].from;
        if policy[u] == usize::MAX || edges[i].weight > edges[policy[u]].weight {
            policy[u] = i;
        }
    }
    let zero = CycleRatio {
        weight: 0,
        delay: 1,
    };
    let mut howard = Howard {
        edges,
        live,
        policy,
        ratio: vec![zero; n],
        value: vec![0; n],
    };
    loop {
        let best = match howard.evaluate() {
            Ok(best) => best,
            Err(deadlock) => return Some(howard.cycle(deadlock)),
        };
        if !howard.improve(&kept) {
            return Some(howard.cycle(best));
        }
    }
}

/// Howard's policy-iteration state: the edge each live node follows,
/// the ratio (in lowest terms) of the policy cycle it runs into, and its
/// potential relative to that cycle's root, scaled by the ratio's
/// denominator.
struct Howard<'a> {
    edges: &'a [WeightedEdge],
    live: Vec<usize>,
    policy: Vec<usize>,
    ratio: Vec<CycleRatio>,
    value: Vec<i128>,
}

impl Howard<'_> {
    /// `w − ratio · d` for edge `e`, scaled by the ratio's denominator.
    fn cost(&self, e: usize, ratio: CycleRatio) -> i128 {
        let e = &self.edges[e];
        let (num, den) = (i128::from(ratio.weight), i128::from(ratio.delay));
        den * i128::from(e.weight) - num * i128::from(e.delay)
    }

    /// The node `u`'s policy edge leads to.
    fn next(&self, u: usize) -> usize {
        self.edges[self.policy[u]].to
    }

    /// Value determination: the ratio and potential of every live node
    /// under the current policy. Returns a node on a policy cycle of the
    /// largest ratio, or `Err` with a node on a positive zero-delay
    /// cycle, whose infinite ratio nothing beats.
    fn evaluate(&mut self) -> Result<usize, usize> {
        // 0: not reached yet, 1: on the walk in progress, 2: evaluated.
        let mut state = vec![0u8; self.policy.len()];
        let (mut walk, mut best) = (Vec::new(), None::<(CycleRatio, usize)>);
        for &start in &self.live {
            let mut u = start;
            walk.clear();
            while state[u] == 0 {
                state[u] = 1;
                walk.push(u);
                u = self.next(u);
            }
            let mut tree = walk.len();
            if state[u] == 1 {
                // `u` closes a new policy cycle, `walk[at..]`.
                let at = walk.iter().position(|&x| x == u).unwrap_or(0);
                let sum = self.sum(walk[at..].iter().map(|&x| self.policy[x]));
                if sum.is_infinite() {
                    return Err(u);
                }
                if best.is_none_or(|(b, _)| sum > b) {
                    best = Some((sum, u));
                }
                // The root is the cycle's least node, at potential 0: a
                // cycle an improvement left intact keeps its potentials,
                // which is what makes the iteration terminate. Rotated to
                // the walk's end, every other node follows it backwards.
                let root = (at..walk.len()).min_by_key(|&i| walk[i]).unwrap_or(at);
                walk[at..].rotate_left(root - at + 1);
                tree -= 1;
                let root = walk[tree];
                (self.ratio[root], self.value[root], state[root]) = (sum.reduced(), 0, 2);
            }
            for &x in walk[..tree].iter().rev() {
                let next = self.next(x);
                self.ratio[x] = self.ratio[next];
                self.value[x] = self.cost(self.policy[x], self.ratio[x]) + self.value[next];
                state[x] = 2;
            }
        }
        // Every live node reaches a policy cycle, so one was found.
        Ok(best.map_or(self.live[0], |(_, u)| u))
    }

    /// Policy improvement over the `kept` edges (those into live nodes).
    /// First order: a node moves to the out-edge whose head reaches the
    /// largest ratio, if that beats its own. Only when no node can,
    /// second order: among the edges to an equal ratio, a node moves to
    /// the one of strictly largest potential. Returns whether any moved.
    fn improve(&mut self, kept: &[usize]) -> bool {
        let mut choice = vec![usize::MAX; self.policy.len()];
        let mut best = self.ratio.clone();
        for &i in kept {
            let (u, v) = (self.edges[i].from, self.edges[i].to);
            if self.ratio[v] > best[u] {
                (best[u], choice[u]) = (self.ratio[v], i);
            }
        }
        if choice.iter().all(|&c| c == usize::MAX) {
            let mut best = self.value.clone();
            for &i in kept {
                let (u, v) = (self.edges[i].from, self.edges[i].to);
                let potential = self.cost(i, self.ratio[u]) + self.value[v];
                if self.ratio[v] == self.ratio[u] && potential > best[u] {
                    (best[u], choice[u]) = (potential, i);
                }
            }
        }
        let mut moved = false;
        for (u, &c) in choice.iter().enumerate().filter(|&(_, &c)| c != usize::MAX) {
            self.policy[u] = c;
            moved = true;
        }
        moved
    }

    /// The policy cycle through `u`, with its exact sums.
    fn cycle(&self, u: usize) -> CriticalCycle {
        let (mut edges, mut x) = (Vec::new(), u);
        loop {
            edges.push(self.policy[x]);
            x = self.next(x);
            if x == u {
                let ratio = self.sum(edges.iter().copied());
                return CriticalCycle { ratio, edges };
            }
        }
    }

    /// Σ weight and Σ delay over `edges`.
    fn sum(&self, edges: impl Iterator<Item = usize>) -> CycleRatio {
        let (weight, delay) = edges.fold((0, 0), |(w, d), i| {
            (w + self.edges[i].weight, d + self.edges[i].delay)
        });
        CycleRatio { weight, delay }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Σ weight and Σ delay of the critical cycle.
    fn sums(n: usize, edges: &[WeightedEdge]) -> Option<(u64, u64)> {
        maximum_cycle_ratio(n, edges).map(|c| (c.ratio.weight, c.ratio.delay))
    }

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
        // (5 + 7) / 2, through both edges.
        assert_eq!(sums(2, &edges), Some((12, 2)));
        assert_eq!(maximum_cycle_ratio(2, &edges).unwrap().edges, [0, 1]);
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
        let critical = maximum_cycle_ratio(2, &edges).unwrap();
        assert!(critical.ratio.is_infinite());
        assert_eq!(critical.ratio.as_f64(), f64::INFINITY);
        assert_eq!(sums(2, &edges), Some((10, 0)));
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
        assert_eq!(sums(3, &edges), Some((30, 2)));
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
        assert_eq!(sums(4, &edges), Some((9, 1)));
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
        assert_eq!(sums(3, &edges), Some((8, 4)));
    }

    #[test]
    fn a_lone_weightless_tokenless_cycle_is_exactly_zero() {
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
        ];
        let critical = maximum_cycle_ratio(2, &edges).unwrap();
        assert_eq!((critical.ratio.weight, critical.ratio.delay), (0, 0));
        assert_eq!(critical.ratio.as_f64(), 0.0);
        assert_eq!(
            critical.ratio,
            CycleRatio {
                weight: 0,
                delay: 7
            }
        );
    }

    #[test]
    fn ratios_compare_by_value() {
        let r = |weight, delay| CycleRatio { weight, delay };
        assert_eq!(r(6, 2), r(3, 1));
        assert!(r(7, 2) > r(3, 1));
        assert!(r(1, 0) > r(u64::MAX, 1));
        assert_eq!(r(1, 0), r(5, 0));
        assert!(r(0, 0) < r(1, 9));
        let lowest = |r: CycleRatio| (r.reduced().weight, r.reduced().delay);
        assert_eq!(lowest(r(0, 0)), (0, 1));
        assert_eq!(lowest(r(12, 8)), (3, 2));
    }

    #[test]
    fn nodes_that_reach_no_cycle_are_skipped() {
        // 0 → 1 → 2 ⇄ 3, with 2 ⇄ 3 the only cycle; 4 is a sink.
        let e = |from, to, weight, delay| WeightedEdge {
            from,
            to,
            weight,
            delay,
        };
        let edges = [
            e(0, 1, 50, 0),
            e(1, 2, 50, 0),
            e(2, 3, 4, 1),
            e(3, 2, 6, 1),
            e(3, 4, 99, 0),
        ];
        let critical = maximum_cycle_ratio(5, &edges).unwrap();
        assert_eq!((critical.ratio.weight, critical.ratio.delay), (10, 2));
        let mut cycle = critical.edges.clone();
        cycle.sort_unstable();
        assert_eq!(cycle, [2, 3]);
    }
}
