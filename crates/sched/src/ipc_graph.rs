//! The inter-processor communication (IPC) graph `G_ipc` (paper §4.1).
//!
//! Given an application graph `G` and its self-timed multiprocessor
//! schedule, `G_ipc` is built by instantiating a vertex for each task,
//! connecting an edge from each task to its successor on the same
//! processor, adding a unit-delay edge from the last task on each
//! processor back to the first, and instantiating an IPC edge for every
//! data edge of `G` that crosses processors. Each edge `v_j → v_i` with
//! delay `d` encodes the constraint
//! `start(v_i, k) ≥ end(v_j, k − d)` (paper eq. 3).
//!
//! The module also computes the paper's eq. (2) IPC buffer bound
//! `B(e) = (Γ + delay(e)) · c(e)`, where `Γ` is the delay on a
//! minimum-delay directed path that closes a cycle through `e` (the
//! number of iterations by which sender and receiver can drift apart is
//! limited by the least-delay feedback path).

use std::collections::HashMap;

use spi_dataflow::{EdgeId, Firing, PrecedenceGraph, SdfGraph};

use crate::assign::ProcId;
use crate::error::Result;
use crate::selftimed::SelfTimedSchedule;

/// Index of a task (node) in the IPC graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One task: a firing pinned to a processor with an execution estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// The firing this task executes.
    pub firing: Firing,
    /// Processor it runs on.
    pub proc: ProcId,
    /// Estimated execution cycles (from the actor's estimate).
    pub exec_cycles: u64,
}

/// Classification of IPC-graph edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpcEdgeKind {
    /// Processor-internal sequencing between consecutive tasks.
    Sequence,
    /// Unit-delay last→first edge modelling the processor's iteration
    /// loop.
    Loopback,
    /// Data + synchronization across processors, induced by a dataflow
    /// edge.
    Ipc {
        /// The application-graph edge this IPC edge transports.
        via: EdgeId,
    },
}

/// A directed edge of `G_ipc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcEdge {
    /// Source task (the `v_j` of eq. 3).
    pub from: TaskId,
    /// Destination task (the `v_i` of eq. 3).
    pub to: TaskId,
    /// Iteration delay `d` of the constraint.
    pub delay: u64,
    /// What this edge models.
    pub kind: IpcEdgeKind,
}

/// The IPC graph of a self-timed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcGraph {
    tasks: Vec<Task>,
    edges: Vec<IpcEdge>,
}

impl IpcGraph {
    /// Builds `G_ipc` from the application graph, its precedence
    /// expansion and a self-timed schedule (paper §4.1 construction).
    ///
    /// # Errors
    ///
    /// Assignment-coverage errors from the schedule's assignment.
    pub fn build(
        graph: &SdfGraph,
        pg: &PrecedenceGraph,
        schedule: &SelfTimedSchedule,
    ) -> Result<Self> {
        let mut tasks = Vec::new();
        let mut by_firing = HashMap::new();
        for (proc, order) in schedule.processors() {
            for &firing in order {
                let id = TaskId(tasks.len());
                tasks.push(Task {
                    firing,
                    proc,
                    exec_cycles: graph.actor(firing.actor).exec_cycles,
                });
                by_firing.insert(firing, id);
            }
        }

        let mut edges = Vec::new();
        // Same-processor sequencing + loopback.
        for (_, order) in schedule.processors() {
            let (Some(first), Some(last)) = (order.first(), order.last()) else {
                continue;
            };
            for w in order.windows(2) {
                edges.push(IpcEdge {
                    from: by_firing[&w[0]],
                    to: by_firing[&w[1]],
                    delay: 0,
                    kind: IpcEdgeKind::Sequence,
                });
            }
            edges.push(IpcEdge {
                from: by_firing[last],
                to: by_firing[first],
                delay: 1,
                kind: IpcEdgeKind::Loopback,
            });
        }

        // Cross-processor data edges (including inter-iteration ones).
        for p in pg.edges() {
            let from = by_firing[&p.from];
            let to = by_firing[&p.to];
            if tasks[from.0].proc != tasks[to.0].proc {
                edges.push(IpcEdge {
                    from,
                    to,
                    delay: p.delay,
                    kind: IpcEdgeKind::Ipc { via: p.via },
                });
            }
        }

        Ok(IpcGraph { tasks, edges })
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All edges.
    pub fn edges(&self) -> &[IpcEdge] {
        &self.edges
    }

    /// Task lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// The IPC (cross-processor) edges only.
    pub fn ipc_edges(&self) -> impl Iterator<Item = &IpcEdge> {
        self.edges
            .iter()
            .filter(|e| matches!(e.kind, IpcEdgeKind::Ipc { .. }))
    }

    /// Minimum-delay directed path from `from` to `to` over all edges,
    /// or `None` when unreachable (min-plus Dijkstra; all delays ≥ 0).
    ///
    /// When `from == to` this is the minimum-delay *cycle* through the
    /// task (at least one edge is traversed).
    pub fn min_delay_path(&self, from: TaskId, to: TaskId) -> Option<u64> {
        if from == to {
            return self
                .edges
                .iter()
                .filter(|e| e.from == from)
                .filter_map(|e| {
                    if e.to == to {
                        Some(e.delay)
                    } else {
                        self.dijkstra(e.to, to).map(|d| d + e.delay)
                    }
                })
                .min();
        }
        self.dijkstra(from, to)
    }

    fn dijkstra(&self, from: TaskId, to: TaskId) -> Option<u64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.tasks.len();
        let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.from.0].push((e.to.0, e.delay));
        }
        let mut dist = vec![u64::MAX; n];
        dist[from.0] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, from.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == to.0 {
                return Some(d);
            }
            for &(v, w) in &adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        None
    }

    /// Paper eq. (2): bound, in *packed tokens*, on the occupancy of the
    /// IPC buffer behind `edge`:
    /// `B(e)/c(e) = Γ + delay(e)`, with `Γ` the minimum delay on a
    /// directed feedback path from `snk(e)` to `src(e)` (the cycle it
    /// closes with `e` limits sender/receiver drift).
    ///
    /// Returns `None` when no feedback path exists — then the edge is
    /// genuinely unbounded and the UBS protocol is mandatory.
    pub fn ipc_buffer_bound_tokens(&self, edge: &IpcEdge) -> Option<u64> {
        let gamma = self.min_delay_path(edge.to, edge.from)?;
        Some(gamma + edge.delay)
    }

    /// Eq. (2) bounds folded per application edge: a dataflow edge can
    /// induce several IPC-edge instances (one per precedence instance),
    /// and a runtime buffer must cover the *worst* of them, so bounds
    /// fold with MAX; any unbounded instance makes the whole edge
    /// unbounded (`None`). This is the canonical edge→bound map used by
    /// both the SPI lowering and the analyzer's protocol lints.
    pub fn buffer_bounds_by_edge(&self) -> HashMap<EdgeId, Option<u64>> {
        let mut bounds: HashMap<EdgeId, Option<u64>> = HashMap::new();
        for e in self.ipc_edges() {
            let IpcEdgeKind::Ipc { via } = e.kind else {
                continue;
            };
            match self.ipc_buffer_bound_tokens(e) {
                Some(b) => {
                    // `None` (an unbounded instance seen earlier) is
                    // absorbing; otherwise fold with MAX.
                    let slot = bounds.entry(via).or_insert(Some(0));
                    if let Some(cur) = slot {
                        *slot = Some((*cur).max(b));
                    }
                }
                None => {
                    bounds.insert(via, None);
                }
            }
        }
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assignment;
    use spi_dataflow::SdfGraph;

    /// Two-actor producer/consumer split across two processors.
    fn two_proc() -> (SdfGraph, PrecedenceGraph, IpcGraph) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 20);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        (g, pg, ipc)
    }

    #[test]
    fn construction_has_loopbacks_and_ipc_edge() {
        let (_, _, ipc) = two_proc();
        assert_eq!(ipc.tasks().len(), 2);
        let loopbacks = ipc
            .edges()
            .iter()
            .filter(|e| e.kind == IpcEdgeKind::Loopback)
            .count();
        assert_eq!(loopbacks, 2, "one loopback per processor");
        assert_eq!(ipc.ipc_edges().count(), 1);
        let e = ipc.ipc_edges().next().unwrap();
        assert_eq!(e.delay, 0);
    }

    #[test]
    fn single_processor_has_no_ipc_edges() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 20);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 1, |_| ProcId(0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        assert_eq!(ipc.ipc_edges().count(), 0);
        let seq = ipc
            .edges()
            .iter()
            .filter(|e| e.kind == IpcEdgeKind::Sequence)
            .count();
        assert_eq!(seq, 1);
    }

    #[test]
    fn eq2_bound_on_simple_split() {
        let (_, _, ipc) = two_proc();
        let e = *ipc.ipc_edges().next().unwrap();
        // Feedback path B → (loopback, delay 1) → B? No: Γ is the min
        // delay from snk (B's task) back to src (A's task). Path:
        // B --loopback(1)--> B ... there is no B→A data edge, but the
        // loopback edges only cycle within a processor. With no feedback
        // path the bound is None? Here B and A live on different
        // processors with only the forward IPC edge — unbounded.
        assert_eq!(ipc.ipc_buffer_bound_tokens(&e), None);
    }

    #[test]
    fn eq2_bound_with_feedback_edge() {
        // A ⇄ B across two processors: feedback delay 2 bounds the buffer.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 20);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, a, 1, 1, 2, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        let forward = ipc
            .ipc_edges()
            .find(|e| e.delay == 0)
            .copied()
            .expect("forward edge");
        // Γ = 2 along the B→A feedback edge; bound = 2 + 0.
        assert_eq!(ipc.ipc_buffer_bound_tokens(&forward), Some(2));
    }

    #[test]
    fn sequence_edges_follow_schedule_order() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let c = g.add_actor("C", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, c, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 1, |_| ProcId(0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        let seqs: Vec<_> = ipc
            .edges()
            .iter()
            .filter(|e| e.kind == IpcEdgeKind::Sequence)
            .collect();
        assert_eq!(seqs.len(), 2);
        for e in seqs {
            assert!(ipc.task(e.from).firing < ipc.task(e.to).firing);
        }
    }

    #[test]
    fn min_delay_path_prefers_fewest_delays() {
        let (_, _, ipc) = two_proc();
        let t0 = TaskId(0);
        let t1 = TaskId(1);
        // A's task to B's task via the zero-delay IPC edge.
        let (src, dst) = if ipc.task(t0).firing.actor.0 == 0 {
            (t0, t1)
        } else {
            (t1, t0)
        };
        assert_eq!(ipc.min_delay_path(src, dst), Some(0));
    }

    #[test]
    fn multirate_cross_edges_expand_per_firing() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 2, 1, 0, 4).unwrap(); // q = [1, 2]
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        // Both B firings depend on A's single firing → 2 IPC edges.
        assert_eq!(ipc.ipc_edges().count(), 2);
    }
}
