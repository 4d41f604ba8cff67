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

use crate::analysis::PathDelays;
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

    /// Paper eq. (2) per application edge, in *packed tokens*:
    /// `B(e)/c(e) = Γ + delay(e)`, with `Γ` the minimum delay on a
    /// directed feedback path from `snk(e)` to `src(e)` (the cycle it
    /// closes with `e` limits sender/receiver drift). `None` means no
    /// feedback path exists — the edge is genuinely unbounded and the
    /// UBS protocol is mandatory.
    ///
    /// A dataflow edge can induce several IPC-edge instances (one per
    /// precedence instance), and a runtime buffer must cover the *worst*
    /// of them, so bounds fold with MAX; any unbounded instance makes
    /// the whole edge unbounded. This is the canonical edge→bound map
    /// used by both the SPI lowering and the analyzer's protocol lints.
    pub fn buffer_bounds_by_edge(&self) -> HashMap<EdgeId, Option<u64>> {
        let delays = PathDelays::new(
            self.tasks.len(),
            self.edges.iter().map(|e| (e.from.0, e.to.0, e.delay)),
        );
        let mut bounds: HashMap<EdgeId, Option<u64>> = HashMap::new();
        for e in self.ipc_edges() {
            let IpcEdgeKind::Ipc { via } = e.kind else {
                continue;
            };
            // An IPC edge crosses processors, so `to != from` and Γ is a
            // path, never the empty one.
            match delays.dist[e.to.0][e.from.0] {
                u64::MAX => {
                    bounds.insert(via, None);
                }
                gamma => {
                    // `None` (an unbounded instance seen earlier) is
                    // absorbing; otherwise fold with MAX.
                    let slot = bounds.entry(via).or_insert(Some(0));
                    if let Some(cur) = slot {
                        *slot = Some((*cur).max(gamma + e.delay));
                    }
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
        // A on one processor feeds B on another, and nothing flows back:
        // the loopbacks only cycle within a processor, so no path leads
        // from B's task to A's. Without a feedback path the edge is
        // unbounded.
        let (_, _, ipc) = two_proc();
        let via = EdgeId(0);
        assert_eq!(ipc.buffer_bounds_by_edge(), HashMap::from([(via, None)]));
    }

    /// A → B (delay 0) across two processors, and one B → A feedback
    /// edge per entry of `feedback`.
    fn with_feedback(feedback: &[u64]) -> IpcGraph {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 20);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        for &d in feedback {
            g.add_edge(b, a, 1, 1, d, 4).unwrap();
        }
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        IpcGraph::build(&g, &pg, &st).unwrap()
    }

    #[test]
    fn eq2_bound_with_feedback_edge() {
        // A ⇄ B: feedback delay 2 bounds the forward buffer (Γ = 2,
        // bound 2 + 0); the feedback edge's own Γ is the forward edge's
        // 0, so its bound is its delay 2.
        let bounds = with_feedback(&[2]).buffer_bounds_by_edge();
        assert_eq!(bounds[&EdgeId(0)], Some(2));
        assert_eq!(bounds[&EdgeId(1)], Some(2));
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
    fn eq2_gamma_is_the_least_delay_feedback_path() {
        // Two feedback paths from B back to A, of delay 3 and 1: Γ is the
        // smaller, whichever edge is listed first.
        for feedback in [[3, 1], [1, 3]] {
            let bounds = with_feedback(&feedback).buffer_bounds_by_edge();
            assert_eq!(bounds[&EdgeId(0)], Some(1), "feedback {feedback:?}");
        }
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
