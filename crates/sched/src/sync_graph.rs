//! Synchronization graphs and resynchronization (paper §4, §4.1).
//!
//! The synchronization graph `G_s` starts as a copy of `G_ipc` but tracks
//! only ordering constraints. Each *removable* synchronization edge costs
//! run-time work (a semaphore check, or for SPI's UBS protocol an
//! acknowledgement message). Two optimizations reduce that cost:
//!
//! 1. **Redundant-edge elimination** — a sync edge `(x → y, d)` is
//!    redundant when another `x → y` path has total delay ≤ `d`; its
//!    constraint is already enforced transitively. Removing *all*
//!    redundant edges at once is safe (Sriram & Bhattacharyya, ch. 5 of
//!    *Embedded Multiprocessors*).
//! 2. **Resynchronization** — deliberately *adding* a cheap sync edge can
//!    make several existing ones redundant; the paper applies this to
//!    prune SPI_UBS acknowledgement edges on distributed-memory targets.
//!    Optimal resynchronization reduces to set cover (NP-hard); we
//!    implement the standard greedy heuristic with a
//!    throughput-preservation guard.
//!
//! Both read one min-plus path-delay table ([`PathDelays`]) that the
//! graph keeps current: removals leave it as it is and an added
//! zero-delay edge updates it in O(n²).

use spi_dataflow::EdgeId;

use crate::analysis::{
    maximum_cycle_ratio, topological_order, CycleRatio, PathDelays, WeightedEdge,
};
use crate::error::{Result, SchedError};
use crate::ipc_graph::{IpcEdgeKind, IpcGraph, Task, TaskId};

/// Classification of synchronization edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Processor-internal sequencing; enforced by the program counter,
    /// costs nothing, never removable.
    Sequence,
    /// Processor iteration loopback; also free.
    Loopback,
    /// "Data available" synchronization of an IPC edge (sender→receiver).
    Data {
        /// Application edge it derives from.
        via: EdgeId,
    },
    /// BBS back-pressure: receiver→sender edge whose delay is the buffer
    /// capacity minus the edge delay.
    Feedback {
        /// Application edge it derives from.
        via: EdgeId,
    },
    /// UBS acknowledgement message: receiver→sender.
    Ack {
        /// Application edge it derives from.
        via: EdgeId,
    },
    /// An edge added by resynchronization.
    Resync,
}

impl SyncKind {
    /// `true` if eliminating this edge saves run-time synchronization
    /// work (messages or semaphore operations).
    pub fn is_removable(&self) -> bool {
        !matches!(self, SyncKind::Sequence | SyncKind::Loopback)
    }
}

/// One synchronization edge: `start(to, k) ≥ end(from, k − delay)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncEdge {
    /// Source task.
    pub from: TaskId,
    /// Destination task.
    pub to: TaskId,
    /// Iteration delay of the constraint.
    pub delay: u64,
    /// What the edge models.
    pub kind: SyncKind,
}

/// Synchronization protocol chosen for one IPC edge (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Bounded-buffer synchronization: usable when a static buffer bound
    /// is guaranteed; sender blocks via shared read/write pointers.
    Bbs {
        /// Buffer capacity in packed tokens (≥ the eq. (2) bound).
        capacity: u64,
    },
    /// Unbounded-buffer synchronization: growable buffer plus
    /// acknowledgement messages for consistency.
    Ubs {
        /// Outstanding unacknowledged messages allowed before the sender
        /// must block on an ack.
        ack_window: u64,
    },
}

/// The synchronization graph of a self-timed SPI implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncGraph {
    tasks: Vec<Task>,
    edges: Vec<SyncEdge>,
    /// `delays[u][v]`: the least total delay on a `u → v` path of
    /// `edges` ([`PathDelays`]' `dist`). Every mutation keeps it
    /// current, so no reader recomputes it.
    delays: Vec<Vec<u64>>,
}

impl SyncGraph {
    fn new(tasks: Vec<Task>, edges: Vec<SyncEdge>) -> Self {
        let delays = path_delays(tasks.len(), &edges).dist;
        SyncGraph {
            tasks,
            edges,
            delays,
        }
    }

    /// Derives `G_s` from `G_ipc`, materializing each IPC edge's
    /// synchronization structure according to its protocol:
    /// every IPC edge contributes a forward [`SyncKind::Data`] edge;
    /// BBS edges add a [`SyncKind::Feedback`] back-pressure edge with
    /// delay `capacity − delay(e)`; UBS edges add a [`SyncKind::Ack`]
    /// edge with delay `ack_window + delay(e)`.
    ///
    /// # Errors
    ///
    /// [`SchedError::ZeroDelayCycle`] if a BBS capacity is smaller than
    /// the edge's delay (the back-pressure edge would need negative
    /// delay, i.e. the buffer cannot even hold the initial tokens).
    pub fn from_ipc(
        ipc: &IpcGraph,
        mut protocol_of: impl FnMut(&crate::ipc_graph::IpcEdge) -> Protocol,
    ) -> Result<Self> {
        let mut edges = Vec::new();
        for e in ipc.edges() {
            match e.kind {
                IpcEdgeKind::Sequence => edges.push(SyncEdge {
                    from: e.from,
                    to: e.to,
                    delay: e.delay,
                    kind: SyncKind::Sequence,
                }),
                IpcEdgeKind::Loopback => edges.push(SyncEdge {
                    from: e.from,
                    to: e.to,
                    delay: e.delay,
                    kind: SyncKind::Loopback,
                }),
                IpcEdgeKind::Ipc { via } => {
                    edges.push(SyncEdge {
                        from: e.from,
                        to: e.to,
                        delay: e.delay,
                        kind: SyncKind::Data { via },
                    });
                    match protocol_of(e) {
                        Protocol::Bbs { capacity } => {
                            if capacity < e.delay {
                                return Err(SchedError::ZeroDelayCycle);
                            }
                            edges.push(SyncEdge {
                                from: e.to,
                                to: e.from,
                                delay: capacity - e.delay,
                                kind: SyncKind::Feedback { via },
                            });
                        }
                        Protocol::Ubs { ack_window } => {
                            edges.push(SyncEdge {
                                from: e.to,
                                to: e.from,
                                delay: ack_window + e.delay,
                                kind: SyncKind::Ack { via },
                            });
                        }
                    }
                }
            }
        }
        let g = SyncGraph::new(ipc.tasks().to_vec(), edges);
        if g.has_zero_delay_cycle() {
            return Err(SchedError::ZeroDelayCycle);
        }
        Ok(g)
    }

    /// All tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All synchronization edges.
    pub fn edges(&self) -> &[SyncEdge] {
        &self.edges
    }

    /// Number of removable synchronization edges — the paper's "net
    /// synchronization cost" metric (each costs messages/semaphore work
    /// per iteration).
    pub fn sync_cost(&self) -> usize {
        self.edges.iter().filter(|e| e.kind.is_removable()).count()
    }

    /// The least total delay on a `from → to` path (0 when
    /// `from == to`), or `None` when no path exists: the quantity
    /// redundancy and resynchronization are decided on.
    ///
    /// # Panics
    ///
    /// Panics if either task is out of range.
    pub fn min_delay(&self, from: TaskId, to: TaskId) -> Option<u64> {
        reach(&self.delays, from.0, to.0)
    }

    /// Indices (into [`SyncGraph::edges`]) of removable edges that are
    /// redundant: another path with no greater delay already enforces
    /// their constraint.
    ///
    /// Uses the classic criterion: `e = (x → y, d)` is redundant iff some
    /// other edge `e' = (x → z, d')` with `e' ≠ e` satisfies
    /// `d' + ρ(z, y) ≤ d`, where `ρ` is the all-pairs minimum path delay.
    ///
    /// Note the returned set may contain edges that are only *mutually*
    /// redundant (two identical parallel edges each cite the other), so
    /// removing all of them at once is not safe;
    /// [`SyncGraph::remove_redundant`] re-checks each edge against the
    /// edges still present.
    pub fn redundant_edges(&self) -> Vec<usize> {
        (0..self.edges.len())
            .filter(|&i| self.is_implied(i, |_| true))
            .collect()
    }

    /// Whether removable edge `i` meets the redundancy criterion of
    /// [`SyncGraph::redundant_edges`] with a witness edge `e'` drawn
    /// from the indices `alive` keeps.
    fn is_implied(&self, i: usize, alive: impl Fn(usize) -> bool) -> bool {
        let e = &self.edges[i];
        e.kind.is_removable()
            && self.edges.iter().enumerate().any(|(j, e2)| {
                j != i
                    && e2.from == e.from
                    && alive(j)
                    && reach(&self.delays, e2.to.0, e.to.0)
                        .is_some_and(|rest| e2.delay + rest <= e.delay)
            })
    }

    /// Removes redundant removable edges until none remain and returns
    /// them, in removal order.
    ///
    /// One pass over the edges in index order, on the table as it is:
    ///
    /// * removing a redundant edge leaves every min-delay distance
    ///   unchanged — its constraint is implied by a path that avoids it,
    ///   because a sync graph has no zero-delay cycle (a least-delay
    ///   witness running back through the edge would close one);
    /// * an edge that is not redundant stays so as other edges go: the
    ///   distances do not move and its candidate witnesses only dwindle;
    /// * so the pass removes the same edges, in the same order, as
    ///   "remove the lowest-index redundant edge, then recompute". Of two
    ///   mutually redundant twins only the first goes: the second's
    ///   witness is gone by the time it is checked.
    pub fn remove_redundant(&mut self) -> Vec<SyncEdge> {
        let mut alive = vec![true; self.edges.len()];
        let mut removed = Vec::new();
        for i in 0..self.edges.len() {
            if self.is_implied(i, |j| alive[j]) {
                alive[i] = false;
                removed.push(self.edges[i]);
            }
        }
        let mut alive = alive.into_iter();
        self.edges.retain(|_| alive.next().unwrap_or(true));
        removed
    }

    /// Adds a zero-delay `u → v` edge; the table follows in O(n²), as a
    /// least-delay path uses the new edge at most once:
    /// `d[i][j] = min(d[i][j], d[i][u] + d[v][j])`.
    fn add_zero_delay_edge(&mut self, edge: SyncEdge) {
        let (u, v) = (edge.from.0, edge.to.0);
        self.edges.push(edge);
        let from_v = self.delays[v].clone();
        for row in &mut self.delays {
            let to_u = row[u];
            if to_u == u64::MAX {
                continue;
            }
            for (d, &rest) in row.iter_mut().zip(&from_v) {
                if rest != u64::MAX {
                    *d = (*d).min(to_u + rest);
                }
            }
        }
    }

    /// Certified greedy resynchronization (paper §4.1). Starting from
    /// the irredundant form, it repeatedly adds the zero-delay
    /// [`SyncKind::Resync`] edge between tasks on different processors
    /// that lets the most existing removable edges go, as long as that
    /// is strictly more than the one edge added — i.e. the *net*
    /// synchronization cost drops — and the maximum cycle mean (the
    /// iteration period) does not grow.
    ///
    /// Every edge removal is justified by a [`RedundancyProof`] — a
    /// concrete witness path in the *final* graph whose total delay does
    /// not exceed the removed edge's — and every addition records how
    /// many removals it enabled. Post-hoc certification on the final
    /// graph is sound because redundancy removal is transitive: each
    /// intermediate witness that was itself later removed was in turn
    /// path-implied, so the composed final-graph path still enforces the
    /// constraint. The certificate describes the input graph → the final
    /// graph: an added edge a later addition made redundant appears in
    /// neither its additions nor its removals.
    ///
    /// A removal the final graph cannot justify lands in
    /// [`ResyncCertificate::unproven`] — that is a bug in the optimizer
    /// (surfaced by the analyzer as SPI061), never an expected outcome.
    pub fn resynchronize(&mut self) -> ResyncCertificate {
        let baseline_cost = self.sync_cost();
        // Always start from the irredundant form.
        let mut removed_edges = self.remove_redundant();
        let mut additions: Vec<ResyncAddition> = Vec::new();
        // The period the guard holds additions to, computed on first use
        // (every accepted addition passes the guard, so that is still the
        // irredundant input's).
        let mut base_mcm = None;

        while let Some((u, v)) = self.best_candidate() {
            let candidate = SyncEdge {
                from: TaskId(u),
                to: TaskId(v),
                delay: 0,
                kind: SyncKind::Resync,
            };
            let mut trial = self.clone();
            trial.add_zero_delay_edge(candidate);
            let killed = trial.remove_redundant();
            if killed.len() < 2 {
                break; // stale estimate; no profitable candidate remains
            }
            let base = *base_mcm.get_or_insert_with(|| self.iteration_period());
            // `None` (acyclic) orders below every ratio.
            if trial.iteration_period() > base {
                // Blacklist by just stopping: a finer implementation
                // would skip this candidate; in practice profitable
                // candidates that hurt throughput are rare on these
                // app graphs.
                break;
            }
            *self = trial;
            let kills = killed.len();
            let (undone, killed): (Vec<_>, Vec<_>) =
                (killed.into_iter()).partition(|e| additions.iter().any(|a| a.edge == *e));
            additions.retain(|a| !undone.contains(&a.edge));
            additions.push(ResyncAddition {
                edge: candidate,
                killed: kills,
            });
            removed_edges.extend(killed);
        }

        // Certify every removal against the final graph. Removals can
        // leave a first hop the loop would have carried pointing at a
        // removed edge, so the witnesses come from a table built here.
        let table = path_delays(self.tasks.len(), &self.edges);
        let mut removals = Vec::new();
        let mut unproven = Vec::new();
        for e in removed_edges {
            let (from, to) = (e.from.0, e.to.0);
            let proved = reach(&table.dist, from, to)
                .filter(|&d| d <= e.delay)
                .and_then(|d| Some((d, table.path(from, to)?)));
            match proved {
                Some((witness_delay, path)) => removals.push(RedundancyProof {
                    edge: e,
                    witness: path.into_iter().map(TaskId).collect(),
                    witness_delay,
                }),
                None => unproven.push(e),
            }
        }

        let report = ResyncReport {
            sync_cost_before: baseline_cost,
            sync_cost_after: self.sync_cost(),
            edges_added: additions.len(),
            edges_removed: removals.len() + unproven.len(),
        };
        ResyncCertificate {
            removals,
            unproven,
            additions,
            report,
        }
    }

    /// The zero-delay edge `u → v` between processors that would make
    /// the most removable edges redundant, if that is at least two (the
    /// first such pair in `(u, v)` order on a tie).
    fn best_candidate(&self) -> Option<(usize, usize)> {
        let dist = &self.delays;
        let mut best: Option<(usize, usize, usize)> = None; // (gain, u, v)
        for (u, tu) in self.tasks.iter().enumerate() {
            for (v, tv) in self.tasks.iter().enumerate() {
                if u == v || tu.proc == tv.proc {
                    continue;
                }
                // A zero-delay u→v edge must not close a zero-delay
                // cycle (every v→u path must carry delay ≥ 1), and is
                // instantly redundant if a zero-delay u→v path exists.
                if dist[v][u] == 0 || dist[u][v] == 0 {
                    continue;
                }
                let gain = self.count_killed_by(u, v);
                if gain >= 2 && best.is_none_or(|(g, ..)| gain > g) {
                    best = Some((gain, u, v));
                }
            }
        }
        best.map(|(_, u, v)| (u, v))
    }

    /// How many removable edges would become redundant if a zero-delay
    /// `u→v` edge existed (approximation used to rank candidates).
    fn count_killed_by(&self, u: usize, v: usize) -> usize {
        let dist = &self.delays;
        let through = |e: &SyncEdge| {
            (reach(dist, e.from.0, u).zip(reach(dist, v, e.to.0)))
                .is_some_and(|(a, b)| a + b <= e.delay)
        };
        let removable = self.edges.iter().filter(|e| e.kind.is_removable());
        removable.filter(|e| through(e)).count()
    }

    /// `true` if the delay-0 subgraph has a cycle (self-timed deadlock).
    pub fn has_zero_delay_cycle(&self) -> bool {
        self.zero_delay_order().is_err()
    }

    /// Task indices in a topological order of the delay-0 subgraph, or
    /// `Err` with the tasks on or behind a zero-delay cycle.
    pub(crate) fn zero_delay_order(&self) -> std::result::Result<Vec<usize>, Vec<usize>> {
        let zero_delay = self.edges.iter().filter(|e| e.delay == 0);
        topological_order(self.tasks.len(), zero_delay.map(|e| (e.from.0, e.to.0)))
    }

    /// Renders the graph in Graphviz DOT, the form in which the paper
    /// draws its figures 3 and 5. Sequence/loopback edges are drawn
    /// solid (processor structure), removable synchronization edges
    /// dashed — matching the paper's "dashed edges represent
    /// synchronization edges" convention.
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = format!("digraph \"{title}\" {{\n  rankdir=LR;\n");
        // Group tasks by processor into clusters.
        let mut procs: Vec<_> = self.tasks.iter().map(|t| t.proc).collect();
        procs.sort();
        procs.dedup();
        for p in procs {
            out.push_str(&format!(
                "  subgraph cluster_{} {{\n    label=\"{p}\";\n",
                p.0
            ));
            for (i, t) in self.tasks.iter().enumerate() {
                if t.proc == p {
                    out.push_str(&format!(
                        "    t{i} [label=\"{}#{}\"];\n",
                        t.firing.actor, t.firing.k
                    ));
                }
            }
            out.push_str("  }\n");
        }
        for e in &self.edges {
            let style = if e.kind.is_removable() {
                "dashed"
            } else {
                "solid"
            };
            let label = if e.delay > 0 {
                format!(" label=\"{}\"", e.delay)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  t{} -> t{} [style={style}{label}];\n",
                e.from.0, e.to.0
            ));
        }
        out.push_str("}\n");
        out
    }

    /// The iteration period in cycles: the maximum cycle ratio of the
    /// graph, exact (`None` if the graph is acyclic, which cannot happen
    /// for well-formed schedules since every processor has a loopback).
    pub fn iteration_period(&self) -> Option<CycleRatio> {
        let edges: Vec<WeightedEdge> = (self.edges.iter())
            .map(|e| WeightedEdge {
                from: e.from.0,
                to: e.to.0,
                weight: self.tasks[e.from.0].exec_cycles,
                delay: e.delay,
            })
            .collect();
        maximum_cycle_ratio(self.tasks.len(), &edges).map(|c| c.ratio)
    }
}

fn path_delays(n: usize, edges: &[SyncEdge]) -> PathDelays {
    PathDelays::new(n, edges.iter().map(|e| (e.from.0, e.to.0, e.delay)))
}

fn reach(dist: &[Vec<u64>], a: usize, b: usize) -> Option<u64> {
    (dist[a][b] != u64::MAX).then(|| dist[a][b])
}

/// Outcome of a resynchronization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncReport {
    /// Removable sync edges before any optimization.
    pub sync_cost_before: usize,
    /// Removable sync edges after redundancy removal + resynchronization.
    pub sync_cost_after: usize,
    /// Resync edges added.
    pub edges_added: usize,
    /// Redundant edges removed (including those killed by added edges).
    pub edges_removed: usize,
}

/// Machine-checkable witness that a removed synchronization edge's
/// constraint is still enforced: a path in the final graph from the
/// edge's source to its destination with total delay ≤ the edge's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundancyProof {
    /// The edge that was removed.
    pub edge: SyncEdge,
    /// Tasks along the witness path, endpoints inclusive
    /// (`witness[0] == edge.from`, `witness.last() == edge.to`).
    pub witness: Vec<TaskId>,
    /// Total delay along the witness path (≤ `edge.delay`).
    pub witness_delay: u64,
}

/// One resynchronization edge the optimizer added, with its
/// justification: how many removable edges it made redundant. The
/// greedy step only accepts a candidate whose net cost drops, so
/// `killed ≥ 2` always holds for a sound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncAddition {
    /// The added zero-delay [`SyncKind::Resync`] edge.
    pub edge: SyncEdge,
    /// Removable edges this addition made redundant.
    pub killed: usize,
}

/// Proof artifact of one resynchronization run
/// ([`SyncGraph::resynchronize`]): one [`RedundancyProof`]
/// per removed edge, one [`ResyncAddition`] per added edge, and the
/// summary [`ResyncReport`]. The `spi-analyze` pass
/// `ResyncCertification` re-derives every claim against the final
/// graph and reports SPI061/SPI062 when anything fails to check.
#[derive(Debug, Clone, PartialEq)]
pub struct ResyncCertificate {
    /// Proven removals.
    pub removals: Vec<RedundancyProof>,
    /// Removals the final graph could not justify (optimizer bug).
    pub unproven: Vec<SyncEdge>,
    /// Added resynchronization edges with their kill counts.
    pub additions: Vec<ResyncAddition>,
    /// The matching summary report.
    pub report: ResyncReport,
}

impl ResyncCertificate {
    /// Human-readable rendering, one line per proof/addition.
    pub fn render(&self) -> String {
        let mut out = format!(
            "resync certificate: {} removals proven, {} unproven, {} additions \
             (cost {} -> {})\n",
            self.removals.len(),
            self.unproven.len(),
            self.additions.len(),
            self.report.sync_cost_before,
            self.report.sync_cost_after
        );
        for p in &self.removals {
            let path: Vec<String> = p.witness.iter().map(|t| format!("t{}", t.0)).collect();
            out.push_str(&format!(
                "  remove t{} -> t{} (delay {}): witness {} (delay {})\n",
                p.edge.from.0,
                p.edge.to.0,
                p.edge.delay,
                path.join(" -> "),
                p.witness_delay
            ));
        }
        for e in &self.unproven {
            out.push_str(&format!(
                "  UNPROVEN remove t{} -> t{} (delay {})\n",
                e.from.0, e.to.0, e.delay
            ));
        }
        for a in &self.additions {
            out.push_str(&format!(
                "  add t{} -> t{} (delay 0): kills {}\n",
                a.edge.from.0, a.edge.to.0, a.killed
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, ProcId};
    use crate::ipc_graph::IpcGraph;
    use crate::selftimed::SelfTimedSchedule;
    use spi_dataflow::{PrecedenceGraph, SdfGraph};

    /// Pipeline A→B→C split over 2 processors: A,C on P0; B on P1.
    fn two_proc_pipeline() -> SyncGraph {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        let c = g.add_actor("C", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, c, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(if x == b { 1 } else { 0 })).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 1 }).unwrap()
    }

    fn acks_in(sg: &SyncGraph) -> usize {
        let acks = sg.edges().iter();
        acks.filter(|e| matches!(e.kind, SyncKind::Ack { .. }))
            .count()
    }

    #[test]
    fn from_ipc_materializes_acks_for_ubs() {
        let sg = two_proc_pipeline();
        // Two IPC edges (A→B, B→C) → 2 Data + 2 Ack.
        assert_eq!(acks_in(&sg), 2);
        assert_eq!(sg.sync_cost(), 4);
    }

    #[test]
    fn bbs_feedback_edge_has_capacity_delay() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        let sg = SyncGraph::from_ipc(&ipc, |_| Protocol::Bbs { capacity: 3 }).unwrap();
        let fb: Vec<_> = sg
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, SyncKind::Feedback { .. }))
            .collect();
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].delay, 3);
    }

    #[test]
    fn bbs_capacity_below_delay_rejected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        g.add_edge(a, b, 1, 1, 2, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        // IPC edge (delay 2 via the dataflow edge? the precedence edge has
        // inter-iteration delay); capacity 1 < delay 2 → error.
        let r = SyncGraph::from_ipc(&ipc, |_| Protocol::Bbs { capacity: 1 });
        assert!(matches!(r, Err(SchedError::ZeroDelayCycle)));
    }

    #[test]
    fn redundant_ack_detected_and_removed() {
        // A→B then B→A(ack). If A and B exchange two parallel data edges
        // in the same direction, one Data edge's sync is redundant.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(a, b, 1, 1, 0, 4).unwrap(); // parallel duplicate
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        let mut sg = SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 1 }).unwrap();
        let before = sg.sync_cost();
        let removed = sg.remove_redundant();
        assert_eq!(sg.sync_cost(), before - removed.len());
        // The twins cite each other; exactly one of each pair survives,
        // so the A→B constraint is still enforced.
        let count =
            |pick: fn(&SyncKind) -> bool| sg.edges().iter().filter(|e| pick(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, SyncKind::Data { .. })), 1);
        assert_eq!(count(|k| matches!(k, SyncKind::Ack { .. })), 1);
    }

    #[test]
    fn pipeline_acks_are_redundant_via_loopbacks() {
        // This is the paper's figure-3 effect in miniature: the UBS acks
        // B->A and C->B are enforced by data + loopback paths
        // (B->C, C->loop->A) of equal total delay, so redundancy removal
        // drops both acks while every Data edge survives.
        let mut sg = two_proc_pipeline();
        assert_eq!(sg.sync_cost(), 4);
        let removed = sg.remove_redundant();
        assert_eq!(removed.len(), 2);
        assert_eq!(acks_in(&sg), 0);
        let data = sg
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, SyncKind::Data { .. }))
            .count();
        assert_eq!(data, 2, "data synchronization is essential");
        assert!(!sg.has_zero_delay_cycle());
    }

    #[test]
    fn zero_delay_cycle_detection() {
        let sg = two_proc_pipeline();
        assert!(!sg.has_zero_delay_cycle());
    }

    #[test]
    fn certified_resync_proves_every_removal() {
        let mut sg = two_proc_pipeline();
        let cert = sg.resynchronize();
        let report = cert.report;
        // The pipeline drops both UBS acks; each must carry a witness.
        assert_eq!(report.edges_removed, 2);
        assert!(cert.unproven.is_empty(), "unproven: {:?}", cert.unproven);
        assert_eq!(cert.removals.len(), 2);
        for p in &cert.removals {
            assert_eq!(p.witness.first(), Some(&p.edge.from));
            assert_eq!(p.witness.last(), Some(&p.edge.to));
            assert!(p.witness_delay <= p.edge.delay);
            // Re-walk the witness against the final graph: every hop
            // must exist with delays summing to at most the claim.
            let mut total = 0u64;
            for w in p.witness.windows(2) {
                let hop = sg
                    .edges()
                    .iter()
                    .filter(|e| e.from == w[0] && e.to == w[1])
                    .map(|e| e.delay)
                    .min()
                    .expect("witness hop must be a real edge");
                total += hop;
            }
            assert_eq!(total, p.witness_delay);
        }
        for a in &cert.additions {
            assert!(a.killed >= 2, "additions must pay for themselves");
        }
        assert_eq!(cert.report, report);
        assert!(cert.render().contains("removals proven"));
    }

    /// Seven tasks on four processors, shrunk from a generated UBS
    /// system: the greedy step that adds `t4 -> t5` makes the earlier
    /// addition `t0 -> t5` redundant. The certificate must describe the
    /// input graph → the final graph, so that edge is neither an
    /// addition nor a removal.
    #[test]
    fn a_resync_edge_a_later_one_kills_leaves_the_certificate() {
        use spi_dataflow::{ActorId, EdgeId, Firing};
        let task = |t, proc| Task {
            firing: Firing {
                actor: ActorId(t),
                k: 0,
            },
            proc: ProcId(proc),
            exec_cycles: 1,
        };
        let edge = |from, to, delay, kind| SyncEdge {
            from: TaskId(from),
            to: TaskId(to),
            delay,
            kind,
        };
        let via = |e| {
            (
                SyncKind::Data { via: EdgeId(e) },
                SyncKind::Ack { via: EdgeId(e) },
            )
        };
        let ((data0, ack0), (data1, ack1), (data2, ack2)) = (via(0), via(1), via(2));
        let input = SyncGraph::new(
            [0, 0, 1, 1, 2, 3, 3]
                .iter()
                .enumerate()
                .map(|(t, &p)| task(t, p))
                .collect(),
            vec![
                edge(0, 1, 0, SyncKind::Sequence),
                edge(1, 0, 1, SyncKind::Loopback),
                edge(2, 3, 0, SyncKind::Sequence),
                edge(5, 6, 0, SyncKind::Sequence),
                edge(2, 6, 0, data0),
                edge(6, 2, 8, ack0),
                edge(0, 2, 9, ack1),
                edge(3, 5, 1, data0),
                edge(3, 0, 1, data1),
                edge(4, 0, 8, ack2),
                edge(1, 4, 0, data2),
            ],
        );
        let mut sg = input.clone();
        let cert = sg.resynchronize();
        let report = cert.report;
        assert_eq!(cert.additions.len(), 2, "{}", cert.render());
        for a in &cert.additions {
            assert!(
                sg.edges().contains(&a.edge),
                "{a:?} is not in the final graph"
            );
            assert!(a.killed >= 2);
        }
        assert!(cert.unproven.is_empty());
        assert!(cert
            .removals
            .iter()
            .all(|p| input.edges().contains(&p.edge)));
        assert_eq!(
            input.edges().len() + report.edges_added - report.edges_removed,
            sg.edges().len()
        );
    }

    #[test]
    fn resync_reports_consistent_costs() {
        let mut sg = two_proc_pipeline();
        let report = sg.resynchronize().report;
        assert_eq!(report.sync_cost_after, sg.sync_cost());
        assert!(report.sync_cost_after <= report.sync_cost_before);
        assert!(!sg.has_zero_delay_cycle(), "resync must preserve liveness");
    }

    #[test]
    fn resync_prunes_fan_out_acks() {
        // Hub H on P0 sends to workers W1..W3 (P1..P3), all with UBS acks
        // back to H. Worker-to-worker resync edges can chain the acks so
        // fewer reverse messages are needed.
        let mut g = SdfGraph::new();
        let h = g.add_actor("H", 10);
        let ws: Vec<_> = (0..3).map(|i| g.add_actor(format!("W{i}"), 10)).collect();
        for &w in &ws {
            g.add_edge(h, w, 1, 1, 0, 4).unwrap();
            // Results return for the *next* iteration (delay 1), else the
            // zero-delay H->W->H cycle would deadlock.
            g.add_edge(w, h, 1, 1, 1, 4).unwrap();
        }
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 4, |x| ProcId(x.0)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        let mut sg = SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 1 }).unwrap();
        let report = sg.resynchronize().report;
        // At minimum the redundancy pass must notice that result edges
        // W→H make the ack edges W→H redundant (same endpoints, the data
        // sync subsumes the ack).
        assert!(
            report.sync_cost_after + 3 <= report.sync_cost_before,
            "report: {report:?}"
        );
    }

    #[test]
    fn dot_export_marks_sync_edges_dashed() {
        let sg = two_proc_pipeline();
        let dot = sg.to_dot("fig");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("cluster_0") && dot.contains("cluster_1"));
        assert!(dot.contains("style=dashed"), "sync edges are dashed");
        assert!(dot.contains("style=solid"), "processor structure is solid");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn iteration_period_exists_for_scheduled_graph() {
        let sg = two_proc_pipeline();
        let period = sg.iteration_period();
        assert!(period.is_some());
        assert!(
            period.unwrap().as_f64() >= 20.0,
            "P0 runs A and C: ≥ 20 cycles"
        );
    }
}
