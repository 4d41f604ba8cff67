//! Processor assignment: manual mappings and HLFET list scheduling.
//!
//! SPI's methodology (paper §2) assumes a *self-timed* implementation: a
//! compile-time processor assignment plus per-processor firing order,
//! with run-time synchronization only where data crosses processors.
//! This module produces the assignment, either from an explicit
//! actor→processor map or automatically via Highest-Level-First /
//! Estimated-Time (HLFET) list scheduling on the acyclic precedence
//! graph.

use std::collections::HashMap;

use spi_dataflow::{ActorId, Firing, PrecedenceGraph, SdfGraph};

use crate::analysis::topological_order;
use crate::error::{Result, SchedError};

/// A processor index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A firing→processor assignment over a fixed processor count.
///
/// # Examples
///
/// ```
/// use spi_dataflow::{SdfGraph, PrecedenceGraph};
/// use spi_sched::{Assignment, ProcId};
///
/// let mut g = SdfGraph::new();
/// let a = g.add_actor("A", 10);
/// let b = g.add_actor("B", 10);
/// g.add_edge(a, b, 1, 1, 0, 4)?;
/// let pg = PrecedenceGraph::expand(&g)?;
///
/// // Put every firing of A on P0 and of B on P1.
/// let assign = Assignment::by_actor(&pg, 2, |actor| {
///     if actor == a { ProcId(0) } else { ProcId(1) }
/// })?;
/// assert_eq!(assign.processor_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    map: HashMap<Firing, ProcId>,
    processors: usize,
}

impl Assignment {
    /// Builds an assignment by mapping each *actor* to one processor
    /// (all its firings follow).
    ///
    /// # Errors
    ///
    /// [`SchedError::NoProcessors`] for a zero processor count and
    /// [`SchedError::ProcessorOutOfRange`] if the function returns an
    /// index ≥ `processors`.
    pub fn by_actor(
        pg: &PrecedenceGraph,
        processors: usize,
        mut f: impl FnMut(ActorId) -> ProcId,
    ) -> Result<Self> {
        if processors == 0 {
            return Err(SchedError::NoProcessors);
        }
        let mut map = HashMap::new();
        for &firing in pg.firings() {
            let p = f(firing.actor);
            if p.0 >= processors {
                return Err(SchedError::ProcessorOutOfRange {
                    proc: p.0,
                    count: processors,
                });
            }
            map.insert(firing, p);
        }
        Ok(Assignment { map, processors })
    }

    /// HLFET (Highest Level First, Estimated Time) list scheduling.
    ///
    /// Levels are longest paths (in execution cycles) to any APG sink;
    /// ready firings are greedily placed on the earliest-available
    /// processor. A classic, deterministic baseline mapper.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoProcessors`] for a zero processor count;
    /// [`SchedError::ZeroDelayCycle`] if `pg`'s delay-0 precedence edges
    /// form a cycle (the graph deadlocks).
    pub fn hlfet(graph: &SdfGraph, pg: &PrecedenceGraph, processors: usize) -> Result<Self> {
        if processors == 0 {
            return Err(SchedError::NoProcessors);
        }
        let firings = pg.firings();
        let n = firings.len();
        let idx: HashMap<Firing, usize> =
            firings.iter().enumerate().map(|(i, &f)| (f, i)).collect();

        // APG adjacency, both directions.
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let apg: Vec<(usize, usize)> = pg.apg_edges().map(|p| (idx[&p.from], idx[&p.to])).collect();
        for &(u, v) in &apg {
            succ[u].push(v);
            preds[v].push(u);
        }

        // Static levels via reverse topological order.
        let exec = |i: usize| graph.actor(firings[i].actor).exec_cycles;
        let order = topological_order(n, apg).map_err(|_| SchedError::ZeroDelayCycle)?;
        let mut level = vec![0u64; n];
        for &u in order.iter().rev() {
            let best_succ = succ[u].iter().map(|&v| level[v]).max().unwrap_or(0);
            level[u] = exec(u) + best_succ;
        }

        // List schedule: ready set ordered by (level desc, firing id asc).
        let mut ready: Vec<usize> = (0..n).filter(|&i| preds[i].is_empty()).collect();
        let mut proc_free = vec![0u64; processors];
        let mut finish = vec![0u64; n];
        let mut map = HashMap::new();
        let mut remaining_preds: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut scheduled = 0;
        while scheduled < n {
            ready.sort_by(|&x, &y| level[y].cmp(&level[x]).then(firings[x].cmp(&firings[y])));
            let u = ready.remove(0);
            // Earliest start = max(processor free, predecessors' finish).
            let data_ready = preds[u].iter().map(|&p| finish[p]).max().unwrap_or(0);
            let Some((best_p, _)) =
                (proc_free.iter().enumerate()).min_by_key(|&(p, &free)| (free.max(data_ready), p))
            else {
                return Err(SchedError::NoProcessors);
            };
            let start = proc_free[best_p].max(data_ready);
            finish[u] = start + exec(u);
            proc_free[best_p] = finish[u];
            map.insert(firings[u], ProcId(best_p));
            scheduled += 1;
            for &v in &succ[u] {
                remaining_preds[v] -= 1;
                if remaining_preds[v] == 0 {
                    ready.push(v);
                }
            }
        }
        Ok(Assignment { map, processors })
    }

    /// Processor of `firing`.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnassignedFiring`] if the firing is unknown.
    pub fn processor(&self, firing: Firing) -> Result<ProcId> {
        self.map
            .get(&firing)
            .copied()
            .ok_or(SchedError::UnassignedFiring(firing))
    }

    /// Number of processors in the target.
    pub fn processor_count(&self) -> usize {
        self.processors
    }
}

/// A processor→node partition for distributed deployment.
///
/// The paper's self-timed schedules assume message passing on every
/// inter-processor edge; a partition splits the processor set across N
/// OS *node* processes so that intra-node edges keep their in-memory
/// transports while cross-node edges lower to sockets (`spi-net`). The
/// partition is purely a grouping of [`ProcId`]s — the assignment,
/// firing order and IPC graph are untouched, so eq. (1)/(2) bounds
/// carry over per edge regardless of where its endpoints land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `node_of[p]` is the node hosting processor `p`.
    node_of: Vec<usize>,
    /// Number of nodes (some may host no processor).
    nodes: usize,
}

impl Partition {
    /// Splits `processors` into `nodes` contiguous blocks of (nearly)
    /// equal size: with `P` processors and `N` nodes, the first
    /// `P mod N` nodes take `⌈P/N⌉` processors each, the rest `⌊P/N⌋`.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoProcessors`] when either count is zero or there
    /// are more nodes than processors (an empty node cannot take part
    /// in the start barrier).
    pub fn blocks(processors: usize, nodes: usize) -> Result<Self> {
        if processors == 0 || nodes == 0 || nodes > processors {
            return Err(SchedError::NoProcessors);
        }
        let base = processors / nodes;
        let extra = processors % nodes;
        let mut node_of = Vec::with_capacity(processors);
        for node in 0..nodes {
            let take = base + usize::from(node < extra);
            node_of.extend(std::iter::repeat_n(node, take));
        }
        Ok(Partition { node_of, nodes })
    }

    /// Builds a partition from an explicit processor→node map.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoProcessors`] for an empty map, a node index ≥
    /// `nodes`, or a node hosting no processor.
    pub fn from_fn(
        processors: usize,
        nodes: usize,
        mut node_of: impl FnMut(ProcId) -> usize,
    ) -> Result<Self> {
        if processors == 0 || nodes == 0 {
            return Err(SchedError::NoProcessors);
        }
        let node_of: Vec<usize> = (0..processors).map(|p| node_of(ProcId(p))).collect();
        let mut seen = vec![false; nodes];
        for &n in &node_of {
            if n >= nodes {
                return Err(SchedError::ProcessorOutOfRange {
                    proc: n,
                    count: nodes,
                });
            }
            seen[n] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err(SchedError::NoProcessors);
        }
        Ok(Partition { node_of, nodes })
    }

    /// The node hosting processor `proc`.
    ///
    /// # Errors
    ///
    /// [`SchedError::ProcessorOutOfRange`] for an unknown processor.
    pub fn node_of(&self, proc: ProcId) -> Result<usize> {
        self.node_of
            .get(proc.0)
            .copied()
            .ok_or(SchedError::ProcessorOutOfRange {
                proc: proc.0,
                count: self.node_of.len(),
            })
    }

    /// Number of node processes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of processors partitioned.
    pub fn processor_count(&self) -> usize {
        self.node_of.len()
    }

    /// The processors hosted by `node`, in ascending order.
    pub fn procs_on(&self, node: usize) -> Vec<ProcId> {
        self.node_of
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == node)
            .map(|(p, _)| ProcId(p))
            .collect()
    }

    /// Whether an edge between these processors crosses a node
    /// boundary (and therefore lowers to a socket transport).
    pub fn is_cross(&self, a: ProcId, b: ProcId) -> bool {
        match (self.node_of.get(a.0), self.node_of.get(b.0)) {
            (Some(na), Some(nb)) => na != nb,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_dataflow::SdfGraph;

    fn diamond() -> (SdfGraph, PrecedenceGraph) {
        // A -> B, A -> C, B -> D, C -> D (all rate 1).
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 30);
        let c = g.add_actor("C", 20);
        let d = g.add_actor("D", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(a, c, 1, 1, 0, 4).unwrap();
        g.add_edge(b, d, 1, 1, 0, 4).unwrap();
        g.add_edge(c, d, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        (g, pg)
    }

    #[test]
    fn by_actor_assigns_every_firing() {
        let (_, pg) = diamond();
        let assign = Assignment::by_actor(&pg, 2, |a| ProcId(a.0 % 2)).unwrap();
        for &f in pg.firings() {
            assert_eq!(assign.processor(f).unwrap().0, f.actor.0 % 2);
        }
        assert_eq!(assign.processor_count(), 2);
    }

    #[test]
    fn by_actor_rejects_out_of_range() {
        let (_, pg) = diamond();
        assert!(matches!(
            Assignment::by_actor(&pg, 2, |_| ProcId(7)),
            Err(SchedError::ProcessorOutOfRange { proc: 7, count: 2 })
        ));
        assert!(matches!(
            Assignment::by_actor(&pg, 0, |_| ProcId(0)),
            Err(SchedError::NoProcessors)
        ));
    }

    #[test]
    fn hlfet_uses_all_processors_when_parallelism_exists() {
        let (g, pg) = diamond();
        let assign = Assignment::hlfet(&g, &pg, 2).unwrap();
        // B and C are independent; a 2-PE HLFET must separate them.
        let b = g.actor_by_name("B").unwrap();
        let c = g.actor_by_name("C").unwrap();
        let pb = assign.processor(Firing { actor: b, k: 0 }).unwrap();
        let pc = assign.processor(Firing { actor: c, k: 0 }).unwrap();
        assert_ne!(pb, pc);
    }

    #[test]
    fn hlfet_single_processor_is_total() {
        let (g, pg) = diamond();
        let assign = Assignment::hlfet(&g, &pg, 1).unwrap();
        for &f in pg.firings() {
            assert_eq!(assign.processor(f).unwrap(), ProcId(0));
        }
    }

    #[test]
    fn partition_blocks_are_contiguous_and_balanced() {
        let p = Partition::blocks(5, 2).unwrap();
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.processor_count(), 5);
        assert_eq!(p.procs_on(0), vec![ProcId(0), ProcId(1), ProcId(2)]);
        assert_eq!(p.procs_on(1), vec![ProcId(3), ProcId(4)]);
        assert!(p.is_cross(ProcId(2), ProcId(3)));
        assert!(!p.is_cross(ProcId(0), ProcId(2)));
        assert_eq!(p.node_of(ProcId(4)).unwrap(), 1);
    }

    #[test]
    fn partition_rejects_degenerate_shapes() {
        assert!(Partition::blocks(0, 1).is_err());
        assert!(Partition::blocks(3, 0).is_err());
        assert!(Partition::blocks(2, 3).is_err(), "empty node rejected");
        // Explicit map: node index out of range and empty node.
        assert!(Partition::from_fn(3, 2, |_| 5).is_err());
        assert!(Partition::from_fn(3, 2, |_| 0).is_err(), "node 1 empty");
    }

    #[test]
    fn partition_from_fn_follows_the_map() {
        let p = Partition::from_fn(3, 2, |proc| usize::from(proc.0 == 1)).unwrap();
        assert_eq!(p.procs_on(0), vec![ProcId(0), ProcId(2)]);
        assert_eq!(p.procs_on(1), vec![ProcId(1)]);
        assert!(p.is_cross(ProcId(0), ProcId(1)));
        assert!(!p.is_cross(ProcId(0), ProcId(2)));
        assert!(p.node_of(ProcId(9)).is_err());
    }

    #[test]
    fn hlfet_multirate_graph() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("src", 5);
        let b = g.add_actor("work", 50);
        let c = g.add_actor("snk", 5);
        g.add_edge(a, b, 4, 1, 0, 4).unwrap();
        g.add_edge(b, c, 1, 4, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::hlfet(&g, &pg, 3).unwrap();
        // The four independent "work" firings should spread across PEs.
        let work0 = assign.processor(Firing { actor: b, k: 0 }).unwrap();
        assert!((1..4).any(|k| assign.processor(Firing { actor: b, k }).unwrap() != work0));
    }
}
