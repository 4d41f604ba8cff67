//! Coarse-grain dataflow graphs with static (SDF) and dynamic (VTS-capable)
//! port rates.
//!
//! The [`SdfGraph`] type is the central modeling structure of the
//! reproduction: applications are described as graphs of actors connected
//! by edges that carry typed tokens. Static rates give classic synchronous
//! dataflow (Lee & Messerschmitt); dynamic rates with declared upper bounds
//! feed the paper's variable-token-size (VTS) conversion in [`crate::vts`].

use std::fmt;

use crate::error::{DataflowError, Result};

/// Identifier of an actor inside one [`SdfGraph`].
///
/// Ids are dense indices assigned in insertion order; they are only
/// meaningful relative to the graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifier of an edge inside one [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A token production or consumption rate on one side of an edge.
///
/// `Static(n)` is ordinary SDF: exactly `n` tokens per firing, known at
/// compile time. `Dynamic { bound }` is the paper's dynamic-port notion:
/// the number of raw tokens moved per firing varies at run time but never
/// exceeds `bound`. VTS conversion ([`crate::vts::VtsConversion`]) turns
/// dynamic rates into static rate-1 packed-token transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rate {
    /// Fixed number of tokens per firing.
    Static(u32),
    /// Run-time-varying number of tokens per firing, bounded above.
    Dynamic {
        /// Declared upper bound on tokens moved per firing (paper §3:
        /// "an upper bound on the token size be specified for each
        /// dynamic port").
        bound: u32,
    },
}

impl Rate {
    /// Returns `true` if this rate varies at run time.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, Rate::Dynamic { .. })
    }

    /// The compile-time upper bound on tokens per firing.
    pub fn bound(&self) -> u32 {
        match *self {
            Rate::Static(n) => n,
            Rate::Dynamic { bound } => bound,
        }
    }

    /// The static rate, or `None` for dynamic ports.
    pub fn as_static(&self) -> Option<u32> {
        match *self {
            Rate::Static(n) => Some(n),
            Rate::Dynamic { .. } => None,
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rate::Static(n) => write!(f, "{n}"),
            Rate::Dynamic { bound } => write!(f, "dyn(≤{bound})"),
        }
    }
}

/// An actor (computational node) in a dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Actor {
    /// Human-readable name used in reports and graph dumps.
    pub name: String,
    /// Estimated execution time of one firing, in platform cycles.
    ///
    /// Used by list scheduling and by throughput analysis; the simulator
    /// may override it with a data-dependent cost model.
    pub exec_cycles: u64,
}

impl Actor {
    /// Creates an actor with the given name and estimated firing cost.
    pub fn new(name: impl Into<String>, exec_cycles: u64) -> Self {
        Actor {
            name: name.into(),
            exec_cycles,
        }
    }
}

/// A directed edge (FIFO channel) between two actors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Producing actor.
    pub src: ActorId,
    /// Consuming actor.
    pub dst: ActorId,
    /// Tokens produced per `src` firing.
    pub produce: Rate,
    /// Tokens consumed per `dst` firing.
    pub consume: Rate,
    /// Initial tokens (delays) resident on the edge before execution.
    pub delay: u64,
    /// Size of one *raw* (unpacked) token in bytes.
    pub token_bytes: u32,
}

impl Edge {
    /// Returns `true` if either endpoint of the edge has a dynamic rate.
    pub fn is_dynamic(&self) -> bool {
        self.produce.is_dynamic() || self.consume.is_dynamic()
    }
}

/// A coarse-grain dataflow graph.
///
/// Construction is incremental: add actors with [`SdfGraph::add_actor`],
/// connect them with [`SdfGraph::add_edge`] (static rates) or
/// [`SdfGraph::add_dynamic_edge`]. Analyses live in sibling modules:
/// repetition vectors ([`SdfGraph::repetition_vector`]), admissible
/// schedules and buffer bounds ([`SdfGraph::class_s_schedule`]), VTS
/// conversion ([`crate::VtsConversion`]), single-rate expansion
/// ([`crate::PrecedenceGraph`]).
///
/// # Examples
///
/// ```
/// use spi_dataflow::{SdfGraph, Rate};
///
/// let mut g = SdfGraph::new();
/// let a = g.add_actor("A", 10);
/// let b = g.add_actor("B", 20);
/// // A produces 2 tokens per firing, B consumes 3 per firing.
/// g.add_edge(a, b, 2, 3, 0, 4)?;
/// let q = g.repetition_vector()?;
/// assert_eq!(q[a], 3);
/// assert_eq!(q[b], 2);
/// # Ok::<(), spi_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SdfGraph {
    actors: Vec<Actor>,
    edges: Vec<Edge>,
}

impl SdfGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SdfGraph::default()
    }

    /// Adds an actor and returns its id.
    pub fn add_actor(&mut self, name: impl Into<String>, exec_cycles: u64) -> ActorId {
        self.actors.push(Actor::new(name, exec_cycles));
        ActorId(self.actors.len() - 1)
    }

    /// Adds a static-rate (pure SDF) edge.
    ///
    /// `produce`/`consume` are tokens per firing, `delay` is the number of
    /// initial tokens, and `token_bytes` is the size of one token.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::ZeroRate`] if either rate is zero and
    /// [`DataflowError::UnknownActor`] if an endpoint does not exist.
    pub fn add_edge(
        &mut self,
        src: ActorId,
        dst: ActorId,
        produce: u32,
        consume: u32,
        delay: u64,
        token_bytes: u32,
    ) -> Result<EdgeId> {
        self.add_edge_with_rates(
            src,
            dst,
            Rate::Static(produce),
            Rate::Static(consume),
            delay,
            token_bytes,
        )
    }

    /// Adds an edge whose endpoints may have dynamic rates.
    ///
    /// This models the paper's dynamic ports (fig. 1): each rate carries an
    /// upper bound instead of an exact value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SdfGraph::add_edge`]; a dynamic rate with bound
    /// zero is also rejected as [`DataflowError::ZeroRate`].
    pub fn add_edge_with_rates(
        &mut self,
        src: ActorId,
        dst: ActorId,
        produce: Rate,
        consume: Rate,
        delay: u64,
        token_bytes: u32,
    ) -> Result<EdgeId> {
        self.check_actor(src)?;
        self.check_actor(dst)?;
        let id = EdgeId(self.edges.len());
        if produce.bound() == 0 || consume.bound() == 0 {
            return Err(DataflowError::ZeroRate { edge: id });
        }
        self.edges.push(Edge {
            src,
            dst,
            produce,
            consume,
            delay,
            token_bytes,
        });
        Ok(id)
    }

    /// Adds a dynamic edge with the given rate bounds on both ports.
    ///
    /// Shorthand for [`SdfGraph::add_edge_with_rates`] with two
    /// [`Rate::Dynamic`] endpoints.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SdfGraph::add_edge_with_rates`].
    pub fn add_dynamic_edge(
        &mut self,
        src: ActorId,
        dst: ActorId,
        produce_bound: u32,
        consume_bound: u32,
        delay: u64,
        token_bytes: u32,
    ) -> Result<EdgeId> {
        self.add_edge_with_rates(
            src,
            dst,
            Rate::Dynamic {
                bound: produce_bound,
            },
            Rate::Dynamic {
                bound: consume_bound,
            },
            delay,
            token_bytes,
        )
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the actor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`SdfGraph::try_actor`] for a
    /// fallible lookup.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.0]
    }

    /// Fallible actor lookup.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::UnknownActor`] if `id` is out of range.
    pub fn try_actor(&self, id: ActorId) -> Result<&Actor> {
        self.actors.get(id.0).ok_or(DataflowError::UnknownActor(id))
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`SdfGraph::try_edge`] for a
    /// fallible lookup.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Fallible edge lookup.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::UnknownEdge`] if `id` is out of range.
    pub fn try_edge(&self, id: EdgeId) -> Result<&Edge> {
        self.edges.get(id.0).ok_or(DataflowError::UnknownEdge(id))
    }

    /// Iterates over `(ActorId, &Actor)` pairs in id order.
    pub fn actors(&self) -> impl Iterator<Item = (ActorId, &Actor)> {
        self.actors.iter().enumerate().map(|(i, a)| (ActorId(i), a))
    }

    /// Iterates over `(EdgeId, &Edge)` pairs in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Ids of edges leaving `actor`.
    pub fn out_edges(&self, actor: ActorId) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.src == actor)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of edges entering `actor`.
    pub fn in_edges(&self, actor: ActorId) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.dst == actor)
            .map(|(id, _)| id)
            .collect()
    }

    /// Returns `true` if every edge has static rates on both ports.
    pub fn is_pure_sdf(&self) -> bool {
        self.edges.iter().all(|e| !e.is_dynamic())
    }

    /// Ids of all edges with at least one dynamic port.
    pub fn dynamic_edges(&self) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.is_dynamic())
            .map(|(id, _)| id)
            .collect()
    }

    /// Looks up an actor by name (first match).
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors()
            .find(|(_, a)| a.name == name)
            .map(|(id, _)| id)
    }

    /// Crate-internal mutable edge access used by VTS conversion.
    pub(crate) fn edge_mut_slot(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.0]
    }

    fn check_actor(&self, id: ActorId) -> Result<()> {
        if id.0 < self.actors.len() {
            Ok(())
        } else {
            Err(DataflowError::UnknownActor(id))
        }
    }
}

/// Pretty-prints the graph in a compact edge-list format used by the
/// figure-regeneration binaries.
impl fmt::Display for SdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dataflow graph: {} actors, {} edges",
            self.actors.len(),
            self.edges.len()
        )?;
        for (id, e) in self.edges() {
            writeln!(
                f,
                "  {id}: {} --[{} -> {}, delay {}, {}B tokens]--> {}",
                self.actor(e.src).name,
                e.produce,
                e.consume,
                e.delay,
                e.token_bytes,
                self.actor(e.dst).name,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_actor_graph() -> (SdfGraph, ActorId, ActorId) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 5);
        let b = g.add_actor("B", 7);
        (g, a, b)
    }

    #[test]
    fn add_actor_assigns_dense_ids() {
        let (g, a, b) = two_actor_graph();
        assert_eq!(a, ActorId(0));
        assert_eq!(b, ActorId(1));
        assert_eq!(g.actor_count(), 2);
        assert_eq!(g.actor(a).name, "A");
        assert_eq!(g.actor(b).exec_cycles, 7);
    }

    #[test]
    fn add_edge_rejects_zero_rates() {
        let (mut g, a, b) = two_actor_graph();
        assert!(matches!(
            g.add_edge(a, b, 0, 1, 0, 4),
            Err(DataflowError::ZeroRate { .. })
        ));
        assert!(matches!(
            g.add_edge(a, b, 1, 0, 0, 4),
            Err(DataflowError::ZeroRate { .. })
        ));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_edge_rejects_unknown_actors() {
        let (mut g, a, _) = two_actor_graph();
        let ghost = ActorId(99);
        assert!(matches!(
            g.add_edge(a, ghost, 1, 1, 0, 4),
            Err(DataflowError::UnknownActor(_))
        ));
        assert!(matches!(
            g.add_edge(ghost, a, 1, 1, 0, 4),
            Err(DataflowError::UnknownActor(_))
        ));
    }

    #[test]
    fn dynamic_edge_detection() {
        let (mut g, a, b) = two_actor_graph();
        let e1 = g.add_edge(a, b, 2, 3, 0, 4).unwrap();
        let e2 = g.add_dynamic_edge(a, b, 10, 8, 0, 4).unwrap();
        assert!(!g.edge(e1).is_dynamic());
        assert!(g.edge(e2).is_dynamic());
        assert!(!g.is_pure_sdf());
        assert_eq!(g.dynamic_edges(), vec![e2]);
    }

    #[test]
    fn in_out_edges() {
        let (mut g, a, b) = two_actor_graph();
        let c = g.add_actor("C", 1);
        let e1 = g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        let e2 = g.add_edge(a, c, 1, 1, 0, 4).unwrap();
        let e3 = g.add_edge(b, c, 1, 1, 0, 4).unwrap();
        assert_eq!(g.out_edges(a), vec![e1, e2]);
        assert_eq!(g.in_edges(c), vec![e2, e3]);
        assert_eq!(g.in_edges(a), Vec::<EdgeId>::new());
    }

    #[test]
    fn rate_accessors() {
        let s = Rate::Static(4);
        let d = Rate::Dynamic { bound: 9 };
        assert!(!s.is_dynamic());
        assert!(d.is_dynamic());
        assert_eq!(s.bound(), 4);
        assert_eq!(d.bound(), 9);
        assert_eq!(s.as_static(), Some(4));
        assert_eq!(d.as_static(), None);
    }

    #[test]
    fn actor_by_name_finds_first() {
        let (g, a, _) = two_actor_graph();
        assert_eq!(g.actor_by_name("A"), Some(a));
        assert_eq!(g.actor_by_name("Z"), None);
    }

    #[test]
    fn display_lists_every_edge() {
        let (mut g, a, b) = two_actor_graph();
        g.add_edge(a, b, 2, 3, 1, 8).unwrap();
        let s = g.to_string();
        assert!(s.contains("2 actors, 1 edges"));
        assert!(s.contains("A --[2 -> 3, delay 1, 8B tokens]--> B"));
    }

    #[test]
    fn graph_debug_shows_dynamic_rates() {
        let (mut g, a, b) = two_actor_graph();
        g.add_dynamic_edge(a, b, 10, 8, 2, 4).unwrap();
        assert!(format!("{g:?}").contains("Dynamic"));
    }
}
