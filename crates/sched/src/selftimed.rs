//! Self-timed multiprocessor schedules (paper §2).
//!
//! A self-timed schedule fixes, at compile time, (a) which processor runs
//! each firing and (b) the firing order *within* each processor. Actual
//! start times are decided at run time by data availability — the robust
//! middle ground between fully-static and fully-dynamic scheduling that
//! the paper adopts for SPI.

use spi_dataflow::{Firing, PrecedenceGraph};

use crate::assign::{Assignment, ProcId};
use crate::error::{Result, SchedError};

/// A self-timed schedule: the assignment plus a total order per processor.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimedSchedule {
    assignment: Assignment,
    order: Vec<Vec<Firing>>,
}

impl SelfTimedSchedule {
    /// Derives per-processor orders from a topological order of the APG,
    /// the canonical way to turn an assignment into a valid self-timed
    /// schedule.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnassignedFiring`] if the assignment does not cover
    /// every firing of `pg`; [`SchedError::ZeroDelayCycle`] if `pg`'s
    /// delay-0 precedence edges form a cycle (the graph deadlocks).
    pub fn from_assignment(pg: &PrecedenceGraph, assignment: Assignment) -> Result<Self> {
        let topo = pg.topological_order().ok_or(SchedError::ZeroDelayCycle)?;
        let mut order = vec![Vec::new(); assignment.processor_count()];
        for f in topo {
            let p = assignment.processor(f)?;
            order[p.0].push(f);
        }
        Ok(SelfTimedSchedule { assignment, order })
    }

    /// The underlying assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Number of processors.
    pub fn processor_count(&self) -> usize {
        self.assignment.processor_count()
    }

    /// Iterates `(ProcId, order)` pairs.
    pub fn processors(&self) -> impl Iterator<Item = (ProcId, &[Firing])> {
        self.order
            .iter()
            .enumerate()
            .map(|(p, list)| (ProcId(p), list.as_slice()))
    }

    /// Total firings across processors (= one graph iteration).
    pub fn total_firings(&self) -> usize {
        self.order.iter().map(Vec::len).sum()
    }
}

impl std::fmt::Display for SelfTimedSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (p, order) in self.processors() {
            write!(f, "{p}:")?;
            for firing in order {
                write!(f, " {firing}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_dataflow::SdfGraph;

    fn pipeline() -> (SdfGraph, PrecedenceGraph) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        let c = g.add_actor("C", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, c, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        (g, pg)
    }

    #[test]
    fn a_delay_free_cycle_is_a_typed_error() {
        // A ⇄ B with no initial token: neither may fire first.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, a, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(x.0)).unwrap();
        let err = SelfTimedSchedule::from_assignment(&pg, assign).unwrap_err();
        assert_eq!(err, crate::SchedError::ZeroDelayCycle);
        let err = Assignment::hlfet(&g, &pg, 2).unwrap_err();
        assert_eq!(err, crate::SchedError::ZeroDelayCycle);
    }

    #[test]
    fn from_assignment_covers_all_firings() {
        let (_, pg) = pipeline();
        let assign = Assignment::by_actor(&pg, 2, |a| ProcId(a.0 % 2)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        assert_eq!(st.total_firings(), pg.firings().len());
        assert_eq!(st.processor_count(), 2);
    }

    #[test]
    fn from_assignment_orders_respect_precedence() {
        let (_, pg) = pipeline();
        // A and C on P0 — A must come first because A→B→C.
        let assign =
            Assignment::by_actor(&pg, 2, |a| ProcId(if a.0 == 1 { 1 } else { 0 })).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let (_, p0) = st.processors().next().unwrap();
        assert_eq!(p0.len(), 2);
        assert!(p0[0].actor.0 < p0[1].actor.0);
    }

    #[test]
    fn display_lists_processors_and_orders() {
        let (_, pg) = pipeline();
        let assign = Assignment::by_actor(&pg, 2, |a| ProcId(a.0 % 2)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let s = st.to_string();
        assert!(s.contains("P0:"));
        assert!(s.contains("P1:"));
        assert!(s.contains("a0#0"));
    }
}
