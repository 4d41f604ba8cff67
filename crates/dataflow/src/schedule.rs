//! Admissible single-processor schedules, deadlock detection and
//! simulation-based SDF buffer bounds.
//!
//! The paper's eq. (1) needs `c_sdf(e)` — "an upper bound on the buffer
//! size of e in terms of the maximum number of tokens that coexist on e at
//! any given time … computed using any of the existing techniques for
//! computing SDF buffer bounds". This module implements the classic
//! class-S simulation of Lee & Messerschmitt: fire fireable actors until
//! every actor has completed its repetition-vector quota, tracking the
//! running maximum token count per edge. If the simulation stalls before
//! the quota is met, the graph deadlocks.

use crate::error::{DataflowError, Result};
use crate::graph::{ActorId, EdgeId, SdfGraph};
use crate::rates::RepetitionVector;

/// A flat single-processor schedule: one entry per firing.
///
/// Produced by [`SdfGraph::class_s_schedule`]; also reusable as the firing
/// order inside each processor of a multiprocessor partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSchedule {
    firings: Vec<ActorId>,
}

impl FlatSchedule {
    /// The firing sequence.
    pub fn firings(&self) -> &[ActorId] {
        &self.firings
    }

    /// Number of firings in one iteration.
    pub fn len(&self) -> usize {
        self.firings.len()
    }

    /// `true` for the empty schedule.
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty()
    }
}

/// Per-edge buffer bounds measured by schedule simulation.
///
/// `bound(e)` is the maximum number of simultaneously-live tokens observed
/// on `e` under the schedule that produced this report, which is a valid
/// buffer size for executing that schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferBounds {
    bounds: Vec<u64>,
}

impl BufferBounds {
    /// Maximum simultaneously-live tokens on `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to the graph that produced this
    /// report.
    pub fn bound(&self, edge: EdgeId) -> u64 {
        self.bounds[edge.0]
    }

    /// Iterates over `(EdgeId, bound)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, u64)> + '_ {
        self.bounds.iter().enumerate().map(|(i, &b)| (EdgeId(i), b))
    }

    /// Sum of all per-edge bounds in tokens (a total-memory proxy).
    pub fn total_tokens(&self) -> u64 {
        self.bounds.iter().sum()
    }
}

/// Outcome of one class-S scheduling run: the schedule plus the buffer
/// bounds it witnessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleReport {
    /// The admissible firing order found.
    pub schedule: FlatSchedule,
    /// Max tokens observed per edge while executing it.
    pub bounds: BufferBounds,
}

impl SdfGraph {
    /// Builds an admissible single-processor schedule by class-S
    /// simulation, also measuring per-edge buffer bounds. Among the
    /// actors that can fire, the one with the fewest completed firings
    /// goes first (ties to the lowest id): the graph runs in lock-step,
    /// which yields tight bounds on signal-processing graphs.
    ///
    /// # Errors
    ///
    /// * Everything [`SdfGraph::repetition_vector`] can return.
    /// * [`DataflowError::Deadlock`] if no admissible schedule exists
    ///   (some cycle has insufficient initial tokens).
    pub fn class_s_schedule(&self) -> Result<ScheduleReport> {
        let q = self.repetition_vector()?;
        self.simulate_schedule(&q)
    }

    /// Convenience wrapper: schedule and return only the buffer bounds
    /// (`c_sdf` of paper eq. 1).
    ///
    /// # Errors
    ///
    /// Same as [`SdfGraph::class_s_schedule`].
    pub fn sdf_buffer_bounds(&self) -> Result<BufferBounds> {
        Ok(self.class_s_schedule()?.bounds)
    }

    fn simulate_schedule(&self, q: &RepetitionVector) -> Result<ScheduleReport> {
        let n = self.actor_count();
        let mut tokens: Vec<u64> = self.edges().map(|(_, e)| e.delay).collect();
        let mut max_tokens = tokens.clone();
        let mut fired = vec![0u64; n];
        let mut firings = Vec::with_capacity(
            usize::try_from(q.total_firings()).map_err(|_| DataflowError::Overflow)?,
        );

        let in_edges: Vec<Vec<EdgeId>> = (0..n).map(|a| self.in_edges(ActorId(a))).collect();
        let out_edges: Vec<Vec<EdgeId>> = (0..n).map(|a| self.out_edges(ActorId(a))).collect();

        let fireable = |a: usize, fired: &[u64], tokens: &[u64]| -> bool {
            if fired[a] >= q.count(ActorId(a)) {
                return false;
            }
            in_edges[a]
                .iter()
                .all(|&e| tokens[e.0] >= u64::from(self.edge(e).consume.bound()))
        };

        loop {
            let candidate = (0..n)
                .filter(|&a| fireable(a, &fired, &tokens))
                .min_by_key(|&a| (fired[a], a));
            let Some(a) = candidate else { break };

            for &e in &in_edges[a] {
                tokens[e.0] -= u64::from(self.edge(e).consume.bound());
            }
            for &e in &out_edges[a] {
                tokens[e.0] += u64::from(self.edge(e).produce.bound());
                max_tokens[e.0] = max_tokens[e.0].max(tokens[e.0]);
            }
            fired[a] += 1;
            firings.push(ActorId(a));
        }

        let starved: Vec<ActorId> = (0..n)
            .filter(|&a| fired[a] < q.count(ActorId(a)))
            .map(ActorId)
            .collect();
        if !starved.is_empty() {
            return Err(DataflowError::Deadlock { starved });
        }

        Ok(ScheduleReport {
            schedule: FlatSchedule { firings },
            bounds: BufferBounds { bounds: max_tokens },
        })
    }
}

/// Aggregate validation of a graph: consistency, liveness, and buffer
/// bounds in one pass (the checks a tool runs before committing to a
/// design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Firings per minimal iteration.
    pub total_firings: u64,
    /// Sum of per-edge buffer bounds, in tokens.
    pub total_buffer_tokens: u64,
    /// Sum of per-edge buffer bounds, in bytes.
    pub total_buffer_bytes: u64,
}

impl SdfGraph {
    /// Validates the graph end to end: solvable balance equations, an
    /// admissible schedule exists, and reports the aggregate buffer
    /// footprint.
    ///
    /// Dynamic edges are admitted by validating the VTS conversion
    /// (bytes use `b_max` for converted edges).
    ///
    /// # Errors
    ///
    /// The first failing analysis' error ([`crate::DataflowError`]).
    pub fn validate(&self) -> Result<ValidationReport> {
        let vts = crate::vts::VtsConversion::convert(self)?;
        let graph = vts.graph();
        let q = graph.repetition_vector()?;
        let report = graph.class_s_schedule()?;
        let mut total_buffer_bytes = 0u64;
        for (eid, bound) in report.bounds.iter() {
            total_buffer_bytes += bound * vts.bytes_per_packed_token(eid)?;
        }
        Ok(ValidationReport {
            total_firings: q.total_firings(),
            total_buffer_tokens: report.bounds.total_tokens(),
            total_buffer_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (SdfGraph, ActorId, ActorId, ActorId, EdgeId, EdgeId) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let c = g.add_actor("C", 1);
        let e1 = g.add_edge(a, b, 2, 3, 0, 4).unwrap();
        let e2 = g.add_edge(b, c, 1, 1, 0, 4).unwrap();
        (g, a, b, c, e1, e2)
    }

    #[test]
    fn schedule_respects_repetition_vector() {
        let (g, a, b, c, ..) = chain();
        let report = g.class_s_schedule().unwrap();
        let q = g.repetition_vector().unwrap();
        let count = |x: ActorId| {
            report
                .schedule
                .firings()
                .iter()
                .filter(|&&f| f == x)
                .count() as u64
        };
        assert_eq!(count(a), q[a]);
        assert_eq!(count(b), q[b]);
        assert_eq!(count(c), q[c]);
        assert_eq!(report.schedule.len() as u64, q.total_firings());
    }

    #[test]
    fn schedule_is_admissible_prefixwise() {
        // Replaying the schedule must never drive an edge negative.
        let (g, ..) = chain();
        let report = g.class_s_schedule().unwrap();
        let mut tokens: Vec<i64> = g.edges().map(|(_, e)| e.delay as i64).collect();
        for &f in report.schedule.firings() {
            for e in g.in_edges(f) {
                tokens[e.0] -= i64::from(g.edge(e).consume.bound());
                assert!(tokens[e.0] >= 0, "negative tokens on {e}");
            }
            for e in g.out_edges(f) {
                tokens[e.0] += i64::from(g.edge(e).produce.bound());
            }
        }
        // After one iteration every edge returns to its delay count.
        for ((_, e), t) in g.edges().zip(tokens) {
            assert_eq!(t, e.delay as i64);
        }
    }

    #[test]
    fn buffer_bounds_cover_observed_maxima() {
        let (g, _, _, _, e1, e2) = chain();
        let bounds = g.sdf_buffer_bounds().unwrap();
        // On e1 the lock-step policy reaches at most 4 tokens
        // (A A fire -> 4, B consumes 3 -> 1, ...).
        assert!(
            bounds.bound(e1) >= 3,
            "must hold at least one consumption batch"
        );
        assert!(bounds.bound(e1) <= 4);
        assert!(bounds.bound(e2) >= 1);
        assert!(bounds.total_tokens() >= bounds.bound(e1));
    }

    #[test]
    fn deadlocked_cycle_detected() {
        // A -> B -> A with no initial tokens can never start.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, a, 1, 1, 0, 4).unwrap();
        match g.class_s_schedule() {
            Err(DataflowError::Deadlock { starved }) => {
                assert_eq!(starved.len(), 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cycle_with_enough_delay_schedules() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, a, 1, 1, 1, 4).unwrap();
        let report = g.class_s_schedule().unwrap();
        assert_eq!(report.schedule.len(), 2);
        assert_eq!(report.schedule.firings()[0], a);
    }

    #[test]
    fn cycle_with_insufficient_delay_for_rates_deadlocks() {
        // B needs 3 tokens but the feedback delay only ever provides 2
        // before A must fire, and A needs B's output.
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 3, 0, 4).unwrap();
        g.add_edge(b, a, 3, 1, 2, 4).unwrap();
        assert!(matches!(
            g.class_s_schedule(),
            Err(DataflowError::Deadlock { .. })
        ));
    }

    #[test]
    fn validate_reports_aggregates() {
        let (g, ..) = chain();
        let v = g.validate().unwrap();
        assert_eq!(
            v.total_firings,
            g.repetition_vector().unwrap().total_firings()
        );
        assert!(v.total_buffer_tokens >= 3);
        assert_eq!(v.total_buffer_bytes, v.total_buffer_tokens * 4);
    }

    #[test]
    fn validate_admits_dynamic_graphs() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_dynamic_edge(a, b, 16, 16, 0, 4).unwrap();
        let v = g.validate().unwrap();
        assert_eq!(v.total_firings, 2);
        assert_eq!(v.total_buffer_bytes, 64, "one packed token of b_max bytes");
    }

    #[test]
    fn validate_rejects_deadlock() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, a, 1, 1, 0, 4).unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn delays_count_toward_bounds() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let e = g.add_edge(a, b, 1, 1, 5, 4).unwrap();
        let bounds = g.sdf_buffer_bounds().unwrap();
        assert!(bounds.bound(e) >= 5, "initial tokens live on the edge");
    }
}
