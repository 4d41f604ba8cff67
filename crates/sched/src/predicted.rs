//! Predicted-performance query API for self-timed schedules.
//!
//! The paper's eq. (3) semantics give every task of the synchronization
//! graph an analytic ASAP start/end time; [`crate::latency`] computes
//! those in one forward pass per iteration. This module packages the
//! numbers the *runtime* side wants to compare itself against: an
//! iteration-period estimate (the maximum cycle mean the schedule
//! converges to) and a **makespan bound** for a finite horizon of
//! iterations — the value a trace-conformance checker holds an observed
//! execution against.
//!
//! The bound is exact at every horizon: eq. (3) is evaluated iteration
//! by iteration only until the end times repeat up to a per-task shift
//! ([`crate::latency::PeriodicRegime`]), and every later iteration
//! follows from that period in closed form.
//!
//! The numbers cover **computation and synchronization ordering only**:
//! the sync graph carries no per-message communication costs (channel
//! wire time, send/receive overhead). Callers that know those costs —
//! the SPI system builder does — add them as slack via
//! [`PredictedMetrics::makespan_with_slack`].

use std::time::Duration;

use crate::analysis::CycleRatio;
use crate::latency::PeriodicRegime;
use crate::sync_graph::SyncGraph;

/// Analytic performance prediction for a self-timed schedule over a
/// finite horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedMetrics {
    /// Number of tasks in the synchronization graph.
    pub tasks: usize,
    /// Iterations the prediction covers.
    pub horizon: u64,
    /// Completion cycle of the first iteration (pipeline fill latency).
    pub first_iteration_makespan: u64,
    /// Steady-state iteration period, the exact maximum cycle ratio;
    /// `None` when the graph is acyclic (unbounded pipelining).
    pub iteration_period: Option<CycleRatio>,
    /// Compute-only makespan bound for `horizon` iterations, in cycles.
    pub makespan_cycles: u64,
}

impl PredictedMetrics {
    /// The makespan bound with communication slack added: a fixed
    /// startup allowance plus a per-iteration cost, both in cycles.
    /// Callers use this to turn the compute-only analytic number into a
    /// conservative envelope for an execution that also pays per-message
    /// channel costs.
    pub fn makespan_with_slack(&self, per_iteration_cycles: u64, fixed_cycles: u64) -> u64 {
        self.makespan_cycles
            .saturating_add(per_iteration_cycles.saturating_mul(self.horizon))
            .saturating_add(fixed_cycles)
    }

    /// A wall-clock **per-operation deadline** for a supervised run,
    /// derived from the analytic per-iteration cost: a healthy peer
    /// produces or consumes at least one token per iteration, so no
    /// single channel op should block longer than `safety_factor`
    /// iterations' worth of predicted cycles. Uses the worst of the
    /// pipeline-fill latency and the amortized steady-state iteration
    /// cost (fill dominates on deep pipelines, steady state on cyclic
    /// graphs throttled by feedback).
    ///
    /// Returns `None` when there is no basis for a deadline — zero
    /// clock, an empty horizon, or a zero-cost prediction — so callers
    /// fall back to their configured default rather than a 0 ns
    /// deadline that would fail every op.
    pub fn op_deadline(&self, clock_hz: u64, safety_factor: f64) -> Option<Duration> {
        // `is_finite` + `<= 0.0` also rejects NaN and infinities.
        if clock_hz == 0 || self.horizon == 0 || !safety_factor.is_finite() || safety_factor <= 0.0
        {
            return None;
        }
        let amortized = self.makespan_cycles.div_ceil(self.horizon);
        let per_iter_cycles = self.first_iteration_makespan.max(amortized);
        if per_iter_cycles == 0 {
            return None;
        }
        let nanos = (per_iter_cycles as f64) * safety_factor * 1e9 / (clock_hz as f64);
        Some(Duration::from_nanos(nanos.ceil() as u64))
    }
}

/// Computes [`PredictedMetrics`] for `iterations` of `graph` under the
/// self-timed (eq. 3) semantics. `period` is `graph`'s
/// [`SyncGraph::iteration_period`], passed in so that a caller which
/// already has it does not run the cycle-ratio search twice.
pub fn predicted_metrics(
    graph: &SyncGraph,
    iterations: u64,
    period: Option<CycleRatio>,
) -> PredictedMetrics {
    let regime = PeriodicRegime::new(graph, iterations);
    PredictedMetrics {
        tasks: graph.tasks().len(),
        horizon: iterations,
        first_iteration_makespan: regime.makespan(iterations.min(1)),
        iteration_period: period,
        makespan_cycles: regime.makespan(iterations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, ProcId};
    use crate::ipc_graph::IpcGraph;
    use crate::latency::self_timed_times;
    use crate::selftimed::SelfTimedSchedule;
    use crate::sync_graph::Protocol;
    use spi_dataflow::{PrecedenceGraph, SdfGraph};

    fn two_proc_pipeline(exec: &[u64]) -> SyncGraph {
        let mut g = SdfGraph::new();
        let actors: Vec<_> = exec
            .iter()
            .enumerate()
            .map(|(i, &c)| g.add_actor(format!("v{i}"), c))
            .collect();
        for w in actors.windows(2) {
            g.add_edge(w[0], w[1], 1, 1, 0, 4).unwrap();
        }
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |a| ProcId(a.0 % 2)).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 2 }).unwrap()
    }

    #[test]
    fn one_iteration_matches_first_completion() {
        let sg = two_proc_pipeline(&[10, 20, 30]);
        let m = predicted_metrics(&sg, 1, sg.iteration_period());
        assert_eq!(m.first_iteration_makespan, 60);
        assert_eq!(m.makespan_cycles, 60);
        assert_eq!(m.horizon, 1);
        assert_eq!(m.tasks, sg.tasks().len());
    }

    #[test]
    fn makespan_grows_monotonically_with_horizon() {
        let sg = two_proc_pipeline(&[10, 40, 10]);
        let mut prev = 0;
        for iters in [1, 2, 4, 8, 32] {
            let m = predicted_metrics(&sg, iters, sg.iteration_period()).makespan_cycles;
            assert!(m >= prev, "{iters} iterations: {m} < {prev}");
            prev = m;
        }
    }

    #[test]
    fn long_horizons_equal_eq3_iteration_by_iteration() {
        let sg = two_proc_pipeline(&[10, 20, 5]);
        let exact = self_timed_times(&sg, 600);
        for h in [1, 2, 255, 256, 257, 300, 600] {
            let predicted = predicted_metrics(&sg, h, sg.iteration_period()).makespan_cycles;
            let row = &exact[h as usize - 1];
            assert_eq!(
                predicted,
                row.iter().map(|&(_, e)| e).max().unwrap(),
                "h = {h}"
            );
        }
    }

    #[test]
    fn slack_adds_per_iteration_and_fixed_terms() {
        let sg = two_proc_pipeline(&[10, 10]);
        let m = predicted_metrics(&sg, 5, sg.iteration_period());
        assert_eq!(m.makespan_with_slack(7, 100), m.makespan_cycles + 35 + 100);
    }

    #[test]
    fn zero_iterations_predict_zero() {
        let sg = two_proc_pipeline(&[10, 10]);
        let m = predicted_metrics(&sg, 0, sg.iteration_period());
        assert_eq!(m.makespan_cycles, 0);
        assert_eq!(m.first_iteration_makespan, 0);
    }

    #[test]
    fn op_deadline_scales_with_clock_and_safety_factor() {
        let sg = two_proc_pipeline(&[10, 20, 30]);
        let m = predicted_metrics(&sg, 1, sg.iteration_period());
        // 60 cycles at 1 MHz = 60 µs per iteration; ×10 safety = 600 µs.
        let d = m.op_deadline(1_000_000, 10.0).unwrap();
        assert_eq!(d, Duration::from_micros(600));
        // Faster clock, tighter deadline.
        let d = m.op_deadline(1_000_000_000, 10.0).unwrap();
        assert_eq!(d, Duration::from_nanos(600));
    }

    #[test]
    fn op_deadline_uses_worst_of_fill_and_amortized_cost() {
        let sg = two_proc_pipeline(&[10, 40, 10]);
        let m = predicted_metrics(&sg, 64, sg.iteration_period());
        let amortized = m.makespan_cycles.div_ceil(m.horizon);
        let worst = m.first_iteration_makespan.max(amortized);
        let d = m.op_deadline(1_000_000, 1.0).unwrap();
        assert_eq!(d, Duration::from_nanos(worst * 1_000));
    }

    #[test]
    fn op_deadline_degenerate_inputs_yield_none() {
        let sg = two_proc_pipeline(&[10, 10]);
        let m = predicted_metrics(&sg, 4, sg.iteration_period());
        assert_eq!(m.op_deadline(0, 10.0), None);
        assert_eq!(m.op_deadline(1_000_000, 0.0), None);
        assert_eq!(m.op_deadline(1_000_000, -1.0), None);
        let empty = predicted_metrics(&sg, 0, sg.iteration_period());
        assert_eq!(empty.op_deadline(1_000_000, 10.0), None);
    }
}
