//! Latency analysis of self-timed synchronization graphs.
//!
//! Resynchronization trades synchronization cost against *latency*: an
//! added ordering edge can delay a sink's first completion even when the
//! steady-state throughput is unchanged (Sriram & Bhattacharyya treat
//! this as latency-constrained resynchronization). This module computes
//! self-timed start/end times directly from the paper's eq. (3)
//! semantics — `start(v, k) ≥ end(v_j, k − delay)` — in one forward pass
//! over a finite horizon, O(horizon · edges), and measures the period
//! over it.

use crate::sync_graph::SyncGraph;

/// Self-timed start/end times of every task over `iterations` graph
/// iterations, assuming unbounded processors honor only the
/// synchronization edges (ASAP schedule of eq. 3).
///
/// Returns `times[k][t] = (start, end)` for iteration `k` and task `t`.
/// Tasks with no enabling constraints start at cycle 0 of iteration 0.
///
/// Each iteration is one pass over the tasks in a topological order of
/// the zero-delay edges, each task reading only its own incoming edges:
/// a delayed edge reads an iteration already finished, a zero-delay one
/// a task already visited in this one. That is the least fixed point of
/// eq. (3), the ASAP schedule.
pub fn self_timed_times(graph: &SyncGraph, iterations: u64) -> Vec<Vec<(u64, u64)>> {
    let tasks = graph.tasks();
    let mut incoming: Vec<Vec<(usize, u64)>> = vec![Vec::new(); tasks.len()];
    for e in graph.edges() {
        incoming[e.to.0].push((e.from.0, e.delay));
    }
    // Every `SyncGraph` constructor rejects zero-delay cycles, so the order exists.
    #[allow(clippy::expect_used)]
    let order = graph
        .zero_delay_order()
        .expect("a SyncGraph has no zero-delay cycle");

    let mut times: Vec<Vec<(u64, u64)>> = Vec::with_capacity(iterations as usize);
    for k in 0..iterations {
        let mut row = vec![(0u64, 0u64); tasks.len()];
        for &t in &order {
            let mut start = 0u64;
            for &(from, delay) in &incoming[t] {
                let dep_end = match (delay, k.checked_sub(delay)) {
                    (0, _) => row[from].1,
                    (_, Some(dep)) => times[dep as usize][from].1,
                    (_, None) => continue, // satisfied by initial state
                };
                start = start.max(dep_end);
            }
            row[t] = (start, start + tasks[t].exec_cycles);
        }
        times.push(row);
    }
    times
}

/// Average iteration period measured over a finite horizon (converges to
/// the maximum cycle mean as the horizon grows).
pub fn measured_period(graph: &SyncGraph, iterations: u64) -> f64 {
    if graph.tasks().is_empty() {
        return 0.0;
    }
    let times = self_timed_times(graph, iterations);
    let makespan = |row: &[(u64, u64)]| row.iter().map(|&(_, e)| e).max().unwrap_or(0);
    let (Some(first), Some(last)) = (times.first(), times.last()) else {
        return 0.0; // an empty horizon
    };
    if iterations == 1 {
        makespan(last) as f64
    } else {
        (makespan(last) - makespan(first)) as f64 / (iterations - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, ProcId};
    use crate::ipc_graph::IpcGraph;
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
    fn pipeline_latency_is_sum_of_stage_times() {
        let sg = two_proc_pipeline(&[10, 20, 30]);
        let times = self_timed_times(&sg, 1);
        // v0 at 0..10, v1 at 10..30, v2 at 30..60 (ignoring free seq edges
        // that only involve same-processor ordering v0 → v2… which adds
        // no wait because v2 starts after v1 anyway).
        let ends: Vec<u64> = times[0].iter().map(|&(_, e)| e).collect();
        assert_eq!(ends.iter().max(), Some(&60));
    }

    #[test]
    fn first_completion_matches_manual_chain() {
        let sg = two_proc_pipeline(&[5, 7]);
        // The sink is the task with the largest completion.
        let times = self_timed_times(&sg, 1);
        let max_end = times[0].iter().map(|&(_, e)| e).max().unwrap();
        assert_eq!(max_end, 12);
    }

    #[test]
    fn measured_period_converges_to_mcm() {
        let sg = two_proc_pipeline(&[10, 40, 10]);
        let mcm = sg.iteration_period().expect("cyclic through loopbacks");
        let measured = measured_period(&sg, 64);
        assert!(
            (measured - mcm).abs() / mcm < 0.15,
            "measured {measured} vs analytic {mcm}"
        );
    }

    #[test]
    fn later_iterations_never_start_earlier() {
        let sg = two_proc_pipeline(&[10, 20, 30, 5]);
        let times = self_timed_times(&sg, 8);
        for (k, window) in times.windows(2).enumerate() {
            for (t, (prev, next)) in window[0].iter().zip(&window[1]).enumerate() {
                assert!(next.0 >= prev.0, "iteration {k} task {t}");
            }
        }
    }

    #[test]
    fn completions_by_name_maps_labels() {
        let sg = two_proc_pipeline(&[4, 6]);
        let times = self_timed_times(&sg, 1);
        let mut ends: Vec<(String, u64)> = sg
            .tasks()
            .iter()
            .zip(&times[0])
            .map(|(t, &(_, end))| (t.firing.actor.to_string(), end))
            .collect();
        ends.sort();
        assert_eq!(ends, [("a0".to_string(), 4), ("a1".to_string(), 10)]);
    }

    #[test]
    fn latency_report_is_complete() {
        let sg = two_proc_pipeline(&[10, 20]);
        assert_eq!(self_timed_times(&sg, 1)[0].len(), sg.tasks().len());
        assert!(measured_period(&sg, 16) > 0.0);
    }
}
