//! Latency analysis of self-timed synchronization graphs.
//!
//! Resynchronization trades synchronization cost against *latency*: an
//! added ordering edge can delay a sink's first completion even when the
//! steady-state throughput is unchanged (Sriram & Bhattacharyya treat
//! this as latency-constrained resynchronization). This module computes
//! self-timed start/end times directly from the paper's eq. (3)
//! semantics — `start(v, k) ≥ end(v_j, k − delay)` — in one forward pass
//! per iteration, O(edges) each, and finds where they turn periodic
//! ([`PeriodicRegime`]), after which every horizon is closed-form.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};

use crate::sync_graph::SyncGraph;

/// Eq. (3) for one graph: each task's incoming `(from, delay)` pairs,
/// its execution time, and a topological order of the zero-delay edges.
struct Eq3 {
    incoming: Vec<Vec<(usize, u64)>>,
    exec: Vec<u64>,
    order: Vec<usize>,
}

impl Eq3 {
    fn new(graph: &SyncGraph) -> Self {
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
        let exec = tasks.iter().map(|t| t.exec_cycles).collect();
        Eq3 {
            incoming,
            exec,
            order,
        }
    }

    /// End times of iteration `ends.len()`, given every earlier one.
    ///
    /// One pass over the tasks in topological order of the zero-delay
    /// edges, each task reading only its own incoming edges: a delayed
    /// edge reads an iteration already finished, a zero-delay one a task
    /// already visited in this one. That is the least fixed point of
    /// eq. (3), the ASAP schedule.
    fn next_row(&self, ends: &[Vec<u64>]) -> Vec<u64> {
        let k = ends.len() as u64;
        let mut row = vec![0u64; self.exec.len()];
        for &t in &self.order {
            let mut start = 0u64;
            for &(from, delay) in &self.incoming[t] {
                let dep_end = match (delay, k.checked_sub(delay)) {
                    (0, _) => row[from],
                    (_, Some(dep)) => ends[dep as usize][from],
                    (_, None) => continue, // satisfied by initial state
                };
                start = start.max(dep_end);
            }
            row[t] = start + self.exec[t];
        }
        row
    }

    /// The shift `δ` if rows `k − c − depth + 1 ..= k`, `k` the last of
    /// `ends`, pass [`PeriodicRegime`]'s three checks at cyclicity `c`.
    fn shift_at(&self, ends: &[Vec<u64>], c: usize, depth: usize) -> Option<Vec<u64>> {
        let k = ends.len() - 1;
        let (last, back) = (&ends[k], &ends[k - c]);
        let mut delta = Vec::with_capacity(last.len());
        for (t, (&x, &y)) in last.iter().zip(back).enumerate() {
            let d = x.checked_sub(y)?;
            if (1..depth).any(|i| ends[k - i][t].checked_sub(ends[k - i - c][t]) != Some(d)) {
                return None;
            }
            delta.push(d);
        }
        for (t, incoming) in self.incoming.iter().enumerate() {
            if incoming.iter().any(|&(s, _)| delta[s] > delta[t]) {
                return None;
            }
            // Every dependence is defined in these rows: j − delay ≥ k − c − depth + 1 ≥ 0.
            for j in k + 1 - c..=k {
                let term = |&(s, d): &(usize, u64)| ends[j - d as usize][s];
                let all = incoming.iter().map(term).max();
                let own = (incoming.iter())
                    .filter(|&&(s, _)| delta[s] == delta[t])
                    .map(term)
                    .max();
                if own != all {
                    return None;
                }
            }
        }
        Some(delta)
    }
}

/// Self-timed start/end times of every task over `iterations` graph
/// iterations, assuming unbounded processors honor only the
/// synchronization edges (ASAP schedule of eq. 3).
///
/// Returns `times[k][t] = (start, end)` for iteration `k` and task `t`.
/// Tasks with no enabling constraints start at cycle 0 of iteration 0.
pub fn self_timed_times(graph: &SyncGraph, iterations: u64) -> Vec<Vec<(u64, u64)>> {
    let eq3 = Eq3::new(graph);
    let mut ends: Vec<Vec<u64>> = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        ends.push(eq3.next_row(&ends));
    }
    (ends.iter())
        .map(|row| {
            row.iter()
                .zip(&eq3.exec)
                .map(|(&e, &x)| (e - x, e))
                .collect()
        })
        .collect()
}

/// The eq. (3) end times `x_t(k)` of a graph's tasks, evaluated only
/// until they repeat up to a shift: from some iteration `a` on,
/// `x_t(k + c) = x_t(k) + δ_t` for every task `t`, with cyclicity `c`
/// and a per-task shift `δ_t` (`c` times the largest cycle ratio
/// upstream of `t`: a graph with BBS edges need not be strongly
/// connected, so tasks can settle to different rates). Every later
/// iteration then follows in closed form.
///
/// Regime detection: the last `D` increment rows (`D` the largest edge
/// delay; eq. (3) reads no further back) repeat rows `c` iterations
/// earlier, so `x(k − i) − x(k − i − c)` is the same `δ` for every
/// `i < D`; `δ_s ≤ δ_t` on every edge `s → t`; and in each of the last
/// `c` iterations every task's latest dependence comes from a task of
/// its own shift. By induction over eq. (3), the slower terms then fall
/// further behind every period and the shift holds for ever. Memory is
/// O((transient + c + D) · tasks).
#[derive(Debug, Clone)]
pub struct PeriodicRegime {
    /// `ends[k][t] = x_t(k)` for the iterations evaluated.
    ends: Vec<Vec<u64>>,
    /// `(a, c, δ)` once the shift was found.
    shift: Option<(usize, usize, Vec<u64>)>,
}

impl PeriodicRegime {
    /// Evaluates eq. (3) on `graph` until the regime shows, or through
    /// `horizon` iterations if it has not shown by then; either way
    /// every end time below the horizon is exact.
    pub fn new(graph: &SyncGraph, horizon: u64) -> Self {
        let eq3 = Eq3::new(graph);
        let depth = (graph.edges().iter().map(|e| e.delay).max().unwrap_or(0) as usize).max(1);
        let mut ends: Vec<Vec<u64>> = Vec::new();
        // A hash of each increment row `x(k) − x(k − 1)`, and the last
        // iteration at which each window of `depth` of them ended: a
        // window seen `c` iterations ago is the one cyclicity worth
        // checking, so each iteration costs O(tasks · depth).
        let mut steps: Vec<u64> = Vec::new();
        let mut seen: HashMap<Vec<u64>, usize> = HashMap::new();
        while (ends.len() as u64) < horizon {
            ends.push(eq3.next_row(&ends));
            let k = ends.len() - 1;
            if k == 0 {
                continue;
            }
            let mut hasher = DefaultHasher::new();
            for (x, y) in ends[k].iter().zip(&ends[k - 1]) {
                hasher.write_u64(x.wrapping_sub(*y));
            }
            steps.push(hasher.finish());
            let Some(window) = steps.len().checked_sub(depth).map(|i| steps[i..].to_vec()) else {
                continue;
            };
            // The earlier window ended at iteration ≥ depth, so rows
            // `k − c − depth + 1 ..= k` all exist.
            let Some(c) = seen.insert(window, k).map(|prev| k - prev) else {
                continue;
            };
            if let Some(delta) = eq3.shift_at(&ends, c, depth) {
                let shift = Some((k + 1 - depth - c, c, delta));
                return PeriodicRegime { ends, shift };
            }
        }
        PeriodicRegime { ends, shift: None }
    }

    /// `x_t(k)`, the end time of `task` in iteration `k`: any `k` once
    /// the regime is found, otherwise `k` below the horizon given to
    /// `new`.
    fn end(&self, task: usize, k: u64) -> u64 {
        let Some((start, c, delta)) = self.shift.as_ref().filter(|_| k >= self.ends.len() as u64)
        else {
            return self.ends[k as usize][task];
        };
        let (start, c) = (*start as u64, *c as u64);
        let (periods, base) = ((k - start) / c, start + (k - start) % c);
        let x = self.ends[base as usize][task];
        x.saturating_add(periods.saturating_mul(delta[task]))
    }

    /// Completion cycle of the last task over `iterations` iterations
    /// (0 for none): any horizon once the regime is found, otherwise one
    /// up to the horizon given to `new`.
    pub fn makespan(&self, iterations: u64) -> u64 {
        let Some(k) = iterations.checked_sub(1) else {
            return 0;
        };
        let tasks = self.ends.first().map_or(0, Vec::len);
        (0..tasks).map(|t| self.end(t, k)).max().unwrap_or(0)
    }

    /// The cyclicity `c` and the makespan's growth over it, `c · λ` for
    /// the maximum cycle ratio `λ` — or `None` if the regime did not show
    /// within the horizon.
    pub fn period(&self) -> Option<(u64, u64)> {
        let (_, c, delta) = self.shift.as_ref()?;
        Some((*c as u64, delta.iter().copied().max().unwrap_or(0)))
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
    }
}
