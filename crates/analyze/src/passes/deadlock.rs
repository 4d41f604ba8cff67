//! SPI020 — deadlock witness.
//!
//! Class-S scheduling reports *that* simulation starves; this pass names
//! the delay-free cycle responsible. A consistent SDF graph deadlocks
//! exactly when some directed cycle carries fewer initial tokens than
//! one firing of each consumer needs, so among the starved actors we
//! search for a cycle using only edges whose delay cannot cover one
//! consumption.

use std::collections::{HashMap, HashSet};

use spi_dataflow::{ActorId, DataflowError, SdfGraph};

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Names the cycle that starves a consistent graph.
pub struct DeadlockWitness;

impl Pass for DeadlockWitness {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        // Schedule what the scheduler schedules: the VTS-converted
        // graph.
        let Some(vts) = input.vts else { return };
        let g = vts.graph();
        // An inconsistent graph fails before it simulates: SPI010's
        // territory.
        let Err(DataflowError::Deadlock { starved }) = g.sdf_buffer_bounds() else {
            return;
        };

        let diag = match find_delay_free_cycle(g, &starved) {
            Some(cycle) => {
                let names: Vec<String> = cycle.iter().map(|&a| input.actor_name(a)).collect();
                Diagnostic::new(
                    "SPI020",
                    Severity::Error,
                    Locus::Cycle(cycle),
                    format!(
                        "the schedule deadlocks: cycle {} -> {} carries fewer initial \
                         tokens than one firing of each consumer needs, so no actor \
                         on it can ever fire",
                        names.join(" -> "),
                        names[0],
                    ),
                )
                .with_suggestion("add delay (initial tokens) on at least one edge of the cycle")
            }
            None => {
                let names: Vec<String> = starved.iter().map(|&a| input.actor_name(a)).collect();
                Diagnostic::new(
                    "SPI020",
                    Severity::Error,
                    Locus::Actor(starved[0]),
                    format!(
                        "the schedule deadlocks: actors {{{}}} starve before completing \
                         one iteration",
                        names.join(", "),
                    ),
                )
                .with_suggestion("add delay (initial tokens) on an edge feeding the starved actors")
            }
        };
        out.push(diag);
    }
}

/// Finds a directed cycle among `starved` actors using only edges whose
/// delay is below one consumption (i.e. edges that block their consumer
/// at the start state).
fn find_delay_free_cycle(g: &SdfGraph, starved: &[ActorId]) -> Option<Vec<ActorId>> {
    let starved_set: HashSet<ActorId> = starved.iter().copied().collect();
    let mut adj: HashMap<ActorId, Vec<ActorId>> = HashMap::new();
    for (_, e) in g.edges() {
        if starved_set.contains(&e.src)
            && starved_set.contains(&e.dst)
            && e.delay < u64::from(e.consume.bound())
        {
            adj.entry(e.src).or_default().push(e.dst);
        }
    }
    // Iterative DFS with an explicit stack; `on_path` tracks the current
    // chain so the first back-edge closes a concrete cycle.
    let mut visited: HashSet<ActorId> = HashSet::new();
    for &start in starved {
        if visited.contains(&start) {
            continue;
        }
        let mut path: Vec<ActorId> = Vec::new();
        let mut iters: Vec<std::slice::Iter<'_, ActorId>> = Vec::new();
        let mut on_path: HashSet<ActorId> = HashSet::new();
        visited.insert(start);
        on_path.insert(start);
        path.push(start);
        iters.push(adj.get(&start).map(Vec::as_slice).unwrap_or(&[]).iter());
        while let Some(it) = iters.last_mut() {
            match it.next() {
                Some(&next) => {
                    if on_path.contains(&next) {
                        let pos = path.iter().position(|&a| a == next).unwrap_or(0);
                        return Some(path[pos..].to_vec());
                    }
                    if visited.insert(next) {
                        on_path.insert(next);
                        path.push(next);
                        iters.push(adj.get(&next).map(Vec::as_slice).unwrap_or(&[]).iter());
                    }
                }
                None => {
                    iters.pop();
                    if let Some(done) = path.pop() {
                        on_path.remove(&done);
                    }
                }
            }
        }
    }
    None
}
