//! SPI010 — rate-consistency explainer.
//!
//! The repetition-vector solver reports *that* a graph is inconsistent
//! and with it a witness: the first edge whose rates contradict the
//! exact ratios its spanning tree propagated, the undirected cycle that
//! edge closes through the tree, and the two conflicting ratios. This
//! pass renders that witness.
//!
//! The solver runs on the VTS-converted graph, where dynamic edges are
//! the rate-1 packed-token edges of §3, matching what the scheduler
//! sees.

use spi_dataflow::DataflowError;

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Explains inconsistent SDF rate systems with a concrete cycle.
pub struct RateConsistency;

impl Pass for RateConsistency {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        // Without a conversion (a zero rate bound, SPI002) there are no
        // rates to solve.
        let Some(vts) = input.vts else { return };
        let Err(DataflowError::Inconsistent {
            edge,
            cycle,
            assigned,
            implied,
        }) = vts.graph().repetition_vector()
        else {
            return;
        };
        let e = vts.graph().edge(edge);
        let ratio = |(num, den): (u64, u64)| {
            if den == 1 {
                num.to_string()
            } else {
                format!("{num}/{den}")
            }
        };
        let names: Vec<String> = cycle.iter().map(|&a| input.actor_name(a)).collect();
        out.push(
            Diagnostic::new(
                "SPI010",
                Severity::Error,
                Locus::Cycle(cycle),
                format!(
                    "rates are inconsistent around the cycle {}: edge {edge} \
                     ({} -> {}) produces {} and consumes {}, which implies \
                     q({}) = {}, but the rest of the cycle fixes \
                     q({}) = {}; no integer repetition vector satisfies both",
                    names.join(" -> "),
                    input.actor_name(e.src),
                    input.actor_name(e.dst),
                    e.produce.bound(),
                    e.consume.bound(),
                    input.actor_name(e.dst),
                    ratio(implied),
                    input.actor_name(e.dst),
                    ratio(assigned),
                ),
            )
            .with_suggestion(format!(
                "adjust the production/consumption rates on edge {edge} (or another \
                 edge of the cycle) so the balance equations agree"
            )),
        );
    }
}
