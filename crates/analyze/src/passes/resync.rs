//! SPI060 — resynchronization fixpoint lint.
//!
//! After redundant-edge elimination and resynchronization the sync graph
//! should contain no removable edge whose ordering another path already
//! implies. Finding one means the optimization pipeline stopped short of
//! its fixpoint and the runtime pays for synchronization it does not
//! need.

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Flags sync graphs that still contain redundant edges.
pub struct ResyncFixpoint;

impl Pass for ResyncFixpoint {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(sync) = input.sync else {
            return;
        };
        let redundant = sync.redundant_edges();
        if redundant.is_empty() {
            return;
        }
        let detail: Vec<String> = redundant
            .iter()
            .take(4)
            .map(|&i| {
                let e = sync.edges()[i];
                format!("t{} -> t{} (delay {})", e.from.0, e.to.0, e.delay)
            })
            .collect();
        out.push(
            Diagnostic::new(
                "SPI060",
                Severity::Warning,
                Locus::System,
                format!(
                    "{} synchronization edge(s) are still redundant after optimization \
                     (e.g. {}); each one costs a send/receive pair per iteration that \
                     another sync path already guarantees",
                    redundant.len(),
                    detail.join(", "),
                ),
            )
            .with_suggestion(
                "run redundant-edge elimination (and resynchronization) to the fixpoint",
            ),
        );
    }
}
