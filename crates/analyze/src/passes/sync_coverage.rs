//! SPI050 — synchronization coverage (data-race detector).
//!
//! Every interprocessor data transfer in the IPC graph `G_ipc` must be
//! ordered by the synchronization graph `G_s` (Sriram & Bhattacharyya's
//! preservation property): for an IPC edge `(x, y)` with `delay(x, y)`
//! initial tokens there must be a path from `x` to `y` in `G_s` with
//! total delay at most `delay(x, y)`. An uncovered edge means the
//! receiving processor may read a buffer the sender has not written yet.

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;
use spi_sched::IpcEdgeKind;

/// Verifies every IPC edge is enforced by a sync path.
pub struct SyncCoverage;

impl Pass for SyncCoverage {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let (Some(ipc), Some(sync)) = (input.ipc, input.sync) else {
            return;
        };
        let n = sync.tasks().len();
        if n == 0 || ipc.tasks().len() != n {
            return;
        }

        for e in ipc.ipc_edges() {
            let IpcEdgeKind::Ipc { via } = e.kind else {
                continue;
            };
            let shortest = sync.min_delay(e.from, e.to);
            if shortest.is_none_or(|d| d > e.delay) {
                let src = ipc.task(e.from);
                let dst = ipc.task(e.to);
                let src_actor = input.actor_name(src.firing.actor);
                let dst_actor = input.actor_name(dst.firing.actor);
                out.push(
                    Diagnostic::new(
                        "SPI050",
                        Severity::Error,
                        Locus::Processors(src.proc, dst.proc),
                        format!(
                            "IPC edge via {via} from {src_actor}[{}] on {} to {dst_actor}[{}] \
                             on {} is not enforced by the synchronization graph (needs a sync \
                             path of delay <= {}, shortest is {}); {} may read the shared \
                             buffer before {} writes it — a data race",
                            src.firing.k,
                            src.proc,
                            dst.firing.k,
                            dst.proc,
                            e.delay,
                            shortest.map_or("none".to_string(), |d| d.to_string()),
                            dst.proc,
                            src.proc,
                        ),
                    )
                    .with_suggestion(
                        "keep a data or feedback synchronization edge covering this transfer; \
                         do not remove non-redundant sync edges",
                    ),
                );
            }
        }
    }
}
