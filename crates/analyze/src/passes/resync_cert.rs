//! SPI061/SPI062 — resynchronization certification.
//!
//! A resynchronization run ([`spi_sched::SyncGraph::resynchronize`])
//! claims, for every synchronization edge it
//! removed, a witness path in the final graph that path-implies the
//! removed constraint, and for every edge it added, a net-cost
//! justification (the addition made ≥ 2 removals possible). This pass
//! *re-derives* both claims from scratch against the attached sync
//! graph instead of trusting the optimizer:
//!
//! * **SPI061** (error) — a removed edge has no valid proof: it was
//!   reported unproven, its witness endpoints don't match, a witness
//!   hop is not an edge of the final graph, or the re-summed witness
//!   delay exceeds the removed edge's delay. The runtime may now be
//!   missing an ordering constraint the schedule depends on.
//! * **SPI062** (error) — an added resynchronization edge does not pay
//!   for itself (`killed < 2`), an addition is missing from the final
//!   graph, or the certificate's totals disagree with its own report.

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;
use spi_sched::{RedundancyProof, SyncGraph, SyncKind};

/// Re-verifies a [`spi_sched::ResyncCertificate`] against the final
/// synchronization graph.
pub struct ResyncCertification;

impl Pass for ResyncCertification {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(cert) = input.resync_cert else {
            return;
        };
        let Some(sync) = input.sync else {
            return;
        };

        for e in &cert.unproven {
            out.push(spi061(format!(
                "removal of sync edge t{} -> t{} (delay {}) carries no redundancy \
                 proof: the optimizer could not find a witness path in the final graph",
                e.from.0, e.to.0, e.delay
            )));
        }
        for p in &cert.removals {
            if let Err(why) = check_proof(sync, p) {
                out.push(spi061(format!(
                    "redundancy proof for removed sync edge t{} -> t{} (delay {}) does \
                     not re-verify: {why}",
                    p.edge.from.0, p.edge.to.0, p.edge.delay
                )));
            }
        }

        for a in &cert.additions {
            if a.killed < 2 {
                out.push(spi062(format!(
                    "added resync edge t{} -> t{} killed only {} removable edge(s); the \
                     greedy step must never accept a net-cost increase",
                    a.edge.from.0, a.edge.to.0, a.killed
                )));
            }
            let present = sync.edges().iter().any(|e| {
                e.from == a.edge.from && e.to == a.edge.to && matches!(e.kind, SyncKind::Resync)
            });
            if !present {
                out.push(spi062(format!(
                    "certificate lists added resync edge t{} -> t{} but the final sync \
                     graph does not contain it",
                    a.edge.from.0, a.edge.to.0
                )));
            }
        }

        let r = &cert.report;
        if r.edges_removed != cert.removals.len() + cert.unproven.len()
            || r.edges_added != cert.additions.len()
        {
            out.push(spi062(format!(
                "certificate totals are inconsistent with its report: report says \
                 {} removed / {} added, artifact lists {} proofs + {} unproven / {} additions",
                r.edges_removed,
                r.edges_added,
                cert.removals.len(),
                cert.unproven.len(),
                cert.additions.len()
            )));
        }
    }
}

/// Re-walks one witness path against the final graph.
fn check_proof(sync: &SyncGraph, p: &RedundancyProof) -> Result<(), String> {
    if p.witness.first() != Some(&p.edge.from) || p.witness.last() != Some(&p.edge.to) {
        return Err("witness endpoints do not match the removed edge".into());
    }
    if p.witness.len() < 2 {
        return Err("witness path has no hops".into());
    }
    let mut total = 0u64;
    for w in p.witness.windows(2) {
        let hop = sync
            .edges()
            .iter()
            .filter(|e| e.from == w[0] && e.to == w[1])
            .map(|e| e.delay)
            .min()
            .ok_or_else(|| {
                format!(
                    "witness hop t{} -> t{} is not an edge of the final graph",
                    w[0].0, w[1].0
                )
            })?;
        total = total.saturating_add(hop);
    }
    if total > p.edge.delay {
        return Err(format!(
            "witness delay re-sums to {total}, exceeding the removed edge's delay {}",
            p.edge.delay
        ));
    }
    if total != p.witness_delay {
        return Err(format!(
            "claimed witness delay {} does not match the re-derived {total}",
            p.witness_delay
        ));
    }
    Ok(())
}

fn spi061(msg: String) -> Diagnostic {
    Diagnostic::new("SPI061", Severity::Error, Locus::System, msg).with_suggestion(
        "a removed synchronization edge must be path-implied by the final graph; \
         re-run resynchronize and do not hand-edit the sync graph afterwards",
    )
}

fn spi062(msg: String) -> Diagnostic {
    Diagnostic::new("SPI062", Severity::Error, Locus::System, msg).with_suggestion(
        "regenerate the certificate with the graph it describes; additions must each \
         make at least two removals possible",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_dataflow::SdfGraph;
    use spi_sched::{Protocol, TaskId};

    fn pipeline() -> (SdfGraph, SyncGraph) {
        use spi_dataflow::PrecedenceGraph;
        use spi_sched::{Assignment, IpcGraph, ProcId, SelfTimedSchedule};
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        let c = g.add_actor("C", 10);
        g.add_edge(a, b, 1, 1, 0, 4).unwrap();
        g.add_edge(b, c, 1, 1, 0, 4).unwrap();
        let pg = PrecedenceGraph::expand(&g).unwrap();
        let assign = Assignment::by_actor(&pg, 2, |x| ProcId(if x == b { 1 } else { 0 })).unwrap();
        let st = SelfTimedSchedule::from_assignment(&pg, assign).unwrap();
        let ipc = IpcGraph::build(&g, &pg, &st).unwrap();
        let sync = SyncGraph::from_ipc(&ipc, |_| Protocol::Ubs { ack_window: 1 }).unwrap();
        (g, sync)
    }

    fn run_pass(
        graph: &SdfGraph,
        sync: &SyncGraph,
        cert: &spi_sched::ResyncCertificate,
    ) -> Vec<Diagnostic> {
        let input = AnalysisInput::new(graph)
            .with_sync(sync)
            .with_resync_cert(cert);
        let mut out = Vec::new();
        ResyncCertification.run(&input, &mut out);
        out
    }

    #[test]
    fn valid_certificate_is_silent() {
        let (g, mut sync) = pipeline();
        let cert = sync.resynchronize();
        let out = run_pass(&g, &sync, &cert);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unproven_removal_trips_spi061() {
        let (g, mut sync) = pipeline();
        let mut cert = sync.resynchronize();
        let p = cert.removals.pop().expect("pipeline removes two acks");
        cert.unproven.push(p.edge);
        let out = run_pass(&g, &sync, &cert);
        assert!(out.iter().any(|d| d.code == "SPI061"), "{out:?}");
    }

    #[test]
    fn tampered_witness_delay_trips_spi061() {
        let (g, mut sync) = pipeline();
        let mut cert = sync.resynchronize();
        cert.removals[0].witness_delay += 1;
        let out = run_pass(&g, &sync, &cert);
        assert!(out.iter().any(|d| d.code == "SPI061"), "{out:?}");
    }

    #[test]
    fn phantom_addition_trips_spi062() {
        let (g, mut sync) = pipeline();
        let mut cert = sync.resynchronize();
        cert.additions.push(spi_sched::ResyncAddition {
            edge: spi_sched::SyncEdge {
                from: TaskId(0),
                to: TaskId(1),
                delay: 0,
                kind: spi_sched::SyncKind::Resync,
            },
            killed: 2,
        });
        cert.report.edges_added += 1;
        let out = run_pass(&g, &sync, &cert);
        assert!(out.iter().any(|d| d.code == "SPI062"), "{out:?}");
    }

    #[test]
    fn inconsistent_totals_trip_spi062() {
        let (g, mut sync) = pipeline();
        let mut cert = sync.resynchronize();
        cert.report.edges_removed += 1;
        let out = run_pass(&g, &sync, &cert);
        assert!(out.iter().any(|d| d.code == "SPI062"), "{out:?}");
    }
}
