//! SPI040/041/042 — synchronization-protocol lints (§4.2, §5.1).
//!
//! BBS (bounded-buffer synchronization) needs a provable buffer bound —
//! eq. (2): `B(e) = (Gamma + delay(e)) · c(e)` tokens, where `Gamma` is
//! the minimum-delay feedback path of the IPC graph. When the bound
//! exists, BBS is free of acknowledgement traffic and the paper's §5.1
//! measurements show it beats UBS; when it does not, only UBS is sound.

use spi_sched::Protocol;

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Checks each edge's protocol choice against its provable bound.
pub struct ProtocolLints;

impl Pass for ProtocolLints {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(decls) = input.edges else {
            return;
        };

        let mut entries: Vec<_> = decls.iter().collect();
        entries.sort_by_key(|d| d.edge);
        for entry in entries {
            // The eq. (2) bound folded over the edge's IPC instances, as
            // the lowering sized it.
            let (edge, protocol, bound) = (entry.edge, entry.protocol, entry.bound_tokens);
            let e = input.graph.edge(edge);
            let pair = format!("{} -> {}", input.actor_name(e.src), input.actor_name(e.dst));
            match (protocol, bound) {
                (Protocol::Ubs { .. }, Some(b)) => {
                    out.push(
                        Diagnostic::new(
                            "SPI040",
                            Severity::Warning,
                            Locus::Edge(edge),
                            format!(
                                "edge {edge} ({pair}) uses UBS although eq. (2) proves a \
                                 static bound of {b} token(s); BBS at that capacity removes \
                                 the acknowledgement traffic (the paper's §5.1 selection \
                                 rule prefers BBS whenever the bound exists)"
                            ),
                        )
                        .with_suggestion(format!("use BBS with capacity {b} on edge {edge}")),
                    );
                }
                (Protocol::Bbs { capacity }, None) => {
                    out.push(
                        Diagnostic::new(
                            "SPI041",
                            Severity::Error,
                            Locus::Edge(edge),
                            format!(
                                "edge {edge} ({pair}) uses BBS with capacity {capacity}, but \
                                 no feedback path bounds its buffer (eq. (2) has no finite \
                                 Gamma); the producer can overrun the consumer"
                            ),
                        )
                        .with_suggestion("use UBS on this edge or add a feedback path"),
                    );
                }
                (Protocol::Bbs { capacity }, Some(b)) if capacity < b => {
                    out.push(
                        Diagnostic::new(
                            "SPI042",
                            Severity::Error,
                            Locus::Edge(edge),
                            format!(
                                "edge {edge} ({pair}) uses BBS with capacity {capacity}, \
                                 below the eq. (2) bound of {b} token(s); the self-timed \
                                 schedule can legally buffer more than the FIFO holds"
                            ),
                        )
                        .with_suggestion(format!("raise the BBS capacity to at least {b}")),
                    );
                }
                _ => {}
            }
        }
    }
}
