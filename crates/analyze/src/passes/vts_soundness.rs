//! SPI030/031/032 — variable-token-size (VTS, §3) soundness.
//!
//! The VTS conversion replaces each dynamic-rate edge by a rate-1 edge
//! carrying packed tokens of at most `b_max` bytes. That only works
//! when `b_max` is positive (SPI030), when any hardware FIFO declared
//! for the edge holds the eq. (1) packed capacity (SPI031), and — under
//! delimiter length-signalling — when the worst-case escaped frame
//! (`2·b + 1` bytes versus `4 + b` with a header) still fits (SPI032).

use spi_dataflow::{DataflowError, LengthSignal, TokenPacker, VtsConversion};

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Validates the VTS conversion against declared FIFO depths and the
/// chosen length-signalling discipline.
pub struct VtsSoundness;

impl Pass for VtsSoundness {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let graph = input.graph;

        // SPI030 (info flavor): a static edge with zero-byte tokens is
        // suspicious but harmless — it degenerates to pure control flow.
        for (id, e) in graph.edges() {
            if !e.is_dynamic() && e.token_bytes == 0 {
                out.push(Diagnostic::new(
                    "SPI030",
                    Severity::Info,
                    Locus::Edge(id),
                    format!(
                        "edge {id} ({} -> {}) carries 0-byte tokens; it synchronizes \
                         but transfers no data",
                        input.actor_name(e.src),
                        input.actor_name(e.dst),
                    ),
                ));
            }
        }

        let owned;
        let vts: &VtsConversion = match input.vts {
            Some(v) => v,
            None => match VtsConversion::convert(graph) {
                Ok(v) => {
                    owned = v;
                    &owned
                }
                Err(DataflowError::MissingRateBound { edge }) => {
                    out.push(
                        Diagnostic::new(
                            "SPI030",
                            Severity::Error,
                            Locus::Edge(edge),
                            format!(
                                "dynamic edge {edge} has no usable rate bound; the VTS \
                                 conversion cannot size its packed tokens (b_max undefined)"
                            ),
                        )
                        .with_suggestion("declare a positive bound on the dynamic rate"),
                    );
                    return;
                }
                Err(_) => return,
            },
        };

        for info in vts.converted_edges() {
            let e = graph.edge(info.edge);
            // SPI030: b_max = max(produce, consume bound) * token_bytes.
            // Zero means the packed token can hold nothing — every real
            // transfer would overflow it.
            if info.b_max == 0 {
                out.push(
                    Diagnostic::new(
                        "SPI030",
                        Severity::Error,
                        Locus::Edge(info.edge),
                        format!(
                            "dynamic edge {} ({} -> {}) converts to packed tokens of \
                             b_max = 0 bytes (rate bound {} x token size {} bytes); \
                             any nonempty transfer overflows",
                            info.edge,
                            input.actor_name(e.src),
                            input.actor_name(e.dst),
                            info.produce_bound.max(info.consume_bound),
                            info.raw_token_bytes,
                        ),
                    )
                    .with_suggestion("declare a positive rate bound and token size"),
                );
                continue;
            }
            // SPI032 (warning flavor): delimiter signalling expands the
            // worst-case frame to 2*b_max + 1 bytes because every payload
            // byte may need escaping; the header discipline is flat 4 + b.
            if input.signal == Some(LengthSignal::Delimiter) {
                let framed =
                    TokenPacker::for_edge(info, LengthSignal::Delimiter).max_packed_bytes() as u64;
                out.push(
                    Diagnostic::new(
                        "SPI032",
                        Severity::Warning,
                        Locus::Edge(info.edge),
                        format!(
                            "delimiter length-signalling on edge {} expands the worst-case \
                             frame to {framed} bytes (2*b_max+1 with byte stuffing) versus \
                             {} with a length header; headers also avoid the byte-wise \
                             delimiter scan in hardware",
                            info.edge,
                            4 + info.b_max,
                        ),
                    )
                    .with_suggestion("prefer header length-signalling on FPGA targets"),
                );
                // SPI032 (error flavor): the expanded frame no longer
                // fits a FIFO sized for the nominal packed capacity.
                if let Some(&depth) = input.fifo_depths.and_then(|d| d.get(&info.edge)) {
                    if framed > depth {
                        out.push(
                            Diagnostic::new(
                                "SPI032",
                                Severity::Error,
                                Locus::Edge(info.edge),
                                format!(
                                    "declared FIFO depth of {depth} bytes on edge {} cannot \
                                     hold one worst-case delimiter-framed token ({framed} \
                                     bytes); a maximal burst would be truncated",
                                    info.edge,
                                ),
                            )
                            .with_suggestion(format!(
                                "deepen the FIFO to at least {framed} bytes or switch to \
                                 header signalling"
                            )),
                        );
                    }
                }
            }
        }

        // SPI031: eq. (1) packed capacity versus declared FIFO depths,
        // for every edge the hardware constrains.
        if let Some(depths) = input.fifo_depths {
            let mut entries: Vec<_> = depths.iter().collect();
            entries.sort_by_key(|(id, _)| id.0);
            for (&edge, &depth) in entries {
                let Ok(required) = vts.packed_capacity_bytes(edge) else {
                    continue;
                };
                if depth < required {
                    let e = graph.edge(edge);
                    out.push(
                        Diagnostic::new(
                            "SPI031",
                            Severity::Error,
                            Locus::Edge(edge),
                            format!(
                                "declared FIFO depth of {depth} bytes on edge {edge} \
                                 ({} -> {}) is below the eq. (1) packed capacity \
                                 c(e) = {required} bytes; one iteration's tokens overflow it",
                                input.actor_name(e.src),
                                input.actor_name(e.dst),
                            ),
                        )
                        .with_suggestion(format!("deepen the FIFO to at least {required} bytes")),
                    );
                }
            }
        }
    }
}
