//! SPI030/032 — variable-token-size (VTS, §3) soundness.
//!
//! The VTS conversion replaces each dynamic-rate edge by a rate-1 edge
//! carrying packed tokens of at most `b_max` bytes. That only works
//! when `b_max` is positive (SPI030); under delimiter length-signalling
//! the worst-case escaped frame grows to `2·b + 1` bytes versus `4 + b`
//! with a header (SPI032, advisory). SPI031 (a declared FIFO depth
//! below the eq. (1) packed capacity) is retired: no caller declared
//! depths, so it could not fire.

use spi_dataflow::{LengthSignal, TokenPacker};

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Validates the VTS conversion and the chosen length-signalling
/// discipline.
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

        // No conversion: a zero rate bound, which SPI002 reports.
        let Some(vts) = input.vts else { return };

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
            // SPI032: delimiter signalling expands the
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
            }
        }
    }
}
