//! SPI040/041/042/043/044 — synchronization-protocol lints (§4.2, §5.1).
//!
//! BBS (bounded-buffer synchronization) needs a provable buffer bound —
//! eq. (2): `B(e) = (Gamma + delay(e)) · c(e)` tokens, where `Gamma` is
//! the minimum-delay feedback path of the IPC graph. When the bound
//! exists, BBS is free of acknowledgement traffic and the paper's §5.1
//! measurements show it beats UBS; when it does not, only UBS is sound.
//! SPI043 closes the loop at the runtime layer: a declared transport
//! allocation smaller than the eq. (2) bytes can deadlock a legal
//! self-timed execution. SPI044 extends the same check to
//! pointer-exchange transports: the backing pool must provide at least
//! as many slots as the channel holds eq. (1)-sized messages, or slot
//! exhaustion throttles the sender below the proven bound. SPI045
//! applies the SPI043 capacity argument to *cross-partition* edges of a
//! distributed deployment (`spi-net`): a socket channel enforces
//! eq. (2) through a sender-side credit window, so a window declared
//! below the required bytes throttles — or deadlocks — a legal
//! self-timed run even though every in-memory buffer is sized right.
//! SPI046 holds the batched fast path riding on that window to the
//! lowering rule (`spi_sched::batch_plan`). A record batch configured
//! larger than the window holds messages can never actually fill (the
//! window forces a flush first), so the declared amortization is
//! unreachable and usually signals a mis-lowered batch parameter. One
//! that fits but leaves fewer than two batches per window runs the edge
//! in lock-step: the sender stages its one batch and then has no credit
//! to stage the next until the receiver has worked through the first.

use spi_sched::Protocol;

use crate::analyzer::Pass;
use crate::diag::{Diagnostic, Locus, Severity};
use crate::input::AnalysisInput;

/// Checks each edge's protocol choice against its provable bound.
pub struct ProtocolLints;

impl Pass for ProtocolLints {
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let (Some(ipc), Some(decls)) = (input.ipc, input.edges) else {
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

            // SPI043: the runtime allocation must cover the statically
            // required bytes — bound tokens per iteration of drift ×
            // producer firings per iteration × framed message size.
            if let (Some(decl), Some(b)) = (entry.transport, bound) {
                let q_src = ipc
                    .tasks()
                    .iter()
                    .filter(|t| t.firing.actor == e.src)
                    .count() as u64;
                let required = b * q_src.max(1) * decl.message_bytes_max;
                if decl.capacity_bytes < required {
                    out.push(
                        Diagnostic::new(
                            "SPI043",
                            Severity::Warning,
                            Locus::Edge(edge),
                            format!(
                                "edge {edge} ({pair}) declares a transport of \
                                 {} byte(s), below the eq. (2) requirement of \
                                 {required} bytes ({b} token(s) × {} firing(s) × \
                                 {} bytes/message); a self-timed run can block on a \
                                 legally full buffer",
                                decl.capacity_bytes,
                                q_src.max(1),
                                decl.message_bytes_max,
                            ),
                        )
                        .with_suggestion(format!(
                            "allocate at least {required} bytes for edge {edge}"
                        )),
                    );
                }

                // SPI044: a pointer-exchange transport moves slot
                // indices, not bytes, so the channel's message
                // capacity (eq. (2) bytes over eq. (1)-sized
                // messages) is only reachable if the pool has a
                // slot for every in-flight message.
                if let Some(slots) = decl.pool_slots {
                    let messages = decl
                        .capacity_bytes
                        .checked_div(decl.message_bytes_max)
                        .unwrap_or(0);
                    if slots < messages {
                        out.push(
                            Diagnostic::new(
                                "SPI044",
                                Severity::Warning,
                                Locus::Edge(edge),
                                format!(
                                    "edge {edge} ({pair}) backs a pointer-exchange \
                                     transport with {slots} pool slot(s), but its \
                                     declared capacity holds {messages} eq. (1)-sized \
                                     message(s) ({} bytes / {} bytes each); slot \
                                     exhaustion stalls the sender before the eq. (2) \
                                     bound is reached",
                                    decl.capacity_bytes, decl.message_bytes_max,
                                ),
                            )
                            .with_suggestion(format!(
                                "size the pool to at least {messages} slot(s) for \
                                 edge {edge}"
                            )),
                        );
                    }
                }
            }

            // SPI045: a cross-partition edge's socket credit window
            // must cover the same eq. (2) bytes. Unlike an undersized
            // in-memory buffer (SPI043), an undersized credit window is
            // invisible locally — each node's buffers look fine — so
            // the distributed deployment is called out explicitly.
            if let (Some(decl), Some(b)) = (entry.net_transport, bound) {
                let q_src = ipc
                    .tasks()
                    .iter()
                    .filter(|t| t.firing.actor == e.src)
                    .count() as u64;
                let required = b * q_src.max(1) * decl.message_bytes_max;
                if decl.capacity_bytes < required {
                    out.push(
                        Diagnostic::new(
                            "SPI045",
                            Severity::Warning,
                            Locus::Edge(edge),
                            format!(
                                "cross-partition edge {edge} ({pair}) grants a socket \
                                 credit window of {} byte(s), below the eq. (2) \
                                 requirement of {required} bytes ({b} token(s) × {} \
                                 firing(s) × {} bytes/message); the sender can stall \
                                 on exhausted credits inside a legal self-timed run",
                                decl.capacity_bytes,
                                q_src.max(1),
                                decl.message_bytes_max,
                            ),
                        )
                        .with_suggestion(format!(
                            "widen the credit window to at least {required} bytes \
                             for edge {edge}"
                        )),
                    );
                }
            }

            // SPI046: the batched fast path may never coalesce more
            // records than the credit window admits in flight — a batch
            // beyond `window / c(e)` messages cannot fill before the
            // window itself forces a flush, so the configuration's
            // claimed amortization is unreachable — and it must leave
            // the window room for a second batch, or sender and
            // receiver take turns instead of overlapping.
            if let Some(decl) = entry.net_transport {
                let window_msgs = (decl.capacity_bytes / decl.message_bytes_max.max(1)).max(1);
                let fault = match decl.batch_msgs {
                    Some(batch) if batch > window_msgs => Some((
                        batch,
                        "beyond",
                        "the window flushes every batch early and the configured \
                         amortization is never reached",
                    )),
                    Some(batch) if batch > 1 && 2 * batch > window_msgs => Some((
                        batch,
                        "more than half of",
                        "with fewer than two batches per window the sender cannot stage \
                         one while the receiver consumes another, and the edge runs in \
                         lock-step",
                    )),
                    _ => None,
                };
                if let Some((batch, how, consequence)) = fault {
                    let lowered = spi_sched::batch_plan(window_msgs, None).max_msgs;
                    out.push(
                        Diagnostic::new(
                            "SPI046",
                            Severity::Warning,
                            Locus::Edge(edge),
                            format!(
                                "cross-partition edge {edge} ({pair}) configures a record \
                                 batch of {batch} message(s), {how} the {window_msgs} \
                                 message(s) its credit window admits ({} bytes / {} bytes \
                                 per message); {consequence}",
                                decl.capacity_bytes, decl.message_bytes_max,
                            ),
                        )
                        .with_suggestion(format!(
                            "batch {lowered} message(s), what `spi_sched::batch_plan` \
                             lowers a window of {window_msgs} to"
                        )),
                    );
                }
            }
        }
    }
}
