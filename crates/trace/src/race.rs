//! Vector-clock happens-before checking over `spi-trace` captures.
//!
//! The checker replays a [`Trace`] and reconstructs the cross-PE
//! partial order the run actually exhibited:
//!
//! * **program order** — events of one PE in trace order;
//! * **communication order** — the k-th `Recv` on a channel
//!   happens-after the k-th `Send` on that channel (FIFO transports).
//!   This covers both data channels (the IPC edges of the paper's
//!   `G_ipc`) and ack/control channels (the materialized
//!   synchronization edges of `G_s`), so the reconstruction *is* the
//!   runtime image of the synchronization graph.
//!
//! Every event gets a vector clock over PEs; two events are ordered
//! iff one's clock is componentwise ≤ the other's at the owner index.
//! Violations are reported as stable diagnostics:
//!
//! | code   | severity | meaning |
//! |--------|----------|---------|
//! | SPI100 | error    | a receive was observed before its matching send (causally inconsistent linearization) |
//! | SPI101 | error    | concurrent (unordered) sends on one channel from different PEs — producer endpoint race |
//! | SPI102 | error    | concurrent (unordered) receives on one channel from different PEs — consumer endpoint race |
//! | SPI103 | error    | slot-reuse ordering violated: send `n+B` observed before receive `n` on a `B`-token-bounded channel (eq. (2) window) |
//! | SPI104 | warning  | block/unblock events unpaired — blocking instrumentation incomplete, reconstruction may miss sync edges |
//! | SPI105 | warning  | channel endpoint shared by more than one PE (ordered, so not a race, but outside SPI's point-to-point contract) |
//! | SPI106 | warning  | the capture dropped events; the race check ran on a partial stream |
//!
//! A run that is well-synchronized under the SPI protocol stack — each
//! edge point-to-point, buffers sized to eq. (2), blocking via the
//! transport — produces an empty report.

use std::collections::HashMap;

use crate::{ProbeKind, Trace};
use spi_analyze::{Diagnostic, Locus, Severity};

/// Outcome of [`race_check`].
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Diagnostics (SPI100–SPI106), most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// Events replayed.
    pub events: usize,
    /// Channels with at least one send or receive.
    pub channels: usize,
    /// Cross-PE happens-before edges reconstructed (matched pairs).
    pub hb_edges: usize,
}

impl RaceReport {
    /// Whether any error-severity diagnostic fired.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Renders every diagnostic plus a one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human());
            out.push('\n');
        }
        out.push_str(&format!(
            "race-check: {} events, {} channels, {} happens-before edges, {} diagnostics\n",
            self.events,
            self.channels,
            self.hb_edges,
            self.diagnostics.len()
        ));
        out
    }
}

#[derive(Clone, Debug)]
struct EventRec {
    pe: usize,
    ts: u64,
    /// Vector clock at (and including) this event.
    vc: Vec<u64>,
}

#[derive(Default)]
struct ChanState {
    sends: Vec<EventRec>,
    recvs: Vec<EventRec>,
}

/// Replays `trace` and checks the reconstructed happens-before order.
/// See the module docs for the diagnostic table.
pub fn race_check(trace: &Trace) -> RaceReport {
    let mut diagnostics = Vec::new();
    let n_pes = trace
        .events
        .iter()
        .map(|e| e.pe.0 + 1)
        .max()
        .unwrap_or(0)
        .max(1);

    // Pre-index sends per channel (trace order) so a receive can tell
    // "my send comes later" (SPI100) apart from "my send never comes"
    // (a conservation problem, SPI085's domain in trace-check).
    let mut total_sends: HashMap<usize, usize> = HashMap::new();
    for e in &trace.events {
        if let ProbeKind::Send { channel, .. } = e.kind {
            *total_sends.entry(channel.0).or_insert(0) += 1;
        }
    }

    let mut clock: Vec<Vec<u64>> = vec![vec![0; n_pes]; n_pes];
    let mut chans: HashMap<usize, ChanState> = HashMap::new();
    let mut hb_edges = 0usize;
    // (pe, channel) -> open block depth, per direction.
    let mut open_send_blocks: HashMap<(usize, usize), i64> = HashMap::new();
    let mut open_recv_blocks: HashMap<(usize, usize), i64> = HashMap::new();
    let mut spi104 = Vec::new();

    for ev in &trace.events {
        let pe = ev.pe.0;
        clock[pe][pe] += 1;
        match ev.kind {
            ProbeKind::Send { channel, .. } => {
                let st = chans.entry(channel.0).or_default();
                st.sends.push(EventRec {
                    pe,
                    ts: ev.ts,
                    vc: clock[pe].clone(),
                });
            }
            ProbeKind::Recv { channel, .. } => {
                let st = chans.entry(channel.0).or_default();
                let k = st.recvs.len();
                if let Some(send) = st.sends.get(k) {
                    // Join the sender's clock: the k-th receive
                    // happens-after the k-th send.
                    let svc = send.vc.clone();
                    for (c, s) in clock[pe].iter_mut().zip(&svc) {
                        *c = (*c).max(*s);
                    }
                    hb_edges += 1;
                } else if k < total_sends.get(&channel.0).copied().unwrap_or(0) {
                    diagnostics.push(
                        Diagnostic::new(
                            "SPI100",
                            Severity::Error,
                            Locus::System,
                            format!(
                                "receive #{k} on channel {} at ts {} observed before its \
                                 matching send: the reconstructed happens-before order is \
                                 causally inconsistent",
                                channel.0, ev.ts
                            ),
                        )
                        .with_suggestion(
                            "a FIFO receive cannot precede its send; check the capture's clock \
                             merge or the transport's ordering",
                        ),
                    );
                }
                let st = chans.entry(channel.0).or_default();
                st.recvs.push(EventRec {
                    pe,
                    ts: ev.ts,
                    vc: clock[pe].clone(),
                });
            }
            ProbeKind::BlockSend { channel } => {
                *open_send_blocks.entry((pe, channel.0)).or_insert(0) += 1;
            }
            ProbeKind::UnblockSend { channel } => {
                let d = open_send_blocks.entry((pe, channel.0)).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    spi104.push((pe, channel.0, "UnblockSend without BlockSend"));
                    *d = 0;
                }
            }
            ProbeKind::BlockRecv { channel } => {
                *open_recv_blocks.entry((pe, channel.0)).or_insert(0) += 1;
            }
            ProbeKind::UnblockRecv { channel } => {
                let d = open_recv_blocks.entry((pe, channel.0)).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    spi104.push((pe, channel.0, "UnblockRecv without BlockRecv"));
                    *d = 0;
                }
            }
            _ => {}
        }
    }

    for (&(pe, ch), &d) in open_send_blocks.iter().filter(|(_, &d)| d > 0) {
        spi104.push((pe, ch, "BlockSend never unblocked"));
        let _ = d;
    }
    for (&(pe, ch), &d) in open_recv_blocks.iter().filter(|(_, &d)| d > 0) {
        spi104.push((pe, ch, "BlockRecv never unblocked"));
        let _ = d;
    }
    spi104.sort();
    spi104.dedup();
    for (pe, ch, what) in spi104 {
        diagnostics.push(
            Diagnostic::new(
                "SPI104",
                Severity::Warning,
                Locus::System,
                format!("PE {pe}, channel {ch}: {what} — blocking instrumentation unpaired"),
            )
            .with_suggestion(
                "happens-before reconstruction ignores blocking pairs it cannot match; fix the \
                 emitter or re-capture",
            ),
        );
    }

    // Endpoint ordering checks per channel.
    let mut ordered_chans: Vec<_> = chans.iter().collect();
    ordered_chans.sort_by_key(|(ch, _)| **ch);
    for (&ch, st) in ordered_chans {
        let locus = trace
            .meta
            .edges
            .iter()
            .find(|b| b.channel.0 == ch)
            .map(|b| Locus::Edge(b.edge))
            .unwrap_or(Locus::System);

        for (side, code, events) in [
            ("send", "SPI101", &st.sends),
            ("receive", "SPI102", &st.recvs),
        ] {
            if let Some((a, b)) = first_unordered_pair(events) {
                diagnostics.push(
                    Diagnostic::new(
                        code,
                        Severity::Error,
                        locus.clone(),
                        format!(
                            "channel {ch}: concurrent {side}s from PE {} (ts {}) and PE {} \
                             (ts {}) with no happens-before path — {side} endpoint race",
                            a.pe, a.ts, b.pe, b.ts
                        ),
                    )
                    .with_suggestion(
                        "SPI edges are single-producer single-consumer; route the second PE \
                         through its own edge or add a synchronization edge",
                    ),
                );
            } else {
                let mut pes: Vec<usize> = events.iter().map(|e| e.pe).collect();
                pes.sort_unstable();
                pes.dedup();
                if pes.len() > 1 {
                    diagnostics.push(
                        Diagnostic::new(
                            "SPI105",
                            Severity::Warning,
                            locus.clone(),
                            format!(
                                "channel {ch}: {side} endpoint shared by PEs {pes:?} \
                                 (totally ordered, so not a race, but outside the \
                                 point-to-point edge contract)"
                            ),
                        )
                        .with_suggestion(
                            "shared endpoints are memory-safe but serialize on the slot \
                             protocol; give each PE its own edge",
                        ),
                    );
                }
            }
        }

        // Slot-reuse window: with a B-token bound, send n+B overwrites
        // the slot receive n vacates, so it must come later in the
        // observed linearization.
        if let Some(bound) = trace
            .meta
            .edges
            .iter()
            .find(|b| b.channel.0 == ch)
            .and_then(|b| b.bound_tokens)
        {
            let b = bound as usize;
            for n in 0..st.recvs.len() {
                if let Some(send) = st.sends.get(n + b) {
                    if send.ts < st.recvs[n].ts {
                        diagnostics.push(
                            Diagnostic::new(
                                "SPI103",
                                Severity::Error,
                                locus.clone(),
                                format!(
                                    "channel {ch}: send #{} (ts {}) observed before receive \
                                     #{n} (ts {}) on a {b}-token channel — the eq. (2) \
                                     reuse window was violated",
                                    n + b,
                                    send.ts,
                                    st.recvs[n].ts
                                ),
                            )
                            .with_suggestion(
                                "the producer lapped the consumer inside the static bound; \
                                 check the channel's capacity derivation and backpressure",
                            ),
                        );
                        break;
                    }
                }
            }
        }
    }

    if trace.meta.dropped > 0 {
        diagnostics.push(
            Diagnostic::new(
                "SPI106",
                Severity::Warning,
                Locus::System,
                format!(
                    "capture dropped {} events: the happens-before reconstruction is \
                     incomplete and races may be missed",
                    trace.meta.dropped
                ),
            )
            .with_suggestion("enlarge the capture buffer and re-trace before trusting the result"),
        );
    }

    diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(b.code)));
    RaceReport {
        diagnostics,
        events: trace.events.len(),
        channels: chans.len(),
        hb_edges,
    }
}

/// First pair of events from *different* PEs with no happens-before
/// path between them, if any. `events` is in trace order, so a later
/// event is ordered after an earlier one iff its clock has absorbed
/// the earlier PE's component.
fn first_unordered_pair(events: &[EventRec]) -> Option<(&EventRec, &EventRec)> {
    for (i, a) in events.iter().enumerate() {
        for b in &events[i + 1..] {
            if a.pe != b.pe && b.vc[a.pe] < a.vc[a.pe] {
                return Some((a, b));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    //! One seeded single-fault mutant per diagnostic, mirroring the
    //! SPI080–SPI095 pattern in `spi-trace`'s `check.rs`: each mutant
    //! trips exactly its own code and the clean trace trips none.

    use super::*;
    use crate::{ClockKind, EdgeBound, TraceMeta};
    use spi_platform::{ChannelId, PeId, ProbeEvent};

    fn meta() -> TraceMeta {
        TraceMeta::new(ClockKind::Cycles)
    }

    fn bounded_meta(ch: usize, tokens: u64) -> TraceMeta {
        let mut m = meta();
        m.edges.push(EdgeBound {
            edge: spi_dataflow::EdgeId(0),
            channel: ChannelId(ch),
            capacity_bytes: 64,
            max_message_bytes: 16,
            bound_tokens: Some(tokens),
        });
        m
    }

    fn ev(ts: u64, pe: usize, kind: ProbeKind) -> ProbeEvent {
        ProbeEvent {
            ts,
            pe: PeId(pe),
            kind,
        }
    }

    fn send(ts: u64, pe: usize, ch: usize) -> ProbeEvent {
        ev(
            ts,
            pe,
            ProbeKind::Send {
                channel: ChannelId(ch),
                bytes: 4,
                digest: 7,
                occ_bytes: 4,
                occ_msgs: 1,
            },
        )
    }

    fn recv(ts: u64, pe: usize, ch: usize) -> ProbeEvent {
        ev(
            ts,
            pe,
            ProbeKind::Recv {
                channel: ChannelId(ch),
                bytes: 4,
                digest: 7,
                occ_bytes: 0,
                occ_msgs: 0,
            },
        )
    }

    fn codes(r: &RaceReport) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = r.diagnostics.iter().map(|d| d.code).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn clean_pipeline_is_silent() {
        let t = Trace {
            meta: meta(),
            events: vec![send(1, 0, 0), recv(2, 1, 0), send(3, 0, 0), recv(4, 1, 0)],
        };
        let r = race_check(&t);
        assert!(codes(&r).is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.hb_edges, 2);
    }

    #[test]
    fn spi100_recv_before_send() {
        let t = Trace {
            meta: meta(),
            events: vec![recv(1, 1, 0), send(5, 0, 0)],
        };
        assert_eq!(codes(&race_check(&t)), vec!["SPI100"]);
    }

    #[test]
    fn spi101_concurrent_senders() {
        let t = Trace {
            meta: meta(),
            events: vec![send(1, 0, 0), send(2, 2, 0)],
        };
        assert_eq!(codes(&race_check(&t)), vec!["SPI101"]);
    }

    #[test]
    fn spi102_concurrent_receivers() {
        let t = Trace {
            meta: meta(),
            events: vec![send(1, 0, 0), send(2, 0, 0), recv(3, 1, 0), recv(4, 2, 0)],
        };
        assert_eq!(codes(&race_check(&t)), vec!["SPI102"]);
    }

    #[test]
    fn spi103_slot_reuse_window() {
        let t = Trace {
            meta: bounded_meta(0, 1),
            events: vec![send(1, 0, 0), send(2, 0, 0), recv(5, 1, 0), recv(6, 1, 0)],
        };
        assert_eq!(codes(&race_check(&t)), vec!["SPI103"]);
    }

    #[test]
    fn spi104_unpaired_block() {
        let t = Trace {
            meta: meta(),
            events: vec![ev(
                1,
                0,
                ProbeKind::BlockSend {
                    channel: ChannelId(0),
                },
            )],
        };
        assert_eq!(codes(&race_check(&t)), vec!["SPI104"]);
    }

    #[test]
    fn spi105_shared_but_ordered_endpoint() {
        // PE 0 sends on channel 5, then hands the baton to PE 2 over
        // channel 9; PE 2's later send on channel 5 is therefore
        // ordered — a contract violation but not a race.
        let t = Trace {
            meta: meta(),
            events: vec![send(1, 0, 5), send(2, 0, 9), recv(3, 2, 9), send(4, 2, 5)],
        };
        assert_eq!(codes(&race_check(&t)), vec!["SPI105"]);
    }

    #[test]
    fn spi106_dropped_events() {
        let mut m = meta();
        m.dropped = 3;
        let t = Trace {
            meta: m,
            events: vec![send(1, 0, 0), recv(2, 1, 0)],
        };
        assert_eq!(codes(&race_check(&t)), vec!["SPI106"]);
    }

    #[test]
    fn hb_through_ack_channel_suppresses_slot_reuse_race() {
        // Producer waits for the consumer's ack (channel 1) before
        // reusing the slot: the reconstructed order is consistent even
        // though the raw timestamps are tight.
        let t = Trace {
            meta: bounded_meta(0, 1),
            events: vec![
                send(1, 0, 0),
                recv(2, 1, 0),
                send(3, 1, 1), // ack
                recv(4, 0, 1),
                send(5, 0, 0),
                recv(6, 1, 0),
            ],
        };
        let r = race_check(&t);
        assert!(codes(&r).is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.hb_edges, 3);
    }
}
