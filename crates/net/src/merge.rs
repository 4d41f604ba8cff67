//! Merging per-node trace captures into one checkable distributed trace.
//!
//! Each node process owns a `RingTracer` whose clock is *its own*
//! monotonic epoch, and numbers its PEs locally (0..k for the k
//! processors it hosts). Merging therefore has three jobs:
//!
//! 1. **Clock alignment** — shift every node's timestamps by the
//!    launcher's handshake-measured offset (midpoint of a min-RTT ping
//!    against the node's tracer clock), mapping all events onto the
//!    launcher's time base.
//! 2. **Identity restoration** — remap local PE ids back to global
//!    processor ids, and re-intern each node's label table into one
//!    shared table.
//! 3. **Causally consistent linearization** — clock offsets add up to
//!    half the ping RTT of error, so adjusted timestamps are not causal
//!    order. The merged events go through [`Trace::linearize`], the one
//!    merge of per-PE streams, which gates each receive behind its send
//!    and each reused slot behind the receive that freed it.
//!
//! A node's capture was already linearized by `RingTracer::finish`, and
//! filtering it by PE recovers each PE's own order, which is all the
//! linearizer needs.

use spi_platform::{PeId, ProbeEvent, ProbeKind};
use spi_trace::{Trace, TraceMeta};

/// One node's contribution to a distributed capture.
pub struct NodeTrace {
    /// The node's local capture (`RingTracer::finish` with a bare
    /// metadata block — labels and drop count filled, bounds absent).
    pub trace: Trace,
    /// Nanoseconds to add to this node's timestamps to land on the
    /// launcher's time base (from the handshake clock sync).
    pub offset_ns: i64,
    /// `procs[local_pe]` is the global processor id. Sorted ascending
    /// by construction (nodes run their processors in id order).
    pub procs: Vec<usize>,
}

/// Merges per-node captures into one trace under `meta` — the
/// authoritative metadata from the launcher's own system build (edge
/// bounds, iterations, supervision budgets). Label tables are unioned,
/// per-node drop counts accumulate into `meta.dropped`.
pub fn merge_node_traces(mut meta: TraceMeta, nodes: &[NodeTrace]) -> Trace {
    // ---- Union the label tables, building per-node remap vectors. ----
    let mut labels: Vec<String> = Vec::new();
    let mut label_maps: Vec<Vec<u32>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let map = node
            .trace
            .meta
            .labels
            .iter()
            .map(|l| match labels.iter().position(|k| k == l) {
                Some(i) => i as u32,
                None => {
                    labels.push(l.clone());
                    (labels.len() - 1) as u32
                }
            })
            .collect();
        label_maps.push(map);
        meta.dropped += node.trace.meta.dropped;
    }
    meta.labels = labels;

    // ---- Adjust timestamps and restore global identities. -----------
    // i128 arithmetic: a u64 nano timestamp plus an i64 offset cannot
    // overflow, and the shift onto the smallest adjusted timestamp
    // restores u64 range.
    let mut events: Vec<(i128, ProbeEvent)> = Vec::new();
    for (node, label_map) in nodes.iter().zip(&label_maps) {
        for ev in &node.trace.events {
            let mut ev = *ev;
            ev.pe = PeId(node.procs.get(ev.pe.0).copied().unwrap_or(ev.pe.0));
            match &mut ev.kind {
                ProbeKind::FiringBegin { label } | ProbeKind::FiringEnd { label } => {
                    *label = label_map.get(*label as usize).copied().unwrap_or(*label);
                }
                _ => {}
            }
            events.push((i128::from(ev.ts) + i128::from(node.offset_ns), ev));
        }
    }
    let min_ts = events.iter().map(|e| e.0).min().unwrap_or(0).min(0);
    let events = (events.into_iter())
        .map(|(adj, ev)| ProbeEvent {
            ts: (adj - min_ts) as u64,
            ..ev
        })
        .collect();
    let mut trace = Trace { meta, events };
    trace.linearize();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_platform::ChannelId;
    use spi_trace::ClockKind;
    use std::collections::HashMap;

    fn send(ts: u64, pe: usize, ch: usize) -> ProbeEvent {
        ProbeEvent {
            ts,
            pe: PeId(pe),
            kind: ProbeKind::Send {
                channel: ChannelId(ch),
                bytes: 8,
                digest: 1,
                occ_bytes: 8,
                occ_msgs: 1,
            },
        }
    }

    fn recv(ts: u64, pe: usize, ch: usize) -> ProbeEvent {
        ProbeEvent {
            ts,
            pe: PeId(pe),
            kind: ProbeKind::Recv {
                channel: ChannelId(ch),
                bytes: 8,
                digest: 1,
                occ_bytes: 0,
                occ_msgs: 0,
            },
        }
    }

    fn node(events: Vec<ProbeEvent>, offset_ns: i64, procs: Vec<usize>) -> NodeTrace {
        NodeTrace {
            trace: Trace {
                meta: TraceMeta::new(ClockKind::Nanos),
                events,
            },
            offset_ns,
            procs,
        }
    }

    #[test]
    fn identities_and_labels_are_remapped() {
        let mut a = node(
            vec![ProbeEvent {
                ts: 5,
                pe: PeId(0),
                kind: ProbeKind::FiringBegin { label: 0 },
            }],
            0,
            vec![2],
        );
        a.trace.meta.labels = vec!["fire:high#0".into()];
        a.trace.meta.dropped = 3;
        let mut b = node(
            vec![ProbeEvent {
                ts: 7,
                pe: PeId(0),
                kind: ProbeKind::FiringBegin { label: 0 },
            }],
            0,
            vec![0],
        );
        b.trace.meta.labels = vec!["fire:src#0".into()];

        let merged = merge_node_traces(TraceMeta::new(ClockKind::Nanos), &[a, b]);
        assert_eq!(merged.meta.dropped, 3);
        assert_eq!(merged.meta.labels.len(), 2);
        let by_pe: HashMap<usize, u32> = merged
            .events
            .iter()
            .map(|e| match e.kind {
                ProbeKind::FiringBegin { label } => (e.pe.0, label),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(merged.meta.label(by_pe[&2]), "fire:high#0");
        assert_eq!(merged.meta.label(by_pe[&0]), "fire:src#0");
    }

    #[test]
    fn negative_offsets_shift_onto_a_shared_nonnegative_axis() {
        let a = node(vec![send(0, 0, 0)], -5_000, vec![0]);
        let b = node(vec![recv(9_000, 0, 0)], -8_000, vec![1]);
        let merged = merge_node_traces(TraceMeta::new(ClockKind::Nanos), &[a, b]);
        assert_eq!(merged.events[0].ts, 0);
        assert_eq!(merged.events[1].ts, 6_000);
    }
}
