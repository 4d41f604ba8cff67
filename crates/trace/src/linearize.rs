//! Causal linearization: the one place per-PE event streams become one
//! trace.
//!
//! A PE is one thread, so its own probe order is its operation order —
//! the only interleaving a capture certifies. In one process the raw
//! stamps already order most `Recv`s after their `Send`s: the threaded
//! runner stamps a `Send` when the walk started it, before the push, and
//! a `Recv` after the take. What timestamps alone do not order is a
//! `Send` that recorded a wait (it carries its `UnblockSend` stamp,
//! taken after the push), a merged multi-process capture (clock-offset
//! error), and the eq. (2) window (a send is stamped when started, which
//! can precede the receive that freed its slot). The merge here
//! therefore emits events under the happens-before constraints of the
//! paper's synchronization graph `G_s`:
//!
//! * the k-th `Recv` on a channel only after the k-th `Send`;
//! * on a channel whose [`EdgeBound`](crate::EdgeBound) carries
//!   `bound_tokens = B`, send `n+B` only after receive `n` (the eq. (2)
//!   slot-reuse window).
//!
//! Within those constraints events are taken in timestamp order, and
//! output timestamps are clamped so they never decrease. Only `Send`
//! and `Recv` are gated; everything else (firings, fault events, a
//! `BatchFlush` the `net-timer` wrote into a PE's buffer) follows its
//! stream's order.
//!
//! A well-formed capture always has an enabled head: the head whose
//! *operation* happened earliest. A blocked receive's send operated
//! strictly earlier on another PE, so that PE's head operated earlier
//! still — and a blocked send's window-opening receive likewise. On a
//! malformed input (dropped events, a hand-edited file) gating can
//! wedge; the merge then emits the earliest head anyway, so it
//! terminates on any input, and [`check`](crate::check) reports the
//! order it could not repair (SPI100, SPI103).

use std::collections::{BTreeMap, HashMap};

use spi_platform::{ProbeEvent, ProbeKind};

use crate::model::Trace;

impl Trace {
    /// Re-orders `events` causally: splits them into per-PE streams
    /// (each keeping its given order), then merges the streams under
    /// the gates in the module docs, clamping timestamps so they never
    /// decrease. [`RingTracer::finish`](crate::RingTracer::finish)
    /// calls it on every capture.
    pub fn linearize(&mut self) {
        let bound: HashMap<usize, u64> = (self.meta.edges.iter())
            .filter_map(|b| b.bound_tokens.map(|t| (b.channel.0, t)))
            .collect();
        let mut per_pe: BTreeMap<usize, Vec<ProbeEvent>> = BTreeMap::new();
        for ev in self.events.drain(..) {
            per_pe.entry(ev.pe.0).or_default().push(ev);
        }
        let streams: Vec<Vec<ProbeEvent>> = per_pe.into_values().collect();
        let mut heads = vec![0usize; streams.len()];
        // Per channel: (sends emitted, receives emitted).
        let mut moved: HashMap<usize, (u64, u64)> = HashMap::new();
        let enabled = |ev: &ProbeEvent, moved: &HashMap<usize, (u64, u64)>| match ev.kind {
            ProbeKind::Recv { channel, .. } => {
                let (sent, recvd) = moved.get(&channel.0).copied().unwrap_or_default();
                sent > recvd
            }
            ProbeKind::Send { channel, .. } => bound.get(&channel.0).is_none_or(|&b| {
                let (sent, recvd) = moved.get(&channel.0).copied().unwrap_or_default();
                sent < recvd.saturating_add(b)
            }),
            _ => true,
        };
        let mut last_ts = 0u64;
        loop {
            let (mut pick, mut earliest) = (None, None);
            for (i, stream) in streams.iter().enumerate() {
                let Some(ev) = stream.get(heads[i]) else {
                    continue;
                };
                let earlier =
                    |best: Option<usize>| best.is_none_or(|j| ev.ts < streams[j][heads[j]].ts);
                if earlier(earliest) {
                    earliest = Some(i);
                }
                if earlier(pick) && enabled(ev, &moved) {
                    pick = Some(i);
                }
            }
            let Some(i) = pick.or(earliest) else { break };
            let mut ev = streams[i][heads[i]];
            heads[i] += 1;
            match ev.kind {
                ProbeKind::Send { channel, .. } => moved.entry(channel.0).or_default().0 += 1,
                ProbeKind::Recv { channel, .. } => moved.entry(channel.0).or_default().1 += 1,
                _ => {}
            }
            ev.ts = ev.ts.max(last_ts);
            last_ts = ev.ts;
            self.events.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockKind, EdgeBound, TraceMeta};
    use spi_dataflow::EdgeId;
    use spi_platform::{ChannelId, PeId};

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

    fn linearized(meta: TraceMeta, events: Vec<ProbeEvent>) -> Trace {
        let mut trace = Trace { meta, events };
        trace.linearize();
        trace
    }

    fn order(trace: &Trace) -> String {
        (trace.events.iter())
            .map(|e| match e.kind {
                ProbeKind::Send { .. } => 'S',
                ProbeKind::Recv { .. } => 'R',
                _ => '?',
            })
            .collect()
    }

    #[test]
    fn clock_skew_cannot_reorder_recv_before_send() {
        // The receiver's clock runs 1 µs "early": timestamp order
        // would put its receives before the matching sends.
        let trace = linearized(
            TraceMeta::new(ClockKind::Nanos),
            vec![
                send(1000, 0, 0),
                send(2000, 0, 0),
                recv(100, 1, 0),
                recv(1100, 1, 0),
            ],
        );
        assert_eq!(order(&trace), "SRSR");
        for w in trace.events.windows(2) {
            assert!(w[0].ts <= w[1].ts, "timestamps agree with the order");
        }
    }

    #[test]
    fn slot_reuse_window_is_respected_in_the_linearization() {
        // One-token channel: send #1 must not be emitted before
        // receive #0 even though its timestamp is earlier.
        let mut meta = TraceMeta::new(ClockKind::Nanos);
        meta.edges.push(EdgeBound {
            edge: EdgeId(0),
            channel: ChannelId(0),
            capacity_bytes: 8,
            max_message_bytes: 8,
            bound_tokens: Some(1),
        });
        let trace = linearized(
            meta,
            vec![
                send(0, 0, 0),
                send(10, 0, 0),
                recv(5000, 1, 0),
                recv(6000, 1, 0),
            ],
        );
        assert_eq!(order(&trace), "SRSR");
    }

    #[test]
    fn probe_lag_between_two_pes_is_repaired() {
        // The sender was descheduled between its push and its probe,
        // so the receiver's probe carries the earlier timestamp.
        let trace = linearized(
            TraceMeta::new(ClockKind::Nanos),
            vec![recv(1000, 1, 0), send(1024, 0, 0)],
        );
        assert_eq!(order(&trace), "SR");
        assert_eq!(trace.events[1].ts, 1024, "clamped to the send");
    }

    #[test]
    fn a_wedged_gate_falls_back_to_the_earliest_head() {
        // PE 2's receive lost its send: it is emitted last, after the
        // enabled heads, instead of wedging the merge.
        let trace = linearized(
            TraceMeta::new(ClockKind::Nanos),
            vec![recv(3, 2, 1), recv(5, 1, 0), send(7, 0, 0)],
        );
        let pes: Vec<usize> = trace.events.iter().map(|e| e.pe.0).collect();
        assert_eq!(pes, vec![0, 1, 2]);
        assert_eq!(order(&trace), "SRR");
    }
}
