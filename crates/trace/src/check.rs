//! Trace conformance: one replay of an observed run against the paper's
//! static guarantees and its synchronization order.
//!
//! The static side of this repo *proves* things about an SPI system:
//! eq. (1) bounds every packed message to `c(e)` bytes, eq. (2) sizes
//! every IPC buffer to `B(e) = (Γ + delay(e)) · c(e)`, the SPSC
//! transports promise per-channel FIFO delivery, and the self-timed
//! analysis predicts a makespan. This module closes the loop: given a
//! captured [`Trace`], it verifies the run actually stayed inside every
//! one of those envelopes, and emits analyzer-style diagnostics (same
//! [`spi_analyze::Diagnostic`] machinery as the static passes) when it
//! did not.
//!
//! The same pass rebuilds the cross-PE happens-before order the run
//! exhibited — program order per PE, plus "the k-th receive on a
//! channel happens after the k-th send" on data and ack channels alike,
//! so the reconstruction is the runtime image of the synchronization
//! graph `G_s` — with one vector clock per PE. It expects the stream in
//! the order [`Trace::linearize`] emits; the order checks compare
//! stream positions, never timestamps.
//!
//! | code   | severity | meaning |
//! |--------|----------|---------|
//! | SPI080 | error    | observed occupancy exceeded the eq. (2) buffer bound |
//! | SPI081 | error    | a message exceeded the eq. (1) packed-token size |
//! | SPI082 | error    | per-channel FIFO order violated (digest mismatch) |
//! | SPI083 | error    | observed makespan exceeded the predicted bound |
//! | SPI084 | warning  | capture dropped events; checks ran on a partial stream |
//! | SPI085 | error    | conservation violated: more receives than sends |
//! | SPI086 | error    | a batched flush exceeded the channel's declared batching budget |
//! | SPI090 | error    | a retry attempt exceeded the supervision retry budget |
//! | SPI092 | error    | a PE restarted more times than the restart budget |
//! | SPI093 | error    | unresolved corruption: a corrupt frame was never followed by a delivery |
//! | SPI094 | warning  | corrupt frames observed (recovered by retransmission) |
//! | SPI100 | error    | a receive precedes its matching send in the stream |
//! | SPI101 | error    | concurrent (unordered) sends on one channel from different PEs — producer endpoint race |
//! | SPI102 | error    | concurrent (unordered) receives on one channel from different PEs — consumer endpoint race |
//! | SPI103 | error    | slot reuse: send `n+B` precedes receive `n` on a channel bounded at `B` messages (eq. (2) window) |
//! | SPI104 | warning  | block/unblock events unpaired — blocking instrumentation incomplete |
//! | SPI105 | warning  | channel endpoint shared by more than one PE (ordered, so not a race, but outside the point-to-point contract) |
//!
//! (SPI106, "the race check ran on a partial stream", is retired:
//! SPI084 reports the same dropped-events condition. SPI091 and SPI095,
//! the degraded-token budget and advisory, are retired: supervision
//! never delivers a stand-in token.)
//!
//! The supervision-budget checks (`SPI090`, `SPI092`) run only when the
//! trace metadata carries [`SupervisionBounds`](crate::SupervisionBounds)
//! — an unsupervised trace
//! has no budgets to conform to. `SPI093` and `SPI094` fire on the
//! fault events alone.
//!
//! The batching-budget check (`SPI086`) runs only for channels listed
//! in the metadata's [`BatchBound`](crate::BatchBound)s — the bounds
//! the schedule lowered into each sending endpoint. Batched channels
//! with no declared bound (ad-hoc test or bench endpoints) are exempt,
//! mirroring how ack channels are exempt from eq. (1)/(2).
//!
//! A clean report on a cycle-clocked DES trace is strong evidence the
//! builder's provisioning math and the engines' flow control agree with
//! the analysis; a clean report on a threaded-runner trace additionally
//! exercises the real lock-free transports.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use spi_analyze::{Diagnostic, Locus, Severity};
use spi_platform::{ChannelId, ProbeKind};

use crate::model::{ClockKind, EdgeBound, Trace, TraceMeta};

/// Outcome of [`check`]: the diagnostics plus the headline numbers a
/// report wants to print even when everything passed.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Findings, worst first.
    pub diagnostics: Vec<Diagnostic>,
    /// Channels whose event streams were replayed.
    pub channels_checked: usize,
    /// Send/receive pairs whose digests were compared in FIFO order.
    pub messages_checked: u64,
    /// Cross-event happens-before edges the replay reconstructed: one
    /// per receive whose matching send preceded it.
    pub hb_edges: usize,
    /// Observed makespan (last event timestamp).
    pub observed_makespan: u64,
    /// The predicted bound the makespan was held against, when the
    /// trace metadata carried one and the clock is cycle-denominated.
    pub predicted_makespan: Option<u64>,
    /// `predicted − observed` when both exist and the run met the
    /// bound; how much headroom the prediction left.
    pub slack: Option<u64>,
}

impl ConformanceReport {
    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Renders the report in the analyzer's human format, with a
    /// trailing summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human());
            out.push('\n');
        }
        out.push_str(&format!(
            "trace-check: {} channel(s), {} message(s), {} happens-before edge(s)",
            self.channels_checked, self.messages_checked, self.hb_edges
        ));
        match (self.predicted_makespan, self.slack) {
            (Some(p), Some(s)) => out.push_str(&format!(
                ", makespan {} <= {} (slack {})",
                self.observed_makespan, p, s
            )),
            (Some(p), None) => {
                out.push_str(&format!(
                    ", makespan {} vs bound {}",
                    self.observed_makespan, p
                ));
            }
            _ => out.push_str(&format!(", makespan {}", self.observed_makespan)),
        }
        out.push_str(if self.has_errors() {
            ": FAIL\n"
        } else {
            ": ok\n"
        });
        out
    }
}

/// One send or receive as the replay keeps it.
struct Moved {
    digest: u64,
    bytes: u32,
    ts: u64,
    /// Position in the stream.
    pos: usize,
    /// A send's vector clock, taken by its receive's join.
    vc: Vec<u64>,
}

/// One channel's replay record.
#[derive(Default)]
struct ChannelReplay {
    sends: Vec<Moved>,
    recvs: Vec<Moved>,
    /// Per endpoint side (sends, receives): each PE's latest event on
    /// it, as (dense PE, its own clock component, PE id, ts).
    last: [Vec<(usize, u64, usize, u64)>; 2],
    /// Per side, the first pair of events with no happens-before path
    /// between them: (PE, ts) of the earlier and of the later one.
    race: [Option<[(usize, u64); 2]>; 2],
}

impl ChannelReplay {
    /// Records an event from dense PE `pe` (id `id`) on endpoint
    /// `side`, whose clock after the event is `vc`. It is unordered
    /// with an earlier event of PE `p` iff its clock has not absorbed
    /// that event's own component.
    fn endpoint(&mut self, side: usize, pe: usize, id: usize, vc: &[u64], ts: u64) {
        let last = &mut self.last[side];
        if self.race[side].is_none() {
            if let Some(&(.., a_id, a_ts)) =
                (last.iter()).find(|&&(p, own, ..)| p != pe && vc[p] < own)
            {
                self.race[side] = Some([(a_id, a_ts), (id, ts)]);
            }
        }
        match last.iter_mut().find(|l| l.0 == pe) {
            Some(l) => *l = (pe, vc[pe], id, ts),
            None => last.push((pe, vc[pe], id, ts)),
        }
    }
}

/// Replays `trace` against the bounds in its metadata and rebuilds its
/// happens-before order, in one pass.
///
/// Channels that carry traffic but appear in no [`EdgeBound`] (ack and
/// control channels, whose capacity the builder provisions separately)
/// are exempt from the eq. (1)/(2) checks but still replayed for FIFO,
/// conservation and ordering.
pub fn check(trace: &Trace) -> ConformanceReport {
    let meta = &trace.meta;
    let bounds: HashMap<usize, &EdgeBound> = meta.edges.iter().map(|b| (b.channel.0, b)).collect();

    let mut diagnostics = Vec::new();
    let mut replays: BTreeMap<usize, ChannelReplay> = BTreeMap::new();
    let mut messages_checked = 0u64;
    // Report each bound violation class once per channel, at its worst
    // observation — a sustained overflow would otherwise flood the
    // report with one diagnostic per event.
    let mut worst_occ: HashMap<usize, (u64, u64, u64)> = HashMap::new(); // ch -> (occ_bytes, occ_msgs, ts)
    let mut worst_msg: HashMap<usize, (u64, u64)> = HashMap::new(); // ch -> (bytes, ts)

    // Supervision replay: fault events accumulated for SPI090–SPI094.
    let mut worst_retry: HashMap<usize, (u32, u64)> = HashMap::new(); // ch -> (attempt, ts)
    let mut corrupt_frames: HashMap<usize, u64> = HashMap::new(); // ch -> count
    let mut unresolved_corrupt: HashMap<usize, u64> = HashMap::new(); // ch -> ts of last corrupt
    let mut restarts: HashMap<usize, (u64, u64)> = HashMap::new(); // pe -> (count, last iter)

    // Batching replay: worst observed flush per declared channel.
    let batch_bounds: HashMap<usize, u64> = meta
        .batch_bounds
        .iter()
        .map(|b| (b.channel.0, b.max_msgs))
        .collect();
    let mut worst_flush: HashMap<usize, (u32, u32, u64)> = HashMap::new(); // ch -> (msgs, bytes, ts)

    // Happens-before replay: one vector clock per PE, over dense PE
    // indices, ticking on every send and receive.
    let dense: HashMap<usize, usize> = (trace.events.iter().map(|e| e.pe.0))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .enumerate()
        .map(|(i, pe)| (pe, i))
        .collect();
    let mut clock = vec![vec![0u64; dense.len()]; dense.len()];
    let mut hb_edges = 0usize;
    // (pe, channel, direction) -> open block depth.
    let mut open_blocks: BTreeMap<(usize, usize, &str), u64> = BTreeMap::new();
    let mut spi104 = BTreeSet::new();

    for (pos, ev) in trace.events.iter().enumerate() {
        match ev.kind {
            ProbeKind::Send {
                channel,
                bytes,
                digest,
                occ_bytes,
                occ_msgs,
            } => {
                if let Some(b) = bounds.get(&channel.0) {
                    if u64::from(bytes) > b.max_message_bytes {
                        let w = worst_msg.entry(channel.0).or_insert((0, ev.ts));
                        if u64::from(bytes) > w.0 {
                            *w = (u64::from(bytes), ev.ts);
                        }
                    }
                    record_occupancy(&mut worst_occ, channel, occ_bytes, occ_msgs, ev.ts, b);
                }
                let pe = dense[&ev.pe.0];
                clock[pe][pe] += 1;
                let r = replays.entry(channel.0).or_default();
                r.endpoint(0, pe, ev.pe.0, &clock[pe], ev.ts);
                r.sends.push(Moved {
                    digest,
                    bytes,
                    ts: ev.ts,
                    pos,
                    vc: clock[pe].clone(),
                });
            }
            ProbeKind::Recv {
                channel,
                bytes,
                digest,
                occ_bytes,
                occ_msgs,
            } => {
                if let Some(b) = bounds.get(&channel.0) {
                    record_occupancy(&mut worst_occ, channel, occ_bytes, occ_msgs, ev.ts, b);
                }
                let pe = dense[&ev.pe.0];
                clock[pe][pe] += 1;
                let r = replays.entry(channel.0).or_default();
                // The k-th receive happens after the k-th send: join
                // the sender's clock, if the send came first.
                if let Some(send) = r.sends.get_mut(r.recvs.len()) {
                    for (c, s) in clock[pe].iter_mut().zip(&std::mem::take(&mut send.vc)) {
                        *c = (*c).max(*s);
                    }
                    hb_edges += 1;
                }
                r.endpoint(1, pe, ev.pe.0, &clock[pe], ev.ts);
                r.recvs.push(Moved {
                    digest,
                    bytes,
                    ts: ev.ts,
                    pos,
                    vc: Vec::new(),
                });
                // A successful delivery resolves any earlier corrupt
                // frame on this channel: the retransmission landed.
                unresolved_corrupt.remove(&channel.0);
            }
            ProbeKind::BlockSend { channel }
            | ProbeKind::BlockRecv { channel }
            | ProbeKind::UnblockSend { channel }
            | ProbeKind::UnblockRecv { channel } => {
                let (dir, opens) = match ev.kind {
                    ProbeKind::BlockSend { .. } => ("Send", true),
                    ProbeKind::BlockRecv { .. } => ("Recv", true),
                    ProbeKind::UnblockSend { .. } => ("Send", false),
                    _ => ("Recv", false),
                };
                let depth = open_blocks.entry((ev.pe.0, channel.0, dir)).or_insert(0);
                if opens {
                    *depth += 1;
                } else if *depth == 0 {
                    let what = format!("Unblock{dir} without Block{dir}");
                    spi104.insert((ev.pe.0, channel.0, what));
                } else {
                    *depth -= 1;
                }
            }
            ProbeKind::FaultRetry { channel, attempt } => {
                let w = worst_retry.entry(channel.0).or_insert((0, ev.ts));
                if attempt > w.0 {
                    *w = (attempt, ev.ts);
                }
            }
            ProbeKind::FaultCorrupt { channel } => {
                *corrupt_frames.entry(channel.0).or_insert(0) += 1;
                unresolved_corrupt.insert(channel.0, ev.ts);
            }
            ProbeKind::FaultRestart { iter } => {
                let r = restarts.entry(ev.pe.0).or_insert((0, iter));
                r.0 += 1;
                r.1 = iter;
            }
            ProbeKind::BatchFlush {
                channel,
                msgs,
                bytes,
                ..
            } if batch_bounds.contains_key(&channel.0) => {
                let w = worst_flush.entry(channel.0).or_insert((0, 0, ev.ts));
                if msgs > w.0 {
                    *w = (msgs, bytes, ev.ts);
                }
            }
            _ => {}
        }
    }

    for (&(pe, ch, dir), _) in open_blocks.iter().filter(|(_, &d)| d > 0) {
        spi104.insert((pe, ch, format!("Block{dir} never unblocked")));
    }
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

    for (&ch, r) in &replays {
        replay_channel(
            ChannelId(ch),
            r,
            &bounds,
            &mut diagnostics,
            &mut messages_checked,
        );
    }

    for (ch, (occ_bytes, occ_msgs, ts)) in &worst_occ {
        let b = bounds[ch];
        let over_bytes = *occ_bytes > b.capacity_bytes;
        let over_msgs = b.bound_msgs.is_some_and(|t| *occ_msgs > t);
        if over_bytes || over_msgs {
            let bound_desc = match b.bound_msgs {
                Some(t) => format!("{} B / {} msg", b.capacity_bytes, t),
                None => format!("{} B", b.capacity_bytes),
            };
            diagnostics.push(
                Diagnostic::new(
                    "SPI080",
                    Severity::Error,
                    Locus::Edge(b.edge),
                    format!(
                        "occupancy on {} (edge {}) reached {} B / {} msg at t={}, \
                         exceeding the eq. (2) bound B(e) = {}",
                        ChannelId(*ch),
                        b.edge,
                        occ_bytes,
                        occ_msgs,
                        ts,
                        bound_desc
                    ),
                )
                .with_suggestion(
                    "the buffer bound (Γ + delay(e)) · c(e) was violated at runtime; \
                     the provisioned capacity or the flow-control window is wrong",
                ),
            );
        }
    }

    for (ch, (bytes, ts)) in &worst_msg {
        let b = bounds[ch];
        diagnostics.push(
            Diagnostic::new(
                "SPI081",
                Severity::Error,
                Locus::Edge(b.edge),
                format!(
                    "message of {} B on {} (edge {}) at t={} exceeds the eq. (1) \
                     packed-token bound c(e) = {} B",
                    bytes,
                    ChannelId(*ch),
                    b.edge,
                    ts,
                    b.max_message_bytes
                ),
            )
            .with_suggestion(
                "the vectorization degree or the per-token size bound used at build \
                 time does not match what the actor actually sent",
            ),
        );
    }

    // SPI086: every flush of a declared batched channel must respect
    // the batching budget the schedule lowered — one diagnostic per
    // channel, at the worst flush, like the SPI080/081 bound checks.
    for (&ch, &(msgs, bytes, ts)) in &worst_flush {
        let budget = batch_bounds[&ch];
        if u64::from(msgs) > budget {
            diagnostics.push(
                Diagnostic::new(
                    "SPI086",
                    Severity::Error,
                    locus_for(&bounds, ChannelId(ch)),
                    format!(
                        "batched flush of {} record(s) ({} B) on {} at t={} exceeds \
                         the declared batching budget of {} record(s)",
                        msgs,
                        bytes,
                        ChannelId(ch),
                        ts,
                        budget
                    ),
                )
                .with_suggestion(
                    "the sender coalesced more records than the schedule's batch plan \
                     allows; the lowered batch_max and the runtime endpoint disagree",
                ),
            );
        }
    }

    let observed_makespan = trace.observed_end();
    let predicted_makespan = predicted_bound(meta);
    let mut slack = None;
    if let Some(p) = predicted_makespan {
        if observed_makespan > p {
            diagnostics.push(
                Diagnostic::new(
                    "SPI083",
                    Severity::Error,
                    Locus::System,
                    format!(
                        "observed makespan {} cycles exceeds the predicted self-timed \
                         bound {} cycles (overshoot {})",
                        observed_makespan,
                        p,
                        observed_makespan - p
                    ),
                )
                .with_suggestion(
                    "either the analytic model under-counts a communication cost or \
                     the run hit contention the self-timed analysis does not model",
                ),
            );
        } else {
            slack = Some(p - observed_makespan);
        }
    }

    if meta.dropped > 0 {
        diagnostics.push(
            Diagnostic::new(
                "SPI084",
                Severity::Warning,
                Locus::System,
                format!(
                    "capture dropped {} event(s); all checks ran on a partial stream",
                    meta.dropped
                ),
            )
            .with_suggestion("enlarge the per-PE ring (RingTracer::new events_per_pe)"),
        );
    }

    // --- Supervision conformance (SPI090, SPI092–SPI094) -------------
    // Budget checks only make sense against declared budgets; the
    // observational checks (SPI093, SPI094) fire on the events alone.
    if let Some(sup) = meta.supervision {
        for (&ch, &(attempt, ts)) in &worst_retry {
            if u64::from(attempt) > sup.max_retries {
                diagnostics.push(
                    Diagnostic::new(
                        "SPI090",
                        Severity::Error,
                        locus_for(&bounds, ChannelId(ch)),
                        format!(
                            "retry attempt {} on {} at t={} exceeds the supervision \
                             budget of {} retries",
                            attempt,
                            ChannelId(ch),
                            ts,
                            sup.max_retries
                        ),
                    )
                    .with_suggestion(
                        "the supervisor retried past its declared budget; the policy \
                         enforcement and the trace disagree",
                    ),
                );
            }
        }
        for (&pe, &(count, last_iter)) in &restarts {
            if count > sup.max_restarts {
                diagnostics.push(
                    Diagnostic::new(
                        "SPI092",
                        Severity::Error,
                        Locus::System,
                        format!(
                            "PE{} restarted {} time(s) (last at iteration {}), exceeding \
                             the restart budget of {}",
                            pe, count, last_iter, sup.max_restarts
                        ),
                    )
                    .with_suggestion(
                        "a PE rolled back more checkpoints than the supervision policy \
                         permits; the run should have aborted with RestartBudgetExhausted",
                    ),
                );
            }
        }
    }

    for (&ch, &ts) in &unresolved_corrupt {
        diagnostics.push(
            Diagnostic::new(
                "SPI093",
                Severity::Error,
                locus_for(&bounds, ChannelId(ch)),
                format!(
                    "unresolved corruption on {}: corrupt frame at t={} was never \
                     followed by a delivery on that channel",
                    ChannelId(ch),
                    ts
                ),
            )
            .with_suggestion(
                "every CRC rejection must end in a retransmitted delivery; a \
                 dangling corruption means the supervisor lost track of a token \
                 (or the run stopped before the retransmission landed)",
            ),
        );
    }

    let corrupt_total: u64 = corrupt_frames.values().sum();
    if corrupt_total > 0 {
        diagnostics.push(
            Diagnostic::new(
                "SPI094",
                Severity::Warning,
                Locus::System,
                format!(
                    "{} corrupt frame(s) rejected by CRC across {} channel(s)",
                    corrupt_total,
                    corrupt_frames.len()
                ),
            )
            .with_suggestion(
                "corruption was detected and handled; persistent corruption on one \
                 edge suggests a faulty transport or an injection plan left enabled",
            ),
        );
    }

    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.code.cmp(b.code))
            .then(a.message.cmp(&b.message))
    });

    ConformanceReport {
        diagnostics,
        channels_checked: replays.len(),
        messages_checked,
        hb_edges,
        observed_makespan,
        predicted_makespan,
        slack,
    }
}

/// The per-channel findings of the replay: FIFO and conservation
/// (SPI082, SPI085, matched by index), the stream order of each pair
/// (SPI100) and of each reused slot (SPI103), and the endpoint checks
/// (SPI101, SPI102, SPI105).
fn replay_channel(
    channel: ChannelId,
    r: &ChannelReplay,
    bounds: &HashMap<usize, &EdgeBound>,
    out: &mut Vec<Diagnostic>,
    messages_checked: &mut u64,
) {
    let locus = locus_for(bounds, channel);
    let mut push = |code, severity, message: String, suggestion: &str| {
        out.push(
            Diagnostic::new(code, severity, locus.clone(), message).with_suggestion(suggestion),
        );
    };

    let premature = (r.recvs.iter().zip(&r.sends)).position(|(recv, send)| send.pos > recv.pos);
    if let Some(k) = premature {
        push(
            "SPI100",
            Severity::Error,
            format!(
                "receive #{k} on {channel} at t={} precedes its matching send (t={}): \
                 the order is causally inconsistent",
                r.recvs[k].ts, r.sends[k].ts
            ),
            "a FIFO receive cannot precede its send; check the capture's linearization \
             or the transport's ordering",
        );
    }

    // FIFO + conservation: one diagnostic per channel — a single
    // out-of-order message desynchronizes every later comparison.
    for (i, recv) in r.recvs.iter().enumerate() {
        match r.sends.get(i) {
            Some(send) if (send.digest, send.bytes) != (recv.digest, recv.bytes) => {
                push(
                    "SPI082",
                    Severity::Error,
                    format!(
                        "FIFO violation on {channel} at t={}: receive #{i} carries digest \
                         {:#018x} ({} B) but send #{i} was digest {:#018x} ({} B)",
                        recv.ts, recv.digest, recv.bytes, send.digest, send.bytes
                    ),
                    "the SPSC transport contract promises per-channel order; a mismatch \
                     means payload corruption or interleaved writers on one channel",
                );
                break;
            }
            Some(_) => *messages_checked += 1,
            None => {
                push(
                    "SPI085",
                    Severity::Error,
                    format!(
                        "conservation violation on {channel} at t={}: receive #{i} observed \
                         but only {} send(s) traced",
                        recv.ts,
                        r.sends.len()
                    ),
                    "tokens appeared from nowhere — if the capture dropped events (SPI084) \
                     the send may simply be missing from the stream",
                );
                break;
            }
        }
    }

    // Slot reuse: with a bound of B messages, send n+B overwrites the slot
    // receive n vacates, so it must come later in the stream.
    if let Some(b) = bounds.get(&channel.0).and_then(|b| b.bound_msgs) {
        let lapped = r.recvs.iter().enumerate().find_map(|(n, recv)| {
            let send = r.sends.get(n.checked_add(usize::try_from(b).ok()?)?)?;
            (send.pos < recv.pos).then_some((n, recv, send))
        });
        if let Some((n, recv, send)) = lapped {
            push(
                "SPI103",
                Severity::Error,
                format!(
                    "{channel}: send #{} (t={}) precedes receive #{n} (t={}) on a {b}-message \
                     channel — the eq. (2) reuse window was violated",
                    n as u64 + b,
                    send.ts,
                    recv.ts
                ),
                "the producer lapped the consumer inside the static bound; check the \
                 channel's capacity derivation and backpressure",
            );
        }
    }

    for (side, code, race, last) in [
        ("send", "SPI101", r.race[0], &r.last[0]),
        ("receive", "SPI102", r.race[1], &r.last[1]),
    ] {
        if let Some([(a, a_ts), (b, b_ts)]) = race {
            push(
                code,
                Severity::Error,
                format!(
                    "{channel}: concurrent {side}s from PE {a} (t={a_ts}) and PE {b} \
                     (t={b_ts}) with no happens-before path — {side} endpoint race"
                ),
                "SPI edges are single-producer single-consumer; route the second PE \
                 through its own edge or add a synchronization edge",
            );
        } else if last.len() > 1 {
            let mut pes: Vec<usize> = last.iter().map(|l| l.2).collect();
            pes.sort_unstable();
            push(
                "SPI105",
                Severity::Warning,
                format!(
                    "{channel}: {side} endpoint shared by PEs {pes:?} (totally ordered, so \
                     not a race, but outside the point-to-point edge contract)"
                ),
                "shared endpoints are memory-safe but serialize on the slot protocol; give \
                 each PE its own edge",
            );
        }
    }
}

/// The makespan bound is only comparable when the timestamps are
/// cycle-denominated (DES traces); a wall-clock trace against a cycle
/// bound would be apples to oranges.
fn predicted_bound(meta: &TraceMeta) -> Option<u64> {
    match meta.clock {
        ClockKind::Cycles => meta.predicted_makespan_cycles,
        ClockKind::Nanos => None,
    }
}

fn record_occupancy(
    worst: &mut HashMap<usize, (u64, u64, u64)>,
    channel: ChannelId,
    occ_bytes: u32,
    occ_msgs: u32,
    ts: u64,
    bound: &EdgeBound,
) {
    let over_bytes = u64::from(occ_bytes) > bound.capacity_bytes;
    let over_msgs = bound.bound_msgs.is_some_and(|t| u64::from(occ_msgs) > t);
    if over_bytes || over_msgs {
        let w = worst.entry(channel.0).or_insert((0, 0, ts));
        if u64::from(occ_bytes) >= w.0 {
            *w = (u64::from(occ_bytes), u64::from(occ_msgs), ts);
        }
    }
}

fn locus_for(bounds: &HashMap<usize, &EdgeBound>, channel: ChannelId) -> Locus {
    match bounds.get(&channel.0) {
        Some(b) => Locus::Edge(b.edge),
        None => Locus::System,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_dataflow::EdgeId;
    use spi_platform::{PeId, ProbeEvent};

    fn bounded_meta() -> TraceMeta {
        let mut meta = TraceMeta::new(ClockKind::Cycles);
        meta.edges.push(EdgeBound {
            edge: EdgeId(0),
            channel: ChannelId(0),
            capacity_bytes: 64,
            max_message_bytes: 16,
            bound_msgs: Some(4),
        });
        meta
    }

    fn send(ts: u64, ch: usize, bytes: u32, digest: u64, occ_b: u32, occ_m: u32) -> ProbeEvent {
        ProbeEvent {
            ts,
            pe: PeId(0),
            kind: ProbeKind::Send {
                channel: ChannelId(ch),
                bytes,
                digest,
                occ_bytes: occ_b,
                occ_msgs: occ_m,
            },
        }
    }

    fn recv(ts: u64, ch: usize, bytes: u32, digest: u64, occ_b: u32, occ_m: u32) -> ProbeEvent {
        ProbeEvent {
            ts,
            pe: PeId(1),
            kind: ProbeKind::Recv {
                channel: ChannelId(ch),
                bytes,
                digest,
                occ_bytes: occ_b,
                occ_msgs: occ_m,
            },
        }
    }

    fn codes(r: &ConformanceReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    fn supervised_meta() -> TraceMeta {
        let mut meta = bounded_meta();
        meta.supervision = Some(crate::model::SupervisionBounds {
            max_retries: 2,
            max_restarts: 1,
        });
        meta
    }

    fn fault(ts: u64, pe: usize, kind: ProbeKind) -> ProbeEvent {
        ProbeEvent {
            ts,
            pe: PeId(pe),
            kind,
        }
    }

    #[test]
    fn clean_trace_reports_no_diagnostics_and_slack() {
        let mut meta = bounded_meta();
        meta.predicted_makespan_cycles = Some(100);
        let trace = Trace {
            meta,
            events: vec![
                send(10, 0, 16, 0xaa, 16, 1),
                send(20, 0, 16, 0xbb, 32, 2),
                recv(30, 0, 16, 0xaa, 16, 1),
                recv(40, 0, 16, 0xbb, 0, 0),
            ],
        };
        let r = check(&trace);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(!r.has_errors());
        assert_eq!(r.messages_checked, 2);
        assert_eq!(r.channels_checked, 1);
        assert_eq!(r.slack, Some(60));
        assert!(r.render_human().contains("slack 60"));
        assert!(r.render_human().contains(": ok"));
    }

    #[test]
    fn occupancy_over_bound_fires_spi080_once_at_worst() {
        let trace = Trace {
            meta: bounded_meta(),
            events: vec![
                send(1, 0, 16, 1, 65, 5),
                send(2, 0, 16, 2, 81, 6), // worse
            ],
        };
        let r = check(&trace);
        assert_eq!(codes(&r), vec!["SPI080"]);
        assert!(r.diagnostics[0].message.contains("81 B"));
        assert!(r.diagnostics[0].message.contains("t=2"));
        assert_eq!(r.diagnostics[0].locus, Locus::Edge(EdgeId(0)));
    }

    #[test]
    fn token_count_over_bound_fires_spi080_even_under_byte_capacity() {
        let trace = Trace {
            meta: bounded_meta(),
            // 5 msgs > bound_msgs=4, but 40 B < 64 B capacity.
            events: vec![send(1, 0, 8, 1, 40, 5)],
        };
        let r = check(&trace);
        assert_eq!(codes(&r), vec!["SPI080"]);
        assert!(r.diagnostics[0].message.contains("5 msg"));
    }

    #[test]
    fn oversized_message_fires_spi081() {
        let trace = Trace {
            meta: bounded_meta(),
            events: vec![send(1, 0, 17, 1, 17, 1)],
        };
        let r = check(&trace);
        assert_eq!(codes(&r), vec!["SPI081"]);
        assert!(r.diagnostics[0].message.contains("17 B"));
        assert!(r.diagnostics[0].message.contains("c(e) = 16"));
    }

    #[test]
    fn digest_mismatch_fires_spi082_once() {
        let trace = Trace {
            meta: bounded_meta(),
            events: vec![
                send(1, 0, 16, 0xaa, 16, 1),
                send(2, 0, 16, 0xbb, 32, 2),
                recv(3, 0, 16, 0xbb, 16, 1), // out of order
                recv(4, 0, 16, 0xaa, 0, 0),
            ],
        };
        let r = check(&trace);
        assert_eq!(codes(&r), vec!["SPI082"]);
        assert!(r.diagnostics[0].message.contains("receive #0"));
    }

    #[test]
    fn excess_receives_fire_spi085() {
        let trace = Trace {
            meta: bounded_meta(),
            events: vec![
                send(1, 0, 16, 0xaa, 16, 1),
                recv(2, 0, 16, 0xaa, 0, 0),
                recv(3, 0, 16, 0xcc, 0, 0),
            ],
        };
        let r = check(&trace);
        assert_eq!(codes(&r), vec!["SPI085"]);
        assert!(r.diagnostics[0].message.contains("receive #1"));
    }

    #[test]
    fn makespan_overshoot_fires_spi083_cycles_only() {
        let mut meta = bounded_meta();
        meta.predicted_makespan_cycles = Some(10);
        let events = vec![send(50, 0, 16, 1, 16, 1)];
        let r = check(&Trace {
            meta: meta.clone(),
            events: events.clone(),
        });
        assert_eq!(codes(&r), vec!["SPI083"]);
        assert!(r.diagnostics[0].message.contains("overshoot 40"));

        // Same numbers on a nanosecond clock: not comparable, no finding.
        meta.clock = ClockKind::Nanos;
        let r = check(&Trace { meta, events });
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.predicted_makespan, None);
    }

    #[test]
    fn dropped_events_fire_spi084_warning() {
        let mut meta = bounded_meta();
        meta.dropped = 7;
        let r = check(&Trace {
            meta,
            events: vec![],
        });
        assert_eq!(codes(&r), vec!["SPI084"]);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
        assert!(!r.has_errors());
    }

    #[test]
    fn unbounded_channels_skip_bound_checks_but_keep_fifo() {
        // Channel 9 has no EdgeBound: huge message + occupancy are fine,
        // but a digest mismatch still fires.
        let trace = Trace {
            meta: bounded_meta(),
            events: vec![
                send(1, 9, 4096, 0xaa, 4096, 1),
                recv(2, 9, 4096, 0xdd, 0, 0),
            ],
        };
        let r = check(&trace);
        assert_eq!(codes(&r), vec!["SPI082"]);
        assert_eq!(r.diagnostics[0].locus, Locus::System);
    }

    #[test]
    fn flush_over_budget_fires_spi086_once_at_worst() {
        use spi_platform::FlushReason;
        let mut meta = bounded_meta();
        meta.batch_bounds.push(crate::model::BatchBound {
            channel: ChannelId(0),
            max_msgs: 4,
        });
        let flush = |ts, msgs, bytes| ProbeEvent {
            ts,
            pe: PeId(0),
            kind: ProbeKind::BatchFlush {
                channel: ChannelId(0),
                msgs,
                bytes,
                reason: FlushReason::Full,
            },
        };
        let trace = Trace {
            meta,
            events: vec![flush(1, 4, 64), flush(2, 5, 80), flush(3, 6, 96)],
        };
        let r = check(&trace);
        assert_eq!(codes(&r), vec!["SPI086"]);
        assert!(r.diagnostics[0].message.contains("6 record(s)"));
        assert!(r.diagnostics[0].message.contains("t=3"));
        assert!(r.diagnostics[0].message.contains("budget of 4"));
        assert_eq!(r.diagnostics[0].locus, Locus::Edge(EdgeId(0)));
    }

    #[test]
    fn undeclared_batched_channels_are_exempt_from_spi086() {
        use spi_platform::FlushReason;
        // Channel 7 flushes huge batches but declares no bound — an
        // ad-hoc batched endpoint owes the checker nothing. Channel 0
        // declares a bound and stays inside it.
        let mut meta = bounded_meta();
        meta.batch_bounds.push(crate::model::BatchBound {
            channel: ChannelId(0),
            max_msgs: 4,
        });
        let flush = |ts, ch, msgs| ProbeEvent {
            ts,
            pe: PeId(0),
            kind: ProbeKind::BatchFlush {
                channel: ChannelId(ch),
                msgs,
                bytes: msgs * 16,
                reason: FlushReason::Deadline,
            },
        };
        let trace = Trace {
            meta,
            events: vec![flush(1, 7, 1000), flush(2, 0, 4)],
        };
        let r = check(&trace);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn retry_over_budget_fires_spi090_only_under_supervision_meta() {
        let events = vec![
            fault(
                1,
                1,
                ProbeKind::FaultRetry {
                    channel: ChannelId(0),
                    attempt: 2, // within budget
                },
            ),
            fault(
                2,
                1,
                ProbeKind::FaultRetry {
                    channel: ChannelId(0),
                    attempt: 3, // over budget (max_retries = 2)
                },
            ),
        ];
        let r = check(&Trace {
            meta: supervised_meta(),
            events: events.clone(),
        });
        assert_eq!(codes(&r), vec!["SPI090"]);
        assert!(r.diagnostics[0].message.contains("attempt 3"));
        assert!(r.diagnostics[0].message.contains("budget of 2"));
        assert_eq!(r.diagnostics[0].locus, Locus::Edge(EdgeId(0)));

        // Same events with no declared budgets: nothing to conform to.
        let r = check(&Trace {
            meta: bounded_meta(),
            events,
        });
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn restarts_over_budget_fire_spi092_per_pe() {
        let events = vec![
            fault(1, 2, ProbeKind::FaultRestart { iter: 3 }),
            fault(2, 2, ProbeKind::FaultRestart { iter: 5 }),
            fault(3, 1, ProbeKind::FaultRestart { iter: 4 }), // within budget
        ];
        let r = check(&Trace {
            meta: supervised_meta(),
            events,
        });
        assert_eq!(codes(&r), vec!["SPI092"]);
        assert!(r.diagnostics[0].message.contains("PE2"));
        assert!(r.diagnostics[0].message.contains("iteration 5"));
    }

    #[test]
    fn recovered_corruption_warns_spi094_unresolved_escalates_spi093() {
        // Corrupt frame followed by a delivery on the same channel:
        // retransmission landed, only the advisory warning remains.
        let recovered = vec![
            send(1, 0, 16, 0xaa, 16, 1),
            fault(
                2,
                1,
                ProbeKind::FaultCorrupt {
                    channel: ChannelId(0),
                },
            ),
            send(3, 0, 16, 0xaa, 16, 1),
            recv(4, 0, 16, 0xaa, 0, 0),
        ];
        let r = check(&Trace {
            meta: supervised_meta(),
            events: recovered,
        });
        // Two sends for one receive is fine — the retransmission *is*
        // the second send; conservation only fires on excess receives.
        assert_eq!(codes(&r), vec!["SPI094"]);

        // Corrupt frame with no later delivery: the supervisor lost a
        // token.
        let dangling = vec![
            recv(1, 0, 16, 0xaa, 0, 0),
            fault(
                2,
                1,
                ProbeKind::FaultCorrupt {
                    channel: ChannelId(0),
                },
            ),
        ];
        let r = check(&Trace {
            meta: bounded_meta(),
            events: dangling,
        });
        assert!(codes(&r).contains(&"SPI093"));
        assert!(codes(&r).contains(&"SPI094"));
        assert!(r.has_errors());
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut meta = bounded_meta();
        meta.dropped = 1;
        let trace = Trace {
            meta,
            events: vec![send(1, 0, 17, 1, 65, 5)],
        };
        let r = check(&trace);
        let cs = codes(&r);
        assert_eq!(cs, vec!["SPI080", "SPI081", "SPI084"]);
        assert!(r.render_human().contains("FAIL"));
    }

    // --- Ordering (SPI100–SPI105): one single-fault trace per code. ---

    /// A 4-byte message with digest 7 on `ch` from `pe`, well inside
    /// `bounded_meta`'s channel-0 bound.
    fn send_on(ts: u64, pe: usize, ch: usize) -> ProbeEvent {
        ProbeEvent {
            pe: PeId(pe),
            ..send(ts, ch, 4, 7, 4, 1)
        }
    }

    fn recv_on(ts: u64, pe: usize, ch: usize) -> ProbeEvent {
        ProbeEvent {
            pe: PeId(pe),
            ..recv(ts, ch, 4, 7, 0, 0)
        }
    }

    fn codes_of(meta: TraceMeta, events: Vec<ProbeEvent>) -> Vec<&'static str> {
        codes(&check(&Trace { meta, events }))
    }

    fn one_message_meta() -> TraceMeta {
        let mut meta = bounded_meta();
        meta.edges[0].bound_msgs = Some(1);
        meta
    }

    #[test]
    fn clean_pipeline_is_silent() {
        let trace = Trace {
            meta: bounded_meta(),
            events: vec![
                send_on(1, 0, 0),
                recv_on(2, 1, 0),
                send_on(3, 0, 0),
                recv_on(4, 1, 0),
            ],
        };
        let r = check(&trace);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.hb_edges, 2);
    }

    #[test]
    fn spi100_recv_before_send() {
        let events = vec![recv_on(1, 1, 0), send_on(5, 0, 0)];
        assert_eq!(codes_of(bounded_meta(), events), vec!["SPI100"]);
    }

    #[test]
    fn spi101_concurrent_senders() {
        let events = vec![send_on(1, 0, 0), send_on(2, 2, 0)];
        assert_eq!(codes_of(bounded_meta(), events), vec!["SPI101"]);
    }

    #[test]
    fn spi102_concurrent_receivers() {
        let events = vec![
            send_on(1, 0, 0),
            send_on(2, 0, 0),
            recv_on(3, 1, 0),
            recv_on(4, 2, 0),
        ];
        assert_eq!(codes_of(bounded_meta(), events), vec!["SPI102"]);
    }

    #[test]
    fn spi103_slot_reuse_window() {
        // Send #1 precedes receive #0 on a one-message channel. The
        // timestamps say otherwise; the stream position decides.
        let events = vec![
            send_on(1, 0, 0),
            send_on(9, 0, 0),
            recv_on(5, 1, 0),
            recv_on(10, 1, 0),
        ];
        assert_eq!(codes_of(one_message_meta(), events), vec!["SPI103"]);
    }

    #[test]
    fn spi104_unpaired_block() {
        let block = ProbeKind::BlockSend {
            channel: ChannelId(0),
        };
        assert_eq!(
            codes_of(bounded_meta(), vec![fault(1, 0, block)]),
            vec!["SPI104"]
        );
    }

    #[test]
    fn spi105_shared_but_ordered_endpoint() {
        // PE 0 sends on channel 5, then hands the baton to PE 2 over
        // channel 9; PE 2's later send on channel 5 is therefore
        // ordered — a contract violation but not a race.
        let events = vec![
            send_on(1, 0, 5),
            send_on(2, 0, 9),
            recv_on(3, 2, 9),
            send_on(4, 2, 5),
        ];
        assert_eq!(codes_of(bounded_meta(), events), vec!["SPI105"]);
    }

    #[test]
    fn hb_through_ack_channel_suppresses_slot_reuse_race() {
        // The producer waits for the consumer's ack (channel 1) before
        // reusing the slot.
        let trace = Trace {
            meta: one_message_meta(),
            events: vec![
                send_on(1, 0, 0),
                recv_on(2, 1, 0),
                send_on(3, 1, 1),
                recv_on(4, 0, 1),
                send_on(5, 0, 0),
                recv_on(6, 1, 0),
            ],
        };
        let r = check(&trace);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.hb_edges, 3);
    }
}
