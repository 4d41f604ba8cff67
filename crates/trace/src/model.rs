//! The owned trace model and its native on-disk format.
//!
//! A [`Trace`] is what a capture run leaves behind: the merged,
//! timestamp-ordered probe events plus the metadata a consumer needs to
//! interpret and *check* them — which clock the timestamps follow, the
//! interned label table, and the static per-edge bounds (eq. 1 packed
//! message size, eq. 2 IPC buffer capacity) the conformance checker
//! holds the events against.
//!
//! The native format is deliberately line-oriented text, not a binary
//! dump: traces are small (tens of thousands of events), diffable, and
//! greppable in a failure report. `#`-prefixed lines carry metadata,
//! `E` lines carry events; unknown `#` keys are skipped so the format
//! can grow without breaking old readers.

use std::fmt;

use spi_dataflow::EdgeId;
use spi_platform::{ChannelId, FlushReason, PeId, ProbeEvent, ProbeKind};

/// Format version written in the header line.
pub const NATIVE_VERSION: u32 = 1;

/// Most distinct PE ids a native file may name. The conformance replay
/// keeps one vector clock per PE, `O(PEs²)` words in all, so a forged
/// file naming millions of PEs must be refused at parse time.
pub const MAX_NATIVE_PES: usize = 1024;

/// What one unit of [`ProbeEvent::ts`] means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Simulated cycles from the discrete-event engine — exact,
    /// deterministic, and comparable against analytic cycle bounds.
    Cycles,
    /// Monotonic wall-clock nanoseconds from the threaded runner —
    /// real time, not comparable against cycle-denominated bounds.
    Nanos,
}

impl ClockKind {
    fn as_str(self) -> &'static str {
        match self {
            ClockKind::Cycles => "cycles",
            ClockKind::Nanos => "ns",
        }
    }
}

/// The static contract of one application edge, as the analyzer and
/// builder derived it — the numbers the runtime must stay within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeBound {
    /// Application-graph edge this bound belongs to.
    pub edge: EdgeId,
    /// Platform channel that carries the edge's data messages.
    pub channel: ChannelId,
    /// Allocated buffer capacity in bytes — the eq. (2) bound
    /// `B(e) = (Γ + delay(e)) · c(e)` as provisioned by the builder.
    /// Observed occupancy above this is a hard invariant violation.
    pub capacity_bytes: u64,
    /// Largest legal packed message in bytes (eq. 1 `c(e)` including
    /// the header), fixed at compile time by the token-size bound.
    pub max_message_bytes: u64,
    /// The buffer bound in messages — the data channel's slot count,
    /// `EdgePlan::bound_msgs` — on an edge whose messages are all
    /// `max_message_bytes` long; `None` where shorter messages may fit
    /// more (dynamic edges). A native trace file keeps the key `tokens`
    /// for it, so stored traces still parse.
    pub bound_msgs: Option<u64>,
}

/// The declared batching budget of one channel: the most records its
/// sending endpoint may coalesce into a single flush, as lowered from
/// the schedule (`spi_sched::BatchPlan`). The conformance checker holds
/// every observed [`ProbeKind::BatchFlush`] against this (SPI086).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchBound {
    /// Platform channel the budget applies to.
    pub channel: ChannelId,
    /// Most records one flush may carry.
    pub max_msgs: u64,
}

/// Declared supervision budgets of a supervised run — the bounds the
/// conformance checker holds the observed `Fault*` events against
/// (diagnostics SPI090–SPI092).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionBounds {
    /// Retries allowed per channel operation beyond the first attempt
    /// (`SupervisionPolicy::max_retries`).
    pub max_retries: u64,
    /// Checkpoint restarts allowed per PE (`spi_platform::MAX_RESTARTS`).
    pub max_restarts: u64,
}

/// Everything about a capture run except the events themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Unit of every event timestamp.
    pub clock: ClockKind,
    /// Interned label table; [`ProbeKind::FiringBegin::label`] indexes
    /// into it.
    pub labels: Vec<String>,
    /// Static bounds for the data edges the run was built from. Channels
    /// not listed here (control/ack traffic) are exempt from bound
    /// checks but still FIFO-checked.
    pub edges: Vec<EdgeBound>,
    /// Analytic makespan bound in cycles for the traced horizon, when
    /// the builder computed one. Only meaningful for
    /// [`ClockKind::Cycles`] traces.
    pub predicted_makespan_cycles: Option<u64>,
    /// Graph iterations the run executed.
    pub iterations: u64,
    /// Probe events the capture buffer had to drop (ring overflow).
    /// Non-zero means every check ran on a partial stream.
    pub dropped: u64,
    /// Supervision budgets when the run was supervised; `None` for
    /// plain runs (the fault-budget checks SPI090–SPI092 are skipped).
    pub supervision: Option<SupervisionBounds>,
    /// Batching budgets for channels whose senders coalesce records.
    /// Channels not listed are exempt from the SPI086 budget check
    /// (ad-hoc batched endpoints in tests and benches declare nothing).
    pub batch_bounds: Vec<BatchBound>,
}

impl TraceMeta {
    /// A metadata block with the given clock and everything else empty.
    pub fn new(clock: ClockKind) -> Self {
        TraceMeta {
            clock,
            labels: Vec::new(),
            edges: Vec::new(),
            predicted_makespan_cycles: None,
            iterations: 0,
            dropped: 0,
            supervision: None,
            batch_bounds: Vec::new(),
        }
    }

    /// The label string for an interned id, or a stable placeholder when
    /// the id is out of range (possible after a truncated parse).
    pub fn label(&self, id: u32) -> &str {
        self.labels.get(id as usize).map_or("?", String::as_str)
    }
}

/// A complete capture: metadata plus the merged event stream, ordered
/// by timestamp (ties keep per-PE emission order).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run metadata.
    pub meta: TraceMeta,
    /// Timestamp-ordered probe events.
    pub events: Vec<ProbeEvent>,
}

impl Trace {
    /// Timestamp of the last event — the observed makespan for a
    /// cycle-clocked trace (the DES starts at cycle 0).
    pub fn observed_end(&self) -> u64 {
        self.events.iter().map(|e| e.ts).max().unwrap_or(0)
    }

    /// Width of the observed window (`max ts − min ts`).
    pub fn span(&self) -> u64 {
        let min = self.events.iter().map(|e| e.ts).min().unwrap_or(0);
        self.observed_end() - min
    }

    /// Serializes to the native line format (see the module docs).
    pub fn to_native(&self) -> String {
        let m = &self.meta;
        let mut out = String::new();
        out.push_str(&format!("# spi-trace v{NATIVE_VERSION}\n"));
        out.push_str(&format!("# clock {}\n", m.clock.as_str()));
        out.push_str(&format!("# iterations {}\n", m.iterations));
        out.push_str(&format!("# dropped {}\n", m.dropped));
        if let Some(p) = m.predicted_makespan_cycles {
            out.push_str(&format!("# predicted_makespan {p}\n"));
        }
        if let Some(s) = m.supervision {
            out.push_str(&format!(
                "# supervision retries {} restarts {}\n",
                s.max_retries, s.max_restarts
            ));
        }
        for (i, l) in m.labels.iter().enumerate() {
            out.push_str(&format!("# label {i} {l}\n"));
        }
        for e in &m.edges {
            let tokens = e
                .bound_msgs
                .map_or_else(|| "inf".to_string(), |t| t.to_string());
            out.push_str(&format!(
                "# edge {} ch {} cap {} max {} tokens {}\n",
                e.edge.0, e.channel.0, e.capacity_bytes, e.max_message_bytes, tokens
            ));
        }
        for b in &m.batch_bounds {
            out.push_str(&format!("# batch ch {} max {}\n", b.channel.0, b.max_msgs));
        }
        for ev in &self.events {
            out.push_str(&format!("E {} {} ", ev.ts, ev.pe.0));
            match ev.kind {
                ProbeKind::FiringBegin { label } => out.push_str(&format!("B {label}")),
                ProbeKind::FiringEnd { label } => out.push_str(&format!("E {label}")),
                ProbeKind::Send {
                    channel,
                    bytes,
                    digest,
                    occ_bytes,
                    occ_msgs,
                } => out.push_str(&format!(
                    "S {} {bytes} {digest} {occ_bytes} {occ_msgs}",
                    channel.0
                )),
                ProbeKind::Recv {
                    channel,
                    bytes,
                    digest,
                    occ_bytes,
                    occ_msgs,
                } => out.push_str(&format!(
                    "R {} {bytes} {digest} {occ_bytes} {occ_msgs}",
                    channel.0
                )),
                ProbeKind::BlockSend { channel } => out.push_str(&format!("bs {}", channel.0)),
                ProbeKind::BlockRecv { channel } => out.push_str(&format!("br {}", channel.0)),
                ProbeKind::UnblockSend { channel } => out.push_str(&format!("us {}", channel.0)),
                ProbeKind::UnblockRecv { channel } => out.push_str(&format!("ur {}", channel.0)),
                ProbeKind::FaultRetry { channel, attempt } => {
                    out.push_str(&format!("fr {} {attempt}", channel.0));
                }
                ProbeKind::FaultCorrupt { channel } => out.push_str(&format!("fc {}", channel.0)),
                ProbeKind::FaultRestart { iter } => out.push_str(&format!("fx {iter}")),
                ProbeKind::BatchFlush {
                    channel,
                    msgs,
                    bytes,
                    reason,
                } => out.push_str(&format!(
                    "bf {} {msgs} {bytes} {}",
                    channel.0,
                    reason.code()
                )),
                _ => out.push('?'),
            }
            out.push('\n');
        }
        out
    }

    /// Parses the native line format.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] with the offending 1-based line number on any
    /// malformed header, metadata or event line, or on the event that
    /// names a PE past the first [`MAX_NATIVE_PES`].
    pub fn from_native(text: &str) -> Result<Trace, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let mut meta = TraceMeta::new(ClockKind::Cycles);
        let mut events = Vec::new();
        let mut pes = std::collections::HashSet::new();

        let (_, first) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(1, "empty trace"))?;
        if first.trim() != format!("# spi-trace v{NATIVE_VERSION}") {
            return Err(TraceParseError::at(
                1,
                format!("bad header {first:?}; expected \"# spi-trace v{NATIVE_VERSION}\""),
            ));
        }

        for (i, raw) in lines {
            let n = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                parse_meta_line(rest, n, text.len(), &mut meta)?;
            } else if let Some(rest) = line.strip_prefix("E ") {
                let ev = parse_event_line(rest, n)?;
                if pes.insert(ev.pe.0) && pes.len() > MAX_NATIVE_PES {
                    return Err(TraceParseError::at(
                        n,
                        format!("more than {MAX_NATIVE_PES} distinct PE ids"),
                    ));
                }
                events.push(ev);
            } else {
                return Err(TraceParseError::at(
                    n,
                    format!("unrecognized line {line:?}"),
                ));
            }
        }
        Ok(Trace { meta, events })
    }
}

/// `text_len` bounds a label id: a table with more entries than the
/// text has bytes cannot have come from one file, and a resize to fit
/// a forged id must not exhaust memory.
fn parse_meta_line(
    rest: &str,
    n: usize,
    text_len: usize,
    meta: &mut TraceMeta,
) -> Result<(), TraceParseError> {
    let mut it = rest.splitn(2, ' ');
    let key = it.next().unwrap_or("");
    let val = it.next().unwrap_or("").trim();
    match key {
        "clock" => {
            meta.clock = match val {
                "cycles" => ClockKind::Cycles,
                "ns" => ClockKind::Nanos,
                other => {
                    return Err(TraceParseError::at(n, format!("unknown clock {other:?}")));
                }
            }
        }
        "iterations" => meta.iterations = parse_u64(val, n, "iterations")?,
        "dropped" => meta.dropped = parse_u64(val, n, "dropped")?,
        "predicted_makespan" => {
            meta.predicted_makespan_cycles = Some(parse_u64(val, n, "predicted_makespan")?);
        }
        "supervision" => {
            let f: Vec<&str> = val.split_whitespace().collect();
            // "retries <r> restarts <s>"
            if f.len() != 4 || f[0] != "retries" || f[2] != "restarts" {
                return Err(TraceParseError::at(
                    n,
                    format!("malformed supervision line {val:?}"),
                ));
            }
            meta.supervision = Some(SupervisionBounds {
                max_retries: parse_u64(f[1], n, "retries")?,
                max_restarts: parse_u64(f[3], n, "restarts")?,
            });
        }
        "label" => {
            let mut parts = val.splitn(2, ' ');
            let id = parse_u64(parts.next().unwrap_or(""), n, "label id")? as usize;
            if id > text_len {
                return Err(TraceParseError::at(
                    n,
                    format!("label id {id} out of range"),
                ));
            }
            let name = parts.next().unwrap_or("").to_string();
            if meta.labels.len() <= id {
                meta.labels.resize(id + 1, String::new());
            }
            meta.labels[id] = name;
        }
        "edge" => {
            let f: Vec<&str> = val.split_whitespace().collect();
            // "<id> ch <n> cap <B> max <m> tokens <t|inf>"
            if f.len() != 9 || f[1] != "ch" || f[3] != "cap" || f[5] != "max" || f[7] != "tokens" {
                return Err(TraceParseError::at(
                    n,
                    format!("malformed edge line {val:?}"),
                ));
            }
            meta.edges.push(EdgeBound {
                edge: EdgeId(parse_u64(f[0], n, "edge id")? as usize),
                channel: ChannelId(parse_u64(f[2], n, "channel")? as usize),
                capacity_bytes: parse_u64(f[4], n, "cap")?,
                max_message_bytes: parse_u64(f[6], n, "max")?,
                bound_msgs: if f[8] == "inf" {
                    None
                } else {
                    Some(parse_u64(f[8], n, "tokens")?)
                },
            });
        }
        "batch" => {
            let f: Vec<&str> = val.split_whitespace().collect();
            // "ch <n> max <m>"
            if f.len() != 4 || f[0] != "ch" || f[2] != "max" {
                return Err(TraceParseError::at(
                    n,
                    format!("malformed batch line {val:?}"),
                ));
            }
            meta.batch_bounds.push(BatchBound {
                channel: ChannelId(parse_u64(f[1], n, "channel")? as usize),
                max_msgs: parse_u64(f[3], n, "max")?,
            });
        }
        // Unknown keys are forward-compatible comments.
        _ => {}
    }
    Ok(())
}

fn parse_event_line(rest: &str, n: usize) -> Result<ProbeEvent, TraceParseError> {
    let f: Vec<&str> = rest.split_whitespace().collect();
    if f.len() < 3 {
        return Err(TraceParseError::at(n, format!("truncated event {rest:?}")));
    }
    let ts = parse_u64(f[0], n, "timestamp")?;
    let pe = PeId(parse_u64(f[1], n, "pe")? as usize);
    let arg = |i: usize| -> Result<u64, TraceParseError> {
        f.get(i)
            .copied()
            .ok_or_else(|| TraceParseError::at(n, format!("truncated event {rest:?}")))
            .and_then(|s| parse_u64(s, n, "event field"))
    };
    let data = |kind: &str| -> Result<(ChannelId, u32, u64, u32, u32), TraceParseError> {
        if f.len() != 8 {
            return Err(TraceParseError::at(
                n,
                format!("{kind} event needs 5 fields, got {}", f.len() - 3),
            ));
        }
        Ok((
            ChannelId(arg(3)? as usize),
            arg(4)? as u32,
            arg(5)?,
            arg(6)? as u32,
            arg(7)? as u32,
        ))
    };
    let kind = match f[2] {
        "B" => ProbeKind::FiringBegin {
            label: arg(3)? as u32,
        },
        "E" => ProbeKind::FiringEnd {
            label: arg(3)? as u32,
        },
        "S" => {
            let (channel, bytes, digest, occ_bytes, occ_msgs) = data("send")?;
            ProbeKind::Send {
                channel,
                bytes,
                digest,
                occ_bytes,
                occ_msgs,
            }
        }
        "R" => {
            let (channel, bytes, digest, occ_bytes, occ_msgs) = data("recv")?;
            ProbeKind::Recv {
                channel,
                bytes,
                digest,
                occ_bytes,
                occ_msgs,
            }
        }
        "bs" => ProbeKind::BlockSend {
            channel: ChannelId(arg(3)? as usize),
        },
        "br" => ProbeKind::BlockRecv {
            channel: ChannelId(arg(3)? as usize),
        },
        "us" => ProbeKind::UnblockSend {
            channel: ChannelId(arg(3)? as usize),
        },
        "ur" => ProbeKind::UnblockRecv {
            channel: ChannelId(arg(3)? as usize),
        },
        "fr" => ProbeKind::FaultRetry {
            channel: ChannelId(arg(3)? as usize),
            attempt: arg(4)? as u32,
        },
        "fc" => ProbeKind::FaultCorrupt {
            channel: ChannelId(arg(3)? as usize),
        },
        "fx" => ProbeKind::FaultRestart { iter: arg(3)? },
        "bf" => {
            let code = arg(6)? as u32;
            ProbeKind::BatchFlush {
                channel: ChannelId(arg(3)? as usize),
                msgs: arg(4)? as u32,
                bytes: arg(5)? as u32,
                reason: FlushReason::from_code(code).ok_or_else(|| {
                    TraceParseError::at(n, format!("unknown flush reason code {code}"))
                })?,
            }
        }
        other => {
            return Err(TraceParseError::at(
                n,
                format!("unknown event kind {other:?}"),
            ));
        }
    };
    Ok(ProbeEvent { ts, pe, kind })
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, TraceParseError> {
    s.parse()
        .map_err(|_| TraceParseError::at(line, format!("bad {what} {s:?}")))
}

/// A malformed native-format trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl TraceParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TraceParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut meta = TraceMeta::new(ClockKind::Cycles);
        meta.labels = vec!["fire:src#0".into(), "fire:snk#0".into()];
        meta.iterations = 2;
        meta.predicted_makespan_cycles = Some(500);
        meta.edges.push(EdgeBound {
            edge: EdgeId(0),
            channel: ChannelId(1),
            capacity_bytes: 64,
            max_message_bytes: 16,
            bound_msgs: Some(4),
        });
        meta.edges.push(EdgeBound {
            edge: EdgeId(1),
            channel: ChannelId(2),
            capacity_bytes: 32,
            max_message_bytes: 8,
            bound_msgs: None,
        });
        let events = vec![
            ProbeEvent {
                ts: 0,
                pe: PeId(0),
                kind: ProbeKind::FiringBegin { label: 0 },
            },
            ProbeEvent {
                ts: 10,
                pe: PeId(0),
                kind: ProbeKind::FiringEnd { label: 0 },
            },
            ProbeEvent {
                ts: 10,
                pe: PeId(0),
                kind: ProbeKind::Send {
                    channel: ChannelId(1),
                    bytes: 16,
                    digest: 0xdead_beef,
                    occ_bytes: 16,
                    occ_msgs: 1,
                },
            },
            ProbeEvent {
                ts: 12,
                pe: PeId(1),
                kind: ProbeKind::BlockRecv {
                    channel: ChannelId(1),
                },
            },
            ProbeEvent {
                ts: 14,
                pe: PeId(1),
                kind: ProbeKind::UnblockRecv {
                    channel: ChannelId(1),
                },
            },
            ProbeEvent {
                ts: 14,
                pe: PeId(1),
                kind: ProbeKind::Recv {
                    channel: ChannelId(1),
                    bytes: 16,
                    digest: 0xdead_beef,
                    occ_bytes: 0,
                    occ_msgs: 0,
                },
            },
        ];
        Trace { meta, events }
    }

    #[test]
    fn native_roundtrip_preserves_everything() {
        let t = sample_trace();
        let text = t.to_native();
        let back = Trace::from_native(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn supervision_meta_and_fault_events_roundtrip() {
        let mut t = sample_trace();
        t.meta.supervision = Some(SupervisionBounds {
            max_retries: 3,
            max_restarts: 1,
        });
        t.events.extend([
            ProbeEvent {
                ts: 20,
                pe: PeId(0),
                kind: ProbeKind::FaultRetry {
                    channel: ChannelId(1),
                    attempt: 2,
                },
            },
            ProbeEvent {
                ts: 21,
                pe: PeId(1),
                kind: ProbeKind::FaultCorrupt {
                    channel: ChannelId(1),
                },
            },
            ProbeEvent {
                ts: 22,
                pe: PeId(1),
                kind: ProbeKind::FaultRestart { iter: 7 },
            },
        ]);
        let text = t.to_native();
        assert!(text.contains("# supervision retries 3 restarts 1"));
        assert!(text.contains("fr 1 2"));
        assert!(text.contains("fc 1"));
        assert!(text.contains("fx 7"));
        let back = Trace::from_native(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn batch_meta_and_flush_events_roundtrip() {
        let mut t = sample_trace();
        t.meta.batch_bounds.push(BatchBound {
            channel: ChannelId(1),
            max_msgs: 8,
        });
        t.events.extend([
            ProbeEvent {
                ts: 30,
                pe: PeId(0),
                kind: ProbeKind::BatchFlush {
                    channel: ChannelId(1),
                    msgs: 8,
                    bytes: 128,
                    reason: FlushReason::Full,
                },
            },
            ProbeEvent {
                ts: 31,
                pe: PeId(0),
                kind: ProbeKind::BatchFlush {
                    channel: ChannelId(1),
                    msgs: 3,
                    bytes: 48,
                    reason: FlushReason::Deadline,
                },
            },
            ProbeEvent {
                ts: 32,
                pe: PeId(0),
                kind: ProbeKind::BatchFlush {
                    channel: ChannelId(1),
                    msgs: 1,
                    bytes: 16,
                    reason: FlushReason::Final,
                },
            },
        ]);
        let text = t.to_native();
        assert!(text.contains("# batch ch 1 max 8"));
        assert!(text.contains("bf 1 8 128 0"));
        assert!(text.contains("bf 1 3 48 2"));
        assert!(text.contains("bf 1 1 16 4"));
        let back = Trace::from_native(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_batch_meta_and_unknown_flush_codes_are_rejected() {
        let err = Trace::from_native("# spi-trace v1\n# batch ch 1\n").unwrap_err();
        assert!(err.to_string().contains("malformed batch"));
        let err = Trace::from_native("# spi-trace v1\nE 1 0 bf 1 2 32 9\n").unwrap_err();
        assert!(err.to_string().contains("unknown flush reason"));
    }

    #[test]
    fn malformed_supervision_line_is_rejected() {
        // Truncated, and the six-field line that also declared a
        // degraded-token budget.
        for line in ["retries 3", "retries 3 degraded 0 restarts 1"] {
            let text = format!("# spi-trace v1\n# supervision {line}\n");
            let err = Trace::from_native(&text).unwrap_err();
            assert!(err.to_string().contains("malformed supervision"), "{line}");
        }
        // Nor is `fd` an event kind.
        let err = Trace::from_native("# spi-trace v1\nE 1 0 fd 1 1\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn header_is_mandatory() {
        let err = Trace::from_native("E 0 0 B 0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("bad header"));
    }

    #[test]
    fn unknown_meta_keys_are_skipped() {
        let text = "# spi-trace v1\n# clock ns\n# flavor vanilla\nE 5 0 bs 3\n";
        let t = Trace::from_native(text).unwrap();
        assert_eq!(t.meta.clock, ClockKind::Nanos);
        assert_eq!(t.events.len(), 1);
        assert_eq!(
            t.events[0].kind,
            ProbeKind::BlockSend {
                channel: ChannelId(3)
            }
        );
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let err = Trace::from_native("# spi-trace v1\nE 1 0 S 2 16\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Trace::from_native("# spi-trace v1\nwat\n").unwrap_err();
        assert!(err.to_string().contains("unrecognized"));
        let err = Trace::from_native("# spi-trace v1\n# edge 0 ch 1 cap 64\n").unwrap_err();
        assert!(err.to_string().contains("malformed edge"));
    }

    #[test]
    fn observed_end_and_span() {
        let t = sample_trace();
        assert_eq!(t.observed_end(), 14);
        assert_eq!(t.span(), 14);
        let empty = Trace {
            meta: TraceMeta::new(ClockKind::Cycles),
            events: vec![],
        };
        assert_eq!(empty.observed_end(), 0);
        assert_eq!(empty.span(), 0);
    }

    #[test]
    fn labels_resolve_with_placeholder_fallback() {
        let t = sample_trace();
        assert_eq!(t.meta.label(1), "fire:snk#0");
        assert_eq!(t.meta.label(99), "?");
    }
}
