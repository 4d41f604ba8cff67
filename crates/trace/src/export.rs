//! Trace exporters: Chrome `trace_event` JSON and a plain-text Gantt.
//!
//! The Chrome format is the JSON array flavor of the trace-event spec
//! (load with `chrome://tracing` or <https://ui.perfetto.dev>): one
//! `"X"` complete event per firing, an `"i"` instant per send/receive
//! with payload details in `args`, and a `"C"` counter track per
//! channel showing occupancy in bytes over time. Timestamps in the
//! format are microseconds; we map one clock unit (cycle or ns) to one
//! microsecond so the viewer's zoom numbers read directly as the
//! trace's native unit.
//!
//! JSON is emitted by hand — the workspace depends on no external
//! crates; the same approach as the bench writers.

use std::fmt::Write as _;

use spi_platform::ProbeKind;

use crate::model::Trace;

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes `trace` to Chrome `trace_event` JSON (array format).
///
/// Firing begin/end pairs become `"X"` duration slices on the PE's
/// track; unpaired begins (possible after ring overflow) are dropped.
/// All events sit in one process (`pid` 0) with one thread per PE, so
/// the viewer lays the PEs out as parallel swimlanes.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&s);
    };

    // Name the PE tracks.
    let max_pe = trace.events.iter().map(|e| e.pe.0).max();
    if let Some(max_pe) = max_pe {
        for pe in 0..=max_pe {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\
                     \"args\":{{\"name\":{}}}}}",
                    json_str(&format!("pe{pe}"))
                ),
                &mut out,
            );
        }
    }

    // Open firing begins per (pe, label), matched LIFO like the metrics
    // aggregation.
    let mut open: std::collections::HashMap<(usize, u32), Vec<u64>> =
        std::collections::HashMap::new();
    for ev in &trace.events {
        match ev.kind {
            ProbeKind::FiringBegin { label } => {
                open.entry((ev.pe.0, label)).or_default().push(ev.ts);
            }
            ProbeKind::FiringEnd { label } => {
                if let Some(begin) = open.entry((ev.pe.0, label)).or_default().pop() {
                    push(
                        format!(
                            "{{\"name\":{},\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                             \"ts\":{},\"dur\":{}}}",
                            json_str(trace.meta.label(label)),
                            ev.pe.0,
                            begin,
                            ev.ts.saturating_sub(begin)
                        ),
                        &mut out,
                    );
                }
            }
            ProbeKind::Send {
                channel,
                bytes,
                digest,
                occ_bytes,
                ..
            } => {
                push(
                    format!(
                        "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\
                         \"ts\":{},\"args\":{{\"bytes\":{bytes},\"digest\":{}}}}}",
                        json_str(&format!("send {channel}")),
                        ev.pe.0,
                        ev.ts,
                        json_str(&format!("{digest:#018x}"))
                    ),
                    &mut out,
                );
                push(
                    format!(
                        "{{\"name\":{},\"ph\":\"C\",\"pid\":0,\"ts\":{},\
                         \"args\":{{\"bytes\":{occ_bytes}}}}}",
                        json_str(&format!("occupancy {channel}")),
                        ev.ts
                    ),
                    &mut out,
                );
            }
            ProbeKind::Recv {
                channel,
                bytes,
                occ_bytes,
                ..
            } => {
                push(
                    format!(
                        "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\
                         \"ts\":{},\"args\":{{\"bytes\":{bytes}}}}}",
                        json_str(&format!("recv {channel}")),
                        ev.pe.0,
                        ev.ts
                    ),
                    &mut out,
                );
                push(
                    format!(
                        "{{\"name\":{},\"ph\":\"C\",\"pid\":0,\"ts\":{},\
                         \"args\":{{\"bytes\":{occ_bytes}}}}}",
                        json_str(&format!("occupancy {channel}")),
                        ev.ts
                    ),
                    &mut out,
                );
            }
            _ => {}
        }
    }
    out.push_str("\n]\n");
    out
}

/// Renders a plain-text Gantt chart: one row per PE, `#` where the PE
/// is inside a firing, `.` where it is idle, over a timeline scaled to
/// `width` columns. Returns an empty string for an empty trace.
pub fn render_gantt(trace: &Trace, width: usize) -> String {
    if trace.events.is_empty() || width == 0 {
        return String::new();
    }
    let t0 = trace.events.iter().map(|e| e.ts).min().unwrap_or(0);
    let span = trace.observed_end().saturating_sub(t0).max(1);
    let max_pe = trace.events.iter().map(|e| e.pe.0).max().unwrap_or(0);
    let col = |ts: u64| -> usize {
        let c = ((ts - t0) as u128 * width as u128 / span as u128) as usize;
        c.min(width - 1)
    };

    let mut rows = vec![vec![b'.'; width]; max_pe + 1];
    let mut open: std::collections::HashMap<(usize, u32), Vec<u64>> =
        std::collections::HashMap::new();
    for ev in &trace.events {
        match ev.kind {
            ProbeKind::FiringBegin { label } => {
                open.entry((ev.pe.0, label)).or_default().push(ev.ts);
            }
            ProbeKind::FiringEnd { label } => {
                if let Some(begin) = open.entry((ev.pe.0, label)).or_default().pop() {
                    rows[ev.pe.0][col(begin)..=col(ev.ts)].fill(b'#');
                }
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let unit = match trace.meta.clock {
        crate::model::ClockKind::Cycles => "cycles",
        crate::model::ClockKind::Nanos => "ns",
    };
    out.push_str(&format!("t = {t0}..{} {unit}\n", trace.observed_end()));
    for (pe, row) in rows.iter().enumerate() {
        out.push_str(&format!("pe{pe} |{}|\n", String::from_utf8_lossy(row)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClockKind, TraceMeta};
    use spi_platform::{ChannelId, PeId, ProbeEvent};

    fn sample() -> Trace {
        let mut meta = TraceMeta::new(ClockKind::Cycles);
        meta.labels = vec!["fire:src#0".into()];
        Trace {
            meta,
            events: vec![
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
                        digest: 0xab,
                        occ_bytes: 16,
                        occ_msgs: 1,
                    },
                },
                ProbeEvent {
                    ts: 20,
                    pe: PeId(1),
                    kind: ProbeKind::Recv {
                        channel: ChannelId(1),
                        bytes: 16,
                        digest: 0xab,
                        occ_bytes: 0,
                        occ_msgs: 0,
                    },
                },
            ],
        }
    }

    #[test]
    fn chrome_json_has_slices_instants_and_counters() {
        let j = to_chrome_json(&sample());
        assert!(j.starts_with("[\n"));
        assert!(j.trim_end().ends_with(']'));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"name\":\"fire:src#0\""));
        assert!(j.contains("\"dur\":10"));
        assert!(j.contains("\"name\":\"send ch1\""));
        assert!(j.contains("\"name\":\"recv ch1\""));
        assert!(j.contains("\"name\":\"occupancy ch1\""));
        assert!(j.contains("\"ph\":\"C\""));
        assert!(j.contains("\"name\":\"pe1\""));
        // Well-formed array: every object line ends with } or },
        for line in j.lines().skip(1) {
            let t = line.trim_end();
            assert!(
                t == "]" || t.ends_with('}') || t.ends_with("},"),
                "bad line: {line:?}"
            );
        }
    }

    #[test]
    fn chrome_json_empty_trace_is_empty_array() {
        let t = Trace {
            meta: TraceMeta::new(ClockKind::Nanos),
            events: vec![],
        };
        assert_eq!(to_chrome_json(&t), "[\n\n]\n");
    }

    #[test]
    fn gantt_marks_busy_columns() {
        let g = render_gantt(&sample(), 20);
        assert!(g.contains("t = 0..20 cycles"));
        let pe0 = g.lines().find(|l| l.starts_with("pe0")).unwrap();
        let pe1 = g.lines().find(|l| l.starts_with("pe1")).unwrap();
        // pe0 fires over the first half of the window.
        assert!(pe0.contains('#'));
        // pe1 never fires (only a recv instant).
        assert!(!pe1.contains('#'));
    }

    #[test]
    fn gantt_empty_trace_is_empty() {
        let t = Trace {
            meta: TraceMeta::new(ClockKind::Cycles),
            events: vec![],
        };
        assert_eq!(render_gantt(&t, 40), "");
        assert_eq!(render_gantt(&sample(), 0), "");
    }
}
