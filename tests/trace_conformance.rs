//! Runtime conformance of a real application: a traced filterbank run
//! must stay inside every bound the static layers derived — eq. (2)
//! occupancy, eq. (1) message size, per-channel FIFO order and the
//! predicted self-timed makespan — and each `SPI08x` check must
//! actually fire when the trace is corrupted the way it guards against.

use std::sync::Arc;

use spi_repro::apps::{FilterBankApp, FilterBankConfig};
use spi_repro::platform::rng::{for_each_case, SplitMix64};
use spi_repro::trace::{check, ClockKind, RingTracer, Trace, MAX_NATIVE_PES};

/// Runs the 3-PE filterbank on the DES with a RingTracer attached and
/// returns the finished cycle-clocked trace.
fn traced_filterbank(iterations: u64) -> Trace {
    let app = FilterBankApp::new(FilterBankConfig::default()).expect("filterbank builds");
    let ring = Arc::new(RingTracer::with_default_capacity(3));
    let system = app
        .system_with(iterations, |b| {
            b.tracer(ring.clone());
        })
        .expect("system builds");
    let meta = system.trace_meta(ClockKind::Cycles);
    system.run().expect("filterbank runs");
    assert_eq!(ring.dropped(), 0, "capture ring must not overflow");
    ring.finish(meta)
}

#[test]
fn filterbank_trace_conforms_to_static_bounds() {
    let trace = traced_filterbank(8);
    assert!(!trace.events.is_empty());
    assert_eq!(trace.meta.iterations, 8);
    // The filterbank has four cross-processor data edges.
    assert_eq!(trace.meta.edges.len(), 4);
    assert!(
        trace.meta.predicted_makespan_cycles.is_some(),
        "baseline self-timed config must carry a predicted bound"
    );

    let report = check(&trace);
    assert!(
        report.diagnostics.is_empty(),
        "clean run must produce no findings:\n{}",
        report.render_human()
    );
    assert!(report.channels_checked >= 4);
    assert!(
        report.messages_checked >= 8 * 4,
        "q=1 per edge per iteration"
    );
    let slack = report.slack.expect("cycle trace with bound has slack");
    assert!(
        report.observed_makespan + slack == report.predicted_makespan.unwrap(),
        "slack is the headroom under the predicted bound"
    );
    assert!(report.render_human().contains(": ok"));
}

#[test]
fn conformance_survives_native_roundtrip() {
    let trace = traced_filterbank(4);
    let text = trace.to_native();
    let back = Trace::from_native(&text).expect("roundtrip parses");
    assert_eq!(back, trace);
    let report = check(&back);
    assert!(report.diagnostics.is_empty(), "{}", report.render_human());
}

/// Applies a line-level mutation to the native text and returns the
/// checker's diagnostic codes on the corrupted trace.
fn codes_after(mutate: impl Fn(&str) -> String) -> Vec<&'static str> {
    let text = traced_filterbank(4).to_native();
    let mutated = mutate(&text);
    assert_ne!(mutated, text, "mutation must change the trace");
    let trace = Trace::from_native(&mutated).expect("mutated trace still parses");
    check(&trace).diagnostics.iter().map(|d| d.code).collect()
}

/// Rewrites one whitespace-separated field of the first line matching
/// `select`.
fn rewrite_field(text: &str, select: impl Fn(&str) -> bool, idx: usize, to: &str) -> String {
    let mut done = false;
    text.lines()
        .map(|l| {
            if !done && select(l) {
                done = true;
                let mut f: Vec<String> = l.split_whitespace().map(String::from).collect();
                f[idx] = to.to_string();
                f.join(" ")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn mutation_shrunk_capacity_fires_spi080() {
    // "# edge <id> ch <n> cap <B> max <m> tokens <t>": cap -> 1 byte.
    let codes = codes_after(|t| rewrite_field(t, |l| l.starts_with("# edge "), 6, "1"));
    assert!(codes.contains(&"SPI080"), "got {codes:?}");
}

#[test]
fn mutation_shrunk_message_bound_fires_spi081() {
    let codes = codes_after(|t| rewrite_field(t, |l| l.starts_with("# edge "), 8, "1"));
    assert!(codes.contains(&"SPI081"), "got {codes:?}");
}

#[test]
fn mutation_corrupted_receive_digest_fires_spi082() {
    // "E <ts> <pe> R <ch> <bytes> <digest> ...": digest -> wrong value.
    let codes =
        codes_after(|t| rewrite_field(t, |l| l.split_whitespace().nth(3) == Some("R"), 6, "12345"));
    assert!(codes.contains(&"SPI082"), "got {codes:?}");
}

#[test]
fn mutation_tiny_predicted_makespan_fires_spi083() {
    let codes =
        codes_after(|t| rewrite_field(t, |l| l.starts_with("# predicted_makespan"), 2, "1"));
    assert!(codes.contains(&"SPI083"), "got {codes:?}");
}

#[test]
fn mutation_dropped_events_fire_spi084() {
    let codes = codes_after(|t| rewrite_field(t, |l| l.starts_with("# dropped"), 2, "3"));
    assert_eq!(codes, vec!["SPI084"], "a partial stream alone only warns");
}

#[test]
fn mutation_duplicated_receive_fires_spi085() {
    // Duplicating the last receive makes receives outnumber sends on
    // its channel.
    let codes = codes_after(|t| {
        let last_recv = t
            .lines()
            .rev()
            .find(|l| l.split_whitespace().nth(3) == Some("R"))
            .expect("trace has receives")
            .to_string();
        format!("{}{}\n", t, last_recv)
    });
    assert!(codes.contains(&"SPI085"), "got {codes:?}");
}

#[test]
fn threaded_run_trace_is_fifo_clean() {
    // The threaded runner exercises the real lock-free transports; its
    // wall-clock trace must still pass FIFO, conservation and occupancy
    // replay (the cycle-denominated makespan bound does not apply).
    let app = FilterBankApp::new(FilterBankConfig::default()).expect("filterbank builds");
    let ring = Arc::new(RingTracer::with_default_capacity(3));
    let system = app
        .system_with(4, |b| {
            b.tracer(ring.clone());
        })
        .expect("system builds");
    let meta = system.trace_meta(ClockKind::Nanos);
    system.run_threaded().expect("threaded run succeeds");
    let trace = ring.finish(meta);
    assert!(!trace.events.is_empty());
    let report = check(&trace);
    assert!(
        report.diagnostics.is_empty(),
        "threaded run must conform:\n{}",
        report.render_human()
    );
    assert_eq!(
        report.predicted_makespan, None,
        "ns clock has no cycle bound"
    );
}

/// The `spi-lint trace-check` input path — bytes from outside the
/// program through `Trace::from_native`, `Trace::linearize` and
/// `check` — never panics. Each case is a mutated filterbank trace or
/// a random well-formed event stream; it must parse to a trace that
/// linearizes and checks, or fail with a `TraceParseError`.
#[test]
fn native_trace_input_never_panics() {
    let base = traced_filterbank(2).to_native();
    for_each_case(2_000, |rng| {
        if let Ok(mut trace) = Trace::from_native(&fuzz_input(rng, &base)) {
            trace.linearize();
            check(&trace);
        }
    });
    // A forged file naming more PEs than the format allows is refused
    // at the event that names one too many, before `check` could size
    // one vector clock per PE; at the cap it still parses and checks.
    let at_cap = Trace::from_native(&forged_pes(MAX_NATIVE_PES)).expect("at the cap");
    check(&at_cap);
    let err = Trace::from_native(&forged_pes(MAX_NATIVE_PES + 1)).expect_err("past the cap");
    assert_eq!(err.line, 2 + MAX_NATIVE_PES + 1, "{err}");
    assert!(err.message.contains("distinct PE ids"), "{err}");
}

/// A well-formed native file of one send on each of `pes` distinct,
/// sparse PE ids.
fn forged_pes(pes: usize) -> String {
    let mut text = String::from("# spi-trace v1\n# clock ns\n");
    for i in 0..pes {
        text += &format!("E {i} {} S 0 8 0 8 1\n", i * 1_000_003);
    }
    text
}

/// One fuzz input: byte mutations, line mutations, or a random stream
/// with unmatched receives, shared endpoints and a dropped count.
fn fuzz_input(rng: &mut SplitMix64, base: &str) -> String {
    let lines: Vec<&str> = base.lines().collect();
    let pick = |rng: &mut SplitMix64, from: &[u8]| from[rng.gen_range(0..from.len())];
    match rng.gen_range(0..3u32) {
        0 => {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=8u32) {
                let i = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..4u32) {
                    0 => bytes[i] = rng.gen_range(0..=255u8),
                    1 => drop(bytes.remove(i)),
                    2 => bytes.insert(i, pick(rng, b"0123456789 -#ERSbf\n")),
                    _ => drop(bytes.splice(i..i, *b"99999999999")),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            let mut out: Vec<&str> = lines.clone();
            for _ in 0..rng.gen_range(1..=6u32) {
                let (i, j) = (rng.gen_range(1..out.len()), rng.gen_range(1..out.len()));
                match rng.gen_range(0..3u32) {
                    0 => out.swap(i, j),
                    1 => drop(out.remove(i)),
                    _ => out.insert(i, lines[j]),
                }
            }
            out.join("\n")
        }
        _ => {
            let mut text = String::from("# spi-trace v1\n# clock ns\n");
            text += &format!("# dropped {}\n", rng.gen_range(0..3u32));
            for ch in 0..3 {
                let tokens = rng.gen_range(0..4u32);
                text += &format!("# edge {ch} ch {ch} cap 64 max 16 tokens {tokens}\n");
            }
            for _ in 0..rng.gen_range(0..60u32) {
                let (ts, pe, ch) = (
                    rng.gen_range(0..100u32),
                    rng.gen_range(0..4u32),
                    rng.gen_range(0..3u32),
                );
                let kind = pick(rng, b"SSRRbu");
                text += &match kind {
                    b'S' | b'R' => format!(
                        "E {ts} {pe} {} {ch} 8 {} 8 1\n",
                        kind as char,
                        rng.gen_range(0..3u32)
                    ),
                    b'b' => format!("E {ts} {pe} bs {ch}\n"),
                    _ => format!("E {ts} {pe} ur {ch}\n"),
                };
            }
            text
        }
    }
}
