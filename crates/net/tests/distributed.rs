//! End-to-end: the filter bank partitioned across two OS processes must
//! produce byte-identical output to the single-process path — clean and
//! under socket-level fault injection — and the merged distributed
//! trace must pass the same replay (bounds, FIFO and happens-before
//! order) as a local capture.

use std::path::PathBuf;
use std::process::Command;

use spi_trace::Trace;

fn run_launch(extra: &[&str], trace_name: &str) -> Trace {
    let trace_out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(trace_name);
    let out = Command::new(env!("CARGO_BIN_EXE_spi-noded"))
        .args(["launch", "--nodes", "2", "--iters", "8", "--trace-out"])
        .arg(&trace_out)
        .args(extra)
        .output()
        .expect("spawn spi-noded");
    assert!(
        out.status.success(),
        "launch failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The launcher itself compares against a fresh single-process run.
    assert!(
        stdout.contains("byte-identical to single-process: true"),
        "missing byte-identity line in:\n{stdout}"
    );
    let text = std::fs::read_to_string(&trace_out).expect("merged trace written");
    Trace::from_native(&text).expect("merged trace parses")
}

#[test]
fn two_process_run_is_byte_identical_and_trace_conformant() {
    let trace = run_launch(&[], "e2e_clean.trace");
    let report = spi_trace::check(&trace);
    assert!(
        !report.has_errors(),
        "trace-check on merged trace:\n{}",
        report.render_human()
    );
    assert!(
        report.hb_edges > 0,
        "the replay must see the cross-PE order"
    );
    assert!(
        trace.events.iter().any(|e| e.pe.0 == 2),
        "remote node's processor must appear in the merged trace"
    );
}

#[test]
fn two_process_chaos_run_recovers_to_identical_output() {
    // --chaos injects one drop, one corruption, and one duplication on
    // cross-partition sockets; supervision must recover all three and
    // the launcher still demands byte-identical output. The corrupt
    // copy crosses the socket, and the receiving PE's CRC check
    // rejects it.
    let trace = run_launch(&["--chaos"], "e2e_chaos.trace");
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e.kind, spi_trace::ProbeKind::FaultCorrupt { .. })),
        "no CRC rejection in the faulted merged trace"
    );
    let report = spi_trace::check(&trace);
    assert!(
        !report.has_errors(),
        "trace-check on faulted merged trace:\n{}",
        report.render_human()
    );
}

#[test]
fn batched_two_process_run_passes_both_checkers() {
    // --force-ubs widens the cross-partition windows to the credit
    // window, past the batching threshold, so the schedule lowers real
    // batch plans: the merged
    // trace must carry the declared budgets, observed flush events, and
    // still satisfy trace-check (incl. the SPI086 budget diagnostic and
    // the SPI100–SPI105 order checks).
    let trace = run_launch(&["--force-ubs"], "e2e_batched.trace");
    assert!(
        !trace.meta.batch_bounds.is_empty(),
        "merged meta must declare the lowered batching budgets"
    );
    let flushes: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            spi_trace::ProbeKind::BatchFlush { channel, msgs, .. } => Some((channel, msgs)),
            _ => None,
        })
        .collect();
    assert!(
        !flushes.is_empty(),
        "batched senders must record BatchFlush probes in the merged trace"
    );
    for b in &trace.meta.batch_bounds {
        for (ch, msgs) in &flushes {
            if *ch == b.channel {
                assert!(
                    u64::from(*msgs) <= b.max_msgs,
                    "flush of {msgs} records on channel {} exceeds budget {}",
                    ch.0,
                    b.max_msgs
                );
            }
        }
    }
    let report = spi_trace::check(&trace);
    assert!(
        !report.has_errors(),
        "trace-check on batched merged trace:\n{}",
        report.render_human()
    );
}

#[test]
fn supervised_two_process_run_stays_identical() {
    let trace = run_launch(&["--supervised"], "e2e_supervised.trace");
    let report = spi_trace::check(&trace);
    assert!(
        !report.has_errors(),
        "trace-check on supervised merged trace:\n{}",
        report.render_human()
    );
}
