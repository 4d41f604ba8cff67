//! Chaos end to end: the filter bank under a seeded fault plan, a
//! supervised threaded run, and a trace the conformance checker can
//! hold against the declared supervision budgets.
//!
//! One benign fault per inter-processor data edge — a dropped frame, a
//! corrupted frame, a duplicated frame, a delayed frame — is injected
//! through the `FaultyTransport` decorator while the run is supervised.
//! Supervision recovers a token exactly or stops the run, so
//! convergence means the recovery was **byte-exact**. Every fault, retry and CRC
//! rejection is emitted through the tracer, and the metadata carries
//! the policy budgets, so `spi-lint trace-check` verifies the recovery
//! stayed inside them (diagnostics SPI090, SPI092–SPI094) on top of the usual
//! eq. (1)/(2), FIFO and conservation replay.
//!
//! Produces `target/faulted_filterbank.trace`; the CI
//! chaos job re-checks it with
//! `spi-lint trace-check target/faulted_filterbank.trace`.
//!
//! Run with: `cargo run --example chaos_filterbank`

use std::sync::Arc;
use std::time::Duration;

use spi_repro::apps::{FilterBankApp, FilterBankConfig};
use spi_repro::fault::{FaultKind, FaultPlan};
use spi_repro::platform::{ChannelId, SupervisionPolicy, ThreadedRunner};
use spi_repro::trace::{check, ClockKind, RingTracer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const ITERATIONS: u64 = 12;

    // Two identical builds: a fault-free reference and the victim.
    let reference_app = FilterBankApp::new(FilterBankConfig::default())?;
    let reference_out = reference_app.output.clone();
    reference_app.system(ITERATIONS)?.run()?;
    let want = reference_out.lock().unwrap().clone();

    let app = FilterBankApp::new(FilterBankConfig::default())?;
    let output = app.output.clone();
    let ring = Arc::new(RingTracer::with_default_capacity(3));
    let system = app.system_with(ITERATIONS, |b| {
        b.tracer(ring.clone());
    })?;

    // Supervision: per-op deadline derived from the predicted makespan
    // when the configuration is analyzable, a generous default when
    // not. Floored at 25 ms: CI runners get descheduled for longer
    // than this 100 MHz system's analytic iteration cost, and a missed
    // deadline burns a retry.
    let deadline = system
        .supervision_deadline(50.0)
        .unwrap_or(Duration::from_secs(2))
        .max(Duration::from_millis(25));
    let policy = SupervisionPolicy::retry(3).with_deadline(deadline);
    println!(
        "supervision: deadline {deadline:?} (analytic ×50 safety), {} retries, then stop",
        policy.max_retries
    );

    // One benign fault per data edge, deterministic.
    let mut channels: Vec<ChannelId> = system.edge_plans().values().map(|p| p.data_ch).collect();
    channels.sort();
    let kinds = [
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::Duplicate,
        FaultKind::Delay { micros: 300 },
    ];
    let mut plan = FaultPlan::new();
    for (i, &ch) in channels.iter().enumerate() {
        let kind = kinds[i % kinds.len()];
        println!("  inject {kind} on {ch} at message {i}");
        plan = plan.inject(ch, i as u64, kind);
    }
    let (decorator, log) = plan.into_decorator()?;

    let meta = system.trace_meta_supervised(ClockKind::Nanos, &policy);
    system.run_threaded_with(
        &ThreadedRunner::new()
            .supervise(policy)
            .decorate_transports(decorator),
    )?;

    // The injections actually fired, and the output is still exact.
    let fired = log.lock().unwrap();
    println!("\n{} injection(s) fired:", fired.len());
    for rec in fired.iter() {
        println!(
            "  {} message {}: {}",
            rec.channel, rec.message_index, rec.kind
        );
    }
    let got = output.lock().unwrap().clone();
    if got != want {
        return Err("band outputs deviate from the fault-free reference".into());
    }
    println!("band outputs byte-identical to the fault-free reference");

    // Replay the capture against bounds AND supervision budgets.
    let trace = ring.finish(meta);
    println!(
        "\ncaptured {} events ({} dropped)",
        trace.events.len(),
        trace.meta.dropped
    );
    let report = check(&trace);
    print!("{}", report.render_human());

    std::fs::create_dir_all("target")?;
    std::fs::write("target/faulted_filterbank.trace", trace.to_native())?;
    println!("\nwrote target/faulted_filterbank.trace");
    println!("  check again with: spi-lint trace-check target/faulted_filterbank.trace");

    if report.has_errors() {
        return Err("faulted trace violates supervision budgets or static bounds".into());
    }
    Ok(())
}
