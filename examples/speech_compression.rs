//! Application 1 end to end: LPC speech compression with the
//! prediction-error stage parallelized over SPI_dynamic edges.
//!
//! Run with: `cargo run --example speech_compression`

use spi_apps::{ErrorStageConfig, SpeechApp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ErrorStageConfig {
        n_pes: 3,
        frame: 256,
        order: 8,
        vary_rates: true, // frame length & order vary per frame
        seed: 2026,
    };
    println!(
        "LPC acoustic data compression (paper §5.2), D parallelized {}×",
        config.n_pes
    );

    let app = SpeechApp::new(config)?;
    println!("\n{}", app.graph);

    let frames = 12;
    let system = app.system(frames)?;
    if let Some(resync) = system.resync_report() {
        println!(
            "resynchronization: {} → {} sync edges",
            resync.sync_cost_before, resync.sync_cost_after
        );
    }
    let report = system.run()?;

    println!(
        "\ncompressed {frames} frames in {:.1} µs ({:.1} µs/frame)",
        report.makespan_us(),
        report.period_us()
    );
    let output = app.output.lock().expect("output");
    for f in output.iter().take(5) {
        let ratio = (f.frame_len * 64) as f64 / f.bitlen.max(1) as f64;
        let snr = f
            .decompress()
            .map(|decoded| {
                let original = spi_apps::speech::synth_frame(config.seed, f.iter, f.frame_len);
                let err: f64 = decoded
                    .iter()
                    .zip(&original)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                let sig: f64 = original.iter().map(|v| v * v).sum();
                10.0 * (sig / err.max(1e-12)).log10()
            })
            .unwrap_or(f64::NAN);
        println!(
            "  frame {:>2}: {:>3} samples, order {}, {:>5} bits ({ratio:.1}× vs raw f64, {snr:.0} dB)",
            f.iter, f.frame_len, f.order, f.bitlen
        );
    }
    println!("  …");
    Ok(())
}
