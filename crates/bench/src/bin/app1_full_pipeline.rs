//! Extension study: the FULL application-1 pipeline (A→B→C→D×n→E) rather
//! than the paper's hardware-only D stage. The serial front-end (FFT, LU,
//! Huffman) bounds the achievable speedup — Amdahl in action, with the
//! analytic Brent bound printed alongside the measurement.

use spi_apps::{ErrorStageConfig, SpeechApp};
use spi_sched::speedup_bounds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Full application-1 pipeline scaling (extension study)\n");
    println!(
        "{:>4} {:>14} {:>10} {:>16}",
        "n", "µs/frame", "speedup", "Brent bound"
    );
    let mut base = None;
    for n in [1usize, 2, 3, 4, 6] {
        let cfg = ErrorStageConfig {
            n_pes: n,
            frame: 512,
            order: 10,
            vary_rates: false,
            seed: 7,
        };
        let app = SpeechApp::new(cfg)?;
        // Analytic bound from the (VTS-converted) graph.
        let converted = spi_repro_convert(&app.graph)?;
        let bound = speedup_bounds(&converted)?;
        let sys = app.system(8)?;
        let t = sys.run()?.period_us();
        let b = *base.get_or_insert(t);
        println!(
            "{n:>4} {t:>14.1} {:>9.2}x {:>15.2}x",
            b / t,
            bound.max_speedup()
        );
    }
    println!("\nThe front-end (read, FFT, LU, Huffman) serializes on P0, so the");
    println!("measured speedup saturates well below n — matching the Brent bound.");
    Ok(())
}

fn spi_repro_convert(
    g: &spi_dataflow::SdfGraph,
) -> Result<spi_dataflow::SdfGraph, spi_dataflow::DataflowError> {
    Ok(spi_dataflow::VtsConversion::convert(g)?.graph().clone())
}
