//! Extension study: the application-1 codec's rate–distortion behaviour.
//! Sweeps the residual quantizer depth and reports bits/sample vs
//! reconstruction SNR using the full SPI pipeline + the decoder.

use spi_apps::speech::synth_frame;
use spi_apps::{ErrorStageConfig, SpeechApp};
use spi_dsp::huffman::HuffmanCode;
use spi_dsp::lpc::{prediction_error, synthesize, Quantizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Application-1 codec rate–distortion (extension study)\n");

    // Run the pipeline once to obtain residuals + coefficients per frame.
    let cfg = ErrorStageConfig {
        n_pes: 2,
        frame: 256,
        order: 8,
        vary_rates: false,
        seed: 12,
    };
    let app = SpeechApp::new(cfg)?;
    let sys = app.system(6)?;
    sys.run()?;
    let frames = app.output.lock().expect("output").clone();

    println!(
        "{:>6} {:>14} {:>12} {:>10}",
        "bits", "bits/sample", "ratio", "SNR (dB)"
    );
    for bits in [3u32, 4, 5, 6, 8, 10] {
        let (mut total_bits, mut total_samples) = (0usize, 0usize);
        let (mut sig, mut err) = (0.0f64, 0.0f64);
        for f in &frames {
            let original = synth_frame(cfg.seed, f.iter, cfg.frame);
            // Re-quantize the residual at the swept depth.
            let residual = prediction_error(&original, &f.coeffs);
            let q = Quantizer::new(4.0, bits);
            let symbols: Vec<u16> = residual.iter().map(|&e| q.quantize(e)).collect();
            let code = HuffmanCode::from_symbols(&symbols)?;
            let (_, bitlen) = code.encode(&symbols)?;
            let dequant: Vec<f64> = symbols.iter().map(|&s| q.dequantize(s)).collect();
            let decoded = synthesize(&dequant, &f.coeffs);
            total_bits += bitlen;
            total_samples += original.len();
            sig += original.iter().map(|v| v * v).sum::<f64>();
            err += decoded
                .iter()
                .zip(&original)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        let bps = total_bits as f64 / total_samples as f64;
        let snr = 10.0 * (sig / err.max(1e-15)).log10();
        println!("{bits:>6} {bps:>14.2} {:>11.1}x {snr:>10.1}", 64.0 / bps);
    }
    println!("\n(ratio = vs raw 64-bit samples; SNR of the closed decode loop)");
    Ok(())
}
