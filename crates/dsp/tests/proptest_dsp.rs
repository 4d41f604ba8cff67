//! Property tests of the DSP kernels, each a seeded loop over 64 cases
//! (`SPI_CHAOS_SEED=<case>` replays one).

use spi_dsp::fft::{fft, fft_real, ifft, Complex};
use spi_dsp::huffman::HuffmanCode;
use spi_dsp::lpc::{autocorrelation, prediction_error, prediction_errors_into, Quantizer};
use spi_dsp::particle::{systematic_draw, CrackModel};
use spi_platform::rng::{for_each_case, SplitMix64};

/// 1e-9 of the signal's 2-norm: the bound every transform identity
/// below is held to.
fn tolerance(signal: &[f64]) -> f64 {
    1e-9 * signal.iter().map(|x| x * x).sum::<f64>().sqrt().max(1.0)
}

/// `len` samples drawn from `[-amp, amp)`.
fn samples(rng: &mut SplitMix64, len: usize, amp: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-amp..amp)).collect()
}

// The transform properties draw 4096 samples and keep a power-of-two
// prefix, so every size the applications use (512 and 1024 points) is
// covered along with the 1- and 2-point edges.
#[test]
fn fft_ifft_is_identity() {
    for_each_case(64, |rng| {
        let signal = samples(rng, 4096, 100.0);
        let signal = &signal[..1 << rng.gen_range(0..13u32)];
        let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft(&mut data).expect("power of two");
        ifft(&mut data).expect("power of two");
        let tol = tolerance(signal);
        for (z, &x) in data.iter().zip(signal) {
            assert!((z.re - x).abs() <= tol);
            assert!(z.im.abs() <= tol);
        }
    });
}

#[test]
fn parseval_energy_conservation() {
    for_each_case(64, |rng| {
        let signal = samples(rng, 4096, 10.0);
        let signal = &signal[..1 << rng.gen_range(0..13u32)];
        let spec = fft_real(signal).expect("power of two");
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 =
            spec.iter().map(|z| z.re * z.re + z.im * z.im).sum::<f64>() / signal.len() as f64;
        assert!((time_energy - freq_energy).abs() <= 1e-9 * time_energy.max(1.0));
    });
}

#[test]
fn fft_autocorrelation_matches_direct() {
    for_each_case(64, |rng| {
        let len = rng.gen_range(1..601);
        let signal = samples(rng, len, 10.0);
        let order = rng.gen_range(0..17usize);
        let got = spi_dsp::fft::autocorrelation(&signal, order);
        let lags = order.min(signal.len() - 1);
        let want = autocorrelation(&signal, lags);
        assert_eq!(got.len(), lags + 1);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() <= 1e-12 * want[0], "{a} vs {b}");
        }
    });
}

#[test]
fn autocorrelation_lag0_dominates() {
    for_each_case(64, |rng| {
        let len = rng.gen_range(8..64);
        let signal = samples(rng, len, 10.0);
        let order = rng.gen_range(1..6usize);
        let r = autocorrelation(&signal, order.min(signal.len() - 1));
        for &lag in &r[1..] {
            assert!(lag.abs() <= r[0] + 1e-9, "r0 {} lag {lag}", r[0]);
        }
    });
}

#[test]
fn prediction_error_of_zero_coeffs_is_signal() {
    for_each_case(64, |rng| {
        let len = rng.gen_range(4..32);
        let signal = samples(rng, len, 5.0);
        assert_eq!(prediction_error(&signal, &[]), signal);
    });
}

/// Actor D's kernel against the per-sample sum it replaced, on random
/// frames, orders to 16 and ranges that may start inside the history,
/// be empty or run past the frame: equal everywhere, bit for bit
/// wherever the residual is nonzero.
#[test]
fn prediction_errors_are_the_per_sample_sum() {
    for_each_case(64, |rng| {
        let len = rng.gen_range(0..600usize);
        let order = rng.gen_range(0..17usize);
        let frame = samples(rng, len, 10.0);
        let coeffs = samples(rng, order, 1.0);
        let start = rng.gen_range(0..len + order + 2);
        let end = rng.gen_range(0..len + 8);
        let mut got = samples(rng, 4, 1.0);
        prediction_errors_into(&frame, &coeffs, start, end, &mut got);
        let want: Vec<f64> = (start..end.min(len))
            .map(|t| {
                let predicted: f64 = coeffs
                    .iter()
                    .enumerate()
                    .map(|(k, &a)| if t > k { a * frame[t - k - 1] } else { 0.0 })
                    .sum();
                frame[t] - predicted
            })
            .collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(
                g == w && (*w == 0.0 || g.to_bits() == w.to_bits()),
                "{g:e} vs {w:e}"
            );
        }
    });
}

#[test]
fn quantizer_roundtrip_within_half_step() {
    for_each_case(64, |rng| {
        let x = rng.gen_range(-10.0..10.0);
        let q = Quantizer::new(10.0, rng.gen_range(2..12u32));
        let step = 20.0 / (q.levels() - 1) as f64;
        let back = q.dequantize(q.quantize(x));
        assert!((back - x).abs() <= step / 2.0 + 1e-9);
    });
}

#[test]
fn huffman_never_expands_beyond_fixed_length() {
    for_each_case(64, |rng| {
        let symbols: Vec<u16> = (0..rng.gen_range(1..500usize))
            .map(|_| rng.gen_range(0..32u16))
            .collect();
        let code = HuffmanCode::from_symbols(&symbols).expect("nonempty");
        let (bits, bitlen) = code.encode(&symbols).expect("known symbols");
        // An alphabet of ≤32 symbols averages at most log2(32) + 1 bits
        // per symbol; sanity-bound the output, require it beats 16-bit
        // raw storage, and decode it back.
        assert!(bitlen <= symbols.len() * 16);
        assert!(bitlen >= symbols.len(), "at least 1 bit per symbol");
        let back = code
            .decode(&bits, bitlen, symbols.len())
            .expect("roundtrip");
        assert_eq!(back, symbols);
    });
}

#[test]
fn systematic_draw_multiplicities_proportional() {
    for_each_case(64, |rng| {
        let heavy_idx = rng.gen_range(0..8usize);
        let heavy_weight = rng.gen_range(5.0..50.0);
        let particles: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut weights = vec![1.0; 8];
        weights[heavy_idx] = heavy_weight;
        let drawn = systematic_draw(
            &particles,
            &weights,
            8000,
            &mut SplitMix64::seed_from_u64(42),
        );
        let total: f64 = weights.iter().sum();
        let expected = heavy_weight / total * 8000.0;
        let got = drawn.filter(|&p| p == heavy_idx as f64).count() as f64;
        // Systematic resampling has very low variance: within ±1 of the
        // proportional share per 1000 draws.
        assert!((got - expected).abs() <= 8.0 + expected * 0.01);
    });
}

#[test]
fn crack_growth_is_monotone_without_noise() {
    for_each_case(64, |rng| {
        let model = CrackModel {
            process_noise: 0.0,
            ..CrackModel::default()
        };
        let mut a = rng.gen_range(0.1..5.0);
        for _ in 0..rng.gen_range(1..50usize) {
            let next = a + model.growth(a);
            assert!(next > a);
            a = next;
        }
    });
}
