//! Property-based tests of the DSP kernels.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use spi_dsp::fft::{fft, fft_real, ifft, Complex};
use spi_dsp::huffman::HuffmanCode;
use spi_dsp::lpc::{autocorrelation, prediction_error, Quantizer};
use spi_dsp::particle::{systematic_draw, CrackModel};

/// 1e-9 of the signal's 2-norm: the bound every transform identity
/// below is held to.
fn tolerance(signal: &[f64]) -> f64 {
    1e-9 * signal.iter().map(|x| x * x).sum::<f64>().sqrt().max(1.0)
}

proptest! {
    // The transform properties draw 4096 samples and keep a
    // power-of-two prefix, so every size the applications use (512 and
    // 1024 points) is covered along with the 1- and 2-point edges.
    #[test]
    fn fft_ifft_is_identity(
        signal in prop::collection::vec(-100.0f64..100.0, 4096..4097),
        log2 in 0u32..13,
    ) {
        let signal = &signal[..1 << log2];
        let mut data: Vec<Complex> =
            signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft(&mut data).expect("power of two");
        ifft(&mut data).expect("power of two");
        let tol = tolerance(signal);
        for (z, &x) in data.iter().zip(signal) {
            prop_assert!((z.re - x).abs() <= tol);
            prop_assert!(z.im.abs() <= tol);
        }
    }

    #[test]
    fn parseval_energy_conservation(
        signal in prop::collection::vec(-10.0f64..10.0, 4096..4097),
        log2 in 0u32..13,
    ) {
        let signal = &signal[..1 << log2];
        let spec = fft_real(signal).expect("power of two");
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 =
            spec.iter().map(|z| z.re * z.re + z.im * z.im).sum::<f64>() / signal.len() as f64;
        prop_assert!((time_energy - freq_energy).abs() <= 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn real_input_path_matches_complex_path(
        signal in prop::collection::vec(-10.0f64..10.0, 4096..4097),
        log2 in 0u32..13,
    ) {
        let signal = &signal[..1 << log2];
        let mut want: Vec<Complex> =
            signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft(&mut want).expect("power of two");
        let got = fft_real(signal).expect("power of two");
        prop_assert_eq!(got.len(), want.len());
        let tol = tolerance(signal);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a.re - b.re).abs() <= tol && (a.im - b.im).abs() <= tol);
        }
    }

    #[test]
    fn fft_autocorrelation_matches_direct(
        signal in prop::collection::vec(-10.0f64..10.0, 1..601),
        order in 0usize..17,
    ) {
        let got = spi_dsp::fft::autocorrelation(&signal, order);
        let lags = order.min(signal.len() - 1);
        let want = autocorrelation(&signal, lags);
        prop_assert_eq!(got.len(), lags + 1);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() <= 1e-9 * want[0], "{a} vs {b}");
        }
    }

    #[test]
    fn autocorrelation_lag0_dominates(
        signal in prop::collection::vec(-10.0f64..10.0, 8..64),
        order in 1usize..6,
    ) {
        let r = autocorrelation(&signal, order.min(signal.len() - 1));
        for &lag in &r[1..] {
            prop_assert!(lag.abs() <= r[0] + 1e-9, "r0 {} lag {lag}", r[0]);
        }
    }

    #[test]
    fn prediction_error_of_zero_coeffs_is_signal(
        signal in prop::collection::vec(-5.0f64..5.0, 4..32)
    ) {
        let err = prediction_error(&signal, &[]);
        prop_assert_eq!(err, signal);
    }

    #[test]
    fn quantizer_roundtrip_within_half_step(
        x in -10.0f64..10.0,
        bits in 2u32..12,
    ) {
        let q = Quantizer::new(10.0, bits);
        let step = 20.0 / (q.levels() - 1) as f64;
        let back = q.dequantize(q.quantize(x));
        prop_assert!((back - x).abs() <= step / 2.0 + 1e-9);
    }

    #[test]
    fn huffman_never_expands_beyond_fixed_length(
        symbols in prop::collection::vec(0u16..16, 1..500)
    ) {
        let code = HuffmanCode::from_symbols(&symbols).expect("nonempty");
        let (_, bitlen) = code.encode(&symbols).expect("known symbols");
        // An alphabet of ≤16 symbols never needs > ~15 bits/symbol even
        // in the most skewed Huffman tree; sanity-bound the output and
        // require it beats (or ties) 16-bit raw storage.
        prop_assert!(bitlen <= symbols.len() * 16);
        prop_assert!(bitlen >= symbols.len(), "at least 1 bit per symbol");
    }

    #[test]
    fn systematic_draw_multiplicities_proportional(
        heavy_idx in 0usize..8,
        heavy_weight in 5.0f64..50.0,
    ) {
        let particles: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut weights = vec![1.0; 8];
        weights[heavy_idx] = heavy_weight;
        let mut rng = StdRng::seed_from_u64(42);
        let drawn = systematic_draw(&particles, &weights, 8000, &mut rng);
        let total: f64 = weights.iter().sum();
        let expected = heavy_weight / total * 8000.0;
        let got = drawn.iter().filter(|&&p| p == heavy_idx as f64).count() as f64;
        // Systematic resampling has very low variance: within ±1 of the
        // proportional share per 1000 draws.
        prop_assert!((got - expected).abs() <= 8.0 + expected * 0.01);
    }

    #[test]
    fn crack_growth_is_monotone_without_noise(a0 in 0.1f64..5.0, steps in 1usize..50) {
        let model = CrackModel { process_noise: 0.0, ..CrackModel::default() };
        let mut a = a0;
        for _ in 0..steps {
            let next = a + model.growth(a);
            prop_assert!(next > a);
            a = next;
        }
    }
}
