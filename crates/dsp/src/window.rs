//! Window functions and windowed spectral analysis helpers.
//!
//! LPC front-ends window each frame before autocorrelation; this module
//! collects the standard windows plus a windowed power-spectrum helper
//! used by tooling around the speech application.

use crate::fft::{self, FftError};

/// The supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Window {
    /// All-ones (no tapering).
    Rectangular,
    /// `0.54 − 0.46·cos(2πn/(N−1))`.
    Hamming,
    /// `0.5·(1 − cos(2πn/(N−1)))`.
    Hann,
    /// The three-term Blackman window.
    Blackman,
}

impl Window {
    /// Coefficient `n` of an `len`-point window.
    pub fn coefficient(self, n: usize, len: usize) -> f64 {
        if len < 2 {
            return 1.0;
        }
        let x = 2.0 * std::f64::consts::PI * n as f64 / (len - 1) as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hamming => 0.54 - 0.46 * x.cos(),
            Window::Hann => 0.5 * (1.0 - x.cos()),
            Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
        }
    }

    /// The full coefficient vector.
    pub fn coefficients(self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.coefficient(n, len)).collect()
    }

    /// Applies the window in place.
    pub fn apply(self, frame: &mut [f64]) {
        let len = frame.len();
        for (n, x) in frame.iter_mut().enumerate() {
            *x *= self.coefficient(n, len);
        }
    }

    /// Coherent gain (mean coefficient) — used to renormalize spectra.
    pub fn coherent_gain(self, len: usize) -> f64 {
        if len == 0 {
            return 1.0;
        }
        (0..len).map(|n| self.coefficient(n, len)).sum::<f64>() / len as f64
    }
}

/// Windowed power spectrum: applies `window`, zero-pads to the next
/// power of two and returns `|X[k]|²` for the non-negative frequencies
/// (`n/2 + 1` bins).
///
/// # Errors
///
/// Propagates [`FftError`] (cannot occur for the padded length, kept in
/// the signature for transparency).
pub fn power_spectrum(frame: &[f64], window: Window) -> Result<Vec<f64>, FftError> {
    let len = frame.len();
    let windowed = frame
        .iter()
        .enumerate()
        .map(|(n, &x)| x * window.coefficient(n, len));
    fft::power_spectrum(windowed, len.max(1).next_power_of_two())
}

/// Index of the strongest bin in a power spectrum.
pub fn peak_bin(spectrum: &[f64]) -> Option<usize> {
    spectrum
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite power"))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_taper_except_rectangular() {
        for w in [Window::Hamming, Window::Hann, Window::Blackman] {
            let c = w.coefficients(64);
            assert!(c[0] < 0.12, "{w:?} starts low: {}", c[0]);
            assert!((c[32] - 1.0).abs() < 0.12, "{w:?} peaks mid-frame");
        }
        assert!(Window::Rectangular
            .coefficients(64)
            .iter()
            .all(|&c| c == 1.0));
    }

    #[test]
    fn windows_are_symmetric() {
        for w in [Window::Hamming, Window::Hann, Window::Blackman] {
            let c = w.coefficients(33);
            for i in 0..33 {
                assert!((c[i] - c[32 - i]).abs() < 1e-12, "{w:?} asymmetric at {i}");
            }
        }
    }

    #[test]
    fn hann_sums_to_half() {
        // Hann's coherent gain tends to 0.5 for long windows.
        let g = Window::Hann.coherent_gain(1024);
        assert!((g - 0.5).abs() < 0.01, "gain {g}");
    }

    #[test]
    fn power_spectrum_finds_the_tone() {
        let n = 256;
        let freq_bins = 32.0;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq_bins * i as f64 / n as f64).sin())
            .collect();
        let spec = power_spectrum(&signal, Window::Hann).unwrap();
        assert_eq!(spec.len(), n / 2 + 1);
        assert_eq!(peak_bin(&spec), Some(32));
    }

    #[test]
    fn windowing_reduces_leakage() {
        // An off-bin tone leaks less under Hann than rectangular.
        let n = 256;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 32.37 * i as f64 / n as f64).sin())
            .collect();
        let rect = power_spectrum(&signal, Window::Rectangular).unwrap();
        let hann = power_spectrum(&signal, Window::Hann).unwrap();
        // Compare energy far from the tone (leakage floor).
        let far = |s: &[f64]| s[90..120].iter().sum::<f64>();
        assert!(
            far(&hann) < far(&rect) / 10.0,
            "hann floor {} vs rect {}",
            far(&hann),
            far(&rect)
        );
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(Window::Hann.coefficient(0, 1), 1.0);
        assert!(power_spectrum(&[], Window::Hamming).unwrap().len() == 1);
        assert_eq!(peak_bin(&[]), None);
    }
}
