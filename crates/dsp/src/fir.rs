//! FIR filtering and polyphase decimation — the multirate kernels used
//! by the filter-bank example (a classic SDF/CSDF showcase workload).

/// A direct-form FIR filter with persistent state, suitable for
//  streaming frame-by-frame inside an actor.
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
    history: Vec<f64>,
}

impl Fir {
    /// Creates a filter from its tap coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty — a zero-tap filter has no output
    /// definition and indicates a construction bug.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR filters need at least one tap");
        let history = vec![0.0; taps.len() - 1];
        Fir { taps, history }
    }

    /// A length-`n` moving-average (boxcar) filter.
    pub fn moving_average(n: usize) -> Self {
        Fir::new(vec![1.0 / n.max(1) as f64; n.max(1)])
    }

    /// A windowed-sinc low-pass with `taps` coefficients and normalized
    /// cutoff `fc` (0 < fc < 0.5, in cycles/sample).
    pub fn lowpass(taps: usize, fc: f64) -> Self {
        let taps = taps.max(1);
        let m = (taps - 1) as f64;
        let coeffs: Vec<f64> = (0..taps)
            .map(|i| {
                let x = i as f64 - m / 2.0;
                let sinc = if x.abs() < 1e-12 {
                    2.0 * fc
                } else {
                    (2.0 * std::f64::consts::PI * fc * x).sin() / (std::f64::consts::PI * x)
                };
                // Hamming window.
                let w = 0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / m.max(1.0)).cos();
                sinc * w
            })
            .collect();
        let sum: f64 = coeffs.iter().sum();
        Fir::new(coeffs.into_iter().map(|c| c / sum).collect())
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` only for the degenerate single-tap filter… never: taps ≥ 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Filters one frame into `out`, which is cleared first, carrying
    /// state across calls.
    pub fn process(&mut self, frame: impl IntoIterator<Item = f64>, out: &mut Vec<f64>) {
        out.clear();
        for x in frame {
            // history holds the previous len-1 inputs, newest first.
            let mut acc = self.taps[0] * x;
            for (k, &h) in self.history.iter().enumerate() {
                acc += self.taps[k + 1] * h;
            }
            out.push(acc);
            if !self.history.is_empty() {
                self.history.rotate_right(1);
                self.history[0] = x;
            }
        }
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.history.fill(0.0);
    }
}

/// Decimates by `factor`, keeping every `factor`-th sample (offset 0);
/// a factor of 0 or 1 keeps every sample.
pub fn decimate(frame: &[f64], factor: usize) -> impl Iterator<Item = f64> + '_ {
    frame.iter().step_by(factor.max(1)).copied()
}

/// Cycle cost of an `n`-sample frame through a `t`-tap MAC pipeline.
pub fn fir_cycles(n: usize, t: usize) -> u64 {
    (n as u64) * (t as u64) + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_filter_passes_through() {
        let mut f = Fir::new(vec![1.0]);
        let x = vec![1.0, -2.0, 3.0];
        let mut out = vec![9.0];
        f.process(x.iter().copied(), &mut out);
        assert_eq!(out, x);
    }

    #[test]
    fn moving_average_smooths_steps() {
        let mut f = Fir::moving_average(4);
        let mut out = Vec::new();
        f.process([4.0; 8], &mut out);
        // After the filter fills, output settles at the input level.
        assert!((out[7] - 4.0).abs() < 1e-12);
        assert!(out[0] < 4.0, "transient while history is zero");
    }

    #[test]
    fn state_carries_across_frames() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut whole = Fir::moving_average(3);
        let mut expected = Vec::new();
        whole.process(x.iter().copied(), &mut expected);
        let mut split = Fir::moving_average(3);
        let (mut got, mut tail) = (Vec::new(), Vec::new());
        split.process(x[..7].iter().copied(), &mut got);
        split.process(x[7..].iter().copied(), &mut tail);
        got.extend(tail);
        assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        let mut f = Fir::lowpass(31, 0.1);
        let n = 256;
        let low: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 0.02 * i as f64).sin())
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 0.4 * i as f64).sin())
            .collect();
        let (mut low_out, mut high_out) = (Vec::new(), Vec::new());
        f.process(low, &mut low_out);
        f.reset();
        f.process(high, &mut high_out);
        let energy = |v: &[f64]| v[64..].iter().map(|x| x * x).sum::<f64>();
        assert!(
            energy(&low_out) > 20.0 * energy(&high_out),
            "low {} vs high {}",
            energy(&low_out),
            energy(&high_out)
        );
    }

    #[test]
    fn decimate_keeps_every_factor_th_sample() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let decimated = |factor| decimate(&x, factor).collect::<Vec<_>>();
        assert_eq!(decimated(2), [1.0, 3.0, 5.0]);
        assert_eq!(decimated(4), [1.0, 5.0]);
        assert_eq!(decimated(1), x);
        assert_eq!(decimated(0), x);
    }

    #[test]
    fn reset_clears_history() {
        let mut f = Fir::moving_average(3);
        let mut out = Vec::new();
        f.process([9.0; 5], &mut out);
        f.reset();
        f.process([0.0; 3], &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn zero_taps_panics() {
        let _ = Fir::new(vec![]);
    }

    #[test]
    fn cost_model_scales() {
        assert_eq!(fir_cycles(100, 8), 816);
        assert!(fir_cycles(200, 8) > fir_cycles(100, 8));
    }
}
