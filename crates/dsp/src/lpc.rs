//! Linear predictive coding (application 1's compression math).
//!
//! The paper's acoustic data compression pipeline: frames of input
//! samples produce predictor coefficients via the autocorrelation normal
//! equations, which the paper solves with **LU decomposition** (actor
//! "C"); the prediction error (actor "D") plus quantized coefficients
//! form the compressed representation.
//!
//! Actor D has one kernel, [`prediction_errors_into`], behind the owned
//! [`prediction_error`] and [`prediction_error_range`]. It loops over
//! coefficients on the outside and samples on the inside, the
//! multiply-accumulate datapath the paper puts on each error PE, and
//! keeps each residual's summation order, so its values are the
//! per-sample definition's (the function's docs say why).

/// Errors from the LPC pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpcError {
    /// The normal-equation matrix was numerically singular.
    SingularMatrix {
        /// Pivot column where elimination failed.
        column: usize,
    },
    /// Model order must be positive and smaller than the frame length.
    BadOrder {
        /// Requested order.
        order: usize,
        /// Frame length.
        frame: usize,
    },
}

impl std::fmt::Display for LpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpcError::SingularMatrix { column } => {
                write!(f, "normal equations singular at column {column}")
            }
            LpcError::BadOrder { order, frame } => {
                write!(
                    f,
                    "model order {order} invalid for frame of {frame} samples"
                )
            }
        }
    }
}

impl std::error::Error for LpcError {}

/// Autocorrelation `r[0..=order]` of `frame`.
pub fn autocorrelation(frame: &[f64], order: usize) -> Vec<f64> {
    (0..=order)
        .map(|lag| {
            frame
                .iter()
                .zip(frame.iter().skip(lag))
                .map(|(a, b)| a * b)
                .sum()
        })
        .collect()
}

/// LU decomposition with partial pivoting: factors `a` (n×n, row-major)
/// in place into L (unit diagonal, below) and U (on/above), returning the
/// row permutation.
///
/// # Errors
///
/// [`LpcError::SingularMatrix`] if a pivot column is all (near-)zeros.
pub fn lu_decompose(a: &mut [f64], n: usize) -> Result<Vec<usize>, LpcError> {
    let mut perm = Vec::new();
    lu_decompose_into(a, n, &mut perm).map(|()| perm)
}

/// [`lu_decompose`] with the row permutation written into `perm`.
///
/// # Errors
///
/// As [`lu_decompose`]; a NaN chosen as the pivot reads as singular.
pub fn lu_decompose_into(a: &mut [f64], n: usize, perm: &mut Vec<usize>) -> Result<(), LpcError> {
    assert_eq!(a.len(), n * n, "matrix must be n*n");
    perm.clear();
    perm.extend(0..n);
    for col in 0..n {
        // Partial pivot: the last row holding the column's largest
        // magnitude.
        let mut pivot_row = col;
        for r in col + 1..n {
            if a[r * n + col].abs() >= a[pivot_row * n + col].abs() {
                pivot_row = r;
            }
        }
        let pivot_val = a[pivot_row * n + col].abs();
        if pivot_val.is_nan() || pivot_val < 1e-12 {
            return Err(LpcError::SingularMatrix { column: col });
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            perm.swap(col, pivot_row);
        }
        for r in (col + 1)..n {
            let factor = a[r * n + col] / a[col * n + col];
            a[r * n + col] = factor; // store L
            for k in (col + 1)..n {
                a[r * n + k] -= factor * a[col * n + k];
            }
        }
    }
    Ok(())
}

/// Solves `A x = b` given the in-place LU factors and permutation from
/// [`lu_decompose`].
pub fn lu_solve(lu: &[f64], n: usize, perm: &[usize], b: &[f64]) -> Vec<f64> {
    let mut x = Vec::new();
    lu_solve_into(lu, n, perm, b, &mut x);
    x
}

/// [`lu_solve`] into `x`, which is cleared first; the forward pass's
/// intermediate vector lives in `x` until the back pass overwrites it.
pub fn lu_solve_into(lu: &[f64], n: usize, perm: &[usize], b: &[f64], x: &mut Vec<f64>) {
    x.clear();
    x.resize(n, 0.0);
    // Forward substitution on permuted b.
    for i in 0..n {
        let mut acc = b[perm[i]];
        for j in 0..i {
            acc -= lu[i * n + j] * x[j];
        }
        x[i] = acc;
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= lu[i * n + j] * x[j];
        }
        x[i] = acc / lu[i * n + i];
    }
}

/// Predictor coefficients of `frame` at the given model order, via the
/// autocorrelation normal equations solved with LU decomposition
/// (exactly the paper's actor "C").
///
/// Returns `a[1..=order]` such that
/// `x̂[t] = Σ_k a[k] · x[t−k]`.
///
/// # Errors
///
/// [`LpcError::BadOrder`] for a degenerate order and
/// [`LpcError::SingularMatrix`] for pathological (e.g. all-zero) frames.
pub fn predictor_coefficients(frame: &[f64], order: usize) -> Result<Vec<f64>, LpcError> {
    if order == 0 || order >= frame.len() {
        return Err(LpcError::BadOrder {
            order,
            frame: frame.len(),
        });
    }
    let r = autocorrelation(frame, order);
    // Toeplitz system: R[i][j] = r[|i−j|], rhs = r[1..=order].
    let mut matrix = vec![0.0; order * order];
    for i in 0..order {
        for j in 0..order {
            matrix[i * order + j] = r[i.abs_diff(j)];
        }
    }
    // Tiny diagonal loading for numerical robustness on tonal frames.
    for i in 0..order {
        matrix[i * order + i] += 1e-9 * (r[0] + 1.0);
    }
    let perm = lu_decompose(&mut matrix, order)?;
    Ok(lu_solve(&matrix, order, &perm, &r[1..=order]))
}

/// Prediction error of `frame` under `coeffs` (actor "D"): the residual
/// `e[t] = x[t] − Σ_k a[k]·x[t−k]`, with out-of-range history treated as
/// zero.
pub fn prediction_error(frame: &[f64], coeffs: &[f64]) -> Vec<f64> {
    prediction_error_range(frame, coeffs, 0, frame.len())
}

/// Prediction error restricted to samples `[start, end)` — the unit of
/// work one error-generation PE handles when actor "D" is parallelized
/// (paper §5.2: "each PE computes N/n error values" over overlapping
/// sections). The PE still needs `coeffs.len()` samples of history before
/// `start`, which the caller supplies by sending an overlapping section.
pub fn prediction_error_range(frame: &[f64], coeffs: &[f64], start: usize, end: usize) -> Vec<f64> {
    let mut out = Vec::new();
    prediction_errors_into(frame, coeffs, start, end, &mut out);
    out
}

/// [`prediction_error_range`] into `out`, which is cleared first: the
/// one prediction-error kernel.
///
/// Coefficients run on the outside and samples on the inside, so the
/// inner loop is a multiply-add over independent samples that the
/// compiler spreads over the vector lanes. It changes no value: each
/// `out[t]` starts from −0.0, the value `f64`'s `Sum` starts from, and
/// adds `a[k]·x[t−k−1]` in ascending `k`, the per-sample sum's order. A
/// sample `t ≤ k` has no history for coefficient `k` and skips it where
/// the per-sample sum adds `+0.0`, which can only turn a −0.0 sum into
/// +0.0; so every residual equals the per-sample one, bit for bit
/// unless it is zero.
pub fn prediction_errors_into(
    frame: &[f64],
    coeffs: &[f64],
    start: usize,
    end: usize,
    out: &mut Vec<f64>,
) {
    let end = end.min(frame.len());
    out.clear();
    if start >= end {
        return;
    }
    out.resize(end - start, -0.0);
    for (k, &a) in coeffs.iter().enumerate() {
        // The first sample with history for `k`; later coefficients
        // start no earlier.
        let first = start.max(k + 1);
        if first >= end {
            break;
        }
        let history = &frame[first - k - 1..end - k - 1];
        for (acc, &x) in out[first - start..].iter_mut().zip(history) {
            *acc += a * x;
        }
    }
    for (e, &x) in out.iter_mut().zip(&frame[start..end]) {
        *e = x - *e;
    }
}

/// LPC synthesis: reconstructs the signal from a (possibly quantized)
/// residual by running the prediction filter in feedback,
/// `x̂[t] = e[t] + Σ_k a[k]·x̂[t−k]` — the decoder dual of
/// [`prediction_error`].
pub fn synthesize(residual: &[f64], coeffs: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::with_capacity(residual.len());
    for (t, &e) in residual.iter().enumerate() {
        let predicted: f64 = coeffs
            .iter()
            .enumerate()
            .map(|(k, &a)| if t > k { a * out[t - k - 1] } else { 0.0 })
            .sum();
        out.push(e + predicted);
    }
    out
}

/// A uniform scalar quantizer over `[-range, range]` with `2^bits`
/// levels (the compression step before Huffman coding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    /// Half-range of representable values.
    pub range: f64,
    /// Bits per symbol.
    pub bits: u32,
}

impl Quantizer {
    /// Creates a quantizer; values beyond ±`range` saturate.
    pub fn new(range: f64, bits: u32) -> Self {
        Quantizer { range, bits }
    }

    /// Number of quantization levels.
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// Quantizes one value to a symbol index.
    pub fn quantize(&self, x: f64) -> u16 {
        let levels = self.levels() as f64;
        let clamped = x.clamp(-self.range, self.range);
        let norm = (clamped + self.range) / (2.0 * self.range);
        ((norm * (levels - 1.0)).round() as u32).min(self.levels() - 1) as u16
    }

    /// Reconstructs the value of a symbol index.
    pub fn dequantize(&self, symbol: u16) -> f64 {
        let levels = self.levels() as f64;
        (f64::from(symbol) / (levels - 1.0)) * 2.0 * self.range - self.range
    }
}

/// Cycle-cost models for the LPC pipeline actors on the simulated
/// hardware (MAC-per-cycle datapaths with pipeline fill overhead).
pub mod cost {
    /// Autocorrelation + normal-equation assembly + LU solve for model
    /// order `m` over a frame of `n` samples.
    pub fn lu_cycles(n: usize, m: usize) -> u64 {
        let n = n as u64;
        let m = m as u64;
        // Autocorrelation: (m+1) lags × n MACs; LU: ~(2/3)m³; solve: m².
        (m + 1) * n + (2 * m * m * m) / 3 + m * m + 50
    }

    /// Error generation over `n` samples at order `m` (one MAC per tap).
    pub fn error_cycles(n: usize, m: usize) -> u64 {
        (n as u64) * (m as u64 + 1) + 20
    }

    /// Frame read cost (I/O interface, one word per cycle).
    pub fn read_cycles(n: usize) -> u64 {
        n as u64 + 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocorrelation_lag0_is_energy() {
        let x = [1.0, -2.0, 3.0];
        let r = autocorrelation(&x, 2);
        assert!((r[0] - 14.0).abs() < 1e-12);
        assert!((r[1] - (1.0 * -2.0 + -2.0 * 3.0)).abs() < 1e-12);
    }

    #[test]
    fn lu_solves_known_system() {
        // [[2,1],[1,3]] x = [3,5] → x = [4/5, 7/5]
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let perm = lu_decompose(&mut a, 2).unwrap();
        let x = lu_solve(&a, 2, &perm, &[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_with_pivoting_handles_zero_leading_pivot() {
        // [[0,1],[1,0]] needs a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let perm = lu_decompose(&mut a, 2).unwrap();
        let x = lu_solve(&a, 2, &perm, &[7.0, 9.0]);
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(matches!(
            lu_decompose(&mut a, 2),
            Err(LpcError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn predictor_recovers_ar1_process() {
        // x[t] = 0.9 x[t−1] + tiny noise → a[0] ≈ 0.9.
        let mut x = vec![1.0];
        for t in 1..512 {
            let noise = ((t * 2654435761_usize) % 1000) as f64 / 1e6;
            x.push(0.9 * x[t - 1] + noise);
        }
        let coeffs = predictor_coefficients(&x, 1).unwrap();
        assert!((coeffs[0] - 0.9).abs() < 0.05, "got {}", coeffs[0]);
    }

    #[test]
    fn prediction_error_is_small_for_predictable_signal() {
        let mut x = vec![1.0, 0.95];
        for t in 2..256 {
            x.push(0.95 * x[t - 1]);
        }
        let coeffs = predictor_coefficients(&x, 2).unwrap();
        let err = prediction_error(&x, &coeffs);
        let energy: f64 = x.iter().map(|v| v * v).sum();
        let err_energy: f64 = err.iter().skip(2).map(|v| v * v).sum();
        assert!(
            err_energy < 0.01 * energy,
            "prediction must capture the AR structure"
        );
    }

    #[test]
    fn error_range_matches_full_computation() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let coeffs = vec![0.5, -0.25];
        let full = prediction_error(&x, &coeffs);
        let part = prediction_error_range(&x, &coeffs, 16, 32);
        assert_eq!(part, full[16..32].to_vec());
    }

    #[test]
    fn split_ranges_reassemble_exactly() {
        // The parallelized actor D must produce the same residuals as the
        // serial one.
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let coeffs = predictor_coefficients(&x, 4).unwrap();
        let full = prediction_error(&x, &coeffs);
        let n_pes = 3;
        let mut reassembled = Vec::new();
        for p in 0..n_pes {
            let start = p * x.len() / n_pes;
            let end = (p + 1) * x.len() / n_pes;
            reassembled.extend(prediction_error_range(&x, &coeffs, start, end));
        }
        assert_eq!(reassembled.len(), full.len());
        for (a, b) in reassembled.iter().zip(&full) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The per-sample definition of actor D's residual, as the kernel
    /// computed it before it looped over coefficients: each sample sums
    /// its terms with `Sum`, adding `0.0` for missing history.
    fn per_sample_reference(frame: &[f64], coeffs: &[f64], start: usize, end: usize) -> Vec<f64> {
        (start..end.min(frame.len()))
            .map(|t| {
                let predicted: f64 = coeffs
                    .iter()
                    .enumerate()
                    .map(|(k, &a)| if t > k { a * frame[t - k - 1] } else { 0.0 })
                    .sum();
                frame[t] - predicted
            })
            .collect()
    }

    /// Equal to the reference on every finite input, and bit for bit
    /// wherever the residual is nonzero (a zero may differ in sign).
    fn assert_exact(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (t, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(g == w, "{what}, sample {t}: {g:e} vs reference {w:e}");
            if *w != 0.0 {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}, sample {t}");
            }
        }
    }

    #[test]
    fn prediction_errors_equal_the_per_sample_definition() {
        let mut rng = spi_platform::rng::SplitMix64::seed_from_u64(44);
        // A kept buffer, dirty from the previous call: the kernel
        // clears it.
        let mut out = vec![f64::NAN; 3];
        for order in 0..=16usize {
            let mut coeffs: Vec<f64> = (0..order).map(|_| rng.gen_range(-1.5..1.5)).collect();
            if order > 2 {
                coeffs[1] = 0.0;
            }
            for len in [0, 1, order, order + 1, 2 * order + 3, 70] {
                let mut frame: Vec<f64> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();
                // Zeros of both signs, in the history and as samples.
                for (t, x) in frame.iter_mut().enumerate() {
                    match t % 7 {
                        3 => *x = 0.0,
                        5 => *x = -0.0,
                        _ => {}
                    }
                }
                let starts = [0, 1, order.saturating_sub(1), order, order + 1];
                for start in starts {
                    for end in [0, start, start + 1, len / 2, len, len + 5] {
                        let want = per_sample_reference(&frame, &coeffs, start, end);
                        prediction_errors_into(&frame, &coeffs, start, end, &mut out);
                        let what = format!("order {order}, len {len}, [{start}, {end})");
                        assert_exact(&out, &want, &what);
                        assert_exact(
                            &prediction_error_range(&frame, &coeffs, start, end),
                            &want,
                            &what,
                        );
                    }
                }
                assert_exact(
                    &prediction_error(&frame, &coeffs),
                    &per_sample_reference(&frame, &coeffs, 0, len),
                    &format!("order {order}, len {len}, whole frame"),
                );
            }
        }
        // Empty coefficients leave the signal as it is.
        let frame = [1.0, -2.0, 0.5];
        assert_eq!(prediction_error(&frame, &[]), frame);
        assert!(prediction_error(&[], &[0.5, 0.25]).is_empty());
    }

    #[test]
    fn bad_order_rejected() {
        let x = [1.0, 2.0, 3.0];
        assert!(matches!(
            predictor_coefficients(&x, 0),
            Err(LpcError::BadOrder { .. })
        ));
        assert!(matches!(
            predictor_coefficients(&x, 3),
            Err(LpcError::BadOrder { .. })
        ));
    }

    #[test]
    fn synthesis_inverts_prediction_exactly_without_quantization() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.21).sin() * 2.0).collect();
        let coeffs = predictor_coefficients(&x, 4).unwrap();
        let residual = prediction_error(&x, &coeffs);
        let back = synthesize(&residual, &coeffs);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn synthesis_with_quantized_residual_stays_close() {
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.13).sin()).collect();
        let coeffs = predictor_coefficients(&x, 6).unwrap();
        let residual = prediction_error(&x, &coeffs);
        let q = Quantizer::new(1.0, 8);
        let qres: Vec<f64> = residual
            .iter()
            .map(|&e| q.dequantize(q.quantize(e)))
            .collect();
        let back = synthesize(&qres, &coeffs);
        let err: f64 = back.iter().zip(&x).map(|(a, b)| (a - b) * (a - b)).sum();
        let sig: f64 = x.iter().map(|v| v * v).sum();
        let snr_db = 10.0 * (sig / err.max(1e-12)).log10();
        assert!(
            snr_db > 20.0,
            "8-bit residual coding must exceed 20 dB, got {snr_db:.1}"
        );
    }

    #[test]
    fn quantizer_roundtrip_error_bounded() {
        let q = Quantizer::new(4.0, 8);
        let step = 8.0 / 255.0;
        for i in -40..=40 {
            let x = i as f64 / 10.0;
            let back = q.dequantize(q.quantize(x));
            assert!((back - x).abs() <= step / 2.0 + 1e-12, "x={x} back={back}");
        }
    }

    #[test]
    fn quantizer_saturates_out_of_range() {
        let q = Quantizer::new(1.0, 4);
        assert_eq!(q.quantize(100.0), q.levels() as u16 - 1);
        assert_eq!(q.quantize(-100.0), 0);
    }

    #[test]
    fn cost_models_scale_sensibly() {
        assert!(cost::lu_cycles(400, 10) > cost::lu_cycles(100, 10));
        assert!(cost::error_cycles(400, 10) == 400 * 11 + 20);
    }
}
