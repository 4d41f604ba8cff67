//! Planned radix-2 FFT (actor "B" of application 1): one butterfly body
//! over per-size twiddle and bit-reversal tables, the real-input
//! transform built on it, and the power-spectrum autocorrelation the
//! LPC front-end takes from that, on the smallest transform whose
//! circular correlation equals the linear one at every kept lag.

use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// A complex number (re, im) — minimal, `Copy`, sufficient for the FFT.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }

    fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    fn scale(self, s: f64) -> Complex {
        Complex::new(s * self.re, s * self.im)
    }

    fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

/// Errors from the FFT routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftError {
    /// Input length is not a power of two.
    NotPowerOfTwo {
        /// Offending length.
        len: usize,
    },
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::NotPowerOfTwo { len } => {
                write!(f, "fft length {len} is not a power of two")
            }
        }
    }
}

impl std::error::Error for FftError {}

/// The tables of one power-of-two transform size.
struct Plan {
    /// Twiddles stage by stage: `twiddles[half + i]` is `e^(−2πi·i/2half)`
    /// for `half = 1, 2, 4, … n/2` and `i < half` (entry 0 is unused),
    /// so every stage reads one contiguous run, and the last run is the
    /// `W_n^k` the real-input untangle pass needs.
    twiddles: Vec<Complex>,
    /// `rev[i]` is `i` with its log₂ n bits reversed.
    rev: Vec<usize>,
}

impl Plan {
    fn build(n: usize) -> Plan {
        let mut twiddles = vec![Complex::default(); n];
        let mut half = 1;
        while half < n {
            for (i, w) in twiddles[half..2 * half].iter_mut().enumerate() {
                let ang = -PI * i as f64 / half as f64;
                *w = Complex::new(ang.cos(), ang.sin());
            }
            half *= 2;
        }
        let shift = usize::BITS - n.trailing_zeros();
        let rev = (0..n).map(|i| i.reverse_bits() >> shift).collect();
        Plan { twiddles, rev }
    }
}

/// One slot per log₂ n: a length that is not a power of two has none.
static PLANS: [OnceLock<Plan>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

/// The plan of power-of-two size `n ≥ 2`, built by whichever caller
/// gets there first; callers reject any other length before they come
/// here.
fn plan(n: usize) -> &'static Plan {
    debug_assert!(n.is_power_of_two() && n >= 2);
    PLANS[n.trailing_zeros() as usize].get_or_init(|| Plan::build(n))
}

/// In-place forward FFT (decimation in time).
///
/// # Errors
///
/// [`FftError::NotPowerOfTwo`] unless `data.len()` is a power of two
/// (zero-length input is accepted as a no-op).
pub fn fft(data: &mut [Complex]) -> Result<(), FftError> {
    transform(data, false)
}

/// In-place inverse FFT (includes the 1/N scaling).
///
/// # Errors
///
/// Same conditions as [`fft`].
pub fn ifft(data: &mut [Complex]) -> Result<(), FftError> {
    transform(data, true)?;
    let n = data.len() as f64;
    for z in data.iter_mut() {
        z.re /= n;
        z.im /= n;
    }
    Ok(())
}

fn transform(data: &mut [Complex], inverse: bool) -> Result<(), FftError> {
    let n = data.len();
    if n > 1 && !n.is_power_of_two() {
        return Err(FftError::NotPowerOfTwo { len: n });
    }
    butterflies(data, inverse);
    Ok(())
}

/// The transform proper, of a length that is a power of two or at most
/// one.
fn butterflies(data: &mut [Complex], inverse: bool) {
    for (i, &j) in bit_reversal(data.len()).iter().enumerate() {
        if i < j {
            data.swap(i, j);
        }
    }
    stages(data, inverse);
}

/// `i ↦ i` with its log₂ n bits reversed, for a power of two `n`.
fn bit_reversal(n: usize) -> &'static [usize] {
    if n <= 1 {
        &[0]
    } else {
        &plan(n).rev
    }
}

/// The butterfly stages of [`butterflies`], over points already in
/// bit-reversed order.
fn stages(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    if n <= 1 {
        // Zero- and one-point transforms are identities.
        return;
    }
    let plan = plan(n);
    let mut half = 1;
    if n >= 4 {
        first_two_stages(data, inverse);
        half = 4;
    }
    while half < n {
        let stage = &plan.twiddles[half..2 * half];
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((u, v), &w) in lo.iter_mut().zip(hi).zip(stage) {
                let t = v.mul(if inverse { w.conj() } else { w });
                (*u, *v) = (u.add(t), u.sub(t));
            }
        }
        half *= 2;
    }
}

/// Stages `half = 1` and `half = 2` as one radix-4 pass over blocks of
/// four bit-reversed points: their twiddles are `1` and `∓i`, so the
/// pass is additions and a swap of parts, with no multiply.
fn first_two_stages(data: &mut [Complex], inverse: bool) {
    for block in data.as_chunks_mut::<4>().0 {
        let [a, b, c, d] = *block;
        let (s0, s1, s2, s3) = (a.add(b), a.sub(b), c.add(d), c.sub(d));
        // s3·W_4 with W_4 = −i forward and +i inverse.
        let t = if inverse {
            Complex::new(-s3.im, s3.re)
        } else {
            Complex::new(s3.im, -s3.re)
        };
        *block = [s0.add(s2), s1.add(t), s0.sub(s2), s1.sub(t)];
    }
}

thread_local! {
    /// The real-input path's packed half-size buffer and folded power
    /// spectrum, kept per thread so a frame analysis allocates at most
    /// its result.
    static SCRATCH: RefCell<(Vec<Complex>, Vec<[f64; 2]>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Forward transform of `samples` (at most `n` of them, zero-padded to
/// `n`, a power of two ≥ 2): the `n` real points go through one
/// `n/2`-point complex transform in `z`, as `z[j] = x[2j] + i·x[2j+1]`.
/// The returned untangle step gives, for `k ∈ 0..=n/4`, the halves
/// `(e, t)` of spectrum bins `k` and `n/2 − k`, which are `½(e + t)` and
/// `½·conj(e − t)`: both come from `z[k]` and `z[n/2 − k]` (`z[0]` for
/// `k = 0`), so one step yields two bins.
fn real_forward<'z>(
    samples: &[f64],
    n: usize,
    z: &'z mut Vec<Complex>,
) -> impl Fn(usize) -> (Complex, Complex) + 'z {
    let m = n / 2;
    // Callers pass a power of two n ≥ 2, so n/2 is a power of two; the
    // points go straight to their bit-reversed slots.
    let rev = bit_reversal(m);
    let (pairs, odd) = samples.as_chunks::<2>();
    z.clear();
    z.resize(m, Complex::default());
    for (&slot, &[re, im]) in rev.iter().zip(pairs) {
        z[slot] = Complex::new(re, im);
    }
    if let [re] = *odd {
        z[rev[pairs.len()]] = Complex::new(re, 0.0);
    }
    stages(z, false);
    let w = &plan(n).twiddles[m..];
    move |k| {
        // X[k] = E[k] + W_n^k·O[k], with E = e/2 and O = odd/2i the
        // spectra of the even- and odd-indexed samples.
        let (a, b) = (z[k], z[(m - k) & (m - 1)].conj());
        let (e, odd) = (a.add(b), a.sub(b));
        (e, Complex::new(odd.im, -odd.re).mul(w[k]))
    }
}

/// FFT of a real signal: convenience wrapper returning the complex
/// spectrum (all `n` bins; the upper half mirrors the lower).
///
/// # Errors
///
/// Same conditions as [`fft`].
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>, FftError> {
    let n = signal.len();
    if n <= 1 {
        return Ok(signal.iter().map(|&x| Complex::new(x, 0.0)).collect());
    }
    if !n.is_power_of_two() {
        return Err(FftError::NotPowerOfTwo { len: n });
    }
    let m = n / 2;
    let mut spectrum = vec![Complex::default(); n];
    SCRATCH.with_borrow_mut(|(z, _)| {
        let halves = real_forward(signal, n, z);
        // At k = n/4 both name one bin; the ½(e + t) form is written last.
        for k in 0..=m / 2 {
            let (e, t) = halves(k);
            spectrum[m - k] = e.sub(t).conj().scale(0.5);
            spectrum[k] = e.add(t).scale(0.5);
        }
    });
    // The upper half mirrors the lower.
    for k in 1..m {
        spectrum[n - k] = spectrum[k].conj();
    }
    Ok(spectrum)
}

/// Autocorrelation lags `0..=max_lag` (clamped to `len − 1`; one `0.0`
/// for an empty frame) by the Wiener–Khinchin route a hardware FFT
/// front-end takes: power spectrum of the frame zero-padded to `n`
/// points, then its inverse transform at the kept lags.
///
/// The inverse transform is the circular correlation, which at lag `L`
/// is `r[L] + r[n − L]`, and `r[j]` is zero for `j ≥ len`. Keeping
/// `count` lags, every `n − L` is at least `n − count + 1`, so
/// `n = (len + count − 1).next_power_of_two()` (at least 4, the
/// smallest size the cosine sum folds) is the smallest transform whose
/// kept lags are exact: `2·len` points are needed only to keep all of
/// them.
pub fn autocorrelation(frame: &[f64], max_lag: usize) -> Vec<f64> {
    let mut lags = Vec::new();
    autocorrelation_into(frame, max_lag, &mut lags);
    lags
}

/// [`autocorrelation`] into `lags`, which is cleared first.
pub fn autocorrelation_into(frame: &[f64], max_lag: usize, lags: &mut Vec<f64>) {
    lags.clear();
    if frame.len() <= 1 {
        lags.push(frame.first().map_or(0.0, |x| x * x));
        return;
    }
    let count = max_lag.min(frame.len() - 1) + 1;
    let n = (frame.len() + count - 1).next_power_of_two().max(4);
    SCRATCH.with_borrow_mut(|(z, folded)| {
        let halves = real_forward(frame, n, z);
        // Bins k and n/2 − k of the power spectrum are ¼|e ± t|², so
        // their sum is ½(|e|² + |t|²) and their difference Re(e·t̄).
        folded.clear();
        folded.extend((0..=n / 4).map(|k| {
            let (e, t) = halves(k);
            [
                0.5 * (e.norm_sqr() + t.norm_sqr()),
                e.re * t.re + e.im * t.im,
            ]
        }));
        lags.extend((0..count).map(|lag| inverse_at_lag(folded, lag) / n as f64));
    });
}

/// `Σ P[k]·cos(2πk·lag/n)` over all `n ≥ 4` bins of a real signal's
/// power spectrum `P`: the unscaled inverse transform of a real, even
/// spectrum at one lag. The sum is folded twice — `P[n − k] = P[k]`,
/// and bins `k` and `n/2 − k` see the same cosine up to `(−1)^lag` — so
/// it takes `folded[k] = [P[k] + P[n/2 − k], P[k] − P[n/2 − k]]` for
/// `k ∈ 0..=n/4`, and reads the first at even lags, the second at odd.
/// The cosines come off the plan's last twiddle run, whose `n/2` entries
/// span half a turn: `cos(2πj/n)` is `w[j mod n/2].re` with its sign bit
/// flipped when `j mod n` is in the second half turn, i.e. when bit
/// log₂(n/2) of `j` is set.
fn inverse_at_lag(folded: &[[f64; 2]], lag: usize) -> f64 {
    let m = 2 * (folded.len() - 1);
    let w = &plan(2 * m).twiddles[m..];
    let half_turn = m.trailing_zeros();
    let parity = lag & 1;
    let term = |k: usize| {
        let j = k * lag;
        let flip = ((j >> half_turn) & 1) as u64;
        let cos = f64::from_bits(w[j & (m - 1)].re.to_bits() ^ (flip << 63));
        folded[k][parity] * cos
    };
    // Four independent partial sums, so the additions pipeline.
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    let mut k = 1;
    while k + 4 <= m / 2 {
        a0 += term(k);
        a1 += term(k + 1);
        a2 += term(k + 2);
        a3 += term(k + 3);
        k += 4;
    }
    for k in k..m / 2 {
        a0 += term(k);
    }
    term(0) + term(m / 2) + 2.0 * ((a0 + a1) + (a2 + a3))
}

/// Cycle-cost model of a streaming FFT core: `~5·N·log2(N)` cycles plus
/// load/unload — the figure used when an FFT actor fires in the platform
/// simulator.
pub fn fft_cycles(n: usize) -> u64 {
    if n < 2 {
        return 8;
    }
    let logn = (usize::BITS - (n - 1).leading_zeros()) as u64;
    5 * n as u64 * logn + 2 * n as u64
}

#[cfg(test)]
mod tests {
    use spi_platform::rng::SplitMix64;

    use super::*;

    /// The O(n²) definition, with the angle reduced mod n so the
    /// reference stays exact at the large sizes.
    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        let roots: Vec<Complex> = (0..n)
            .map(|j| {
                let ang = -2.0 * PI * j as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (j, &v) in x.iter().enumerate() {
                    acc = acc.add(v.mul(roots[k * j % n]));
                }
                acc
            })
            .collect()
    }

    /// A seeded test signal of `n` points in [−1, 1)².
    fn signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut unit = move || rng.gen_range(-1.0..1.0);
        (0..n).map(|_| Complex::new(unit(), unit())).collect()
    }

    fn norm(x: &[Complex]) -> f64 {
        x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    fn max_error(got: &[Complex], want: &[Complex]) -> f64 {
        assert_eq!(got.len(), want.len());
        got.iter()
            .zip(want)
            .map(|(a, b)| a.sub(*b).abs())
            .fold(0.0, f64::max)
    }

    /// `fft` against the naive DFT at every power of two `2..=max`.
    fn differential_up_to(max: usize) {
        let mut n = 2;
        while n <= max {
            let x = signal(n, n as u64);
            let mut got = x.clone();
            fft(&mut got).unwrap();
            let err = max_error(&got, &naive_dft(&x));
            assert!(err <= 1e-9 * norm(&x), "n = {n}: error {err:e}");
            n *= 2;
        }
    }

    #[test]
    fn matches_naive_dft() {
        differential_up_to(4096);
    }

    /// The long form: `cargo test -p spi-dsp --release -- --include-ignored`.
    #[test]
    #[ignore = "O(n²) reference up to 65536 points; the nightly verify tier runs it"]
    fn matches_naive_dft_long() {
        differential_up_to(1 << 16);
    }

    #[test]
    fn roundtrip_fft_ifft() {
        for n in [1, 2, 64, 512, 1024] {
            let x = signal(n, 3);
            let mut y = x.clone();
            fft(&mut y).unwrap();
            ifft(&mut y).unwrap();
            let err = max_error(&y, &x);
            assert!(err <= 1e-9 * norm(&x), "n = {n}: error {err:e}");
        }
    }

    #[test]
    fn real_path_matches_complex_path_bin_for_bin() {
        let mut n = 1;
        while n <= 4096 {
            let x: Vec<f64> = signal(n, 17).iter().map(|z| z.re).collect();
            let mut want: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            fft(&mut want).unwrap();
            let got = fft_real(&x).unwrap();
            let err = max_error(&got, &want);
            assert!(
                err <= 1e-12 * norm(&want).max(1.0),
                "n = {n}: error {err:e}"
            );
            n *= 2;
        }
        assert_eq!(fft_real(&[]), Ok(Vec::new()));
        assert_eq!(
            fft_real(&[0.0; 12]),
            Err(FftError::NotPowerOfTwo { len: 12 })
        );
    }

    #[test]
    fn real_path_edge_bins_at_two_and_four_points() {
        // n/2 = 1 has only the self-paired bins 0 and n/2; n = 4 adds
        // the one bin that pairs with itself at k = n/4.
        let got = fft_real(&[3.0, -1.0]).unwrap();
        assert_eq!(got, vec![Complex::new(2.0, 0.0), Complex::new(4.0, 0.0)]);
        let got = fft_real(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let want = [(10.0, 0.0), (-2.0, 2.0), (-2.0, 0.0), (-2.0, -2.0)];
        for (z, (re, im)) in got.iter().zip(want) {
            assert!(z.sub(Complex::new(re, im)).abs() < 1e-15, "{got:?}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::default(); 8];
        x[0] = Complex::new(1.0, 0.0);
        fft(&mut x).unwrap();
        for z in &x {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sine_concentrates_in_one_bin() {
        let n = 32;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 4.0 * i as f64 / n as f64).sin())
            .collect();
        let spec = fft_real(&signal).unwrap();
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        assert!(peak == 4 || peak == n - 4, "peak at bin {peak}");
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex::default(); 12];
        assert_eq!(fft(&mut x), Err(FftError::NotPowerOfTwo { len: 12 }));
        assert_eq!(ifft(&mut x), Err(FftError::NotPowerOfTwo { len: 12 }));
        // 3·2¹⁶ lies between two sizes no test transforms: had the
        // length reached the planner, one of their slots would be set.
        let mut x = vec![Complex::default(); 3 << 16];
        assert_eq!(fft(&mut x), Err(FftError::NotPowerOfTwo { len: 3 << 16 }));
        assert!(PLANS[17].get().is_none() && PLANS[18].get().is_none());
    }

    #[test]
    fn empty_input_is_noop() {
        let mut x: Vec<Complex> = Vec::new();
        assert!(fft(&mut x).is_ok());
    }

    #[test]
    fn single_point_is_the_identity() {
        let mut x = vec![Complex::new(2.5, -1.0)];
        fft(&mut x).unwrap();
        ifft(&mut x).unwrap();
        assert_eq!(x, vec![Complex::new(2.5, -1.0)]);
        assert!(PLANS[0].get().is_none(), "no plan below two points");
    }

    #[test]
    fn first_calls_from_two_threads_agree_bit_for_bit() {
        // 2¹³ is this test's own size: both threads race to build its
        // plan, and whoever loses must read the winner's tables.
        let x = signal(1 << 13, 29);
        let barrier = std::sync::Barrier::new(2);
        let run = || {
            let mut y = x.clone();
            barrier.wait();
            fft(&mut y).unwrap();
            y
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(run);
            (run(), other.join().expect("transform thread"))
        });
        assert_eq!(a, b);
        let mut again = x.clone();
        fft(&mut again).unwrap();
        assert_eq!(a, again);
    }

    #[test]
    fn autocorrelation_lag_count_at_the_edges() {
        // (len, max_lag) → max_lag.min(len − 1) + 1 lags. Frames of 0
        // and 1 samples need no transform; 2 samples pad to 4 points and
        // 3 samples at 3 lags to 8, the two smallest sizes the cosine
        // sum's fold sees (its middle bin is then bin 1 and bin 2).
        assert_eq!(autocorrelation(&[], 4), vec![0.0]);
        assert_eq!(autocorrelation(&[3.0], 4), vec![9.0]);
        assert_eq!(autocorrelation(&[3.0], 0), vec![9.0]);
        let close = |got: Vec<f64>, want: &[f64]| {
            assert_eq!(got.len(), want.len(), "{got:?}");
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() <= 1e-12 * want[0], "{got:?} vs {want:?}");
            }
        };
        close(autocorrelation(&[1.0, 2.0], 0), &[5.0]);
        close(autocorrelation(&[1.0, 2.0], 1), &[5.0, 2.0]);
        close(autocorrelation(&[1.0, 2.0], 9), &[5.0, 2.0]);
        close(autocorrelation(&[1.0, 2.0, 3.0], 2), &[14.0, 8.0, 3.0]);
        close(autocorrelation(&[1.0, 2.0, 3.0], 3), &[14.0, 8.0, 3.0]);
    }

    /// `autocorrelation` of a seeded frame of `len` samples against the
    /// direct lag sum, every lag within `1e-12·r0`.
    fn assert_exact_lags(len: usize, max_lag: usize) {
        let frame: Vec<f64> = signal(len, len as u64).iter().map(|z| z.re).collect();
        let want = crate::lpc::autocorrelation(&frame, max_lag.min(len.saturating_sub(1)));
        let got = autocorrelation(&frame, max_lag);
        assert_eq!(got.len(), want.len(), "len {len}, max_lag {max_lag}");
        for (lag, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * want[0],
                "len {len}, max_lag {max_lag}, lag {lag}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn autocorrelation_is_exact_either_side_of_every_padding_size() {
        // The transform has (len + count − 1).next_power_of_two() points:
        // with len + count − 1 = 2^k + 1 the kept lag count − 1 is the
        // one a transform of 2^k points would fold r[len − 1] into.
        for k in 2..=10 {
            for span in [(1 << k) - 1, 1 << k, (1 << k) + 1] {
                // len ≥ count, so that max_lag = count − 1 is not clamped.
                for count in (1..=17usize).filter(|&count| 2 * count <= span + 1) {
                    assert_exact_lags(span + 1 - count, count - 1);
                }
            }
        }
    }

    /// The long form: `cargo test -p spi-dsp --release -- --include-ignored`.
    #[test]
    #[ignore = "every frame length to 4096 at every order to 16; the nightly verify tier runs it"]
    fn autocorrelation_is_exact_at_every_length_and_order() {
        for len in 1..=4096 {
            for order in 0..=16 {
                assert_exact_lags(len, order);
            }
        }
    }

    #[test]
    fn cost_model_grows_superlinearly() {
        assert!(fft_cycles(1024) > 2 * fft_cycles(512));
        assert!(fft_cycles(2) >= 8);
    }

    #[test]
    fn linearity_property() {
        // FFT(a·x + y) = a·FFT(x) + FFT(y)
        let x: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
        let y: Vec<Complex> = (0..16).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let a = 2.5;
        let mut lhs: Vec<Complex> = x
            .iter()
            .zip(&y)
            .map(|(u, v)| Complex::new(a * u.re + v.re, a * u.im + v.im))
            .collect();
        fft(&mut lhs).unwrap();
        let mut fx = x.clone();
        let mut fy = y.clone();
        fft(&mut fx).unwrap();
        fft(&mut fy).unwrap();
        for i in 0..16 {
            let want_re = a * fx[i].re + fy[i].re;
            let want_im = a * fx[i].im + fy[i].im;
            assert!((lhs[i].re - want_re).abs() < 1e-9);
            assert!((lhs[i].im - want_im).abs() < 1e-9);
        }
    }
}
