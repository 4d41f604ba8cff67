//! Particle filter for crack-growth failure prognosis (application 2).
//!
//! Reproduces the tracking problem of Orchard et al. that the paper uses:
//! recursively estimate a turbine-blade crack length from noisy
//! observations. The state model is a Paris-law growth equation; the
//! filter is sampling-importance-resampling (SIR) with systematic
//! resampling.
//!
//! For the multiprocessor implementation the resampling step is split
//! exactly as in paper §5.3:
//! 1. each PE computes a **partial weight sum** and exchanges it;
//! 2. each PE **locally resamples** a proportionally-allocated share of
//!    the global particle count;
//! 3. **intra-resampling**: surplus particles travel to deficit PEs so
//!    every PE again holds `N/n` particles.

use spi_platform::rng::SplitMix64;

/// Paris-law crack-growth model with additive Gaussian process noise.
///
/// `a_{k+1} = a_k + c · (β · Δσ · √(π·a_k))^m + w_k`,
/// observed as `y_k = a_k + v_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrackModel {
    /// Paris-law coefficient `C`.
    pub c: f64,
    /// Paris-law exponent `m`.
    pub m: f64,
    /// Geometry × stress-range factor `β·Δσ`.
    pub stress_factor: f64,
    /// Process noise standard deviation.
    pub process_noise: f64,
    /// Measurement noise standard deviation.
    pub measurement_noise: f64,
}

impl Default for CrackModel {
    fn default() -> Self {
        // Millimetre-scale crack growing over hundreds of load cycles.
        CrackModel {
            c: 1e-3,
            m: 1.3,
            stress_factor: 1.0,
            process_noise: 0.02,
            measurement_noise: 0.15,
        }
    }
}

impl CrackModel {
    /// Deterministic part of one growth step.
    pub fn growth(&self, a: f64) -> f64 {
        let a = a.max(1e-9);
        let dk = self.stress_factor * (std::f64::consts::PI * a).sqrt();
        self.c * dk.powf(self.m)
    }

    /// Propagates a crack length one step with process noise from `rng`.
    pub fn step(&self, a: f64, rng: &mut SplitMix64) -> f64 {
        (a + self.growth(a) + gaussian(rng) * self.process_noise).max(0.0)
    }

    /// Simulates a ground-truth trajectory and its noisy observations.
    pub fn simulate(&self, a0: f64, steps: usize, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let mut truth = Vec::with_capacity(steps);
        let mut obs = Vec::with_capacity(steps);
        let mut a = a0;
        for _ in 0..steps {
            a = self.step(a, rng);
            truth.push(a);
            obs.push(a + gaussian(rng) * self.measurement_noise);
        }
        (truth, obs)
    }

    /// Gaussian likelihood `p(y | a)` up to a constant factor.
    pub fn likelihood(&self, a: f64, y: f64) -> f64 {
        let d = (y - a) / self.measurement_noise;
        (-0.5 * d * d).exp().max(1e-300)
    }
}

/// Standard-normal sample via Box–Muller.
pub fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The particles and importance weights of a sampling-importance-resampling
/// filter over crack length; each PE of the distributed filter holds one.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleFilter {
    /// The dynamics/observation model.
    pub model: CrackModel,
    /// Particle states (crack lengths).
    pub particles: Vec<f64>,
    /// Importance weights: uniform after a resampling step, scaled by
    /// the likelihood of each observation, never normalized.
    pub weights: Vec<f64>,
}

impl ParticleFilter {
    /// Initializes `n` particles uniformly in `[lo, hi]`.
    pub fn new(model: CrackModel, n: usize, lo: f64, hi: f64, rng: &mut SplitMix64) -> Self {
        let particles: Vec<f64> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        let weights = vec![1.0 / n as f64; n];
        ParticleFilter {
            model,
            particles,
            weights,
        }
    }

    /// Prediction step (actor "E"): propagate every particle.
    pub fn predict(&mut self, rng: &mut SplitMix64) {
        for p in &mut self.particles {
            *p = self.model.step(*p, rng);
        }
    }

    /// Update step without normalization: reweight against `y` but keep
    /// raw likelihood-scaled weights. The distributed implementation
    /// needs this — partial weight sums from different PEs are only
    /// comparable before local normalization.
    pub fn update_unnormalized(&mut self, y: f64) {
        for (p, w) in self.particles.iter().zip(self.weights.iter_mut()) {
            *w *= self.model.likelihood(*p, y);
        }
    }
}

/// Draws `count` particles with multiplicities proportional to `weights`
/// via the low-variance systematic scheme. The paper's scheme: "new
/// samples are exact replicas of some of the old samples, occurring with
/// multiplicities proportional to their previous weights."
///
/// The one random offset is drawn from `rng` before this returns; the
/// draws come one at a time, so a caller writes them wherever they go.
/// Weights that sum to no more than zero replicate the particles in
/// turn, and no particles draw nothing.
pub fn systematic_draw<'a>(
    particles: &'a [f64],
    weights: &'a [f64],
    count: usize,
    rng: &mut SplitMix64,
) -> impl Iterator<Item = f64> + 'a {
    assert_eq!(particles.len(), weights.len());
    let count = if particles.is_empty() { 0 } else { count };
    let total: f64 = weights.iter().sum();
    let degenerate = total <= 0.0;
    let step = total / count as f64;
    let mut u = if degenerate || count == 0 {
        0.0
    } else {
        rng.gen_range(0.0..step)
    };
    let (mut cum, mut i) = (weights.first().copied().unwrap_or(0.0), 0);
    (0..count).map(move |k| {
        if degenerate {
            return particles[k % particles.len()];
        }
        while u > cum && i + 1 < particles.len() {
            i += 1;
            cum += weights[i];
        }
        u += step;
        particles[i]
    })
}

// ---------------------------------------------------------------------
// Distributed resampling (paper §5.3)
// ---------------------------------------------------------------------

/// Proportional allocation of `total_count` resampled particles to PEs
/// given their partial weight sums, using the largest-remainder method so
/// the counts sum exactly to `total_count`. The counts go into `counts`,
/// which is cleared first, one per PE.
pub fn allocate_counts(partial_sums: &[f64], total_count: usize, counts: &mut Vec<usize>) {
    counts.clear();
    let total: f64 = partial_sums.iter().sum();
    let n = partial_sums.len();
    if n == 0 {
        return;
    }
    if total <= 0.0 {
        // Degenerate: spread evenly.
        let base = total_count / n;
        let extra = total_count - base * n;
        counts.extend((0..n).map(|i| base + usize::from(i < extra)));
        return;
    }
    let exact = |i: usize| partial_sums[i] / total * total_count as f64;
    let fraction = |i: usize| exact(i) - exact(i).floor();
    let assigned: usize = (0..n).map(|i| exact(i).floor() as usize).sum();
    // The remainder goes one unit each to the PEs with the largest
    // fractional parts, the lower index first on a tie: a PE gets one
    // if fewer than `remainder` PEs come before it in that order.
    let remainder = total_count - assigned;
    let ahead = |i: usize| {
        let before = |j: usize| fraction(i).total_cmp(&fraction(j)).then(j.cmp(&i)).is_lt();
        (0..n).filter(|&j| before(j)).count()
    };
    counts.extend((0..n).map(|i| exact(i).floor() as usize + usize::from(ahead(i) < remainder)));
}

/// One planned particle transfer between PEs during intra-resampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// Sending PE index (has surplus particles).
    pub from: usize,
    /// Receiving PE index (has a deficit).
    pub to: usize,
    /// Number of particles to move.
    pub count: usize,
}

/// Plans the intra-resampling exchanges: PEs whose allocated `counts`
/// exceed `target` ship surplus particles to PEs below `target`, so all
/// PEs end with exactly `target` particles. Surplus and deficit PEs are
/// paired in index order, one exchange at a time.
///
/// # Panics
///
/// Panics if `counts.len() * target != counts.iter().sum()` — allocation
/// and target must be consistent.
pub fn plan_exchanges(counts: &[usize], target: usize) -> impl Iterator<Item = Exchange> + '_ {
    let total: usize = counts.iter().sum();
    assert_eq!(
        total,
        counts.len() * target,
        "allocation must redistribute exactly the global particle count"
    );
    let pes = counts.iter().copied().enumerate();
    let mut surplus = pes
        .clone()
        .map(move |(i, c)| (i, c.saturating_sub(target)))
        .filter(|&(_, spare)| spare > 0);
    let mut deficit = pes
        .map(move |(i, c)| (i, target.saturating_sub(c)))
        .filter(|&(_, short)| short > 0);
    let (mut from, mut to) = (surplus.next(), deficit.next());
    std::iter::from_fn(move || {
        let (sender, receiver) = (from.as_mut()?, to.as_mut()?);
        let count = sender.1.min(receiver.1);
        sender.1 -= count;
        receiver.1 -= count;
        let exchange = Exchange {
            from: sender.0,
            to: receiver.0,
            count,
        };
        if sender.1 == 0 {
            from = surplus.next();
        }
        if receiver.1 == 0 {
            to = deficit.next();
        }
        Some(exchange)
    })
}

/// Remaining-useful-life estimate: propagates each particle forward
/// (with process noise) until its crack length crosses `threshold`,
/// returning the per-particle step counts — the distribution failure
/// prognosis reports. Particles that survive `horizon` steps are
/// censored at `horizon`.
pub fn remaining_useful_life(
    model: &CrackModel,
    particles: &[f64],
    threshold: f64,
    horizon: usize,
    rng: &mut SplitMix64,
) -> Vec<usize> {
    particles
        .iter()
        .map(|&p0| {
            let mut a = p0;
            for step in 0..horizon {
                if a >= threshold {
                    return step;
                }
                a = model.step(a, rng);
            }
            horizon
        })
        .collect()
}

/// Summary statistics of a RUL distribution: `(mean, 10th percentile,
/// 90th percentile)` in steps.
pub fn rul_summary(mut rul: Vec<usize>) -> (f64, usize, usize) {
    if rul.is_empty() {
        return (0.0, 0, 0);
    }
    rul.sort_unstable();
    let mean = rul.iter().sum::<usize>() as f64 / rul.len() as f64;
    let p10 = rul[rul.len() / 10];
    let p90 = rul[rul.len() * 9 / 10];
    (mean, p10, p90)
}

/// Cycle-cost models for the particle-filter actors (pipelined datapaths,
/// a handful of cycles per particle).
pub mod cost {
    /// Prediction (state propagation) over `p` particles.
    pub fn estimate_cycles(p: usize) -> u64 {
        12 * p as u64 + 30
    }

    /// Weight update over `p` particles (exp evaluation dominated).
    pub fn update_cycles(p: usize) -> u64 {
        18 * p as u64 + 30
    }

    /// Local resampling of `p` particles.
    pub fn resample_cycles(p: usize) -> u64 {
        8 * p as u64 + 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn model_growth_is_monotone_in_crack_length() {
        let m = CrackModel::default();
        assert!(m.growth(2.0) > m.growth(1.0));
        assert!(m.growth(1.0) > 0.0);
    }

    #[test]
    fn filter_tracks_simulated_crack() {
        // One PE's filter alone: predict, reweight, estimate from the
        // weighted sums, and resample every step.
        let mut r = rng();
        let model = CrackModel::default();
        let (truth, obs) = model.simulate(1.0, 60, &mut r);
        let mut pf = ParticleFilter::new(model, 300, 0.5, 1.5, &mut r);
        let mut errs = Vec::new();
        for (t, &y) in obs.iter().enumerate() {
            pf.predict(&mut r);
            pf.update_unnormalized(y);
            let weighted: f64 = pf
                .particles
                .iter()
                .zip(&pf.weights)
                .map(|(p, w)| p * w)
                .sum();
            if t >= 10 {
                errs.push((weighted / pf.weights.iter().sum::<f64>() - truth[t]).abs());
            }
            pf.particles = systematic_draw(&pf.particles, &pf.weights, 300, &mut r).collect();
            pf.weights.fill(1.0 / 300.0);
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            mean_err < 2.0 * model.measurement_noise,
            "filter must beat raw measurements: {mean_err}"
        );
    }

    #[test]
    fn systematic_resample_concentrates_on_heavy_particles() {
        let mut r = rng();
        let particles = vec![1.0, 2.0, 3.0, 4.0];
        let weights = vec![0.0, 0.9, 0.1, 0.0];
        let drawn: Vec<f64> = systematic_draw(&particles, &weights, 1000, &mut r).collect();
        assert_eq!(drawn.len(), 1000);
        let n2 = drawn.iter().filter(|&&p| p == 2.0).count();
        let n4 = drawn.iter().filter(|&&p| p == 4.0).count();
        assert!(
            n2 > 850 && n2 < 950,
            "≈90% replicas of the heavy particle, got {n2}"
        );
        assert_eq!(n4, 0);
    }

    #[test]
    fn degenerate_draws_take_no_random_offset() {
        // Zero weights replicate the particles in turn; no particles or
        // no count draw nothing. None of them moves the stream.
        let mut r = rng();
        let zero: Vec<f64> = systematic_draw(&[1.0, 2.0], &[0.0, 0.0], 5, &mut r).collect();
        assert_eq!(zero, [1.0, 2.0, 1.0, 2.0, 1.0]);
        assert_eq!(systematic_draw(&[], &[], 5, &mut r).count(), 0);
        assert_eq!(systematic_draw(&[1.0], &[1.0], 0, &mut r).count(), 0);
        assert_eq!(r.next_u64(), rng().next_u64());
    }

    #[test]
    fn allocate_counts_sums_exactly() {
        let sums = [0.5, 0.25, 0.125, 0.125];
        let mut counts = vec![7];
        allocate_counts(&sums, 200, &mut counts);
        assert_eq!(counts.iter().sum::<usize>(), 200);
        assert_eq!(counts, vec![100, 50, 25, 25]);
    }

    #[test]
    fn allocate_counts_handles_remainders() {
        let sums = [1.0, 1.0, 1.0];
        let mut counts = Vec::new();
        allocate_counts(&sums, 100, &mut counts);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert_eq!(counts, [34, 33, 33], "a tie goes to the lower index");
        // The largest fractional part comes first, then the lower index.
        allocate_counts(&[0.3, 1.0, 1.0, 0.3], 10, &mut counts);
        assert_eq!(counts, [1, 4, 4, 1]);
        allocate_counts(&[1.0, 2.0, 1.0], 5, &mut counts);
        assert_eq!(counts, [1, 3, 1]);
    }

    #[test]
    fn allocate_counts_degenerate_weights() {
        let mut counts = Vec::new();
        allocate_counts(&[0.0, 0.0], 10, &mut counts);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        allocate_counts(&[0.0, 0.0, 0.0], 11, &mut counts);
        assert_eq!(counts, [4, 4, 3]);
        allocate_counts(&[], 11, &mut counts);
        assert!(counts.is_empty());
    }

    #[test]
    fn exchange_plan_balances_all_pes() {
        let counts = vec![70, 10, 20, 100];
        let target = 50;
        let plan: Vec<Exchange> = plan_exchanges(&counts, target).collect();
        let mut after = counts.clone();
        for x in &plan {
            after[x.from] -= x.count;
            after[x.to] += x.count;
        }
        assert!(after.iter().all(|&c| c == target), "after: {after:?}");
        // Surplus and deficit PEs pair in index order.
        let x = |from, to, count| Exchange { from, to, count };
        assert_eq!(plan, [x(0, 1, 20), x(3, 1, 20), x(3, 2, 30)]);
        // Surplus PEs only send; deficit PEs only receive.
        for x in &plan {
            assert!(counts[x.from] > target);
            assert!(counts[x.to] < target);
            assert!(x.count > 0);
        }
    }

    #[test]
    fn exchange_plan_empty_when_balanced() {
        assert_eq!(plan_exchanges(&[50, 50], 50).count(), 0);
    }

    #[test]
    #[should_panic(expected = "allocation must redistribute")]
    fn exchange_plan_rejects_inconsistent_totals() {
        let _ = plan_exchanges(&[10, 10], 50);
    }

    #[test]
    fn distributed_resampling_equals_global_in_distribution() {
        // Partition particles over 2 PEs, run the 3-step distributed
        // scheme, and check the pooled result has the same weighted mean
        // as a global resample (within Monte-Carlo tolerance).
        let mut r = rng();
        let n = 2000;
        let particles: Vec<f64> = (0..n).map(|i| (i % 50) as f64 / 10.0).collect();
        let raw: Vec<f64> = particles.iter().map(|&p| (p - 2.0).abs() + 0.01).collect();
        let total: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total).collect();

        // Global reference.
        let global: Vec<f64> = systematic_draw(&particles, &weights, n, &mut r).collect();
        let gmean = global.iter().sum::<f64>() / n as f64;

        // Distributed: split halves.
        let halves = [(0..n / 2), (n / 2..n)];
        let partial: Vec<f64> = halves
            .clone()
            .into_iter()
            .map(|range| range.map(|i| weights[i]).sum())
            .collect();
        let mut alloc = Vec::new();
        allocate_counts(&partial, n, &mut alloc);
        let mut pooled = Vec::new();
        for (range, &count) in halves.into_iter().zip(&alloc) {
            let idx: Vec<usize> = range.collect();
            let p: Vec<f64> = idx.iter().map(|&i| particles[i]).collect();
            let w: Vec<f64> = idx.iter().map(|&i| weights[i]).collect();
            pooled.extend(systematic_draw(&p, &w, count, &mut r));
        }
        assert_eq!(pooled.len(), n);
        let dmean = pooled.iter().sum::<f64>() / n as f64;
        assert!(
            (gmean - dmean).abs() < 0.1,
            "global {gmean} vs distributed {dmean}"
        );
    }

    #[test]
    fn rul_grows_with_distance_to_threshold() {
        let mut r = rng();
        let model = CrackModel {
            process_noise: 0.005,
            ..CrackModel::default()
        };
        let near: Vec<f64> = vec![2.8; 200];
        let far: Vec<f64> = vec![1.0; 200];
        let rul_near = remaining_useful_life(&model, &near, 3.0, 10_000, &mut r);
        let rul_far = remaining_useful_life(&model, &far, 3.0, 10_000, &mut r);
        let (m_near, ..) = rul_summary(rul_near);
        let (m_far, p10, p90) = rul_summary(rul_far);
        assert!(m_far > m_near * 2.0, "far {m_far} vs near {m_near}");
        assert!(p10 <= p90);
    }

    #[test]
    fn rul_censors_at_horizon() {
        let mut r = rng();
        let model = CrackModel {
            c: 1e-9,
            process_noise: 0.0,
            ..CrackModel::default()
        };
        let rul = remaining_useful_life(&model, &[0.1; 10], 100.0, 50, &mut r);
        assert!(rul.iter().all(|&s| s == 50), "glacial growth never crosses");
        let crossed = remaining_useful_life(&model, &[200.0; 4], 100.0, 50, &mut r);
        assert!(crossed.iter().all(|&s| s == 0), "already failed");
    }

    #[test]
    fn rul_summary_of_empty_is_zero() {
        assert_eq!(rul_summary(Vec::new()), (0.0, 0, 0));
    }

    #[test]
    fn cost_models_scale_with_particles() {
        assert!(cost::estimate_cycles(300) > cost::estimate_cycles(50));
        assert_eq!(cost::update_cycles(100), 1830);
    }
}
