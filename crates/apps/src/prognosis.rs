//! Application 2: particle-filter crack-length prognosis (paper §5.3).
//!
//! A particle filter tracks crack-failure length in turbine-engine
//! blades (after Orchard et al., the paper's reference 10). Particles are distributed evenly
//! over `n` PEs; prediction ("E"), update ("U") and local work run fully
//! parallel, and only the resampling step ("S") communicates, split into
//! the paper's three sub-steps:
//!
//! 1. *partial resampling*: each PE computes its partial weight sum and
//!    exchanges it — a fixed-size message, so **SPI_static**;
//! 2. *local resampling*: each PE resamples its proportional share;
//! 3. *intra-resampling*: surplus particles move to deficit PEs — a
//!    run-time-varying payload, so **SPI_dynamic** (figure 5's second
//!    message).
//!
//! Each PE hosts three pipeline stages sharing one particle store; the
//! observation source lives on PE 0.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use spi::{Firing, SpiSystem, SpiSystemBuilder};
use spi_dataflow::{ActorId, EdgeId, SdfGraph};
use spi_dsp::particle::{
    allocate_counts, cost, plan_exchanges, remaining_useful_life, rul_summary, systematic_draw,
    CrackModel, ParticleFilter,
};
use spi_platform::components;
use spi_platform::rng::SplitMix64;
use spi_sched::ProcId;

use crate::error::{AppError, Result};
use crate::util::{f64s, put_f64s};

/// Configuration of the prognosis system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrognosisConfig {
    /// Number of PEs.
    pub n_pes: usize,
    /// Total particle count (paper: 50–300).
    pub particles: usize,
    /// Filter steps to precompute ground truth for.
    pub steps: usize,
    /// Crack-growth model.
    pub model: CrackModel,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PrognosisConfig {
    fn default() -> Self {
        PrognosisConfig {
            n_pes: 2,
            particles: 100,
            steps: 50,
            model: CrackModel::default(),
            seed: 42,
        }
    }
}

/// Per-PE particle store shared by the three stage actors of that PE.
#[derive(Debug)]
struct PeState {
    filter: ParticleFilter,
    /// The stream stage 1 seeds each step and stage 2's draw continues.
    rng: SplitMix64,
    /// Stage 2's draws, up to every particle of the step; stage 2
    /// ships those past this PE's share and keeps the share, which
    /// stage 3 merges with what arrives.
    kept: Vec<f64>,
}

/// The assembled application.
pub struct PrognosisApp {
    /// The dataflow graph (figure 4, distributed over `n` PEs).
    pub graph: SdfGraph,
    /// Observation source actor (PE 0).
    pub obs: ActorId,
    /// Predict+update stage per PE.
    pub stage1: Vec<ActorId>,
    /// Local-resample stage per PE.
    pub stage2: Vec<ActorId>,
    /// Intra-resample (merge) stage per PE.
    pub stage3: Vec<ActorId>,
    /// Static weight-sum edges, keyed `(from_pe, to_pe)`.
    pub sum_edges: HashMap<(usize, usize), EdgeId>,
    /// Dynamic particle-exchange edges, keyed `(from_pe, to_pe)`.
    pub particle_edges: HashMap<(usize, usize), EdgeId>,
    config: PrognosisConfig,
    /// Ground-truth crack lengths.
    pub truth: Vec<f64>,
    /// Noisy observations fed to the filter.
    pub observations: Arc<Vec<f64>>,
    /// Global MMSE estimates per step (filled by PE 0 while running).
    pub estimates: Arc<Mutex<Vec<f64>>>,
    /// Pooled particle set after the most recent resampling step
    /// (collected from every PE's merge stage).
    pub pooled_particles: Arc<Mutex<Vec<Vec<f64>>>>,
}

impl PrognosisApp {
    /// Builds the application graph and precomputes the scenario.
    ///
    /// # Errors
    ///
    /// [`AppError::Config`] on degenerate configurations.
    pub fn new(config: PrognosisConfig) -> Result<Self> {
        if config.n_pes == 0 {
            return Err(AppError::Config("n_pes must be positive".into()));
        }
        if config.particles < config.n_pes {
            return Err(AppError::Config(format!(
                "{} particles cannot cover {} PEs",
                config.particles, config.n_pes
            )));
        }
        let n = config.n_pes;
        let per_pe = config.particles / n;
        let mut g = SdfGraph::new();
        let obs = g.add_actor("obs", 10);
        let mut stage1 = Vec::new();
        let mut stage2 = Vec::new();
        let mut stage3 = Vec::new();
        for i in 0..n {
            stage1.push(g.add_actor(
                format!("E/U{i}"),
                cost::estimate_cycles(per_pe) + cost::update_cycles(per_pe),
            ));
            stage2.push(g.add_actor(format!("S-local{i}"), cost::resample_cycles(per_pe)));
            stage3.push(g.add_actor(format!("S-intra{i}"), cost::resample_cycles(per_pe / 2 + 1)));
        }
        let mut sum_edges = HashMap::new();
        let mut particle_edges = HashMap::new();
        let particle_bound_bytes = (config.particles * 8) as u32;
        for i in 0..n {
            // Observation to every PE's first stage.
            g.add_edge(obs, stage1[i], 1, 1, 0, 8)?;
            // Weight/estimate sums: stage1_i → stage2_j for all j
            // ("exchange local sums: known length, hence SPI_static").
            #[allow(clippy::needless_range_loop)] // (i, j) is the PE pair key
            for j in 0..n {
                let e = g.add_edge(stage1[i], stage2[j], 1, 1, 0, 16)?;
                sum_edges.insert((i, j), e);
            }
            // Particle exchange: stage2_i → stage3_j
            // ("varies at run-time, hence SPI_dynamic").
            for j in 0..n {
                let e = if i == j {
                    // Local hand-off is a static trigger; particles stay
                    // in the shared store.
                    g.add_edge(stage2[i], stage3[i], 1, 1, 0, 8)?
                } else {
                    g.add_dynamic_edge(stage2[i], stage3[j], 1, 1, 0, particle_bound_bytes)?
                };
                particle_edges.insert((i, j), e);
            }
        }

        // Precompute the scenario.
        let mut rng = SplitMix64::seed_from_u64(config.seed);
        let (truth, observations) = config.model.simulate(1.0, config.steps, &mut rng);

        Ok(PrognosisApp {
            graph: g,
            obs,
            stage1,
            stage2,
            stage3,
            sum_edges,
            particle_edges,
            config,
            truth,
            observations: Arc::new(observations),
            estimates: Arc::new(Mutex::new(Vec::new())),
            pooled_particles: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Lowers the application onto `n_pes` processors (stages of PE `i`
    /// on processor `i`; the observation source on processor 0).
    ///
    /// # Errors
    ///
    /// Any SPI build error; [`AppError::Config`] if `iterations` exceeds
    /// the precomputed scenario length.
    pub fn system(&self, iterations: u64) -> Result<SpiSystem> {
        let mut builder = SpiSystemBuilder::new(self.graph.clone());
        self.configure(&mut builder, iterations)?;
        builder.iterations(iterations);
        let map = self.actor_processor_map();
        Ok(builder.build(self.config.n_pes, move |a| map[&a])?)
    }

    /// The actor→processor map used by [`PrognosisApp::system`].
    pub fn actor_processor_map(&self) -> HashMap<ActorId, ProcId> {
        let mut map = HashMap::new();
        map.insert(self.obs, ProcId(0));
        for i in 0..self.config.n_pes {
            map.insert(self.stage1[i], ProcId(i));
            map.insert(self.stage2[i], ProcId(i));
            map.insert(self.stage3[i], ProcId(i));
        }
        map
    }

    /// Registers every actor implementation and resource estimate.
    ///
    /// # Errors
    ///
    /// [`AppError::Config`] if `iterations` exceeds the precomputed
    /// scenario.
    pub fn configure(&self, builder: &mut SpiSystemBuilder, iterations: u64) -> Result<()> {
        let cfg = self.config;
        let n = cfg.n_pes;
        let per_pe = cfg.particles / n;
        let total = per_pe * n; // divisible working count
        if iterations as usize > self.observations.len() {
            return Err(AppError::Config(format!(
                "{iterations} iterations exceed the {}-step scenario",
                self.observations.len()
            )));
        }

        // Shared per-PE particle stores.
        let states: Vec<Arc<Mutex<PeState>>> = (0..n)
            .map(|i| {
                let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ (0x9E37 + i as u64));
                let filter = ParticleFilter::new(cfg.model, per_pe, 0.5, 1.5, &mut rng);
                Arc::new(Mutex::new(PeState {
                    filter,
                    rng,
                    kept: Vec::with_capacity(total),
                }))
            })
            .collect();

        // ----- Observation source --------------------------------------
        let observations = Arc::clone(&self.observations);
        let obs_edges: Vec<EdgeId> = self.graph.out_edges(self.obs);
        builder.actor(self.obs, move |ctx: &mut Firing| {
            let y = observations[ctx.iter as usize];
            for &e in &obs_edges {
                ctx.output(e).extend(y.to_le_bytes());
            }
            10
        });
        builder.actor_resources(self.obs, components::io_interface());

        for i in 0..n {
            let obs_edge = self.graph.out_edges(self.obs)[i];

            // ----- Stage 1: predict + update + partial sums -------------
            let state = Arc::clone(&states[i]);
            let my_sum_edges: Vec<EdgeId> = (0..n).map(|j| self.sum_edges[&(i, j)]).collect();
            builder.actor(self.stage1[i], move |ctx: &mut Firing| {
                // The observation actor sends exactly one f64 an iteration.
                #[allow(clippy::expect_used)]
                let y =
                    f64::from_le_bytes(ctx.input(obs_edge).try_into().expect("8-byte observation"));
                let st = &mut *state.lock().unwrap_or_else(PoisonError::into_inner);
                st.rng = SplitMix64::seed_from_u64(
                    cfg.seed ^ ctx.iter.wrapping_mul(0x5851F42D) ^ (i as u64),
                );
                st.filter.predict(&mut st.rng);
                st.filter.update_unnormalized(y);
                let sum_w: f64 = st.filter.weights.iter().sum();
                let sum_wx: f64 = st
                    .filter
                    .particles
                    .iter()
                    .zip(&st.filter.weights)
                    .map(|(p, w)| p * w)
                    .sum();
                for &e in &my_sum_edges {
                    put_f64s(ctx.output(e), &[sum_w, sum_wx]);
                }
                cost::estimate_cycles(per_pe) + cost::update_cycles(per_pe)
            });
            builder.actor_resources(
                self.stage1[i],
                components::particle_filter_pe(per_pe as u64) + components::noise_generator(),
            );

            // ----- Stage 2: local resampling + exchange planning --------
            let state = Arc::clone(&states[i]);
            let in_sum_edges: Vec<EdgeId> = (0..n).map(|j| self.sum_edges[&(j, i)]).collect();
            let out_particle_edges: Vec<EdgeId> =
                (0..n).map(|j| self.particle_edges[&(i, j)]).collect();
            let estimates = Arc::clone(&self.estimates);
            let (mut sums_w, mut alloc) = (Vec::new(), Vec::new());
            builder.actor(self.stage2[i], move |ctx: &mut Firing| {
                // Gather all partial sums (same values on every PE).
                sums_w.clear();
                let mut total_wx = 0.0;
                for &e in &in_sum_edges {
                    let mut sums = f64s(ctx.input(e));
                    // Stage 1 writes its two sums on every sum edge.
                    #[allow(clippy::expect_used)]
                    let (w, wx) = (sums.next().expect("sum"), sums.next().expect("sum"));
                    sums_w.push(w);
                    total_wx += wx;
                }
                let total_w: f64 = sums_w.iter().sum();
                if i == 0 {
                    let estimate = if total_w > 0.0 {
                        total_wx / total_w
                    } else {
                        0.0
                    };
                    estimates
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(estimate);
                }
                // Proportional allocation + local systematic resample.
                allocate_counts(&sums_w, total, &mut alloc);
                let st = &mut *state.lock().unwrap_or_else(PoisonError::into_inner);
                let (particles, weights) = (&st.filter.particles, &st.filter.weights);
                st.kept.clear();
                st.kept
                    .extend(systematic_draw(particles, weights, alloc[i], &mut st.rng));
                // Ship surplus per the (identically computed) plan.
                let keep = per_pe.min(st.kept.len());
                let mut cursor = keep;
                for x in plan_exchanges(&alloc, per_pe).filter(|x| x.from == i) {
                    let chunk = &st.kept[cursor..cursor + x.count];
                    put_f64s(ctx.output(out_particle_edges[x.to]), chunk);
                    cursor += x.count;
                }
                st.kept.truncate(keep);
                // Local trigger (no exchange targets its own PE); an edge
                // without an exchange sends its empty slot.
                ctx.output(out_particle_edges[i])
                    .extend((keep as u64).to_le_bytes());
                cost::resample_cycles(per_pe)
            });

            // ----- Stage 3: merge incoming particles --------------------
            let state = Arc::clone(&states[i]);
            // The edge from this PE's own stage 2 is a trigger only.
            let in_particle_edges: Vec<EdgeId> = (0..n)
                .filter(|&j| j != i)
                .map(|j| self.particle_edges[&(j, i)])
                .collect();
            let pooled = Arc::clone(&self.pooled_particles);
            builder.actor(self.stage3[i], move |ctx: &mut Firing| {
                let st = &mut *state.lock().unwrap_or_else(PoisonError::into_inner);
                let merged = &mut st.filter.particles;
                merged.clear();
                merged.extend_from_slice(&st.kept);
                for &e in &in_particle_edges {
                    merged.extend(f64s(ctx.input(e)));
                }
                let received = merged.len();
                debug_assert_eq!(received, per_pe, "every PE ends balanced");
                // Contribute to the pooled global view of this step.
                {
                    let mut pool = pooled.lock().unwrap_or_else(PoisonError::into_inner);
                    let step = ctx.iter as usize;
                    if pool.len() <= step {
                        pool.resize_with(step + 1, || Vec::with_capacity(total));
                    }
                    pool[step].extend_from_slice(merged);
                }
                st.filter.weights.clear();
                st.filter
                    .weights
                    .resize(received, 1.0 / received.max(1) as f64);
                cost::resample_cycles(received / 2 + 1)
            });
        }
        Ok(())
    }

    /// The configuration this app was built with.
    pub fn config(&self) -> PrognosisConfig {
        self.config
    }

    /// Remaining-useful-life prognosis from the final pooled particle
    /// set: `(mean, p10, p90)` steps until the crack crosses
    /// `threshold`, censored at `horizon`. `None` before any resampling
    /// step has completed.
    pub fn remaining_useful_life(
        &self,
        threshold: f64,
        horizon: usize,
    ) -> Option<(f64, usize, usize)> {
        let pool = self
            .pooled_particles
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let last = pool.last()?.clone();
        drop(pool);
        if last.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::seed_from_u64(self.config.seed ^ 0x52554C);
        Some(rul_summary(remaining_useful_life(
            &self.config.model,
            &last,
            threshold,
            horizon,
            &mut rng,
        )))
    }

    /// RMS tracking error of the collected estimates against ground
    /// truth, skipping a `burn_in` prefix.
    pub fn tracking_rmse(&self, burn_in: usize) -> f64 {
        let est = self
            .estimates
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let pairs: Vec<(f64, f64)> = est
            .iter()
            .zip(&self.truth)
            .skip(burn_in)
            .map(|(&e, &t)| (e, t))
            .collect();
        if pairs.is_empty() {
            return f64::INFINITY;
        }
        let mse: f64 =
            pairs.iter().map(|(e, t)| (e - t) * (e - t)).sum::<f64>() / pairs.len() as f64;
        mse.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use spi_platform::{ThreadedRunner, TransportKind};

    use super::*;

    /// Application 2's steps straight from the kernels, with no graph,
    /// no schedule and no messages (§5.3): each PE's filter and stream
    /// seeded as the stages seed them, the partial sums gathered in PE
    /// order, `allocate_counts`, each PE's local draw, and
    /// `plan_exchanges` moving the draws past a PE's share to the PEs
    /// short of theirs, which append them after their own in sender
    /// order. Returns each step's estimate and its pooled particles,
    /// sorted.
    fn serial_steps(cfg: PrognosisConfig, observations: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = cfg.n_pes;
        let per_pe = cfg.particles / n;
        let mut filters: Vec<ParticleFilter> = (0..n)
            .map(|i| {
                let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ (0x9E37 + i as u64));
                ParticleFilter::new(cfg.model, per_pe, 0.5, 1.5, &mut rng)
            })
            .collect();
        let (mut estimates, mut pools) = (Vec::new(), Vec::new());
        for (step, &y) in observations.iter().enumerate() {
            let mut rngs = Vec::new();
            let (mut sums_w, mut total_wx) = (Vec::new(), 0.0);
            for (i, filter) in filters.iter_mut().enumerate() {
                let seed = cfg.seed ^ (step as u64).wrapping_mul(0x5851F42D) ^ (i as u64);
                let mut rng = SplitMix64::seed_from_u64(seed);
                filter.predict(&mut rng);
                filter.update_unnormalized(y);
                let weighted = filter.particles.iter().zip(&filter.weights);
                sums_w.push(filter.weights.iter().sum::<f64>());
                total_wx += weighted.map(|(p, w)| p * w).sum::<f64>();
                rngs.push(rng);
            }
            let total_w: f64 = sums_w.iter().sum();
            estimates.push(if total_w > 0.0 {
                total_wx / total_w
            } else {
                0.0
            });
            let mut alloc = Vec::new();
            allocate_counts(&sums_w, per_pe * n, &mut alloc);
            let drawn: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let filter = &filters[i];
                    systematic_draw(&filter.particles, &filter.weights, alloc[i], &mut rngs[i])
                        .collect()
                })
                .collect();
            // moved[to][from]: what the plan moves between two PEs.
            let mut moved = vec![vec![Vec::new(); n]; n];
            let mut shipped = vec![per_pe; n];
            for x in plan_exchanges(&alloc, per_pe) {
                let chunk = &drawn[x.from][shipped[x.from]..shipped[x.from] + x.count];
                moved[x.to][x.from].extend_from_slice(chunk);
                shipped[x.from] += x.count;
            }
            for ((filter, own), arrivals) in filters.iter_mut().zip(&drawn).zip(moved) {
                filter.particles = own[..per_pe.min(own.len())].to_vec();
                filter.particles.extend(arrivals.into_iter().flatten());
                filter.weights = vec![1.0 / filter.particles.len() as f64; filter.particles.len()];
            }
            let mut pool: Vec<f64> = filters.iter().flat_map(|f| f.particles.clone()).collect();
            pool.sort_by(f64::total_cmp);
            pools.push(pool);
        }
        (estimates, pools)
    }

    fn ring() -> ThreadedRunner {
        ThreadedRunner::new()
            .transport(TransportKind::Ring)
            .timeout(Duration::from_secs(10))
    }

    #[test]
    fn estimates_and_pools_equal_the_serial_steps_on_both_engines() {
        // At every PE count, on the DES and on the threaded ring, every
        // step's estimate equals the serial reference's bit for bit, and
        // so does the pooled particle set as a multiset (on threads the
        // PEs append to it in no fixed order). 100 particles at n = 3
        // leave one particle out of the working count.
        const STEPS: usize = 30;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n_pes in 1..=4 {
            for particles in [100, 300] {
                let cfg = PrognosisConfig {
                    n_pes,
                    particles,
                    steps: STEPS,
                    ..Default::default()
                };
                let scenario = PrognosisApp::new(cfg).unwrap().observations;
                let (estimates, pools) = serial_steps(cfg, &scenario);
                for engine in ["DES", "ring"] {
                    let what = format!("n = {n_pes}, {particles} particles, {engine}");
                    let app = PrognosisApp::new(cfg).unwrap();
                    let sys = app.system(STEPS as u64).unwrap();
                    let run = match engine {
                        "DES" => sys.run().map(drop),
                        _ => sys.run_threaded_with(&ring()).map(drop),
                    };
                    run.unwrap_or_else(|e| panic!("{what}: {e}"));
                    let got_estimates = app.estimates.lock().unwrap();
                    let got_pools = app.pooled_particles.lock().unwrap();
                    assert_eq!(got_estimates.len(), STEPS, "{what}");
                    assert_eq!(got_pools.len(), STEPS, "{what}");
                    for step in 0..STEPS {
                        let (got, want) = (got_estimates[step], estimates[step]);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{what}, step {step}: estimate {got} vs serial {want}"
                        );
                        let mut pool = got_pools[step].clone();
                        pool.sort_by(f64::total_cmp);
                        assert_eq!(
                            bits(&pool),
                            bits(&pools[step]),
                            "{what}, step {step}: pooled particles"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn graph_matches_figure4_distribution() {
        let app = PrognosisApp::new(PrognosisConfig {
            n_pes: 2,
            ..Default::default()
        })
        .unwrap();
        // obs + 3 stages × 2 PEs.
        assert_eq!(app.graph.actor_count(), 7);
        // 2 obs edges + 4 sum edges + 4 particle edges.
        assert_eq!(app.graph.edge_count(), 10);
        // Cross-PE particle edges are dynamic; sums are static.
        assert_eq!(app.graph.dynamic_edges().len(), 2);
    }

    #[test]
    fn config_validation() {
        assert!(PrognosisApp::new(PrognosisConfig {
            n_pes: 0,
            ..Default::default()
        })
        .is_err());
        assert!(PrognosisApp::new(PrognosisConfig {
            n_pes: 8,
            particles: 4,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn single_pe_filter_tracks_truth() {
        let app = PrognosisApp::new(PrognosisConfig {
            n_pes: 1,
            particles: 200,
            steps: 40,
            ..Default::default()
        })
        .unwrap();
        let sys = app.system(40).unwrap();
        sys.run().unwrap();
        let rmse = app.tracking_rmse(10);
        assert!(
            rmse < 2.0 * app.config().model.measurement_noise,
            "single-PE filter should track: rmse {rmse}"
        );
        assert_eq!(app.estimates.lock().unwrap().len(), 40);
    }

    #[test]
    fn two_pe_filter_tracks_truth() {
        let app = PrognosisApp::new(PrognosisConfig {
            n_pes: 2,
            particles: 200,
            steps: 40,
            ..Default::default()
        })
        .unwrap();
        let sys = app.system(40).unwrap();
        let report = sys.run().unwrap();
        let rmse = app.tracking_rmse(10);
        assert!(
            rmse < 2.0 * app.config().model.measurement_noise,
            "rmse {rmse}"
        );
        // Cross-PE traffic existed: sums + particle exchanges.
        assert!(report.sim.total_messages() > 0);
    }

    #[test]
    fn sum_edges_use_spi_static_particle_edges_dynamic() {
        let app = PrognosisApp::new(PrognosisConfig {
            n_pes: 2,
            particles: 64,
            steps: 10,
            ..Default::default()
        })
        .unwrap();
        let sys = app.system(5).unwrap();
        let plans = sys.edge_plans();
        let cross_sum = app.sum_edges[&(0, 1)];
        let cross_part = app.particle_edges[&(0, 1)];
        assert_eq!(plans[&cross_sum].phase, spi::SpiPhase::Static);
        assert_eq!(plans[&cross_part].phase, spi::SpiPhase::Dynamic);
        sys.run().unwrap();
    }

    #[test]
    fn rul_prognosis_shrinks_as_the_crack_grows() {
        // Run two scenarios from the same model: one stopped early (small
        // crack), one run long (bigger crack). RUL must shrink.
        let rul_after = |steps: u64| {
            let app = PrognosisApp::new(PrognosisConfig {
                n_pes: 2,
                particles: 200,
                steps: 120,
                ..Default::default()
            })
            .expect("valid config");
            let sys = app.system(steps).expect("buildable");
            sys.run().expect("clean run");
            app.remaining_useful_life(3.0, 100_000)
                .expect("pooled particles")
        };
        let (early_mean, ..) = rul_after(5);
        let (late_mean, p10, p90) = rul_after(110);
        assert!(
            late_mean < early_mean,
            "RUL must shrink as the crack grows: early {early_mean:.0} vs late {late_mean:.0}"
        );
        assert!(p10 <= p90);
    }

    #[test]
    fn iterations_beyond_scenario_rejected() {
        let app = PrognosisApp::new(PrognosisConfig {
            steps: 5,
            ..Default::default()
        })
        .unwrap();
        assert!(app.system(10).is_err());
    }
}
