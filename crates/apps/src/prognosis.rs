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
use crate::util::{f64s_from_bytes, put_f64s};

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
    rng: SplitMix64,
    /// Local resample result awaiting the exchange step.
    kept: Vec<f64>,
    surplus: Vec<f64>,
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
                    kept: Vec::new(),
                    surplus: Vec::new(),
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
                let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                st.rng = SplitMix64::seed_from_u64(
                    cfg.seed ^ ctx.iter.wrapping_mul(0x5851F42D) ^ (i as u64),
                );
                let mut rng = st.rng.clone();
                st.filter.predict(&mut rng);
                st.filter.update_unnormalized(y);
                let sum_w: f64 = st.filter.weights.iter().sum();
                let sum_wx: f64 = st
                    .filter
                    .particles
                    .iter()
                    .zip(&st.filter.weights)
                    .map(|(p, w)| p * w)
                    .sum();
                st.rng = rng;
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
            builder.actor(self.stage2[i], move |ctx: &mut Firing| {
                // Gather all partial sums (same values on every PE).
                let mut sums_w = vec![0.0; n];
                let mut total_wx = 0.0;
                for (j, &e) in in_sum_edges.iter().enumerate() {
                    let v = f64s_from_bytes(ctx.input(e));
                    sums_w[j] = v[0];
                    total_wx += v[1];
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
                let alloc = allocate_counts(&sums_w, total);
                let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                let mut rng = st.rng.clone();
                let drawn =
                    systematic_draw(&st.filter.particles, &st.filter.weights, alloc[i], &mut rng);
                st.rng = rng;
                let target = per_pe;
                let keep = target.min(drawn.len());
                st.kept = drawn[..keep].to_vec();
                st.surplus = drawn[keep..].to_vec();
                // Ship surplus per the (identically computed) plan.
                let plan = plan_exchanges(&alloc, target);
                let mut cursor = 0usize;
                for x in plan.iter().filter(|x| x.from == i) {
                    let chunk = &st.surplus[cursor..cursor + x.count];
                    put_f64s(ctx.output(out_particle_edges[x.to]), chunk);
                    cursor += x.count;
                }
                // Local trigger (no exchange targets its own PE); an edge
                // without an exchange sends its empty slot.
                let kept = st.kept.len() as u64;
                ctx.output(out_particle_edges[i]).extend(kept.to_le_bytes());
                cost::resample_cycles(per_pe)
            });

            // ----- Stage 3: merge incoming particles --------------------
            let state = Arc::clone(&states[i]);
            let in_particle_edges: Vec<(usize, EdgeId)> =
                (0..n).map(|j| (j, self.particle_edges[&(j, i)])).collect();
            let pooled = Arc::clone(&self.pooled_particles);
            builder.actor(self.stage3[i], move |ctx: &mut Firing| {
                let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                let mut merged = std::mem::take(&mut st.kept);
                for &(j, e) in &in_particle_edges {
                    if j == i {
                        continue; // trigger only
                    }
                    merged.extend(f64s_from_bytes(ctx.input(e)));
                }
                let received = merged.len();
                debug_assert_eq!(received, per_pe, "every PE ends balanced");
                // Contribute to the pooled global view of this step.
                {
                    let mut pool = pooled.lock().unwrap_or_else(PoisonError::into_inner);
                    let step = ctx.iter as usize;
                    if pool.len() <= step {
                        pool.resize(step + 1, Vec::new());
                    }
                    pool[step].extend_from_slice(&merged);
                }
                st.filter.particles = merged;
                st.filter.weights = vec![1.0 / received.max(1) as f64; received];
                st.surplus.clear();
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
    use super::*;

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
