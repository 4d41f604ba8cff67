//! The hardware error-generation subsystem of application 1 — the
//! configuration the paper actually synthesized (§5.2).
//!
//! "The FPGA resources were not enough to fit a multiprocessor version
//! of the whole system. Thus, we explored the parallelization of only
//! the error generation actor (D) in hardware" — with, per figure 3, an
//! I/O interface per PE that *sends the input frame*, *sends the
//! predictor coefficients* and *receives the error values*. Frame length
//! and model order are not known before run time, so all three transfers
//! use `SPI_dynamic`.
//!
//! This module drives figure 3 (resynchronization of the 3-PE sync
//! graph), figure 6 (execution time vs sample size for n = 1..4) and
//! table 1 (FPGA area of the 4-PE implementation).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use spi::{Firing, SpiSystem, SpiSystemBuilder};
use spi_dataflow::{ActorId, EdgeId, SdfGraph};
use spi_dsp::fft::autocorrelation_into;
use spi_dsp::lpc::{cost, prediction_errors_into};
use spi_platform::components;
use spi_sched::ProcId;

use crate::error::{AppError, Result};
use crate::speech::{frame_dims, longest_frame, solve_normal_equations_into, synth_frame_into};
use crate::util::{f64s, f64s_into, f64s_to_bytes, put_f64s};

/// Configuration of the error-stage subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStageConfig {
    /// Number of error-generation PEs (paper: 1–4).
    pub n_pes: usize,
    /// Frame length ("sample size" of figure 6).
    pub frame: usize,
    /// LPC model order.
    pub order: usize,
    /// Vary frame/order at run time (exercises SPI_dynamic payloads).
    pub vary_rates: bool,
    /// RNG seed for the synthetic input.
    pub seed: u64,
}

impl Default for ErrorStageConfig {
    fn default() -> Self {
        ErrorStageConfig {
            n_pes: 2,
            frame: 256,
            order: 8,
            vary_rates: false,
            seed: 3,
        }
    }
}

/// The assembled subsystem.
pub struct ErrorStageApp {
    /// Dataflow graph: per PE, `io_send_i → D_i → io_recv_i`.
    pub graph: SdfGraph,
    /// Per-PE I/O send actors (processor 0).
    pub io_send: Vec<ActorId>,
    /// Per-PE error generators (processor 1 + i).
    pub d_error: Vec<ActorId>,
    /// Per-PE I/O receive actors (processor 0).
    pub io_recv: Vec<ActorId>,
    /// Section edges io_send_i → D_i.
    pub section_edges: Vec<EdgeId>,
    /// Coefficient edges io_send_i → D_i.
    pub coeff_edges: Vec<EdgeId>,
    /// Error edges D_i → io_recv_i.
    pub error_edges: Vec<EdgeId>,
    config: ErrorStageConfig,
    /// Residual energy per frame, reassembled at the I/O side.
    pub residual_energy: Arc<Mutex<Vec<f64>>>,
    /// Frame analyses computed so far (one per frame, however many PEs
    /// it is sent to).
    analyses: Arc<AtomicU64>,
}

/// What the I/O processor derives from one input frame before it sends
/// anything (figure 3): the samples and their predictor coefficients,
/// refilled in place frame after frame.
struct Analysis {
    iter: u64,
    order: usize,
    frame: Vec<f64>,
    coeffs: Vec<f64>,
    /// Autocorrelation lags, then the normal equations' LU factors.
    lags: Vec<f64>,
    lu: (Vec<f64>, Vec<usize>),
}

impl Analysis {
    /// Buffers sized for the longest frame and the highest order `cfg`
    /// declares, so that no refill grows them.
    fn new(cfg: ErrorStageConfig) -> Self {
        let order = cfg.order;
        Analysis {
            iter: 0,
            order: 0,
            frame: Vec::with_capacity(longest_frame(cfg.frame, order, cfg.n_pes)),
            coeffs: Vec::with_capacity(order),
            lags: Vec::with_capacity(order + 1),
            lu: (Vec::with_capacity(order * order), Vec::with_capacity(order)),
        }
    }

    /// The I/O-side analysis of iteration `iter`'s frame (actors A, B
    /// and C of figure 2, which this subsystem keeps on the I/O
    /// processor).
    fn refill(&mut self, cfg: ErrorStageConfig, iter: u64) {
        let (frame_len, order) = dims(cfg, iter);
        synth_frame_into(cfg.seed, iter, frame_len, &mut self.frame);
        autocorrelation_into(&self.frame, order, &mut self.lags);
        solve_normal_equations_into(&self.lags, order, &mut self.lu, &mut self.coeffs);
        self.iter = iter;
        self.order = order;
    }
}

impl ErrorStageApp {
    /// Builds the subsystem graph.
    ///
    /// # Errors
    ///
    /// [`AppError::Config`] for degenerate configurations.
    pub fn new(config: ErrorStageConfig) -> Result<Self> {
        if config.n_pes == 0 {
            return Err(AppError::Config("n_pes must be positive".into()));
        }
        if config.frame < 4 * config.order.max(1) || config.order < 1 {
            return Err(AppError::Config(format!(
                "frame {} too short for order {}",
                config.frame, config.order
            )));
        }
        let n = config.n_pes;
        let bytes_section = (section_len(config) * 8) as u32;
        let bytes_coeff = (config.order * 8 + 8) as u32;
        let longest = longest_frame(config.frame, config.order, n);
        let bytes_errors = ((longest / n + 1) * 8) as u32;

        let mut g = SdfGraph::new();
        let mut io_send = Vec::new();
        let mut d_error = Vec::new();
        let mut io_recv = Vec::new();
        let mut section_edges = Vec::new();
        let mut coeff_edges = Vec::new();
        let mut error_edges = Vec::new();
        // Creation order matters for the self-timed schedule on the I/O
        // processor: all send interfaces first, then the PEs, then the
        // receive interfaces, so P0 feeds every PE before collecting.
        for i in 0..n {
            io_send.push(g.add_actor(format!("io_send{i}"), cost::read_cycles(config.frame / n)));
        }
        for i in 0..n {
            d_error.push(g.add_actor(
                format!("D{i}"),
                cost::error_cycles(config.frame / n, config.order),
            ));
        }
        for i in 0..n {
            io_recv.push(g.add_actor(format!("io_recv{i}"), cost::read_cycles(config.frame / n)));
        }
        for i in 0..n {
            let (s, d, r) = (io_send[i], d_error[i], io_recv[i]);
            section_edges.push(g.add_dynamic_edge(s, d, 1, 1, 0, bytes_section)?);
            coeff_edges.push(g.add_dynamic_edge(s, d, 1, 1, 0, bytes_coeff)?);
            error_edges.push(g.add_dynamic_edge(d, r, 1, 1, 0, bytes_errors)?);
        }
        Ok(ErrorStageApp {
            graph: g,
            io_send,
            d_error,
            io_recv,
            section_edges,
            coeff_edges,
            error_edges,
            config,
            residual_energy: Arc::new(Mutex::new(Vec::new())),
            analyses: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Lowers the subsystem onto `1 + n` processors (I/O on P0, one PE
    /// per error generator) and returns the runnable system.
    ///
    /// # Errors
    ///
    /// Any SPI build error.
    pub fn system(&self, iterations: u64) -> Result<SpiSystem> {
        let mut builder = SpiSystemBuilder::new(self.graph.clone());
        self.configure(&mut builder);
        builder.iterations(iterations);
        Ok(self.build_with(builder)?)
    }

    /// Finishes a (possibly customized) builder with this app's
    /// assignment.
    ///
    /// # Errors
    ///
    /// Any SPI build error.
    pub fn build_with(&self, builder: SpiSystemBuilder) -> spi::Result<SpiSystem> {
        let d_actors = self.d_error.clone();
        builder.build(1 + self.config.n_pes, move |actor| {
            match d_actors.iter().position(|&d| d == actor) {
                Some(i) => ProcId(1 + i),
                None => ProcId(0),
            }
        })
    }

    /// Registers actor implementations and resources on `builder`.
    pub fn configure(&self, builder: &mut SpiSystemBuilder) {
        let cfg = self.config;
        let n = cfg.n_pes;

        // Residual reassembly across the n io_recv actors.
        let frame_acc: Arc<Mutex<(u64, f64, usize)>> = Arc::new(Mutex::new((0, 0.0, 0)));
        // The frame analysis, shared by the n io_send actors: whichever
        // fires first in an iteration computes it. Keyed by iteration,
        // so a replayed firing finds the values it saw the first time.
        // Its buffers are sized by the first firing, not by the build,
        // which then allocates what it did before they existed.
        let analysis: Arc<Mutex<Option<Analysis>>> = Arc::new(Mutex::new(None));

        for i in 0..n {
            let sec = self.section_edges[i];
            let coe = self.coeff_edges[i];
            let err = self.error_edges[i];

            // ----- io_send_i: frame section + coefficients ---------------
            let analysis = Arc::clone(&analysis);
            let analyses = Arc::clone(&self.analyses);
            builder.actor(self.io_send[i], move |ctx: &mut Firing| {
                let mut shared = analysis.lock().unwrap_or_else(PoisonError::into_inner);
                let Analysis {
                    order,
                    frame,
                    coeffs,
                    ..
                } = match &mut *shared {
                    Some(current) if current.iter == ctx.iter => current,
                    stale => {
                        analyses.fetch_add(1, Ordering::Relaxed);
                        let analysis = stale.get_or_insert_with(|| Analysis::new(cfg));
                        analysis.refill(cfg, ctx.iter);
                        analysis
                    }
                };
                let start = i * frame.len() / n;
                let end = (i + 1) * frame.len() / n;
                let hist_start = start.saturating_sub(*order);
                ctx.set_output(sec, f64s_to_bytes(&frame[hist_start..end]));
                let mut payload = Vec::with_capacity(8 + coeffs.len() * 8);
                payload.extend((*order as u64).to_le_bytes());
                put_f64s(&mut payload, coeffs);
                ctx.set_output(coe, payload);
                cost::read_cycles(end - hist_start)
            });
            builder.actor_resources(self.io_send[i], components::io_interface());

            // ----- D_i: the hardware error generator ---------------------
            // Section, coefficients and errors live in buffers the actor
            // keeps, sized for its edges' bounds by its first firing;
            // the output bytes are the one allocation a firing.
            let mut scratch = None;
            builder.actor(self.d_error[i], move |ctx: &mut Firing| {
                let (section, coeffs, errors) = scratch.get_or_insert_with(|| {
                    (
                        Vec::with_capacity(section_len(cfg)),
                        Vec::with_capacity(cfg.order),
                        Vec::with_capacity(section_len(cfg)),
                    )
                });
                f64s_into(ctx.input(sec), section);
                // io_send_i's payload always begins with the 8-byte order.
                #[allow(clippy::expect_used)]
                let (order, raw) = ctx.input(coe).split_first_chunk().expect("order header");
                let order = u64::from_le_bytes(*order) as usize;
                f64s_into(raw, coeffs);
                let hist = if i == 0 { 0 } else { order.min(section.len()) };
                prediction_errors_into(section, coeffs, hist, section.len(), errors);
                let mut bytes = Vec::with_capacity(8 * errors.len());
                put_f64s(&mut bytes, errors);
                ctx.set_output(err, bytes);
                cost::error_cycles(errors.len(), order)
            });
            builder.actor_resources(
                self.d_error[i],
                components::error_generator(cfg.order as u64),
            );

            // ----- io_recv_i: collect error values -----------------------
            let acc = Arc::clone(&frame_acc);
            let out = Arc::clone(&self.residual_energy);
            builder.actor(self.io_recv[i], move |ctx: &mut Firing| {
                let errors = f64s(ctx.input(err));
                let count = errors.len();
                let energy: f64 = errors.map(|e| e * e).sum();
                let mut a = acc.lock().unwrap_or_else(PoisonError::into_inner);
                if a.0 != ctx.iter {
                    *a = (ctx.iter, 0.0, 0);
                }
                a.1 += energy;
                a.2 += 1;
                if a.2 == n {
                    out.lock().unwrap_or_else(PoisonError::into_inner).push(a.1);
                }
                cost::read_cycles(count)
            });
        }
    }

    /// The configuration this app was built with.
    pub fn config(&self) -> ErrorStageConfig {
        self.config
    }
}

/// The most samples a frame section holds: a PE's share of the longest
/// frame plus `order` samples of history.
fn section_len(cfg: ErrorStageConfig) -> usize {
    longest_frame(cfg.frame, cfg.order, cfg.n_pes) / cfg.n_pes + cfg.order + 1
}

/// Run-time frame length and order for an iteration.
fn dims(cfg: ErrorStageConfig, iter: u64) -> (usize, usize) {
    frame_dims(cfg.frame, cfg.order, cfg.n_pes, cfg.vary_rates, iter)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use spi_dsp::lpc::prediction_error_range;
    use spi_fault::{FaultKind, FaultPlan};
    use spi_platform::{Op, SupervisionPolicy, ThreadedRunner, TransportKind};

    use super::*;
    use crate::speech::{autocorr_via_fft, solve_normal_equations, synth_frame};

    /// Application 1 as the benchmark runs it: 512-sample frames, order
    /// 10, both varying at run time.
    fn app(n_pes: usize) -> ErrorStageApp {
        ErrorStageApp::new(ErrorStageConfig {
            n_pes,
            frame: 512,
            order: 10,
            vary_rates: true,
            seed: 5,
        })
        .unwrap()
    }

    fn ring() -> ThreadedRunner {
        ThreadedRunner::new()
            .transport(TransportKind::Ring)
            .timeout(Duration::from_secs(10))
    }

    /// Residual energy per frame straight from the kernels — no graph,
    /// no schedule, no messages: each PE's section plus `order` samples
    /// of history (§5.2).
    fn serial_residuals(cfg: ErrorStageConfig, count: u64) -> Vec<f64> {
        (0..count)
            .map(|iter| {
                let (len, order) = dims(cfg, iter);
                let frame = synth_frame(cfg.seed, iter, len);
                let coeffs = solve_normal_equations(&autocorr_via_fft(&frame, order), order);
                (0..cfg.n_pes)
                    .map(|pe| {
                        let (start, end) = (pe * len / cfg.n_pes, (pe + 1) * len / cfg.n_pes);
                        let section = &frame[start.saturating_sub(order)..end];
                        let hist = if pe == 0 { 0 } else { order.min(section.len()) };
                        prediction_error_range(section, &coeffs, hist, section.len())
                            .iter()
                            .map(|e| e * e)
                            .sum::<f64>()
                    })
                    .sum()
            })
            .collect()
    }

    fn assert_residuals(app: &ErrorStageApp, count: u64, engine: &str) {
        let got = app.residual_energy.lock().unwrap();
        let want = serial_residuals(app.config, count);
        assert_eq!(got.len(), want.len(), "{engine}");
        for (iter, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-9 * w.abs(),
                "{engine}, n = {}, frame {iter}: {g} vs serial {w}",
                app.config.n_pes
            );
        }
    }

    #[test]
    fn residuals_equal_the_serial_composition_on_both_engines() {
        const FRAMES: u64 = 12;
        for n in [1, 2, 4] {
            let des = app(n);
            des.system(FRAMES).unwrap().run().unwrap();
            assert_residuals(&des, FRAMES, "DES");
            let threaded = app(n);
            let sys = threaded.system(FRAMES).unwrap();
            sys.run_threaded_with(&ring()).unwrap();
            assert_residuals(&threaded, FRAMES, "ring");
        }
    }

    #[test]
    fn frames_lifted_above_the_configured_length_fit_their_edges() {
        // `frame_dims` lifts every frame of this configuration to
        // 4·8 + 3 = 35 samples, above `frame`: the section and error
        // edges are sized for the lifted frame, or a section exceeds its
        // VTS bound.
        const FRAMES: u64 = 8;
        let cfg = ErrorStageConfig {
            n_pes: 3,
            frame: 32,
            order: 8,
            vary_rates: true,
            seed: 5,
        };
        assert_eq!(dims(cfg, 1).0, 35);
        let des = ErrorStageApp::new(cfg).unwrap();
        des.system(FRAMES).unwrap().run().unwrap();
        assert_residuals(&des, FRAMES, "DES");
        let threaded = ErrorStageApp::new(cfg).unwrap();
        let sys = threaded.system(FRAMES).unwrap();
        sys.run_threaded_with(&ring()).unwrap();
        assert_residuals(&threaded, FRAMES, "ring");
    }

    #[test]
    fn each_frame_is_analysed_once_for_all_four_pes() {
        const FRAMES: u64 = 9;
        let des = app(4);
        des.system(FRAMES).unwrap().run().unwrap();
        assert_eq!(des.analyses.load(Ordering::Relaxed), FRAMES);

        let threaded = app(4);
        let sys = threaded.system(FRAMES).unwrap();
        sys.run_threaded_with(&ring()).unwrap();
        assert_eq!(threaded.analyses.load(Ordering::Relaxed), FRAMES);
    }

    #[test]
    fn a_replayed_iteration_reuses_its_analysis() {
        // Supervised, with both recoveries in one run: a dropped frame
        // section (retransmitted under the same sequence number) and a
        // panic on the I/O processor after io_send2 fired in iteration
        // 3, which rolls P0 back and replays io_send0..2 of that frame.
        const FRAMES: u64 = 6;
        let app = app(4);
        let sys = app.system(FRAMES).unwrap();
        let dropped = sys.edge_plans()[&app.section_edges[1]].data_ch;
        let (decorator, log) = FaultPlan::new()
            .inject(dropped, 2, FaultKind::Drop)
            .into_decorator()
            .unwrap();
        let (specs, mut programs) = sys.into_parts();
        let fired = programs[0]
            .ops
            .iter_mut()
            .find_map(|op| match op {
                Op::Compute { label, work } if label.starts_with("fire:io_send2") => Some(work),
                _ => None,
            })
            .expect("io_send2 fires on P0");
        let mut inner = std::mem::replace(fired, Box::new(|_| 0));
        let firings = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&firings);
        *fired = Box::new(move |local| {
            let cycles = inner(local);
            if count.fetch_add(1, Ordering::Relaxed) == 3 {
                panic!("transient fault after io_send2's fourth firing");
            }
            cycles
        });
        ring()
            .supervise(SupervisionPolicy::retry(3).with_deadline(Duration::from_secs(2)))
            .decorate_transports(decorator)
            .run(&specs, programs)
            .unwrap();
        assert_eq!(log.lock().unwrap().len(), 1, "the planned drop fired");
        assert_eq!(firings.load(Ordering::Relaxed), FRAMES + 1, "one replay");
        assert_eq!(app.analyses.load(Ordering::Relaxed), FRAMES);
        assert_residuals(&app, FRAMES, "supervised ring");
    }

    #[test]
    fn graph_shape_per_figure3() {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: 3,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(app.graph.actor_count(), 9);
        assert_eq!(app.graph.edge_count(), 9);
        assert!(
            app.graph.dynamic_edges().len() == 9,
            "all transfers are dynamic"
        );
    }

    #[test]
    fn runs_and_collects_residuals() {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: 2,
            frame: 128,
            order: 6,
            ..Default::default()
        })
        .unwrap();
        let sys = app.system(4).unwrap();
        let report = sys.run().unwrap();
        assert!(report.makespan_us() > 0.0);
        let res = app.residual_energy.lock().unwrap();
        assert_eq!(res.len(), 4);
        assert!(res.iter().all(|e| e.is_finite() && *e >= 0.0));
    }

    #[test]
    fn more_pes_run_faster_at_large_frames() {
        // The figure-6 shape: with computation-dominated frames, n=4
        // beats n=1 clearly.
        let frames = 12;
        let time = |n: usize| {
            let app = ErrorStageApp::new(ErrorStageConfig {
                n_pes: n,
                frame: 512,
                order: 10,
                ..Default::default()
            })
            .unwrap();
            let sys = app.system(frames).unwrap();
            sys.run().unwrap().period_us()
        };
        let t1 = time(1);
        let t4 = time(4);
        assert!(
            t4 < t1 * 0.6,
            "4 PEs must be much faster than 1: t1={t1:.1}µs t4={t4:.1}µs"
        );
    }

    #[test]
    fn residuals_match_across_pe_counts() {
        // Functional invariance: the residual energy per frame must not
        // depend on how many PEs computed it.
        let run = |n: usize| {
            let app = ErrorStageApp::new(ErrorStageConfig {
                n_pes: n,
                frame: 120,
                order: 5,
                seed: 21,
                vary_rates: false,
            })
            .unwrap();
            let sys = app.system(3).unwrap();
            sys.run().unwrap();
            let res = app.residual_energy.lock().unwrap().clone();
            res
        };
        let r1 = run(1);
        let r3 = run(3);
        assert_eq!(r1.len(), r3.len());
        for (a, b) in r1.iter().zip(&r3) {
            // Section boundaries truncate history differently only when
            // hist clamps; energies must still agree tightly.
            let rel = (a - b).abs() / a.max(1e-12);
            assert!(rel < 0.05, "n=1 {a} vs n=3 {b}");
        }
    }

    #[test]
    fn dynamic_rates_flow_through() {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: 2,
            frame: 256,
            order: 8,
            vary_rates: true,
            ..Default::default()
        })
        .unwrap();
        let sys = app.system(6).unwrap();
        sys.run().unwrap();
        assert_eq!(app.residual_energy.lock().unwrap().len(), 6);
    }
}
