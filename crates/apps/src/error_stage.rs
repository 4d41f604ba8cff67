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
//! Figure 3's subsystem is figure 2's stage D, so this module also
//! holds what the whole pipeline ([`SpeechApp`](crate::SpeechApp))
//! shares with it: the one configuration, the frame layout, actor D and
//! the D_i → P(1 + i) assignment.
//!
//! This module drives figure 3 (resynchronization of the 3-PE sync
//! graph), figure 6 (execution time vs sample size for n = 1..4) and
//! table 1 (FPGA area of the 4-PE implementation).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use spi::{Firing, SpiSystem, SpiSystemBuilder};
use spi_dataflow::{ActorId, EdgeId, SdfGraph};
use spi_dsp::fft::autocorrelation_into;
use spi_dsp::lpc::{cost, prediction_errors_into};
use spi_platform::components;
use spi_sched::ProcId;

use crate::error::{AppError, Result};
use crate::speech::{frame_dims, synth_frame_into, Predictor};
use crate::util::{f64s, f64s_into, f64s_to_bytes, order_payload, read_order_payload};

/// Configuration of application 1, for both of its graphs: figure 2's
/// whole pipeline ([`SpeechApp`](crate::SpeechApp)) and this error
/// stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStageConfig {
    /// Number of error-generation PEs (paper: 1–4).
    pub n_pes: usize,
    /// Nominal (maximum) frame length ("sample size" of figure 6).
    pub frame: usize,
    /// Maximum LPC model order.
    pub order: usize,
    /// Vary frame length and order at run time (the paper's dynamic
    /// scenario); without it they stay at `frame` and `order`.
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

impl ErrorStageConfig {
    /// Application 1's one validation rule: at least one error PE, an
    /// order of at least 1, and a frame of at least four times the
    /// order.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.n_pes == 0 {
            return Err(AppError::Config("n_pes must be positive".into()));
        }
        if self.order == 0 || self.frame < 4 * self.order {
            return Err(AppError::Config(format!(
                "frame {} too short for order {}",
                self.frame, self.order
            )));
        }
        Ok(())
    }

    /// Frame length and model order of iteration `iter`.
    pub(crate) fn dims(&self, iter: u64) -> (usize, usize) {
        frame_dims(self.frame, self.order, self.n_pes, self.vary_rates, iter)
    }

    /// The longest frame [`frame_dims`] returns: it lifts a short one
    /// to `4·order + n_pes`, which can exceed `frame`.
    pub(crate) fn longest_frame(&self) -> usize {
        self.frame.max(4 * self.order + self.n_pes)
    }

    /// The most samples a frame section holds: a PE's share of the
    /// longest frame plus `order` samples of history.
    fn section_len(&self) -> usize {
        self.longest_frame() / self.n_pes + self.order + 1
    }

    /// Byte bounds of application 1's edges, sized for the longest
    /// frame and the highest order: `[frame, section, coeffs, errors]`
    /// bound a whole frame, a PE's section (its share plus history), an
    /// order and its coefficients (lags take twice that), and a PE's
    /// error values.
    pub(crate) fn edge_bytes(&self) -> [u32; 4] {
        let longest = self.longest_frame();
        [
            longest,
            self.section_len(),
            self.order + 1,
            longest / self.n_pes + 1,
        ]
        .map(|samples| (samples * 8) as u32)
    }

    /// The samples of a `frame_len`-sample frame that error PE `i`
    /// receives: its share, from `i·frame_len/n_pes` up to
    /// `(i + 1)·frame_len/n_pes`, after up to `order` samples of
    /// history.
    pub(crate) fn section(&self, i: usize, frame_len: usize, order: usize) -> Range<usize> {
        let start = i * frame_len / self.n_pes;
        start.saturating_sub(order)..(i + 1) * frame_len / self.n_pes
    }
}

/// Registers error PE `i`'s actor `D_i`, and its resources, on
/// `builder`: the one actor D of both graphs. It reads its section and
/// its order and coefficients from the `sec` and `coe` edges and sends
/// the prediction error of the section's own samples on `err`.
///
/// Section, coefficients and errors live in buffers the actor keeps,
/// sized for its edges' bounds by its first firing; the output bytes
/// are the one allocation a firing.
pub(crate) fn error_actor(
    builder: &mut SpiSystemBuilder,
    cfg: ErrorStageConfig,
    i: usize,
    d: ActorId,
    [sec, coe, err]: [EdgeId; 3],
) {
    let mut scratch = None;
    builder.actor(d, move |ctx: &mut Firing| {
        let (section, coeffs, errors) = scratch.get_or_insert_with(|| {
            let samples = cfg.edge_bytes()[1] as usize / 8;
            (
                Vec::with_capacity(samples),
                Vec::with_capacity(cfg.order),
                Vec::with_capacity(samples),
            )
        });
        f64s_into(ctx.input(sec), section);
        let order = read_order_payload(ctx.input(coe), coeffs);
        // History samples precede the section's own range.
        let hist = if i == 0 { 0 } else { order.min(section.len()) };
        prediction_errors_into(section, coeffs, hist, section.len(), errors);
        ctx.set_output(err, f64s_to_bytes(errors));
        cost::error_cycles(errors.len(), order)
    });
    builder.actor_resources(d, components::error_generator(cfg.order as u64));
}

/// Finishes `builder` on `1 + d_error.len()` processors: error
/// generator `D_i` on P(1 + i), every other actor on the I/O
/// processor P0.
pub(crate) fn build_on_error_pes(
    builder: SpiSystemBuilder,
    d_error: &[ActorId],
) -> spi::Result<SpiSystem> {
    let d_actors = d_error.to_vec();
    builder.build(1 + d_actors.len(), move |actor| {
        match d_actors.iter().position(|&d| d == actor) {
            Some(i) => ProcId(1 + i),
            None => ProcId(0),
        }
    })
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
/// anything (figure 3): the samples and their predictor, refilled in
/// place frame after frame.
struct Analysis {
    iter: u64,
    order: usize,
    frame: Vec<f64>,
    predictor: Predictor,
}

impl Analysis {
    /// Buffers sized for the longest frame and the highest order `cfg`
    /// declares, so that no refill grows them.
    fn new(cfg: ErrorStageConfig) -> Self {
        Analysis {
            iter: 0,
            order: 0,
            frame: Vec::with_capacity(cfg.longest_frame()),
            predictor: Predictor::new(cfg.order),
        }
    }

    /// The I/O-side analysis of iteration `iter`'s frame (actors A, B
    /// and C of figure 2, which this subsystem keeps on the I/O
    /// processor).
    fn refill(&mut self, cfg: ErrorStageConfig, iter: u64) {
        let (frame_len, order) = cfg.dims(iter);
        synth_frame_into(cfg.seed, iter, frame_len, &mut self.frame);
        autocorrelation_into(&self.frame, order, &mut self.predictor.lags);
        self.predictor.solve(order);
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
        config.validate()?;
        let n = config.n_pes;
        let [_, section, coeffs, errors] = config.edge_bytes();

        let mut g = SdfGraph::new();
        // Creation order matters for the self-timed schedule on the I/O
        // processor: all send interfaces first, then the PEs, then the
        // receive interfaces, so P0 feeds every PE before collecting.
        let mut actors = |name: &str, cycles: u64| -> Vec<ActorId> {
            (0..n)
                .map(|i| g.add_actor(format!("{name}{i}"), cycles))
                .collect()
        };
        let io_send = actors("io_send", cost::read_cycles(config.frame / n));
        let d_error = actors("D", cost::error_cycles(config.frame / n, config.order));
        let io_recv = actors("io_recv", cost::read_cycles(config.frame / n));
        let (mut section_edges, mut coeff_edges, mut error_edges) = (vec![], vec![], vec![]);
        for i in 0..n {
            let (s, d, r) = (io_send[i], d_error[i], io_recv[i]);
            section_edges.push(g.add_dynamic_edge(s, d, 1, 1, 0, section)?);
            coeff_edges.push(g.add_dynamic_edge(s, d, 1, 1, 0, coeffs)?);
            error_edges.push(g.add_dynamic_edge(d, r, 1, 1, 0, errors)?);
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
        build_on_error_pes(builder, &self.d_error)
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
            let edges = [&self.section_edges, &self.coeff_edges, &self.error_edges].map(|e| e[i]);
            let [sec, coe, err] = edges;

            // ----- io_send_i: frame section + coefficients ---------------
            let analysis = Arc::clone(&analysis);
            let analyses = Arc::clone(&self.analyses);
            builder.actor(self.io_send[i], move |ctx: &mut Firing| {
                let mut shared = analysis.lock().unwrap_or_else(PoisonError::into_inner);
                let current = match &mut *shared {
                    Some(current) if current.iter == ctx.iter => current,
                    stale => {
                        analyses.fetch_add(1, Ordering::Relaxed);
                        let analysis = stale.get_or_insert_with(|| Analysis::new(cfg));
                        analysis.refill(cfg, ctx.iter);
                        analysis
                    }
                };
                let section = cfg.section(i, current.frame.len(), current.order);
                let cycles = cost::read_cycles(section.len());
                ctx.set_output(sec, f64s_to_bytes(&current.frame[section]));
                ctx.set_output(coe, order_payload(current.order, &current.predictor.coeffs));
                cycles
            });
            builder.actor_resources(self.io_send[i], components::io_interface());

            // ----- D_i: the hardware error generator ---------------------
            error_actor(builder, cfg, i, self.d_error[i], edges);

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

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use spi_dsp::lpc::prediction_error_range;
    use spi_fault::{FaultKind, FaultPlan};
    use spi_platform::{Op, SupervisionPolicy, ThreadedRunner, TransportKind};

    use super::*;
    use crate::speech::{autocorr_via_fft, solve_normal_equations, synth_frame};
    use crate::SpeechApp;

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
                let (len, order) = cfg.dims(iter);
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
        assert_eq!(cfg.dims(1).0, 35);
        let des = ErrorStageApp::new(cfg).unwrap();
        des.system(FRAMES).unwrap().run().unwrap();
        assert_residuals(&des, FRAMES, "DES");
        let threaded = ErrorStageApp::new(cfg).unwrap();
        let sys = threaded.system(FRAMES).unwrap();
        sys.run_threaded_with(&ring()).unwrap();
        assert_residuals(&threaded, FRAMES, "ring");
    }

    #[test]
    fn the_pipeline_and_the_error_stage_agree_on_every_frame() {
        // Figure 2's pipeline and figure 3's error stage are one
        // application: per frame, the residual energy E collects equals
        // the one the I/O processor reassembles, at every PE count and
        // on frames `frame_dims` lifts above `frame`.
        const FRAMES: u64 = 10;
        let lifted = ErrorStageConfig {
            n_pes: 3,
            frame: 32,
            order: 8,
            vary_rates: true,
            seed: 5,
        };
        for cfg in (1..=4).map(|n| app(n).config).chain([lifted]) {
            let pipeline = SpeechApp::new(cfg).unwrap();
            pipeline.system(FRAMES).unwrap().run().unwrap();
            let stage = ErrorStageApp::new(cfg).unwrap();
            stage.system(FRAMES).unwrap().run().unwrap();
            let frames = pipeline.output.lock().unwrap();
            let want = stage.residual_energy.lock().unwrap();
            assert_eq!(frames.len(), FRAMES as usize, "{cfg:?}");
            assert_eq!(want.len(), FRAMES as usize, "{cfg:?}");
            for (f, w) in frames.iter().zip(want.iter()) {
                let g = f.residual_energy;
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs(),
                    "{cfg:?}, frame {}: pipeline {g} vs error stage {w}",
                    f.iter
                );
            }
        }
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
