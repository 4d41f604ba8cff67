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
use crate::util::{f64s, f64s_into, put_f64s, put_order_payload, read_order_payload};

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
    /// Application 1's one validation rule: an order of at least 1, a
    /// frame of at least four times the order, and between one error PE
    /// and one for each sample of the shortest frame, so that every
    /// PE's share holds a sample.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.order == 0 || self.frame < 4 * self.order {
            return Err(AppError::Config(format!(
                "frame {} too short for order {}",
                self.frame, self.order
            )));
        }
        let shortest = self.shortest_frame();
        if !(1..=shortest).contains(&self.n_pes) {
            return Err(AppError::Config(format!(
                "n_pes {} is not between 1 and the shortest frame, {shortest} samples",
                self.n_pes
            )));
        }
        Ok(())
    }

    /// Frame length and model order of iteration `iter`.
    pub(crate) fn dims(&self, iter: u64) -> (usize, usize) {
        frame_dims(self.frame, self.order, self.vary_rates, iter)
    }

    /// The shortest frame [`frame_dims`] returns: half of `frame` off
    /// when rates vary, but not below `4·order`.
    pub(crate) fn shortest_frame(&self) -> usize {
        let drawn = self.frame - self.frame / 2 * usize::from(self.vary_rates);
        drawn.max(4 * self.order)
    }

    /// Byte bounds of application 1's edges, `[frame, section, coeffs,
    /// errors]`: a whole frame, a PE's share of one (at most `frame /
    /// n_pes + 1` samples) after `order` of history, an order and its
    /// coefficients (lags take twice that), and a PE's error values.
    pub(crate) fn edge_bytes(&self) -> [u32; 4] {
        let share = self.frame / self.n_pes + 1;
        [self.frame, share + self.order, self.order + 1, share].map(|samples| (samples * 8) as u32)
    }

    /// Appends error PE `i`'s section of `frame` for a model of order
    /// `order` to `payload`: its share, `i·len/n_pes..(i + 1)·len/n_pes`,
    /// after [`history`] samples, zeros where they precede the frame (a
    /// zero adds nothing to a prediction, so the share's errors are
    /// exact).
    pub(crate) fn section(&self, i: usize, frame: &[f64], order: usize, payload: &mut Vec<u8>) {
        let (len, hist) = (frame.len(), history(i, order));
        let (start, end) = (i * len / self.n_pes, (i + 1) * len / self.n_pes);
        payload.resize(payload.len() + 8 * hist.saturating_sub(start), 0);
        put_f64s(payload, &frame[start.saturating_sub(hist)..end]);
    }
}

/// The history samples error PE `i`'s section carries: the `order` a
/// prediction reads, none on PE 0, whose share starts the frame.
fn history(i: usize, order: usize) -> usize {
    order * usize::from(i > 0)
}

/// Registers error PE `i`'s actor `D_i`, and its resources, on
/// `builder`: the one actor D of both graphs. It reads its section and
/// its order and coefficients from the `sec` and `coe` edges and sends
/// the prediction error of the section's own samples on `err`.
///
/// Section, coefficients and errors live in buffers the actor keeps,
/// sized for its edges' bounds by its first firing, and the errors are
/// written into the slot the firing lends: a firing allocates nothing.
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
        prediction_errors_into(section, coeffs, history(i, order), section.len(), errors);
        put_f64s(ctx.output(err), errors);
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
            frame: Vec::with_capacity(cfg.frame),
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
                let section = ctx.output(sec);
                cfg.section(i, &current.frame, current.order, section);
                let cycles = cost::read_cycles(section.len() / 8);
                put_order_payload(ctx.output(coe), current.order, &current.predictor.coeffs);
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

    /// Residual energy per frame straight from the kernels, with no
    /// graph, no schedule, no messages and no partition: the energy of
    /// the whole frame's prediction error (§5.2).
    fn serial_residuals(cfg: ErrorStageConfig, count: u64) -> Vec<f64> {
        (0..count)
            .map(|iter| {
                let (len, order) = cfg.dims(iter);
                let frame = synth_frame(cfg.seed, iter, len);
                let coeffs = solve_normal_equations(&autocorr_via_fft(&frame, order), order);
                prediction_error_range(&frame, &coeffs, 0, len)
                    .iter()
                    .map(|e| e * e)
                    .sum()
            })
            .collect()
    }

    /// Names a configuration in a failure message.
    fn named(cfg: ErrorStageConfig) -> String {
        let ErrorStageConfig {
            n_pes,
            frame,
            order,
            vary_rates,
            ..
        } = cfg;
        format!("n = {n_pes}, frame {frame}, order {order}, vary_rates {vary_rates}")
    }

    /// Holds the residual energies `app` collected to the serial
    /// reference: the PEs' sums are added in another order, so to
    /// 1e-12 relative.
    fn assert_residuals(app: &ErrorStageApp, count: u64, engine: &str) {
        let what = named(app.config);
        let got = app.residual_energy.lock().unwrap();
        let want = serial_residuals(app.config, count);
        assert_eq!(got.len(), want.len(), "{what}, {engine}");
        for (iter, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * w.abs(),
                "{what}, {engine}, iteration {iter}: {g} vs serial {w}"
            );
        }
    }

    /// The frame lengths and orders the two partition tests below run
    /// at: at and just above the 4·order floor, where the shares of
    /// many PEs start inside the first `order` samples, and the
    /// benchmark's 512 / 10.
    const PARTITIONS: [(usize, usize); 4] = [(40, 10), (41, 10), (32, 8), (512, 10)];

    /// Application 1 at `frame` / `order`, seed 5, over `n_pes` PEs.
    fn partitioned(n_pes: usize, frame: usize, order: usize, vary_rates: bool) -> ErrorStageConfig {
        ErrorStageConfig {
            n_pes,
            frame,
            order,
            vary_rates,
            seed: 5,
        }
    }

    /// Runs `sys` on the DES or, if `threaded`, on the ring, naming
    /// `what` and the engine if the run fails.
    fn run_on(sys: SpiSystem, what: &str, threaded: bool) {
        if threaded {
            let run = sys.run_threaded_with(&ring());
            run.unwrap_or_else(|e| panic!("{what}, ring: {e}"));
        } else {
            let run = sys.run();
            run.unwrap_or_else(|e| panic!("{what}, DES: {e}"));
        }
    }

    #[test]
    fn residuals_match_across_pe_counts() {
        // Figure 3 spreads actor D over n PEs, and that must not change
        // the error signal figure 2 codes: at every n, the pipeline's
        // compressed frames equal its one-PE frames exactly, on the DES
        // and on the threaded ring.
        const FRAMES: u64 = 6;
        for (frame, order) in PARTITIONS {
            for vary_rates in [false, true] {
                let cfg = |n_pes| partitioned(n_pes, frame, order, vary_rates);
                let one_pe = SpeechApp::new(cfg(1)).unwrap();
                run_on(one_pe.system(FRAMES).unwrap(), &named(cfg(1)), false);
                let want = one_pe.output.lock().unwrap().clone();
                assert_eq!(want.len(), FRAMES as usize);
                for n in 1..=16 {
                    let what = named(cfg(n));
                    for (engine, threaded) in [("DES", false), ("ring", true)] {
                        let pipeline = SpeechApp::new(cfg(n)).unwrap();
                        run_on(pipeline.system(FRAMES).unwrap(), &what, threaded);
                        let got = pipeline.output.lock().unwrap();
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g, w, "{what}, {engine}: pipeline vs one PE");
                        }
                        assert_eq!(got.len(), want.len(), "{what}, {engine}");
                    }
                }
            }
        }
    }

    #[test]
    fn residuals_equal_the_serial_composition_on_both_engines() {
        // The error stage alone, figure 3: at every n, on the DES and on
        // the threaded ring, its residual energies equal the serial
        // reference, which shares no layout rule with the code.
        const FRAMES: u64 = 6;
        for (frame, order) in PARTITIONS {
            for vary_rates in [false, true] {
                for n in 1..=16 {
                    let cfg = partitioned(n, frame, order, vary_rates);
                    for (engine, threaded) in [("DES", false), ("ring", true)] {
                        let stage = ErrorStageApp::new(cfg).unwrap();
                        run_on(stage.system(FRAMES).unwrap(), &named(cfg), threaded);
                        assert_residuals(&stage, FRAMES, engine);
                    }
                }
            }
        }
    }

    #[test]
    fn validation_refuses_only_a_pe_without_a_sample() {
        // The last PE count that gives every share of the shortest
        // frame a sample is accepted, and one more is refused, naming
        // both: varying rates take up to half the frame off, but not
        // below the 4·order floor.
        for (frame, order, vary_rates, shortest) in [
            (512, 10, true, 256),
            (41, 10, true, 40),
            (41, 10, false, 41),
            (45, 8, true, 32),
        ] {
            let cfg = |n_pes| ErrorStageConfig {
                n_pes,
                frame,
                order,
                vary_rates,
                seed: 5,
            };
            assert_eq!(cfg(1).shortest_frame(), shortest);
            assert!(cfg(shortest).validate().is_ok(), "{}", named(cfg(shortest)));
            let refused = cfg(shortest + 1).validate().unwrap_err().to_string();
            let n_pes = format!("n_pes {} ", shortest + 1);
            let frame = format!("shortest frame, {shortest} samples");
            assert!(
                refused.contains(&n_pes) && refused.contains(&frame),
                "{refused}"
            );
        }
    }

    #[test]
    fn the_pipeline_and_the_error_stage_agree_on_every_frame() {
        // Figure 2's pipeline and figure 3's error stage are one
        // application: per frame, the residual energy E collects equals
        // the one the I/O processor reassembles, at every PE count and
        // on frames at the 4·order floor.
        const FRAMES: u64 = 10;
        let floor = ErrorStageConfig {
            n_pes: 3,
            frame: 32,
            order: 8,
            vary_rates: true,
            seed: 5,
        };
        for cfg in (1..=4).map(|n| app(n).config).chain([floor]) {
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
