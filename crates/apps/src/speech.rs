//! Application 1: LPC-based acoustic data compression (paper §5.2).
//!
//! The paper's figure-2 pipeline: **A** reads a segment of input data,
//! **B** runs an FFT over the samples (used here, as in classic LPC
//! front-ends, to obtain the autocorrelation via the power spectrum),
//! **C** performs LU decomposition to find predictor coefficients,
//! **D** generates the prediction error — the stage parallelized over
//! `n` PEs — and **E** Huffman-codes the quantized error.
//!
//! The frame length and model order are "not known before run-time"
//! (they vary per frame within declared bounds), so every edge feeding
//! the D stage is *dynamic* and exercises `SPI_dynamic`, exactly the
//! situation of §5.2. Processor 0 hosts A/B/C/E (the I/O + front-end
//! side); processors 1..=n each host one error-generation PE.
//!
//! Stage D is figure 3's error stage: the configuration
//! ([`ErrorStageConfig`]), the frame layout, actor D and the processor
//! assignment are written once, in [`crate::error_stage`].

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use spi::{Firing, SpiSystem, SpiSystemBuilder};
use spi_dataflow::{ActorId, EdgeId, SdfGraph};
use spi_dsp::fft::{autocorrelation_into, fft_cycles};
use spi_dsp::huffman::{huffman_cycles, HuffmanCode};
use spi_dsp::lpc::{cost, lu_decompose_into, lu_solve_into, Quantizer};
use spi_platform::components;

use crate::error::Result;
use crate::error_stage::{build_on_error_pes, error_actor, ErrorStageConfig};
use crate::util::{f64s, f64s_into, put_f64s, put_order_payload, read_order_payload};

/// Run-time frame length and model order of iteration `iter` of
/// application 1 (both graphs): `max_frame` and `max_order` without
/// `vary_rates`. With it, the length varies pseudo-randomly in
/// `[max_frame − max_frame/2, max_frame]` but not below `4·max_order`,
/// and the order in `2..=max_order` (1 when `max_order` is 1). The PE
/// count plays no part.
pub fn frame_dims(
    max_frame: usize,
    max_order: usize,
    vary_rates: bool,
    iter: u64,
) -> (usize, usize) {
    if !vary_rates {
        return (max_frame, max_order);
    }
    let span = max_frame / 2;
    let offset = ((iter.wrapping_mul(2654435761) >> 7) as usize) % (span + 1);
    let frame = (max_frame - offset).max(max_order * 4);
    let order = 2 + ((iter.wrapping_mul(40503) >> 3) as usize) % max_order.max(3).saturating_sub(1);
    (frame, order.min(max_order))
}

/// One compressed frame collected at actor E — everything a decoder
/// needs: the Huffman bitstream plus its code table, the quantizer and
/// the predictor coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedFrame {
    /// Frame index.
    pub iter: u64,
    /// Frame length that was compressed.
    pub frame_len: usize,
    /// Model order used.
    pub order: usize,
    /// Huffman bitstream.
    pub bits: Vec<u8>,
    /// Valid bits in the stream.
    pub bitlen: usize,
    /// Residual energy (for fidelity tracking).
    pub residual_energy: f64,
    /// The canonical Huffman code of this frame's symbols.
    pub code: Option<HuffmanCode>,
    /// Residual quantizer parameters.
    pub quantizer: Quantizer,
    /// Predictor coefficients used by the encoder.
    pub coeffs: Vec<f64>,
}

impl CompressedFrame {
    /// Decodes the frame: Huffman decode → dequantize the residual →
    /// LPC synthesis. Returns `None` when the bitstream is empty (a
    /// degenerate all-silent frame).
    pub fn decompress(&self) -> Option<Vec<f64>> {
        let code = self.code.as_ref()?;
        let symbols = code.decode(&self.bits, self.bitlen, self.frame_len).ok()?;
        let residual: Vec<f64> = symbols
            .iter()
            .map(|&s| self.quantizer.dequantize(s))
            .collect();
        Some(spi_dsp::lpc::synthesize(&residual, &self.coeffs))
    }
}

/// The assembled application: graph, ids, and collected output.
pub struct SpeechApp {
    /// The dataflow graph (paper figure 2, D parallelized `n` ways).
    pub graph: SdfGraph,
    /// Actor A (read).
    pub a_read: ActorId,
    /// Actor B (FFT).
    pub b_fft: ActorId,
    /// Actor C (LU predictor solve).
    pub c_lu: ActorId,
    /// The parallel error-generation actors D0..D(n−1).
    pub d_error: Vec<ActorId>,
    /// Actor E (Huffman).
    pub e_huffman: ActorId,
    /// A→D section edges.
    pub section_edges: Vec<EdgeId>,
    /// B→C lag edge.
    lags_edge: EdgeId,
    /// C→D coefficient edges.
    pub coeff_edges: Vec<EdgeId>,
    /// C→E coefficient edge (kept with the bitstream for decoding).
    pub coeff_to_coder: EdgeId,
    /// D→E error edges.
    pub error_edges: Vec<EdgeId>,
    config: ErrorStageConfig,
    /// Frames compressed by E (shared with the running system).
    pub output: Arc<Mutex<Vec<CompressedFrame>>>,
}

impl SpeechApp {
    /// Builds the application graph for `config`.
    ///
    /// # Errors
    ///
    /// [`AppError`](crate::AppError) for a configuration application
    /// 1's validation refuses.
    pub fn new(config: ErrorStageConfig) -> Result<Self> {
        config.validate()?;
        let n = config.n_pes;
        let [frame, section, coeffs, errors] = config.edge_bytes();

        let mut g = SdfGraph::new();
        let a = g.add_actor("A:read", cost::read_cycles(config.frame));
        let b = g.add_actor("B:fft", fft_cycles(config.frame.next_power_of_two()));
        let c = g.add_actor("C:lu", cost::lu_cycles(config.frame, config.order));
        let e = g.add_actor("E:huffman", huffman_cycles(config.frame));
        let mut d = Vec::new();
        let (mut section_edges, mut coeff_edges, mut error_edges) = (vec![], vec![], vec![]);

        // A → B: the full frame (dynamic: run-time frame length).
        g.add_dynamic_edge(a, b, 1, 1, 0, frame)?;
        // B → C: autocorrelation lags (dynamic: order varies).
        let lags_edge = g.add_dynamic_edge(b, c, 1, 1, 0, coeffs * 2)?;
        // C → E: the coefficients also travel to the coder, which stores
        // them with the bitstream so frames stay decodable.
        let coeff_to_coder = g.add_dynamic_edge(c, e, 1, 1, 0, coeffs)?;
        let d_cycles = cost::error_cycles(config.frame / n, config.order);
        for i in 0..n {
            let di = g.add_actor(format!("D{i}:error"), d_cycles);
            section_edges.push(g.add_dynamic_edge(a, di, 1, 1, 0, section)?);
            coeff_edges.push(g.add_dynamic_edge(c, di, 1, 1, 0, coeffs)?);
            error_edges.push(g.add_dynamic_edge(di, e, 1, 1, 0, errors)?);
            d.push(di);
        }

        Ok(SpeechApp {
            graph: g,
            a_read: a,
            b_fft: b,
            c_lu: c,
            d_error: d,
            e_huffman: e,
            section_edges,
            lags_edge,
            coeff_edges,
            coeff_to_coder,
            error_edges,
            config,
            output: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Lowers the application onto `1 + n_pes` processors and returns the
    /// runnable system: P0 = A, B, C, E; P(1+i) = D_i.
    ///
    /// # Errors
    ///
    /// Any SPI build error.
    pub fn system(&self, iterations: u64) -> Result<SpiSystem> {
        let mut builder = SpiSystemBuilder::new(self.graph.clone());
        self.configure(&mut builder);
        builder.iterations(iterations);
        Ok(build_on_error_pes(builder, &self.d_error)?)
    }

    /// Registers every actor implementation and resource estimate on
    /// `builder` (exposed so benches can tweak builder options first).
    ///
    /// Every actor keeps its working buffers between firings, sized by
    /// its first one, and writes its outputs into the slots the firing
    /// lends: a firing allocates only the parts of the
    /// [`CompressedFrame`] E keeps.
    pub fn configure(&self, builder: &mut SpiSystemBuilder) {
        let cfg = self.config;

        // ----- Actor A: synthetic speech-like frames ------------------
        let ab = self.graph.out_edges(self.a_read)[0];
        let section_edges = self.section_edges.clone();
        let mut frame = None;
        builder.actor(self.a_read, move |ctx: &mut Firing| {
            let frame = frame.get_or_insert_with(|| Vec::with_capacity(cfg.frame));
            let (frame_len, order) = cfg.dims(ctx.iter);
            synth_frame_into(cfg.seed, ctx.iter, frame_len, frame);
            // Full frame to the FFT stage.
            put_f64s(ctx.output(ab), frame);
            // Overlapping sections (with `order` samples of history) to
            // each error PE.
            for (i, &edge) in section_edges.iter().enumerate() {
                cfg.section(i, frame, order, ctx.output(edge));
            }
            cost::read_cycles(frame_len)
        });

        // ----- Actor B: FFT → autocorrelation via power spectrum -------
        // The frame is decoded, and its lags computed, into buffers the
        // actor keeps; the lags are written straight into the lent slot.
        let bc = self.lags_edge;
        let mut scratch = None;
        builder.actor(self.b_fft, move |ctx: &mut Firing| {
            let (frame, lags) = scratch.get_or_insert_with(|| {
                (
                    Vec::with_capacity(cfg.frame),
                    Vec::with_capacity(cfg.order + 1),
                )
            });
            f64s_into(ctx.input(ab), frame);
            let order = cfg.dims(ctx.iter).1;
            autocorrelation_into(frame, order, lags);
            put_order_payload(ctx.output(bc), order, lags);
            fft_cycles(frame.len().next_power_of_two())
        });

        // ----- Actor C: LU solve for predictor coefficients -----------
        let coeff_edges = self.coeff_edges.clone();
        let coeff_to_coder = self.coeff_to_coder;
        let mut predictor = None;
        builder.actor(self.c_lu, move |ctx: &mut Firing| {
            let predictor = predictor.get_or_insert_with(|| Predictor::new(cfg.order));
            let order = read_order_payload(ctx.input(bc), &mut predictor.lags);
            predictor.solve(order);
            for &edge in coeff_edges.iter().chain([&coeff_to_coder]) {
                put_order_payload(ctx.output(edge), order, &predictor.coeffs);
            }
            cost::lu_cycles(predictor.lags.len() * 16, order)
        });

        // ----- Actors D_i: parallel prediction-error generation --------
        for (i, &di) in self.d_error.iter().enumerate() {
            let edges = [&self.section_edges, &self.coeff_edges, &self.error_edges];
            error_actor(builder, cfg, i, di, edges.map(|e| e[i]));
        }

        // ----- Actor E: quantize + Huffman-code the residual -----------
        let error_edges = self.error_edges.clone();
        let output = Arc::clone(&self.output);
        let mut scratch = None;
        builder.actor(self.e_huffman, move |ctx: &mut Firing| {
            let (residual, symbols) = scratch.get_or_insert_with(|| {
                (Vec::with_capacity(cfg.frame), Vec::with_capacity(cfg.frame))
            });
            residual.clear();
            residual.extend(error_edges.iter().flat_map(|&edge| f64s(ctx.input(edge))));
            let mut coeffs = Vec::new();
            let order = read_order_payload(ctx.input(coeff_to_coder), &mut coeffs);
            let energy: f64 = residual.iter().map(|e| e * e).sum();
            let q = Quantizer::new(4.0, 8);
            symbols.clear();
            symbols.extend(residual.iter().map(|&e| q.quantize(e)));
            let code = HuffmanCode::from_symbols(symbols).ok();
            let encoded = code.as_ref().and_then(|code| code.encode(symbols).ok());
            let (bits, bitlen) = encoded.unwrap_or_default();
            output
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(CompressedFrame {
                    iter: ctx.iter,
                    frame_len: residual.len(),
                    order,
                    bits,
                    bitlen,
                    residual_energy: energy,
                    code,
                    quantizer: q,
                    coeffs,
                });
            huffman_cycles(symbols.len())
        });

        // ----- Resource estimates for the front-end actors -------------
        builder.actor_resources(self.a_read, components::io_interface());
        let fft_points = cfg.frame.next_power_of_two() as u64;
        builder.actor_resources(self.b_fft, components::fft_core(fft_points));
        builder.actor_resources(self.c_lu, components::lu_solver(cfg.order as u64));
        builder.actor_resources(self.e_huffman, components::huffman_encoder());
    }

    /// The configuration this app was built with.
    pub fn config(&self) -> ErrorStageConfig {
        self.config
    }
}

/// Largest phase offset of a frame: `(iter % 16)·31`.
const MAX_SHIFT: usize = 15 * 31;

/// The tones of every phase a frame of at most `2^k` samples reaches,
/// `sin(0.11·ph) + 0.5·sin(0.037·ph)` for `ph < MAX_SHIFT + 2^k`, one
/// slot per `k`, built by whichever caller gets there first.
static TONES: [OnceLock<Box<[f64]>>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

fn tones(len: usize) -> &'static [f64] {
    let k = len.next_power_of_two().trailing_zeros() as usize;
    TONES[k].get_or_init(|| {
        (0..MAX_SHIFT + (1 << k))
            .map(|ph| {
                let ph = ph as f64;
                (ph * 0.11).sin() + 0.5 * (ph * 0.037).sin()
            })
            .collect()
    })
}

/// Deterministic synthetic "speech": a few sinusoids + AR(1) noise.
pub fn synth_frame(seed: u64, iter: u64, len: usize) -> Vec<f64> {
    let mut frame = Vec::new();
    synth_frame_into(seed, iter, len, &mut frame);
    frame
}

/// [`synth_frame`] into `out`, which is cleared first. The phase of
/// sample `t` is the integer `t + (iter % 16)·31`, so its tones are
/// read from a table; the noise is drawn per sample.
pub fn synth_frame_into(seed: u64, iter: u64, len: usize, out: &mut Vec<f64>) {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(iter.wrapping_mul(1442695040888963407));
    let mut noise_prev = 0.0;
    let shift = (iter % 16) as usize * 31;
    out.clear();
    out.extend(tones(len)[shift..shift + len].iter().map(|&tone| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
        noise_prev = 0.7 * noise_prev + 0.3 * u;
        tone + 0.25 * noise_prev
    }));
}

/// Autocorrelation lags `0..=order` via the FFT power-spectrum method
/// (Wiener–Khinchin), matching what a hardware FFT front-end computes.
pub fn autocorr_via_fft(frame: &[f64], order: usize) -> Vec<f64> {
    spi_dsp::fft::autocorrelation(frame, order)
}

/// Solves the order-`order` normal equations from autocorrelation `r`
/// (Toeplitz system via LU, as the paper's actor C does). Falls back to
/// zero coefficients on singular systems (silent frames).
pub fn solve_normal_equations(r: &[f64], order: usize) -> Vec<f64> {
    let mut coeffs = Vec::new();
    solve_normal_equations_into(r, order, &mut (Vec::new(), Vec::new()), &mut coeffs);
    coeffs
}

/// [`solve_normal_equations`] into `coeffs`, with the matrix and its
/// row permutation kept in `lu` between calls.
pub fn solve_normal_equations_into(
    r: &[f64],
    order: usize,
    lu: &mut (Vec<f64>, Vec<usize>),
    coeffs: &mut Vec<f64>,
) {
    let m = order.min(r.len().saturating_sub(1));
    coeffs.clear();
    if m == 0 {
        return;
    }
    let (matrix, perm) = lu;
    matrix.clear();
    matrix.resize(m * m, 0.0);
    for i in 0..m {
        for j in 0..m {
            matrix[i * m + j] = r[i.abs_diff(j)];
        }
        matrix[i * m + i] += 1e-9 * (r[0].abs() + 1.0);
    }
    match lu_decompose_into(matrix, m, perm) {
        Ok(()) => lu_solve_into(matrix, m, perm, &r[1..=m], coeffs),
        Err(_) => coeffs.resize(m, 0.0),
    }
}

/// Actor C's normal-equation solve in buffers kept between frames,
/// sized for models of order at most the one it was made for:
/// autocorrelation lags in, predictor coefficients out.
pub(crate) struct Predictor {
    /// Autocorrelation lags `0..=order`, the solve's input.
    pub lags: Vec<f64>,
    /// The normal equations' LU factors and row permutation.
    lu: (Vec<f64>, Vec<usize>),
    /// Predictor coefficients, the solve's output.
    pub coeffs: Vec<f64>,
}

impl Predictor {
    pub(crate) fn new(order: usize) -> Self {
        Predictor {
            lags: Vec::with_capacity(order + 1),
            lu: (Vec::with_capacity(order * order), Vec::with_capacity(order)),
            coeffs: Vec::with_capacity(order),
        }
    }

    /// Solves the order-`order` normal equations of `lags` into
    /// `coeffs` ([`solve_normal_equations_into`]).
    pub(crate) fn solve(&mut self, order: usize) {
        solve_normal_equations_into(&self.lags, order, &mut self.lu, &mut self.coeffs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_matches_figure2_topology() {
        let app = SpeechApp::new(ErrorStageConfig {
            n_pes: 3,
            ..Default::default()
        })
        .unwrap();
        // A, B, C, E + 3 D's.
        assert_eq!(app.graph.actor_count(), 7);
        // A→B, B→C, C→E + 3×(A→D, C→D, D→E).
        assert_eq!(app.graph.edge_count(), 3 + 9);
        assert!(app.graph.dynamic_edges().len() == app.graph.edge_count());
    }

    #[test]
    fn degenerate_configs_rejected() {
        assert!(SpeechApp::new(ErrorStageConfig {
            n_pes: 0,
            ..Default::default()
        })
        .is_err());
        assert!(SpeechApp::new(ErrorStageConfig {
            frame: 8,
            order: 8,
            ..Default::default()
        })
        .is_err());
        assert!(SpeechApp::new(ErrorStageConfig {
            order: 0,
            ..Default::default()
        })
        .is_err());
    }

    /// The closed form the tone table stands for: both sines computed
    /// per sample.
    fn synth_frame_untabled(seed: u64, iter: u64, len: usize) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(iter.wrapping_mul(1442695040888963407));
        let mut noise_prev = 0.0;
        (0..len)
            .map(|t| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
                noise_prev = 0.7 * noise_prev + 0.3 * u;
                let ph = t as f64 + (iter % 16) as f64 * 31.0;
                (ph * 0.11).sin() + 0.5 * (ph * 0.037).sin() + 0.25 * noise_prev
            })
            .collect()
    }

    fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (t, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, sample {t}: {g} vs {w}");
        }
    }

    #[test]
    fn tabled_tones_are_bit_identical_to_the_closed_form() {
        // Every phase `iter % 16` at every length 0..=2048: a length
        // reads the table of its size class, and a shorter frame is a
        // prefix of a longer one of the same seed and iteration, so each
        // length is held to a prefix of one untabled frame.
        let mut frame = Vec::new();
        for iter in 16..32 {
            let want = synth_frame_untabled(7, iter, 2048);
            for len in 0..=2048 {
                synth_frame_into(7, iter, len, &mut frame);
                assert_bit_identical(&frame, &want[..len], &format!("iter {iter}, len {len}"));
            }
        }
        // Seeds other than the first, lengths either side of a class
        // boundary.
        for seed in [0, 3, u64::MAX] {
            for len in [1, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025] {
                let iter = seed.wrapping_add(len as u64);
                let what = format!("seed {seed}, iter {iter}, len {len}");
                let want = synth_frame_untabled(seed, iter, len);
                assert_bit_identical(&synth_frame(seed, iter, len), &want, &what);
            }
        }
        // Three samples as the untabled code produced them.
        assert_eq!(synth_frame(7, 0, 256)[0].to_bits(), 0x3fa0_9865_fd26_bffd);
        assert_eq!(
            synth_frame(5, 13, 512)[300].to_bits(),
            0x3ff5_7a15_ad1e_7812
        );
        assert_eq!(
            synth_frame(9, 47, 2048)[2047].to_bits(),
            0xbfe3_ecf8_c220_1a7e
        );
    }

    #[test]
    fn tone_table_built_by_two_threads_at_once_is_the_closed_form() {
        // 2¹²-sample frames are this test's own size class: both threads
        // race to build its table, and whoever loses reads the winner's.
        let len = 3000;
        let barrier = std::sync::Barrier::new(2);
        let run = |iter| {
            barrier.wait();
            synth_frame(11, iter, len)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| run(4));
            (run(5), other.join().expect("synthesis thread"))
        });
        assert_bit_identical(&a, &synth_frame_untabled(11, 5, len), "thread one");
        assert_bit_identical(&b, &synth_frame_untabled(11, 4, len), "thread two");
    }

    #[test]
    fn autocorr_via_fft_matches_direct() {
        // Every frame length application 1 can see and every order up
        // to 16, including order ≥ len (the lag count clamps to len).
        for len in 1..=600usize {
            let frame = synth_frame(9, len as u64, len);
            for order in 0..=16usize {
                let via_fft = autocorr_via_fft(&frame, order);
                let direct = spi_dsp::lpc::autocorrelation(&frame, order.min(len - 1));
                assert_eq!(via_fft.len(), direct.len(), "len {len} order {order}");
                for (a, b) in via_fft.iter().zip(&direct) {
                    assert!(
                        (a - b).abs() <= 1e-9 * direct[0],
                        "len {len} order {order}: {a} vs {b}"
                    );
                }
            }
        }
        assert_eq!(autocorr_via_fft(&[], 6), vec![0.0]);
    }

    #[test]
    fn frame_lengths_vary_within_bounds() {
        let cfg = ErrorStageConfig {
            vary_rates: true,
            ..Default::default()
        };
        for iter in 0..100 {
            let (len, m) = cfg.dims(iter);
            assert!(len <= cfg.frame);
            assert!(len >= cfg.frame / 2 - 1);
            assert!(m >= 2 && m <= cfg.order);
        }
    }

    #[test]
    fn frames_never_exceed_the_configured_length() {
        // Every frame lies between the shortest frame validation counts
        // PEs against and `frame`, both reached, at the floor and away
        // from it, whatever the PE count.
        for (frame, order) in [(32, 8), (40, 10), (41, 10), (45, 8), (64, 10), (512, 10)] {
            for n_pes in [1, 7, 16] {
                let cfg = ErrorStageConfig {
                    n_pes,
                    frame,
                    order,
                    vary_rates: true,
                    seed: 0,
                };
                let lens: Vec<usize> = (0..4096).map(|iter| cfg.dims(iter).0).collect();
                assert!(lens.iter().all(|&len| len <= frame), "{cfg:?}");
                assert_eq!(lens.iter().max(), Some(&frame), "{cfg:?}");
                assert_eq!(lens.iter().min(), Some(&cfg.shortest_frame()), "{cfg:?}");
            }
        }
    }

    #[test]
    fn end_to_end_two_pes_compresses_frames() {
        let app = SpeechApp::new(ErrorStageConfig {
            n_pes: 2,
            frame: 128,
            order: 6,
            vary_rates: true,
            seed: 7,
        })
        .unwrap();
        let sys = app.system(5).unwrap();
        let report = sys.run().unwrap();
        assert!(report.sim.makespan_cycles > 0);
        let frames = app.output.lock().unwrap();
        assert_eq!(frames.len(), 5);
        for f in frames.iter() {
            assert!(f.bitlen > 0, "every frame produces a bitstream");
            assert!(f.residual_energy.is_finite());
        }
    }

    #[test]
    fn frames_decompress_with_reasonable_snr() {
        let cfg = ErrorStageConfig {
            n_pes: 2,
            frame: 192,
            order: 8,
            vary_rates: false,
            seed: 3,
        };
        let app = SpeechApp::new(cfg).unwrap();
        let sys = app.system(4).unwrap();
        sys.run().unwrap();
        let frames = app.output.lock().unwrap();
        for f in frames.iter() {
            let decoded = f.decompress().expect("decodable frame");
            let original = synth_frame(cfg.seed, f.iter, cfg.frame);
            assert_eq!(decoded.len(), original.len());
            let err: f64 = decoded
                .iter()
                .zip(&original)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let sig: f64 = original.iter().map(|v| v * v).sum();
            let snr_db = 10.0 * (sig / err.max(1e-12)).log10();
            assert!(snr_db > 15.0, "frame {} SNR {snr_db:.1} dB too low", f.iter);
            // And it genuinely compressed (vs 64-bit raw samples).
            assert!(f.bitlen < f.frame_len * 32);
        }
    }

    #[test]
    fn parallel_output_matches_serial_reference() {
        // The 3-PE pipeline's residual is a serial computation of the
        // same frames: every section carries its history, and E sums
        // the residual in frame order, so the energy is the serial one.
        let cfg = ErrorStageConfig {
            n_pes: 3,
            frame: 96,
            order: 4,
            vary_rates: false,
            seed: 11,
        };
        let app = SpeechApp::new(cfg).unwrap();
        let sys = app.system(3).unwrap();
        sys.run().unwrap();
        let frames = app.output.lock().unwrap();
        for f in frames.iter() {
            let frame = synth_frame(cfg.seed, f.iter, cfg.frame);
            let r = autocorr_via_fft(&frame, cfg.order);
            let coeffs = solve_normal_equations(&r, cfg.order);
            let serial: f64 = spi_dsp::lpc::prediction_error(&frame, &coeffs)
                .iter()
                .map(|e| e * e)
                .sum();
            assert_eq!(f.residual_energy, serial, "frame {}", f.iter);
        }
    }
}
