//! A two-channel multirate filter bank — the CSDF showcase workload.
//!
//! Beyond the paper's two evaluation applications, this subsystem
//! demonstrates the full cyclo-static path through SPI: a distributor
//! alternates frames between two analysis branches (a CSDF actor with
//! phase rates `[1,0]` / `[0,1]`), each branch low-pass/decimates at a
//! different rate, and a combiner interleaves the results. The CSDF
//! graph is reduced to SDF ([`spi_dataflow::CsdfGraph::to_sdf`]) and
//! lowered through the ordinary SPI flow onto `3` processors.

use std::sync::{Arc, Mutex, PoisonError};

use spi::{Firing, SpiSystem, SpiSystemBuilder};
use spi_dataflow::{ActorId, CsdfGraph, EdgeId, PhaseRates, SdfGraph};
use spi_dsp::fir::{decimate, fir_cycles, Fir};
use spi_platform::components;
use spi_sched::ProcId;

use crate::error::{AppError, Result};
use crate::util::f64s;

/// Configuration of the filter bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterBankConfig {
    /// Samples per frame.
    pub frame: usize,
    /// FIR taps per branch filter.
    pub taps: usize,
    /// Decimation factor of the low band.
    pub low_decimation: usize,
    /// Decimation factor of the high band.
    pub high_decimation: usize,
    /// RNG seed for the synthetic input.
    pub seed: u64,
}

impl Default for FilterBankConfig {
    fn default() -> Self {
        FilterBankConfig {
            frame: 128,
            taps: 15,
            low_decimation: 2,
            high_decimation: 4,
            seed: 17,
        }
    }
}

/// The assembled filter bank.
pub struct FilterBankApp {
    /// The CSDF model (kept for inspection; the lowered system uses its
    /// SDF reduction).
    pub csdf: CsdfGraph,
    /// The reduced SDF graph actually lowered.
    pub graph: SdfGraph,
    /// Source/distributor actor.
    pub source: ActorId,
    /// Low-band branch actor.
    pub low: ActorId,
    /// High-band branch actor.
    pub high: ActorId,
    /// Combiner actor.
    pub sink: ActorId,
    /// Edges source→low, source→high, low→sink, high→sink.
    pub edges: [EdgeId; 4],
    config: FilterBankConfig,
    /// Interleaved band outputs per iteration pair.
    pub output: Arc<Mutex<Vec<Vec<f64>>>>,
}

impl FilterBankApp {
    /// Builds the CSDF model and its SDF reduction.
    ///
    /// # Errors
    ///
    /// [`AppError::Config`] on degenerate configurations.
    pub fn new(config: FilterBankConfig) -> Result<Self> {
        if config.frame < 8 || config.taps == 0 {
            return Err(AppError::Config(format!(
                "frame {} / taps {} too small",
                config.frame, config.taps
            )));
        }
        // The CSDF view: the distributor alternates full frames.
        let mut csdf = CsdfGraph::new();
        let c_src = csdf.add_actor("distribute", 20);
        let c_low = csdf.add_actor("low-band", fir_cycles(config.frame, config.taps));
        let c_high = csdf.add_actor("high-band", fir_cycles(config.frame, config.taps));
        let c_sink = csdf.add_actor("combine", 30);
        let rates = |phases: Vec<u32>| {
            PhaseRates::new(phases)
                .ok_or_else(|| AppError::Config("phase rates with no positive rate".into()))
        };
        csdf.add_edge(c_src, c_low, rates(vec![1, 0])?, rates(vec![1])?, 0, 8)?;
        csdf.add_edge(c_src, c_high, rates(vec![0, 1])?, rates(vec![1])?, 0, 8)?;
        csdf.add_edge(c_low, c_sink, rates(vec![1])?, rates(vec![1])?, 0, 8)?;
        csdf.add_edge(c_high, c_sink, rates(vec![1])?, rates(vec![1])?, 0, 8)?;
        let reduction = csdf.to_sdf()?;

        // For the lowered system we re-express the reduction with
        // byte-accurate dynamic edges (decimated frames vary in size).
        let mut g = SdfGraph::new();
        let source = g.add_actor("distribute", 20 * 2);
        let low = g.add_actor("low-band", fir_cycles(config.frame, config.taps));
        let high = g.add_actor("high-band", fir_cycles(config.frame, config.taps));
        let sink = g.add_actor("combine", 30);
        let frame_bytes = (config.frame * 8) as u32;
        let e_sl = g.add_dynamic_edge(source, low, 1, 1, 0, frame_bytes)?;
        let e_sh = g.add_dynamic_edge(source, high, 1, 1, 0, frame_bytes)?;
        let e_ls = g.add_dynamic_edge(low, sink, 1, 1, 0, frame_bytes)?;
        let e_hs = g.add_dynamic_edge(high, sink, 1, 1, 0, frame_bytes)?;
        debug_assert!(reduction.graph().is_consistent());

        Ok(FilterBankApp {
            csdf,
            graph: g,
            source,
            low,
            high,
            sink,
            edges: [e_sl, e_sh, e_ls, e_hs],
            config,
            output: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Lowers onto three processors: distributor+combiner on P0, one
    /// branch per remaining processor.
    ///
    /// # Errors
    ///
    /// Any SPI build error.
    pub fn system(&self, iterations: u64) -> Result<SpiSystem> {
        self.system_with(iterations, |_| {})
    }

    /// As [`FilterBankApp::system`], with a hook to customize the
    /// builder before lowering — attach a tracer, swap the channel
    /// template, toggle resynchronization — while keeping the canonical
    /// three-processor assignment.
    ///
    /// # Errors
    ///
    /// Any SPI build error.
    pub fn system_with(
        &self,
        iterations: u64,
        customize: impl FnOnce(&mut SpiSystemBuilder),
    ) -> Result<SpiSystem> {
        let mut builder = SpiSystemBuilder::new(self.graph.clone());
        self.configure(&mut builder);
        builder.iterations(iterations);
        customize(&mut builder);
        let (low, high) = (self.low, self.high);
        Ok(builder.build(3, move |a| {
            if a == low {
                ProcId(1)
            } else if a == high {
                ProcId(2)
            } else {
                ProcId(0)
            }
        })?)
    }

    /// Registers implementations and resources.
    pub fn configure(&self, builder: &mut SpiSystemBuilder) {
        let cfg = self.config;
        let [e_sl, e_sh, e_ls, e_hs] = self.edges;

        // Distributor: one SDF firing = one full CSDF phase cycle, so it
        // emits a frame on EACH branch per firing (even frame to low,
        // odd frame to high).
        builder.actor(self.source, move |ctx: &mut Firing| {
            let iter = ctx.iter;
            for (e, frame_idx) in [(e_sl, 2 * iter), (e_sh, 2 * iter + 1)] {
                let frame = synth(cfg.seed, frame_idx, cfg.frame);
                ctx.output(e).extend(frame.flat_map(f64::to_le_bytes));
            }
            40
        });

        // A branch filters its frame into a buffer it keeps and writes
        // the decimated band into its slot.
        let branch = |input, output, mut fir: Fir, factor| {
            let mut filtered = Vec::new();
            move |ctx: &mut Firing| {
                fir.process(f64s(ctx.input(input)), &mut filtered);
                let band = decimate(&filtered, factor);
                ctx.output(output).extend(band.flat_map(f64::to_le_bytes));
                // The MAC pipeline runs over every input sample.
                fir_cycles(filtered.len().max(1), cfg.taps)
            }
        };
        let low_fir = Fir::lowpass(cfg.taps, 0.2);
        builder.actor(self.low, branch(e_sl, e_ls, low_fir, cfg.low_decimation));
        let high_fir = Fir::lowpass(cfg.taps, 0.05);
        builder.actor(self.high, branch(e_sh, e_hs, high_fir, cfg.high_decimation));

        let output = Arc::clone(&self.output);
        builder.actor(self.sink, move |ctx: &mut Firing| {
            let merged: Vec<f64> = f64s(ctx.input(e_ls)).chain(f64s(ctx.input(e_hs))).collect();
            let n = merged.len();
            output
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(merged);
            30 + n as u64
        });

        builder.actor_resources(self.source, components::io_interface());
        builder.actor_resources(self.low, components::fft_core(64)); // FIR datapath proxy
        builder.actor_resources(self.high, components::fft_core(64));
        builder.actor_resources(self.sink, components::io_interface());
    }

    /// The configuration used.
    pub fn config(&self) -> FilterBankConfig {
        self.config
    }
}

/// Deterministic synthetic input: mixed low + high tones, one sample
/// at a time.
fn synth(seed: u64, frame_idx: u64, len: usize) -> impl Iterator<Item = f64> {
    (0..len).map(move |t| {
        let ph = (frame_idx as f64 * len as f64 + t as f64) + (seed % 97) as f64;
        (ph * 0.05).sin() + 0.5 * (ph * 2.4).sin()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csdf_model_is_reducible_and_consistent() {
        let app = FilterBankApp::new(FilterBankConfig::default()).unwrap();
        let reduction = app.csdf.to_sdf().unwrap();
        let q = reduction.graph().repetition_vector().unwrap();
        assert_eq!(q.total_firings(), 4);
        assert_eq!(
            reduction.phases_of(ActorId(0)),
            2,
            "distributor has 2 phases"
        );
        // The phase-accurate schedule exists.
        assert_eq!(app.csdf.phase_schedule().unwrap().len(), 5);
    }

    #[test]
    fn bank_runs_and_decimates() {
        let cfg = FilterBankConfig::default();
        let app = FilterBankApp::new(cfg).unwrap();
        let sys = app.system(6).unwrap();
        let report = sys.run().unwrap();
        assert!(report.makespan_us() > 0.0);
        let out = app.output.lock().unwrap();
        assert_eq!(out.len(), 6);
        let expect = cfg.frame / cfg.low_decimation + cfg.frame / cfg.high_decimation;
        for frame in out.iter() {
            assert_eq!(frame.len(), expect);
        }
    }

    #[test]
    fn branches_run_in_parallel() {
        // 3-proc period must beat single-proc clearly at large frames.
        let cfg = FilterBankConfig {
            frame: 512,
            taps: 31,
            ..Default::default()
        };
        let app = FilterBankApp::new(cfg).unwrap();
        let par = app.system(6).unwrap().run().unwrap().period_us();

        let app1 = FilterBankApp::new(cfg).unwrap();
        let mut builder = SpiSystemBuilder::new(app1.graph.clone());
        app1.configure(&mut builder);
        builder.iterations(6);
        let ser = builder
            .build(1, |_| ProcId(0))
            .unwrap()
            .run()
            .unwrap()
            .period_us();
        assert!(par < ser * 0.8, "parallel {par} vs serial {ser}");
    }

    #[test]
    fn degenerate_config_rejected() {
        assert!(FilterBankApp::new(FilterBankConfig {
            frame: 2,
            ..Default::default()
        })
        .is_err());
        assert!(FilterBankApp::new(FilterBankConfig {
            taps: 0,
            ..Default::default()
        })
        .is_err());
    }
}
