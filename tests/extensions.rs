//! Integration tests for the beyond-the-paper extensions: CSDF, the
//! filter bank, fully-static scheduling, the shared bus, DIF round-trips
//! and trace rendering.

use std::sync::{Arc, Mutex};

use spi_repro::apps::{FilterBankApp, FilterBankConfig, PrognosisApp, PrognosisConfig};
use spi_repro::dataflow::psdf::{PsdfGraph, RateExpr};
use spi_repro::dataflow::{dif, CsdfGraph, PhaseRates};
use spi_repro::platform::BusSpec;
use spi_repro::sched::ProcId;
use spi_repro::spi::{Firing, SchedulingMode, SpiSystemBuilder};
use spi_repro::trace::{render_gantt, ClockKind, RingTracer};

#[path = "support/oracle.rs"]
mod oracle;

#[test]
fn filter_bank_output_is_band_limited() {
    // The low band (cutoff 0.2) must carry more energy than the high
    // band (cutoff 0.05) for a mixed-tone input.
    let cfg = FilterBankConfig {
        frame: 256,
        taps: 31,
        ..Default::default()
    };
    let app = FilterBankApp::new(cfg).expect("valid config");
    let sys = app.system(8).expect("buildable");
    sys.run().expect("clean run");
    let out = app.output.lock().expect("output");
    let split = cfg.frame / cfg.low_decimation;
    let (mut low_e, mut high_e) = (0.0, 0.0);
    for frame in out.iter().skip(2) {
        low_e += frame[..split].iter().map(|x| x * x).sum::<f64>();
        high_e += frame[split..].iter().map(|x| x * x).sum::<f64>();
    }
    assert!(
        low_e > high_e,
        "wider-band branch keeps more energy: low {low_e} vs high {high_e}"
    );
}

#[test]
fn four_pe_prognosis_extension_runs() {
    // The paper could only fit 2 PEs on its FPGA; the simulator scales.
    let app = PrognosisApp::new(PrognosisConfig {
        n_pes: 4,
        particles: 240,
        steps: 30,
        ..Default::default()
    })
    .expect("valid config");
    let sys = app.system(30).expect("buildable");
    sys.run().expect("clean run");
    let rmse = app.tracking_rmse(8);
    assert!(rmse < 0.4, "4-PE filter still tracks: {rmse}");
}

#[test]
fn app_graphs_roundtrip_through_dif() {
    let app = PrognosisApp::new(PrognosisConfig::default()).expect("valid config");
    let text = dif::to_dif(&app.graph, "prognosis");
    let back = dif::from_dif(&text).expect("self-produced text parses");
    assert_eq!(app.graph, back);
}

#[test]
fn csdf_reduction_feeds_spi_directly() {
    // Reduce a CSDF distributor and lower the reduction through SPI.
    let mut csdf = CsdfGraph::new();
    let src = csdf.add_actor("src", 10);
    let snk = csdf.add_actor("snk", 10);
    csdf.add_edge(
        src,
        snk,
        PhaseRates::new(vec![2, 1]).expect("valid"),
        PhaseRates::constant(1).expect("valid"),
        0,
        4,
    )
    .expect("edge");
    let reduction = csdf.to_sdf().expect("reducible");
    let g = reduction.graph().clone();
    let e = g.edges().next().expect("one edge").0;
    let mut b = SpiSystemBuilder::new(g);
    b.actor(src, move |ctx: &mut spi_repro::spi::Firing| {
        // One SDF firing = the 2-phase cycle = 3 raw tokens.
        let iter = ctx.iter;
        ctx.output(e).resize(3 * 4, iter as u8);
        20
    });
    b.actor(snk, move |ctx: &mut spi_repro::spi::Firing| {
        assert_eq!(ctx.input(e).len(), 4, "per firing: 1 token of 4 B");
        10
    });
    b.iterations(6);
    let sys = b.build(2, |a| ProcId(a.0)).expect("buildable");
    sys.run().expect("clean run");
}

#[test]
fn fully_static_and_bus_compose() {
    // Worst-case platform: static releases over a shared bus — must
    // still complete and be slower than the self-timed p2p baseline.
    let build = |static_mode: bool, bus: bool| {
        let mut g = spi_repro::dataflow::SdfGraph::new();
        let a = g.add_actor("a", 50);
        let b_ = g.add_actor("b", 50);
        let e = g.add_edge(a, b_, 1, 1, 0, 64).expect("edge");
        let mut b = SpiSystemBuilder::new(g);
        b.actor(a, move |ctx: &mut spi_repro::spi::Firing| {
            ctx.output(e).resize(64, 0);
            50
        });
        b.actor(b_, |_: &mut spi_repro::spi::Firing| 50);
        b.iterations(20);
        if static_mode {
            b.scheduling_mode(SchedulingMode::FullyStatic { slack_percent: 25 });
        }
        if bus {
            b.shared_bus(BusSpec {
                arbitration_cycles: 8,
            });
        }
        let sys = b.build(2, |x| ProcId(x.0)).expect("buildable");
        sys.run().expect("clean run").sim.makespan_cycles
    };
    let baseline = build(false, false);
    let worst = build(true, true);
    assert!(
        worst >= baseline,
        "baseline {baseline} vs static+bus {worst}"
    );
}

#[test]
fn spi_systems_run_identically_on_real_threads() {
    use spi_repro::apps::{ErrorStageApp, ErrorStageConfig};

    let des_residuals = oracle::on_every_backend(|_| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: 3,
            frame: 120,
            order: 5,
            vary_rates: true,
            seed: 31,
        })
        .expect("valid config");
        let sys = app.system(4).expect("buildable");
        let residuals = app.residual_energy.clone();
        let observe = move || residuals.lock().expect("res").clone();
        (sys, None, Box::new(observe))
    });
    assert_eq!(des_residuals.len(), 4);
}

#[test]
fn psdf_envelope_runs_identically_on_real_threads() {
    // The parameterized front end beside the cyclo-static one above: a
    // PSDF graph (N ∈ 16..=64, M ∈ 2..=8) reduced to its VTS envelope,
    // three processors, N and M changing every iteration — the system
    // `lowering_pins.txt` pins, here on every backend.
    let seen = oracle::on_every_backend(|_| {
        let mut psdf = PsdfGraph::new();
        let n = psdf.add_param("N", 16, 64);
        let m = psdf.add_param("M", 2, 8);
        let reader = psdf.add_actor("reader", 30);
        let solver = psdf.add_actor("solver", 80);
        let sink = psdf.add_actor("sink", 20);
        let var = |param| RateExpr::Param { param, mul: 1 };
        let data = psdf.add_edge(reader, solver, var(n), var(n), 0, 8);
        let coef = psdf.add_edge(solver, sink, var(m), var(m), 0, 8);
        let (data, coef) = (data.expect("edge"), coef.expect("edge"));
        psdf.check_consistency()
            .expect("consistent over the domain");
        let n_at = |iter: u64| (16 + (iter * 7) % 49) as usize;
        let m_at = |iter: u64| (2 + (iter * 3) % 7) as usize;
        let mut b = SpiSystemBuilder::new(psdf.vts_envelope().expect("bounded domains"));
        b.actor(reader, move |ctx: &mut Firing| {
            let iter = ctx.iter;
            ctx.output(data).resize(n_at(iter) * 8, iter as u8);
            30
        });
        b.actor(solver, move |ctx: &mut Firing| {
            let frame = ctx.input(data);
            let digest = frame
                .iter()
                .fold(frame.len() as u8, |d, x| d.wrapping_add(*x));
            let iter = ctx.iter;
            ctx.output(coef).resize(m_at(iter) * 8, digest);
            80
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        b.actor(sink, move |ctx: &mut Firing| {
            log.lock().expect("log").push(ctx.input(coef).to_vec());
            20
        });
        b.iterations(40);
        let sys = b.build(3, |a| ProcId(a.0)).expect("buildable");
        (
            sys,
            None,
            Box::new(move || seen.lock().expect("log").clone()),
        )
    });
    assert_eq!(seen.len(), 40);
    assert_eq!(seen[1].len(), (2 + 3) * 8, "M follows its schedule");
}

#[test]
fn trace_gantt_covers_all_pes() {
    let mut g = spi_repro::dataflow::SdfGraph::new();
    let a = g.add_actor("producer", 10);
    let b_ = g.add_actor("consumer", 10);
    let e = g.add_edge(a, b_, 1, 1, 0, 4).expect("edge");
    let mut b = SpiSystemBuilder::new(g);
    b.actor(a, move |ctx: &mut spi_repro::spi::Firing| {
        ctx.output(e).resize(4, 0);
        10
    });
    b.actor(b_, |_: &mut spi_repro::spi::Firing| 10);
    b.iterations(3);
    let ring = Arc::new(RingTracer::with_default_capacity(2));
    b.tracer(ring.clone());
    let sys = b.build(2, |x| ProcId(x.0)).expect("buildable");
    let meta = sys.trace_meta(ClockKind::Cycles);
    sys.run().expect("clean run");
    let trace = ring.finish(meta);
    let gantt = render_gantt(&trace, 40);
    assert!(gantt.contains("pe0 |") && gantt.contains("pe1 |"));
    assert!(gantt.contains('#'), "firings are drawn:\n{gantt}");
    assert!(trace.meta.labels.iter().any(|l| l == "fire:producer#0"));
}
