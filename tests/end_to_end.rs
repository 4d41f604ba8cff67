//! Cross-crate integration tests: the full stack from dataflow model to
//! timed simulation, exercised through realistic configurations.

use spi_repro::apps::{ErrorStageApp, ErrorStageConfig, PrognosisApp, PrognosisConfig, SpeechApp};
use spi_repro::dataflow::SdfGraph;
use spi_repro::sched::ProcId;
use spi_repro::spi::{Firing, SpiSystemBuilder};

#[test]
fn speech_pipeline_scales_and_stays_correct() {
    // Period decreases with PE count while every configuration produces
    // identical residual energies (vary_rates off for exact comparison).
    let run = |n: usize| {
        let app = SpeechApp::new(ErrorStageConfig {
            n_pes: n,
            frame: 240,
            order: 6,
            vary_rates: false,
            seed: 5,
        })
        .expect("valid config");
        let sys = app.system(6).expect("buildable");
        let report = sys.run().expect("clean run");
        let residuals: Vec<f64> = app
            .output
            .lock()
            .expect("output")
            .iter()
            .map(|f| f.residual_energy)
            .collect();
        (report.period_us(), residuals)
    };
    let (_, r1) = run(1);
    let (t2, r2) = run(2);
    let (t4, r4) = run(4);
    assert!(t4 < t2, "more PEs must not be slower: t2={t2} t4={t4}");
    for ((a, b), c) in r1.iter().zip(&r2).zip(&r4) {
        assert!((a - b).abs() / a.max(1e-12) < 0.05);
        assert!((a - c).abs() / a.max(1e-12) < 0.05);
    }
}

#[test]
fn prognosis_estimates_insensitive_to_distribution() {
    // 1-PE and 2-PE filters track the same trajectory to similar error.
    let rmse = |n: usize| {
        let app = PrognosisApp::new(PrognosisConfig {
            n_pes: n,
            particles: 240,
            steps: 50,
            ..Default::default()
        })
        .expect("valid config");
        let sys = app.system(50).expect("buildable");
        sys.run().expect("clean run");
        app.tracking_rmse(10)
    };
    let e1 = rmse(1);
    let e2 = rmse(2);
    assert!(e1 < 0.3, "serial filter tracks: {e1}");
    assert!(e2 < 0.3, "distributed filter tracks: {e2}");
}

#[test]
fn error_stage_handles_every_pe_count() {
    // Every PE count up to 16 builds and runs, at the default frames and
    // at the 4·order floor, collects one residual per frame, and sends
    // at least a section, an error block and a residual per PE and frame.
    const FRAMES: u64 = 3;
    let floor = ErrorStageConfig {
        frame: 40,
        order: 10,
        vary_rates: true,
        ..Default::default()
    };
    for base in [ErrorStageConfig::default(), floor] {
        for n in 1..=16 {
            let app =
                ErrorStageApp::new(ErrorStageConfig { n_pes: n, ..base }).expect("valid config");
            let sys = app.system(FRAMES).expect("buildable");
            let report = sys.run().expect("clean run");
            let residuals = app.residual_energy.lock().expect("res").len();
            assert_eq!(residuals, FRAMES as usize, "n = {n}, frame {}", base.frame);
            let messages = report.sim.total_messages();
            assert!(messages >= 3 * n as u64 * FRAMES, "n = {n}: {messages}");
        }
    }
}

#[test]
fn stateful_actor_accumulates_across_iterations() {
    // Actor state (the `self` of ActorFire) persists between firings.
    let mut g = SdfGraph::new();
    let a = g.add_actor("counter", 10);
    let b = g.add_actor("sink", 10);
    let e = g.add_edge(a, b, 1, 1, 0, 8).expect("edge");
    let mut builder = SpiSystemBuilder::new(g);
    let mut total = 0u64;
    builder.actor(a, move |ctx: &mut Firing| {
        total += ctx.iter + 1;
        ctx.output(e).extend(total.to_le_bytes());
        10
    });
    builder.actor(b, move |ctx: &mut Firing| {
        let got = u64::from_le_bytes(ctx.input(e).try_into().expect("8B"));
        let n = ctx.iter + 1;
        assert_eq!(got, n * (n + 1) / 2, "running triangular sum");
        10
    });
    builder.iterations(20);
    let sys = builder.build(2, |x| ProcId(x.0)).expect("buildable");
    sys.run().expect("clean run");
}

#[test]
fn three_stage_pipeline_with_feedback_runs_sustained() {
    // src → work → sink with sink feeding a gain back to src one
    // iteration later: exercises BBS feedback + pipeline fill together.
    let mut g = SdfGraph::new();
    let src = g.add_actor("src", 20);
    let work = g.add_actor("work", 40);
    let sink = g.add_actor("sink", 20);
    let e1 = g.add_edge(src, work, 1, 1, 0, 8).expect("edge");
    let e2 = g.add_edge(work, sink, 1, 1, 0, 8).expect("edge");
    let fb = g.add_edge(sink, src, 1, 1, 1, 8).expect("feedback");
    let mut builder = SpiSystemBuilder::new(g);
    builder.actor(src, move |ctx: &mut Firing| {
        let gain = f64::from_le_bytes(ctx.input(fb).try_into().expect("8B"));
        let x = (ctx.iter as f64 + 1.0) * (1.0 + gain);
        ctx.output(e1).extend(x.to_le_bytes());
        20
    });
    builder.actor(work, move |ctx: &mut Firing| {
        let x = f64::from_le_bytes(ctx.input(e1).try_into().expect("8B"));
        ctx.output(e2).extend((x * 2.0).to_le_bytes());
        40
    });
    builder.actor(sink, move |ctx: &mut Firing| {
        let x = f64::from_le_bytes(ctx.input(e2).try_into().expect("8B"));
        // Send back a bounded gain.
        ctx.output(fb).extend((0.1 * x.tanh()).to_le_bytes());
        20
    });
    builder.iterations(30);
    let sys = builder.build(3, |x| ProcId(x.0)).expect("buildable");
    let report = sys.run().expect("clean run");
    // 30 iterations × 3 cross edges + 1 pipeline fill on the feedback.
    assert_eq!(report.sim.total_messages(), 30 * 3 + 1);
}

#[test]
fn resync_preserves_functional_results() {
    // Residuals must be bit-identical with and without resynchronization
    // (the optimization touches synchronization only, never data).
    let run = |resync: bool| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: 3,
            frame: 180,
            order: 6,
            vary_rates: true,
            seed: 9,
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder);
        builder.iterations(5);
        builder.resynchronization(resync);
        builder.force_ubs(true);
        let sys = app.build_with(builder).expect("buildable");
        sys.run().expect("clean run");
        let r = app.residual_energy.lock().expect("res").clone();
        r
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn delimiter_signalling_is_functionally_identical() {
    use spi_repro::dataflow::LengthSignal;
    let run = |signal: LengthSignal| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: 2,
            frame: 120,
            order: 4,
            vary_rates: true,
            seed: 13,
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder);
        builder.iterations(4);
        builder.length_signal(signal);
        let sys = app.build_with(builder).expect("buildable");
        sys.run().expect("clean run");
        let r = app.residual_energy.lock().expect("res").clone();
        r
    };
    assert_eq!(run(LengthSignal::Header), run(LengthSignal::Delimiter));
}
