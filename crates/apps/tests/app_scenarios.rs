//! Scenario tests stressing the applications beyond their defaults.

use spi_apps::{
    ErrorStageApp, ErrorStageConfig, FilterBankApp, FilterBankConfig, PrognosisApp,
    PrognosisConfig, SpeechApp,
};

#[test]
fn prognosis_with_non_divisible_particle_count() {
    // 100 particles on 3 PEs: 33 per PE, working total 99.
    let app = PrognosisApp::new(PrognosisConfig {
        n_pes: 3,
        particles: 100,
        steps: 25,
        ..Default::default()
    })
    .expect("valid config");
    let sys = app.system(25).expect("buildable");
    sys.run().expect("clean run");
    assert_eq!(app.estimates.lock().expect("estimates").len(), 25);
    let rmse = app.tracking_rmse(8);
    assert!(
        rmse < 0.5,
        "filter still tracks with truncated count: {rmse}"
    );
}

#[test]
fn prognosis_rmse_improves_with_more_particles() {
    // Monte-Carlo error shrinks as 1/sqrt(N) only in expectation; a
    // single-seed comparison at the measurement-noise floor is noise, so
    // average the RMSE over several seeds before comparing counts.
    let rmse = |particles: usize, seed: u64| {
        let app = PrognosisApp::new(PrognosisConfig {
            n_pes: 2,
            particles,
            steps: 40,
            seed,
            ..Default::default()
        })
        .expect("valid config");
        let sys = app.system(40).expect("buildable");
        sys.run().expect("clean run");
        app.tracking_rmse(10)
    };
    let seeds = [4242, 4243, 4244, 4245];
    let mean = |particles: usize| {
        seeds.iter().map(|&s| rmse(particles, s)).sum::<f64>() / seeds.len() as f64
    };
    let coarse = mean(20);
    let fine = mean(400);
    assert!(
        fine < coarse * 1.2,
        "more particles must not clearly hurt: 20→{coarse:.4}, 400→{fine:.4}"
    );
    assert!(fine < 0.3, "400 particles track well: {fine}");
}

#[test]
fn speech_app_with_single_pe_and_max_order() {
    let app = SpeechApp::new(ErrorStageConfig {
        n_pes: 1,
        frame: 128,
        order: 16,
        vary_rates: true,
        seed: 77,
    })
    .expect("valid config");
    let sys = app.system(8).expect("buildable");
    sys.run().expect("clean run");
    let frames = app.output.lock().expect("output");
    assert_eq!(frames.len(), 8);
    // Compression achieved: Huffman bits well under raw 64-bit samples.
    for f in frames.iter() {
        assert!(f.bitlen < f.frame_len * 64);
    }
}

#[test]
fn error_stage_period_monotone_in_order() {
    // Higher LPC order = more MACs per sample = slower frames.
    let period = |order: usize| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: 2,
            frame: 256,
            order,
            ..Default::default()
        })
        .expect("valid config");
        app.system(5)
            .expect("buildable")
            .run()
            .expect("clean run")
            .period_us()
    };
    assert!(period(16) > period(4));
}

#[test]
fn filterbank_extreme_decimation() {
    let cfg = FilterBankConfig {
        frame: 64,
        taps: 9,
        low_decimation: 1,
        high_decimation: 64,
        seed: 5,
    };
    let app = FilterBankApp::new(cfg).expect("valid config");
    let sys = app.system(4).expect("buildable");
    sys.run().expect("clean run");
    let out = app.output.lock().expect("output");
    for frame in out.iter() {
        assert_eq!(frame.len(), 64 + 1, "64 low-band + 1 high-band sample");
    }
}

#[test]
fn speech_resource_report_scales_with_pes() {
    let spi_slices = |n: usize| {
        let app = SpeechApp::new(ErrorStageConfig {
            n_pes: n,
            ..Default::default()
        })
        .expect("valid config");
        let sys = app.system(1).expect("buildable");
        sys.library().spi_library.slices
    };
    // More PEs → more SPI send/receive pairs and FIFOs.
    assert!(spi_slices(4) > spi_slices(2));
}
