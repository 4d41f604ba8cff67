//! `app1_lpc` and `des_app1`: the paper's application 1 (the LPC
//! error-generation subsystem, §5.2) through the whole stack — analyze →
//! schedule → lower → SPI_dynamic framing → engine → `spi-dsp`.
//!
//! `app1_lpc` runs it at one error PE on OS threads over the ring
//! transport; it is compute-dominated, so the prediction for any
//! transport change is *no movement*. `des_app1` runs it at four error
//! PEs on the discrete-event simulator, single-threaded: the other
//! engine over the same lowering, i.e. what regenerating figs. 6–7
//! costs in wall time, with the simulated period as an exact check.

use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use spi::SpiSystem;
use spi_apps::speech::{autocorr_via_fft, solve_normal_equations, synth_frame};
use spi_apps::{ErrorStageApp, ErrorStageConfig};
use spi_dsp::lpc::prediction_error_range;
use spi_platform::{Machine, ThreadedRunner, TransportKind};

use crate::host::Usage;
use crate::runner_trace::{instrument, Instrumented};
use crate::spans::{self, Kind, PeTrace};
use crate::stats;
use crate::workload::{
    cost_layers, layer, repeat_for, sample_for, time_builds, Calibration, Layer, Round, Workload,
    TIMEOUT,
};

const FRAME: usize = 512;
const ORDER: usize = 10;
pub const THREADED_PES: usize = 1;
pub const DES_PES: usize = 4;

fn config(n_pes: usize, seed: u64) -> ErrorStageConfig {
    ErrorStageConfig {
        n_pes,
        frame: FRAME,
        order: ORDER,
        vary_rates: true,
        seed,
    }
}

/// Run-time frame length and model order of iteration `iter` — the
/// application's `vary_rates` rule, restated here because a reference
/// must not call the code it checks.
fn dims(cfg: ErrorStageConfig, iter: u64) -> (usize, usize) {
    let span = cfg.frame / 2;
    let offset = ((iter.wrapping_mul(2654435761) >> 7) as usize) % (span + 1);
    let frame = (cfg.frame - offset).max(cfg.order * 4 + cfg.n_pes);
    let order = 2 + ((iter.wrapping_mul(40503) >> 3) as usize) % cfg.order.max(3).saturating_sub(1);
    (frame, order.min(cfg.order))
}

/// `(frame length, order)` of iteration `iter`, for the ladder's DSP
/// rungs.
pub fn iteration_dims(iter: u64) -> (usize, usize) {
    dims(config(THREADED_PES, 0), iter)
}

/// Residual energy per frame computed serially, straight from the DSP
/// kernels: no graph, no schedule, no messages. Sections and history
/// follow §5.2 (each PE gets its slice plus `order` samples of history).
pub fn serial_residuals(cfg: ErrorStageConfig, count: u64) -> Vec<f64> {
    (0..count)
        .map(|iter| {
            let (len, order) = dims(cfg, iter);
            let frame = synth_frame(cfg.seed, iter, len);
            let coeffs = solve_normal_equations(&autocorr_via_fft(&frame, order), order);
            let mut energy = 0.0;
            for pe in 0..cfg.n_pes {
                let (start, end) = (pe * len / cfg.n_pes, (pe + 1) * len / cfg.n_pes);
                let section = &frame[start.saturating_sub(order)..end];
                let hist = if pe == 0 { 0 } else { order.min(section.len()) };
                let errors = prediction_error_range(section, &coeffs, hist, section.len());
                energy += errors.iter().map(|e| e * e).sum::<f64>();
            }
            energy
        })
        .collect()
}

/// Sums may associate differently across engines; anything beyond
/// rounding is a wrong answer.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn residuals_match(got: &[f64], want: &[f64]) -> u64 {
    let wrong = got
        .iter()
        .zip(want)
        .filter(|(g, w)| !close(**g, **w))
        .count();
    (wrong + got.len().abs_diff(want.len())) as u64
}

fn ring_runner() -> ThreadedRunner {
    ThreadedRunner::new()
        .transport(TransportKind::Ring)
        .timeout(TIMEOUT)
}

fn build(cfg: ErrorStageConfig, count: u64) -> (ErrorStageApp, SpiSystem) {
    let app = ErrorStageApp::new(cfg).expect("application 1 configuration is valid");
    let sys = app.system(count).expect("application 1 lowers");
    (app, sys)
}

/// Simulated makespan of `des_app1` in cycles, pinned (16.60 µs per
/// iteration at 100 MHz for the full count): the DES is deterministic
/// and the actors' cycle costs depend on the iteration index only, so
/// any other value means the lowering, the schedule or the cost model
/// changed under the benchmark.
fn pinned_makespan_cycles(count: u64) -> Option<u64> {
    match count {
        500 => Some(829_894),
        50 => Some(79_194),
        _ => None,
    }
}

/// The serial references of both workloads for one seed, computed once
/// per process.
pub struct References {
    seed: u64,
    count: u64,
    threaded: Vec<f64>,
    des: Vec<f64>,
    /// The DES at one PE disagreed with the serial reference on this
    /// many frames (checked once; `app1_lpc` must match both).
    des_1pe_wrong: u64,
}

impl References {
    pub fn compute(seed: u64, quick: bool) -> References {
        let (count, _) = Workload::App1Lpc.counts(quick);
        let threaded = serial_residuals(config(THREADED_PES, seed), count);
        let (app, sys) = build(config(THREADED_PES, seed), count);
        let des_1pe_wrong = match sys.run() {
            Ok(_) => residuals_match(&app.residual_energy.lock().expect("residuals"), &threaded),
            Err(_) => count,
        };
        References {
            seed,
            count,
            threaded,
            des: serial_residuals(config(DES_PES, seed), count),
            des_1pe_wrong,
        }
    }
}

// ---------------------------------------------------------------------
// app1_lpc
// ---------------------------------------------------------------------

fn check_residuals(round: &mut Round, name: &str, app: &ErrorStageApp, want: &[f64]) {
    let got = app.residual_energy.lock().expect("residuals");
    round.attempted += want.len() as u64;
    let wrong = residuals_match(&got, want);
    if wrong > 0 {
        round.fail(
            wrong,
            format!("{name}: residual energies differ from the serial reference"),
        );
    }
}

pub fn lpc_round(refs: &References, budget: Duration) -> Round {
    let cfg = config(THREADED_PES, refs.seed);
    let count = refs.count;
    let mut round = Round::default();

    // Set-up: graph, analysis, schedule, lowering, and the edges the
    // runner will instantiate.
    let edges = |sys: SpiSystem| {
        let (specs, programs) = sys.into_parts();
        let edges: Vec<_> = specs
            .iter()
            .map(|s| TransportKind::Ring.instantiate(s))
            .collect();
        (edges, programs)
    };
    time_builds(
        budget.mul_f64(0.10),
        20,
        Calibration::On,
        &mut round.setup_s,
        || {
            let (app, sys) = build(cfg, count);
            (app, edges(sys), ring_runner())
        },
    );
    let (built, _) = edges(build(cfg, count).1);
    round.buffer_bytes = built.iter().map(|e| e.capacity_bytes() as u64).sum();

    round.check(refs.des_1pe_wrong == 0, || {
        format!(
            "app1_lpc: the DES at one PE differs from the serial reference on {} frames",
            refs.des_1pe_wrong
        )
    });

    // P0 sends a frame and then waits for its residual: one iteration
    // in flight, so period = latency.
    let mut rates = Vec::new();
    sample_for(budget.mul_f64(0.90), Calibration::On, &mut rates, || {
        let (app, sys) = build(cfg, count);
        let start = Instant::now();
        let result = sys.run_threaded_with(&ring_runner());
        let secs = start.elapsed().as_secs_f64();
        match result {
            Ok(_) => {
                check_residuals(&mut round, "app1_lpc", &app, &refs.threaded);
                Some(count as f64 / secs)
            }
            Err(e) => {
                round.attempted += count;
                round.fail(count, format!("app1_lpc: run failed: {e}"));
                None
            }
        }
    });
    round.set_rates(rates);
    round
}

/// Shares of one PE's wall time, and what the spans leave uncovered.
fn pe_layers(prefix: [&'static str; 3], pe: &PeTrace, wall_ns: f64) -> Vec<Layer> {
    let share = |kinds: &[Kind]| kinds.iter().map(|k| pe.ns(*k)).sum::<u64>() as f64 / wall_ns;
    vec![
        layer(prefix[0], share(&[Kind::Compute, Kind::Payload]), "ratio"),
        layer(prefix[1], share(&[Kind::Send, Kind::Recv]), "ratio"),
        layer(prefix[2], share(&[Kind::Wait]), "ratio"),
    ]
}

fn traffic(inst: &Instrumented) -> (u64, u64) {
    inst.pes.iter().fold((0, 0), |(m, b), pe| {
        (
            m + pe.msgs_sent.load(Relaxed),
            b + pe.bytes_sent.load(Relaxed),
        )
    })
}

pub fn lpc_traced(
    refs: &References,
    budget: Duration,
    round: &mut Round,
    span_file: &mut Option<crate::json::Value>,
) -> Vec<Layer> {
    let cfg = config(THREADED_PES, refs.seed);
    let count = refs.count;
    let (mut plain_s, mut spanned_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut usage = Usage::default();
    let mut predicted_cycles = None;
    repeat_for(budget.mul_f64(0.8), || {
        let (app, sys) = build(cfg, count);
        let start = Instant::now();
        let ok = sys.run_threaded_with(&ring_runner()).is_ok();
        plain_s.push(start.elapsed().as_secs_f64());
        round.check(ok, || "app1_lpc: run failed".into());
        check_residuals(round, "app1_lpc", &app, &refs.threaded);

        let (app, sys) = build(cfg, count);
        predicted_cycles = sys.iteration_period_estimate();
        let (specs, mut programs) = sys.into_parts();
        let inst = instrument(&mut programs, specs.len());
        let before = Usage::now();
        let start = Instant::now();
        let ok = ring_runner()
            .decorate_transports(inst.decorator())
            .run(&specs, programs)
            .is_ok();
        let elapsed = start.elapsed();
        usage = Usage::now().since(before);
        spanned_s.push(elapsed.as_secs_f64());
        round.check(ok, || "app1_lpc: spanned run failed".into());
        check_residuals(round, "app1_lpc", &app, &refs.threaded);
        last = Some((inst, elapsed));
    });
    let (inst, wall) = last.expect("repeat_for runs at least once");
    let wall_ns = wall.as_nanos() as f64;

    let (_app, sys) = build(cfg, count);
    let counting = crate::alloc::Counting::start();
    let ok = sys.run_threaded_with(&ring_runner()).is_ok();
    let (allocs, alloc_bytes) = counting.stop();
    round.check(ok, || "app1_lpc: run failed".into());

    // Closed form: per iteration one frame section, one coefficient
    // block and one error block cross a processor boundary.
    let (msgs, bytes) = traffic(&inst);
    round.check(msgs == 3 * count, || {
        format!(
            "app1_lpc: {msgs} messages traced, closed form is {}",
            3 * count
        )
    });

    let per_iter = |x: u64| x as f64 / count as f64;
    let (pe0, pe1) = (&inst.pes[0], &inst.pes[1]);
    let measured_us = stats::median(&plain_s) * 1e6 / count as f64;
    // The builder's default clock; `SpiRunReport::clock_mhz` reports the
    // same figure for the DES.
    let clock_mhz = 100.0;
    let predicted_us = predicted_cycles.map_or(0.0, |c| c / clock_mhz);
    let (threads_peak, runqueue) = inst.threads_and_runqueue();
    let recvs = |pe: &PeTrace| pe.calls(Kind::Recv) + pe.calls(Kind::Wait);
    let blocked = pe0.calls(Kind::Wait) + pe1.calls(Kind::Wait);
    let calls = recvs(pe0) + recvs(pe1) + pe0.calls(Kind::Send) + pe1.calls(Kind::Send);

    *span_file = Some(spans::to_json(
        "app1_lpc",
        count,
        wall.as_nanos() as u64,
        &[pe0.as_ref(), pe1.as_ref()],
    ));

    let mut out = pe_layers(
        ["pe0.compute_share", "pe0.transport_share", "pe0.wait_share"],
        pe0,
        wall_ns,
    );
    out.extend(pe_layers(
        ["pe1.compute_share", "pe1.transport_share", "pe1.wait_share"],
        pe1,
        wall_ns,
    ));
    out.extend([
        layer("transport.send_ns_p50", pe0.p50_ns(Kind::Send), "ns"),
        layer("transport.recv_ns_p50", pe1.p50_ns(Kind::Recv), "ns"),
        layer(
            "transport.blocked_calls_share",
            blocked as f64 / calls.max(1) as f64,
            "ratio",
        ),
        layer(
            "platform.runner.self_ns_per_iter",
            (wall_ns - pe0.covered_ns() as f64) / count as f64,
            "ns",
        ),
        layer(
            "spi.actor_ns_per_iter",
            per_iter(
                inst.pes
                    .iter()
                    .map(|p| p.ns(Kind::Compute) + p.ns(Kind::Payload))
                    .sum(),
            ),
            "ns",
        ),
        layer("sched.predicted_period_us", predicted_us, "us"),
        layer(
            "sched.period_ratio",
            if predicted_us > 0.0 {
                measured_us / predicted_us
            } else {
                0.0
            },
            "ratio",
        ),
        layer("msgs_per_iter", per_iter(msgs), "count"),
        layer("payload_bytes_per_iter", per_iter(bytes), "B"),
        layer("threads_peak", threads_peak as f64, "count"),
        layer("runqueue_wait_share", runqueue, "ratio"),
        layer(
            "trace_overhead_share",
            stats::median(&spanned_s) / stats::median(&plain_s) - 1.0,
            "ratio",
        ),
        layer("iter_ns", measured_us * 1e3, "ns"),
    ]);
    out.extend(cost_layers(count, (allocs, alloc_bytes), usage));
    out
}

// ---------------------------------------------------------------------
// des_app1
// ---------------------------------------------------------------------

pub fn des_round(refs: &References, budget: Duration) -> Round {
    let cfg = config(DES_PES, refs.seed);
    let count = refs.count;
    let mut round = Round::default();

    // Set-up: graph, analysis, schedule, lowering; `system()` builds
    // the `Machine`.
    time_builds(
        budget.mul_f64(0.10),
        20,
        Calibration::On,
        &mut round.setup_s,
        || build(cfg, count),
    );
    let (specs, _) = build(cfg, count).1.into_parts();
    round.buffer_bytes = specs.iter().map(|s| s.capacity_bytes as u64).sum();

    // One host thread simulates every PE: wall time per simulated
    // iteration is both period and latency.
    let mut rates = Vec::new();
    sample_for(budget.mul_f64(0.90), Calibration::On, &mut rates, || {
        let (app, sys) = build(cfg, count);
        let start = Instant::now();
        let result = sys.run();
        let secs = start.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                check_residuals(&mut round, "des_app1", &app, &refs.des);
                if let Some(pinned) = pinned_makespan_cycles(count) {
                    let cycles = report.sim.makespan_cycles;
                    round.check(cycles == pinned, || {
                        format!("des_app1: simulated makespan {cycles} cycles, pinned at {pinned}")
                    });
                }
                Some(count as f64 / secs)
            }
            Err(e) => {
                round.attempted += count;
                round.fail(count, format!("des_app1: simulation failed: {e}"));
                None
            }
        }
    });
    round.set_rates(rates);
    round
}

pub fn des_traced(
    refs: &References,
    budget: Duration,
    round: &mut Round,
    span_file: &mut Option<crate::json::Value>,
) -> Vec<Layer> {
    let cfg = config(DES_PES, refs.seed);
    let count = refs.count;
    let (mut plain_s, mut spanned_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut usage = Usage::default();
    let mut sim_period_us = 0.0;
    let mut clock_mhz = 100.0;
    repeat_for(budget.mul_f64(0.8), || {
        let (app, sys) = build(cfg, count);
        let start = Instant::now();
        let report = sys.run();
        plain_s.push(start.elapsed().as_secs_f64());
        round.check(report.is_ok(), || "des_app1: simulation failed".into());
        check_residuals(round, "des_app1", &app, &refs.des);
        if let Ok(r) = &report {
            sim_period_us = r.period_us();
            clock_mhz = r.clock_mhz;
        }

        // The same lowering, closures wrapped, on a `Machine` rebuilt
        // from its parts (application 1 configures no bus).
        let (app, sys) = build(cfg, count);
        let predicted = sys.iteration_period_estimate();
        let (specs, mut programs) = sys.into_parts();
        let inst = instrument(&mut programs, specs.len());
        let mut machine = Machine::new();
        for spec in &specs {
            machine.add_channel(*spec);
        }
        for program in programs {
            machine.add_pe(program);
        }
        let before = Usage::now();
        let start = Instant::now();
        let report = machine.run();
        let elapsed = start.elapsed();
        usage = Usage::now().since(before);
        spanned_s.push(elapsed.as_secs_f64());
        check_residuals(round, "des_app1", &app, &refs.des);
        // Wrapping the closures must not change simulated time.
        let respanned_us = report
            .as_ref()
            .map_or(0.0, |r| r.makespan_us(clock_mhz) / count as f64);
        round.check((respanned_us - sim_period_us).abs() < 1e-9, || {
            format!("des_app1: simulated period {respanned_us} µs under spans, {sim_period_us} µs without")
        });
        last = Some((
            inst,
            elapsed,
            predicted,
            report.map(|r| (r.total_messages(), r.total_bytes())).ok(),
        ));
    });
    let (inst, wall, predicted_cycles, sim_traffic) = last.expect("repeat_for runs at least once");
    let wall_ns = wall.as_nanos() as f64;

    let (_app, sys) = build(cfg, count);
    let counting = crate::alloc::Counting::start();
    let ok = sys.run().is_ok();
    let (allocs, alloc_bytes) = counting.stop();
    round.check(ok, || "des_app1: simulation failed".into());

    // Closed form: three SPI_dynamic transfers per error PE per
    // iteration (§5.2); the builder may add acknowledgement traffic,
    // which the simulator's own count includes.
    let (msgs, bytes) = sim_traffic.unwrap_or((0, 0));
    round.check(msgs >= 3 * DES_PES as u64 * count, || {
        format!(
            "des_app1: {msgs} simulated messages, at least {} expected",
            3 * DES_PES as u64 * count
        )
    });

    let per_iter = |x: u64| x as f64 / count as f64;
    let actor_ns: u64 = inst
        .pes
        .iter()
        .map(|p| p.ns(Kind::Compute) + p.ns(Kind::Payload))
        .sum();
    let predicted_us = predicted_cycles.map_or(0.0, |c| c / clock_mhz);
    let pes: Vec<&PeTrace> = inst.pes.iter().map(|p| p.as_ref()).collect();
    *span_file = Some(spans::to_json(
        "des_app1",
        count,
        wall.as_nanos() as u64,
        &pes,
    ));

    let mut out = vec![
        layer("pe0.compute_share", actor_ns as f64 / wall_ns, "ratio"),
        layer(
            "platform.sim.engine_share",
            1.0 - actor_ns as f64 / wall_ns,
            "ratio",
        ),
        layer("platform.sim.period_us", sim_period_us, "us"),
        layer("spi.actor_ns_per_iter", per_iter(actor_ns), "ns"),
        layer("sched.predicted_period_us", predicted_us, "us"),
        layer(
            "sched.period_ratio",
            if predicted_us > 0.0 {
                sim_period_us / predicted_us
            } else {
                0.0
            },
            "ratio",
        ),
        layer("msgs_per_iter", per_iter(msgs), "count"),
        layer("payload_bytes_per_iter", per_iter(bytes), "B"),
        layer("threads_peak", 1.0, "count"),
        layer(
            "trace_overhead_share",
            stats::median(&spanned_s) / stats::median(&plain_s) - 1.0,
            "ratio",
        ),
        layer(
            "iter_ns",
            stats::median(&plain_s) * 1e9 / count as f64,
            "ns",
        ),
    ];
    out.extend(cost_layers(count, (allocs, alloc_bytes), usage));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_engines_match_the_serial_reference() {
        let refs = References::compute(5, true);
        assert_eq!(refs.des_1pe_wrong, 0);
        let budget = Duration::from_millis(1);
        let lpc = lpc_round(&refs, budget);
        assert_eq!(lpc.failed, 0, "{:?}", lpc.notes);
        assert!(lpc.attempted > refs.count && lpc.buffer_bytes > 0);
        let des = des_round(&refs, budget);
        assert_eq!(des.failed, 0, "{:?}", des.notes);
        assert!(des.buffer_bytes > 0);
    }

    #[test]
    fn a_wrong_residual_is_counted() {
        assert_eq!(residuals_match(&[1.0, 2.0], &[1.0, 2.0 + 1e-12]), 0);
        assert_eq!(residuals_match(&[1.0, 2.0], &[1.0, 2.1]), 1);
        assert_eq!(residuals_match(&[1.0], &[1.0, 2.0]), 1);
    }
}
