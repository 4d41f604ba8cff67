//! The simulator's core guarantees at whole-system scale: determinism
//! (same seed ⇒ byte-identical event log), exact schedule replay, and
//! a seed sweep over the full FIR-pipeline and spi-net scenarios.

use spi_net::BatchParams;
use spi_sim::{check, env_seed, replay, run, scenarios, sweep, SimOptions};
use std::time::Duration;

const TEST: &str = "whole_system";

#[test]
fn same_seed_is_byte_identical() {
    // The ISSUE's acceptance gate: two consecutive runs of the same
    // seed produce the same canonical event log, byte for byte.
    let opts = SimOptions::seeded(env_seed("SPI_SIM_SEED").unwrap_or(42));
    let a = check(TEST, &opts, || scenarios::fir_pipeline(3, false));
    let b = check(TEST, &opts, || scenarios::fir_pipeline(3, false));
    assert!(!a.log.is_empty(), "run produced an event log");
    assert_eq!(a.steps, b.steps, "step counts diverged");
    assert_eq!(a.vtime, b.vtime, "virtual clocks diverged");
    assert_eq!(a.schedule, b.schedule, "schedules diverged");
    assert_eq!(a.log, b.log, "event logs diverged for the same seed");
}

#[test]
fn forced_replay_reproduces_the_run() {
    let opts = SimOptions::seeded(env_seed("SPI_SIM_SEED").unwrap_or(7));
    let a = check(TEST, &opts, || scenarios::fir_pipeline(2, false));
    let b = replay(&opts, &a.schedule, || scenarios::fir_pipeline(2, false));
    assert!(b.failure.is_none(), "replay of a clean run stays clean");
    assert_eq!(a.log, b.log, "forced replay diverged from its schedule");
}

#[test]
fn distinct_seeds_explore_distinct_schedules() {
    // Not a hard guarantee per pair, but across eight seeds at least
    // two schedules must differ or the scheduler is ignoring its seed.
    let mut logs = std::collections::HashSet::new();
    for seed in 100..108 {
        let r = check(TEST, &SimOptions::seeded(seed), || {
            scenarios::fir_pipeline(2, false)
        });
        logs.insert(r.log);
    }
    assert!(logs.len() > 1, "every seed produced the same interleaving");
}

#[test]
fn virtual_clock_advances_without_wall_waits() {
    // The scenario sleeps 50 virtual milliseconds; the test must not.
    let wall = std::time::Instant::now();
    let r = check(TEST, &SimOptions::seeded(3), || {
        scenarios::net_deadline_flush(3)
    });
    assert!(
        r.vtime >= Duration::from_millis(50),
        "virtual clock saw the sleep, vtime {:?}",
        r.vtime
    );
    // Generous bound: the point is that 50ms of virtual time does not
    // cost 50ms of wall time per virtual timer, not a perf assertion.
    assert!(
        wall.elapsed() < Duration::from_secs(30),
        "virtual waits leaked into wall time"
    );
}

#[test]
fn seed_sweep_fir_pipeline() {
    sweep(TEST, &SimOptions::seeded(0), 10, || {
        scenarios::fir_pipeline(3, false)
    });
}

#[test]
fn seed_sweep_fir_pipeline_faulted() {
    sweep(TEST, &SimOptions::seeded(1000), 10, || {
        scenarios::fir_pipeline(3, true)
    });
}

#[test]
fn seed_sweep_net_round_trip() {
    sweep(TEST, &SimOptions::seeded(2000), 8, || {
        scenarios::net_round_trip(9, 6, BatchParams::disabled())
    });
}

#[test]
fn seed_sweep_net_round_trip_batched() {
    sweep(TEST, &SimOptions::seeded(3000), 8, || {
        scenarios::net_round_trip(
            11,
            8,
            BatchParams {
                max_msgs: 3,
                flush_after: Duration::from_millis(2),
            },
        )
    });
}

#[test]
fn fixed_ring_never_deadlocks_under_strict_park() {
    // Park deadlines never fire, so a lost wakeup is a deadlock: the
    // wait list of `mutants/pr3_wake_dequeue_sim.patch` deadlocks here
    // within 200 seeds (`scripts/mutants.sh pr3_wake_dequeue_sim`).
    let base = SimOptions {
        strict_park: true,
        ..SimOptions::seeded(0)
    };
    sweep(TEST, &base, 40, scenarios::ring_shared_consumers);
}

#[test]
fn failing_run_reports_seed_and_shrinks() {
    // End-to-end failure path: a scenario that always panics must
    // produce a SimFailure whose report carries the replay seed line.
    let opts = SimOptions::seeded(5);
    let r = run(&opts, || {
        spi_platform::shim::scope(|s| {
            s.spawn_named("boom".into(), || panic!("injected failure"));
        });
    });
    let f = r.failure.expect("panicking scenario must fail");
    let text = format!("{f}");
    assert!(
        text.contains("injected failure"),
        "report names the panic: {text}"
    );
    let line = spi_sim::replay_line(opts.seed, TEST);
    assert!(line.contains("SPI_SIM_SEED=5"), "replay line: {line}");
}
