//! Virtual-time supervision checks (ISSUE satellite): the
//! deadline/backoff assertions that were wall-clock-dependent in the
//! platform's supervised tests become *exact* under the simulator —
//! `shim::now()` reads the virtual clock, timers fire deterministically
//! and instantly, and nothing sleeps for real.

use spi_sim::{check, env_seed, scenarios, sweep, SimOptions};
use std::time::Duration;

const TEST: &str = "virtual_time";

#[test]
fn stalled_ring_reports_exact_idle_instantly() {
    // 60ms of virtual waiting (10ms fill + 50ms deadline) must cost
    // essentially zero wall time, and the Timeout error's idle
    // measurement is exact rather than "at least, modulo scheduler".
    let wall = std::time::Instant::now();
    let o = SimOptions::seeded(env_seed("SPI_SIM_SEED").unwrap_or(17));
    let r = check(TEST, &o, scenarios::stalled_ring_reports_exact_idle);
    assert!(
        r.vtime >= Duration::from_millis(50),
        "deadline waited on the virtual clock, vtime {:?}",
        r.vtime
    );
    assert!(
        wall.elapsed() < Duration::from_secs(10),
        "virtual deadline leaked into wall time"
    );
}

#[test]
fn stalled_ring_idle_holds_across_seeds() {
    sweep(
        TEST,
        &SimOptions::seeded(0),
        10,
        scenarios::stalled_ring_reports_exact_idle,
    );
}

#[test]
fn exhausted_recv_reports_exact_failing_time_across_seeds() {
    sweep(
        TEST,
        &SimOptions::seeded(0),
        5,
        scenarios::lone_recv_exhausts_with_exact_idle,
    );
}

/// The clock rule: a fault-free supervised op reads no clock, so a
/// supervised self-loop reads it exactly as often as the bare one.
#[test]
fn fault_free_supervision_reads_no_clock() {
    const N: u64 = 20;
    let o = SimOptions::seeded(env_seed("SPI_SIM_SEED").unwrap_or(3));
    let bare = check(TEST, &o, || scenarios::self_loop(N, false));
    let supervised = check(TEST, &o, || scenarios::self_loop(N, true));
    assert_eq!(
        supervised.clock_reads, bare.clock_reads,
        "supervision read the clock on a fault-free path"
    );
}
