//! A feedback loop over batched socket edges overlaps its PEs — in
//! virtual time, so the figures are exact and the run costs no wall
//! time. `spi_sched::batch_plan` lowers a quarter of the credit window
//! per batch so that a loop whose tokens fill half of its window (the
//! `fir2k_net` benchmark: 32 slots, 16 frames in flight) spreads them
//! over two batches and both PEs always have one to work on. With half
//! the window per batch — the rule until PR 20 — all of the loop's
//! tokens travel together and the PEs take turns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use spi_net::BatchParams;
use spi_sim::scenarios::{net_closed_loop, CLOSED_LOOP_FILTER_STEP};
use spi_sim::{check, env_seed, SimOptions};

const TEST: &str = "net_overlap";
const TOKENS: u32 = 16;
const ROUNDS: u32 = 10;

fn seeds() -> std::ops::Range<u64> {
    env_seed("SPI_SIM_SEED").map_or(0..6, |seed| seed..seed + 1)
}

/// The filter PE's idle virtual time after pipeline fill with the loop's
/// edges batched under `batch`.
fn filter_idle(seed: u64, batch: BatchParams) -> Duration {
    let idle_ns = AtomicU64::new(0);
    check(TEST, &SimOptions::seeded(seed), || {
        let idle = net_closed_loop(TOKENS, ROUNDS, batch);
        idle_ns.store(idle.as_nanos() as u64, Ordering::SeqCst);
    });
    Duration::from_nanos(idle_ns.load(Ordering::SeqCst))
}

#[test]
fn the_lowered_batch_keeps_the_bottleneck_pe_fed() {
    let lowered = spi_sched::batch_plan(2 * u64::from(TOKENS), None);
    assert_eq!(
        lowered.max_msgs as u32,
        TOKENS / 2,
        "a quarter of the window"
    );
    let batch_service = CLOSED_LOOP_FILTER_STEP * lowered.max_msgs as u32;
    for seed in seeds() {
        let idle = filter_idle(seed, lowered);
        assert!(
            idle < batch_service,
            "seed {seed}: the filter PE waited {idle:?} after pipeline fill, \
             a batch takes it {batch_service:?}"
        );
    }
}

#[test]
fn half_window_batches_run_the_same_loop_in_lock_step() {
    // The same scenario and the same bound, handed the old rule's
    // parameters: the test above can tell the two apart.
    let lowered = spi_sched::batch_plan(2 * u64::from(TOKENS), None);
    let half_window = BatchParams {
        max_msgs: TOKENS as usize,
        flush_after: lowered.flush_after,
    };
    let batch_service = CLOSED_LOOP_FILTER_STEP * TOKENS;
    for seed in seeds() {
        let idle = filter_idle(seed, half_window);
        assert!(
            idle >= batch_service,
            "seed {seed}: the filter PE waited only {idle:?} after pipeline fill \
             with the whole loop in one batch ({batch_service:?} of work)"
        );
    }
}
