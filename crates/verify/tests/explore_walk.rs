//! Bounded model checking of the runner's op walk (DESIGN.md §12): a
//! run of two sends on a one-message channel, each published quietly,
//! through the shipped `ThreadedRunner` on two PEs. The second send
//! finds the channel full while its consumer may be parked on the
//! first; registry entry `mutants/deferred_wake_unflushed.patch` drops
//! the owed wake that precedes the blocking fallback, and these tests
//! must then report the deadlock.
//!
//! Both bounds are exhaustive and pinned exactly like `explore_ring.rs`;
//! they take ≈ 10 s and ≈ 17 s in release on a 2-vCPU host, and run
//! `#[ignore]`d, in the CI `verify` job.

use spi_platform::TransportKind;
use spi_verify::{explore_send_run, ModelOptions};

fn assert_exhaustive(kind: TransportKind, schedules: u64, pruned: u64) {
    let ex = explore_send_run(kind, &ModelOptions::default());
    assert!(!ex.capped, "{kind:?}: hit the schedule cap");
    if let Some(f) = &ex.failure {
        panic!("send run over {kind:?} failed:\n{f}");
    }
    assert_eq!(
        (ex.schedules, ex.pruned),
        (schedules, pruned),
        "{kind:?}: (schedules, sleep-set pruned) moved off the pinned tree"
    );
}

#[test]
#[ignore = "exhaustive walk bound (~10s release); run by the CI verify job"]
fn send_run_over_ring_exhaustive() {
    assert_exhaustive(TransportKind::Ring, 4_704, 7_830);
}

#[test]
#[ignore = "exhaustive walk bound (~17s release); run by the CI verify job"]
fn send_run_over_pointer_exhaustive() {
    assert_exhaustive(TransportKind::Pointer, 4_704, 12_340);
}
