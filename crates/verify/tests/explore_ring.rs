//! Bounded model checking of the `RingTransport` protocol.
//!
//! Six claims, per the verification plan (DESIGN.md §12):
//!
//! 1. the 2-thread SPSC protocol is deadlock/panic-free and the
//!    exploration is *exhaustive* at the tier-1 bound (2 messages
//!    through a 1-slot ring — every send and receive blocks at least
//!    once, plus all their spins and parks), and visits *exactly* the
//!    schedule tree measured when the bound was committed: the counts
//!    are pinned, so a refactor of the shim or the engine that drops a
//!    schedule point, changes the dependency relation or reorders the
//!    search fails here even though nothing visibly "breaks". A deeper
//!    bound (3 messages, 2 slots) runs `#[ignore]`d for the CI `verify`
//!    job;
//! 2. the shared-consumer scenario is clean with the shipped wait-list
//!    within a fixed schedule budget (its full space is too large to
//!    exhaust in tier-1);
//! 3. that budget reaches the PR 3 lost wakeup: with the wait list
//!    draining its entries while waking (registry entry
//!    `mutants/pr3_wake_dequeue.patch`, run by `scripts/mutants.sh`)
//!    claim 2's test fails with a deadlock, and its report carries the
//!    minimized witness and its context-switch count (5);
//! 4. that witness is a schedule of *the* engine, not of one of two:
//!    claim 2's failure path feeds it to the simulator's `replay`,
//!    which must reproduce the same failure step for step (the same
//!    registry entry expects the report to say so);
//! 5. the non-blocking calls are inside a bound as well: the traced
//!    runner's try-then-block pattern is exhaustive and pinned at the
//!    tier-1 bounds of claim 1, over the ring and the pointer transport;
//! 6. on every schedule of claims 1, 2 and 5 no wake-up is issued under
//!    a lock: the engine fails a run in which a thread is granted an
//!    `unpark` while it owns a shim mutex (`explore_condvar.rs` shows
//!    the rule firing), so a clean exploration is also that assertion.
//!    Registry entry `mutants/pr23_unpark_under_lock.patch`, PR 3's
//!    wait list as it was (drain and unpark under the lock), fails
//!    claim 2's test through that rule.

use spi_platform::{PointerTransport, RingTransport};
use spi_sim::{replay, scenarios, SimOptions};
use spi_verify::{
    explore_pointer_spsc, explore_ring_shared_consumers, explore_ring_spsc,
    explore_try_then_block_spsc, Exploration, Failure, FailureKind, ModelOptions,
};

/// Asserts an exploration ran to exhaustion, found nothing — no
/// deadlock, panic, livelock or wake-up under a lock — and visited
/// exactly the pinned tree. A pin moves only with a DESIGN.md §12 note
/// saying which schedules appeared or went and why.
fn assert_exhaustive(what: &str, ex: &Exploration, schedules: u64, pruned: u64) {
    assert!(
        !ex.capped,
        "{what}: hit the schedule cap — bound too large to be exhaustive"
    );
    if let Some(f) = &ex.failure {
        panic!("{what} failed:\n{f}");
    }
    assert_eq!(
        (ex.schedules, ex.pruned),
        (schedules, pruned),
        "{what}: (schedules, sleep-set pruned) moved off the pinned tree"
    );
}

#[test]
fn spsc_exhaustive_at_tier1_bound() {
    let ex = explore_ring_spsc(2, 1, &ModelOptions::default());
    assert_exhaustive("ring(2,1)", &ex, 2461, 8547);
}

/// Deeper SPSC bound for the CI `verify` job (`--ignored`): 3 messages
/// through a 2-slot ring, ~100 s in release — too slow for tier-1.
#[test]
#[ignore = "exhaustive deep bound (~100s release); run by the CI verify job"]
fn spsc_exhaustive_at_deep_bound() {
    let ex = explore_ring_spsc(3, 2, &ModelOptions::default());
    assert_exhaustive("ring(3,2)", &ex, 33989, 128808);
}

/// The pointer-exchange handoff at its minimal bound: one message
/// through a one-slot pool. Even this smallest case exercises the full
/// slot cycle — free-ring dequeue, in-place frame, descriptor publish,
/// lease drop re-enqueueing the slot — across two Vyukov rings. The
/// tree is small because the free ring starts full, so the only
/// contention is the descriptor publish against the consumer's
/// dequeue-and-release.
#[test]
fn pointer_spsc_exhaustive_at_minimal_bound() {
    let ex = explore_pointer_spsc(1, 1, &ModelOptions::default());
    assert_exhaustive("pointer(1,1)", &ex, 13, 70);
}

/// Deeper pointer bound (2 messages, 1 slot — the producer must block
/// until the consumer's lease drop recycles the slot, covering the
/// full release-then-reacquire cycle), ~7 s in release — run
/// `#[ignore]`d by the CI verify job like the deep plain-ring bound.
#[test]
#[ignore = "exhaustive slot-reuse bound (~7s release); run by the CI verify job"]
fn pointer_spsc_exhaustive_at_reuse_bound() {
    let ex = explore_pointer_spsc(2, 1, &ModelOptions::default());
    assert_exhaustive("pointer(2,1)", &ex, 2461, 12962);
}

/// The non-blocking bodies, at the tier-1 bounds of the blocking ones
/// above: try first, block on `Full` / `Empty` — what every traced
/// message does. Pinned exactly like the rest; moving a pin needs a
/// DESIGN.md §12 note.
#[test]
fn ring_try_then_block_exhaustive_at_tier1_bound() {
    let ex = explore_try_then_block_spsc(RingTransport::new, 2, 1, &ModelOptions::default());
    assert_exhaustive("try-then-block ring(2,1)", &ex, 3032, 10217);
}

#[test]
fn pointer_try_then_block_exhaustive_at_minimal_bound() {
    let ex = explore_try_then_block_spsc(PointerTransport::new, 1, 1, &ModelOptions::default());
    assert_exhaustive("try-then-block pointer(1,1)", &ex, 14, 72);
}

#[test]
fn shared_consumers_clean_with_shipped_waitlist() {
    // The full clean space exceeds 500k runs; explore a fixed budget.
    // A wait list that drains on wake deadlocks here well inside it
    // (`scripts/mutants.sh pr3_wake_dequeue` holds that), so the
    // budget is known to reach bug-revealing depths.
    let opts = ModelOptions {
        max_schedules: 40_000,
        ..ModelOptions::default()
    };
    let ex = explore_ring_shared_consumers(&opts);
    if let Some(f) = &ex.failure {
        panic!(
            "shipped wait-list failed:\n{f}\nwitness: {} context switches\n{}",
            f.context_switches,
            replayed(f)
        );
    }
}

/// What the simulator's `replay` (forced, virtual clock, threads
/// spawned under a `main` root) makes of a witness `explore`
/// (depth-first, frozen clock, pooled threads) found: the same
/// operations, enabled-set rule and grant effects must strand the same
/// threads, or fail the same thread, step for step.
fn replayed(witness: &Failure) -> String {
    // The simulator's scenario spawns the same three threads in the same
    // order, under a root thread 0 that is granted its start, spawns
    // them and then only joins them: explore's thread `t` is replay's
    // `t + 1`.
    let schedule: Vec<usize> = std::iter::once(0)
        .chain(witness.schedule.iter().map(|t| t + 1))
        .collect();
    // Park slices must not fire, as under the explorer's frozen clock.
    let opts = SimOptions {
        strict_park: true,
        ..SimOptions::default()
    };
    let run = replay(&opts, &schedule, scenarios::ring_shared_consumers);
    let Some(r) = run.failure else {
        return "replay under the simulator: diverged or completed".into();
    };
    // Step for step the same operations on the same objects (only the
    // park slices differ: a virtual clock arms them, a frozen one does
    // not).
    let unarmed = |op: &str| op.split(" (deadline").next().unwrap_or(op).to_string();
    let same_steps = (witness.trace.iter().zip(&r.trace))
        .all(|(w, r)| (&w.thread, unarmed(&w.op)) == (&r.thread, unarmed(&r.op)));
    let same = run.schedule.starts_with(&schedule)
        && same_steps
        && outcome(&witness.kind) == outcome(&r.kind);
    let verdict = if same { "reproduces" } else { "diverges from" };
    format!("replay under the simulator {verdict} the witness:\n{r}")
}

/// A failure with the simulator's root thread left out of a deadlock's
/// blocked threads.
fn outcome(kind: &FailureKind) -> String {
    match kind {
        FailureKind::Deadlock { blocked } => {
            let names = blocked.iter().map(|b| b.split(':').next().unwrap_or(b));
            let stranded: Vec<&str> = names.filter(|t| *t != "main").collect();
            format!("deadlock {stranded:?}")
        }
        other => format!("{other:?}"),
    }
}
