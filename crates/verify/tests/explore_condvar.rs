//! Exploration of scenarios that use the shim's condvar, `try_lock` and
//! park / unpark directly.
//!
//! Before the engines were merged these operations were schedule points
//! only under the seeded simulator: under `explore` they fell through
//! to the real primitive, so a waiter blocked for real while the
//! controller still believed it was running, and the explorer hung.
//! With one operation vocabulary every policy sees them.
//!
//! The hand-off below is `LockedTransport`'s protocol — a queue behind a
//! mutex, a `not_empty` condvar, `wait_timeout` in a re-check loop —
//! rebuilt on shim primitives; `LockedTransport` itself stays on raw
//! `std::sync` as the uninstrumented baseline.

use std::collections::VecDeque;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Duration;

use spi_platform::shim::{self, AtomicUsize, Condvar, Mutex, ThreadHandle};
use spi_verify::{explore, FailureKind, ModelOptions};

/// The model clock is frozen, so this timeout is "never".
const NEVER: Duration = Duration::from_secs(3600);

struct Handoff {
    queue: Mutex<VecDeque<u32>>,
    not_empty: Condvar,
}

impl Handoff {
    fn new() -> Arc<Self> {
        Arc::new(Handoff {
            queue: Mutex::labeled(VecDeque::new(), "handoff_queue"),
            not_empty: Condvar::labeled("handoff_not_empty"),
        })
    }

    fn send(&self, v: u32, notify: bool) {
        self.queue.lock().push_back(v);
        if notify {
            self.not_empty.notify_one();
        }
    }

    fn recv(&self) -> u32 {
        let mut q = self.queue.lock();
        loop {
            if let Some(v) = q.pop_front() {
                return v;
            }
            let (guard, timed_out) = self.not_empty.wait_timeout(q, NEVER);
            assert!(!timed_out, "a frozen clock fires no timeout");
            q = guard;
        }
    }
}

fn explore_handoff(notify: bool) -> spi_verify::Exploration {
    explore(&ModelOptions::default(), move |sc| {
        let h = Handoff::new();
        let p = Arc::clone(&h);
        sc.thread("producer", move || p.send(7, notify));
        sc.thread("consumer", move || assert_eq!(h.recv(), 7));
    })
}

#[test]
fn one_message_handoff_explores_clean() {
    let ex = explore_handoff(true);
    assert!(!ex.capped, "hand-off exploration must be exhaustive");
    if let Some(f) = &ex.failure {
        panic!("condvar hand-off failed:\n{f}");
    }
    // The two orders of the race, and nothing else: the consumer finds
    // the message without waiting, or it waits and is notified.
    assert_eq!(
        (ex.schedules, ex.pruned),
        (2, 3),
        "hand-off tree moved off its pin"
    );
}

#[test]
fn missing_notify_is_a_deadlock_naming_the_condvar() {
    let ex = explore_handoff(false);
    let failure = ex.failure.expect("a waiter nobody notifies must deadlock");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => assert!(
            blocked
                .iter()
                .any(|b| b.starts_with("consumer") && b.contains("handoff_not_empty")),
            "deadlock should name the consumer and its condvar, got {blocked:?}"
        ),
        other => panic!("expected a deadlock, found {other:?}\n{failure}"),
    }
}

/// A `try_lock` that wins must be known to the model: were it taken
/// behind the model's back, `locker`'s `lock` would be granted while the
/// mutex is really held, and the explorer would hang on it. (The flag
/// orders `locker` after the attempt in some schedules; without it
/// sleep sets never separate the two.)
#[test]
fn try_lock_is_a_schedule_point() {
    let ex = explore(&ModelOptions::default(), |sc| {
        let m = Arc::new(Mutex::labeled(0u32, "contended"));
        let tried = Arc::new(AtomicUsize::labeled(0, "tried"));
        let (m2, tried2) = (Arc::clone(&m), Arc::clone(&tried));
        sc.thread("locker", move || {
            tried2.load(SeqCst);
            *m2.lock() += 1;
        });
        sc.thread("trier", move || {
            if let Some(mut g) = m.try_lock() {
                tried.store(1, SeqCst);
                *g += 1;
            }
        });
    });
    assert!(!ex.capped);
    if let Some(f) = &ex.failure {
        panic!("try_lock scenario failed:\n{f}");
    }
    assert!(
        ex.schedules >= 2,
        "both outcomes of the attempt are explored"
    );
}

/// A waiter publishes its handle under a mutex and parks until a flag
/// is set; the waker sets the flag, reads the handle under the mutex,
/// and unparks it — before or after it unlocks.
fn explore_wake(under_lock: bool) -> spi_verify::Exploration {
    explore(&ModelOptions::default(), move |sc| {
        let slot = Arc::new(Mutex::labeled(None::<ThreadHandle>, "waiter_slot"));
        let woken = Arc::new(AtomicUsize::labeled(0, "woken"));
        let (slot2, woken2) = (Arc::clone(&slot), Arc::clone(&woken));
        sc.thread("waiter", move || {
            *slot2.lock() = Some(shim::current());
            while woken2.load(SeqCst) == 0 {
                shim::park_timeout(NEVER);
            }
        });
        sc.thread("waker", move || {
            woken.store(1, SeqCst);
            let guard = slot.lock();
            let waiter = guard.clone();
            // Unlocks here unless the unpark is to happen under the lock.
            let held = under_lock.then_some(guard);
            if let Some(t) = waiter {
                t.unpark();
            }
            drop(held);
        });
    })
}

/// The engine's wake-up rule has teeth: the same hand-off is clean when
/// the unpark follows the unlock and fails — on the first schedule in
/// which the waiter has registered — when it does not. This is what the
/// ring, pointer and try-then-block explorations hold `WaitList::wake_all`
/// to on every schedule (`explore_ring.rs`; the parent's wake path, which
/// unparked under `threads.lock()`, failed all of them).
#[test]
fn unpark_under_a_lock_fails_the_exploration() {
    let clean = explore_wake(false);
    assert!(!clean.capped);
    if let Some(f) = &clean.failure {
        panic!("unlock-then-unpark failed:\n{f}");
    }
    let failure = explore_wake(true)
        .failure
        .expect("an unpark under a lock must fail the exploration");
    match &failure.kind {
        FailureKind::Panic { thread, message } => {
            assert_eq!(thread, "waker");
            assert!(
                message.contains("unpark [waiter] while holding waiter_slot"),
                "the report names the woken thread and the lock: {message}"
            );
        }
        other => panic!("expected the wake-up rule, found {other:?}\n{failure}"),
    }
}
