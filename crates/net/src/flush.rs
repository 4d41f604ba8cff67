//! When staged records reach the wire without their batch filling: the
//! **flush-before-block** rule and the `net-timer` safety net.
//!
//! A batched [`crate::NetSender`] holds records back to amortize the
//! write, and any sender keeps what a full socket refused. Nothing tells
//! it at run time that the peer is waiting — there is no feedback
//! channel — so the two mechanisms here bound the delay from what the
//! *sending side* knows:
//!
//! * **Flush-before-block.** A thread that is about to wait inside
//!   `spi-net` — a receiver blocking or reporting `Empty`, a sender
//!   waiting for credit — first offers the socket every batch *it*
//!   started ([`flush_owed`]). Whatever it waits for may depend on those
//!   records, and while it waits it will not add to them. The same
//!   drain runs when the thread exits. Batches are tracked per thread
//!   ([`owe`]), so the rule costs a thread-local check per wait and a
//!   registration per batch, never per message.
//! * **`net-timer`.** A thread that leaves a partial batch and then
//!   computes for a long time, or parks on an in-process edge, passes no
//!   `spi-net` wait point. One timer thread per process (per `spi-sim`
//!   session) enforces each sender's `flush_after` for that case, and
//!   keeps offering a full socket what it refused, whoever met the
//!   refusal — a receiver's refused acknowledgement included. It exists
//!   only while a sender (or such a receiver) does, sleeps until the
//!   earliest pending deadline, and parks outright when nothing is
//!   staged — an endpoint wakes it only by staging something due before
//!   it would next look, never per message.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, Weak};
use std::time::{Duration, Instant};

use spi_platform::shim::{self, Condvar, Mutex};

/// A sender's staging buffer (or a receiver's refused acknowledgement),
/// as the two flush mechanisms see it.
pub(crate) trait Staged: Send + Sync {
    /// Offers the socket everything staged because the owner stopped
    /// feeding the batch; returns whether nothing is left. Errors close
    /// the channel (leaving nothing); the owner's next operation reports
    /// it.
    fn flush_idle(&self) -> bool;

    /// The timer's look: offers the socket what is staged if the batch
    /// has waited `flush_after` or an earlier write was cut short.
    /// Returns when to look again, `None` once nothing is staged — after
    /// which the timer looks again only when [`Seat::staged`] is called.
    ///
    /// An implementation that cannot wait for its lock (a receiver's is
    /// held across a blocking read) may return `None` while the lock is
    /// busy. Then every holder of that lock must call [`Seat::staged`]
    /// *after* releasing it if something is still staged: called before,
    /// the timer can look again, find the lock still busy, and park.
    fn flush_due(&self, now: Instant) -> Option<Instant>;
}

fn same(a: &Arc<dyn Staged>, b: &Arc<dyn Staged>) -> bool {
    std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
}

/// How soon the timer offers a full socket what it refused.
pub(crate) const RETRY_STEP: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------
// Flush-before-block
// ---------------------------------------------------------------------

/// The batches the current thread started and may not have flushed.
struct Owed(std::cell::RefCell<Vec<Seat>>);

thread_local! {
    static OWED: Owed = const { Owed(std::cell::RefCell::new(Vec::new())) };
}

impl Owed {
    fn flush(&self) {
        let mut owed = self.0.borrow_mut();
        if owed.is_empty() {
            return;
        }
        let here = shim::session_id();
        for seat in owed.drain(..) {
            // A simulated thread's locals are destroyed after it has
            // left its session: what it still owes is the session
            // timer's, at the deadline.
            if seat.timer.session == here && !seat.occupant.flush_idle() {
                seat.staged(shim::now() + RETRY_STEP);
            }
        }
    }
}

impl Drop for Owed {
    /// Thread exit: nothing this thread staged may be stranded.
    fn drop(&mut self) {
        self.flush();
    }
}

/// Records that the current thread started a batch on `seat`'s sender.
pub(crate) fn owe(seat: &Seat) {
    // A thread already tearing down its locals has no later wait point;
    // the timer and the endpoint's own teardown cover its batch.
    let _ = OWED.try_with(|o| {
        let mut owed = o.0.borrow_mut();
        if !owed.iter().any(|s| same(&s.occupant, &seat.occupant)) {
            owed.push(seat.clone());
        }
    });
}

/// Offers the socket every batch the current thread started. Called at
/// each `spi-net` wait point, before the wait.
pub(crate) fn flush_owed() {
    let _ = OWED.try_with(Owed::flush);
}

// ---------------------------------------------------------------------
// net-timer
// ---------------------------------------------------------------------

struct Seats {
    /// Every seated sender, and every receiver that has had an
    /// acknowledgement refused.
    staged: Vec<Arc<dyn Staged>>,
    /// A `net-timer` thread is serving this timer.
    running: bool,
}

struct Timer {
    /// The [`shim::session_id`] this timer serves.
    session: usize,
    seats: Mutex<Seats>,
    wake: Condvar,
    /// Instants are published as nanoseconds after this one.
    epoch: Instant,
    /// When the thread will next look at its seats unprompted:
    /// `u64::MAX` while it is looking (whatever is staged meanwhile, it
    /// may have missed) or parked with nothing staged. Stored *before*
    /// the thread looks and loaded *after* an occupant stages, so one of
    /// the two always sees the other.
    looks_at: AtomicU64,
}

/// Live timers: one for the process, plus one per running simulation
/// session, whose threads and shim objects must stay inside it.
static TIMERS: std::sync::Mutex<Vec<Weak<Timer>>> = std::sync::Mutex::new(Vec::new());

/// A sender's (or receiver's) place on the timer, held until
/// [`Seat::vacate`]; the last one out lets the thread exit.
#[derive(Clone)]
pub(crate) struct Seat {
    timer: Arc<Timer>,
    occupant: Arc<dyn Staged>,
}

/// Puts `occupant` on the calling session's timer, starting the
/// `net-timer` thread if none is running.
pub(crate) fn seat(occupant: Arc<dyn Staged>) -> Seat {
    let session = shim::session_id();
    let timer = {
        let mut all = TIMERS.lock().unwrap_or_else(PoisonError::into_inner);
        all.retain(|t| t.strong_count() > 0);
        let live = all.iter().filter_map(Weak::upgrade);
        live.into_iter()
            .find(|t| t.session == session)
            .unwrap_or_else(|| {
                let t = Arc::new(Timer {
                    session,
                    seats: Mutex::labeled(
                        Seats {
                            staged: Vec::new(),
                            running: false,
                        },
                        "net_timer_seats",
                    ),
                    wake: Condvar::labeled("net_timer_wake"),
                    epoch: shim::now(),
                    looks_at: AtomicU64::new(u64::MAX),
                });
                all.push(Arc::downgrade(&t));
                t
            })
    };
    let mut seats = timer.seats.lock();
    seats.staged.push(Arc::clone(&occupant));
    if !seats.running {
        seats.running = true;
        let t = Arc::clone(&timer);
        shim::spawn("net-timer", move || t.run());
    }
    drop(seats);
    Seat { timer, occupant }
}

impl Seat {
    /// The occupant staged something the timer must look at by `due`.
    /// Call it with the occupant's own locks released (see
    /// [`Staged::flush_due`]).
    pub(crate) fn staged(&self, due: Instant) {
        if self.timer.nanos(due) < self.timer.looks_at.load(Ordering::SeqCst) {
            // Passing through the lock orders this after the thread's
            // entry into its wait, so the wake cannot fall before it.
            drop(self.timer.seats.lock());
            self.timer.wake.notify_one();
        }
    }

    /// Gives the place up: the occupant is going away.
    pub(crate) fn vacate(&self) {
        let mut seats = self.timer.seats.lock();
        seats.staged.retain(|s| !same(s, &self.occupant));
        drop(seats);
        self.timer.wake.notify_one();
    }
}

impl Timer {
    fn nanos(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.epoch).as_nanos();
        u64::try_from(since).unwrap_or(u64::MAX - 1)
    }

    fn run(&self) {
        let mut seats = self.seats.lock();
        while !seats.staged.is_empty() {
            self.looks_at.store(u64::MAX, Ordering::SeqCst);
            let now = shim::now();
            let next = seats.staged.iter().filter_map(|s| s.flush_due(now)).min();
            seats = match next {
                None => self.wake.wait(seats),
                Some(due) => {
                    self.looks_at.store(self.nanos(due), Ordering::SeqCst);
                    let nap = due.saturating_duration_since(now);
                    self.wake.wait_timeout(seats, nap).0
                }
            };
        }
        seats.running = false;
    }
}
