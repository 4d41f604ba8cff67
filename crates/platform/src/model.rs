//! The controlled-execution engine behind `spi-verify` and `spi-sim`.
//!
//! One mechanism serves both crates: the threads of a scenario are real
//! OS threads, but only one executes at a time. Every visible operation
//! (shim atomic access, lock, condvar, park/unpark, sleep, spawn/join —
//! see [`crate::shim`]) is a *schedule point*: the thread declares the
//! operation it is about to perform and waits for the controller's grant.
//! The controller therefore always knows the whole frontier — which
//! threads can run and exactly what each would do next — and decides
//! who goes by a *choice* policy, while a *clock* policy decides whether
//! waiting can ever end by time passing:
//!
//! | entry point | choice | clock | threads |
//! |---|---|---|---|
//! | [`explore`] | depth-first over every decision, sleep-set pruned | frozen | registered up front, numbered `0..n`, on a reused worker pool |
//! | [`run`] | seeded PRNG | virtual | a `"main"` root; children enrol as they are spawned |
//! | [`replay`], [`shrink`], `explore`'s minimizer | a forced schedule, then stay-on-thread | that of the run being replayed | as that run |
//!
//! * **Depth-first.** Whenever two or more threads are enabled the
//!   controller records a decision; the search enumerates schedules by
//!   replaying the common prefix from the decision stack each run.
//!   *Sleep sets* (Godefroid) prune interleavings that only reorder
//!   independent operations: once the subtree under choice `t` is
//!   exhausted, `t` sleeps for the sibling choices until an operation
//!   dependent with its own is granted. Sound for safety properties
//!   and deadlock detection — every Mazurkiewicz trace keeps a
//!   representative — so the search stays exhaustive at the bound.
//! * **Seeded.** One `u64` fixes every decision, and so the canonical
//!   step log, byte for byte.
//! * **Frozen clock.** [`crate::shim::now`] never moves, timeouts are
//!   never armed and a sleep is a yield: a lost wakeup the runtime
//!   would mask within one 50 ms park slice is a hard deadlock.
//! * **Virtual clock.** Time advances only when no thread can run, and
//!   then jumps to the earliest pending deadline (park slice, condvar
//!   timeout, sleep). With [`SimOptions::strict_park`] park deadlines
//!   alone never fire, which recovers the frozen clock's lost-wakeup
//!   property for whole-system runs.
//!
//! A run fails by **deadlock** (nobody enabled, no deadline pending,
//! somebody unfinished), **panic** of a scenario thread, or exceeding
//! its **step budget** (a livelock). A [`Failure`] carries the granted
//! schedule; the minimizer greedily defers its context switches and
//! [`replay`] re-executes it exactly.
//!
//! The memory model is sequential consistency — every effect is
//! globally visible before the next grant — so weak-memory bugs are out
//! of scope; DESIGN.md §12 discusses the consequences.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

use crate::rng::SplitMix64;

/// Live sessions, process-wide. The shim fast path loads this with
/// relaxed ordering and skips all model logic when it is zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Sessions started so far; a session's number is never reused.
static SESSIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

struct Ctx {
    sess: Arc<Session>,
    /// The calling thread's place in the session. `None` on the thread
    /// that builds an [`explore`] scenario: it allocates object ids but
    /// is not itself scheduled.
    me: Option<Me>,
}

struct Me {
    tid: usize,
    /// This thread's own condvar (also held by its [`ThreadSt`]).
    wake: Arc<Condvar>,
}

/// Per-session identity of a shim object (`0` outside any session).
pub(crate) type ObjId = usize;

/// Index of a scheduled thread in its session, `None` for any other
/// thread.
pub(crate) type ThreadId = Option<usize>;

/// Sentinel panic payload that unwinds scenario threads when a run is
/// abandoned. Swallowed by the panic hook.
struct ModelAbort;

fn install_abort_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<ModelAbort>() {
                prev(info);
            }
        }));
    });
}

/// Unwinds the calling thread out of an abandoned run — unless it is
/// already unwinding (a `Drop` impl issuing shim ops), when the op is
/// simply skipped so the original panic propagates.
fn abort_unwind() {
    if !std::thread::panicking() {
        panic::panic_any(ModelAbort);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Operations and the dependency relation
// ---------------------------------------------------------------------------

/// A visible operation a scheduled thread is about to perform.
/// Deadlines are virtual-clock offsets from the session epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Thread startup marker.
    Start,
    Load(usize),
    Store(usize),
    /// Atomic read-modify-write (CAS, swap).
    Rmw(usize),
    /// Blocks while another thread owns the mutex.
    Lock(usize),
    /// Never blocks: takes the lock if it is free at the grant.
    TryLock(usize),
    Unlock(usize),
    /// Consumes a park token; blocks until one is available or the
    /// deadline fires.
    Park {
        deadline: Option<Duration>,
    },
    /// Makes a park token available to thread `.0`.
    Unpark(usize),
    /// Declared with `mutex` already released; granted once notified or
    /// timed out. The waiter re-acquires through a separate `Lock`.
    CvWait {
        cv: usize,
        mutex: usize,
        deadline: Option<Duration>,
    },
    CvNotify {
        cv: usize,
        all: bool,
    },
    Sleep {
        until: Duration,
    },
    /// Blocks until thread `.0` has finished.
    Join(usize),
}

impl Op {
    /// The (up to two) shim objects the operation touches.
    fn objs(self) -> [Option<usize>; 2] {
        match self {
            Op::Load(o)
            | Op::Store(o)
            | Op::Rmw(o)
            | Op::Lock(o)
            | Op::TryLock(o)
            | Op::Unlock(o)
            | Op::CvNotify { cv: o, .. } => [Some(o), None],
            Op::CvWait { cv, mutex, .. } => [Some(cv), Some(mutex)],
            _ => [None, None],
        }
    }
}

/// Conservative dependency relation between the operations of two
/// *different* threads. Sleep-set wakeups and the soundness of pruning
/// rest on this being a superset of true dependence.
fn dependent(a_tid: usize, a: Op, b_tid: usize, b: Op) -> bool {
    match (a, b) {
        // Time and thread exit order everything after them.
        (Op::Sleep { .. } | Op::Join(_), _) | (_, Op::Sleep { .. } | Op::Join(_)) => true,
        (Op::Start, _) | (_, Op::Start) => false,
        (Op::Park { .. }, Op::Unpark(t)) => t == a_tid,
        (Op::Unpark(t), Op::Park { .. }) => t == b_tid,
        (Op::Unpark(x), Op::Unpark(y)) => x == y,
        (Op::Park { .. } | Op::Unpark(_), _) | (_, Op::Park { .. } | Op::Unpark(_)) => false,
        // Same object, and not two plain loads of it.
        _ => {
            let shared = a
                .objs()
                .iter()
                .flatten()
                .any(|o| b.objs().contains(&Some(*o)));
            shared && !matches!((a, b), (Op::Load(_), Op::Load(_)))
        }
    }
}

// ---------------------------------------------------------------------------
// Session: the state one run's threads and its controller share
// ---------------------------------------------------------------------------

/// Whether waiting can end by time passing.
#[derive(Clone, Copy)]
enum Clock {
    Frozen,
    Virtual { strict_park: bool },
}

impl Clock {
    /// The virtual instant a wait of `dur` begun at `vnow` times out,
    /// or `None` if it never will.
    fn deadline(self, vnow: Duration, dur: Duration) -> Option<Duration> {
        match self {
            Clock::Frozen => None,
            Clock::Virtual { .. } => Some(vnow + dur),
        }
    }

    fn strict_park(self) -> bool {
        matches!(self, Clock::Virtual { strict_park: true })
    }
}

struct ThreadSt {
    name: String,
    /// Signalled to grant this thread or abandon the run. Wakeups are
    /// *targeted*: each handshake wakes exactly the one thread that can
    /// make progress. This matters doubly on small machines (CI runners
    /// are often single-core): a broadcast condvar stampedes every
    /// parked thread through the scheduler on each of the ~10⁵–10⁶
    /// steps of an exploration, and busy-waiting is worse — with one
    /// core the spinner burns the very timeslice the granted thread
    /// needs.
    wake: Arc<Condvar>,
    /// Declared-but-not-yet-granted operation.
    pending: Option<Op>,
    finished: bool,
    /// Park token (std semantics: at most one).
    token: bool,
    /// Condvar wakeup flag, set by a granted `CvNotify`.
    notified: bool,
    /// Result slot read back by the waiter after a `CvWait` grant.
    timed_out: bool,
    /// Result slot read back after a `TryLock` grant.
    acquired: bool,
}

struct St {
    threads: Vec<ThreadSt>,
    /// Thread currently granted (running between schedule points).
    current: Option<usize>,
    /// Mutex object id -> owning thread.
    lock_owner: HashMap<usize, usize>,
    /// Label of object `i + 1`, in creation order — which the scenario
    /// (explore) or the schedule (everything after) makes deterministic.
    labels: Vec<&'static str>,
    panicked: Option<(usize, String)>,
    abort: bool,
    /// Virtual time since the session epoch.
    vnow: Duration,
    /// `shim::now()` reads by the session's threads.
    clock_reads: u64,
}

struct Session {
    st: Mutex<St>,
    ctrl_cv: Condvar,
    epoch: Instant,
    clock: Clock,
    /// Nonzero and unique within the process (see
    /// [`crate::shim::session_id`]).
    id: usize,
}

impl Session {
    fn new(clock: Clock) -> Arc<Self> {
        install_abort_hook();
        Arc::new(Session {
            st: Mutex::new(St {
                threads: Vec::new(),
                current: None,
                lock_owner: HashMap::new(),
                labels: Vec::new(),
                panicked: None,
                abort: false,
                vnow: Duration::ZERO,
                clock_reads: 0,
            }),
            ctrl_cv: Condvar::new(),
            epoch: Instant::now(),
            clock,
            id: 1 + SESSIONS.fetch_add(1, Ordering::Relaxed),
        })
    }

    fn lock_st(&self) -> MutexGuard<'_, St> {
        self.st.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds a thread to the session. Called *before* the real thread
    /// starts, so the controller waits for its `Start`.
    fn register(&self, name: String) -> usize {
        let mut st = self.lock_st();
        st.threads.push(ThreadSt {
            name,
            wake: Arc::new(Condvar::new()),
            pending: None,
            finished: false,
            token: false,
            notified: false,
            timed_out: false,
            acquired: false,
        });
        st.threads.len() - 1
    }

    /// The schedule point: declares the op `make` builds (under the
    /// state lock, so it can read the clock and release a mutex) and
    /// blocks until the controller grants it, returning the state guard
    /// so callers can read result slots. When the run has been
    /// abandoned this unwinds via [`abort_unwind`], or returns `None`.
    fn point(&self, me: &Me, make: impl FnOnce(&mut St) -> Op) -> Option<MutexGuard<'_, St>> {
        let mut st = self.lock_st();
        if !st.abort {
            let op = make(&mut st);
            st.threads[me.tid].pending = Some(op);
            // Only clear `current` when the declarer held it: a freshly
            // spawned child declares Start while its parent still runs.
            if st.current == Some(me.tid) {
                st.current = None;
            }
            self.ctrl_cv.notify_one();
            while !st.abort {
                if st.current == Some(me.tid) {
                    return Some(st);
                }
                st = me.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        drop(st);
        abort_unwind();
        None
    }

    fn thread_done(&self, tid: usize, result: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.lock_st();
        st.threads[tid].finished = true;
        if let Err(payload) = result {
            if !payload.is::<ModelAbort>() && st.panicked.is_none() {
                st.panicked = Some((tid, panic_message(payload.as_ref())));
            }
        }
        if st.current == Some(tid) {
            st.current = None;
        }
        self.ctrl_cv.notify_one();
    }
}

/// Body of every scheduled thread: declares `Start`, installs the
/// session context, runs `f`, and reports completion. Panics
/// (including `ModelAbort` unwinds) are recorded in the session rather
/// than propagated — a scenario failure is reported by the controller,
/// not by a poisoned join.
fn thread_main(sess: Arc<Session>, tid: usize, f: impl FnOnce()) {
    let wake = Arc::clone(&sess.lock_st().threads[tid].wake);
    let me = Me { tid, wake };
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        sess.point(&me, |_| Op::Start);
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                sess: Arc::clone(&sess),
                me: Some(me),
            })
        });
        f();
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    sess.thread_done(tid, r);
}

// ---------------------------------------------------------------------------
// Shim entry points (called from crate::shim)
// ---------------------------------------------------------------------------

fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> Option<R> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    // `try_with`: thread-local destructors may still issue shim ops
    // after this one is gone; they are then outside any session.
    CTX.try_with(|c| c.borrow().as_ref().map(f)).ok().flatten()
}

fn with_me<R>(f: impl FnOnce(&Session, &Me) -> R) -> Option<R> {
    with_ctx(|ctx| ctx.me.as_ref().map(|me| f(&ctx.sess, me))).flatten()
}

/// Declares an op for the calling thread and waits for its grant.
/// Returns `false` (having done nothing) outside a session.
fn point(make: impl FnOnce(&Session, &mut St) -> Op) -> bool {
    with_me(|sess, me| drop(sess.point(me, |st| make(sess, st)))).is_some()
}

/// Allocates the next object id of the calling thread's session, or 0
/// outside any session.
pub(crate) fn object_id(label: &'static str) -> ObjId {
    with_ctx(|ctx| {
        let mut st = ctx.sess.lock_st();
        st.labels.push(label);
        st.labels.len()
    })
    .unwrap_or(0)
}

pub(crate) fn load(obj: ObjId) {
    point(|_, _| Op::Load(obj));
}

pub(crate) fn store(obj: ObjId) {
    point(|_, _| Op::Store(obj));
}

pub(crate) fn rmw(obj: ObjId) {
    point(|_, _| Op::Rmw(obj));
}

pub(crate) fn lock(obj: ObjId) {
    point(|_, _| Op::Lock(obj));
}

pub(crate) fn unlock(obj: ObjId) {
    point(|_, _| Op::Unlock(obj));
}

/// Modeled `try_lock`: whether the lock was free when the controller
/// granted the attempt, or `None` outside a session.
pub(crate) fn try_lock(obj: ObjId) -> Option<bool> {
    with_me(|sess, me| {
        sess.point(me, |_| Op::TryLock(obj))
            .is_some_and(|st| st.threads[me.tid].acquired)
    })
}

/// Returns `true` when the park was handled by the session (the caller
/// must then skip the real park): the controller grants a `Park` only
/// with a token or a fired deadline and consumes the token at the
/// grant, so returning *is* the hand-off.
pub(crate) fn park(dur: Duration) -> bool {
    point(|sess, st| Op::Park {
        deadline: sess.clock.deadline(st.vnow, dur),
    })
}

/// Returns `true` when the unpark was handled by the session.
pub(crate) fn unpark(target: ThreadId) -> bool {
    target.is_some_and(|t| point(|_, _| Op::Unpark(t)))
}

/// The condvar wait protocol: atomically (in the model's view, at this
/// declaration) release `mutex` and enqueue on `cv`. Returns whether
/// the wait timed out. Only call when [`in_session`] is true and the
/// real guard is already dropped; the caller re-acquires the mutex
/// through a separate [`lock`].
pub(crate) fn cv_wait(cv: ObjId, mutex: ObjId, dur: Option<Duration>) -> bool {
    with_me(|sess, me| {
        let granted = sess.point(me, |st| {
            debug_assert_eq!(st.lock_owner.get(&mutex).copied(), Some(me.tid));
            st.lock_owner.remove(&mutex);
            st.threads[me.tid].notified = false;
            Op::CvWait {
                cv,
                mutex,
                deadline: dur.and_then(|d| sess.clock.deadline(st.vnow, d)),
            }
        });
        granted.is_none_or(|st| st.threads[me.tid].timed_out)
    })
    .unwrap_or(false)
}

/// Returns `true` when the notify was handled by the session.
pub(crate) fn cv_notify(cv: ObjId, all: bool) -> bool {
    point(|_, _| Op::CvNotify { cv, all })
}

/// Returns `true` when the sleep was handled by the session: a virtual
/// deadline, or a plain yield under a frozen clock.
pub(crate) fn sleep(dur: Duration) -> bool {
    point(|sess, st| Op::Sleep {
        until: sess.clock.deadline(st.vnow, dur).unwrap_or(st.vnow),
    })
}

/// Session index of the calling thread, if it is scheduled by one.
pub(crate) fn current_tid() -> ThreadId {
    with_me(|_, me| me.tid)
}

/// Whether the calling thread is scheduled by a live session.
pub(crate) fn in_session() -> bool {
    current_tid().is_some()
}

/// The session clock, if the calling thread belongs to a session.
pub(crate) fn now() -> Option<Instant> {
    with_ctx(|ctx| {
        let mut st = ctx.sess.lock_st();
        st.clock_reads += 1;
        ctx.sess.epoch + st.vnow
    })
}

/// Number of the calling thread's session, or 0 outside any.
pub(crate) fn session_id() -> usize {
    with_ctx(|ctx| ctx.sess.id).unwrap_or(0)
}

/// The threads one spawner has enrolled into its session — all of a
/// [`crate::shim::scope`]'s, so its implicit joins can be modeled.
pub(crate) struct Children {
    sess: Option<Arc<Session>>,
    tids: RefCell<Vec<usize>>,
}

/// A thread registered with a session whose OS thread has yet to run.
pub(crate) struct Child {
    sess: Arc<Session>,
    tid: usize,
}

impl Children {
    /// An empty set in the calling thread's session (if any).
    pub(crate) fn here() -> Self {
        Children {
            sess: with_ctx(|ctx| Arc::clone(&ctx.sess)),
            tids: RefCell::default(),
        }
    }

    /// Registers a thread about to be spawned; `None` outside a session.
    pub(crate) fn enroll(&self, name: &str) -> Option<Child> {
        let sess = self.sess.as_ref()?;
        let tid = sess.register(name.to_string());
        self.tids.borrow_mut().push(tid);
        Some(Child {
            sess: Arc::clone(sess),
            tid,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.tids.borrow().len()
    }

    /// One `Join` schedule point per child, each enabled once that
    /// child has finished — after which its real exit is imminent, so
    /// the real join that follows blocks only momentarily.
    pub(crate) fn join_all(&self) {
        for &t in self.tids.borrow().iter() {
            point(|_, _| Op::Join(t));
        }
    }
}

/// Runs a spawned thread's body, scheduled if it was enrolled.
pub(crate) fn run_child(child: Option<Child>, f: impl FnOnce()) {
    match child {
        Some(c) => thread_main(c.sess, c.tid, f),
        None => f(),
    }
}

// ---------------------------------------------------------------------------
// Public types
// ---------------------------------------------------------------------------

/// Tunables for a bounded exploration.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Stop (reporting `capped = true`) after this many runs.
    pub max_schedules: u64,
    /// Per-run step budget; exceeding it is reported as a livelock.
    pub max_steps_per_run: usize,
    /// Greedily minimize the failing schedule before reporting it.
    pub minimize: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            max_schedules: 1_000_000,
            max_steps_per_run: 20_000,
            minimize: true,
        }
    }
}

/// Tunables for one simulated run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// PRNG seed driving every scheduling decision.
    pub seed: u64,
    /// When set, park deadlines never fire: the bounded park slices
    /// production code uses to ride out scheduler pathology cannot mask
    /// a lost wakeup, which then surfaces as a deadlock. Condvar
    /// timeouts and sleeps still fire (supervision deadlines keep
    /// working). Off by default.
    pub strict_park: bool,
    /// Step budget; exceeding it fails the run as a livelock.
    pub max_steps: usize,
    /// Replay budget for [`shrink`].
    pub minimize_budget: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0,
            strict_park: false,
            max_steps: 2_000_000,
            minimize_budget: 200,
        }
    }
}

impl SimOptions {
    /// Options for `seed` with everything else default.
    pub fn seeded(seed: u64) -> Self {
        SimOptions {
            seed,
            ..SimOptions::default()
        }
    }
}

/// Collects the threads of one [`explore`] run.
#[derive(Default)]
pub struct Scenario {
    threads: Vec<(String, Box<dyn FnOnce() + Send>)>,
}

impl Scenario {
    /// Registers a named scenario thread. Registration order fixes
    /// thread indices (and so must be deterministic, which it is for
    /// any straight-line builder closure).
    pub fn thread(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        self.threads.push((name.to_string(), Box::new(f)));
    }
}

/// One step of a failing interleaving.
#[derive(Debug, Clone)]
pub struct Step {
    /// Thread name.
    pub thread: String,
    /// Human-readable operation (`"store seq#4"`, `"park"`, ...).
    pub op: String,
}

/// Why a schedule failed.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// No thread runnable, not all finished: a lost wakeup or circular
    /// wait. `blocked` describes each stuck thread.
    Deadlock {
        /// One description per unfinished thread.
        blocked: Vec<String>,
    },
    /// A scenario thread panicked, or broke a rule the engine holds
    /// every thread to (a wake-up issued under a lock); the message
    /// says which.
    Panic {
        /// Thread name.
        thread: String,
        /// Panic payload rendered as text.
        message: String,
    },
    /// The per-run step budget was exceeded (a livelock).
    StepLimit,
}

/// A failing schedule.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The reported (post-minimization) interleaving, one step per
    /// grant.
    pub trace: Vec<Step>,
    /// Steps in the originally discovered failing schedule.
    pub raw_steps: usize,
    /// Context switches in the reported interleaving.
    pub context_switches: usize,
    /// Thread choice per step — feed to [`replay`] to re-execute, or to
    /// [`shrink`] to minimize.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Deadlock { blocked } => {
                writeln!(f, "deadlock: no runnable thread")?;
                for b in blocked {
                    writeln!(f, "  blocked: {b}")?;
                }
            }
            FailureKind::Panic { thread, message } => {
                writeln!(f, "panic in thread `{thread}`: {message}")?;
            }
            FailureKind::StepLimit => writeln!(f, "step budget exceeded (livelock?)")?,
        }
        writeln!(
            f,
            "interleaving ({} steps, {} context switches; discovered at {} steps):",
            self.trace.len(),
            self.context_switches,
            self.raw_steps
        )?;
        let mut prev: Option<&str> = None;
        for s in &self.trace {
            let marker = if prev.is_some() && prev != Some(s.thread.as_str()) {
                "->"
            } else {
                "  "
            };
            writeln!(f, "  {marker} [{}] {}", s.thread, s.op)?;
            prev = Some(s.thread.as_str());
        }
        Ok(())
    }
}

/// Result of a bounded exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Complete schedules executed (including the failing one).
    pub schedules: u64,
    /// Prefixes abandoned by sleep-set pruning.
    pub pruned: u64,
    /// Whether `max_schedules` stopped the search before exhaustion.
    pub capped: bool,
    /// First failure found, minimized when [`ModelOptions::minimize`]
    /// is set.
    pub failure: Option<Failure>,
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The seed that produced this run (0 for forced replays).
    pub seed: u64,
    /// Schedule points granted.
    pub steps: usize,
    /// Final virtual time.
    pub vtime: Duration,
    /// `shim::now()` reads the run's threads made.
    pub clock_reads: u64,
    /// Canonical event log: byte-identical for the same seed across
    /// runs and platforms (no wall-clock values, no addresses, no
    /// hash-order iteration).
    pub log: String,
    /// Thread choice per step.
    pub schedule: Vec<usize>,
    /// The failure, if the run did not complete. `None` for successful
    /// runs *and* for forced replays that diverged from their schedule.
    pub failure: Option<Failure>,
}

// ---------------------------------------------------------------------------
// The controller
// ---------------------------------------------------------------------------

/// A decision point in the depth-first stack.
struct Node {
    enabled: Vec<usize>,
    sleep: Vec<(usize, Op)>,
    chosen: usize,
    chosen_op: Op,
}

/// Who runs next when more than one thread can.
enum Choice<'a> {
    Dfs(&'a mut Vec<Node>),
    Seeded(SplitMix64),
    Forced(&'a [usize]),
}

enum End {
    Complete,
    /// Every enabled thread is asleep: this prefix only reorders
    /// independent ops of an already-explored trace.
    SleepBlocked,
    Failed(FailureKind),
    /// A forced schedule named a thread that was not enabled.
    Diverged,
}

struct Outcome {
    end: End,
    granted: Vec<(usize, Op)>,
    vtime: Duration,
    clock_reads: u64,
    /// The canonical step log; empty under [`Choice::Dfs`], which must
    /// not pay a `format!` per grant.
    log: String,
}

/// Stay on the previously-running thread when possible (keeps
/// discovered schedules low-preemption), else lowest awake thread id.
fn prefer(last: Option<usize>, enabled: &[usize], sleep: &[(usize, Op)]) -> usize {
    let asleep = |t: usize| sleep.iter().any(|(s, _)| *s == t);
    if let Some(l) = last {
        if enabled.contains(&l) && !asleep(l) {
            return l;
        }
    }
    *enabled.iter().find(|&&t| !asleep(t)).unwrap_or(&enabled[0])
}

fn enabled_op(st: &St, t: usize, strict_park: bool) -> bool {
    let th = &st.threads[t];
    let fired = |deadline: Option<Duration>| deadline.is_some_and(|d| st.vnow >= d);
    match th.pending {
        Some(Op::Park { deadline }) => th.token || (!strict_park && fired(deadline)),
        Some(Op::Lock(m)) => !st.lock_owner.contains_key(&m),
        Some(Op::CvWait { deadline, .. }) => th.notified || fired(deadline),
        Some(Op::Sleep { until }) => st.vnow >= until,
        Some(Op::Join(c)) => st.threads[c].finished,
        Some(_) => true,
        None => false,
    }
}

/// Earliest virtual deadline among blocked threads, if any.
fn next_deadline(st: &St, strict_park: bool) -> Option<Duration> {
    st.threads
        .iter()
        .filter(|t| !t.finished)
        .filter_map(|t| match t.pending {
            Some(Op::Park { deadline }) if !strict_park => deadline,
            Some(Op::CvWait { deadline, .. }) => deadline,
            Some(Op::Sleep { until }) => Some(until),
            _ => None,
        })
        .min()
}

/// The model-side effects of granting `op` to thread `choice`.
fn apply_grant(st: &mut St, choice: usize, op: Op) {
    match op {
        Op::Park { .. } => st.threads[choice].token = false,
        Op::Unpark(t) if t < st.threads.len() => st.threads[t].token = true,
        Op::Lock(m) => {
            st.lock_owner.insert(m, choice);
        }
        Op::TryLock(m) => {
            let free = !st.lock_owner.contains_key(&m);
            if free {
                st.lock_owner.insert(m, choice);
            }
            st.threads[choice].acquired = free;
        }
        Op::Unlock(m) => {
            st.lock_owner.remove(&m);
        }
        Op::CvWait { .. } => {
            let th = &mut st.threads[choice];
            th.timed_out = !th.notified;
            th.notified = false;
        }
        Op::CvNotify { cv, all } => {
            // Deterministic wake order: lowest thread id first.
            for th in &mut st.threads {
                let waiting = matches!(th.pending, Some(Op::CvWait { cv: c, .. }) if c == cv);
                if waiting && !th.notified {
                    th.notified = true;
                    if !all {
                        break;
                    }
                }
            }
        }
        _ => {}
    }
}

/// The rule every granted `Unpark` is held to, on every schedule of
/// every policy: the waker owns no shim mutex. A woken waiter's next
/// steps take the lock it registered under; woken while its waker
/// still holds that lock it blocks again at once, and the hand-off pays
/// a lock convoy that the step counts of a sequentially consistent
/// model do not show. Reported as the waker's failure.
fn wake_under_lock(st: &St, waker: usize, op: Op) -> Option<FailureKind> {
    let Op::Unpark(woken) = op else { return None };
    let owned = st.lock_owner.iter().filter(|&(_, &t)| t == waker);
    let held = owned.map(|(&m, _)| m).min()?;
    Some(FailureKind::Panic {
        thread: st.threads[waker].name.clone(),
        message: format!(
            "wake-up under a lock: unpark [{}] while holding {}",
            thread_name(woken, st),
            obj_name(held, st)
        ),
    })
}

fn obj_name(id: usize, st: &St) -> String {
    match id.checked_sub(1).and_then(|i| st.labels.get(i)) {
        Some(l) => format!("{l}#{id}"),
        None => format!("obj#{id}"),
    }
}

fn thread_name(t: usize, st: &St) -> &str {
    st.threads.get(t).map_or("?", |th| th.name.as_str())
}

fn op_text(op: Op, st: &St) -> String {
    let deadline = |d: Option<Duration>| match d {
        Some(d) => format!(" (deadline {}ns)", d.as_nanos()),
        None => String::new(),
    };
    match op {
        Op::Start => "start".to_string(),
        Op::Load(o) => format!("load {}", obj_name(o, st)),
        Op::Store(o) => format!("store {}", obj_name(o, st)),
        Op::Rmw(o) => format!("cas {}", obj_name(o, st)),
        Op::Lock(o) => format!("lock {}", obj_name(o, st)),
        Op::TryLock(o) => format!("try-lock {}", obj_name(o, st)),
        Op::Unlock(o) => format!("unlock {}", obj_name(o, st)),
        Op::Park { deadline: d } => format!("park{}", deadline(d)),
        Op::Unpark(t) => format!("unpark [{}]", thread_name(t, st)),
        Op::CvWait {
            cv, deadline: d, ..
        } => format!("cv-wait {}{}", obj_name(cv, st), deadline(d)),
        Op::CvNotify { cv, all: false } => format!("cv-notify-one {}", obj_name(cv, st)),
        Op::CvNotify { cv, all: true } => format!("cv-notify-all {}", obj_name(cv, st)),
        Op::Sleep { until } => format!("sleep (until {}ns)", until.as_nanos()),
        Op::Join(t) => format!("join [{}]", thread_name(t, st)),
    }
}

fn describe_blocked(op: Option<Op>, st: &St) -> String {
    match op {
        Some(Op::Park { deadline: None }) => {
            "parked with no pending unpark (lost wakeup)".to_string()
        }
        Some(Op::Park { deadline: Some(_) }) => {
            "parked with no pending unpark (lost wakeup; strict park)".to_string()
        }
        Some(Op::Lock(m)) => format!("waiting for lock {}", obj_name(m, st)),
        Some(Op::CvWait { cv, .. }) => {
            format!("waiting on {} with no notifier", obj_name(cv, st))
        }
        Some(Op::Join(t)) => format!("joining [{}]", thread_name(t, st)),
        Some(other) => format!("blocked before {}", op_text(other, st)),
        None => "not yet started".to_string(),
    }
}

/// The controller loop for one run: wait for quiescence, pick an
/// enabled thread per `choice`, apply the grant's model effects, and
/// advance the virtual clock when nothing can run.
// Invariant: an enabled or chosen thread has a pending op (that is
// what being enabled means), so its `expect`s cannot fire.
#[allow(clippy::expect_used)]
fn drive(sess: &Session, mut choice: Choice<'_>, max_steps: usize) -> Outcome {
    let strict_park = sess.clock.strict_park();
    let logging = !matches!(choice, Choice::Dfs(_));
    let mut granted: Vec<(usize, Op)> = Vec::new();
    let mut log = String::new();
    let mut cur_sleep: Vec<(usize, Op)> = Vec::new();
    let mut depth = 0usize; // decision points passed this run
    let mut last: Option<usize> = None;

    let mut st = sess.lock_st();
    let end = loop {
        // Quiescence: nobody running, every live thread has declared.
        while !(st.current.is_none()
            && st.threads.iter().all(|t| t.finished || t.pending.is_some()))
        {
            st = sess
                .ctrl_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some((tid, message)) = st.panicked.clone() {
            break End::Failed(FailureKind::Panic {
                thread: st.threads[tid].name.clone(),
                message,
            });
        }
        if st.threads.iter().all(|t| t.finished) {
            break End::Complete;
        }
        if granted.len() >= max_steps {
            break End::Failed(FailureKind::StepLimit);
        }
        // A condvar wait releases its mutex when it is *declared* (see
        // `cv_wait`), inside the step `last` was granted before it — an
        // effect that step's own op does not announce. Wake the
        // sleepers the release could matter to.
        if let Some(l) = last {
            if let Some(Op::CvWait { mutex, .. }) = st.threads[l].pending {
                cur_sleep.retain(|&(s, s_op)| !dependent(s, s_op, l, Op::Unlock(mutex)));
            }
        }
        let enabled: Vec<usize> = (0..st.threads.len())
            .filter(|&t| !st.threads[t].finished && enabled_op(&st, t, strict_park))
            .collect();
        if enabled.is_empty() {
            if let Some(d) = next_deadline(&st, strict_park) {
                debug_assert!(d > st.vnow, "deadline in the past yet thread not enabled");
                st.vnow = d;
                if logging {
                    let _ = writeln!(log, "........ {:>12} -- clock advance", d.as_nanos());
                }
                continue;
            }
            let blocked = st
                .threads
                .iter()
                .filter(|t| !t.finished)
                .map(|t| format!("{}: {}", t.name, describe_blocked(t.pending, &st)))
                .collect();
            break End::Failed(FailureKind::Deadlock { blocked });
        }

        let pick = match &mut choice {
            Choice::Forced(sched) => match sched.get(granted.len()) {
                Some(t) if !enabled.contains(t) => break End::Diverged,
                Some(&t) => t,
                None => prefer(last, &enabled, &[]),
            },
            Choice::Seeded(_) if enabled.len() == 1 => enabled[0],
            Choice::Seeded(rng) => enabled[rng.gen_range(0..enabled.len())],
            Choice::Dfs(_) if enabled.len() == 1 => {
                if cur_sleep.iter().any(|(s, _)| *s == enabled[0]) {
                    break End::SleepBlocked;
                }
                enabled[0]
            }
            Choice::Dfs(stack) => {
                let c = if let Some(node) = stack.get_mut(depth) {
                    assert_eq!(
                        node.enabled, enabled,
                        "non-deterministic scenario: replay diverged"
                    );
                    cur_sleep = node.sleep.clone();
                    // Refreshed here because backtracking only knows
                    // the thread it moves to, not what it will do.
                    node.chosen_op = st.threads[node.chosen]
                        .pending
                        .expect("chosen thread has pending op");
                    node.chosen
                } else {
                    let c = prefer(last, &enabled, &cur_sleep);
                    if cur_sleep.iter().any(|(s, _)| *s == c) {
                        break End::SleepBlocked;
                    }
                    stack.push(Node {
                        enabled: enabled.clone(),
                        sleep: cur_sleep.clone(),
                        chosen: c,
                        chosen_op: st.threads[c].pending.expect("chosen thread has pending op"),
                    });
                    c
                };
                depth += 1;
                c
            }
        };

        let op = st.threads[pick]
            .pending
            .take()
            .expect("granted thread pending");
        // Wake sleepers whose next op depends on the one about to run.
        cur_sleep.retain(|&(s, s_op)| s != pick && !dependent(s, s_op, pick, op));
        apply_grant(&mut st, pick, op);
        if logging {
            let _ = writeln!(
                log,
                "{:08} {:>12} [{}] {}",
                granted.len(),
                st.vnow.as_nanos(),
                st.threads[pick].name,
                op_text(op, &st)
            );
        }
        granted.push((pick, op));
        if let Some(kind) = wake_under_lock(&st, pick, op) {
            break End::Failed(kind);
        }
        last = Some(pick);
        st.current = Some(pick);
        st.threads[pick].wake.notify_one();
    };

    // Abandon or conclude the run: blocked threads observe `abort` and
    // unwind via `ModelAbort`.
    st.abort = true;
    st.current = None;
    for t in &st.threads {
        t.wake.notify_one();
    }
    Outcome {
        end,
        granted,
        vtime: st.vnow,
        clock_reads: st.clock_reads,
        log,
    }
}

fn count_switches(schedule: &[usize]) -> usize {
    schedule.windows(2).filter(|w| w[0] != w[1]).count()
}

/// Renders a finished run's grants as the failure report for `kind`.
fn report(sess: &Session, kind: FailureKind, granted: &[(usize, Op)]) -> Failure {
    let st = sess.lock_st();
    let schedule: Vec<usize> = granted.iter().map(|&(t, _)| t).collect();
    Failure {
        kind,
        trace: granted
            .iter()
            .filter(|(_, op)| !matches!(op, Op::Start))
            .map(|&(t, op)| Step {
                thread: thread_name(t, &st).to_string(),
                op: op_text(op, &st),
            })
            .collect(),
        raw_steps: schedule.len(),
        context_switches: count_switches(&schedule),
        schedule,
    }
}

fn same_kind(a: &FailureKind, b: &FailureKind) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Greedy context-switch deferral: repeatedly try to defer each context
/// switch of the best schedule so far by one step — force its prefix
/// plus one more step of the previous thread, let `replay` complete the
/// run with the stay-on-thread policy — and adopt any run that fails
/// the same way with strictly fewer switches. `budget` caps replays.
fn minimize(
    first: Failure,
    mut budget: usize,
    mut replay: impl FnMut(&[usize]) -> Option<Failure>,
) -> Failure {
    let raw_steps = first.raw_steps;
    let mut best = first;
    let mut improved = true;
    while improved && budget > 0 {
        improved = false;
        let mut i = 1;
        while i < best.schedule.len() && budget > 0 {
            if best.schedule[i] != best.schedule[i - 1] {
                budget -= 1;
                let mut forced = best.schedule[..i].to_vec();
                forced.push(best.schedule[i - 1]);
                let better = replay(&forced).filter(|c| {
                    same_kind(&c.kind, &best.kind) && c.context_switches < best.context_switches
                });
                if let Some(c) = better {
                    best = c;
                    improved = true;
                    continue;
                }
            }
            i += 1;
        }
    }
    best.raw_steps = raw_steps;
    best
}

// ---------------------------------------------------------------------------
// explore: depth-first + frozen clock, over pooled up-front threads
// ---------------------------------------------------------------------------

/// One long-lived OS thread per scenario thread, reused across every
/// run of an exploration. Spawning and joining real threads costs
/// ~1 ms per run — two orders of magnitude more than the run's actual
/// schedule — so the pool is what makes exhaustive exploration (tens
/// of thousands of runs) tractable.
struct WorkerPool {
    slots: Vec<Arc<Slot>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum SlotState {
    /// No job; the worker sleeps on the slot condvar.
    Idle,
    /// A job posted by `run_pooled`, not yet picked up.
    Run(Box<dyn FnOnce() + Send>),
    /// The worker is executing the job.
    Busy,
    /// Pool teardown.
    Exit,
}

impl WorkerPool {
    // An exploration cannot run without its worker threads, as
    // `std::thread::spawn` would say.
    #[allow(clippy::expect_used)]
    fn new(n: usize) -> Self {
        let slots: Vec<Arc<Slot>> = (0..n)
            .map(|_| {
                Arc::new(Slot {
                    state: Mutex::new(SlotState::Idle),
                    cv: Condvar::new(),
                })
            })
            .collect();
        let handles = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let slot = Arc::clone(slot);
                std::thread::Builder::new()
                    .name(format!("spi-verify-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut s = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                            loop {
                                match std::mem::replace(&mut *s, SlotState::Busy) {
                                    SlotState::Run(f) => break Some(f),
                                    SlotState::Exit => break None,
                                    keep => {
                                        *s = keep;
                                        s = slot.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                                    }
                                }
                            }
                        };
                        let Some(f) = job else { break };
                        f();
                        *slot.state.lock().unwrap_or_else(PoisonError::into_inner) =
                            SlotState::Idle;
                        slot.cv.notify_all();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { slots, handles }
    }

    /// Blocks until worker `i` finished its previous job, then hands
    /// it the next one.
    fn post(&self, i: usize, job: Box<dyn FnOnce() + Send>) {
        let mut s = self.wait_idle(i);
        *s = SlotState::Run(job);
        drop(s);
        self.slots[i].cv.notify_all();
    }

    fn wait_idle(&self, i: usize) -> MutexGuard<'_, SlotState> {
        let slot = &self.slots[i];
        let mut s = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !matches!(*s, SlotState::Idle) {
            s = slot.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for (i, slot) in self.slots.iter().enumerate() {
            let mut s = self.wait_idle(i);
            *s = SlotState::Exit;
            drop(s);
            slot.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Executes one run of `scenario` on the pool under a frozen clock.
fn run_pooled(
    opts: &ModelOptions,
    scenario: &impl Fn(&mut Scenario),
    choice: Choice<'_>,
    pool: &mut Option<WorkerPool>,
) -> (Arc<Session>, Outcome) {
    let sess = Session::new(Clock::Frozen);
    let mut sc = Scenario::default();
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    // Build inside the session, unscheduled, so shim objects receive
    // its per-run ids.
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            sess: Arc::clone(&sess),
            me: None,
        })
    });
    scenario(&mut sc);
    CTX.with(|c| *c.borrow_mut() = None);

    let n = sc.threads.len();
    assert!(n > 0, "scenario registered no threads");
    let pool = pool.get_or_insert_with(|| WorkerPool::new(n));
    assert_eq!(
        pool.slots.len(),
        n,
        "non-deterministic scenario: thread count changed between runs"
    );
    // Register all before any starts, so no `Start` is granted early.
    let bodies: Vec<_> = sc
        .threads
        .into_iter()
        .map(|(name, f)| (sess.register(name), f))
        .collect();
    for (tid, f) in bodies {
        let sess = Arc::clone(&sess);
        pool.post(tid, Box::new(move || thread_main(sess, tid, f)));
    }

    let out = drive(&sess, choice, opts.max_steps_per_run);

    // The pool equivalent of joining: every worker back to idle (an
    // abandoned run's parked threads unwind via `ModelAbort` first).
    for tid in 0..n {
        drop(pool.wait_idle(tid));
    }
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    (sess, out)
}

/// Exhaustively explores the interleavings of `scenario` (up to
/// happens-before equivalence) at the configured bounds. The scenario
/// closure is re-invoked for every run and must build a fresh world
/// each time: shared state is created inside the closure, moved into
/// [`Scenario::thread`] closures, and discarded when the run ends.
pub fn explore(opts: &ModelOptions, scenario: impl Fn(&mut Scenario)) -> Exploration {
    let mut stack: Vec<Node> = Vec::new();
    let mut ex = Exploration {
        schedules: 0,
        pruned: 0,
        capped: false,
        failure: None,
    };
    let mut pool = None;

    loop {
        if ex.schedules + ex.pruned >= opts.max_schedules {
            ex.capped = true;
            break;
        }
        let (sess, out) = run_pooled(opts, &scenario, Choice::Dfs(&mut stack), &mut pool);
        match out.end {
            End::SleepBlocked => ex.pruned += 1,
            End::Complete => ex.schedules += 1,
            End::Failed(kind) => {
                ex.schedules += 1;
                let mut found = report(&sess, kind, &out.granted);
                if opts.minimize {
                    found = minimize(found, 200, |forced| {
                        let (sess, out) =
                            run_pooled(opts, &scenario, Choice::Forced(forced), &mut pool);
                        match out.end {
                            End::Failed(kind) => Some(report(&sess, kind, &out.granted)),
                            _ => None,
                        }
                    });
                }
                ex.failure = Some(found);
                break;
            }
            End::Diverged => unreachable!("depth-first runs are not forced"),
        }
        // Backtrack: exhaust siblings right-to-left, extending each
        // node's sleep set with the subtree just completed.
        let mut advanced = false;
        while let Some(mut node) = stack.pop() {
            node.sleep.push((node.chosen, node.chosen_op));
            let awake = |t: &&usize| !node.sleep.iter().any(|(s, _)| s == *t);
            if let Some(&next) = node.enabled.iter().find(awake) {
                node.chosen = next;
                stack.push(node);
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    ex
}

// ---------------------------------------------------------------------------
// run / replay / shrink: seeded or forced + virtual clock, under "main"
// ---------------------------------------------------------------------------

// A simulated run cannot start without its root thread, as
// `std::thread::spawn` would say.
#[allow(clippy::expect_used)]
fn run_rooted(opts: &SimOptions, choice: Choice<'_>, scenario: &(impl Fn() + Sync)) -> SimRun {
    let seed = match choice {
        Choice::Seeded(_) => opts.seed,
        _ => 0,
    };
    let sess = Session::new(Clock::Virtual {
        strict_park: opts.strict_park,
    });
    let root = sess.register("main".to_string());
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    // The scope joins the root; detached shim threads drain on their own.
    let out = std::thread::scope(|s| {
        let main = Arc::clone(&sess);
        std::thread::Builder::new()
            .name("spi-sim-main".into())
            .spawn_scoped(s, move || thread_main(main, root, scenario))
            .expect("spawn sim root thread");
        drive(&sess, choice, opts.max_steps)
    });
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    let failure = match out.end {
        End::Failed(kind) => Some(report(&sess, kind, &out.granted)),
        _ => None,
    };
    SimRun {
        seed,
        steps: out.granted.len(),
        vtime: out.vtime,
        clock_reads: out.clock_reads,
        log: out.log,
        schedule: out.granted.iter().map(|&(t, _)| t).collect(),
        failure,
    }
}

/// Runs `scenario` once under the seeded scheduler.
pub fn run(opts: &SimOptions, scenario: impl Fn() + Send + Sync) -> SimRun {
    let rng = SplitMix64::seed_from_u64(opts.seed ^ 0xD6E8_FEB8_6659_FD93);
    run_rooted(opts, Choice::Seeded(rng), &scenario)
}

/// Re-executes an exact schedule (e.g. a shrunk one). After the forced
/// prefix is exhausted the run completes with the deterministic
/// stay-on-thread policy. A divergence (the schedule names a thread
/// that is not enabled) ends the run with `failure: None`.
pub fn replay(opts: &SimOptions, schedule: &[usize], scenario: impl Fn() + Send + Sync) -> SimRun {
    run_rooted(opts, Choice::Forced(schedule), &scenario)
}

/// Greedily minimizes a failing schedule by deferring its context
/// switches. Returns the best reproduction found (the original failure
/// if no variant reproduced it).
pub fn shrink(opts: &SimOptions, failure: &Failure, scenario: impl Fn() + Send + Sync) -> Failure {
    minimize(failure.clone(), opts.minimize_budget, |forced| {
        run_rooted(opts, Choice::Forced(forced), &scenario).failure
    })
}
