//! Seeded whole-system simulation runtime (the engine behind `spi-sim`).
//!
//! Where [`crate::verify`] exhaustively explores the interleavings of a
//! small fixed-thread scenario, this module runs *one* schedule per
//! seed over an arbitrarily large dynamic-thread system — the
//! FoundationDB style of deterministic simulation testing:
//!
//! * Real OS threads execute the scenario, but only one runs at a time:
//!   every shim operation (atomics, locks, condvars, park/unpark,
//!   sleep, spawn/join — see [`crate::shim`]) is a *schedule point*
//!   where the thread declares what it is about to do and waits for the
//!   controller's grant.
//! * The controller picks the next thread with a seeded PRNG, so the
//!   same seed deterministically reproduces the same schedule — and the
//!   same canonical event log, byte for byte.
//! * Time is virtual: [`crate::shim::now`] reads the session epoch plus
//!   a virtual offset that advances **only when no thread can run**, and
//!   then jumps straight to the earliest pending deadline (park slice,
//!   condvar timeout, sleep). A run where every thread is blocked with
//!   no deadline in sight is a deadlock, reported with each thread's
//!   blocked operation.
//! * Threads register dynamically: [`crate::shim::scope`] and
//!   [`crate::shim::spawn`] enroll children into the running session,
//!   so the full stack — runner PEs, supervision retry loops, and the
//!   `spi-net` flush-timer thread — simulates without
//!   scenario-side plumbing.
//!
//! Failures carry the granted schedule; [`shrink`] reuses the greedy
//! context-switch-deferral minimizer shared with the model checker to
//! reduce it, and [`replay`] re-executes a schedule exactly.
//!
//! In *strict park* mode ([`SimOptions::strict_park`]) park deadlines
//! never fire — the production code's bounded park slices cannot paper
//! over a lost wakeup, which is how the PR 3 `RingTransport` regression
//! is rediscovered from a seed sweep (see `spi-sim`'s tests).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::verify::{self, FailureKind, Step};

/// Number of live simulation sessions, process-wide (shim fast path).
static SIM_ACTIVE: StdAtomicUsize = StdAtomicUsize::new(0);

/// Sessions started so far; a session's number is never reused.
static SESSIONS: StdAtomicUsize = StdAtomicUsize::new(0);

thread_local! {
    static SIM_CTX: std::cell::RefCell<Option<SimCtx>> = const { std::cell::RefCell::new(None) };
}

#[derive(Clone)]
struct SimCtx {
    sess: SessionHandle,
    tid: usize,
}

/// Shared handle to a running simulation session (used by
/// [`crate::shim::spawn`] / [`crate::shim::scope`] to enroll children).
pub(crate) type SessionHandle = Arc<Session>;

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// A visible operation a simulated thread is about to perform.
/// Deadlines are virtual-clock offsets from the session epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SOp {
    Start,
    Load(usize),
    Store(usize),
    Rmw(usize),
    Lock(usize),
    /// Never blocks: takes the lock if it is free at the grant.
    TryLock(usize),
    Unlock(usize),
    Park {
        deadline: Option<Duration>,
    },
    Unpark(usize),
    CvWait {
        cv: usize,
        deadline: Option<Duration>,
    },
    CvNotify {
        cv: usize,
        all: bool,
    },
    Sleep {
        until: Duration,
    },
    Join(usize),
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

struct ThreadSt {
    name: String,
    /// Declared-but-not-yet-granted operation.
    pending: Option<SOp>,
    finished: bool,
    /// Park token (std semantics: at most one).
    token: bool,
    /// Condvar wakeup flag, set by a granted CvNotify.
    notified: bool,
    /// Result slot read back by the waiter after a CvWait grant.
    timed_out: bool,
    /// Result slot read back after a TryLock grant.
    acquired: bool,
}

impl ThreadSt {
    fn new(name: String) -> Self {
        ThreadSt {
            name,
            pending: None,
            finished: false,
            token: false,
            notified: false,
            timed_out: false,
            acquired: false,
        }
    }
}

struct St {
    threads: Vec<ThreadSt>,
    /// Thread currently granted (running between schedule points).
    current: Option<usize>,
    /// Mutex object id -> owning simulated thread.
    lock_owner: HashMap<usize, usize>,
    labels: HashMap<usize, &'static str>,
    panicked: Option<(usize, String)>,
    abort: bool,
    /// Virtual time since the session epoch.
    vnow: Duration,
    next_obj: usize,
}

pub(crate) struct Session {
    st: Mutex<St>,
    /// Broadcast to grant a worker. Unlike `verify`'s per-worker
    /// targeted condvars (tuned for millions of tiny runs), a sim
    /// session is one run with a dynamic thread set — a shared condvar
    /// keeps registration growable and the stampede is bounded by the
    /// handful of threads blocked at any instant.
    worker_cv: Condvar,
    ctrl_cv: Condvar,
    epoch: Instant,
    /// Nonzero and unique within the process (see
    /// [`crate::shim::session_id`]).
    pub(crate) id: usize,
}

impl Session {
    fn new() -> SessionHandle {
        Arc::new(Session {
            st: Mutex::new(St {
                threads: Vec::new(),
                current: None,
                lock_owner: HashMap::new(),
                labels: HashMap::new(),
                panicked: None,
                abort: false,
                vnow: Duration::ZERO,
                next_obj: 1,
            }),
            worker_cv: Condvar::new(),
            ctrl_cv: Condvar::new(),
            epoch: Instant::now(),
            id: 1 + SESSIONS.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Declares `op` for `tid` and blocks until the controller grants
    /// it, returning the state guard (so callers can read result
    /// slots). When the run has been abandoned this unwinds via
    /// `ModelAbort` — or, if the thread is already unwinding (a Drop
    /// impl issuing shim ops), returns `None` and the op is skipped.
    fn declare_and_wait<'a>(
        &self,
        mut st: MutexGuard<'a, St>,
        tid: usize,
        op: SOp,
    ) -> Option<MutexGuard<'a, St>> {
        if st.abort {
            drop(st);
            verify::abort_unwind();
            return None;
        }
        st.threads[tid].pending = Some(op);
        // Only clear `current` when the declarer held it: a freshly
        // spawned child declares Start while its parent still runs.
        if st.current == Some(tid) {
            st.current = None;
        }
        self.ctrl_cv.notify_one();
        loop {
            if st.abort {
                drop(st);
                verify::abort_unwind();
                return None;
            }
            if st.current == Some(tid) {
                return Some(st);
            }
            st = self.worker_cv.wait(st).expect("sim session state");
        }
    }

    fn lock_st(&self) -> MutexGuard<'_, St> {
        self.st.lock().expect("sim session state")
    }

    fn schedule_point(&self, tid: usize, op: SOp) {
        let st = self.lock_st();
        drop(self.declare_and_wait(st, tid, op));
    }

    /// The condvar wait protocol: atomically (in the model's view, at
    /// this declaration) release `mutex` and enqueue on `cv`; the grant
    /// arrives once notified or the virtual deadline fires. Returns
    /// whether the wait timed out. The caller re-acquires the mutex
    /// through a separate Lock schedule point.
    fn cv_wait(&self, tid: usize, cv: usize, mutex: usize, dur: Option<Duration>) -> bool {
        let mut st = self.lock_st();
        if !st.abort {
            debug_assert_eq!(st.lock_owner.get(&mutex).copied(), Some(tid));
            st.lock_owner.remove(&mutex);
            st.threads[tid].notified = false;
        }
        let deadline = dur.map(|d| st.vnow + d);
        match self.declare_and_wait(st, tid, SOp::CvWait { cv, deadline }) {
            Some(st) => st.threads[tid].timed_out,
            None => true,
        }
    }

    fn park(&self, tid: usize, dur: Option<Duration>) {
        let st = self.lock_st();
        let deadline = dur.map(|d| st.vnow + d);
        drop(self.declare_and_wait(st, tid, SOp::Park { deadline }));
    }

    fn sleep_op(&self, tid: usize, dur: Duration) {
        let st = self.lock_st();
        let until = st.vnow + dur;
        drop(self.declare_and_wait(st, tid, SOp::Sleep { until }));
    }

    fn thread_done(&self, tid: usize, result: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.st.lock().expect("sim session state");
        st.threads[tid].finished = true;
        if let Err(payload) = result {
            if !verify::is_model_abort(payload.as_ref()) && st.panicked.is_none() {
                st.panicked = Some((tid, verify::panic_message(payload.as_ref())));
            }
        }
        if st.current == Some(tid) {
            st.current = None;
        }
        self.ctrl_cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Shim entry points
// ---------------------------------------------------------------------------

fn ctx() -> Option<SimCtx> {
    if SIM_ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SIM_CTX.with(|c| c.borrow().clone())
}

fn worker_point(op: SOp) {
    if let Some(c) = ctx() {
        c.sess.schedule_point(c.tid, op);
    }
}

pub(crate) fn op_load(obj: usize) {
    worker_point(SOp::Load(obj));
}

pub(crate) fn op_store(obj: usize) {
    worker_point(SOp::Store(obj));
}

pub(crate) fn op_rmw(obj: usize) {
    worker_point(SOp::Rmw(obj));
}

pub(crate) fn op_lock(obj: usize) {
    worker_point(SOp::Lock(obj));
}

/// Modeled `try_lock`: whether the lock was free when the controller
/// granted the attempt, or `None` outside a session.
pub(crate) fn op_try_lock(obj: usize) -> Option<bool> {
    ctx().map(|c| {
        let st = c.sess.lock_st();
        c.sess
            .declare_and_wait(st, c.tid, SOp::TryLock(obj))
            .is_some_and(|st| st.threads[c.tid].acquired)
    })
}

pub(crate) fn op_unlock(obj: usize) {
    worker_point(SOp::Unlock(obj));
}

/// Returns `true` when the park was handled by the simulator.
pub(crate) fn op_park(dur: Option<Duration>) -> bool {
    match ctx() {
        Some(c) => {
            c.sess.park(c.tid, dur);
            true
        }
        None => false,
    }
}

/// Returns `true` when the unpark was handled by the simulator.
pub(crate) fn op_unpark(target: usize) -> bool {
    match ctx() {
        Some(c) => {
            c.sess.schedule_point(c.tid, SOp::Unpark(target));
            true
        }
        None => false,
    }
}

/// Modeled condvar wait; returns whether it timed out. Only call when
/// [`in_session`] is true.
pub(crate) fn op_cv_wait(cv: usize, mutex: usize, dur: Option<Duration>) -> bool {
    match ctx() {
        Some(c) => c.sess.cv_wait(c.tid, cv, mutex, dur),
        None => false,
    }
}

/// Returns `true` when the notify was handled by the simulator.
pub(crate) fn op_cv_notify(cv: usize, all: bool) -> bool {
    match ctx() {
        Some(c) => {
            c.sess.schedule_point(c.tid, SOp::CvNotify { cv, all });
            true
        }
        None => false,
    }
}

/// Returns `true` when the sleep was handled (virtually) by the
/// simulator.
pub(crate) fn op_sleep(dur: Duration) -> bool {
    match ctx() {
        Some(c) => {
            c.sess.sleep_op(c.tid, dur);
            true
        }
        None => false,
    }
}

/// Declares a join on simulated thread `target` (enabled once it has
/// finished). No-op outside a session.
pub(crate) fn op_join(target: usize) {
    worker_point(SOp::Join(target));
}

/// Simulated thread index of the calling thread, if any.
pub(crate) fn worker_tid() -> Option<usize> {
    ctx().map(|c| c.tid)
}

/// The virtual session clock, if the calling thread is in a session.
pub(crate) fn virtual_now() -> Option<Instant> {
    ctx().map(|c| {
        let vnow = c.sess.st.lock().expect("sim session state").vnow;
        c.sess.epoch + vnow
    })
}

/// Whether the calling thread belongs to an active sim session.
pub(crate) fn in_session() -> bool {
    ctx().is_some()
}

/// Allocates a deterministic object id in the calling thread's session
/// (creation order is serialized by the scheduler), or `None` outside
/// any sim session.
pub(crate) fn next_object_id(label: &'static str) -> Option<usize> {
    ctx().map(|c| {
        let mut st = c.sess.st.lock().expect("sim session state");
        let id = st.next_obj;
        st.next_obj += 1;
        st.labels.insert(id, label);
        id
    })
}

/// The calling thread's session handle, for enrolling spawned children.
pub(crate) fn session_handle() -> Option<SessionHandle> {
    ctx().map(|c| c.sess)
}

/// Registers a new simulated thread (called by the parent *before*
/// spawning the real thread, so the controller waits for its Start).
pub(crate) fn register_child(sess: &SessionHandle, name: String) -> usize {
    let mut st = sess.lock_st();
    st.threads.push(ThreadSt::new(name));
    st.threads.len() - 1
}

/// Body wrapper for every simulated thread: installs the session
/// context, declares Start, runs `f`, and reports completion. Panics
/// (including `ModelAbort` unwinds) are recorded in the session rather
/// than propagated — a scenario failure is reported by the controller,
/// not by a poisoned scope join.
pub(crate) fn child_main(sess: SessionHandle, tid: usize, f: impl FnOnce()) {
    SIM_CTX.with(|c| {
        *c.borrow_mut() = Some(SimCtx {
            sess: Arc::clone(&sess),
            tid,
        })
    });
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        sess.schedule_point(tid, SOp::Start);
        f();
    }));
    SIM_CTX.with(|c| *c.borrow_mut() = None);
    sess.thread_done(tid, r);
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

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

/// A failing simulated schedule.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// What went wrong (shared with the model checker's report type).
    pub kind: FailureKind,
    /// The failing interleaving, one step per grant.
    pub trace: Vec<Step>,
    /// Steps in the originally discovered failing schedule.
    pub raw_steps: usize,
    /// Context switches in the reported interleaving.
    pub context_switches: usize,
    /// Thread choice per step — feed to [`replay`] to re-execute, or to
    /// [`shrink`] to minimize.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        verify::Failure {
            kind: self.kind.clone(),
            trace: self.trace.clone(),
            raw_steps: self.raw_steps,
            context_switches: self.context_switches,
        }
        .fmt(f)
    }
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
    /// Canonical event log: byte-identical for the same seed across
    /// runs and platforms (no wall-clock values, no addresses, no
    /// hash-order iteration).
    pub log: String,
    /// Thread choice per step.
    pub schedule: Vec<usize>,
    /// The failure, if the run did not complete. `None` for successful
    /// runs *and* for forced replays that diverged from their schedule.
    pub failure: Option<SimFailure>,
}

#[derive(Clone, Copy)]
enum SimMode<'a> {
    Seeded(u64),
    Forced(&'a [usize]),
}

/// Runs `scenario` once under the seeded scheduler.
pub fn run(opts: &SimOptions, scenario: impl Fn() + Send + Sync) -> SimRun {
    run_once(opts, SimMode::Seeded(opts.seed), &scenario)
}

/// Re-executes an exact schedule (e.g. a shrunk one). After the forced
/// prefix is exhausted the run completes with the deterministic
/// stay-on-thread policy. A divergence (the schedule names a thread
/// that is not enabled) ends the run with `failure: None`.
pub fn replay(opts: &SimOptions, schedule: &[usize], scenario: impl Fn() + Send + Sync) -> SimRun {
    run_once(opts, SimMode::Forced(schedule), &scenario)
}

/// Greedily minimizes a failing schedule by deferring context switches,
/// reusing the model checker's witness-minimization machinery. Returns
/// the best reproduction found (the original failure if no variant
/// reproduced it).
pub fn shrink(
    opts: &SimOptions,
    failure: &SimFailure,
    scenario: impl Fn() + Send + Sync,
) -> SimFailure {
    let want = failure.kind.clone();
    let best = verify::greedy_defer(failure.schedule.clone(), opts.minimize_budget, |forced| {
        let r = run_once(opts, SimMode::Forced(forced), &scenario);
        match r.failure {
            Some(f) if verify::same_kind(&f.kind, &want) => Some(r.schedule),
            _ => None,
        }
    });
    let r = run_once(opts, SimMode::Forced(&best), &scenario);
    match r.failure {
        Some(mut f) => {
            f.raw_steps = failure.raw_steps;
            f
        }
        None => failure.clone(),
    }
}

fn run_once(opts: &SimOptions, mode: SimMode<'_>, scenario: &(impl Fn() + Send + Sync)) -> SimRun {
    verify::install_abort_hook();
    let sess = Session::new();
    sess.st
        .lock()
        .expect("sim session state")
        .threads
        .push(ThreadSt::new("main".to_string()));
    SIM_ACTIVE.fetch_add(1, Ordering::Relaxed);
    let out = std::thread::scope(|s| {
        let root = Arc::clone(&sess);
        std::thread::Builder::new()
            .name("spi-sim-main".into())
            .spawn_scoped(s, move || child_main(root, 0, scenario))
            .expect("spawn sim root thread");
        drive(opts, &sess, mode)
    });
    SIM_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    out
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn enabled_op(st: &St, t: usize, strict: bool) -> bool {
    match st.threads[t].pending {
        Some(SOp::Park { deadline }) => {
            st.threads[t].token || (!strict && deadline.is_some_and(|d| st.vnow >= d))
        }
        Some(SOp::Lock(m)) => !st.lock_owner.contains_key(&m),
        Some(SOp::CvWait { deadline, .. }) => {
            st.threads[t].notified || deadline.is_some_and(|d| st.vnow >= d)
        }
        Some(SOp::Sleep { until }) => st.vnow >= until,
        Some(SOp::Join(c)) => st.threads[c].finished,
        Some(_) => true,
        None => false,
    }
}

/// Earliest virtual deadline among blocked threads, if any.
fn next_deadline(st: &St, strict: bool) -> Option<Duration> {
    let mut min: Option<Duration> = None;
    for t in &st.threads {
        if t.finished {
            continue;
        }
        let d = match t.pending {
            Some(SOp::Park { deadline }) if !strict => deadline,
            Some(SOp::CvWait { deadline, .. }) => deadline,
            Some(SOp::Sleep { until }) => Some(until),
            _ => None,
        };
        if let Some(d) = d {
            min = Some(min.map_or(d, |m| m.min(d)));
        }
    }
    min
}

fn apply_grant(st: &mut St, choice: usize, op: &SOp) {
    match *op {
        SOp::Park { .. } => st.threads[choice].token = false,
        SOp::Unpark(t) if t < st.threads.len() => st.threads[t].token = true,
        SOp::Lock(m) => {
            st.lock_owner.insert(m, choice);
        }
        SOp::TryLock(m) => {
            let free = !st.lock_owner.contains_key(&m);
            if free {
                st.lock_owner.insert(m, choice);
            }
            st.threads[choice].acquired = free;
        }
        SOp::Unlock(m) => {
            st.lock_owner.remove(&m);
        }
        SOp::CvWait { .. } => {
            let th = &mut st.threads[choice];
            th.timed_out = !th.notified;
            th.notified = false;
        }
        SOp::CvNotify { cv, all } => {
            // Deterministic wake order: lowest thread id first.
            for t in 0..st.threads.len() {
                let waiting = matches!(
                    st.threads[t].pending,
                    Some(SOp::CvWait { cv: c, .. }) if c == cv
                ) && !st.threads[t].notified;
                if waiting {
                    st.threads[t].notified = true;
                    if !all {
                        break;
                    }
                }
            }
        }
        _ => {}
    }
}

fn obj_name(id: usize, labels: &HashMap<usize, &'static str>) -> String {
    match labels.get(&id) {
        Some(l) => format!("{l}#{id}"),
        None => format!("obj#{id}"),
    }
}

fn op_text(
    op: &SOp,
    labels: &HashMap<usize, &'static str>,
    name_of: impl Fn(usize) -> String,
) -> String {
    match *op {
        SOp::Start => "start".to_string(),
        SOp::Load(o) => format!("load {}", obj_name(o, labels)),
        SOp::Store(o) => format!("store {}", obj_name(o, labels)),
        SOp::Rmw(o) => format!("cas {}", obj_name(o, labels)),
        SOp::Lock(o) => format!("lock {}", obj_name(o, labels)),
        SOp::TryLock(o) => format!("try-lock {}", obj_name(o, labels)),
        SOp::Unlock(o) => format!("unlock {}", obj_name(o, labels)),
        SOp::Park { deadline: Some(d) } => format!("park (deadline {}ns)", d.as_nanos()),
        SOp::Park { deadline: None } => "park".to_string(),
        SOp::Unpark(t) => format!("unpark [{}]", name_of(t)),
        SOp::CvWait {
            cv,
            deadline: Some(d),
        } => format!(
            "cv-wait {} (deadline {}ns)",
            obj_name(cv, labels),
            d.as_nanos()
        ),
        SOp::CvWait { cv, deadline: None } => format!("cv-wait {}", obj_name(cv, labels)),
        SOp::CvNotify { cv, all: false } => format!("cv-notify-one {}", obj_name(cv, labels)),
        SOp::CvNotify { cv, all: true } => format!("cv-notify-all {}", obj_name(cv, labels)),
        SOp::Sleep { until } => format!("sleep (until {}ns)", until.as_nanos()),
        SOp::Join(t) => format!("join [{}]", name_of(t)),
    }
}

fn describe_blocked(op: Option<&SOp>, labels: &HashMap<usize, &'static str>) -> String {
    match op {
        Some(SOp::Park { deadline: None }) => {
            "parked with no pending unpark (lost wakeup)".to_string()
        }
        Some(SOp::Park { deadline: Some(_) }) => {
            "parked with no pending unpark (lost wakeup; strict park)".to_string()
        }
        Some(SOp::Lock(m)) => format!("waiting for lock {}", obj_name(*m, labels)),
        Some(SOp::CvWait { cv, .. }) => {
            format!("waiting on {} with no notifier", obj_name(*cv, labels))
        }
        Some(SOp::Join(t)) => format!("joining simulated thread {t}"),
        Some(other) => format!(
            "blocked before {}",
            op_text(other, labels, |t| format!("t{t}"))
        ),
        None => "not yet started".to_string(),
    }
}

/// The controller loop: wait for quiescence, pick an enabled thread
/// (seeded or forced), apply the grant's model effects, log the step,
/// and advance the virtual clock when nothing can run.
fn drive(opts: &SimOptions, sess: &SessionHandle, mode: SimMode<'_>) -> SimRun {
    let mut rng = match mode {
        SimMode::Seeded(s) => s ^ 0xD6E8_FEB8_6659_FD93,
        SimMode::Forced(_) => 0,
    };
    let mut granted: Vec<(usize, SOp)> = Vec::new();
    let mut log = String::new();
    let mut last: Option<usize> = None;
    let mut diverged = false;

    let mut st = sess.st.lock().expect("sim session state");
    let outcome: Option<FailureKind> = loop {
        // Quiescence: nobody running, every live thread has declared.
        while !(st.current.is_none()
            && st.threads.iter().all(|t| t.finished || t.pending.is_some()))
        {
            st = sess.ctrl_cv.wait(st).expect("sim session state");
        }
        if let Some((tid, msg)) = st.panicked.clone() {
            break Some(FailureKind::Panic {
                thread: st.threads[tid].name.clone(),
                message: msg,
            });
        }
        if st.threads.iter().all(|t| t.finished) {
            break None;
        }
        if granted.len() >= opts.max_steps {
            break Some(FailureKind::StepLimit);
        }
        let n = st.threads.len();
        let enabled: Vec<usize> = (0..n)
            .filter(|&t| !st.threads[t].finished && enabled_op(&st, t, opts.strict_park))
            .collect();
        if enabled.is_empty() {
            if let Some(d) = next_deadline(&st, opts.strict_park) {
                debug_assert!(d > st.vnow, "deadline in the past yet thread not enabled");
                st.vnow = d;
                log.push_str(&format!(
                    "........ {:>12} -- clock advance\n",
                    st.vnow.as_nanos()
                ));
                continue;
            }
            let blocked = (0..n)
                .filter(|&t| !st.threads[t].finished)
                .map(|t| {
                    format!(
                        "{}: {}",
                        st.threads[t].name,
                        describe_blocked(st.threads[t].pending.as_ref(), &st.labels)
                    )
                })
                .collect();
            break Some(FailureKind::Deadlock { blocked });
        }

        let choice = match mode {
            SimMode::Forced(sched) => {
                let i = granted.len();
                if i < sched.len() {
                    let t = sched[i];
                    if !enabled.contains(&t) {
                        diverged = true;
                        break None;
                    }
                    t
                } else {
                    verify::prefer(last, &enabled, &[])
                }
            }
            SimMode::Seeded(_) => {
                if enabled.len() == 1 {
                    enabled[0]
                } else {
                    enabled[(splitmix(&mut rng) % enabled.len() as u64) as usize]
                }
            }
        };

        let op = st.threads[choice]
            .pending
            .take()
            .expect("granted thread pending");
        apply_grant(&mut st, choice, &op);
        let text = op_text(&op, &st.labels, |t| st.threads[t].name.clone());
        log.push_str(&format!(
            "{:08} {:>12} [{}] {}\n",
            granted.len(),
            st.vnow.as_nanos(),
            st.threads[choice].name,
            text
        ));
        granted.push((choice, op));
        last = Some(choice);
        st.current = Some(choice);
        sess.worker_cv.notify_all();
    };

    // Abandon or conclude the run: blocked workers observe `abort` and
    // unwind via `ModelAbort`; std::thread::scope joins the root, and
    // detached shim threads drain on their own.
    st.abort = true;
    st.current = None;
    let labels = st.labels.clone();
    let names: Vec<String> = st.threads.iter().map(|t| t.name.clone()).collect();
    let vtime = st.vnow;
    drop(st);
    sess.worker_cv.notify_all();

    let schedule: Vec<usize> = granted.iter().map(|&(t, _)| t).collect();
    let failure = if diverged {
        None
    } else {
        outcome.map(|kind| {
            let trace: Vec<Step> = granted
                .iter()
                .filter(|(_, op)| !matches!(op, SOp::Start))
                .map(|&(t, ref op)| Step {
                    thread: names[t].clone(),
                    op: op_text(op, &labels, |t| names[t].clone()),
                })
                .collect();
            SimFailure {
                kind,
                trace,
                raw_steps: schedule.len(),
                context_switches: verify::count_switches_ids(&schedule),
                schedule: schedule.clone(),
            }
        })
    };
    SimRun {
        seed: match mode {
            SimMode::Seeded(s) => s,
            SimMode::Forced(_) => 0,
        },
        steps: schedule.len(),
        vtime,
        log,
        schedule,
        failure,
    }
}
