//! Instrumentable concurrency primitives for the transport layer.
//!
//! Every atomic, lock, condvar, park/unpark, sleep, spawn and clock
//! read on the transport hot paths goes through this module instead of
//! using `std` directly. In a normal build the wrappers compile down to
//! the exact `std` operation: the [`engine`] they consult is a set of
//! `#[inline(always)]` no-op stubs and object ids are zero-sized, so
//! the production semantics and codegen are unchanged.
//!
//! With the `verify-shim` cargo feature enabled, `engine` is
//! `crate::model`, the controlled-execution engine behind `spi-verify`
//! (exhaustive, frozen clock) and `spi-sim` (seeded, virtual clock).
//! Each operation asks it once. When the calling thread belongs to a
//! live session the operation becomes a *schedule point* — the thread
//! pauses, declares the operation it is about to perform, and waits for
//! the controller to grant it. When no session is live (the common
//! case even with the feature on), the cost is one relaxed load of a
//! global counter per operation.
//!
//! The module also centralizes the *time source* ([`now`]): real runs
//! read the monotonic clock once per blocking slice and reuse it for
//! both the supervision deadline and progress accounting; a session
//! substitutes its own clock, which is frozen under exploration (park
//! timeouts can never fire) and virtual under simulation (it advances
//! only when every thread is blocked on a deadline).

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

#[cfg(feature = "verify-shim")]
use crate::model as engine;

/// What the wrappers below see of `crate::model` when it is compiled
/// out: nothing is ever in a session, so every question is answered
/// "not handled" at compile time and the `std` operation follows.
#[cfg(not(feature = "verify-shim"))]
mod engine {
    use std::time::{Duration, Instant};

    #[derive(Debug, Clone, Copy)]
    pub(crate) struct ObjId;
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct ThreadId;
    pub(crate) struct Children;
    pub(crate) enum Child {}

    #[inline(always)]
    pub(crate) fn object_id(_: &'static str) -> ObjId {
        ObjId
    }
    #[inline(always)]
    pub(crate) fn load(_: ObjId) {}
    #[inline(always)]
    pub(crate) fn store(_: ObjId) {}
    #[inline(always)]
    pub(crate) fn rmw(_: ObjId) {}
    #[inline(always)]
    pub(crate) fn lock(_: ObjId) {}
    #[inline(always)]
    pub(crate) fn unlock(_: ObjId) {}
    #[inline(always)]
    pub(crate) fn try_lock(_: ObjId) -> Option<bool> {
        None
    }
    #[inline(always)]
    pub(crate) fn cv_wait(_: ObjId, _: ObjId, _: Option<Duration>) -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn cv_notify(_: ObjId, _: bool) -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn park(_: Duration) -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn unpark(_: ThreadId) -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn sleep(_: Duration) -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn current_tid() -> ThreadId {
        ThreadId
    }
    #[inline(always)]
    pub(crate) fn in_session() -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn now() -> Option<Instant> {
        None
    }
    #[inline(always)]
    pub(crate) fn session_id() -> usize {
        0
    }
    #[inline(always)]
    pub(crate) fn run_child(_: Option<Child>, f: impl FnOnce()) {
        f()
    }

    impl Children {
        #[inline(always)]
        pub(crate) fn here() -> Self {
            Children
        }
        #[inline(always)]
        pub(crate) fn enroll(&self, _: &str) -> Option<Child> {
            None
        }
        #[inline(always)]
        pub(crate) fn len(&self) -> usize {
            0
        }
        #[inline(always)]
        pub(crate) fn join_all(&self) {}
    }
}

/// A `usize` atomic that doubles as a model-checker schedule point.
///
/// Mirrors the subset of [`std::sync::atomic::AtomicUsize`] the
/// transport uses: `load`, `store` and `compare_exchange_weak`.
#[derive(Debug)]
pub struct AtomicUsize {
    inner: std::sync::atomic::AtomicUsize,
    id: engine::ObjId,
}

impl AtomicUsize {
    /// Creates an atomic with an identifying label (shown in model
    /// traces; ignored in normal builds).
    #[inline]
    pub fn labeled(v: usize, label: &'static str) -> Self {
        Self {
            inner: std::sync::atomic::AtomicUsize::new(v),
            id: engine::object_id(label),
        }
    }

    /// Creates an unlabeled atomic.
    #[inline]
    pub fn new(v: usize) -> Self {
        Self::labeled(v, "atomic")
    }

    /// Atomic load; a schedule point under an active model session.
    #[inline]
    pub fn load(&self, order: Ordering) -> usize {
        engine::load(self.id);
        self.inner.load(order)
    }

    /// Atomic store; a schedule point under an active model session.
    #[inline]
    pub fn store(&self, v: usize, order: Ordering) {
        engine::store(self.id);
        self.inner.store(v, order);
    }

    /// Weak compare-exchange; a schedule point under an active model
    /// session (declared as a read-modify-write).
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        engine::rmw(self.id);
        self.inner
            .compare_exchange_weak(current, new, success, failure)
    }
}

/// A `bool` atomic that doubles as a model schedule point (the socket
/// transport's `closed` flag).
#[derive(Debug)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
    id: engine::ObjId,
}

impl AtomicBool {
    /// Creates a bool atomic with an identifying label for model traces.
    #[inline]
    pub fn labeled(v: bool, label: &'static str) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
            id: engine::object_id(label),
        }
    }

    /// Creates an unlabeled bool atomic.
    #[inline]
    pub fn new(v: bool) -> Self {
        Self::labeled(v, "flag")
    }

    /// Atomic load; a schedule point under an active model session.
    #[inline]
    pub fn load(&self, order: Ordering) -> bool {
        engine::load(self.id);
        self.inner.load(order)
    }

    /// Atomic store; a schedule point under an active model session.
    #[inline]
    pub fn store(&self, v: bool, order: Ordering) {
        engine::store(self.id);
        self.inner.store(v, order);
    }

    /// Atomic swap; a schedule point (read-modify-write) under a model
    /// session.
    #[inline]
    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        engine::rmw(self.id);
        self.inner.swap(v, order)
    }
}

/// Memory fence. Under the model this is a no-op: the explorer only
/// enumerates sequentially-consistent interleavings (one thread runs
/// at a time, every effect is globally visible before the next grant),
/// so fences add no behavior — see DESIGN.md §12 for what that model
/// can and cannot find.
#[inline]
pub fn fence(order: Ordering) {
    std::sync::atomic::fence(order);
}

/// A mutex whose acquire/release are model schedule points.
#[derive(Debug)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    id: engine::ObjId,
}

impl<T> Mutex<T> {
    /// Creates a mutex with an identifying label for model traces.
    #[inline]
    pub fn labeled(value: T, label: &'static str) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
            id: engine::object_id(label),
        }
    }

    /// Creates an unlabeled mutex.
    #[inline]
    pub fn new(value: T) -> Self {
        Self::labeled(value, "mutex")
    }

    /// Acquires the lock, panicking on poisoning (the transport never
    /// unwinds while holding its locks in a healthy run) — unless the
    /// caller is itself unwinding (a `Drop` after a failed run), when
    /// the original panic is the one to report.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        engine::lock(self.id);
        self.lock_real()
    }

    /// The real acquisition behind a granted (or unmodeled) lock.
    #[inline]
    fn lock_real(&self) -> MutexGuard<'_, T> {
        let inner = unpoisoned(self.inner.lock());
        MutexGuard {
            inner: Some(inner),
            lock: self,
        }
    }

    /// Acquires the lock if no thread holds it, without waiting. A
    /// schedule point under a session: the attempt succeeds iff the
    /// lock is free when granted.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match engine::try_lock(self.id) {
            // Free in the model means free for real, or released by
            // the time its holder reaches its next schedule point.
            Some(true) => return Some(self.lock_real()),
            Some(false) => return None,
            None => {}
        }
        match self.inner.try_lock() {
            Ok(inner) => Some(MutexGuard {
                inner: Some(inner),
                lock: self,
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("shim mutex poisoned"),
        }
    }
}

/// What a std lock or wait returned, panicking on poisoning unless the
/// caller is itself unwinding (see [`Mutex::lock`]).
fn unpoisoned<G>(r: std::sync::LockResult<G>) -> G {
    r.unwrap_or_else(|poisoned| {
        assert!(std::thread::panicking(), "shim mutex poisoned");
        poisoned.into_inner()
    })
}

/// Guard returned by [`Mutex::lock`]; release is a schedule point.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Back-reference so [`Condvar`] can re-acquire the same mutex
    /// after a modeled wait.
    lock: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    // Invariant: `inner` is taken only by a condvar wait, which
    // consumes the guard.
    #[allow(clippy::expect_used)]
    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    // Invariant: as in `deref`.
    #[allow(clippy::expect_used)]
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // Declare the release *before* dropping the inner guard: the
        // explorer clears the model-side owner at the grant, and no
        // other model thread can be granted the lock until this thread
        // reaches its next schedule point — by which time the real
        // guard below is gone.
        engine::unlock(self.lock.id);
        self.inner.take();
    }
}

/// A condition variable whose wait/notify are model schedule points.
///
/// Mirrors the subset of [`std::sync::Condvar`] the transports use.
/// Under a session the wait is modeled: a timeout is a deadline on the
/// session clock, which fires only when no other thread can run (and
/// never under a frozen clock), and `notify_one` wakes the waiter with
/// the lowest thread index.
#[derive(Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
    id: engine::ObjId,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates a condvar with an identifying label for model traces.
    #[inline]
    pub fn labeled(label: &'static str) -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            id: engine::object_id(label),
        }
    }

    /// Creates an unlabeled condvar.
    #[inline]
    pub fn new() -> Self {
        Self::labeled("condvar")
    }

    /// Wakes one thread waiting on this condvar.
    #[inline]
    pub fn notify_one(&self) {
        if !engine::cv_notify(self.id, false) {
            self.inner.notify_one();
        }
    }

    /// Wakes every thread waiting on this condvar.
    #[inline]
    pub fn notify_all(&self) {
        if !engine::cv_notify(self.id, true) {
            self.inner.notify_all();
        }
    }

    /// Blocks until notified, releasing and re-acquiring the guard's
    /// mutex around the wait.
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_inner(guard, None).0
    }

    /// Blocks until notified or `dur` elapses. Returns the re-acquired
    /// guard and whether the wait timed out.
    #[inline]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        self.wait_inner(guard, Some(dur))
    }

    // Invariant: a live guard still holds its `inner` (see `deref`).
    #[allow(clippy::expect_used)]
    fn wait_inner<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Option<Duration>,
    ) -> (MutexGuard<'a, T>, bool) {
        let lock = guard.lock;
        // Take the inner std guard out without running the shim guard's
        // Drop (which would declare a spurious model unlock — under a
        // session the release is part of the wait's declaration).
        let mut g = std::mem::ManuallyDrop::new(guard);
        let inner = g.inner.take().expect("guard taken");
        if engine::in_session() {
            // Modeled wait: atomically (from the model's view, at the
            // wait's declaration) release the mutex and enqueue on the
            // condvar; the real guard is dropped first so the real
            // mutex is free for whichever thread the controller grants
            // next.
            drop(inner);
            let timed_out = engine::cv_wait(self.id, lock.id, dur);
            return (lock.lock(), timed_out);
        }
        match dur {
            Some(d) => {
                let (inner, res) = unpoisoned(self.inner.wait_timeout(inner, d));
                (
                    MutexGuard {
                        inner: Some(inner),
                        lock,
                    },
                    res.timed_out(),
                )
            }
            None => {
                let inner = unpoisoned(self.inner.wait(inner));
                (
                    MutexGuard {
                        inner: Some(inner),
                        lock,
                    },
                    false,
                )
            }
        }
    }
}

/// Identity of a thread as seen by the wait list (OS thread id in real
/// runs, plus the session's thread index under a session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadIdent {
    os: std::thread::ThreadId,
    model: engine::ThreadId,
}

/// A parkable thread handle (the shim analogue of
/// [`std::thread::Thread`]) stored in transport wait lists.
#[derive(Debug, Clone)]
pub struct ThreadHandle {
    os: std::thread::Thread,
    model: engine::ThreadId,
}

impl ThreadHandle {
    /// Stable identity for deregistration (`retain` by id).
    #[inline]
    pub fn id(&self) -> ThreadIdent {
        ThreadIdent {
            os: self.os.id(),
            model: self.model,
        }
    }

    /// Makes a park token available to the thread. Under a session the
    /// token is session state and the grant is a schedule point; in
    /// real runs this is exactly [`std::thread::Thread::unpark`].
    #[inline]
    pub fn unpark(&self) {
        if !engine::unpark(self.model) {
            self.os.unpark();
        }
    }
}

/// Handle for the calling thread (model-aware [`std::thread::current`]).
#[inline]
pub fn current() -> ThreadHandle {
    ThreadHandle {
        os: std::thread::current(),
        model: engine::current_tid(),
    }
}

/// Blocks the calling thread until a park token is available or the
/// timeout elapses. Under exploration the timeout *never* fires (the
/// session clock is frozen), so a wakeup that production code would
/// paper over with its bounded park slice becomes an observable
/// deadlock. Under simulation the timeout is a virtual deadline: it
/// fires only when the whole simulation is otherwise blocked (and never
/// in strict-park mode).
#[inline]
pub fn park_timeout(dur: Duration) {
    if !engine::park(dur) {
        std::thread::park_timeout(dur);
    }
}

/// Suspends the calling thread for `dur`. Under simulation this is a
/// virtual-clock sleep (a schedule point with a deadline) and under
/// exploration a yield; in real runs it is exactly
/// [`std::thread::sleep`].
#[inline]
pub fn sleep(dur: Duration) {
    if !engine::sleep(dur) {
        std::thread::sleep(dur);
    }
}

/// Reads the transport time source. Real runs read the monotonic
/// clock; under a session every call returns the session epoch plus
/// its virtual offset (which a frozen clock never moves).
#[inline]
pub fn now() -> Instant {
    engine::now().unwrap_or_else(Instant::now)
}

/// Scales what a wait may spend polling before it sleeps — a retry
/// count (the rings' claim spin) or a span of time (the socket's poll
/// window). Real runs on a host with more than one hardware thread keep
/// the configured budget. Scheduled threads get none: a spin retry is
/// indistinguishable from a scheduling choice the controller already
/// makes. Neither does a one-hardware-thread host, where polling only
/// delays the peer that would end the wait.
///
/// The host is looked at once per process, by the first call outside a
/// session, through that thread's CPU mask: a thread already pinned to
/// one CPU would take it for the whole machine, so whoever assembles a
/// system should have called before its PE threads pin themselves
/// (`spi-net` endpoints call when they are built).
#[inline]
pub fn spin_budget<B: Default>(real: B) -> B {
    static PARALLEL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let look = || std::thread::available_parallelism().is_ok_and(|cpus| cpus.get() > 1);
    if engine::in_session() || !*PARALLEL.get_or_init(look) {
        B::default()
    } else {
        real
    }
}

/// Number of the session the calling thread belongs to — unique within
/// the process, never reused — or `0` outside any session.
/// Process-wide singletons that own shim objects or shim-spawned threads
/// (the socket transport's flush timer) key themselves by it, so
/// concurrent sessions — and the real world beside them — never share
/// one.
#[inline]
pub fn session_id() -> usize {
    engine::session_id()
}

/// Spawns a detached background thread (the socket transport's flush
/// timer). Under a session the thread is enrolled in it: its every shim
/// operation becomes a schedule point and the run does not complete
/// until it exits — a background thread that never terminates surfaces
/// as a hang the controller reports instead of a leaked OS thread.
///
/// # Panics
///
/// If the OS refuses the thread, as [`std::thread::spawn`] does.
#[allow(clippy::expect_used)]
pub fn spawn(name: &'static str, f: impl FnOnce() + Send + 'static) {
    let child = engine::Children::here().enroll(name);
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || engine::run_child(child, f))
        .expect("spawn shim thread");
}

/// Model-aware [`std::thread::scope`]: threads spawned through the
/// [`Scope`] are enrolled in the caller's session (if any), and the
/// implicit joins at scope exit are modeled as explicit join schedule
/// points (so the controller never sees the scope owner silently block
/// in a real join).
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|s| {
        let wrapper = Scope {
            inner: s,
            children: engine::Children::here(),
        };
        let out = f(&wrapper);
        wrapper.children.join_all();
        out
    })
}

/// Spawn handle collection for [`scope`]. Only the closure-spawning
/// subset of [`std::thread::Scope`] the runners use is mirrored; under
/// a session spawning from any thread but the scope owner is not
/// supported (the child registry is single-threaded).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    children: engine::Children,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread with a deterministic display name for
    /// model traces and event logs.
    ///
    /// # Panics
    ///
    /// If the OS refuses the thread, as [`std::thread::Scope::spawn`]
    /// does.
    #[allow(clippy::expect_used)]
    pub fn spawn_named<F>(&self, name: String, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let child = self.children.enroll(&name);
        std::thread::Builder::new()
            .name(name)
            .spawn_scoped(self.inner, move || engine::run_child(child, f))
            .expect("spawn scoped shim thread");
    }

    /// Spawns a scoped thread (auto-named `t<index>` in model traces).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_named(format!("t{}", self.children.len()), f);
    }
}
