//! Instrumentable concurrency primitives for the transport layer.
//!
//! Every atomic, lock, condvar, park/unpark, sleep, spawn and clock
//! read on the transport hot paths goes through this module instead of
//! using `std` directly. In a normal build the wrappers compile down to
//! the exact `std` operation (the types are `repr`-identical newtypes
//! and every method is `#[inline]`), so the production semantics and
//! codegen are unchanged.
//!
//! With the `verify-shim` cargo feature enabled, each operation first
//! consults the two model engines in this crate:
//!
//! * the bounded model checker in [`crate::verify`] (DFS + sleep sets
//!   over a fixed thread set, frozen clock), and
//! * the seeded whole-system simulator in [`crate::simrt`] (one random
//!   schedule per seed, dynamic threads, virtual clock).
//!
//! When the calling thread belongs to an active session of either
//! engine the operation becomes a *schedule point* — the thread pauses,
//! declares the operation it is about to perform, and waits for the
//! controller to grant it. When no session is active (the common case
//! even with the feature on), the cost is one relaxed load of a global
//! counter per operation.
//!
//! The module also centralizes the *time source* ([`now`]): real runs
//! read the monotonic clock once per blocking slice and reuse it for
//! both the supervision deadline and progress accounting; `verify`
//! sessions observe a frozen clock so park timeouts can never fire
//! inside an exploration; `simrt` sessions observe a virtual clock that
//! advances only when every simulated thread is blocked on a deadline.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

#[cfg(feature = "verify-shim")]
use crate::simrt;
#[cfg(feature = "verify-shim")]
use crate::verify;

#[cfg(feature = "verify-shim")]
#[inline]
fn object_id(label: &'static str) -> usize {
    // At most one engine has a session on the calling thread; ids are
    // per-session, so the namespaces never mix.
    if let Some(id) = simrt::next_object_id(label) {
        return id;
    }
    verify::next_object_id(label)
}

/// A `usize` atomic that doubles as a model-checker schedule point.
///
/// Mirrors the subset of [`std::sync::atomic::AtomicUsize`] the
/// transport uses: `load`, `store` and `compare_exchange_weak`.
#[derive(Debug)]
pub struct AtomicUsize {
    inner: std::sync::atomic::AtomicUsize,
    #[cfg(feature = "verify-shim")]
    id: usize,
}

impl AtomicUsize {
    /// Creates an atomic with an identifying label (shown in model
    /// traces; ignored in normal builds).
    #[inline]
    pub fn labeled(v: usize, label: &'static str) -> Self {
        #[cfg(not(feature = "verify-shim"))]
        let _ = label;
        Self {
            inner: std::sync::atomic::AtomicUsize::new(v),
            #[cfg(feature = "verify-shim")]
            id: object_id(label),
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
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_load(self.id);
            verify::op_load(self.id);
        }
        self.inner.load(order)
    }

    /// Atomic store; a schedule point under an active model session.
    #[inline]
    pub fn store(&self, v: usize, order: Ordering) {
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_store(self.id);
            verify::op_store(self.id);
        }
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
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_rmw(self.id);
            verify::op_rmw(self.id);
        }
        self.inner
            .compare_exchange_weak(current, new, success, failure)
    }
}

/// A `bool` atomic that doubles as a model schedule point (the socket
/// transport's `closed` flag).
#[derive(Debug)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
    #[cfg(feature = "verify-shim")]
    id: usize,
}

impl AtomicBool {
    /// Creates a bool atomic with an identifying label for model traces.
    #[inline]
    pub fn labeled(v: bool, label: &'static str) -> Self {
        #[cfg(not(feature = "verify-shim"))]
        let _ = label;
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
            #[cfg(feature = "verify-shim")]
            id: object_id(label),
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
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_load(self.id);
            verify::op_load(self.id);
        }
        self.inner.load(order)
    }

    /// Atomic store; a schedule point under an active model session.
    #[inline]
    pub fn store(&self, v: bool, order: Ordering) {
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_store(self.id);
            verify::op_store(self.id);
        }
        self.inner.store(v, order);
    }

    /// Atomic swap; a schedule point (read-modify-write) under a model
    /// session.
    #[inline]
    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_rmw(self.id);
            verify::op_rmw(self.id);
        }
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
    #[cfg(feature = "verify-shim")]
    id: usize,
}

impl<T> Mutex<T> {
    /// Creates a mutex with an identifying label for model traces.
    #[inline]
    pub fn labeled(value: T, label: &'static str) -> Self {
        #[cfg(not(feature = "verify-shim"))]
        let _ = label;
        Self {
            inner: std::sync::Mutex::new(value),
            #[cfg(feature = "verify-shim")]
            id: object_id(label),
        }
    }

    /// Creates an unlabeled mutex.
    #[inline]
    pub fn new(value: T) -> Self {
        Self::labeled(value, "mutex")
    }

    /// Acquires the lock, panicking on poisoning (the transport never
    /// unwinds while holding its locks in a healthy run).
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_lock(self.id);
            verify::op_lock(self.id);
        }
        self.lock_real()
    }

    /// The real acquisition behind a granted (or unmodeled) lock.
    #[inline]
    fn lock_real(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().expect("shim mutex poisoned")),
            lock: self,
        }
    }

    /// Acquires the lock if no thread holds it, without waiting. A
    /// schedule point under a `simrt` session (the attempt succeeds iff
    /// the lock is free when granted); the `verify` checker does not
    /// model it — nothing it explores calls this.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(feature = "verify-shim")]
        match simrt::op_try_lock(self.id) {
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
    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
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
        #[cfg(feature = "verify-shim")]
        {
            simrt::op_unlock(self.lock.id);
            verify::op_unlock(self.lock.id);
        }
        self.inner.take();
    }
}

/// A condition variable whose wait/notify are model schedule points.
///
/// Mirrors the subset of [`std::sync::Condvar`] the transports use.
/// Under a `simrt` session the wait is virtual: the deadline is a
/// virtual-clock instant and the simulated clock only advances to it
/// when no other simulated thread can run.
#[derive(Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
    #[cfg(feature = "verify-shim")]
    id: usize,
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
        #[cfg(not(feature = "verify-shim"))]
        let _ = label;
        Self {
            inner: std::sync::Condvar::new(),
            #[cfg(feature = "verify-shim")]
            id: object_id(label),
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
        #[cfg(feature = "verify-shim")]
        if simrt::op_cv_notify(self.id, false) {
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes every thread waiting on this condvar.
    #[inline]
    pub fn notify_all(&self) {
        #[cfg(feature = "verify-shim")]
        if simrt::op_cv_notify(self.id, true) {
            return;
        }
        self.inner.notify_all();
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

    fn wait_inner<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Option<Duration>,
    ) -> (MutexGuard<'a, T>, bool) {
        let lock = guard.lock;
        // Take the inner std guard out without running the shim guard's
        // Drop (which would declare a spurious model unlock — under a
        // sim session the release is part of the CvWait declaration).
        let mut g = std::mem::ManuallyDrop::new(guard);
        let inner = g.inner.take().expect("guard taken");
        #[cfg(feature = "verify-shim")]
        if simrt::in_session() {
            // Modeled wait: atomically (from the model's view, at the
            // CvWait declaration) release the mutex and enqueue on the
            // condvar; the real guard is dropped first so the real
            // mutex is free for whichever thread the controller grants
            // next.
            drop(inner);
            let timed_out = simrt::op_cv_wait(self.id, lock.id, dur);
            return (lock.lock(), timed_out);
        }
        match dur {
            Some(d) => {
                let (inner, res) = self
                    .inner
                    .wait_timeout(inner, d)
                    .expect("shim mutex poisoned");
                (
                    MutexGuard {
                        inner: Some(inner),
                        lock,
                    },
                    res.timed_out(),
                )
            }
            None => {
                let inner = self.inner.wait(inner).expect("shim mutex poisoned");
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
/// runs, model thread index under a model session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadIdent {
    os: std::thread::ThreadId,
    #[cfg(feature = "verify-shim")]
    model: Option<usize>,
    #[cfg(feature = "verify-shim")]
    sim: Option<usize>,
}

/// A parkable thread handle (the shim analogue of
/// [`std::thread::Thread`]) stored in transport wait lists.
#[derive(Debug, Clone)]
pub struct ThreadHandle {
    os: std::thread::Thread,
    #[cfg(feature = "verify-shim")]
    model: Option<usize>,
    #[cfg(feature = "verify-shim")]
    sim: Option<usize>,
}

impl ThreadHandle {
    /// Stable identity for deregistration (`retain` by id).
    #[inline]
    pub fn id(&self) -> ThreadIdent {
        ThreadIdent {
            os: self.os.id(),
            #[cfg(feature = "verify-shim")]
            model: self.model,
            #[cfg(feature = "verify-shim")]
            sim: self.sim,
        }
    }

    /// Makes a park token available to the thread. Under a model the
    /// token is session state and the grant is a schedule point; in
    /// real runs this is exactly [`std::thread::Thread::unpark`].
    #[inline]
    pub fn unpark(&self) {
        #[cfg(feature = "verify-shim")]
        {
            if let Some(tid) = self.sim {
                if simrt::op_unpark(tid) {
                    return;
                }
            }
            if let Some(tid) = self.model {
                if verify::op_unpark(tid) {
                    return;
                }
            }
        }
        self.os.unpark();
    }
}

/// Handle for the calling thread (model-aware [`std::thread::current`]).
#[inline]
pub fn current() -> ThreadHandle {
    ThreadHandle {
        os: std::thread::current(),
        #[cfg(feature = "verify-shim")]
        model: verify::worker_tid(),
        #[cfg(feature = "verify-shim")]
        sim: simrt::worker_tid(),
    }
}

/// Blocks the calling thread until a park token is available or the
/// timeout elapses. Under `verify` the timeout *never* fires (the
/// session clock is frozen), so a wakeup that production code would
/// paper over with its bounded park slice becomes an observable
/// deadlock in the explorer. Under `simrt` the timeout is a virtual
/// deadline: it fires only when the whole simulation is otherwise
/// blocked (and never fires in strict-park mode).
#[inline]
pub fn park_timeout(dur: Duration) {
    #[cfg(feature = "verify-shim")]
    {
        if simrt::op_park(Some(dur)) {
            return;
        }
        if verify::op_park() {
            return;
        }
    }
    std::thread::park_timeout(dur);
}

/// Suspends the calling thread for `dur`. Under a `simrt` session this
/// is a virtual-clock sleep (a schedule point with a deadline); in real
/// runs it is exactly [`std::thread::sleep`].
#[inline]
pub fn sleep(dur: Duration) {
    #[cfg(feature = "verify-shim")]
    if simrt::op_sleep(dur) {
        return;
    }
    std::thread::sleep(dur);
}

/// Reads the transport time source. Real runs read the monotonic
/// clock; under a `verify` session every call returns the session
/// epoch (frozen), and under a `simrt` session the session epoch plus
/// the current virtual offset.
#[inline]
pub fn now() -> Instant {
    #[cfg(feature = "verify-shim")]
    {
        if let Some(t) = simrt::virtual_now() {
            return t;
        }
        if let Some(t) = verify::frozen_now() {
            return t;
        }
    }
    Instant::now()
}

/// Scales a spin budget: model sessions spin zero times (a spin
/// retry is indistinguishable from a scheduling choice the explorer
/// already enumerates), real runs keep the configured budget.
#[inline]
pub fn spin_budget(real: u32) -> u32 {
    #[cfg(feature = "verify-shim")]
    if verify::in_session() || simrt::in_session() {
        return 0;
    }
    real
}

/// Number of the `simrt` session the calling thread belongs to — unique
/// within the process, never reused — or `0` outside any session.
/// Process-wide singletons that own shim objects or shim-spawned threads
/// (the socket transport's flush timer) key themselves by it, so
/// concurrent sessions — and the real world beside them — never share
/// one.
#[inline]
pub fn session_id() -> usize {
    #[cfg(feature = "verify-shim")]
    if let Some(sess) = simrt::session_handle() {
        return sess.id;
    }
    0
}

/// Spawns a detached background thread (the socket transport's flush
/// timer). Under a `simrt` session
/// the thread is registered as a simulated thread: its every shim
/// operation becomes a schedule point and the run does not complete
/// until it exits — a background thread that never terminates surfaces
/// as a simulated hang instead of a leaked OS thread.
pub fn spawn(name: &'static str, f: impl FnOnce() + Send + 'static) {
    #[cfg(feature = "verify-shim")]
    if let Some(sess) = simrt::session_handle() {
        let tid = simrt::register_child(&sess, name.to_string());
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || simrt::child_main(sess, tid, f))
            .expect("spawn shim thread");
        return;
    }
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn shim thread");
}

/// Model-aware [`std::thread::scope`]: threads spawned through the
/// [`Scope`] become simulated threads under a `simrt` session, and the
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
            #[cfg(feature = "verify-shim")]
            sim: simrt::session_handle(),
            #[cfg(feature = "verify-shim")]
            children: std::cell::RefCell::new(Vec::new()),
        };
        let out = f(&wrapper);
        // Model the joins std::thread::scope is about to perform: each
        // is a schedule point enabled once the child's simulated thread
        // has finished (after which its real exit is imminent, so the
        // real join below blocks only momentarily).
        #[cfg(feature = "verify-shim")]
        if wrapper.sim.is_some() {
            for tid in wrapper.children.borrow().iter() {
                simrt::op_join(*tid);
            }
        }
        out
    })
}

/// Spawn handle collection for [`scope`]. Only the closure-spawning
/// subset of [`std::thread::Scope`] the runners use is mirrored; under
/// a sim session spawning from any thread but the scope owner is not
/// supported (the child registry is single-threaded).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    #[cfg(feature = "verify-shim")]
    sim: Option<simrt::SessionHandle>,
    #[cfg(feature = "verify-shim")]
    children: std::cell::RefCell<Vec<usize>>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread with a deterministic display name for
    /// model traces and event logs.
    pub fn spawn_named<F>(&self, name: String, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        #[cfg(feature = "verify-shim")]
        if let Some(sess) = &self.sim {
            let tid = simrt::register_child(sess, name.clone());
            self.children.borrow_mut().push(tid);
            let sess = sess.clone();
            std::thread::Builder::new()
                .name(name)
                .spawn_scoped(self.inner, move || simrt::child_main(sess, tid, f))
                .expect("spawn scoped shim thread");
            return;
        }
        std::thread::Builder::new()
            .name(name)
            .spawn_scoped(self.inner, f)
            .expect("spawn scoped shim thread");
    }

    /// Spawns a scoped thread (auto-named `t<index>` in model traces).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_named(format!("t{}", self.next_name_index()), f);
    }

    fn next_name_index(&self) -> usize {
        #[cfg(feature = "verify-shim")]
        {
            self.children.borrow().len()
        }
        #[cfg(not(feature = "verify-shim"))]
        {
            0
        }
    }
}
