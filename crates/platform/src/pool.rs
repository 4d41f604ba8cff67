//! Pooled token buffers — the paper's shared-memory message store.
//!
//! The SPI optimization this module reproduces is §5.2's pointer
//! exchange: `SPI_send`/`SPI_receive` never copy payloads, they pass
//! *pointers into statically bounded shared buffers*. [`BufferPool`] is
//! that buffer: a slab of `slots × slot_bytes` bytes allocated once at
//! setup — when sized from the builder this is exactly the eq. (2)
//! bound `B(e) = (Γ + delay(e)) · c(e)` cut into eq. (1) packed-token
//! slots `c(e)` — and never touched by the allocator again.
//!
//! Ownership of a slot moves through the system as a [`TokenBuf`]
//! lease:
//!
//! 1. the producer *acquires* a free slot (blocking when the pool is
//!    exhausted — that is the eq. (2) backpressure),
//! 2. writes the payload in place and *sends* the lease — only the slot
//!    index crosses the transport (see `PointerTransport`),
//! 3. the consumer *receives* a lease over the same bytes, reads them
//!    in place,
//! 4. dropping the lease *releases* the slot back to the pool — the
//!    UBS-style acknowledgement closing the flow-control loop.
//!
//! The free list is itself a lock-free index ring (the proven Vyukov
//! ring from [`crate::transport`], carrying 4-byte slot indices), so
//! acquisition parks/wakes exactly like a transport operation and the
//! whole protocol stays explorable by the `verify-shim` model checker.
//!
//! Leases release on *any* drop path — normal consumption, early
//! return, panic unwind, or a fault injector discarding a message — so
//! the pool cannot leak slots while leases are used linearly
//! (`mem::forget` excepted, as for every RAII resource).

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use crate::transport::{le_u32, RingTransport, Transport, TransportError};

/// Bytes of one slot-index message on the pool's free ring.
const IDX_BYTES: usize = 4;

/// Shared pool state: the payload slab plus the free-index ring. Owned
/// jointly by the pool handle and every outstanding lease, so a lease
/// can outlive the transport that produced it.
pub(crate) struct PoolInner {
    slot_bytes: usize,
    slots: usize,
    /// `slots × slot_bytes` contiguous payload bytes. A slot's bytes
    /// are only touched by the party currently holding its index — the
    /// producer between acquire and send, the consumer between receive
    /// and release — with the index handoffs ordered by the rings'
    /// release/acquire sequence protocol.
    slab: Box<[UnsafeCell<u8>]>,
    /// Free slot indices, carried as 4-byte messages. Releasing a slot
    /// enqueues its index (never blocks: indices are conserved, the
    /// ring holds exactly `slots`); acquiring dequeues one, parking
    /// when the pool is exhausted.
    free: RingTransport,
}

// SAFETY: slab bytes are only accessed through a slot's exclusive
// owner (see field docs); the free/data ring seq protocols provide the
// release/acquire edges between successive owners.
unsafe impl Sync for PoolInner {}

impl PoolInner {
    /// # Safety
    ///
    /// Caller must hold the lease for `slot` and keep `off + len`
    /// within `slot_bytes`.
    unsafe fn slice(&self, slot: u32, off: u32, len: u32) -> &[u8] {
        let base = slot as usize * self.slot_bytes + off as usize;
        std::slice::from_raw_parts(self.slab[base].get() as *const u8, len as usize)
    }

    /// # Safety
    ///
    /// As [`PoolInner::slice`], plus the caller must be the unique
    /// accessor for the duration of the borrow (guaranteed by holding
    /// `&mut TokenBuf`).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, slot: u32, off: u32, len: u32) -> &mut [u8] {
        let base = slot as usize * self.slot_bytes + off as usize;
        std::slice::from_raw_parts_mut(self.slab[base].get(), len as usize)
    }

    // Conserved indices: the free ring always has room for every slot
    // it was built for, so this cannot legitimately fail.
    #[allow(clippy::expect_used)]
    fn release(&self, slot: u32) {
        self.free
            .try_send(&slot.to_le_bytes())
            .expect("free ring can always take a released slot back");
    }
}

/// A fixed slab of eq. (1)-sized token slots with a lock-free free
/// list — allocation-free after construction.
///
/// Cloning the handle is cheap (an `Arc` bump) and shares the slots.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use spi_platform::BufferPool;
///
/// let pool = BufferPool::new(4, 64);
/// let mut lease = pool.acquire(Duration::from_secs(1)).unwrap();
/// lease[..5].copy_from_slice(b"token");
/// lease.truncate(5);
/// assert_eq!(&*lease, b"token");
/// drop(lease); // slot returns to the pool
/// assert_eq!(pool.available(), 4);
/// ```
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("slots", &self.inner.slots)
            .field("slot_bytes", &self.inner.slot_bytes)
            .field("available", &self.available())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool of `slots` slots (at least one) of `slot_bytes`
    /// (at least one byte) each. All allocation happens here.
    // Invariant: a fresh free ring holds every slot index.
    #[allow(clippy::expect_used)]
    pub fn new(slots: usize, slot_bytes: usize) -> Self {
        let slots = slots.max(1);
        let slot_bytes = slot_bytes.max(1);
        let slab: Box<[UnsafeCell<u8>]> = (0..slots * slot_bytes)
            .map(|_| UnsafeCell::new(0))
            .collect();
        let free = RingTransport::new(slots * IDX_BYTES, IDX_BYTES);
        for i in 0..slots {
            free.try_send(&(i as u32).to_le_bytes())
                .expect("fresh free ring holds every slot index");
        }
        BufferPool {
            inner: Arc::new(PoolInner {
                slot_bytes,
                slots,
                slab,
                free,
            }),
        }
    }

    /// Number of slots in the pool (the eq. (2) bound in messages when
    /// built by the SPI system builder).
    pub fn slots(&self) -> usize {
        self.inner.slots
    }

    /// Bytes per slot (the eq. (1) packed-token capacity).
    pub fn slot_bytes(&self) -> usize {
        self.inner.slot_bytes
    }

    /// Slots currently free (point-in-time snapshot). A leak test
    /// asserts this returns to [`BufferPool::slots`] once every lease
    /// is dropped.
    pub fn available(&self) -> usize {
        self.inner.free.occupancy()
    }

    /// The free list, for the transport's wait-list test: the one ring
    /// whose receive end real threads share.
    #[cfg(test)]
    pub(crate) fn free_list(&self) -> &RingTransport {
        &self.inner.free
    }

    /// Whether `lease` was acquired from this pool (same slab).
    pub fn owns(&self, lease: &TokenBuf) -> bool {
        Arc::ptr_eq(&self.inner, &lease.inner)
    }

    /// Blocking acquisition of a free slot; the returned lease spans
    /// the full slot ([`TokenBuf::truncate`] before sending). Parks
    /// while the pool is exhausted — eq. (2) backpressure.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when no slot frees up in time; the
    /// `idle` field reports how long no release has been observed.
    pub fn acquire(&self, timeout: Duration) -> Result<TokenBuf, TransportError> {
        let slot = self.inner.free.recv_framed(Some(timeout), le_u32)?;
        Ok(self.lease(slot, 0, self.inner.slot_bytes as u32))
    }

    /// Non-blocking acquisition; `None` when the pool is exhausted.
    pub fn try_acquire(&self) -> Option<TokenBuf> {
        let slot = self.inner.free.recv_framed(None, le_u32).ok()?;
        Some(self.lease(slot, 0, self.inner.slot_bytes as u32))
    }

    /// Wraps an owned slot index in a lease (crate-internal: the
    /// transport builds receive-side leases from ring descriptors).
    pub(crate) fn lease(&self, slot: u32, off: u32, len: u32) -> TokenBuf {
        TokenBuf {
            inner: Arc::clone(&self.inner),
            slot,
            off,
            len,
            detached: false,
        }
    }

    /// Consumes a lease without releasing its slot, returning the
    /// `(slot, off, len)` descriptor. The caller takes over the slot's
    /// ownership (crate-internal: the send path's pointer exchange).
    pub(crate) fn detach(lease: TokenBuf) -> (u32, u32, u32) {
        let mut lease = lease;
        lease.detached = true;
        (lease.slot, lease.off, lease.len)
    }
}

/// An exclusive lease over one pool slot — SPI's message token.
///
/// Dereferences to the payload bytes (`&[u8]` / `&mut [u8]`). Dropping
/// the lease releases the slot back to its pool, on every path
/// (including panic unwind), which is the pointer-exchange protocol's
/// slot-release acknowledgement.
pub struct TokenBuf {
    inner: Arc<PoolInner>,
    slot: u32,
    /// First payload byte within the slot (advanced by
    /// [`TokenBuf::trim_front`], e.g. to strip a verified frame header
    /// in place).
    off: u32,
    /// Payload length in bytes.
    len: u32,
    /// Set when the slot's ownership moved elsewhere (sent through a
    /// pointer transport); drop then releases nothing.
    detached: bool,
}

// SAFETY: a lease is the unique owner of its slot's bytes; moving it
// between threads moves that ownership (the rings order the handoff),
// and shared references only permit reads.
unsafe impl Send for TokenBuf {}
unsafe impl Sync for TokenBuf {}

impl TokenBuf {
    /// Payload length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes still addressable by this lease (slot size minus the
    /// trimmed front).
    pub fn capacity(&self) -> usize {
        self.inner.slot_bytes - self.off as usize
    }

    /// Shortens the payload to `len` bytes (no effect when already
    /// shorter). Producers acquire full-slot leases and truncate to
    /// the bytes actually written.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len as u32);
    }

    /// Drops the first `n` payload bytes *in place* — a pointer bump,
    /// no copy. Used to strip verified headers (supervision frames,
    /// SPI headers) off a received token.
    pub fn trim_front(&mut self, n: usize) {
        let n = (n as u32).min(self.len);
        self.off += n;
        self.len -= n;
    }
}

impl Deref for TokenBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: the lease owns the slot; off + len stay within the
        // slot by construction.
        unsafe { self.inner.slice(self.slot, self.off, self.len) }
    }
}

impl DerefMut for TokenBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as `deref`, and `&mut self` makes the borrow unique.
        unsafe { self.inner.slice_mut(self.slot, self.off, self.len) }
    }
}

impl Drop for TokenBuf {
    fn drop(&mut self) {
        if !self.detached {
            self.inner.release(self.slot);
        }
    }
}

impl fmt::Debug for TokenBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TokenBuf")
            .field("slot", &self.slot)
            .field("off", &self.off)
            .field("len", &self.len)
            .finish()
    }
}

impl AsRef<[u8]> for TokenBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// A received message: either an owned heap buffer (copying
/// transports, the DES) or a pooled lease (pointer transports). Both
/// dereference to the payload bytes, so consuming code reads one type
/// regardless of the transport underneath.
#[derive(Debug)]
pub enum Token {
    /// Heap-owned payload (the historical representation).
    Owned(Vec<u8>),
    /// A zero-copy lease over pooled slot bytes.
    Pooled(TokenBuf),
}

impl Token {
    /// Payload length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        match self {
            Token::Owned(v) => v.len(),
            Token::Pooled(t) => t.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this token is a pooled lease (true zero-copy path).
    pub fn is_pooled(&self) -> bool {
        matches!(self, Token::Pooled(_))
    }

    /// Drops the first `n` payload bytes in place: a pointer bump for
    /// pooled leases, a front drain for owned buffers.
    pub fn trim_front(&mut self, n: usize) {
        match self {
            Token::Owned(v) => {
                v.drain(..n.min(v.len()));
            }
            Token::Pooled(t) => t.trim_front(n),
        }
    }

    /// Extracts an owned `Vec<u8>`, copying only when pooled.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Token::Owned(v) => v,
            Token::Pooled(t) => t.to_vec(),
        }
    }
}

impl Deref for Token {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Token::Owned(v) => v,
            Token::Pooled(t) => t,
        }
    }
}

impl DerefMut for Token {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            Token::Owned(v) => v,
            Token::Pooled(t) => t,
        }
    }
}

impl From<Vec<u8>> for Token {
    fn from(v: Vec<u8>) -> Self {
        Token::Owned(v)
    }
}

impl From<TokenBuf> for Token {
    fn from(t: TokenBuf) -> Self {
        Token::Pooled(t)
    }
}

/// Deep clone: a pooled lease clones to an owned copy (a lease is
/// exclusive by construction). Only cold paths clone tokens — the
/// supervised runner's iteration checkpoints and replay logs.
impl Clone for Token {
    fn clone(&self) -> Self {
        match self {
            Token::Owned(v) => Token::Owned(v.clone()),
            Token::Pooled(t) => Token::Owned(t.to_vec()),
        }
    }
}

impl PartialEq for Token {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Token {}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(200);

    #[test]
    fn acquire_write_read_release_roundtrip() {
        let pool = BufferPool::new(2, 16);
        assert_eq!(pool.available(), 2);
        let mut a = pool.acquire(T).unwrap();
        assert_eq!(a.len(), 16, "fresh lease spans the whole slot");
        a[..4].copy_from_slice(b"spi!");
        a.truncate(4);
        assert_eq!(&*a, b"spi!");
        assert_eq!(pool.available(), 1);
        drop(a);
        assert_eq!(pool.available(), 2, "drop releases the slot");
    }

    #[test]
    fn exhausted_pool_blocks_then_times_out() {
        let pool = BufferPool::new(1, 8);
        let held = pool.acquire(T).unwrap();
        assert!(pool.try_acquire().is_none());
        assert!(matches!(
            pool.acquire(Duration::from_millis(30)),
            Err(TransportError::Timeout { .. })
        ));
        drop(held);
        assert!(pool.try_acquire().is_some());
    }

    #[test]
    fn release_unblocks_a_parked_acquirer() {
        let pool = BufferPool::new(1, 8);
        let held = pool.acquire(T).unwrap();
        let p2 = pool.clone();
        let waiter = std::thread::spawn(move || p2.acquire(Duration::from_secs(5)).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn trim_front_is_a_pointer_bump() {
        let pool = BufferPool::new(1, 16);
        let mut lease = pool.acquire(T).unwrap();
        lease[..8].copy_from_slice(b"hdrrbody");
        lease.truncate(8);
        lease.trim_front(4);
        assert_eq!(&*lease, b"body");
        assert_eq!(lease.capacity(), 12);
        // Trimming past the end clamps instead of panicking.
        lease.trim_front(100);
        assert!(lease.is_empty());
    }

    #[test]
    fn leases_release_on_panic_unwind() {
        let pool = BufferPool::new(2, 8);
        let p = pool.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _lease = p.acquire(T).unwrap();
            panic!("actor firing died");
        }));
        assert!(result.is_err());
        assert_eq!(pool.available(), 2, "unwind returned the slot");
    }

    #[test]
    fn every_slot_is_distinct_storage() {
        let pool = BufferPool::new(3, 4);
        let mut leases: Vec<TokenBuf> = (0..3).map(|_| pool.acquire(T).unwrap()).collect();
        for (i, l) in leases.iter_mut().enumerate() {
            l.copy_from_slice(&[i as u8; 4]);
        }
        for (i, l) in leases.iter().enumerate() {
            assert_eq!(&**l, &[i as u8; 4]);
        }
        assert_eq!(pool.available(), 0);
        drop(leases);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn token_unifies_owned_and_pooled_views() {
        let pool = BufferPool::new(1, 8);
        let mut lease = pool.acquire(T).unwrap();
        lease[..3].copy_from_slice(b"abc");
        lease.truncate(3);
        let pooled = Token::from(lease);
        let owned = Token::from(b"abc".to_vec());
        assert_eq!(pooled, owned);
        assert!(pooled.is_pooled() && !owned.is_pooled());
        let mut clone = pooled.clone();
        assert!(!clone.is_pooled(), "clones are deep owned copies");
        clone.trim_front(1);
        assert_eq!(&*clone, b"bc");
        assert_eq!(pooled.into_vec(), b"abc");
        assert_eq!(pool.available(), 1, "into_vec released the lease");
    }
}
