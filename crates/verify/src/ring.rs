//! Canonical `RingTransport` / `PointerTransport` exploration scenarios.
//!
//! Four scenarios cover the ring + waitlist + pool protocols:
//!
//! * [`explore_ring_spsc`] — the production topology: one producer,
//!   one consumer, small ring, `n` messages each way. Exhaustive at
//!   the bound; any lost wakeup shows up as a deadlock because the
//!   model clock is frozen and park timeouts can never fire.
//! * [`explore_pointer_spsc`] — the pointer-exchange handoff: pool
//!   acquire, in-place framing, descriptor publish, lease drop as the
//!   slot-release ack. Covers the descriptor ring, the free ring and
//!   the slab recycling between them.
//! * [`explore_try_then_block_spsc`] — the traced runner's call
//!   pattern over either transport: a non-blocking attempt first, the
//!   blocking call only on `Full` / `Empty`. Since each transport has
//!   one send body and one receive body taking the wait as a parameter,
//!   this puts the non-blocking answers (and the hand-over from a
//!   failed attempt to the parking claim) inside an exhaustive bound.
//! * [`explore_ring_shared_consumers`] — the scenario behind the PR 3
//!   lost-wakeup fix. Two consumers share the receive endpoint (the
//!   documented memory-safe-but-slower mode). A wait list that drains
//!   its entries while waking loses a wakeup here: one consumer's wake
//!   token is absorbed by the other, it re-parks after its entry was
//!   drained, and the next publish finds nobody registered — a
//!   deadlock the explorer finds without needing any preemption. The
//!   shipped wait list must stay clean; the registry entries
//!   `mutants/pr3_wake_dequeue.patch` and
//!   `mutants/pr23_unpark_under_lock.patch` are the wait lists that
//!   fail it (DESIGN.md §12). The strict 2-thread SPSC topology
//!   cannot expose the dequeue bug under sequential consistency — the
//!   `ready()` recheck after every park always rescues the single
//!   consumer — which is why the scenario uses the shared endpoint.

use std::sync::Arc;
use std::time::Duration;

use spi_platform::model::{explore, Exploration, ModelOptions};
use spi_platform::{PointerTransport, RingTransport, Transport, TransportError};

/// Far beyond any exploration: the model clock is frozen, so this
/// deadline is simply "never" inside a session.
const NEVER: Duration = Duration::from_secs(3600);

/// Exhaustively explores the 2-thread SPSC protocol: one producer
/// sending `messages` 4-byte payloads through a ring of `slots` slots,
/// one consumer receiving and checking FIFO order. Returns the full
/// exploration statistics; `failure` is `Some` if any interleaving
/// deadlocked, panicked or livelocked.
pub fn explore_ring_spsc(messages: usize, slots: usize, opts: &ModelOptions) -> Exploration {
    let slots = slots.max(1);
    explore(opts, move |sc| {
        let ring = Arc::new(RingTransport::new(slots * 4, 4));
        let p = Arc::clone(&ring);
        sc.thread("producer", move || {
            for i in 0..messages as u32 {
                p.send_with(4, &mut |buf| buf.copy_from_slice(&i.to_le_bytes()), NEVER)
                    .expect("model send");
            }
        });
        let c = Arc::clone(&ring);
        sc.thread("consumer", move || {
            for i in 0..messages as u32 {
                let mut got = None;
                c.recv_with(
                    &mut |b| got = Some(u32::from_le_bytes(b.try_into().expect("4 bytes"))),
                    NEVER,
                )
                .expect("model recv");
                assert_eq!(got, Some(i), "FIFO order violated");
            }
        });
    })
}

/// Exhaustively explores the pointer-exchange SPSC handoff: one
/// producer framing `messages` 4-byte payloads in place (pool acquire →
/// write slot → publish descriptor), one consumer receiving leases and
/// dropping them (the UBS-style slot-release acknowledgement through
/// the free ring). Two Vyukov rings plus the slab are in play, so the
/// schedule space is larger than the plain SPSC scenario at the same
/// bound; the invariant under test is that slot recycling can neither
/// deadlock (lost release ⇒ acquire parks forever under the frozen
/// model clock) nor corrupt FIFO order (descriptor pointing at a
/// reused slot before the consumer finished reading it would break the
/// payload check).
pub fn explore_pointer_spsc(messages: usize, slots: usize, opts: &ModelOptions) -> Exploration {
    let slots = slots.max(1);
    explore(opts, move |sc| {
        let t = Arc::new(PointerTransport::new(slots * 4, 4));
        let p = Arc::clone(&t);
        sc.thread("producer", move || {
            for i in 0..messages as u32 {
                p.send_in_place(
                    4,
                    &mut |buf| {
                        buf[..4].copy_from_slice(&i.to_le_bytes());
                        4
                    },
                    NEVER,
                )
                .expect("model send");
            }
        });
        let c = Arc::clone(&t);
        sc.thread("consumer", move || {
            for i in 0..messages as u32 {
                let token = c.recv_token(NEVER).expect("model recv");
                assert!(token.is_pooled(), "pointer path must not copy");
                assert_eq!(&token[..], &i.to_le_bytes(), "FIFO order violated");
                // Dropping the lease is the slot-release ack.
                drop(token);
            }
        });
    })
}

/// Exhaustively explores the call pattern of the runner's traced
/// `Direct` port over the transport `new` builds
/// ([`RingTransport::new`] or [`PointerTransport::new`]; the locked
/// reference queue blocks on a real mutex and cannot run under the
/// explorer): the producer offers each of `messages` 4-byte payloads
/// with `try_send` and falls back to the blocking `send` on `Full`, the
/// consumer asks `try_recv_token` and falls back to `recv_token` on
/// `Empty`, checking FIFO order. Any other answer from a non-blocking
/// call fails the run.
pub fn explore_try_then_block_spsc<T: Transport + 'static>(
    new: fn(usize, usize) -> T,
    messages: usize,
    slots: usize,
    opts: &ModelOptions,
) -> Exploration {
    let slots = slots.max(1);
    explore(opts, move |sc| {
        let t = Arc::new(new(slots * 4, 4));
        let p = Arc::clone(&t);
        sc.thread("producer", move || {
            for i in 0..messages as u32 {
                let data = i.to_le_bytes();
                match p.try_send(&data) {
                    Err(TransportError::Full) => p.send(&data, NEVER),
                    sent => sent,
                }
                .expect("model send");
            }
        });
        let c = Arc::clone(&t);
        sc.thread("consumer", move || {
            for i in 0..messages as u32 {
                let token = match c.try_recv_token() {
                    Err(TransportError::Empty) => c.recv_token(NEVER),
                    got => got,
                }
                .expect("model recv");
                assert_eq!(&token[..], &i.to_le_bytes(), "FIFO order violated");
            }
        });
    })
}

/// The PR 3 lost-wakeup scenario: one producer sends two messages
/// through a single-slot ring while two consumers share the receive
/// endpoint, each taking one message. The shipped wait list must not
/// deadlock on any schedule.
pub fn explore_ring_shared_consumers(opts: &ModelOptions) -> Exploration {
    explore(opts, move |sc| {
        let ring = Arc::new(RingTransport::new(4, 4));
        let p = Arc::clone(&ring);
        sc.thread("producer", move || {
            for i in 0..2u32 {
                p.send_with(4, &mut |buf| buf.copy_from_slice(&i.to_le_bytes()), NEVER)
                    .expect("model send");
            }
        });
        for name in ["consumer-1", "consumer-2"] {
            let c = Arc::clone(&ring);
            sc.thread(name, move || {
                c.recv_with(&mut |_| {}, NEVER).expect("model recv");
            });
        }
    })
}
