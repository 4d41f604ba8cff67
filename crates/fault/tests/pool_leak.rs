//! Slot-conservation under injected faults: whatever a fault does to a
//! message — drop it, corrupt it, duplicate it, delay it — the pooled
//! slot carrying it must come home. A leak here is permanent capacity
//! loss: the pointer transport's sender stalls forever once the free
//! ring runs dry, which no retry budget can heal.

use std::time::Duration;

use spi_fault::{FaultKind, FaultPlan};
use spi_platform::{ChannelId, PointerTransport, Token, Transport};

const T: Duration = Duration::from_secs(2);
const SLOT: usize = 64;

fn faulty_pointer_transport(plan: FaultPlan) -> (Box<dyn Transport>, usize) {
    let (decorate, _log) = plan.into_decorator().unwrap();
    let inner = PointerTransport::new(8 * SLOT, SLOT);
    let slots = inner.slots();
    (decorate(ChannelId(0), Box::new(inner)), slots)
}

/// Drives `messages` lease-path sends through `t`, draining deliveries
/// as it goes (send errors from injected faults are expected), then
/// asserts every pool slot is free again.
fn assert_slots_conserved(t: &dyn Transport, slots: usize, messages: u8) {
    let pool = t.pool().expect("fault decorator forwards the pool").clone();
    assert_eq!(pool.available(), slots, "pool starts full");

    for i in 0..messages {
        let mut lease = pool.acquire(T).expect("slot available");
        lease[0] = i;
        lease.truncate(SLOT / 2);
        // Dropped / corrupted sends surface as errors; the lease was
        // consumed either way and its slot must still be released.
        let _ = t.send_token(Token::from(lease), T);
        while let Ok(token) = t.try_recv_token() {
            drop(token);
        }
    }
    while let Ok(token) = t.try_recv_token() {
        drop(token);
    }
    assert_eq!(pool.available(), slots, "injected faults leaked pool slots");
}

#[test]
fn every_fault_kind_returns_its_slot() {
    for kind in [
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::Duplicate,
        FaultKind::Delay { micros: 50 },
        FaultKind::Stall { millis: 1 },
    ] {
        // Fault every fourth message so faulted and clean sends
        // interleave while the pool cycles through all its slots.
        let mut plan = FaultPlan::new();
        for idx in [0u64, 4, 8, 12] {
            plan = plan.inject(ChannelId(0), idx, kind);
        }
        let (t, slots) = faulty_pointer_transport(plan);
        assert_slots_conserved(t.as_ref(), slots, 16);
    }
}

#[test]
fn mixed_fault_burst_returns_all_slots() {
    // All kinds in one run, clustered early so the faulted sends overlap
    // while later messages are still in flight.
    let plan = FaultPlan::new()
        .inject(ChannelId(0), 0, FaultKind::Duplicate)
        .inject(ChannelId(0), 1, FaultKind::Drop)
        .inject(ChannelId(0), 2, FaultKind::Corrupt)
        .inject(ChannelId(0), 3, FaultKind::Duplicate)
        .inject(ChannelId(0), 4, FaultKind::Drop)
        .inject(ChannelId(0), 5, FaultKind::Delay { micros: 10 });
    let (t, slots) = faulty_pointer_transport(plan);
    assert_slots_conserved(t.as_ref(), slots, 24);
}

#[test]
fn unsent_and_mid_frame_leases_release_on_drop() {
    let inner = PointerTransport::new(8 * SLOT, SLOT);
    let slots = inner.slots();
    let pool = inner.buffer_pool().clone();

    // A lease dropped without ever being sent (e.g. the framing step
    // errored) returns its slot.
    let lease = pool.acquire(T).unwrap();
    assert_eq!(pool.available(), slots - 1);
    drop(lease);
    assert_eq!(pool.available(), slots);

    // Same through the Token wrapper, as runner error paths see it.
    let token = Token::from(pool.acquire(T).unwrap());
    assert_eq!(pool.available(), slots - 1);
    drop(token);
    assert_eq!(pool.available(), slots);
}
