//! Actor implementations and the firing context.
//!
//! SPI separates *communication* from *computation* (paper §1: the
//! library's "special modules ensure that the communication part of a
//! system is completely separated from the computation part"). The
//! computation side is expressed by implementing [`ActorFire`]: one call
//! per firing, reading exact per-edge inputs and producing exact per-edge
//! outputs. Everything about how those bytes travel — headers, packing,
//! protocols, acknowledgements — is the SPI system's concern, invisible
//! here.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use spi_dataflow::EdgeId;
use spi_platform::ByteQueue;

/// Per-firing context handed to an actor implementation.
///
/// The library owns the buffers and lends them: each input is a range
/// of the pending bytes of the edge's queue on the firing PE (`queues`
/// is indexed by `EdgeId`), and each output a slot the lowered firing
/// keeps, cleared when the firing starts. A firing has a handful of
/// ports, so both lists are searched by edge.
#[derive(Debug, Default)]
pub struct Firing<'a> {
    /// Graph iteration this firing belongs to.
    pub iter: u64,
    /// Index of this firing within the actor's repetitions (0-based).
    pub k: u64,
    pub(crate) queues: &'a [ByteQueue],
    pub(crate) inputs: &'a [(EdgeId, Range<usize>)],
    pub(crate) outputs: &'a mut [(EdgeId, Vec<u8>)],
    /// Where an edge the actor does not produce is written.
    pub(crate) discard: Vec<u8>,
}

impl<'a> Firing<'a> {
    /// The bytes consumed from `edge` this firing.
    ///
    /// For a static edge this is exactly `consume_rate × token_bytes`;
    /// for a dynamic (VTS) edge it is one packed token of variable size.
    pub fn input(&self, edge: EdgeId) -> &'a [u8] {
        let found = self.inputs.iter().find(|(e, _)| *e == edge);
        found
            .and_then(|(_, range)| self.queues.get(edge.0)?.pending().get(range.clone()))
            .unwrap_or_default()
    }

    /// The slot `edge`'s output is written into, empty when the firing
    /// starts (an unwritten output sends nothing); for an edge the actor
    /// does not produce, a slot that is thrown away.
    ///
    /// Static edges must produce exactly `produce_rate × token_bytes`;
    /// dynamic edges at most their VTS bound. Violations surface as
    /// [`crate::SpiError::StaticSizeMismatch`] /
    /// [`crate::SpiError::VtsBoundExceeded`] when the system runs.
    pub fn output(&mut self, edge: EdgeId) -> &mut Vec<u8> {
        match self.outputs.iter_mut().find(|(e, _)| *e == edge) {
            Some((_, slot)) => slot,
            None => &mut self.discard,
        }
    }
}

/// One dataflow actor's computation: called once per firing.
///
/// Implementations return the firing's cycle cost (its contribution to
/// simulated time). State held in `self` persists across firings —
/// that is how stateful actors (accumulators, filters) are expressed.
///
/// A plain `FnMut(&mut Firing) -> u64` closure works via the blanket
/// impl.
pub trait ActorFire: Send {
    /// Performs one firing and returns its cost in cycles.
    fn fire(&mut self, ctx: &mut Firing) -> u64;
}

impl<F> ActorFire for F
where
    F: FnMut(&mut Firing) -> u64 + Send,
{
    fn fire(&mut self, ctx: &mut Firing) -> u64 {
        self(ctx)
    }
}

/// Shared handle to an actor implementation.
///
/// Firings of one actor may be scheduled onto different processors, and
/// the threaded runner executes processors on OS threads, so the
/// implementation is shared behind `Arc<Mutex<…>>`.
pub(crate) type SharedActor = Arc<Mutex<Box<dyn ActorFire>>>;

/// Wraps an implementation into a [`SharedActor`].
pub(crate) fn share(actor: impl ActorFire + 'static) -> SharedActor {
    Arc::new(Mutex::new(Box::new(actor)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_actor_impls() {
        let mut calls = 0u64;
        let mut actor = move |_ctx: &mut Firing| {
            calls += 1;
            calls * 10
        };
        let mut ctx = Firing::default();
        assert_eq!(ActorFire::fire(&mut actor, &mut ctx), 10);
        assert_eq!(ActorFire::fire(&mut actor, &mut ctx), 20);
    }

    #[test]
    fn firing_io_roundtrip() {
        let mut queues = vec![ByteQueue::default(); 2];
        queues[1].push(&[7, 1, 2, 3, 4]);
        let inputs = [(EdgeId(1), 1..4)];
        let mut outputs = [(EdgeId(2), Vec::new()), (EdgeId(3), Vec::with_capacity(8))];
        let mut ctx = Firing {
            iter: 5,
            k: 1,
            queues: &queues,
            inputs: &inputs,
            outputs: &mut outputs,
            discard: Vec::new(),
        };
        assert_eq!(ctx.iter, 5);
        assert_eq!(ctx.k, 1);
        assert_eq!(ctx.input(EdgeId(1)), &[1, 2, 3]);
        assert_eq!(ctx.input(EdgeId(0)), &[] as &[u8]);
        ctx.output(EdgeId(2)).push(8);
        ctx.output(EdgeId(2)).extend([9, 9]);
        // An edge the actor does not produce takes the write and drops it.
        ctx.output(EdgeId(9)).extend([5; 4]);
        drop(ctx);
        assert_eq!(outputs[0], (EdgeId(2), vec![8, 9, 9]));
        // An unwritten output is empty and keeps its buffer.
        assert_eq!(outputs[1], (EdgeId(3), vec![]));
        assert!(outputs[1].1.capacity() >= 8);
    }

    #[test]
    fn shared_actor_is_send_and_clonable() {
        fn assert_send<T: Send>() {}
        assert_send::<SharedActor>();
        let a = share(|_: &mut Firing| 1);
        let b = Arc::clone(&a);
        let mut ctx = Firing::default();
        assert_eq!(a.lock().unwrap().fire(&mut ctx), 1);
        assert_eq!(b.lock().unwrap().fire(&mut ctx), 1);
    }
}
