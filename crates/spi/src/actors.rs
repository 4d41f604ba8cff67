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

use std::sync::{Arc, Mutex};

use spi_dataflow::EdgeId;

/// Per-firing context handed to an actor implementation.
///
/// Inputs are lent, not copied: each is a range of the edge's queue on
/// the firing PE, valid for the firing. A firing has a handful of
/// ports, so both lists are plain vectors searched by edge.
#[derive(Debug, Default)]
pub struct Firing<'a> {
    /// Graph iteration this firing belongs to.
    pub iter: u64,
    /// Index of this firing within the actor's repetitions (0-based).
    pub k: u64,
    inputs: Vec<(EdgeId, &'a [u8])>,
    outputs: Vec<(EdgeId, Vec<u8>)>,
}

impl<'a> Firing<'a> {
    /// Creates a context with the given consumed inputs.
    pub fn new(iter: u64, k: u64, inputs: Vec<(EdgeId, &'a [u8])>) -> Self {
        Firing {
            iter,
            k,
            inputs,
            outputs: Vec::new(),
        }
    }

    /// The bytes consumed from `edge` this firing.
    ///
    /// For a static edge this is exactly `consume_rate × token_bytes`;
    /// for a dynamic (VTS) edge it is one packed token of variable size.
    pub fn input(&self, edge: EdgeId) -> &'a [u8] {
        let found = self.inputs.iter().find(|(e, _)| *e == edge);
        found.map_or(&[], |&(_, bytes)| bytes)
    }

    /// Sets the bytes produced on `edge` this firing.
    ///
    /// Static edges must produce exactly `produce_rate × token_bytes`;
    /// dynamic edges at most their VTS bound. Violations surface as
    /// [`crate::SpiError::StaticSizeMismatch`] /
    /// [`crate::SpiError::VtsBoundExceeded`] when the system runs.
    pub fn set_output(&mut self, edge: EdgeId, bytes: Vec<u8>) {
        match self.outputs.iter_mut().find(|(e, _)| *e == edge) {
            Some((_, staged)) => *staged = bytes,
            None => self.outputs.push((edge, bytes)),
        }
    }

    /// The output staged for `edge`, if any.
    pub fn output(&self, edge: EdgeId) -> Option<&[u8]> {
        let found = self.outputs.iter().find(|(e, _)| *e == edge);
        found.map(|(_, bytes)| bytes.as_slice())
    }

    pub(crate) fn into_outputs(self) -> Vec<(EdgeId, Vec<u8>)> {
        self.outputs
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
        let mut ctx = Firing::new(5, 1, vec![(EdgeId(0), &[1, 2, 3][..])]);
        assert_eq!(ctx.iter, 5);
        assert_eq!(ctx.k, 1);
        assert_eq!(ctx.input(EdgeId(0)), &[1, 2, 3]);
        assert_eq!(ctx.input(EdgeId(9)), &[] as &[u8]);
        ctx.set_output(EdgeId(1), vec![8]);
        ctx.set_output(EdgeId(1), vec![9, 9]);
        assert_eq!(ctx.output(EdgeId(1)), Some(&[9u8, 9][..]));
        assert_eq!(ctx.output(EdgeId(2)), None);
        assert_eq!(ctx.into_outputs(), vec![(EdgeId(1), vec![9, 9])]);
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
