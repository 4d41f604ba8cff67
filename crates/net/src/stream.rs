//! The byte-stream seam under [`crate::NetSender`] /
//! [`crate::NetReceiver`].
//!
//! The transport logic — framing, staged batch writes, credit acks,
//! flush policy — is generic over any full-duplex byte stream with the
//! small surface a `UnixStream` offers: cloneable handles (separate
//! reader/writer views of one connection), half/full shutdown, a read
//! timeout, and a non-blocking mode. The endpoints drive the stream from
//! the threads that use them — there is no background reader — so the
//! read timeout is what bounds a blocking wait, and the non-blocking mode
//! is what a `try_*` poll reads with and what every write is made in (an
//! endpoint never waits for socket space: what the stream refuses stays
//! staged). Real deployments use `UnixStream`; the `spi-sim`
//! deterministic simulator substitutes an in-memory pair whose reads and
//! writes are schedule points with seeded partial-I/O, exercising the
//! exact short-read / short-write loops in [`crate::wire`] without a
//! kernel in the loop.

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A connected, cloneable, shutdown-capable byte stream.
///
/// `try_clone` must return a handle onto the *same* connection (reads
/// and writes interleave with the original); `shutdown` must cause
/// blocked and future reads on every clone to observe EOF per
/// [`Shutdown`] semantics, like a socket. The read timeout and the
/// non-blocking mode belong to the connection end, not the handle: like
/// a socket's open file description, every clone shares them. A read or
/// write that gives up reports `WouldBlock` or `TimedOut`.
pub trait NetStream: Read + Write + Send + Sized + 'static {
    /// A second handle onto the same connection.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying handle duplication.
    fn try_clone(&self) -> std::io::Result<Self>;

    /// Shuts down the read, write, or both halves of the connection.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying shutdown.
    fn shutdown(&self, how: Shutdown) -> std::io::Result<()>;

    /// Bounds how long a blocking read waits; `None` waits forever.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying handle; a zero duration is
    /// invalid, as for a socket.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;

    /// Switches the connection end in or out of non-blocking mode.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying handle.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
}

impl NetStream for UnixStream {
    fn try_clone(&self) -> std::io::Result<Self> {
        UnixStream::try_clone(self)
    }

    fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        UnixStream::shutdown(self, how)
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
}
