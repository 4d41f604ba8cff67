//! [`SimStream`]: the in-memory, schedule-aware socket replacing
//! `UnixStream` under simulation.
//!
//! A pair models one connected full-duplex socket as two directional
//! byte queues guarded by [`spi_platform::shim`] primitives, so every
//! read and write is a schedule point the seeded scheduler interleaves
//! like any other synchronization. On top of that, both directions
//! carry their own seeded PRNG and deliberately fragment I/O:
//!
//! * reads return a random non-empty **prefix** of what is buffered,
//! * writes accept a random non-empty prefix of at most
//!   [`MAX_WRITE_CHUNK`] bytes.
//!
//! The chunk cap is co-prime with the 4-byte record-length prefix, so
//! frames routinely split *inside* the length word — the exact
//! short-read/short-write loops in `spi_net::wire` (the staged batch
//! writer's partial-write resume, the read-ahead buffer's reassembly)
//! get exercised on virtually every run, something a kernel socketpair
//! almost never does.
//!
//! Shutdown follows socket semantics: closing the write half EOFs the
//! peer's reads once it drains; writes into a shut-down direction fail
//! with `BrokenPipe`. So do the read timeout — a deadline on the
//! *virtual* clock under a session — and the non-blocking mode, which
//! belong to the connection end and are shared by its clones, exactly
//! like a socket's open file description. The queues are unbounded, so
//! a blocking write never waits; a non-blocking one — every write the
//! endpoints make — is refused on a seeded coin toss, as a full socket
//! would refuse it, so the staged-remainder and skipped-ack paths run on
//! nearly every record.
//!
//! [`sim_socket_pair`] makes the other kind of pair: one that moves
//! bytes the way a kernel socket with room does — a write is taken
//! whole, a read takes everything buffered — for scenarios about *when*
//! batches travel, which fragmentation would blur (a receiver that gets
//! its batch in pieces reaches a wait point, and flushes what it owes,
//! between the pieces).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spi_net::NetStream;
use spi_platform::rng::SplitMix64;
use spi_platform::shim::{self, Condvar, Mutex};

/// Largest single `write` the stream accepts. Chosen co-prime with the
/// wire format's 4-byte length prefix so records fragment mid-header.
pub const MAX_WRITE_CHUNK: usize = 7;

struct Half {
    buf: VecDeque<u8>,
    /// Set by shutdown of either end; readers drain then see EOF,
    /// writers fail immediately.
    eof: bool,
    /// Draws the partial-I/O boundaries and write refusals; `None`
    /// moves every read and write whole.
    rng: Option<SplitMix64>,
}

impl Half {
    /// How many of `most` bytes the next read or write moves.
    fn chunk(&mut self, most: usize) -> usize {
        match &mut self.rng {
            Some(rng) => rng.gen_range(1..=most),
            None => most,
        }
    }
}

struct Dir {
    st: Mutex<Half>,
    changed: Condvar,
}

impl Dir {
    fn new(rng: Option<SplitMix64>, label: &'static str) -> Arc<Dir> {
        Arc::new(Dir {
            st: Mutex::labeled(
                Half {
                    buf: VecDeque::new(),
                    eof: false,
                    rng,
                },
                label,
            ),
            changed: Condvar::labeled(label),
        })
    }

    fn close(&self) {
        self.st.lock().eof = true;
        self.changed.notify_all();
    }
}

/// Read timeout and blocking mode of one connection end. Plain atomics:
/// the endpoints change them only under their own locks, and under a
/// session one thread runs at a time anyway.
struct Mode {
    /// Nanoseconds; `u64::MAX` waits forever.
    read_timeout: AtomicU64,
    nonblocking: AtomicBool,
}

impl Mode {
    fn new() -> Arc<Mode> {
        Arc::new(Mode {
            read_timeout: AtomicU64::new(u64::MAX),
            nonblocking: AtomicBool::new(false),
        })
    }
}

/// One endpoint of an in-memory simulated socket pair. Implements
/// [`NetStream`], so `NetSender::<SimStream>::from_stream_with` /
/// `NetReceiver::<SimStream>::from_stream_with` run the full framed
/// credit protocol over it. Construct pairs with [`sim_stream_pair`].
pub struct SimStream {
    rd: Arc<Dir>,
    wr: Arc<Dir>,
    mode: Arc<Mode>,
}

/// Creates a connected pair of [`SimStream`] endpoints whose partial
/// I/O boundaries are derived from `seed`.
///
/// Outside a simulation session the pair still works (the shim
/// primitives fall back to `std::sync`), making it usable from plain
/// unit tests too.
pub fn sim_stream_pair(seed: u64) -> (SimStream, SimStream) {
    let mut s = SplitMix64::seed_from_u64(seed ^ 0xA076_1D64_78BD_642F);
    let mut half = || Some(SplitMix64::seed_from_u64(s.next_u64()));
    pair([half(), half()])
}

/// Creates a connected pair of [`SimStream`] endpoints that never split
/// or refuse I/O: what is written arrives whole, and one read takes all
/// of it, as over a kernel socket that has room.
pub fn sim_socket_pair() -> (SimStream, SimStream) {
    pair([None, None])
}

fn pair([a2b, b2a]: [Option<SplitMix64>; 2]) -> (SimStream, SimStream) {
    let a2b = Dir::new(a2b, "sim_stream_a2b");
    let b2a = Dir::new(b2a, "sim_stream_b2a");
    (
        SimStream {
            rd: Arc::clone(&b2a),
            wr: Arc::clone(&a2b),
            mode: Mode::new(),
        },
        SimStream {
            rd: a2b,
            wr: b2a,
            mode: Mode::new(),
        },
    )
}

impl Read for SimStream {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let timeout = match self.mode.read_timeout.load(Ordering::SeqCst) {
            u64::MAX => None,
            nanos => Some(Duration::from_nanos(nanos)),
        };
        let deadline = timeout.map(|d| shim::now() + d);
        let mut h = self.rd.st.lock();
        loop {
            if !h.buf.is_empty() {
                let avail = h.buf.len().min(out.len());
                let n = h.chunk(avail);
                for slot in out.iter_mut().take(n) {
                    *slot = h.buf.pop_front().expect("sized by avail");
                }
                return Ok(n);
            }
            if h.eof {
                return Ok(0);
            }
            if self.mode.nonblocking.load(Ordering::SeqCst) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            h = match deadline {
                None => self.rd.changed.wait(h),
                Some(at) => {
                    let left = at.saturating_duration_since(shim::now());
                    if left.is_zero() {
                        return Err(io::ErrorKind::WouldBlock.into());
                    }
                    self.rd.changed.wait_timeout(h, left).0
                }
            };
        }
    }
}

impl Write for SimStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut h = self.wr.st.lock();
        if h.eof {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "simulated peer closed",
            ));
        }
        // A non-blocking write may be refused, as a full socket would
        // refuse it.
        if let (true, Some(rng)) = (self.mode.nonblocking.load(Ordering::SeqCst), &mut h.rng) {
            if rng.next_u64().is_multiple_of(2) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
        }
        let cap = h
            .rng
            .as_ref()
            .map_or(data.len(), |_| data.len().min(MAX_WRITE_CHUNK));
        let n = h.chunk(cap);
        h.buf.extend(&data[..n]);
        drop(h);
        self.wr.changed.notify_all();
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl NetStream for SimStream {
    fn try_clone(&self) -> io::Result<Self> {
        Ok(SimStream {
            rd: Arc::clone(&self.rd),
            wr: Arc::clone(&self.wr),
            mode: Arc::clone(&self.mode),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        let nanos = match dur {
            None => u64::MAX,
            Some(d) if d.is_zero() => return Err(io::ErrorKind::InvalidInput.into()),
            Some(d) => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX - 1),
        };
        self.mode.read_timeout.store(nanos, Ordering::SeqCst);
        Ok(())
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.mode.nonblocking.store(nonblocking, Ordering::SeqCst);
        Ok(())
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        if matches!(how, Shutdown::Read | Shutdown::Both) {
            self.rd.close();
        }
        if matches!(how, Shutdown::Write | Shutdown::Both) {
            self.wr.close();
        }
        Ok(())
    }
}
