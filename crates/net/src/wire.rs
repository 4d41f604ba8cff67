//! Length-prefixed message framing over byte streams.
//!
//! Data messages (which already carry the supervision layer's
//! `[seq][crc32]` frame when the run is supervised) and the control-plane
//! handshake travel as `[len: u32 LE][len bytes]` records; credit
//! acknowledgements, the only traffic in the other direction of a data
//! socket, are fixed-size ([`ACK_BYTES`]). The codec is deliberately
//! resilient to the two stream pathologies TCP/Unix sockets exhibit
//! under load: **short reads** (a record arriving split across an
//! arbitrary number of `read` returns, including mid-prefix) and
//! **short writes** (the kernel accepting only part of a buffer per
//! `write`).
//!
//! There are two readers. The **data path** never allocates per record:
//! [`RecordBuf`] reads ahead into one buffer sized from the channel's
//! eq. (2) window and parses records in place, rejecting any length
//! prefix beyond the channel's own message bound as corruption;
//! [`write_staged`] is its counterpart, putting a whole staged batch on
//! the stream with one `write` when the kernel takes it and reporting
//! how far it got when the stream is full. The **control
//! plane** ([`read_record`] / [`write_record`]) returns owned buffers
//! and bounds a record only by [`MAX_RECORD_BYTES`].
//!
//! A second concern the codec owns is **structured field encoding** for
//! the control plane: the handshake exchanges manifests and result
//! blobs as flat sequences of integers, byte strings and lists, encoded
//! with the `put_*`/[`WireReader`] helpers here rather than trusting a
//! general serializer with cross-process wire data.

use std::io::{self, Read, Write};

/// Upper bound on a single wire record. Anything larger is treated as
/// stream corruption rather than an allocation request: a legal SPI
/// message is bounded by its channel's eq. (1) packed size, and control
/// blobs (traces, artifacts) stay far below this.
pub const MAX_RECORD_BYTES: usize = 256 << 20;

/// Writes one `[len][bytes]` record and flushes.
///
/// # Errors
///
/// Any I/O error from the underlying stream; records larger than
/// [`MAX_RECORD_BYTES`] are rejected with `InvalidInput`.
pub fn write_record(w: &mut dyn Write, bytes: &[u8]) -> io::Result<()> {
    if bytes.len() > MAX_RECORD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("record of {} bytes exceeds wire bound", bytes.len()),
        ));
    }
    let len = bytes.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Writes as much of a staging buffer — back-to-back
/// `[len: u32 LE][payload]` records, one or more batches — as the stream
/// takes without refusing, with as few `write` calls as it allows (one,
/// when it accepts the whole buffer). Returns the byte count.
///
/// On a **short write** the remainder is retried, so a batch torn across
/// arbitrary kernel acceptance boundaries — including mid-prefix — still
/// lands on the stream intact and in order; `Interrupted` (EINTR) is
/// retried too. `WouldBlock` ends the call early: the endpoints write in
/// non-blocking mode, the stream is full, and the caller keeps the rest
/// staged for later.
///
/// # Errors
///
/// Any other I/O error from the stream; a `write` that accepts zero
/// bytes surfaces as `WriteZero` (a wedged peer, not progress).
pub fn write_staged(w: &mut dyn Write, staged: &[u8]) -> io::Result<usize> {
    let mut off = 0usize;
    while off < staged.len() {
        match w.write(&staged[off..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "staged write accepted zero bytes",
                ));
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_would_block(&e) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(off)
}

/// Whether an I/O error means "nothing transferred yet, try later" — a
/// read or write timeout, or a non-blocking call that would block —
/// rather than a broken stream. (`SO_RCVTIMEO` expiry reports
/// `WouldBlock` on Linux and `TimedOut` elsewhere.)
pub fn is_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Wire size of a credit acknowledgement:
/// `[consumed_bytes: u64][consumed_msgs: u64]`, both LE and both
/// **totals since the connection came up**. Fixed-size and unframed —
/// the ack direction carries nothing else — and idempotent: a later ack
/// supersedes every earlier one, so a receiver may skip one when the
/// stream would block without any credit being lost.
pub const ACK_BYTES: usize = 16;

/// Encodes one credit acknowledgement.
pub fn encode_ack(consumed_bytes: u64, consumed_msgs: u64) -> [u8; ACK_BYTES] {
    let mut rec = [0u8; ACK_BYTES];
    rec[..8].copy_from_slice(&consumed_bytes.to_le_bytes());
    rec[8..].copy_from_slice(&consumed_msgs.to_le_bytes());
    rec
}

/// Decodes one credit acknowledgement into `(consumed_bytes,
/// consumed_msgs)`.
pub fn decode_ack(rec: &[u8; ACK_BYTES]) -> (u64, u64) {
    let (b, m) = rec.split_at(8);
    let word = |half: &[u8]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(half);
        u64::from_le_bytes(w)
    };
    (word(b), word(m))
}

/// Most bytes a receiver reads ahead beyond one record. One `read` moves
/// at most what the kernel's socket buffer holds (a few hundred KiB), so
/// a larger credit window gains nothing from a larger buffer: the rest of
/// it waits in the socket and in the sender's staging buffer.
pub const READ_AHEAD_CAP: usize = 1 << 20;

/// Makes all of a window buffer's capacity usable, zeroing it the first
/// time. The endpoints allocate a window's worth of staging and
/// read-ahead when they are built and call this when they first use it,
/// so building an endpoint touches none of that memory — what set-up
/// costs does not depend on whether the allocator hands it pages it has
/// to fault in — and an edge that never carries traffic never pays for
/// its window. Never reallocates.
pub(crate) fn commit(buf: &mut Vec<u8>) {
    if buf.len() < buf.capacity() {
        buf.resize(buf.capacity(), 0);
    }
}

/// The receiving endpoint's read-ahead buffer and in-buffer record
/// parser: one `read` pulls in as many `[len: u32 LE][payload]` records
/// as the stream has — a whole batch — and the consumer is handed each
/// payload as a borrowed slice, so a received record costs its copy out
/// of the kernel and nothing else (no per-record allocation, no queue).
///
/// The buffer is sized once from the channel's eq. (2) window and never
/// grows; its bytes are zeroed by the first read, not when it is built.
/// A length prefix beyond the channel's per-message bound is stream
/// corruption and is rejected as soon as it reaches the front —
/// before a single payload byte is waited for — instead of being treated
/// as an allocation request. Records split across reads anywhere,
/// including inside the prefix, are reassembled in place.
#[derive(Debug)]
pub struct RecordBuf {
    buf: Vec<u8>,
    /// Start of the front record's length prefix, and end of the bytes
    /// read so far.
    head: usize,
    tail: usize,
    max_record: usize,
}

impl RecordBuf {
    /// A buffer for records of at most `max_record_bytes`, roomy enough
    /// to hold a full `window_bytes` credit window of them — up to
    /// [`READ_AHEAD_CAP`], and never smaller than one maximum-size
    /// record.
    pub fn new(max_record_bytes: usize, window_bytes: usize) -> RecordBuf {
        let max_record = max_record_bytes.clamp(1, MAX_RECORD_BYTES);
        let window = window_bytes.clamp(max_record, max_record.max(READ_AHEAD_CAP));
        let prefixes = 4 * window.div_ceil(max_record);
        RecordBuf {
            buf: Vec::with_capacity(window + prefixes),
            head: 0,
            tail: 0,
            max_record,
        }
    }

    /// The payload range of the record whose prefix starts at `at`, if
    /// the buffer holds all of it.
    fn record_at(&self, at: usize) -> io::Result<Option<std::ops::Range<usize>>> {
        if self.tail - at < 4 {
            return Ok(None);
        }
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&self.buf[at..at + 4]);
        let len = u32::from_le_bytes(prefix) as usize;
        if len > self.max_record {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record length {len} exceeds the channel's {} byte message bound",
                    self.max_record
                ),
            ));
        }
        Ok((self.tail - at >= 4 + len).then_some(at + 4..at + 4 + len))
    }

    /// The front record's payload, if a complete record is buffered.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the front length prefix exceeds the
    /// per-message bound: the stream has lost framing.
    pub fn front(&self) -> io::Result<Option<&[u8]>> {
        Ok(self.record_at(self.head)?.map(|r| &self.buf[r]))
    }

    /// Drops the front record, if one is complete.
    pub fn pop(&mut self) {
        if let Ok(Some(r)) = self.record_at(self.head) {
            self.head = r.end;
            if self.head == self.tail {
                (self.head, self.tail) = (0, 0);
            }
        }
    }

    /// `(payload bytes, records)` buffered complete.
    pub fn ready(&self) -> (usize, usize) {
        let (mut bytes, mut msgs, mut at) = (0, 0, self.head);
        while let Ok(Some(r)) = self.record_at(at) {
            bytes += r.len();
            msgs += 1;
            at = r.end;
        }
        (bytes, msgs)
    }

    /// One `read` from `r` into the free space behind the buffered
    /// bytes. Call when [`RecordBuf::front`] has nothing: the partial
    /// front record is moved to the start of the buffer if that is what
    /// it takes to fit the rest of it. Returns the byte count; `Ok(0)`
    /// is end-of-stream.
    ///
    /// # Errors
    ///
    /// Any error of the read itself (including `WouldBlock`/`TimedOut`
    /// from a stream with a timeout or in non-blocking mode).
    pub fn fill_from(&mut self, r: &mut dyn Read) -> io::Result<usize> {
        commit(&mut self.buf);
        if self.buf.len() - self.tail < 4 + self.max_record {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
        }
        if self.tail == self.buf.len() {
            return Err(io::Error::other(
                "read-ahead buffer is full of unconsumed records",
            ));
        }
        let n = r.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

/// Reads one `[len][bytes]` record, reassembling across arbitrarily
/// split reads. Returns `None` on a clean end-of-stream **at a record
/// boundary** (the peer closed between records).
///
/// # Errors
///
/// `UnexpectedEof` when the stream ends mid-prefix or mid-payload (a
/// truncated record is a fault, not a clean shutdown); `InvalidData`
/// for a length prefix beyond [`MAX_RECORD_BYTES`]; any other I/O error
/// from the stream.
pub fn read_record(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} byte(s) into a record length prefix"),
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_RECORD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("record length {len} exceeds wire bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {filled}/{len} byte(s) into a record payload"),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Structured field encoding for control-plane blobs
// ---------------------------------------------------------------------

/// Appends a `u32` (LE) to a control blob.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (LE) to a control blob.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string to a control blob.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

/// Appends a length-prefixed UTF-8 string to a control blob.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// Cursor over a control blob written with the `put_*` helpers. Every
/// read is bounds-checked: a truncated or reordered blob surfaces as a
/// decode error, never a panic or a misread.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A malformed control blob (truncated field, oversized length, invalid
/// UTF-8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDecodeError {
    /// Byte offset the decode failed at.
    pub at: usize,
    /// What was being decoded.
    pub what: String,
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode failed at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for WireDecodeError {}

impl<'a> WireReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireDecodeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(WireDecodeError {
                at: self.pos,
                what: format!("truncated {what} ({n} byte(s) wanted)"),
            }),
        }
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WireDecodeError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] on truncation.
    pub fn u32(&mut self, what: &str) -> Result<u32, WireDecodeError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] on truncation.
    pub fn u64(&mut self, what: &str) -> Result<u64, WireDecodeError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a `u32` element count for a sequence of `item_bytes`-byte
    /// elements, refusing a count the remaining bytes cannot hold — so a
    /// caller may reserve that many elements up front.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] on truncation or an oversized count.
    pub(crate) fn count(
        &mut self,
        what: &str,
        item_bytes: usize,
    ) -> Result<usize, WireDecodeError> {
        let n = self.u32(what)? as usize;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(item_bytes) > left {
            return Err(WireDecodeError {
                at: self.pos,
                what: format!("{what} {n} does not fit the {left} byte(s) left"),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] on truncation or an oversized length.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], WireDecodeError> {
        let len = self.u64(what)? as usize;
        if len > MAX_RECORD_BYTES {
            return Err(WireDecodeError {
                at: self.pos,
                what: format!("{what} length {len} exceeds wire bound"),
            });
        }
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] on truncation or invalid UTF-8.
    pub fn str(&mut self, what: &str) -> Result<&'a str, WireDecodeError> {
        let at = self.pos;
        let b = self.bytes(what)?;
        std::str::from_utf8(b).map_err(|_| WireDecodeError {
            at,
            what: format!("{what} is not valid UTF-8"),
        })
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that returns at most `chunk` bytes per `read` call —
    /// the short-read pathology, deterministically.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A writer that accepts at most `chunk` bytes per `write` call —
    /// the short-write pathology (`write_all` must loop over it).
    struct ChunkedWriter {
        out: Vec<u8>,
        chunk: usize,
    }

    impl Write for ChunkedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer that accepts at most `chunk` bytes per call —
    /// potentially mid-prefix — and injects `EINTR` (retried inside) or
    /// `EWOULDBLOCK` (the call ends early) on a fixed cadence. The worst
    /// stream a batched writer can face, made deterministic.
    struct TornWriter {
        out: Vec<u8>,
        chunk: usize,
        calls: usize,
        /// Every `interrupt_every`-th call fails with EINTR (odd
        /// occurrences) or EWOULDBLOCK (even) instead of writing.
        interrupt_every: usize,
    }

    impl Write for TornWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every != 0 && self.calls.is_multiple_of(self.interrupt_every) {
                let kind = if (self.calls / self.interrupt_every) % 2 == 1 {
                    io::ErrorKind::Interrupted
                } else {
                    io::ErrorKind::WouldBlock
                };
                return Err(io::Error::new(kind, "injected"));
            }
            let n = self.chunk.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `payloads` staged back to back, as a sender's batch is.
    fn stage(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    #[test]
    fn staged_batch_survives_torn_writes_and_injected_interrupts() {
        let payloads: Vec<Vec<u8>> = (0..7)
            .map(|i| (0..=255u8).cycle().take(37 * (i + 1)).collect())
            .collect();
        let batch = stage(&payloads.iter().map(Vec::as_slice).collect::<Vec<_>>());
        // Sweep acceptance granularities (1 byte tears every prefix)
        // and interrupt cadences (0 = never).
        for chunk in [1, 2, 3, 5, 64, 1 << 20] {
            for interrupt_every in [0, 2, 3] {
                let mut w = TornWriter {
                    out: Vec::new(),
                    chunk,
                    calls: 0,
                    interrupt_every,
                };
                // A refused write ends the call; the sender resumes from
                // where it got to.
                let mut at = 0;
                while at < batch.len() {
                    at += write_staged(&mut w, &batch[at..]).unwrap();
                }
                // The stream must parse back into the exact records, in
                // order, ending at a clean boundary.
                let mut r: &[u8] = &w.out;
                for (i, p) in payloads.iter().enumerate() {
                    let got = read_record(&mut r).unwrap().unwrap();
                    assert_eq!(
                        &got, p,
                        "record {i}, chunk {chunk}, interrupt {interrupt_every}"
                    );
                }
                assert_eq!(read_record(&mut r).unwrap(), None);
            }
        }
    }

    #[test]
    fn staged_write_reports_write_zero_on_a_wedged_stream() {
        struct Wedged;
        impl Write for Wedged {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_staged(&mut Wedged, &stage(&[b"data"])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn single_staged_record_matches_write_record_bytes() {
        let mut classic = Vec::new();
        write_record(&mut classic, b"identical").unwrap();
        let mut staged = Vec::new();
        let n = write_staged(&mut staged, &stage(&[b"identical"])).unwrap();
        assert_eq!((n, &classic), (classic.len(), &staged));
    }

    #[test]
    fn roundtrip_survives_single_byte_reads_and_writes() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut w = ChunkedWriter {
            out: Vec::new(),
            chunk: 1,
        };
        write_record(&mut w, &payload).unwrap();
        assert_eq!(w.out.len(), 4 + payload.len());

        for chunk in [1, 2, 3, 5, 7, 1000] {
            let mut r = Chunked {
                data: &w.out,
                pos: 0,
                chunk,
            };
            let got = read_record(&mut r).unwrap().unwrap();
            assert_eq!(got, payload, "chunk size {chunk}");
            assert_eq!(read_record(&mut r).unwrap(), None, "clean EOF after");
        }
    }

    #[test]
    fn eof_at_boundary_is_none_mid_record_is_error() {
        // Clean EOF before any byte.
        let mut empty: &[u8] = &[];
        assert_eq!(read_record(&mut empty).unwrap(), None);

        // Every truncated prefix of a full record must error, not hang
        // or return a partial message.
        let mut full = Vec::new();
        write_record(&mut full, b"hello world").unwrap();
        for cut in 1..full.len() {
            let mut r: &[u8] = &full[..cut];
            let err = read_record(&mut r).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "cut at {cut} byte(s)"
            );
        }
    }

    #[test]
    fn truncated_prefix_through_chunked_reader_errors() {
        let mut full = Vec::new();
        write_record(&mut full, &[7u8; 64]).unwrap();
        // 2 bytes of the 4-byte prefix, dribbled one byte at a time.
        let mut r = Chunked {
            data: &full[..2],
            pos: 0,
            chunk: 1,
        };
        let err = read_record(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("length prefix"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r: &[u8] = &bad;
        let err = read_record(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn structured_fields_roundtrip() {
        let mut blob = Vec::new();
        put_u32(&mut blob, 42);
        put_u64(&mut blob, u64::MAX - 1);
        put_str(&mut blob, "filterbank");
        put_bytes(&mut blob, &[1, 2, 3]);

        let mut r = WireReader::new(&blob);
        assert_eq!(r.u32("a").unwrap(), 42);
        assert_eq!(r.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(r.str("d").unwrap(), "filterbank");
        assert_eq!(r.bytes("e").unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn structured_decode_reports_truncation() {
        let mut blob = Vec::new();
        put_str(&mut blob, "abc");
        let mut r = WireReader::new(&blob[..blob.len() - 1]);
        let err = r.str("name").unwrap_err();
        assert!(err.to_string().contains("name"));
    }
}
