//! The data path's in-buffer record parser ([`RecordBuf`]) and the
//! credit-ack codec: reassembly across arbitrary splits, the per-channel
//! length bound, truncation, and a seeded never-panic fuzz loop.

use std::io::{self, Read};

use spi_net::wire::{decode_ack, encode_ack, RecordBuf};
use spi_platform::rng::{cases, SplitMix64};

/// A reader that returns at most `chunk(remaining)` bytes per `read`.
struct Chunked<'a, F: FnMut() -> usize> {
    data: &'a [u8],
    chunk: F,
}

impl<F: FnMut() -> usize> Read for Chunked<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.chunk)().min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// `payloads` staged back to back, as a sender's batch is.
fn stage(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// Runs `stream` through a `RecordBuf` the way a receiver does — take
/// every complete record, then read once more — until end of stream or
/// the first error.
fn parse(
    mut rb: RecordBuf,
    stream: &[u8],
    chunk: impl FnMut() -> usize,
) -> (Vec<Vec<u8>>, io::Result<RecordBuf>) {
    let mut r = Chunked {
        data: stream,
        chunk,
    };
    let mut got = Vec::new();
    loop {
        loop {
            match rb.front() {
                Ok(Some(p)) => got.push(p.to_vec()),
                Ok(None) => break,
                Err(e) => return (got, Err(e)),
            }
            rb.pop();
        }
        match rb.fill_from(&mut r) {
            Ok(0) => return (got, Ok(rb)),
            Ok(_) => {}
            Err(e) => return (got, Err(e)),
        }
    }
}

#[test]
fn ack_records_roundtrip_totals() {
    for (b, m) in [(0, 0), (1, 1), (u64::MAX, 7), (1 << 40, u64::MAX - 3)] {
        assert_eq!(decode_ack(&encode_ack(b, m)), (b, m));
    }
}

#[test]
fn record_buf_reassembles_a_batch_split_at_every_granularity() {
    // Includes empty records, and more stream than one buffer holds, so
    // the partial record at the end of a read is moved forward.
    let payloads: Vec<Vec<u8>> = (0..40usize)
        .map(|i| (0..(i * 5) % 23).map(|b| (b ^ i) as u8).collect())
        .collect();
    let stream = stage(&payloads);
    for chunk in [1, 2, 3, 5, 7, 64, 1 << 20] {
        let (got, end) = parse(RecordBuf::new(22, 44), &stream, || chunk);
        assert_eq!(got, payloads, "chunk {chunk}");
        let rb = end.expect("clean end of stream");
        assert_eq!(rb.ready(), (0, 0));
    }
}

#[test]
fn record_buf_counts_what_is_ready_without_consuming_it() {
    let stream = stage(&[vec![1; 5], vec![], vec![2; 9]]);
    let mut rb = RecordBuf::new(16, 64);
    // All three records and the first half of a fourth prefix.
    let mut r: &[u8] = &[&stream[..], &[7, 0]].concat();
    rb.fill_from(&mut r).expect("read");
    assert_eq!(rb.ready(), (14, 3));
    assert_eq!(rb.front().expect("front"), Some(&[1u8; 5][..]));
    rb.pop();
    assert_eq!(rb.ready(), (9, 2));
}

#[test]
fn record_buf_rejects_an_oversized_prefix_without_waiting_for_its_payload() {
    let (got, end) = parse(RecordBuf::new(64, 256), &65u32.to_le_bytes(), || 4);
    assert!(got.is_empty());
    assert_eq!(end.expect_err("corrupt").kind(), io::ErrorKind::InvalidData);
    // The largest legal record still passes.
    let (got, end) = parse(RecordBuf::new(64, 256), &stage(&[vec![9u8; 64]]), || {
        1 << 20
    });
    assert_eq!(got, [vec![9u8; 64]]);
    assert!(end.is_ok());
}

#[test]
fn record_buf_hands_out_nothing_of_a_stream_that_ends_mid_record() {
    let full = stage(&[b"hello world".to_vec()]);
    for cut in 1..full.len() {
        let (got, end) = parse(RecordBuf::new(64, 64), &full[..cut], || 3);
        assert!(got.is_empty(), "cut {cut}");
        let rb = end.expect("no error");
        assert!(matches!(rb.front(), Ok(None)), "cut {cut}");
    }
}

/// Never-panic fuzz of the in-buffer parser: arbitrary bytes arriving at
/// arbitrary split points must come out as exactly the records a
/// straight-line reference parse finds, up to the first corrupt prefix
/// — `Err` or valid records, nothing else. A failure prints its case;
/// `SPI_CHAOS_SEED=<case>` replays it alone.
#[test]
fn fuzz_record_buf_never_panics_and_matches_the_reference_parse() {
    const MAX: usize = 24;
    for case in cases(2000) {
        let mut rng = SplitMix64::seed_from_u64(case ^ 0x5EED_F00D);
        // Mostly well-formed records, so parses run deep, with raw noise
        // (usually a corrupt prefix) spliced in now and then.
        let mut stream = Vec::new();
        for _ in 0..rng.next_u64() % 24 {
            if rng.next_u64().is_multiple_of(8) {
                for _ in 0..rng.next_u64() % 9 {
                    stream.push(rng.next_u64() as u8);
                }
            } else {
                let len = (rng.next_u64() % (MAX as u64 + 1)) as usize;
                stream.extend_from_slice(&(len as u32).to_le_bytes());
                stream.extend((0..len).map(|_| rng.next_u64() as u8));
            }
        }
        // Reference: walk the whole stream once.
        let mut want = Vec::new();
        let mut corrupt = false;
        let mut at = 0usize;
        while stream.len() - at >= 4 {
            let len = u32::from_le_bytes(stream[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX {
                corrupt = true;
                break;
            }
            if stream.len() - at < 4 + len {
                break;
            }
            want.push(stream[at + 4..at + 4 + len].to_vec());
            at += 4 + len;
        }

        let (got, end) = parse(RecordBuf::new(MAX, 2 * MAX), &stream, || {
            1 + rng.next_u64() as usize % 11
        });
        let replay = format!("replay: SPI_CHAOS_SEED={case}");
        assert_eq!(got, want, "case {case}: records ({replay})");
        match end {
            Ok(_) => assert!(!corrupt, "case {case}: corruption missed ({replay})"),
            Err(e) => assert!(
                corrupt && e.kind() == io::ErrorKind::InvalidData,
                "case {case}: unexpected {e} ({replay})"
            ),
        }
    }
}
