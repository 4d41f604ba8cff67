//! Byte-level helpers shared by the application actor implementations.
//!
//! Both directions are one bulk pass over whole 8-byte samples: the
//! encoder grows its output once and fills the new span, the decoder
//! is an exactly sized iterator over the bytes, which an actor reads in
//! place or extends a kept buffer from.

/// Appends `values` to `out` as little-endian bytes, in one resized
/// span.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    let at = out.len();
    out.resize(at + 8 * values.len(), 0);
    let (span, _) = out[at..].as_chunks_mut::<8>();
    for (bytes, v) in span.iter_mut().zip(values) {
        *bytes = v.to_le_bytes();
    }
}

/// Reads little-endian bytes into `out`, which is cleared first: a kept
/// buffer with room for the samples is not reallocated.
pub fn f64s_into(bytes: &[u8], out: &mut Vec<f64>) {
    out.clear();
    out.extend(f64s(bytes));
}

/// Reads little-endian bytes back as `f64` samples, one at a time.
///
/// Trailing bytes that do not complete a sample are ignored (they cannot
/// occur on well-formed SPI payloads, whose sizes are whole tokens).
pub fn f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    let (samples, _) = bytes.as_chunks::<8>();
    samples.iter().map(|&b| f64::from_le_bytes(b))
}

/// Appends a model order and its `f64` values (autocorrelation lags or
/// predictor coefficients) to `out` as one payload: the order as 8
/// little-endian bytes, then the values.
pub(crate) fn put_order_payload(out: &mut Vec<u8>, order: usize, values: &[f64]) {
    out.extend((order as u64).to_le_bytes());
    put_f64s(out, values);
}

/// Reads a [`put_order_payload`]: its values into `values`, which is
/// cleared first, and its order as the result.
pub(crate) fn read_order_payload(payload: &[u8], values: &mut Vec<f64>) -> usize {
    // Every such payload is written by `put_order_payload`, order first.
    #[allow(clippy::expect_used)]
    let (order, raw) = payload.split_first_chunk().expect("order header");
    f64s_into(raw, values);
    u64::from_le_bytes(*order) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let xs = vec![0.0, -1.5, 3.25e10, f64::MIN_POSITIVE];
        let mut bytes = Vec::new();
        put_f64s(&mut bytes, &xs);
        assert_eq!(f64s(&bytes).collect::<Vec<_>>(), xs);
    }

    #[test]
    fn empty_and_partial() {
        assert_eq!(f64s(&[]).len(), 0);
        assert_eq!(f64s(&[1, 2, 3]).len(), 0);
    }

    #[test]
    fn bulk_codecs_roundtrip_bit_for_bit_after_a_prefix() {
        let xs = [-0.0, f64::INFINITY, f64::NAN, 1.0 / 3.0, -2.5e-310, 7.0];
        // Appends after what the buffer holds, like a payload header.
        let mut bytes = vec![0xAB; 3];
        put_f64s(&mut bytes, &xs);
        assert_eq!(bytes.len(), 3 + 8 * xs.len());
        assert_eq!(bytes[..3], [0xAB; 3]);
        for (chunk, x) in bytes[3..].chunks(8).zip(&xs) {
            assert_eq!(chunk, x.to_le_bytes());
        }
        // A trailing partial sample is dropped; a kept buffer is
        // cleared first and keeps its allocation.
        let mut back = Vec::with_capacity(16);
        back.push(9.0);
        let kept = back.as_ptr();
        let mut payload = bytes[3..].to_vec();
        payload.extend([1, 2, 3, 4, 5]);
        f64s_into(&payload, &mut back);
        assert_eq!(back.as_ptr(), kept);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&xs));
        assert_eq!(bits(&f64s(&payload).collect::<Vec<_>>()), bits(&xs));
        f64s_into(&[1, 2, 3], &mut back);
        assert!(back.is_empty());
    }

    #[test]
    fn an_order_payload_reads_back_its_order_and_values() {
        let mut back = vec![9.0];
        let mut payload = Vec::new();
        put_order_payload(&mut payload, 3, &[0.5, -1.25, 2.0]);
        assert_eq!(payload.len(), 8 + 3 * 8);
        assert_eq!(read_order_payload(&payload, &mut back), 3);
        assert_eq!(back, [0.5, -1.25, 2.0]);
        payload.clear();
        put_order_payload(&mut payload, 7, &[]);
        assert_eq!(read_order_payload(&payload, &mut back), 7);
        assert!(back.is_empty());
    }
}
