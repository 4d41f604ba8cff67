//! Byte-level helpers shared by the application actor implementations.

/// Serializes a slice of `f64` samples to little-endian bytes.
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    put_f64s(&mut out, values.iter().copied());
    out
}

/// Appends `values` to `out` as little-endian bytes.
pub fn put_f64s(out: &mut Vec<u8>, values: impl IntoIterator<Item = f64>) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Deserializes little-endian bytes back to `f64` samples.
///
/// Trailing bytes that do not complete a sample are ignored (they cannot
/// occur on well-formed SPI payloads, whose sizes are whole tokens).
pub fn f64s_from_bytes(bytes: &[u8]) -> Vec<f64> {
    f64s(bytes).collect()
}

/// The samples of [`f64s_from_bytes`], read one at a time.
pub fn f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    let (samples, _) = bytes.as_chunks::<8>();
    samples.iter().map(|&b| f64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let xs = vec![0.0, -1.5, 3.25e10, f64::MIN_POSITIVE];
        assert_eq!(f64s_from_bytes(&f64s_to_bytes(&xs)), xs);
    }

    #[test]
    fn empty_and_partial() {
        assert!(f64s_from_bytes(&[]).is_empty());
        assert!(f64s_from_bytes(&[1, 2, 3]).is_empty());
    }
}
