//! SPI message format (paper §5.1).
//!
//! SPI exploits compile-time knowledge to shrink headers to the minimum:
//!
//! * **SPI_static** — "the message header consists of the ID of the
//!   interprocessor edge only": 2 bytes. The payload length is a
//!   compile-time constant of the edge (rate × token size), so it is not
//!   transmitted.
//! * **SPI_dynamic** — the header "also contains the message size":
//!   2 bytes edge id + 4 bytes payload length.
//!
//! "The message datatype for all communication edges is known at
//! compile-time, and hence need not be included in the message header" —
//! contrast with the 24-byte envelope of the generic-MPI baseline
//! (`spi_bench::mpi`).

use spi_dataflow::EdgeId;

use crate::error::{Result, SpiError};

/// Header size of an SPI_static message.
pub const STATIC_HEADER_BYTES: usize = 2;
/// Header size of an SPI_dynamic message.
pub const DYNAMIC_HEADER_BYTES: usize = 6;

/// Which SPI interface phase an edge uses (paper §5.1's two-phase
/// interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpiPhase {
    /// Compile-time-known transfer sizes (SPI_static).
    Static,
    /// Run-time-varying transfer sizes under a VTS bound (SPI_dynamic).
    Dynamic,
}

/// Frames `payload` as an SPI_static message for `edge`.
///
/// # Errors
///
/// [`SpiError::Message`] if the edge id exceeds `u16::MAX` — SPI systems
/// index edges compactly, and 65 536 inter-processor edges is far
/// outside the supported envelope.
pub fn encode_static(edge: EdgeId, payload: &[u8]) -> Result<Vec<u8>> {
    let id = header_edge_id(edge)?;
    let mut msg = Vec::with_capacity(STATIC_HEADER_BYTES + payload.len());
    msg.extend_from_slice(&id.to_le_bytes());
    msg.extend_from_slice(payload);
    Ok(msg)
}

/// Total framed size of an SPI_static message carrying `payload_len`
/// bytes.
pub fn static_frame_bytes(payload_len: usize) -> usize {
    STATIC_HEADER_BYTES + payload_len
}

/// Frames `payload` as an SPI_static message directly into `buf`
/// (typically a transport ring slot), returning the framed length. No
/// heap allocation.
///
/// # Errors
///
/// [`SpiError::Message`] if the edge id exceeds `u16::MAX` or `buf` is
/// smaller than the framed message.
pub fn encode_static_into(edge: EdgeId, payload: &[u8], buf: &mut [u8]) -> Result<usize> {
    let id = header_edge_id(edge)?;
    let total = static_frame_bytes(payload.len());
    if buf.len() < total {
        return Err(SpiError::Message {
            reason: format!(
                "static frame of {total} bytes does not fit buffer of {}",
                buf.len()
            ),
        });
    }
    buf[..STATIC_HEADER_BYTES].copy_from_slice(&id.to_le_bytes());
    buf[STATIC_HEADER_BYTES..total].copy_from_slice(payload);
    Ok(total)
}

/// Narrows an edge id to the 2-byte header field.
fn header_edge_id(edge: EdgeId) -> Result<u16> {
    u16::try_from(edge.0).map_err(|_| SpiError::Message {
        reason: format!(
            "edge id {edge} exceeds the 2-byte header field (max {})",
            u16::MAX
        ),
    })
}

/// Decodes an SPI_static message, checking it belongs to `expect_edge`
/// and carries exactly `expect_len` payload bytes.
///
/// # Errors
///
/// [`SpiError::Message`] on truncation, edge-id mismatch, or length
/// mismatch.
pub fn decode_static(msg: &[u8], expect_edge: EdgeId, expect_len: usize) -> Result<Vec<u8>> {
    decode_static_borrowed(msg, expect_edge, expect_len).map(<[u8]>::to_vec)
}

/// Borrowed variant of [`decode_static`]: the same validation, but the
/// returned payload is a view into `msg` — no allocation, no copy. With
/// a pooled transport the slice points straight into the shared slot
/// the sender wrote (the paper's pointer-exchange read path).
///
/// # Errors
///
/// As [`decode_static`].
pub fn decode_static_borrowed(msg: &[u8], expect_edge: EdgeId, expect_len: usize) -> Result<&[u8]> {
    if msg.len() < STATIC_HEADER_BYTES {
        return Err(SpiError::Message {
            reason: format!("static header truncated: {} bytes", msg.len()),
        });
    }
    let id = u16::from_le_bytes([msg[0], msg[1]]) as usize;
    if id != expect_edge.0 {
        return Err(SpiError::Message {
            reason: format!("edge id {id} does not match expected {expect_edge}"),
        });
    }
    let payload = &msg[STATIC_HEADER_BYTES..];
    if payload.len() != expect_len {
        return Err(SpiError::Message {
            reason: format!(
                "static payload is {} bytes, edge {expect_edge} requires {expect_len}",
                payload.len()
            ),
        });
    }
    Ok(payload)
}

/// Frames `payload` as an SPI_dynamic message for `edge`.
///
/// # Errors
///
/// [`SpiError::Message`] if the edge id exceeds `u16::MAX` or the
/// payload exceeds the 4-byte size field (`u32::MAX` bytes).
pub fn encode_dynamic(edge: EdgeId, payload: &[u8]) -> Result<Vec<u8>> {
    let id = header_edge_id(edge)?;
    let len = u32::try_from(payload.len()).map_err(|_| SpiError::Message {
        reason: format!(
            "payload of {} bytes exceeds the 4-byte size field (max {})",
            payload.len(),
            u32::MAX
        ),
    })?;
    let mut msg = Vec::with_capacity(DYNAMIC_HEADER_BYTES + payload.len());
    msg.extend_from_slice(&id.to_le_bytes());
    msg.extend_from_slice(&len.to_le_bytes());
    msg.extend_from_slice(payload);
    Ok(msg)
}

/// Total framed size of an SPI_dynamic message carrying `payload_len`
/// bytes.
pub fn dynamic_frame_bytes(payload_len: usize) -> usize {
    DYNAMIC_HEADER_BYTES + payload_len
}

/// Frames `payload` as an SPI_dynamic message directly into `buf`
/// (typically a transport ring slot), returning the framed length. No
/// heap allocation.
///
/// # Errors
///
/// As [`encode_dynamic`], plus [`SpiError::Message`] when `buf` is
/// smaller than the framed message.
pub fn encode_dynamic_into(edge: EdgeId, payload: &[u8], buf: &mut [u8]) -> Result<usize> {
    let id = header_edge_id(edge)?;
    let len = u32::try_from(payload.len()).map_err(|_| SpiError::Message {
        reason: format!(
            "payload of {} bytes exceeds the 4-byte size field (max {})",
            payload.len(),
            u32::MAX
        ),
    })?;
    let total = dynamic_frame_bytes(payload.len());
    if buf.len() < total {
        return Err(SpiError::Message {
            reason: format!(
                "dynamic frame of {total} bytes does not fit buffer of {}",
                buf.len()
            ),
        });
    }
    buf[..2].copy_from_slice(&id.to_le_bytes());
    buf[2..DYNAMIC_HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    buf[DYNAMIC_HEADER_BYTES..total].copy_from_slice(payload);
    Ok(total)
}

/// Decodes an SPI_dynamic message, checking the edge id and the VTS
/// bound.
///
/// # Errors
///
/// [`SpiError::Message`] on truncation or id mismatch;
/// [`SpiError::VtsBoundExceeded`] if the size field exceeds `bound`.
pub fn decode_dynamic(msg: &[u8], expect_edge: EdgeId, bound: usize) -> Result<Vec<u8>> {
    decode_dynamic_borrowed(msg, expect_edge, bound).map(<[u8]>::to_vec)
}

/// Borrowed variant of [`decode_dynamic`]: the same validation
/// (including the VTS bound), returning a view into `msg` instead of a
/// copy.
///
/// # Errors
///
/// As [`decode_dynamic`].
pub fn decode_dynamic_borrowed(msg: &[u8], expect_edge: EdgeId, bound: usize) -> Result<&[u8]> {
    if msg.len() < DYNAMIC_HEADER_BYTES {
        return Err(SpiError::Message {
            reason: format!("dynamic header truncated: {} bytes", msg.len()),
        });
    }
    let id = u16::from_le_bytes([msg[0], msg[1]]) as usize;
    if id != expect_edge.0 {
        return Err(SpiError::Message {
            reason: format!("edge id {id} does not match expected {expect_edge}"),
        });
    }
    let len = u32::from_le_bytes([msg[2], msg[3], msg[4], msg[5]]) as usize;
    if len > bound {
        return Err(SpiError::VtsBoundExceeded {
            edge: expect_edge,
            got: len,
            bound,
        });
    }
    if msg.len() < DYNAMIC_HEADER_BYTES + len {
        return Err(SpiError::Message {
            reason: format!(
                "dynamic payload truncated: have {}, need {len}",
                msg.len() - DYNAMIC_HEADER_BYTES
            ),
        });
    }
    Ok(&msg[DYNAMIC_HEADER_BYTES..DYNAMIC_HEADER_BYTES + len])
}

/// Header size for a phase.
pub fn header_bytes(phase: SpiPhase) -> usize {
    match phase {
        SpiPhase::Static => STATIC_HEADER_BYTES,
        SpiPhase::Dynamic => DYNAMIC_HEADER_BYTES,
    }
}

/// [`encode_static`] or [`encode_dynamic`], by phase.
pub(crate) fn encode(phase: SpiPhase, edge: EdgeId, payload: &[u8]) -> Result<Vec<u8>> {
    match phase {
        SpiPhase::Static => encode_static(edge, payload),
        SpiPhase::Dynamic => encode_dynamic(edge, payload),
    }
}

/// [`decode_static_borrowed`] (exactly `payload_max` bytes) or
/// [`decode_dynamic_borrowed`] (at most), by phase.
pub(crate) fn decode_borrowed(
    phase: SpiPhase,
    msg: &[u8],
    edge: EdgeId,
    payload_max: usize,
) -> Result<&[u8]> {
    match phase {
        SpiPhase::Static => decode_static_borrowed(msg, edge, payload_max),
        SpiPhase::Dynamic => decode_dynamic_borrowed(msg, edge, payload_max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_roundtrip() {
        let payload = vec![1, 2, 3, 4];
        let msg = encode_static(EdgeId(7), &payload).unwrap();
        assert_eq!(msg.len(), 2 + 4);
        let back = decode_static(&msg, EdgeId(7), 4).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn static_rejects_wrong_edge() {
        let msg = encode_static(EdgeId(7), &[0; 4]).unwrap();
        assert!(decode_static(&msg, EdgeId(8), 4).is_err());
    }

    #[test]
    fn static_rejects_wrong_length() {
        let msg = encode_static(EdgeId(7), &[0; 4]).unwrap();
        assert!(decode_static(&msg, EdgeId(7), 8).is_err());
        assert!(decode_static(&[1], EdgeId(7), 0).is_err());
    }

    #[test]
    fn dynamic_roundtrip_various_sizes() {
        for n in [0usize, 1, 17, 255] {
            let payload = vec![0xAB; n];
            let msg = encode_dynamic(EdgeId(3), &payload).unwrap();
            assert_eq!(msg.len(), 6 + n);
            let back = decode_dynamic(&msg, EdgeId(3), 255).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn dynamic_enforces_vts_bound() {
        let msg = encode_dynamic(EdgeId(3), &[0; 100]).unwrap();
        assert!(matches!(
            decode_dynamic(&msg, EdgeId(3), 50),
            Err(SpiError::VtsBoundExceeded {
                got: 100,
                bound: 50,
                ..
            })
        ));
    }

    #[test]
    fn dynamic_detects_truncation() {
        let msg = encode_dynamic(EdgeId(3), &[0; 10]).unwrap();
        assert!(decode_dynamic(&msg[..8], EdgeId(3), 100).is_err());
        assert!(decode_dynamic(&msg[..3], EdgeId(3), 100).is_err());
    }

    #[test]
    fn encode_rejects_oversized_edge_id() {
        let too_big = EdgeId(usize::from(u16::MAX) + 1);
        assert!(matches!(
            encode_static(too_big, &[0; 4]),
            Err(SpiError::Message { .. })
        ));
        assert!(matches!(
            encode_dynamic(too_big, &[0; 4]),
            Err(SpiError::Message { .. })
        ));
        // The largest representable id still frames fine.
        assert!(encode_static(EdgeId(usize::from(u16::MAX)), &[]).is_ok());
    }

    #[test]
    fn in_place_encoders_match_owning_encoders() {
        let payload = vec![9u8, 8, 7, 6, 5];
        let mut buf = [0u8; 32];
        let n = encode_static_into(EdgeId(7), &payload, &mut buf).unwrap();
        assert_eq!(n, static_frame_bytes(payload.len()));
        assert_eq!(&buf[..n], &encode_static(EdgeId(7), &payload).unwrap()[..]);
        let n = encode_dynamic_into(EdgeId(7), &payload, &mut buf).unwrap();
        assert_eq!(n, dynamic_frame_bytes(payload.len()));
        assert_eq!(&buf[..n], &encode_dynamic(EdgeId(7), &payload).unwrap()[..]);
    }

    #[test]
    fn in_place_encoders_reject_short_buffers() {
        let mut buf = [0u8; 4];
        assert!(encode_static_into(EdgeId(1), &[0; 4], &mut buf).is_err());
        assert!(encode_dynamic_into(EdgeId(1), &[0; 4], &mut buf).is_err());
        // Exactly-sized buffers work.
        let mut exact = [0u8; 6];
        assert!(encode_static_into(EdgeId(1), &[0; 4], &mut exact).is_ok());
    }

    #[test]
    fn borrowed_decoders_return_views_into_the_frame() {
        let payload = vec![1u8, 2, 3, 4];
        let msg = encode_static(EdgeId(5), &payload).unwrap();
        let view = decode_static_borrowed(&msg, EdgeId(5), 4).unwrap();
        assert_eq!(view, &payload[..]);
        // The view aliases the frame buffer — no copy happened.
        assert_eq!(view.as_ptr(), msg[STATIC_HEADER_BYTES..].as_ptr());

        let msg = encode_dynamic(EdgeId(5), &payload).unwrap();
        let view = decode_dynamic_borrowed(&msg, EdgeId(5), 16).unwrap();
        assert_eq!(view, &payload[..]);
        assert_eq!(view.as_ptr(), msg[DYNAMIC_HEADER_BYTES..].as_ptr());
    }

    #[test]
    fn borrowed_decoders_validate_like_owning_decoders() {
        let msg = encode_static(EdgeId(2), &[0; 4]).unwrap();
        assert!(decode_static_borrowed(&msg, EdgeId(3), 4).is_err());
        assert!(decode_static_borrowed(&msg, EdgeId(2), 5).is_err());
        assert!(decode_static_borrowed(&msg[..1], EdgeId(2), 4).is_err());

        let msg = encode_dynamic(EdgeId(2), &[0; 100]).unwrap();
        assert!(matches!(
            decode_dynamic_borrowed(&msg, EdgeId(2), 50),
            Err(SpiError::VtsBoundExceeded { .. })
        ));
        assert!(decode_dynamic_borrowed(&msg[..8], EdgeId(2), 100).is_err());
    }

    #[test]
    fn headers_are_much_smaller_than_mpi_envelopes() {
        // Computed through a function so the comparison stays a runtime
        // check (clippy: assertions_on_constants).
        // `spi_bench::mpi::ENVELOPE_BYTES`: source, dest, tag, datatype,
        // length and communicator, 4 bytes each.
        let ratio = |h: usize| 24 / h;
        assert!(ratio(header_bytes(SpiPhase::Static)) >= 8);
        assert!(ratio(header_bytes(SpiPhase::Dynamic)) >= 4);
        assert_eq!(header_bytes(SpiPhase::Static), 2);
        assert_eq!(header_bytes(SpiPhase::Dynamic), 6);
    }
}
