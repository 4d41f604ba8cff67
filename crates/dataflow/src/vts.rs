//! Variable Token Size (VTS) conversion — the paper's §3.
//!
//! SDF cannot express run-time-varying data rates. VTS re-models a
//! dynamic-rate edge as a *static rate-1* edge whose tokens are *packed*
//! containers of raw tokens: the number of raw tokens inside a packed
//! token varies at run time, bounded above by the declared port bound.
//! Because the packed-token *rate* is static, every SDF analysis
//! (repetition vectors, class-S scheduling, buffer bounds) applies to the
//! converted graph, while the byte volume on the edge stays bounded:
//!
//! * eq. (1): `c(e) = c_sdf(e) · b_max(e)` — total packed-token bytes,
//!   where `c_sdf(e)` is an SDF buffer bound of the converted edge and
//!   `b_max(e)` the max bytes in one packed token;
//! * eq. (2): `B(e) = (Γ + delay(e)) · c(e)` — the IPC buffer bound,
//!   computed in `spi-sched` where the IPC graph (and hence `Γ`) lives.
//!
//! At run time, packed tokens carry their size in the message header
//! (the paper argues headers beat delimiters on FPGA targets — see the
//! `header_vs_delimiter` ablation bench); [`TokenPacker`] implements the
//! packing/unpacking discipline.

use crate::error::{DataflowError, Result};
use crate::graph::{EdgeId, Rate, SdfGraph};

/// How a converted edge signals each packed token's length to the
/// receiver (paper §3 implementation discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LengthSignal {
    /// Length travels in a fixed header field — constant-time parse;
    /// the paper's choice for FPGA targets.
    #[default]
    Header,
    /// A sentinel delimiter terminates the payload — the receiver must
    /// scan every word; modeled for the ablation study.
    Delimiter,
}

/// Record of one edge's VTS conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtsEdge {
    /// Edge id in the *converted* graph (ids are preserved 1:1).
    pub edge: EdgeId,
    /// Producer-side raw-token bound per firing (`x ≤ …` in fig. 1).
    pub produce_bound: u32,
    /// Consumer-side raw-token bound per firing (`y ≤ …` in fig. 1).
    pub consume_bound: u32,
    /// Bytes of one raw (unpacked) token.
    pub raw_token_bytes: u32,
    /// Max bytes in one packed token: `max(bounds) · raw_token_bytes`.
    pub b_max: u64,
}

/// Result of VTS conversion: a pure-SDF graph plus per-edge packing
/// metadata.
///
/// # Examples
///
/// Reproducing the paper's figure 1 (production rate ≤ 10, consumption
/// rate ≤ 8, both become rate 1):
///
/// ```
/// use spi_dataflow::{SdfGraph, VtsConversion};
///
/// let mut g = SdfGraph::new();
/// let a = g.add_actor("A", 10);
/// let b = g.add_actor("B", 10);
/// let e = g.add_dynamic_edge(a, b, 10, 8, 0, 4)?;
/// let vts = VtsConversion::convert(&g)?;
/// assert!(vts.graph().is_pure_sdf());
/// let info = vts.edge_info(e).expect("converted edge");
/// assert_eq!(info.b_max, 10 * 4);
/// # Ok::<(), spi_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VtsConversion {
    graph: SdfGraph,
    converted: Vec<VtsEdge>,
}

impl VtsConversion {
    /// Converts every dynamic edge of `graph` into a static rate-1
    /// packed-token edge.
    ///
    /// Static edges pass through untouched; edge and actor ids are
    /// preserved, so analyses on the converted graph can be mapped back.
    ///
    /// # Errors
    ///
    /// [`DataflowError::MissingRateBound`] if a dynamic port declares a
    /// zero bound (cannot size packed tokens). Construction in
    /// [`SdfGraph`] already rejects zero bounds, so this only fires for
    /// graphs built through other means.
    pub fn convert(graph: &SdfGraph) -> Result<Self> {
        let mut out = graph.clone();
        let mut converted = Vec::new();
        for (id, e) in graph.edges() {
            if !e.is_dynamic() {
                continue;
            }
            let pb = e.produce.bound();
            let cb = e.consume.bound();
            if pb == 0 || cb == 0 {
                return Err(DataflowError::MissingRateBound { edge: id });
            }
            let b_max = u64::from(pb.max(cb)) * u64::from(e.token_bytes);
            converted.push(VtsEdge {
                edge: id,
                produce_bound: pb,
                consume_bound: cb,
                raw_token_bytes: e.token_bytes,
                b_max,
            });
            // Rewrite: rate 1 on both sides; the packed token *is* the
            // firing's worth of raw tokens.
            let edge_mut = out.edge_mut_slot(id);
            edge_mut.produce = Rate::Static(1);
            edge_mut.consume = Rate::Static(1);
        }
        Ok(VtsConversion {
            graph: out,
            converted,
        })
    }

    /// The converted, pure-SDF graph.
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// Conversion metadata for `edge`, if it was dynamic.
    pub fn edge_info(&self, edge: EdgeId) -> Option<&VtsEdge> {
        self.converted.iter().find(|v| v.edge == edge)
    }

    /// All converted edges.
    pub fn converted_edges(&self) -> &[VtsEdge] {
        &self.converted
    }

    /// Paper eq. (1): total packed-token byte capacity of `edge`,
    /// `c(e) = c_sdf(e) · b_max(e)`.
    ///
    /// `c_sdf` is measured on the converted (pure SDF) graph via class-S
    /// simulation, exactly as the paper prescribes ("c_sdf(e) is computed
    /// on the graph after VTS conversion").
    ///
    /// For static (unconverted) edges the packed-token size is the raw
    /// token size times the consumption batch, so the formula degrades
    /// gracefully.
    ///
    /// # Errors
    ///
    /// Anything [`SdfGraph::sdf_buffer_bounds`] can return (the converted
    /// graph could still be inconsistent or deadlocked through its static
    /// part).
    pub fn packed_capacity_bytes(&self, edge: EdgeId) -> Result<u64> {
        let bounds = self.graph.sdf_buffer_bounds()?;
        let c_sdf = bounds.bound(edge);
        Ok(c_sdf * self.bytes_per_packed_token(edge)?)
    }

    /// Max bytes of one packed token on `edge` (`b_max(e)` for converted
    /// edges, `token_bytes` for static ones).
    ///
    /// # Errors
    ///
    /// [`DataflowError::UnknownEdge`] if the edge does not exist.
    pub fn bytes_per_packed_token(&self, edge: EdgeId) -> Result<u64> {
        if let Some(v) = self.edge_info(edge) {
            return Ok(v.b_max);
        }
        let e = self.graph.try_edge(edge)?;
        Ok(u64::from(e.token_bytes))
    }
}

/// Runtime packing/unpacking of raw tokens into variable-size packed
/// tokens, with both length-signalling disciplines.
///
/// The packer is deliberately simple: a packed token is a length-prefixed
/// (or delimiter-terminated) run of raw-token bytes. SPI's send actors
/// call [`TokenPacker::pack`]; receive actors call [`TokenPacker::unpack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenPacker {
    raw_token_bytes: u32,
    max_raw_tokens: u32,
    signal: LengthSignal,
}

/// Sentinel byte used by the delimiter discipline. Raw payloads are
/// escaped so the sentinel never appears in data.
const DELIMITER: u8 = 0x7E;
/// Escape byte for the delimiter discipline.
const ESCAPE: u8 = 0x7D;

impl TokenPacker {
    /// Creates a packer for tokens of `raw_token_bytes` bytes with at most
    /// `max_raw_tokens` tokens per packed token.
    pub fn new(raw_token_bytes: u32, max_raw_tokens: u32, signal: LengthSignal) -> Self {
        TokenPacker {
            raw_token_bytes,
            max_raw_tokens,
            signal,
        }
    }

    /// Builds a packer matching a converted edge's producer side.
    pub fn for_edge(info: &VtsEdge, signal: LengthSignal) -> Self {
        TokenPacker::new(
            info.raw_token_bytes,
            info.produce_bound.max(info.consume_bound),
            signal,
        )
    }

    /// Upper bound in bytes of any packed token this packer can emit,
    /// including framing overhead.
    pub fn max_packed_bytes(&self) -> usize {
        let payload = self.raw_token_bytes as usize * self.max_raw_tokens as usize;
        match self.signal {
            LengthSignal::Header => 4 + payload,
            // Worst case every byte is escaped, plus the final delimiter.
            LengthSignal::Delimiter => 2 * payload + 1,
        }
    }

    /// Packs `raw` (a whole number of raw tokens) into one framed packed
    /// token.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::NotTokenAligned`] when `raw.len()` is not a
    /// multiple of the raw token size and [`PackError::TooManyTokens`]
    /// when the token count exceeds the declared bound — the invariant VTS
    /// analysis depends on.
    pub fn pack(&self, raw: &[u8]) -> std::result::Result<Vec<u8>, PackError> {
        if self.raw_token_bytes == 0 || !raw.len().is_multiple_of(self.raw_token_bytes as usize) {
            return Err(PackError::NotTokenAligned {
                len: raw.len(),
                token_bytes: self.raw_token_bytes,
            });
        }
        let n_tokens = (raw.len() / self.raw_token_bytes as usize) as u32;
        if n_tokens > self.max_raw_tokens {
            return Err(PackError::TooManyTokens {
                got: n_tokens,
                bound: self.max_raw_tokens,
            });
        }
        let mut out = Vec::with_capacity(raw.len() + 5);
        match self.signal {
            LengthSignal::Header => {
                out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
                out.extend_from_slice(raw);
            }
            LengthSignal::Delimiter => {
                for &b in raw {
                    if b == DELIMITER || b == ESCAPE {
                        out.push(ESCAPE);
                        out.push(b ^ 0x20);
                    } else {
                        out.push(b);
                    }
                }
                out.push(DELIMITER);
            }
        }
        Ok(out)
    }

    /// Unpacks one framed packed token back into raw bytes, returning the
    /// payload and the number of framed bytes consumed.
    ///
    /// # Errors
    ///
    /// [`PackError::Truncated`] if the frame is incomplete and
    /// [`PackError::TooManyTokens`] if the decoded payload violates the
    /// bound (corrupted frame or mismatched packer).
    pub fn unpack(&self, framed: &[u8]) -> std::result::Result<(Vec<u8>, usize), PackError> {
        match self.signal {
            LengthSignal::Header => {
                if framed.len() < 4 {
                    return Err(PackError::Truncated);
                }
                let len = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
                if framed.len() < 4 + len {
                    return Err(PackError::Truncated);
                }
                let payload = framed[4..4 + len].to_vec();
                self.check_payload(&payload)?;
                Ok((payload, 4 + len))
            }
            LengthSignal::Delimiter => {
                let mut payload = Vec::new();
                let mut i = 0;
                loop {
                    let Some(&b) = framed.get(i) else {
                        return Err(PackError::Truncated);
                    };
                    i += 1;
                    match b {
                        DELIMITER => break,
                        ESCAPE => {
                            let Some(&esc) = framed.get(i) else {
                                return Err(PackError::Truncated);
                            };
                            i += 1;
                            payload.push(esc ^ 0x20);
                        }
                        _ => payload.push(b),
                    }
                }
                self.check_payload(&payload)?;
                Ok((payload, i))
            }
        }
    }

    fn check_payload(&self, payload: &[u8]) -> std::result::Result<(), PackError> {
        if self.raw_token_bytes == 0 || !payload.len().is_multiple_of(self.raw_token_bytes as usize)
        {
            return Err(PackError::NotTokenAligned {
                len: payload.len(),
                token_bytes: self.raw_token_bytes,
            });
        }
        let n = (payload.len() / self.raw_token_bytes as usize) as u32;
        if n > self.max_raw_tokens {
            return Err(PackError::TooManyTokens {
                got: n,
                bound: self.max_raw_tokens,
            });
        }
        Ok(())
    }
}

/// Errors from [`TokenPacker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PackError {
    /// Payload length is not a whole number of raw tokens.
    NotTokenAligned {
        /// Offending payload length.
        len: usize,
        /// Raw token size the packer expects.
        token_bytes: u32,
    },
    /// More raw tokens than the declared VTS bound.
    TooManyTokens {
        /// Tokens present.
        got: u32,
        /// Declared bound.
        bound: u32,
    },
    /// Frame ended before the payload was complete.
    Truncated,
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::NotTokenAligned { len, token_bytes } => {
                write!(
                    f,
                    "payload of {len} bytes is not a multiple of {token_bytes}-byte tokens"
                )
            }
            PackError::TooManyTokens { got, bound } => {
                write!(
                    f,
                    "packed token holds {got} raw tokens, exceeding the VTS bound {bound}"
                )
            }
            PackError::Truncated => write!(f, "framed packed token is truncated"),
        }
    }
}

impl std::error::Error for PackError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_graph() -> (SdfGraph, EdgeId) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 10);
        let b = g.add_actor("B", 10);
        let e = g.add_dynamic_edge(a, b, 10, 8, 0, 4).unwrap();
        (g, e)
    }

    #[test]
    fn figure1_conversion_matches_paper() {
        let (g, e) = figure1_graph();
        let vts = VtsConversion::convert(&g).unwrap();
        assert!(vts.graph().is_pure_sdf());
        let edge = vts.graph().edge(e);
        assert_eq!(edge.produce.as_static(), Some(1));
        assert_eq!(edge.consume.as_static(), Some(1));
        let info = vts.edge_info(e).unwrap();
        assert_eq!(info.produce_bound, 10);
        assert_eq!(info.consume_bound, 8);
        assert_eq!(info.b_max, 40);
    }

    #[test]
    fn static_edges_untouched() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let e = g.add_edge(a, b, 2, 3, 1, 8).unwrap();
        let vts = VtsConversion::convert(&g).unwrap();
        assert_eq!(vts.graph().edge(e), g.edge(e));
        assert!(vts.edge_info(e).is_none());
        assert_eq!(vts.converted_edges().len(), 0);
    }

    #[test]
    fn converted_graph_gets_repetition_vector() {
        let (g, _) = figure1_graph();
        assert!(
            g.repetition_vector().is_err(),
            "dynamic graph must be rejected"
        );
        let vts = VtsConversion::convert(&g).unwrap();
        let q = vts.graph().repetition_vector().unwrap();
        assert_eq!(q.total_firings(), 2);
    }

    #[test]
    fn eq1_capacity_bytes() {
        let (g, e) = figure1_graph();
        let vts = VtsConversion::convert(&g).unwrap();
        // Converted edge is 1->1 with no delay: c_sdf = 1 packed token.
        assert_eq!(vts.packed_capacity_bytes(e).unwrap(), 40);
    }

    #[test]
    fn eq1_static_edge_uses_raw_token_size() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b = g.add_actor("B", 1);
        let e = g.add_edge(a, b, 2, 3, 0, 8).unwrap();
        let vts = VtsConversion::convert(&g).unwrap();
        let cap = vts.packed_capacity_bytes(e).unwrap();
        let c_sdf = g.sdf_buffer_bounds().unwrap().bound(e);
        assert_eq!(cap, c_sdf * 8);
    }

    #[test]
    fn pack_unpack_header_roundtrip() {
        let p = TokenPacker::new(4, 10, LengthSignal::Header);
        let raw: Vec<u8> = (0..28).collect(); // 7 tokens of 4 bytes
        let framed = p.pack(&raw).unwrap();
        assert_eq!(framed.len(), 4 + 28);
        let (out, used) = p.unpack(&framed).unwrap();
        assert_eq!(out, raw);
        assert_eq!(used, framed.len());
    }

    #[test]
    fn pack_unpack_delimiter_roundtrip_with_sentinels_in_payload() {
        let p = TokenPacker::new(1, 64, LengthSignal::Delimiter);
        let raw = vec![0x7E, 0x7D, 0x00, 0x7E, 0x41];
        let framed = p.pack(&raw).unwrap();
        let (out, used) = p.unpack(&framed).unwrap();
        assert_eq!(out, raw);
        assert_eq!(used, framed.len());
        assert!(framed.len() > raw.len() + 1, "escaping grew the frame");
    }

    #[test]
    fn pack_enforces_vts_bound() {
        let p = TokenPacker::new(4, 2, LengthSignal::Header);
        let raw = vec![0u8; 12]; // 3 tokens > bound 2
        assert_eq!(
            p.pack(&raw),
            Err(PackError::TooManyTokens { got: 3, bound: 2 })
        );
    }

    #[test]
    fn pack_rejects_misaligned_payload() {
        let p = TokenPacker::new(4, 8, LengthSignal::Header);
        assert!(matches!(
            p.pack(&[0u8; 7]),
            Err(PackError::NotTokenAligned { .. })
        ));
    }

    #[test]
    fn unpack_detects_truncation() {
        let p = TokenPacker::new(4, 8, LengthSignal::Header);
        let framed = p.pack(&[0u8; 8]).unwrap();
        assert_eq!(p.unpack(&framed[..5]), Err(PackError::Truncated));
        assert_eq!(p.unpack(&[]), Err(PackError::Truncated));
        let pd = TokenPacker::new(1, 8, LengthSignal::Delimiter);
        assert_eq!(pd.unpack(&[0x41, 0x42]), Err(PackError::Truncated));
    }

    #[test]
    fn max_packed_bytes_is_a_true_bound() {
        for signal in [LengthSignal::Header, LengthSignal::Delimiter] {
            let p = TokenPacker::new(2, 5, signal);
            // Worst case payload: all delimiter bytes.
            let raw = vec![DELIMITER; 10];
            let framed = p.pack(&raw).unwrap();
            assert!(framed.len() <= p.max_packed_bytes(), "{signal:?}");
        }
    }

    #[test]
    fn empty_packed_token_roundtrips() {
        // Zero raw tokens this firing is legal under VTS (rate varies
        // from 0... the bound is an upper bound).
        let p = TokenPacker::new(4, 8, LengthSignal::Header);
        let framed = p.pack(&[]).unwrap();
        let (out, used) = p.unpack(&framed).unwrap();
        assert!(out.is_empty());
        assert_eq!(used, 4);
    }

    #[test]
    fn back_to_back_frames_parse_sequentially() {
        let p = TokenPacker::new(2, 8, LengthSignal::Header);
        let mut stream = Vec::new();
        let msgs: [&[u8]; 3] = [&[1, 2], &[3, 4, 5, 6], &[]];
        for m in msgs {
            stream.extend(p.pack(m).unwrap());
        }
        let mut off = 0;
        for m in msgs {
            let (out, used) = p.unpack(&stream[off..]).unwrap();
            assert_eq!(out, m);
            off += used;
        }
        assert_eq!(off, stream.len());
    }
}
