//! Canonical Huffman coding (actor "E" of application 1).
//!
//! Encodes the quantized prediction-error symbols. The implementation is
//! a classic frequency-driven tree build followed by canonicalization, so
//! code tables are reproducible and compact to transmit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Errors from Huffman coding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HuffmanError {
    /// No symbols were provided to build a code from.
    EmptyInput,
    /// The bitstream ended mid-codeword or decoded to an unknown prefix.
    CorruptBitstream {
        /// Bit offset where decoding failed.
        bit: usize,
    },
    /// A symbol outside the code table was submitted for encoding.
    UnknownSymbol {
        /// The symbol.
        symbol: u16,
    },
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::EmptyInput => write!(f, "cannot build a huffman code from no symbols"),
            HuffmanError::CorruptBitstream { bit } => {
                write!(f, "bitstream corrupt near bit {bit}")
            }
            HuffmanError::UnknownSymbol { symbol } => {
                write!(f, "symbol {symbol} missing from the code table")
            }
        }
    }
}

impl std::error::Error for HuffmanError {}

/// A canonical Huffman code over `u16` symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// (symbol, code length in bits), sorted canonically.
    lengths: Vec<(u16, u8)>,
    /// symbol → (code bits, length).
    encode_table: HashMap<u16, (u32, u8)>,
}

impl HuffmanCode {
    /// Builds a code from observed symbols.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::EmptyInput`] if `symbols` is empty.
    pub fn from_symbols(symbols: &[u16]) -> Result<Self, HuffmanError> {
        if symbols.is_empty() {
            return Err(HuffmanError::EmptyInput);
        }
        let mut freq: HashMap<u16, u64> = HashMap::new();
        for &s in symbols {
            *freq.entry(s).or_insert(0) += 1;
        }
        Self::from_frequencies(&freq)
    }

    /// Builds a code from a symbol→frequency map.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::EmptyInput`] if `freq` is empty.
    pub fn from_frequencies(freq: &HashMap<u16, u64>) -> Result<Self, HuffmanError> {
        // Tree build: heap of (weight, tiebreak, node).
        #[derive(Debug)]
        enum Node {
            Leaf(u16),
            Internal(Box<Node>, Box<Node>),
        }
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut arena: Vec<Node> = Vec::new();
        let mut entries: Vec<(&u16, &u64)> = freq.iter().collect();
        entries.sort(); // deterministic tiebreak
        for (tie, (&sym, &w)) in entries.iter().enumerate() {
            arena.push(Node::Leaf(sym));
            heap.push(Reverse((w, tie as u64, arena.len() - 1)));
        }
        let mut tie = entries.len() as u64;
        let root = loop {
            match (heap.pop(), heap.pop()) {
                (Some(Reverse((w1, _, i1))), Some(Reverse((w2, _, i2)))) => {
                    // Move children out of the arena via placeholder swap.
                    let left = std::mem::replace(&mut arena[i1], Node::Leaf(0));
                    let right = std::mem::replace(&mut arena[i2], Node::Leaf(0));
                    arena.push(Node::Internal(Box::new(left), Box::new(right)));
                    heap.push(Reverse((w1 + w2, tie, arena.len() - 1)));
                    tie += 1;
                }
                (Some(Reverse((_, _, root))), None) => break root,
                (None, _) => return Err(HuffmanError::EmptyInput),
            }
        };

        // Collect code lengths.
        let mut lengths: Vec<(u16, u8)> = Vec::new();
        fn walk(node: &Node, depth: u8, out: &mut Vec<(u16, u8)>) {
            match node {
                Node::Leaf(s) => out.push((*s, depth.max(1))),
                Node::Internal(l, r) => {
                    walk(l, depth + 1, out);
                    walk(r, depth + 1, out);
                }
            }
        }
        walk(&arena[root], 0, &mut lengths);
        Ok(Self::canonicalize(lengths))
    }

    /// Assigns canonical codes given `(symbol, length)` pairs.
    fn canonicalize(mut lengths: Vec<(u16, u8)>) -> Self {
        lengths.sort_by_key(|&(s, l)| (l, s));
        let mut encode_table = HashMap::new();
        let mut code: u32 = 0;
        let mut prev_len = 0u8;
        for &(sym, len) in &lengths {
            code <<= len - prev_len;
            encode_table.insert(sym, (code, len));
            code += 1;
            prev_len = len;
        }
        HuffmanCode {
            lengths,
            encode_table,
        }
    }

    /// Code length in bits for `symbol`, if present.
    pub fn code_length(&self, symbol: u16) -> Option<u8> {
        self.encode_table.get(&symbol).map(|&(_, l)| l)
    }

    /// Encodes `symbols` into a bitstream (MSB-first) and its bit length.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::UnknownSymbol`] if a symbol is not in the table.
    pub fn encode(&self, symbols: &[u16]) -> Result<(Vec<u8>, usize), HuffmanError> {
        let mut bits: Vec<u8> = Vec::new();
        let mut bitlen = 0usize;
        let mut current = 0u8;
        let mut fill = 0u8;
        for &s in symbols {
            let &(code, len) = self
                .encode_table
                .get(&s)
                .ok_or(HuffmanError::UnknownSymbol { symbol: s })?;
            for b in (0..len).rev() {
                let bit = ((code >> b) & 1) as u8;
                current = (current << 1) | bit;
                fill += 1;
                bitlen += 1;
                if fill == 8 {
                    bits.push(current);
                    current = 0;
                    fill = 0;
                }
            }
        }
        if fill > 0 {
            bits.push(current << (8 - fill));
        }
        Ok((bits, bitlen))
    }

    /// Decodes `count` symbols from a bitstream produced by
    /// [`HuffmanCode::encode`].
    ///
    /// # Errors
    ///
    /// [`HuffmanError::CorruptBitstream`] if the stream is exhausted or an
    /// invalid prefix is encountered.
    pub fn decode(
        &self,
        bits: &[u8],
        bitlen: usize,
        count: usize,
    ) -> Result<Vec<u16>, HuffmanError> {
        // Build decode map: (length, code) → symbol.
        let mut decode_map: HashMap<(u8, u32), u16> = HashMap::new();
        let mut max_len = 0u8;
        for (&sym, &(code, len)) in &self.encode_table {
            decode_map.insert((len, code), sym);
            max_len = max_len.max(len);
        }
        let mut out = Vec::with_capacity(count);
        let mut pos = 0usize;
        while out.len() < count {
            let mut code = 0u32;
            let mut len = 0u8;
            loop {
                if pos >= bitlen {
                    return Err(HuffmanError::CorruptBitstream { bit: pos });
                }
                let byte = bits[pos / 8];
                let bit = (byte >> (7 - (pos % 8))) & 1;
                code = (code << 1) | u32::from(bit);
                len += 1;
                pos += 1;
                if let Some(&sym) = decode_map.get(&(len, code)) {
                    out.push(sym);
                    break;
                }
                if len > max_len {
                    return Err(HuffmanError::CorruptBitstream { bit: pos });
                }
            }
        }
        Ok(out)
    }

    /// Expected bits per symbol under `freq` — the compression figure of
    /// merit.
    pub fn expected_bits(&self, freq: &HashMap<u16, u64>) -> f64 {
        let total: u64 = freq.values().sum();
        if total == 0 {
            return 0.0;
        }
        freq.iter()
            .map(|(&s, &w)| {
                let len = self.code_length(s).unwrap_or(0) as f64;
                w as f64 * len
            })
            .sum::<f64>()
            / total as f64
    }
}

/// Cycle-cost model: table-driven encode, one symbol per cycle plus
/// bit-pack overhead.
pub fn huffman_cycles(n_symbols: usize) -> u64 {
    2 * n_symbols as u64 + 30
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_random_symbols() {
        let symbols: Vec<u16> = (0..500).map(|i| ((i * 7919) % 17) as u16).collect();
        let code = HuffmanCode::from_symbols(&symbols).unwrap();
        let (bits, bitlen) = code.encode(&symbols).unwrap();
        let back = code.decode(&bits, bitlen, symbols.len()).unwrap();
        assert_eq!(back, symbols);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90 % of symbols are 0 → entropy ≪ log2(alphabet).
        let mut symbols = vec![0u16; 900];
        symbols.extend((0..100).map(|i| (1 + i % 7) as u16));
        let code = HuffmanCode::from_symbols(&symbols).unwrap();
        let mut freq = HashMap::new();
        for &s in &symbols {
            *freq.entry(s).or_insert(0u64) += 1;
        }
        let bps = code.expected_bits(&freq);
        assert!(
            bps < 2.0,
            "expected < 2 bits/symbol on skewed data, got {bps}"
        );
        // Frequent symbol gets the shortest code.
        let zero_len = code.code_length(0).unwrap();
        for s in 1..8 {
            assert!(code.code_length(s).unwrap() >= zero_len);
        }
    }

    #[test]
    fn single_symbol_alphabet() {
        let symbols = vec![42u16; 10];
        let code = HuffmanCode::from_symbols(&symbols).unwrap();
        let (bits, bitlen) = code.encode(&symbols).unwrap();
        assert_eq!(bitlen, 10);
        let back = code.decode(&bits, bitlen, 10).unwrap();
        assert_eq!(back, symbols);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            HuffmanCode::from_symbols(&[]),
            Err(HuffmanError::EmptyInput)
        ));
    }

    #[test]
    fn unknown_symbol_rejected() {
        let code = HuffmanCode::from_symbols(&[1, 2, 3]).unwrap();
        assert!(matches!(
            code.encode(&[99]),
            Err(HuffmanError::UnknownSymbol { symbol: 99 })
        ));
    }

    #[test]
    fn corrupt_stream_detected() {
        let symbols: Vec<u16> = (0..32).map(|i| (i % 5) as u16).collect();
        let code = HuffmanCode::from_symbols(&symbols).unwrap();
        let (bits, bitlen) = code.encode(&symbols).unwrap();
        // Ask for more symbols than were encoded.
        assert!(matches!(
            code.decode(&bits, bitlen, symbols.len() + 1),
            Err(HuffmanError::CorruptBitstream { .. })
        ));
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let symbols: Vec<u16> = (0..256).map(|i| (i % 23) as u16).collect();
        let code = HuffmanCode::from_symbols(&symbols).unwrap();
        let codes: Vec<(u32, u8)> = (0..23)
            .filter_map(|s| code.encode_table.get(&(s as u16)).copied())
            .collect();
        for (i, &(c1, l1)) in codes.iter().enumerate() {
            for (j, &(c2, l2)) in codes.iter().enumerate() {
                if i == j {
                    continue;
                }
                if l1 <= l2 {
                    assert_ne!(c1, c2 >> (l2 - l1), "code {i} is a prefix of {j}");
                }
            }
        }
    }

    #[test]
    fn kraft_inequality_holds_with_equality() {
        let symbols: Vec<u16> = (0..1000).map(|i| ((i * i) % 31) as u16).collect();
        let code = HuffmanCode::from_symbols(&symbols).unwrap();
        let kraft: f64 = code
            .lengths
            .iter()
            .map(|&(_, l)| 2f64.powi(-i32::from(l)))
            .sum();
        assert!(
            (kraft - 1.0).abs() < 1e-9,
            "complete huffman codes are tight: {kraft}"
        );
    }

    #[test]
    fn expected_bits_beats_fixed_length_on_nonuniform_data() {
        let mut freq = HashMap::new();
        freq.insert(0u16, 100u64);
        freq.insert(1, 50);
        freq.insert(2, 25);
        freq.insert(3, 25);
        let code = HuffmanCode::from_frequencies(&freq).unwrap();
        assert!(code.expected_bits(&freq) < 2.0);
    }

    #[test]
    fn cost_model_linear() {
        assert_eq!(huffman_cycles(100), 230);
    }
}
