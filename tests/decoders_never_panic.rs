//! Never-panic fuzz of the decoders that read what another party
//! wrote: the SPI message codecs (`spi::message`), the launcher's
//! control messages (`spi_net::launcher::CtlMsg`) and the DIF graph
//! parser (`dataflow::dif`, which `spi-lint` feeds user files). Each
//! loop feeds 2 000 seeded cases — random bytes, a valid input cut
//! short, or one with bits flipped — and every case must come back `Ok`
//! or `Err`. A failing case prints its replay line.

use spi_net::launcher::{ChanDecl, CtlMsg, Manifest, NodeDone};
use spi_repro::dataflow::dif::{from_dif, to_dif};
use spi_repro::dataflow::{EdgeId, SdfGraph};
use spi_repro::platform::rng::{for_each_case, SplitMix64};
use spi_repro::spi::{
    decode_dynamic, decode_dynamic_borrowed, decode_static, decode_static_borrowed, encode_dynamic,
    encode_static,
};

const CASES: u64 = 2_000;

/// One fuzz input drawn from `bases`: random bytes, a valid message
/// truncated, a valid message with up to eight bits flipped, or one
/// with a 4-byte word at an even offset (where the codecs keep their
/// lengths and counts) set to `u32::MAX`.
fn fuzz_bytes(rng: &mut SplitMix64, bases: &[Vec<u8>]) -> Vec<u8> {
    let base = &bases[rng.gen_range(0..bases.len())];
    match rng.gen_range(0..4u32) {
        0 => (0..rng.gen_range(0..64usize))
            .map(|_| rng.gen_range(0..=255u8))
            .collect(),
        1 => base[..rng.gen_range(0..=base.len())].to_vec(),
        2 if base.len() >= 4 => {
            let mut bytes = base.clone();
            let at = 2 * rng.gen_range(0..=(bytes.len() - 4) / 2);
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            bytes
        }
        _ => {
            let mut bytes = base.clone();
            if !bytes.is_empty() {
                for _ in 0..rng.gen_range(1..=8u32) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            bytes
        }
    }
}

/// Runs `decode` on `CASES` seeded inputs drawn from `bases`.
fn never_panics(bases: &[Vec<u8>], mut decode: impl FnMut(&mut SplitMix64, &[u8])) {
    for_each_case(CASES, |rng| {
        let input = fuzz_bytes(rng, bases);
        decode(rng, &input);
    });
}

#[test]
fn spi_message_decoders_never_panic() {
    let payloads: [&[u8]; 4] = [b"", b"x", &[7; 16], &[0xA5; 300]];
    let edges = [EdgeId(0), EdgeId(3), EdgeId(u16::MAX as usize)];
    let mut statics = Vec::new();
    let mut dynamics = Vec::new();
    for edge in edges {
        for p in payloads {
            statics.push(encode_static(edge, p).expect("encodes"));
            dynamics.push(encode_dynamic(edge, p).expect("encodes"));
        }
    }
    // The expected edge and length (or VTS bound) are drawn too, so
    // both matching and mismatching headers are exercised.
    let expect = |rng: &mut SplitMix64| {
        let edge = edges[rng.gen_range(0..edges.len())];
        (edge, rng.gen_range(0..=320usize))
    };
    never_panics(&statics, |rng, msg| {
        let (edge, len) = expect(rng);
        let _ = decode_static(msg, edge, len);
        let _ = decode_static_borrowed(msg, edge, len);
    });
    never_panics(&dynamics, |rng, msg| {
        let (edge, bound) = expect(rng);
        let _ = decode_dynamic(msg, edge, bound);
        let _ = decode_dynamic_borrowed(msg, edge, bound);
    });
}

#[test]
fn control_message_decoder_never_panics() {
    let bases: Vec<Vec<u8>> = [
        CtlMsg::Hello { node: 3 },
        CtlMsg::Manifest(Manifest {
            nodes: 2,
            node_of: vec![0, 0, 1],
            channels: vec![ChanDecl {
                capacity_bytes: 4096,
                max_message_bytes: 1040,
                sender: 0,
                receiver: 2,
            }],
            supervised: true,
        }),
        CtlMsg::Pong {
            now_ns: 123_456_789,
        },
        CtlMsg::Done(NodeDone {
            ok: false,
            error: "boom".into(),
            artifact: vec![1, 2, 3],
            trace_text: "# spi-trace v1\n".into(),
            procs: vec![0, 1],
        }),
        CtlMsg::Bye,
    ]
    .iter()
    .map(CtlMsg::encode)
    .collect();
    never_panics(&bases, |_, msg| {
        let _ = CtlMsg::decode(msg);
    });
}

/// A random graph as `to_dif` prints it: up to six actors, edges
/// between any two (self-loops included), static and `dyn` rates.
fn random_dif(rng: &mut SplitMix64) -> (SdfGraph, String) {
    let mut g = SdfGraph::new();
    let actors: Vec<_> = (0..rng.gen_range(1..=6usize))
        .map(|i| g.add_actor(format!("v{i}"), rng.gen_range(0..500u64)))
        .collect();
    for _ in 0..rng.gen_range(0..8u32) {
        let src = actors[rng.gen_range(0..actors.len())];
        let dst = actors[rng.gen_range(0..actors.len())];
        let (p, c) = (rng.gen_range(1..=9u32), rng.gen_range(1..=9u32));
        let (delay, bytes) = (rng.gen_range(0..4u64), rng.gen_range(1..=8u32));
        match rng.gen_bool(0.3) {
            true => g.add_dynamic_edge(src, dst, p, c, delay, bytes),
            false => g.add_edge(src, dst, p, c, delay, bytes),
        }
        .expect("nonzero rates");
    }
    let text = to_dif(&g, "g");
    (g, text)
}

/// `text` with one mutation: cut short, runs of space-separated tokens
/// dropped or one duplicated (a `;` is a token of its own), or bits
/// flipped.
fn mutate_dif(rng: &mut SplitMix64, text: &str) -> String {
    match rng.gen_range(0..3u32) {
        0 => text[..rng.gen_range(0..=text.len())].to_string(),
        1 => {
            let spaced = text.replace(';', " ;");
            let mut tokens: Vec<&str> = spaced.split(' ').collect();
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..tokens.len());
                match rng.gen_bool(0.5) {
                    true => {
                        drop(tokens.drain(at..tokens.len().min(at + rng.gen_range(1..=6usize))))
                    }
                    false => tokens.insert(at, tokens[rng.gen_range(0..tokens.len())]),
                }
            }
            tokens.join(" ")
        }
        _ => {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=8u32) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }
}

/// Unmutated, the text parses back to the graph; mutated, it parses or
/// fails with a `Parse` error.
#[test]
fn dif_parser_never_panics() {
    for_each_case(CASES, |rng| {
        let (graph, text) = random_dif(rng);
        assert_eq!(from_dif(&text).as_ref(), Ok(&graph), "{text}");
        let _ = from_dif(&mutate_dif(rng, &text));
    });
}
