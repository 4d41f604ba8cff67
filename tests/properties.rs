//! Property tests over cross-crate invariants, each a seeded loop over
//! 64 cases (`SPI_CHAOS_SEED=<case>` replays one).

use spi_repro::dataflow::{LengthSignal, SdfGraph, TokenPacker, VtsConversion};
use spi_repro::dsp::huffman::HuffmanCode;
use spi_repro::dsp::particle::{allocate_counts, plan_exchanges};
use spi_repro::platform::rng::{for_each_case, SplitMix64};

/// `len` bytes, each uniform.
fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

// Random two-actor graphs: the balance equation q_a·p = q_b·c must hold
// and the repetition vector must be minimal (gcd 1).
#[test]
fn repetition_vector_satisfies_balance() {
    for_each_case(64, |rng| {
        let (p, c) = (rng.gen_range(1..40u32), rng.gen_range(1..40u32));
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_edge(a, b, p, c, 0, 4).expect("edge");
        let q = g.repetition_vector().expect("consistent");
        assert_eq!(q[a] * u64::from(p), q[b] * u64::from(c));
        assert_eq!(spi_repro::dataflow::gcd(q[a], q[b]), 1);
    });
}

#[test]
fn chain_schedules_return_edges_to_delay_count() {
    for_each_case(64, |rng| {
        let mut g = SdfGraph::new();
        let mut prev = g.add_actor("a0", 1);
        for i in 0..rng.gen_range(1..5usize) {
            let (p, c) = (rng.gen_range(1..6u32), rng.gen_range(1..6u32));
            let d = rng.gen_range(0..4u64);
            let next = g.add_actor(format!("a{}", i + 1), 1);
            g.add_edge(prev, next, p, c, d, 4).expect("edge");
            prev = next;
        }
        let report = g.class_s_schedule().expect("live chain");
        // Replay and check conservation.
        let mut tokens: Vec<i64> = g.edges().map(|(_, e)| e.delay as i64).collect();
        for &f in report.schedule.firings() {
            for e in g.in_edges(f) {
                tokens[e.0] -= i64::from(g.edge(e).consume.bound());
                assert!(tokens[e.0] >= 0);
            }
            for e in g.out_edges(f) {
                tokens[e.0] += i64::from(g.edge(e).produce.bound());
            }
        }
        for ((_, e), t) in g.edges().zip(tokens) {
            assert_eq!(t, e.delay as i64);
        }
    });
}

#[test]
fn vts_conversion_always_yields_pure_sdf() {
    for_each_case(64, |rng| {
        let mut g = SdfGraph::new();
        let mut prev = g.add_actor("a0", 1);
        for i in 0..rng.gen_range(1..6usize) {
            let (pb, cb) = (rng.gen_range(1..64u32), rng.gen_range(1..64u32));
            let next = g.add_actor(format!("a{}", i + 1), 1);
            g.add_dynamic_edge(prev, next, pb, cb, 0, 4).expect("edge");
            prev = next;
        }
        let vts = VtsConversion::convert(&g).expect("bounded");
        assert!(vts.graph().is_pure_sdf());
        let q = vts.graph().repetition_vector().expect("rate-1 chain");
        assert!(q.iter().all(|(_, n)| n == 1));
        for info in vts.converted_edges() {
            assert_eq!(
                info.b_max,
                u64::from(info.produce_bound.max(info.consume_bound)) * 4
            );
        }
    });
}

#[test]
fn token_packer_roundtrips() {
    for_each_case(64, |rng| {
        let len = rng.gen_range(0..256usize);
        let mut raw = bytes(rng, len);
        let header = rng.gen_bool(0.5);
        // Pad to whole 4-byte tokens.
        raw.truncate(raw.len() / 4 * 4);
        let signal = if header {
            LengthSignal::Header
        } else {
            LengthSignal::Delimiter
        };
        let packer = TokenPacker::new(4, 64, signal);
        let framed = packer.pack(&raw).expect("within bound");
        assert!(framed.len() <= packer.max_packed_bytes());
        let (back, used) = packer.unpack(&framed).expect("roundtrip");
        assert_eq!(back, raw);
        assert_eq!(used, framed.len());
    });
}

#[test]
fn huffman_roundtrips_arbitrary_symbol_streams() {
    for_each_case(64, |rng| {
        let symbols: Vec<u16> = (0..rng.gen_range(1..300usize))
            .map(|_| rng.gen_range(0..32u16))
            .collect();
        let code = HuffmanCode::from_symbols(&symbols).expect("nonempty");
        let (bits, bitlen) = code.encode(&symbols).expect("known symbols");
        let back = code
            .decode(&bits, bitlen, symbols.len())
            .expect("roundtrip");
        assert_eq!(back, symbols);
    });
}

#[test]
fn allocation_and_exchange_always_balance() {
    for_each_case(64, |rng| {
        let weights: Vec<f64> = (0..rng.gen_range(1..8usize))
            .map(|_| rng.gen_range(0.0..100.0))
            .collect();
        let per_pe = rng.gen_range(1..50usize);
        let n = weights.len();
        let total = per_pe * n;
        let mut counts = Vec::new();
        allocate_counts(&weights, total, &mut counts);
        assert_eq!(counts.iter().sum::<usize>(), total);
        let mut after = counts.clone();
        for x in plan_exchanges(&counts, per_pe) {
            assert!(x.count > 0);
            after[x.from] -= x.count;
            after[x.to] += x.count;
        }
        assert!(after.iter().all(|&c| c == per_pe));
    });
}

#[test]
fn spi_message_codecs_roundtrip() {
    for_each_case(64, |rng| {
        let len = rng.gen_range(0..512usize);
        let payload = bytes(rng, len);
        let edge = rng.gen_range(0..1000usize);
        use spi_repro::dataflow::EdgeId;
        use spi_repro::spi::{decode_dynamic, decode_static, encode_dynamic, encode_static};
        let e = EdgeId(edge);
        let s = encode_static(e, &payload).expect("edge id fits the header");
        assert_eq!(
            decode_static(&s, e, payload.len()).expect("static"),
            payload.clone()
        );
        let d = encode_dynamic(e, &payload).expect("edge id fits the header");
        assert_eq!(
            decode_dynamic(&d, e, payload.len()).expect("dynamic"),
            payload
        );
    });
}
