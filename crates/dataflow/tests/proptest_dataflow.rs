//! Property tests of the dataflow crate's core invariants, each a seeded
//! loop over 64 cases (`SPI_CHAOS_SEED=<case>` replays one).

use spi_dataflow::{CsdfGraph, PhaseRates, PrecedenceGraph, SdfGraph, VtsConversion};
use spi_platform::rng::{for_each_case, SplitMix64};

/// A random consistent chain graph with bounded rates and delays.
fn chain(rng: &mut SplitMix64) -> SdfGraph {
    let len = rng.gen_range(1..6usize);
    let mut g = SdfGraph::new();
    let mut prev = g.add_actor("a0", 1 + len as u64);
    for i in 0..len {
        let (p, c, d) = (
            rng.gen_range(1..8u32),
            rng.gen_range(1..8u32),
            rng.gen_range(0..5u64),
        );
        let next = g.add_actor(format!("a{}", i + 1), 2 + i as u64);
        g.add_edge(prev, next, p, c, d, 4).expect("valid edge");
        prev = next;
    }
    g
}

#[test]
fn class_s_bounds_are_sufficient_for_replay() {
    // Any buffer sized to the class-S bound replays the schedule
    // without overflow or underflow, and one period returns every edge
    // to its delay count.
    for_each_case(64, |rng| {
        let g = chain(rng);
        let report = g.class_s_schedule().expect("chains are live");
        let mut tokens: Vec<u64> = g.edges().map(|(_, e)| e.delay).collect();
        for &f in report.schedule.firings() {
            for e in g.in_edges(f) {
                tokens[e.0] -= u64::from(g.edge(e).consume.bound());
            }
            for e in g.out_edges(f) {
                tokens[e.0] += u64::from(g.edge(e).produce.bound());
                assert!(tokens[e.0] <= report.bounds.bound(e));
            }
        }
        assert!(g.edges().zip(tokens).all(|((_, e), t)| t == e.delay));
    });
}

#[test]
fn precedence_expansion_covers_every_consumption() {
    // Every consumer firing's token demand is covered by delays plus
    // its precedence-edge producers.
    for_each_case(64, |rng| {
        let g = chain(rng);
        let pg = PrecedenceGraph::expand(&g).expect("consistent");
        for (eid, e) in g.edges() {
            let q = pg.repetitions();
            for j in 0..q[e.dst] {
                let firing = spi_dataflow::Firing { actor: e.dst, k: j };
                let producers = pg
                    .edges()
                    .iter()
                    .filter(|p| p.via == eid && p.to == firing)
                    .count() as u64;
                let demand = u64::from(e.consume.bound());
                let supply = producers * u64::from(e.produce.bound()) + e.delay;
                assert!(
                    supply >= demand,
                    "firing {firing} demand {demand} supply {supply}"
                );
            }
        }
    });
}

#[test]
fn vts_static_edges_identical_after_conversion() {
    for_each_case(64, |rng| {
        let g = chain(rng);
        let vts = VtsConversion::convert(&g).expect("no dynamic edges");
        assert_eq!(vts.graph(), &g);
        assert!(vts.converted_edges().is_empty());
    });
}

#[test]
fn csdf_reduction_conserves_tokens() {
    // Any phase vector with a positive sum must reduce to an SDF graph
    // whose per-cycle token flow matches the phase sums.
    for_each_case(64, |rng| {
        let mut rates: Vec<u32> = (0..rng.gen_range(1..5usize))
            .map(|_| rng.gen_range(0..4u32))
            .collect();
        let consume = rng.gen_range(1..6u32);
        if rates.iter().all(|&r| r == 0) {
            rates[0] = 1;
        }
        let sum: u64 = rates.iter().map(|&r| u64::from(r)).sum();
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", 1);
        let b = g.add_actor("b", 1);
        g.add_edge(
            a,
            b,
            PhaseRates::new(rates).expect("positive sum"),
            PhaseRates::constant(consume).expect("positive"),
            0,
            4,
        )
        .expect("edge");
        let sdf = g.to_sdf().expect("reducible");
        let edge = sdf.graph().edge(spi_dataflow::EdgeId(0));
        assert_eq!(u64::from(edge.produce.bound()), sum);
        assert_eq!(u64::from(edge.consume.bound()), u64::from(consume));
        // Balance holds in the reduction.
        let q = sdf.graph().repetition_vector().expect("consistent");
        assert_eq!(q[a] * sum, q[b] * u64::from(consume));
    });
}
