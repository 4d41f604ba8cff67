//! Property-based tests of the dataflow crate's core invariants.

use proptest::prelude::*;

use spi_dataflow::{
    dif, CsdfGraph, FirePolicy, PhaseRates, PrecedenceGraph, SdfGraph, VtsConversion,
};

/// Strategy: a random consistent chain graph with bounded rates/delays.
fn chain_strategy() -> impl Strategy<Value = SdfGraph> {
    prop::collection::vec((1u32..8, 1u32..8, 0u64..5), 1..6).prop_map(|spec| {
        let mut g = SdfGraph::new();
        let mut prev = g.add_actor("a0", 1 + spec.len() as u64);
        for (i, &(p, c, d)) in spec.iter().enumerate() {
            let next = g.add_actor(format!("a{}", i + 1), 2 + i as u64);
            g.add_edge(prev, next, p, c, d, 4).expect("valid edge");
            prev = next;
        }
        g
    })
}

proptest! {
    #[test]
    fn class_s_bounds_are_sufficient_for_replay(g in chain_strategy()) {
        // Any buffer sized to the class-S bound replays the schedule
        // without overflow.
        let report = g.class_s_schedule(FirePolicy::FewestFirings).expect("chains are live");
        let mut tokens: Vec<u64> = g.edges().map(|(_, e)| e.delay).collect();
        for &f in report.schedule.firings() {
            for e in g.in_edges(f) {
                tokens[e.0] -= u64::from(g.edge(e).consume.bound());
            }
            for e in g.out_edges(f) {
                tokens[e.0] += u64::from(g.edge(e).produce.bound());
                prop_assert!(tokens[e.0] <= report.bounds.bound(e));
            }
        }
    }

    #[test]
    fn precedence_expansion_covers_every_consumption(g in chain_strategy()) {
        // Every consumer firing's token demand is covered by delays plus
        // its precedence-edge producers.
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
                prop_assert!(
                    supply >= demand,
                    "firing {firing} demand {demand} supply {supply}"
                );
            }
        }
    }

    #[test]
    fn dif_roundtrips_random_graphs(g in chain_strategy()) {
        let text = dif::to_dif(&g, "random");
        let back = dif::from_dif(&text).expect("self-produced text parses");
        prop_assert_eq!(g, back);
    }

    #[test]
    fn vts_static_edges_identical_after_conversion(g in chain_strategy()) {
        let vts = VtsConversion::convert(&g).expect("no dynamic edges");
        prop_assert_eq!(vts.graph(), &g);
        prop_assert!(vts.converted_edges().is_empty());
    }

    #[test]
    fn csdf_reduction_conserves_tokens(
        phases in prop::collection::vec(0u32..4, 1..5),
        consume in 1u32..6,
    ) {
        // Any phase vector with a positive sum must reduce to an SDF
        // graph whose per-cycle token flow matches the phase sums.
        let mut rates = phases;
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
        prop_assert_eq!(u64::from(edge.produce.bound()), sum);
        prop_assert_eq!(u64::from(edge.consume.bound()), u64::from(consume));
        // Balance holds in the reduction.
        let q = sdf.graph().repetition_vector().expect("consistent");
        prop_assert_eq!(
            q[a] * sum,
            q[b] * u64::from(consume)
        );
    }
}
