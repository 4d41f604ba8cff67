//! The ring transport must be byte-accurate to the paper's static
//! bounds: for every BBS data channel the builder emits, the allocated
//! ring is exactly the eq. (2) sizing derived from `sched::ipc_graph` —
//! `slots = (bound ∨ (d_max+1)) × q_src` messages of `header +
//! payload_max` bytes each, nothing rounded up to a power of two, no
//! slack slot. A UBS data channel is its credit window by the same
//! rule, `window + fill` messages, and a kept ack channel is
//! `EdgePlan::ack_channel_bytes`. A pointer-exchange transport built
//! from the same spec gets a pool of exactly `EdgePlan::slots` slots.

use std::collections::HashMap;

use spi::{EdgePlan, SpiSystem, SpiSystemBuilder, ACK_BYTES, STATIC_HEADER_BYTES};
use spi_dataflow::{EdgeId, PrecedenceGraph, SdfGraph, VtsConversion};
use spi_platform::{ChannelSpec, PointerTransport, RingTransport, Transport};
use spi_sched::{Assignment, IpcEdgeKind, IpcGraph, ProcId, SelfTimedSchedule};

/// Two actors on two processors exchanging tokens in both directions;
/// the delayed feedback edge gives every edge a finite eq. (2) bound,
/// so both channels use BBS.
fn bounded_graph() -> (SdfGraph, EdgeId, EdgeId) {
    let mut g = SdfGraph::new();
    let a = g.add_actor("src", 10);
    let b = g.add_actor("dst", 20);
    let fwd = g.add_edge(a, b, 1, 1, 0, 4).unwrap();
    let fb = g.add_edge(b, a, 1, 1, 2, 4).unwrap();
    (g, fwd, fb)
}

/// The bounded graph built on two processors, `configure`d.
fn built(configure: impl Fn(&mut SpiSystemBuilder) -> &mut SpiSystemBuilder) -> SpiSystem {
    let (g, fwd, fb) = bounded_graph();
    let (a, b) = (g.edge(fwd).src, g.edge(fb).src);
    let mut builder = SpiSystemBuilder::new(g);
    builder.actor(a, move |ctx: &mut spi::Firing| {
        ctx.output(fwd).resize(4, 1);
        5
    });
    builder.actor(b, move |ctx: &mut spi::Firing| {
        ctx.output(fb).resize(4, 2);
        5
    });
    configure(builder.iterations(3));
    builder.build(2, |a| ProcId(a.0)).expect("buildable")
}

/// Asserts `plan`'s data channel `spec` is `msgs` slots of `msg_max`
/// bytes, and so are the ring and the pointer-exchange pool built from
/// it.
fn assert_ring_of(spec: &ChannelSpec, plan: &EdgePlan, msgs: u64) {
    let (edge, msg_max) = (plan.edge, STATIC_HEADER_BYTES + 4); // header + 1 token × 4 B
    assert_eq!(plan.slots, msgs, "edge {edge}: the plan's slot count");
    assert_eq!(
        spec.max_message_bytes, msg_max,
        "slot size is the packed token"
    );
    assert_eq!(
        spec.capacity_bytes,
        msgs as usize * msg_max,
        "edge {edge}: the bound's bytes are the literal allocation",
    );
    // The ring allocates exactly that: no rounding, no slop.
    let ring = RingTransport::new(spec.capacity_bytes, spec.max_message_bytes);
    assert_eq!(ring.capacity_bytes(), msgs as usize * msg_max);
    assert_eq!(ring.slots(), msgs as usize);
    assert_eq!(ring.max_message_bytes(), msg_max);
    // A pointer-exchange transport derives its pool from the same spec:
    // one slot per message the channel holds.
    let pointer = PointerTransport::new(spec.capacity_bytes, spec.max_message_bytes);
    assert_eq!(
        pointer.slots() as u64,
        plan.slots,
        "edge {edge}: pool slots"
    );
}

#[test]
fn ring_capacity_equals_eq2_bytes_from_ipc_graph() {
    let (g, _, _) = bounded_graph();

    // Independently derive the schedule exactly as the builder does.
    let vts = VtsConversion::convert(&g).unwrap();
    let cg = vts.graph().clone();
    let pg = PrecedenceGraph::expand(&cg).unwrap();
    let assignment = Assignment::by_actor(&pg, 2, |a| ProcId(a.0)).unwrap();
    let st = SelfTimedSchedule::from_assignment(&pg, assignment).unwrap();
    let ipc = IpcGraph::build(&cg, &pg, &st).unwrap();
    let q = pg.repetitions().clone();
    let bounds = ipc.buffer_bounds_by_edge();

    // Per-edge max delay over IPC instances — the builder's liveness
    // guard raises the BBS capacity to at least d_max + 1.
    let mut d_max: HashMap<EdgeId, u64> = HashMap::new();
    for e in ipc.ipc_edges() {
        if let IpcEdgeKind::Ipc { via } = e.kind {
            let m = d_max.entry(via).or_insert(0);
            *m = (*m).max(e.delay);
        }
    }

    // Build the runnable system with the same assignment.
    let sys = built(|b| b);
    let report: Vec<EdgePlan> = sys.buffer_report().into_iter().cloned().collect();
    let (specs, _programs) = sys.into_parts();

    // Channels are created in sorted edge order (data channel first per
    // edge; BBS keeps no ack channel), so channel i belongs to edge i.
    assert_eq!(report.len(), 2, "both edges cross processors");
    assert_eq!(specs.len(), 2, "BBS needs no ack channels");
    for plan in &report {
        let bound = bounds[&plan.edge].expect("feedback makes every edge bounded");
        assert_eq!(plan.bound_tokens, Some(bound), "plan agrees with ipc_graph");
        let cap_tokens = bound.max(d_max[&plan.edge] + 1);
        let q_src = q[cg.edge(plan.edge).src];
        let expected_msgs = cap_tokens * q_src;
        assert_eq!(plan.msg_max, STATIC_HEADER_BYTES + 4);
        assert_eq!(
            plan.capacity_bytes(),
            specs[plan.edge.0].capacity_bytes as u64
        );
        assert_ring_of(&specs[plan.edge.0], plan, expected_msgs);
    }
}

/// Forced onto UBS, each edge's data channel holds its credit window:
/// `ack_window` credited messages past the `fill_msgs` the producer
/// sends without a credit (two on the delayed feedback edge). The same
/// holds for an edge whose acknowledgements resynchronization removed;
/// an edge that keeps them has an ack channel of
/// `EdgePlan::ack_channel_bytes` in `ACK_BYTES` messages.
#[test]
fn ubs_ring_capacity_is_the_credit_window() {
    let mut acks_seen = [false; 2];
    for resync in [false, true] {
        let sys = built(|b| b.force_ubs(true).resynchronization(resync));
        let plans = sys.edge_plans().clone();
        let (specs, _programs) = sys.into_parts();
        for plan in plans.values() {
            let msgs = plan.ack_window() + plan.fill_msgs;
            assert!(plan.ack_window() > 0, "edge {} is UBS", plan.edge);
            assert_eq!(
                plan.capacity_bytes(),
                msgs * plan.msg_max as u64,
                "edge {} (resync {resync})",
                plan.edge
            );
            assert_eq!(plan.bound_msgs(), Some(msgs), "edge {}", plan.edge);
            assert_ring_of(&specs[plan.data_ch.0], plan, msgs);
            if let Some(ack_ch) = plan.ack_ch {
                let ack = &specs[ack_ch.0];
                assert_eq!(ack.capacity_bytes, plan.ack_channel_bytes());
                assert_eq!(ack.max_message_bytes, ACK_BYTES);
            }
            assert_eq!(plan.ack_ch.is_some(), plan.ack_kept);
            acks_seen[usize::from(plan.ack_kept)] = true;
        }
        let fills: Vec<u64> = plans.values().map(|p| p.fill_msgs).collect();
        assert!(fills.contains(&2), "the feedback edge's two fills");
    }
    assert_eq!(acks_seen, [true, true], "edges with and without acks");
}
