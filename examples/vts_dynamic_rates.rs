//! Variable Token Size (VTS) in action: a dynamic-rate edge analyzed
//! with static SDF machinery and executed with variable payloads.
//!
//! Reproduces the paper's figure-1 example, then runs a live system over
//! the converted edge to show the run-time size header at work.
//!
//! Run with: `cargo run --example vts_dynamic_rates`

use spi::{Firing, SpiSystemBuilder};
use spi_dataflow::{SdfGraph, VtsConversion};
use spi_sched::ProcId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The figure-1 edge: production rate ≤ 10 tokens, consumption ≤ 8.
    let mut graph = SdfGraph::new();
    let a = graph.add_actor("A", 30);
    let b = graph.add_actor("B", 30);
    let edge = graph.add_dynamic_edge(a, b, 10, 8, 0, 4)?;

    println!("before VTS conversion:\n{graph}");
    println!(
        "plain SDF analysis: {}\n",
        graph.repetition_vector().unwrap_err()
    );

    let vts = VtsConversion::convert(&graph)?;
    println!("after VTS conversion:\n{}", vts.graph());
    let info = vts.edge_info(edge).expect("converted edge");
    println!("packed-token bound b_max = {} bytes", info.b_max);
    println!(
        "eq. (1) capacity c(e) = {} bytes\n",
        vts.packed_capacity_bytes(edge)?
    );

    // Run it: A sends a varying number of 4-byte tokens per firing.
    let mut builder = SpiSystemBuilder::new(graph);
    builder.actor(a, move |ctx: &mut Firing| {
        let tokens = (ctx.iter % 11) as usize; // 0..=10 raw tokens
        let payload = (0..tokens).flat_map(|t| (t as u32).to_le_bytes());
        ctx.output(edge).extend(payload);
        30
    });
    builder.actor(b, move |ctx: &mut Firing| {
        let tokens = ctx.input(edge).len() / 4;
        assert_eq!(tokens, (ctx.iter % 11) as usize);
        30
    });
    builder.iterations(50);
    let system = builder.build(2, |x| ProcId(x.0))?;
    let plan = &system.edge_plans()[&edge];
    println!(
        "lowered edge: {:?} phase, protocol {:?}, data channel {}",
        plan.phase, plan.protocol, plan.data_ch
    );
    let report = system.run()?;
    println!(
        "ran 50 variable-size firings: {} messages, {} bytes on the wire",
        report.sim.total_messages(),
        report.sim.total_bytes()
    );
    println!(
        "(worst-case-static would have moved {} payload bytes)",
        50 * 10 * 4
    );
    Ok(())
}
