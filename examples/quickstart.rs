//! Quickstart: build a two-processor SPI system from scratch.
//!
//! Models a tiny sample-rate converter (a 2:3 multirate edge), registers
//! actor implementations, lets SPI schedule it self-timed across two
//! processors, and runs the cycle-timed simulation.
//!
//! Run with: `cargo run --example quickstart`

use spi::{Firing, SpiSystemBuilder};
use spi_dataflow::SdfGraph;
use spi_sched::ProcId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Model: producer emits 2 tokens per firing, consumer takes 3.
    //    The repetition vector is therefore q = [3, 2].
    let mut graph = SdfGraph::new();
    let producer = graph.add_actor("producer", 40);
    let consumer = graph.add_actor("consumer", 60);
    let edge = graph.add_edge(producer, consumer, 2, 3, 0, 4)?;

    println!("{graph}");
    let q = graph.repetition_vector()?;
    println!(
        "repetition vector: producer ×{}, consumer ×{}\n",
        q[producer], q[consumer]
    );

    // 2. Implement the actors. Each firing reads its exact inputs and
    //    writes its exact outputs into the slots SPI lends it; SPI
    //    handles everything in between.
    let mut builder = SpiSystemBuilder::new(graph);
    builder.actor(producer, move |ctx: &mut Firing| {
        // Two 4-byte tokens per firing: consecutive sample indices.
        let base = (ctx.iter * 3 + ctx.k) * 2;
        let payload = ctx.output(edge);
        payload.extend((base as u32).to_le_bytes());
        payload.extend((base as u32 + 1).to_le_bytes());
        40
    });
    builder.actor(consumer, move |ctx: &mut Firing| {
        let tokens: Vec<u32> = ctx
            .input(edge)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte token")))
            .collect();
        assert_eq!(tokens.len(), 3, "consumer receives exactly 3 tokens");
        60
    });
    builder.iterations(100);

    // 3. Lower onto two processors and run.
    let system = builder.build(2, |actor| ProcId(actor.0))?;
    println!(
        "edge protocol: {:?}",
        system
            .edge_plans()
            .values()
            .map(|p| p.protocol)
            .collect::<Vec<_>>()
    );
    let report = system.run()?;

    println!("simulated {} iterations", report.iterations);
    println!(
        "makespan: {:.1} µs at {} MHz",
        report.makespan_us(),
        report.clock_mhz
    );
    println!("period:   {:.2} µs per iteration", report.period_us());
    println!(
        "traffic:  {} messages, {} payload bytes",
        report.sim.total_messages(),
        report.sim.total_bytes()
    );
    Ok(())
}
