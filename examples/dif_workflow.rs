//! Graphs as files: parse a DIF document, inspect it, auto-map it with
//! HLFET and run it — the tool-chain workflow (graphs in version
//! control, implementations bound at build time).
//!
//! Run with: `cargo run --example dif_workflow`

use spi_repro::dataflow::dif;
use spi_repro::spi::{Firing, SpiSystemBuilder};

const PIPELINE: &str = r#"
# A three-stage sample-rate converter, written by hand (or a tool).
graph src_pipeline {
  actor reader   exec 40;
  actor upsample exec 120;
  actor writer   exec 60;
  edge reader -> upsample produce 2 consume 1 bytes 8;
  edge upsample -> writer produce 3 consume 6 bytes 8;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = dif::from_dif(PIPELINE)?;
    println!("parsed from DIF:\n{graph}");
    let q = graph.repetition_vector()?;
    for (id, actor) in graph.actors() {
        println!("  {:<10} fires {}× per iteration", actor.name, q[id]);
    }

    // Round-trip: the graph re-serializes losslessly.
    let text = dif::to_dif(&graph, "src_pipeline");
    assert_eq!(dif::from_dif(&text)?, graph);
    println!("\nround-trips losslessly through DIF\n");

    // Bind implementations and let HLFET map it onto 2 processors.
    let reader = graph.actor_by_name("reader").expect("declared");
    let upsample = graph.actor_by_name("upsample").expect("declared");
    let writer = graph.actor_by_name("writer").expect("declared");
    let e_in = graph.out_edges(reader)[0];
    let e_out = graph.out_edges(upsample)[0];

    let mut builder = SpiSystemBuilder::new(graph);
    builder.actor(reader, move |ctx: &mut Firing| {
        let s = (ctx.iter * 2 + ctx.k) as f64;
        let samples = [s.sin(), (s + 0.5).sin()];
        ctx.output(e_in)
            .extend(samples.iter().flat_map(|x| x.to_le_bytes()));
        40
    });
    builder.actor(upsample, move |ctx: &mut Firing| {
        let x = f64::from_le_bytes(ctx.input(e_in).try_into().expect("one sample"));
        // 1 → 3 zero-order hold.
        ctx.output(e_out)
            .extend([x; 3].iter().flat_map(|v| v.to_le_bytes()));
        120
    });
    builder.actor(writer, move |ctx: &mut Firing| {
        assert_eq!(ctx.input(e_out).len(), 6 * 8);
        60
    });
    builder.iterations(50);
    let system = builder.build_auto(2)?;
    let report = system.run()?;
    // A processor that got an actor is busy for part of the run.
    let used = report.utilization().iter().filter(|&&u| u > 0.0).count();
    // Each stage of the chain waits on the one before it, so HLFET
    // gains nothing by splitting it and keeps it whole.
    assert_eq!(used, 1, "HLFET keeps the converter on one processor");
    println!(
        "ran 50 iterations auto-mapped for 2 processors, actors on {used} \
         (HLFET kept the whole graph on one): {:.1} µs ({:.2} µs/iteration)",
        report.makespan_us(),
        report.period_us()
    );
    Ok(())
}
