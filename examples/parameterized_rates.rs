//! Parameterized dataflow meets VTS: model application 1's "frame length
//! and model order are not known before run-time" situation as a PSDF
//! graph, verify it over its whole domain, then run the VTS envelope
//! through SPI with the parameters actually changing every iteration.
//!
//! Run with: `cargo run --example parameterized_rates`

use spi_repro::dataflow::psdf::{param_table, PsdfGraph, RateExpr};
use spi_repro::sched::ProcId;
use spi_repro::spi::{Firing, SpiSystemBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The model: a reader emits N samples; a solver turns them into M
    // coefficients; a consumer takes both N and M worth of data.
    let mut psdf = PsdfGraph::new();
    let n = psdf.add_param("N (frame length)", 16, 64);
    let m = psdf.add_param("M (model order)", 2, 8);
    let reader = psdf.add_actor("reader", 30);
    let solver = psdf.add_actor("solver", 80);
    let sink = psdf.add_actor("sink", 20);
    let var = |p| RateExpr::Param { param: p, mul: 1 };
    psdf.add_edge(reader, solver, var(n), var(n), 0, 8)?;
    psdf.add_edge(solver, sink, var(m), var(m), 0, 8)?;

    println!("parameters:");
    for (name, lo, hi) in param_table(&psdf) {
        println!("  {name}: [{lo}, {hi}]");
    }

    // Quasi-static check: every (N, M) point is a consistent SDF graph.
    psdf.check_consistency()?;
    println!(
        "\nall {}×{} domain points are consistent and live",
        64 - 16 + 1,
        8 - 2 + 1
    );

    // A specific configuration instantiates to plain SDF…
    let fixed = psdf.instantiate(&[32, 4])?;
    println!("\ninstantiated at N=32, M=4:\n{fixed}");

    // …while the VTS envelope admits the whole family at once.
    let envelope = psdf.vts_envelope()?;
    println!("VTS envelope (bounds = domain maxima):\n{envelope}");

    let e_data = envelope.out_edges(reader)[0];
    let e_coef = envelope.out_edges(solver)[0];
    let mut builder = SpiSystemBuilder::new(envelope);
    // Per-iteration parameter schedule: N and M wander their domains.
    let n_at = |iter: u64| 16 + (iter * 7) % 49; // 16..=64
    let m_at = |iter: u64| 2 + (iter * 3) % 7; // 2..=8
    builder.actor(reader, move |ctx: &mut Firing| {
        let n_now = n_at(ctx.iter) as usize;
        ctx.output(e_data).resize(n_now * 8, 0x11);
        30
    });
    builder.actor(solver, move |ctx: &mut Firing| {
        let got = ctx.input(e_data).len() / 8;
        assert_eq!(
            got as u64,
            n_at(ctx.iter),
            "frame length follows the schedule"
        );
        let m_now = m_at(ctx.iter) as usize;
        ctx.output(e_coef).resize(m_now * 8, 0x22);
        80
    });
    builder.actor(sink, move |ctx: &mut Firing| {
        assert_eq!((ctx.input(e_coef).len() / 8) as u64, m_at(ctx.iter));
        20
    });
    builder.iterations(40);
    let system = builder.build(3, |a| ProcId(a.0))?;
    let report = system.run()?;
    println!(
        "ran 40 reconfigured iterations on 3 processors: {:.1} µs total, {} bytes moved",
        report.makespan_us(),
        report.sim.total_bytes()
    );
    Ok(())
}
