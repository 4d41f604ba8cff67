//! Prints a textual Gantt chart of a small 2-PE error-stage run — one
//! row per PE, `#` where it is inside a firing.

use std::sync::Arc;

use spi::SpiSystemBuilder;
use spi_apps::{ErrorStageApp, ErrorStageConfig};
use spi_trace::{render_gantt, ClockKind, RingTracer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = ErrorStageApp::new(ErrorStageConfig {
        n_pes: 2,
        frame: 64,
        order: 4,
        ..Default::default()
    })?;
    let ring = Arc::new(RingTracer::with_default_capacity(3));
    let mut builder = SpiSystemBuilder::new(app.graph.clone());
    app.configure(&mut builder);
    builder.iterations(2);
    builder.tracer(ring.clone());
    let system = app.build_with(builder)?;
    let meta = system.trace_meta(ClockKind::Cycles);
    let report = system.run()?;
    println!("Gantt trace — 2-PE error stage, 2 frames\n");
    println!("{}", render_gantt(&ring.finish(meta), 72));
    println!("makespan: {} cycles", report.sim.makespan_cycles);
    Ok(())
}
