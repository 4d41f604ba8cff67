//! Quick state-space sizing harness (not part of the test suite).
use spi_verify::{explore_ring_shared_consumers, explore_ring_spsc, ModelOptions};
use std::time::Instant;

fn main() {
    let which: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);
    let opts = ModelOptions {
        max_schedules: 500_000,
        ..Default::default()
    };
    let t = Instant::now();
    let (name, ex) = match which {
        0 => ("spsc m=2 s=1", explore_ring_spsc(2, 1, &opts)),
        1 => ("shared consumers", explore_ring_shared_consumers(&opts)),
        2 => ("spsc m=3 s=1", explore_ring_spsc(3, 1, &opts)),
        _ => ("spsc m=3 s=2", explore_ring_spsc(3, 2, &opts)),
    };
    println!(
        "{name}: schedules={} pruned={} capped={} fail={} in {:?}",
        ex.schedules,
        ex.pruned,
        ex.capped,
        ex.failure.is_some(),
        t.elapsed()
    );
    if let Some(f) = ex.failure {
        println!("{f}");
    }
}
