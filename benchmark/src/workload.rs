//! The workload table and the types every workload reports through.

use std::time::{Duration, Instant};

use crate::host::{calibrate, REFERENCE_CALIB_NS};

/// Deadline on every blocking transport call the benchmark makes.
/// Healthy calls block for microseconds; hitting this is a failed op.
pub const TIMEOUT: Duration = Duration::from_secs(20);

/// Which `selfloop8` runner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    Bare,
    Traced,
    Supervised,
}

/// What carries the two `fir2k` edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    Ring,
    Pointer,
    Net,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SelfLoop(LoopMode),
    Fir(EdgeKind),
    App1Lpc,
    DesApp1,
}

impl Workload {
    pub const ALL: [Workload; 8] = [
        Workload::SelfLoop(LoopMode::Bare),
        Workload::SelfLoop(LoopMode::Traced),
        Workload::SelfLoop(LoopMode::Supervised),
        Workload::Fir(EdgeKind::Ring),
        Workload::Fir(EdgeKind::Pointer),
        Workload::Fir(EdgeKind::Net),
        Workload::App1Lpc,
        Workload::DesApp1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SelfLoop(LoopMode::Bare) => "selfloop8",
            Workload::SelfLoop(LoopMode::Traced) => "selfloop8_traced",
            Workload::SelfLoop(LoopMode::Supervised) => "selfloop8_supervised",
            Workload::Fir(EdgeKind::Ring) => "fir2k_ring",
            Workload::Fir(EdgeKind::Pointer) => "fir2k_pointer",
            Workload::Fir(EdgeKind::Net) => "fir2k_net",
            Workload::App1Lpc => "app1_lpc",
            Workload::DesApp1 => "des_app1",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Iterations per throughput segment and per latency segment
    /// (`fir2k_*` only; the others have one iteration in flight by
    /// construction, so their throughput segments are their latency
    /// segments). Sized on a 2-core 2.1 GHz Xeon VM so a segment lasts
    /// 0.1–0.25 s: long enough that thread start-up is < 0.1 % of it,
    /// short enough that a 10 s run holds dozens.
    pub fn counts(self, quick: bool) -> (u64, u64) {
        let (a, b) = match self {
            Workload::SelfLoop(LoopMode::Bare) => (1_000_000, 0),
            // 4 probe events/iteration × 48 B: 100 k iterations keep the
            // capture ring at 19 MB with `dropped() == 0`.
            Workload::SelfLoop(LoopMode::Traced) => (100_000, 0),
            Workload::SelfLoop(LoopMode::Supervised) => (500_000, 0),
            Workload::Fir(EdgeKind::Ring) | Workload::Fir(EdgeKind::Pointer) => (50_000, 2_000),
            Workload::Fir(EdgeKind::Net) => (10_000, 1_000),
            Workload::App1Lpc => (500, 0),
            Workload::DesApp1 => (500, 0),
        };
        if quick {
            (a / 10, b / 10)
        } else {
            (a, b)
        }
    }
}

/// One timed measurement, and how fast the host was while it was
/// taken: [`REFERENCE_CALIB_NS`] over the mean of the calibration
/// readings immediately before and after it (1 = the reference host
/// undisturbed, 0.7 = a host that currently does 70 % of that).
///
/// End-to-end metrics are reported *calibrated* — what the measurement
/// would have read at host speed 1 — because on a shared host the speed
/// moves by tens of percent over seconds to minutes (clock, sibling
/// hyperthread, stolen time), far more than any bound a regression gate
/// could use. Raw readings are kept beside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub raw: f64,
    pub host_speed: f64,
}

impl Sample {
    /// A rate (`1/s`) at host speed 1.
    pub fn calibrated_rate(&self) -> f64 {
        self.raw / self.host_speed
    }

    /// A duration at host speed 1.
    pub fn calibrated_time(&self) -> f64 {
        self.raw * self.host_speed
    }
}

fn host_speed(calib_before: f64, calib_after: f64) -> f64 {
    REFERENCE_CALIB_NS / ((calib_before + calib_after) / 2.0)
}

/// Whether a workload's samples are calibrated.
///
/// The serial workloads are: work and calibration kernel share one CPU
/// and nothing else decides their speed. `fir2k_*` is not: its
/// per-frame time is set by two busy CPUs handing cache lines (or
/// socket buffers) to each other, which the kernel does not feel — in a
/// ten-run study its raw quartile repeated within 3–5 % on ring and
/// pointer while the calibrated one spread 8–19 %, with the kernel
/// timed on the bottleneck CPU alone or on both CPUs at once. An
/// uncalibrated sample records host speed 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    On,
    Off,
}

impl Calibration {
    fn reading(self) -> f64 {
        match self {
            Calibration::On => calibrate(),
            Calibration::Off => REFERENCE_CALIB_NS,
        }
    }
}

/// What one untraced round of one workload produced.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Iterations per second, one entry per throughput segment.
    pub iters_per_s: Vec<Sample>,
    /// Median microseconds per iteration with one iteration in flight,
    /// one entry per latency segment.
    pub latency_us: Vec<Sample>,
    /// Median seconds per build, one entry per build phase.
    pub setup_s: Vec<Sample>,
    /// eq. (2) storage: Σ capacity of every edge, pool slabs once.
    pub buffer_bytes: u64,
    /// Outputs and exact counts checked / found wrong.
    pub attempted: u64,
    pub failed: u64,
    /// One line per distinct failure, for the human reading the run.
    pub notes: Vec<String>,
}

impl Round {
    /// For a workload with one iteration in flight by construction:
    /// a segment's time per iteration is also its latency.
    pub fn set_rates(&mut self, rates: Vec<Sample>) {
        self.latency_us = rates
            .iter()
            .map(|s| Sample {
                raw: 1e6 / s.raw,
                ..*s
            })
            .collect();
        self.iters_per_s = rates;
    }

    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, note());
        }
    }

    pub fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 16 && !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand used by the traced rounds.
pub fn layer(name: &'static str, value: f64, unit: &'static str) -> Layer {
    Layer { name, value, unit }
}

/// What the allocator and the operating system counted over `count`
/// iterations, per iteration.
pub fn cost_layers(
    count: u64,
    (allocs, alloc_bytes): (u64, u64),
    usage: crate::host::Usage,
) -> [Layer; 4] {
    let per_iter = |x: u64| x as f64 / count as f64;
    [
        layer("allocs_per_iter", per_iter(allocs), "count"),
        layer("alloc_bytes_per_iter", per_iter(alloc_bytes), "B"),
        layer(
            "ctx_switches_per_iter",
            per_iter(usage.voluntary_switches + usage.involuntary_switches),
            "count",
        ),
        layer("cpu_ns_per_iter", per_iter(usage.cpu_ns), "ns"),
    ]
}

/// Runs `segment` until `budget` has elapsed, at least once.
pub fn repeat_for(budget: Duration, mut segment: impl FnMut()) {
    let start = Instant::now();
    loop {
        segment();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Runs `segment` until `budget` has elapsed, at least once, with a
/// host calibration between segments (on the calling thread's CPU); a
/// segment that yields a measurement gets it recorded with the host
/// speed around it.
pub fn sample_for(
    budget: Duration,
    calibration: Calibration,
    out: &mut Vec<Sample>,
    mut segment: impl FnMut() -> Option<f64>,
) {
    let start = Instant::now();
    let mut before = calibration.reading();
    loop {
        let raw = segment();
        let after = calibration.reading();
        if let Some(raw) = raw {
            out.push(Sample {
                raw,
                host_speed: host_speed(before, after),
            });
        }
        before = after;
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Times `build` repeatedly for `budget` — at least `min` times — and
/// appends the median seconds per build to `out`.
pub fn time_builds<T>(
    budget: Duration,
    min: usize,
    calibration: Calibration,
    out: &mut Vec<Sample>,
    mut build: impl FnMut() -> T,
) {
    let before = calibration.reading();
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min || start.elapsed() < budget {
        let t0 = Instant::now();
        let built = build();
        secs.push(t0.elapsed().as_secs_f64());
        // Teardown is not set-up time.
        drop(built);
    }
    let after = calibration.reading();
    out.push(Sample {
        raw: crate::stats::median(&secs),
        host_speed: host_speed(before, after),
    });
}

/// splitmix64: the benchmark's only randomness, a pure function of the
/// seed, so the same `--seed` gives the same inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
