//! # spi-sim — deterministic whole-system simulation
//!
//! FoundationDB-style simulation testing for the SPI runtime: the real
//! production stack — [`spi_platform::ThreadedRunner`] worker threads,
//! [`spi_platform::RingTransport`] / `PointerTransport` channels,
//! supervision retry/backoff, and the `spi-net` framed socket protocol
//! — runs unmodified under a seeded scheduler that serializes every
//! thread at its synchronization points and advances a **virtual
//! clock** only when no thread can run. One `u64` seed determines the
//! entire execution:
//!
//! * the interleaving (every lock hand-off, park/unpark race and
//!   condvar wake order),
//! * all timer behavior (timeouts, Nagle deadlines and backoff sleeps
//!   fire in deterministic virtual time, never wall time),
//! * the byte stream (reads and writes on [`SimStream`] split at
//!   seeded boundaries, exercising every short-read/short-write loop).
//!
//! The payoff is **one-command failure replay**: any failing run prints
//! a `SPI_SIM_SEED=<n> cargo test …` line that reproduces the exact
//! schedule, and [`shrink`] (the engine's one witness minimizer, which
//! the model checker applies to its own failures) reduces it to a minimal
//! context-switch story before reporting.
//!
//! The engine itself is [`spi_platform::model`] behind the `verify-shim`
//! feature — the one controlled-execution engine the `spi-verify`
//! bounded model checker also drives, here under its seeded choice and
//! virtual clock policies — so any code the checker can explore, the
//! simulator can run at whole-system scale, and a schedule either finds
//! means the same to the other. This crate packages it with
//! the pieces a whole-system test needs: the in-memory [`SimStream`]
//! socket, ready-made [`scenarios`], and the seed/replay/report
//! [`harness`](crate::check).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use spi_platform::model::{
    replay, run, shrink, Failure as SimFailure, FailureKind, SimOptions, SimRun, Step,
};

mod stream;
pub use stream::{sim_socket_pair, sim_stream_pair, SimStream};

pub mod scenarios;

use std::time::Duration;

/// Reads a `u64` seed from environment variable `var` (decimal, or hex
/// with an `0x` prefix). Returns `None` when unset or unparsable.
pub fn env_seed(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// The one-command replay line printed for every simulated failure.
pub fn replay_line(seed: u64, test: &str) -> String {
    format!("SPI_SIM_SEED={seed} cargo test -p spi-sim --test {test} -- --nocapture")
}

/// Runs `scenario` once under `opts`; on failure, shrinks the schedule
/// and panics with a report that leads with the replay one-liner.
///
/// `test` names the integration test binary the replay command should
/// target (`file!()`-style stem, e.g. `"whole_system"`).
///
/// # Panics
///
/// When the simulated run deadlocks, panics, or exceeds its step
/// budget.
pub fn check(test: &str, opts: &SimOptions, scenario: impl Fn() + Send + Sync) -> SimRun {
    let r = run(opts, &scenario);
    if let Some(f) = &r.failure {
        let shrunk = shrink(opts, f, &scenario);
        panic!(
            "simulated failure (seed {seed})\n\
             \n\
             replay: {line}\n\
             \n\
             {shrunk}",
            seed = opts.seed,
            line = replay_line(opts.seed, test),
        );
    }
    r
}

/// Runs `scenario` across `count` seeds starting at `base`, failing
/// fast with the full [`check`] report on the first bad seed.
///
/// `SPI_SIM_SEED` (if set) pins the sweep to that single seed —
/// exactly what the printed replay line does. `SPI_SIM_SWEEP`
/// overrides `count`, which is how the nightly CI tier widens the same
/// test to hundreds of seeds.
pub fn sweep(test: &str, base: &SimOptions, count: u64, scenario: impl Fn() + Send + Sync) {
    if let Some(seed) = env_seed("SPI_SIM_SEED") {
        let opts = SimOptions {
            seed,
            ..base.clone()
        };
        check(test, &opts, &scenario);
        return;
    }
    let count = env_seed("SPI_SIM_SWEEP").unwrap_or(count);
    for seed in base.seed..base.seed.saturating_add(count) {
        let opts = SimOptions {
            seed,
            ..base.clone()
        };
        check(test, &opts, &scenario);
    }
}

/// A generous virtual-time transport timeout for scenarios: virtual
/// clocks only advance when every thread is blocked, so "30 seconds"
/// costs nothing and only fires on a genuine stall.
pub const SIM_TIMEOUT: Duration = Duration::from_secs(30);
