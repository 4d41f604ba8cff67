//! Lowering record-batching parameters from the schedule.
//!
//! The paper's resynchronization pass (§4) prunes redundant UBS
//! acknowledgements at *compile* time; batching data records and
//! coalescing credit acknowledgements is the same optimization applied
//! to the *transport*: fewer wire operations carrying the same token
//! traffic, with buffer bounds unchanged. A batch is always bounded by
//! the edge's credit window — B(e)/c(e) messages, eq. (1)/(2) — so a
//! batched sender can never hold back more records than the receiver's
//! declared allocation admits, and the static bounds certified by
//! `spi-verify` stay valid verbatim.
//!
//! The flush deadline is derived from the analytic iteration period
//! ([`crate::PredictedMetrics::op_deadline`] machinery): a Nagle-style
//! timer only pays off when it is short relative to how fast the
//! schedule actually produces tokens, so the deadline is a fraction of
//! the predicted per-iteration wall time, clamped to a sane range.

use std::time::Duration;

/// Upper clamp on a lowered batch: past a few dozen records per
/// `write` the syscall amortization is already >95% and larger batches
/// only add latency.
pub const BATCH_MAX_MSGS_CAP: usize = 32;

/// What a cross-core wake-up costs: how long after its peer acts a
/// thread asleep in the kernel is running again. ≈ 20 µs on the
/// reference host (`benchmark/README.md`: "a park/unpark hop costs
/// ≈ 20 µs here"). It is a property of the target, not a tuning value,
/// and two policies are this one fact: the shortest useful flush
/// deadline ([`FLUSH_AFTER_MIN`]) and how long a `spi-net` wait polls
/// before it blocks — a wait that polls for as long as the sleep it
/// avoids would cost is within 2× of the best it could have done.
pub const WAKEUP_COST: Duration = Duration::from_micros(20);

/// Shortest useful flush deadline — below [`WAKEUP_COST`] the timer
/// fires faster than the thread it serves could be woken and
/// degenerates to per-record flushing.
pub const FLUSH_AFTER_MIN: Duration = WAKEUP_COST;

/// Longest tolerated flush deadline — bounds the latency a straggling
/// record can sit in a sender's pending batch.
pub const FLUSH_AFTER_MAX: Duration = Duration::from_millis(2);

/// Flush deadline used when the schedule offers no period prediction
/// (acyclic graph, zero clock).
pub const FLUSH_AFTER_DEFAULT: Duration = Duration::from_micros(200);

/// Per-edge batching parameters lowered from the schedule, consumed by
/// the network transport (`spi-net`, which re-exports it as
/// `BatchParams`) when a cross-partition edge is instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPlan {
    /// Most records a sender may coalesce into one write of its staging
    /// buffer. `1` disables batching (the one-record-per-write path).
    /// Must leave the edge's credit window room for at least two
    /// batches, or the two ends take turns (the SPI046 analyzer lint
    /// holds the declared form to that).
    pub max_msgs: usize,
    /// Nagle deadline: a pending batch older than this is flushed even
    /// if it is not full. Irrelevant when `max_msgs == 1`.
    pub flush_after: Duration,
}

impl BatchPlan {
    /// The unbatched plan: every record is written immediately.
    pub fn disabled() -> BatchPlan {
        BatchPlan {
            max_msgs: 1,
            flush_after: Duration::ZERO,
        }
    }

    /// Whether this plan coalesces records at all.
    pub fn is_batched(&self) -> bool {
        self.max_msgs > 1
    }
}

impl Default for BatchPlan {
    fn default() -> Self {
        BatchPlan::disabled()
    }
}

/// Derives the batch plan for one cross-partition edge.
///
/// `window_msgs` is the edge's credit window in messages —
/// `B(e) / c(e)`, i.e. `capacity_bytes / max_message_bytes` of the
/// lowered transport. The batch is a **quarter** of the window, because
/// a window has four batches to hold while both ends keep working: the
/// one the sender is staging, the one in the socket and the receiver's
/// read-ahead, the one being consumed, and the one whose cumulative
/// acknowledgement is on its way back. With two batches per window (the
/// rule until PR 20) a feedback loop whose tokens fill half the window
/// fits in one batch, and its PEs take turns instead of overlapping. It
/// is capped at [`BATCH_MAX_MSGS_CAP`] because syscall amortization
/// saturates. A window too small for four batches of two records
/// (< 8 messages) is halved instead, and one of ≤ 3 messages lowers to
/// the unbatched plan — there is no room to coalesce without stalling
/// the pipeline.
///
/// `op_deadline` is the schedule's predicted per-operation wall time
/// ([`crate::PredictedMetrics::op_deadline`]); the flush deadline is an
/// eighth of it, clamped to `[`[`FLUSH_AFTER_MIN`]`, `[`FLUSH_AFTER_MAX`]`]`,
/// falling back to [`FLUSH_AFTER_DEFAULT`] when no prediction exists.
pub fn batch_plan(window_msgs: u64, op_deadline: Option<Duration>) -> BatchPlan {
    let batches = if window_msgs >= 8 { 4 } else { 2 };
    // At most the cap, so the narrowing is lossless.
    let max_msgs = (window_msgs / batches).min(BATCH_MAX_MSGS_CAP as u64) as usize;
    if max_msgs <= 1 {
        return BatchPlan::disabled();
    }
    let flush_after = op_deadline
        .map(|d| (d / 8).clamp(FLUSH_AFTER_MIN, FLUSH_AFTER_MAX))
        .unwrap_or(FLUSH_AFTER_DEFAULT);
    BatchPlan {
        max_msgs,
        flush_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_windows_lower_to_the_unbatched_plan() {
        for w in 0..=3 {
            let p = batch_plan(w, None);
            assert_eq!(p, BatchPlan::disabled(), "window {w}");
            assert!(!p.is_batched());
        }
        // From there on every plan coalesces: the quarter rule starts
        // where a quarter is two records, never at a batch of one.
        for w in 4..=64 {
            assert!(batch_plan(w, None).max_msgs >= 2, "window {w}");
        }
    }

    #[test]
    fn batch_never_exceeds_half_the_credit_window() {
        // Four batches per window wherever four batches of two fit;
        // the two halves below that.
        for w in 4..=7 {
            assert_eq!(batch_plan(w, None).max_msgs as u64, w / 2, "window {w}");
        }
        for w in 8..=128 {
            let p = batch_plan(w, None);
            assert_eq!(p.max_msgs as u64, w / 4, "window {w}");
            assert!(p.is_batched() && 4 * p.max_msgs as u64 <= w, "window {w}");
        }
        // The benchmark's edge: 32 slots for a loop of 16 tokens.
        assert_eq!(batch_plan(32, None).max_msgs, 8);
    }

    #[test]
    fn batch_is_capped_regardless_of_window() {
        let p = batch_plan(10_000, None);
        assert_eq!(p.max_msgs, BATCH_MAX_MSGS_CAP);
    }

    #[test]
    fn flush_deadline_tracks_the_predicted_period_within_clamps() {
        // 800 µs predicted op deadline → 100 µs flush (an eighth).
        let p = batch_plan(64, Some(Duration::from_micros(800)));
        assert_eq!(p.flush_after, Duration::from_micros(100));
        // Very fast schedule: clamped up to the minimum useful timer.
        let p = batch_plan(64, Some(Duration::from_micros(8)));
        assert_eq!(p.flush_after, FLUSH_AFTER_MIN);
        // Very slow schedule: clamped down so latency stays bounded.
        let p = batch_plan(64, Some(Duration::from_secs(1)));
        assert_eq!(p.flush_after, FLUSH_AFTER_MAX);
        // No prediction at all: the configured default.
        let p = batch_plan(64, None);
        assert_eq!(p.flush_after, FLUSH_AFTER_DEFAULT);
    }
}
