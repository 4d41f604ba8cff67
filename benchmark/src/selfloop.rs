//! `selfloop8`, `selfloop8_traced`, `selfloop8_supervised`: one PE, one
//! self-edge, `[Send 8 B, Recv, Compute(verify)]` through the real
//! `ThreadedRunner` on the ring transport.
//!
//! Everything a message costs in software — runner dispatch, the ring
//! op, the per-message allocations, and in the other two modes the
//! probe events or the seq/CRC framing — with zero concurrency, so no
//! scheduler takes part and the figure repeats. Compute-heavy workloads
//! dilute this overhead to invisibility; this one is nothing else.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_platform::{
    framed_spec, ChannelId, ChannelSpec, Op, Program, SupervisionPolicy, ThreadedRunner,
    TransportKind,
};
use spi_trace::RingTracer;

use crate::host::Usage;
use crate::runner_trace::instrument;
use crate::spans::{self, Kind};
use crate::stats;
use crate::workload::{
    cost_layers, layer, repeat_for, sample_for, time_builds, Calibration, Layer, LoopMode, Round,
    Workload, TIMEOUT,
};

const CH: ChannelId = ChannelId(0);
const MESSAGE_BYTES: usize = 8;
const EDGE_SLOTS: usize = 16;
/// Probe events the runner emits per iteration of this program: send,
/// receive, firing begin, firing end.
const EVENTS_PER_ITER: u64 = 4;

fn spec() -> ChannelSpec {
    ChannelSpec {
        capacity_bytes: EDGE_SLOTS * MESSAGE_BYTES,
        max_message_bytes: MESSAGE_BYTES,
        ..ChannelSpec::default()
    }
}

/// The 8 bytes iteration `iter` sends, a function of the seed.
fn word(seed: u64, iter: u64) -> [u8; MESSAGE_BYTES] {
    (seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes()
}

/// What the verify op saw, published once at the last iteration (a
/// shared counter bumped per message would be a cost the workload does
/// not have).
#[derive(Default)]
struct Tally {
    verified: AtomicU64,
    wrong: AtomicU64,
}

fn program(seed: u64, count: u64, tally: &Arc<Tally>) -> Program {
    let tally = tally.clone();
    let (mut verified, mut wrong) = (0u64, 0u64);
    Program::new(
        vec![
            Op::Send {
                channel: CH,
                payload: Box::new(move |l| word(seed, l.iter).to_vec()),
            },
            Op::Recv { channel: CH },
            Op::Compute {
                label: "verify".into(),
                work: Box::new(move |l| {
                    let ok = l.take_from(CH).is_some_and(|got| got == word(seed, l.iter));
                    verified += 1;
                    wrong += u64::from(!ok);
                    if l.iter + 1 == count {
                        tally.verified.store(verified, Relaxed);
                        tally.wrong.store(wrong, Relaxed);
                    }
                    0
                }),
            },
        ],
        count,
    )
}

fn capture_ring(count: u64) -> Arc<RingTracer> {
    Arc::new(RingTracer::new(1, (EVENTS_PER_ITER * count) as usize + 64))
}

fn runner(mode: LoopMode, tracer: Option<&Arc<RingTracer>>) -> ThreadedRunner {
    let base = ThreadedRunner::new()
        .transport(TransportKind::Ring)
        .timeout(TIMEOUT);
    match mode {
        LoopMode::Bare => base,
        LoopMode::Traced => base.tracer(tracer.expect("traced mode has a capture ring").clone()),
        LoopMode::Supervised => base.supervise(SupervisionPolicy::retry(3)),
    }
}

/// One timed run of `count` iterations; checks land in `round`.
fn segment(
    mode: LoopMode,
    seed: u64,
    count: u64,
    tracer: Option<&Arc<RingTracer>>,
    round: &mut Round,
) -> Option<Duration> {
    let name = Workload::SelfLoop(mode).name();
    let tally = Arc::new(Tally::default());
    let programs = vec![program(seed, count, &tally)];
    let runner = runner(mode, tracer);
    if let Some(t) = tracer {
        t.reset();
    }
    let start = Instant::now();
    let result = runner.run(&[spec()], programs);
    let elapsed = start.elapsed();

    round.attempted += count;
    let (verified, wrong) = (tally.verified.load(Relaxed), tally.wrong.load(Relaxed));
    if let Err(e) = &result {
        round.fail(count - verified, format!("{name}: run failed: {e}"));
    } else if verified != count {
        round.fail(
            count - verified,
            format!("{name}: {verified} of {count} iterations verified"),
        );
    }
    if wrong > 0 {
        round.fail(
            wrong,
            format!("{name}: received words differ from the sent ones"),
        );
    }
    if let Some(t) = tracer {
        round.check(t.dropped() == 0, || {
            format!("{name}: RingTracer dropped {} events", t.dropped())
        });
        round.check(t.captured() as u64 == EVENTS_PER_ITER * count, || {
            format!(
                "{name}: {} events captured, closed form is {}",
                t.captured(),
                EVENTS_PER_ITER * count
            )
        });
    }
    result.is_ok().then_some(elapsed)
}

/// One end-to-end round. One iteration is in flight by construction
/// (the PE sends, then receives its own message), so a segment's time
/// per iteration is also its latency.
pub fn round(mode: LoopMode, seed: u64, budget: Duration, quick: bool) -> Round {
    let (count, _) = Workload::SelfLoop(mode).counts(quick);
    let mut round = Round::default();

    // Set-up: everything a run pays before its first message — the
    // capture ring (traced mode), the runner, the edge, the PE thread —
    // measured as a run of zero iterations.
    let tally = Arc::new(Tally::default());
    time_builds(
        budget.mul_f64(0.10),
        20,
        Calibration::On,
        &mut round.setup_s,
        || {
            let tracer = (mode == LoopMode::Traced).then(|| capture_ring(count));
            runner(mode, tracer.as_ref())
                .run(&[spec()], vec![program(seed, 0, &tally)])
                .expect("zero-iteration run")
        },
    );

    let edge_spec = if mode == LoopMode::Supervised {
        framed_spec(&spec())
    } else {
        spec()
    };
    round.buffer_bytes = TransportKind::Ring.instantiate(&edge_spec).capacity_bytes() as u64;

    let tracer = (mode == LoopMode::Traced).then(|| capture_ring(count));
    let mut rates = Vec::new();
    sample_for(budget.mul_f64(0.90), Calibration::On, &mut rates, || {
        segment(mode, seed, count, tracer.as_ref(), &mut round)
            .map(|e| count as f64 / e.as_secs_f64())
    });
    round.set_rates(rates);
    round
}

/// The traced round: the three runner modes interleaved (their deltas
/// price the program's tracer and supervision per iteration), then this
/// workload's own mode under benchmark-side spans.
pub fn traced(
    mode: LoopMode,
    seed: u64,
    budget: Duration,
    quick: bool,
    round: &mut Round,
    span_file: &mut Option<crate::json::Value>,
) -> Vec<Layer> {
    let w = Workload::SelfLoop(mode);
    // One count for all three modes, so the deltas compare like with
    // like; the traced mode's capture ring bounds it.
    let (count, _) = Workload::SelfLoop(LoopMode::Traced).counts(quick);
    let tracer = capture_ring(count);
    let mut ns_per_iter = [Vec::new(), Vec::new(), Vec::new()];
    let modes = [LoopMode::Bare, LoopMode::Traced, LoopMode::Supervised];
    repeat_for(budget.mul_f64(0.45), || {
        for (m, samples) in modes.iter().zip(&mut ns_per_iter) {
            let t = (*m == LoopMode::Traced).then_some(&tracer);
            if let Some(elapsed) = segment(*m, seed, count, t, round) {
                samples.push(elapsed.as_nanos() as f64 / count as f64);
            }
        }
    });
    let [bare, captured, supervised] = ns_per_iter.map(|s| stats::median(&s));
    let events_per_iter = tracer.captured() as f64 / count as f64;

    // This mode under spans, alternating with plain segments.
    let own_tracer = (mode == LoopMode::Traced).then_some(&tracer);
    let (mut plain_s, mut spanned_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut usage = Usage::default();
    repeat_for(budget.mul_f64(0.45), || {
        if let Some(e) = segment(mode, seed, count, own_tracer, round) {
            plain_s.push(e.as_secs_f64());
        }
        let tally = Arc::new(Tally::default());
        let mut programs = vec![program(seed, count, &tally)];
        let inst = instrument(&mut programs, 1);
        if let Some(t) = own_tracer {
            t.reset();
        }
        let before = Usage::now();
        let start = Instant::now();
        let result = runner(mode, own_tracer)
            .decorate_transports(inst.decorator())
            .run(&[spec()], programs);
        let elapsed = start.elapsed();
        usage = Usage::now().since(before);
        round.check(
            result.is_ok()
                && tally.verified.load(Relaxed) == count
                && tally.wrong.load(Relaxed) == 0,
            || format!("{}: spanned run failed or mis-verified", w.name()),
        );
        spanned_s.push(elapsed.as_secs_f64());
        last = Some((inst, elapsed));
    });
    let (inst, wall) = last.expect("repeat_for runs at least once");
    let pe = &inst.pes[0];
    let wall_ns = wall.as_nanos() as f64;

    // Steady-state allocations of this mode, exact, without spans.
    let counting = crate::alloc::Counting::start();
    segment(mode, seed, count, own_tracer, round);
    let (allocs, alloc_bytes) = counting.stop();

    let msgs = pe.msgs_sent.load(Relaxed);
    let bytes = pe.bytes_sent.load(Relaxed);
    let edge_bytes = if mode == LoopMode::Supervised {
        framed_spec(&spec()).max_message_bytes
    } else {
        MESSAGE_BYTES
    } as u64;
    round.check(msgs == count && bytes == count * edge_bytes, || {
        format!(
            "{}: {msgs} messages / {bytes} bytes traced, closed form is {count} / {}",
            w.name(),
            count * edge_bytes
        )
    });

    let share = |kinds: &[Kind]| kinds.iter().map(|k| pe.ns(*k)).sum::<u64>() as f64 / wall_ns;
    let per_iter = |x: u64| x as f64 / count as f64;
    let covered = pe.covered_ns();
    let (threads_peak, runqueue) = inst.threads_and_runqueue();
    let transport_calls = pe.calls(Kind::Send) + pe.calls(Kind::Recv) + pe.calls(Kind::Wait);

    *span_file = Some(spans::to_json(
        w.name(),
        count,
        wall.as_nanos() as u64,
        &[pe.as_ref()],
    ));

    let mut out = vec![
        layer(
            "pe0.compute_share",
            share(&[Kind::Compute, Kind::Payload]),
            "ratio",
        ),
        layer(
            "pe0.transport_share",
            share(&[Kind::Send, Kind::Recv]),
            "ratio",
        ),
        layer("pe0.wait_share", share(&[Kind::Wait]), "ratio"),
        layer("transport.send_ns_p50", pe.p50_ns(Kind::Send), "ns"),
        layer("transport.recv_ns_p50", pe.p50_ns(Kind::Recv), "ns"),
        layer(
            "transport.blocked_calls_share",
            pe.calls(Kind::Wait) as f64 / transport_calls.max(1) as f64,
            "ratio",
        ),
        layer(
            "platform.runner.self_ns_per_iter",
            (wall_ns - covered as f64) / count as f64,
            "ns",
        ),
        layer(
            "spi.actor_ns_per_iter",
            per_iter(pe.ns(Kind::Compute) + pe.ns(Kind::Payload)),
            "ns",
        ),
        layer("trace.capture.ns_per_iter", captured - bare, "ns"),
        layer("trace.capture.events_per_iter", events_per_iter, "count"),
        layer("platform.supervise.ns_per_iter", supervised - bare, "ns"),
        layer("msgs_per_iter", per_iter(msgs), "count"),
        layer("payload_bytes_per_iter", per_iter(bytes), "B"),
        layer("threads_peak", threads_peak as f64, "count"),
        layer("runqueue_wait_share", runqueue, "ratio"),
        layer(
            "trace_overhead_share",
            stats::median(&spanned_s) / stats::median(&plain_s) - 1.0,
            "ratio",
        ),
        layer(
            "iter_ns",
            stats::median(&plain_s) * 1e9 / count as f64,
            "ns",
        ),
        layer("selfloop8.bare_iter_ns", bare, "ns"),
    ];
    out.extend(cost_layers(count, (allocs, alloc_bytes), usage));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_verifies_every_iteration() {
        for mode in [LoopMode::Bare, LoopMode::Traced, LoopMode::Supervised] {
            let mut round = Round::default();
            let tracer = (mode == LoopMode::Traced).then(|| capture_ring(500));
            assert!(segment(mode, 9, 500, tracer.as_ref(), &mut round).is_some());
            assert_eq!(round.failed, 0, "{mode:?}: {:?}", round.notes);
            assert!(round.attempted >= 500);
        }
    }

    #[test]
    fn an_undersized_capture_ring_is_a_counted_failure() {
        let mut round = Round::default();
        let small = Arc::new(RingTracer::new(1, 16));
        segment(LoopMode::Traced, 9, 100, Some(&small), &mut round);
        assert!(round.failed >= 1);
        assert!(
            round.notes.iter().any(|n| n.contains("dropped")),
            "{:?}",
            round.notes
        );
    }
}
