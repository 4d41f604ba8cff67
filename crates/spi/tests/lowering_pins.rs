//! Pins the complete lowering of a fixed set of systems: every
//! `ChannelSpec`, every `EdgePlan` decision, every generated op
//! sequence, the predicted makespan and the DES run's cycle and traffic
//! counts. `lowering_pins.txt` was captured at the commit *before*
//! `system.rs` was split into build / lower / run (less the
//! `spi:fillmark:` marker ops that split removed), so a change to the
//! lowering that moves any eq. (1)/(2) number, drops an op or reorders a
//! program fails here first. Each system is also planned without being
//! lowered ([`SpiSystemBuilder::plan`], what `spi-lint --procs` runs):
//! the report must be the one the built system carries.

use spi::{Firing, SchedulingMode, SpiSystem, SpiSystemBuilder};
use spi_apps::{
    ErrorStageApp, ErrorStageConfig, FilterBankApp, FilterBankConfig, PrognosisApp, PrognosisConfig,
};
use spi_dataflow::psdf::{PsdfGraph, RateExpr};
use spi_dataflow::{ActorId, LengthSignal, SdfGraph};
use spi_platform::Op;
use spi_sched::{Partition, ProcId};
use spi_trace::ClockKind;

const ITERATIONS: u64 = 6;

/// A builder customization; `|b| b` leaves the defaults.
trait Knobs: Fn(&mut SpiSystemBuilder) -> &mut SpiSystemBuilder {}
impl<F: Fn(&mut SpiSystemBuilder) -> &mut SpiSystemBuilder> Knobs for F {}

/// A configured builder, the processor count and the actor assignment:
/// everything `plan` and `build` take.
type Recipe = (SpiSystemBuilder, usize, Box<dyn Fn(ActorId) -> ProcId>);

fn blocks(processors: usize, nodes: usize) -> Partition {
    Partition::blocks(processors, nodes).expect("no more nodes than processors")
}

/// Paper application 1 at the benchmark's configuration.
fn app1(n_pes: usize, knobs: impl Knobs) -> Recipe {
    let app = ErrorStageApp::new(ErrorStageConfig {
        n_pes,
        frame: 512,
        order: 10,
        vary_rates: true,
        seed: 3,
    })
    .expect("valid configuration");
    let mut builder = SpiSystemBuilder::new(app.graph.clone());
    app.configure(&mut builder);
    knobs(builder.iterations(ITERATIONS));
    // `ErrorStageApp::build_with`'s assignment.
    let error_pe = move |a| app.d_error.iter().position(|&d| d == a);
    let assign = move |a| ProcId(error_pe(a).map_or(0, |i| 1 + i));
    (builder, 1 + n_pes, Box::new(assign))
}

fn app2(n_pes: usize) -> Recipe {
    let config = PrognosisConfig {
        n_pes,
        ..PrognosisConfig::default()
    };
    let app = PrognosisApp::new(config).expect("valid configuration");
    let mut builder = SpiSystemBuilder::new(app.graph.clone());
    let configured = app.configure(&mut builder, ITERATIONS);
    configured.expect("scenario covers the iterations");
    builder.iterations(ITERATIONS);
    let map = app.actor_processor_map();
    (builder, n_pes, Box::new(move |a| map[&a]))
}

fn filterbank(knobs: impl Knobs) -> Recipe {
    let app = FilterBankApp::new(FilterBankConfig::default()).expect("valid configuration");
    let mut builder = SpiSystemBuilder::new(app.graph.clone());
    app.configure(&mut builder);
    knobs(builder.iterations(ITERATIONS));
    // `FilterBankApp::system_with`'s assignment.
    let (low, high) = (app.low, app.high);
    let assign = move |a| {
        ProcId(if a == low {
            1
        } else {
            usize::from(a == high) * 2
        })
    };
    (builder, 3, Box::new(assign))
}

/// Three processors: a dynamic-rate edge with two delay tokens, a
/// multirate static edge whose delay leaves both pipeline-fill messages
/// and a primed remainder, and a unit-delay feedback edge.
/// `tests/engine_equivalence.rs::formerly_refused_delayed_plan_runs_on_the_ordered_bus`
/// runs a copy of this graph: change both or neither.
fn delayed(knobs: impl Knobs) -> Recipe {
    let mut g = SdfGraph::new();
    let a = g.add_actor("a", 30);
    let b = g.add_actor("b", 40);
    let c = g.add_actor("c", 25);
    let dynamic = g.add_dynamic_edge(a, b, 16, 16, 2, 1).unwrap();
    let feedback = g.add_edge(b, a, 1, 1, 1, 4).unwrap();
    let multirate = g.add_edge(b, c, 2, 3, 5, 2).unwrap();
    let mut builder = SpiSystemBuilder::new(g);
    builder.actor(a, move |ctx: &mut Firing| {
        let iter = ctx.iter;
        ctx.output(dynamic).resize((iter % 17) as usize, 7);
        30
    });
    builder.actor(b, move |ctx: &mut Firing| {
        ctx.output(feedback).resize(4, 0);
        ctx.output(multirate).resize(4, 1);
        40
    });
    builder.actor(c, |_: &mut Firing| 25);
    knobs(builder.iterations(ITERATIONS));
    (builder, 3, Box::new(|actor| ProcId(actor.0)))
}

/// A multirate fan-out without feedback — every edge is UBS and keeps
/// its acknowledgements — on the ordered-transactions bus, whose grant
/// order repeats each ack once per message its firing receives.
fn fanout_ordered(knobs: impl Knobs) -> Recipe {
    let mut g = SdfGraph::new();
    let a = g.add_actor("a", 30);
    let b = g.add_actor("b", 30);
    let c = g.add_actor("c", 30);
    let ab = g.add_edge(a, b, 2, 3, 0, 2).unwrap();
    let ac = g.add_edge(a, c, 1, 1, 0, 8).unwrap();
    let mut builder = SpiSystemBuilder::new(g);
    builder.actor(a, move |ctx: &mut Firing| {
        ctx.output(ab).resize(4, 1);
        ctx.output(ac).resize(8, 2);
        30
    });
    builder.actor(b, |_: &mut Firing| 30);
    builder.actor(c, |_: &mut Firing| 30);
    knobs(builder.iterations(ITERATIONS).ordered_transactions());
    (builder, 3, Box::new(|actor| ProcId(actor.0)))
}

/// The VTS envelope of a parameterized graph — frame length
/// N ∈ 16..=64, model order M ∈ 2..=8 — one actor per processor, moving
/// a different N and M every iteration, as
/// `examples/parameterized_rates.rs` has them. What is pinned is the
/// reduction: an `SdfGraph` whose two edges are dynamic, bounded by the
/// domain maxima, and lowered like any other.
fn psdf_envelope() -> Recipe {
    let mut psdf = PsdfGraph::new();
    let n = psdf.add_param("N", 16, 64);
    let m = psdf.add_param("M", 2, 8);
    let reader = psdf.add_actor("reader", 30);
    let solver = psdf.add_actor("solver", 80);
    let sink = psdf.add_actor("sink", 20);
    let var = |param| RateExpr::Param { param, mul: 1 };
    let data = psdf.add_edge(reader, solver, var(n), var(n), 0, 8);
    let coef = psdf.add_edge(solver, sink, var(m), var(m), 0, 8);
    let (data, coef) = (data.unwrap(), coef.unwrap());
    let n_at = |iter: u64| (16 + (iter * 7) % 49) as usize;
    let m_at = |iter: u64| (2 + (iter * 3) % 7) as usize;
    let mut builder = SpiSystemBuilder::new(psdf.vts_envelope().expect("bounded domains"));
    builder.actor(reader, move |ctx: &mut Firing| {
        let iter = ctx.iter;
        ctx.output(data).resize(n_at(iter) * 8, 0x11);
        30
    });
    builder.actor(solver, move |ctx: &mut Firing| {
        assert_eq!(ctx.input(data).len(), n_at(ctx.iter) * 8);
        let iter = ctx.iter;
        ctx.output(coef).resize(m_at(iter) * 8, 0x22);
        80
    });
    builder.actor(sink, move |ctx: &mut Firing| {
        assert_eq!(ctx.input(coef).len(), m_at(ctx.iter) * 8);
        20
    });
    builder.iterations(ITERATIONS);
    (builder, 3, Box::new(|actor| ProcId(actor.0)))
}

/// Two processors on two nodes: a forward edge closed by a feedback edge
/// carrying 15 delay tokens, so the feedback edge's eq. (2) window is 16
/// messages (the forward edge's 15) and each socket batches a quarter of
/// its window — the `batch_plan` rule, which no window under 8 shows.
fn loop_window_16() -> Recipe {
    let mut g = SdfGraph::new();
    let a = g.add_actor("a", 20);
    let b = g.add_actor("b", 20);
    let forward = g.add_edge(a, b, 1, 1, 0, 8).unwrap();
    let back = g.add_edge(b, a, 1, 1, 15, 8).unwrap();
    let mut builder = SpiSystemBuilder::new(g);
    builder.actor(a, move |ctx: &mut Firing| {
        ctx.output(forward).resize(8, 3);
        20
    });
    builder.actor(b, move |ctx: &mut Firing| {
        ctx.output(back).resize(8, 4);
        20
    });
    builder.iterations(ITERATIONS).partition(blocks(2, 2));
    (builder, 2, Box::new(|actor| ProcId(actor.0)))
}

/// `ops` as text, runs of one op folded to `NxOp`.
fn folded(ops: &[Op]) -> String {
    let mut runs: Vec<(String, usize)> = Vec::new();
    for op in ops {
        let text = format!("{op:?}");
        match runs.last_mut() {
            Some((last, n)) if *last == text => *n += 1,
            _ => runs.push((text, 1)),
        }
    }
    let text = runs.iter().map(|(op, n)| match n {
        1 => op.clone(),
        n => format!("{n}x{op}"),
    });
    text.collect::<Vec<_>>().join(" ")
}

fn dump(name: &str, recipe: &dyn Fn() -> Recipe) -> Vec<String> {
    let make = || -> SpiSystem {
        let (builder, processors, assign) = recipe();
        let planned = builder.plan(processors, &assign);
        let planned = planned.unwrap_or_else(|e| panic!("{name} plans: {e}"));
        let sys = builder.build(processors, &assign);
        let sys = sys.unwrap_or_else(|e| panic!("{name} lowers: {e}"));
        assert_eq!(&planned, sys.analysis(), "{name}: plan-only report");
        sys
    };
    let sys = make();
    let mut out = vec![format!("== {name}")];
    let mut plans: Vec<_> = sys.edge_plans().values().collect();
    plans.sort_by_key(|p| p.edge);
    out.extend(plans.iter().map(|p| {
        let (edge, phase, protocol) = (p.edge, p.phase, p.protocol);
        let (payload_max, src, dst) = (p.payload_max, p.src_proc, p.dst_proc);
        let (bound_tokens, bound_msgs) = (p.bound_tokens, p.bound_msgs);
        let (ack_kept, data, ack) = (p.ack_kept, p.data_ch, p.ack_ch);
        format!(
            "plan {edge} {phase:?} payload_max={payload_max} {src}->{dst} {protocol:?} \
             bound_tokens={bound_tokens:?} bound_msgs={bound_msgs:?} ack_kept={ack_kept} \
             data={data} ack={ack:?}"
        )
    }));
    out.extend(plans.iter().filter_map(|p| {
        let (edge, batch) = (p.edge, p.batch?);
        let (max_msgs, flush_after) = (batch.max_msgs, batch.flush_after);
        Some(format!(
            "batch {edge} max_msgs={max_msgs} flush_after={flush_after:?}"
        ))
    }));
    let rows = sys.buffer_report();
    out.extend(rows.iter().map(|row| format!("buffer {row}")));
    let meta = sys.trace_meta(ClockKind::Cycles);
    out.extend(meta.edges.iter().map(|e| {
        let (edge, channel, capacity) = (e.edge, e.channel, e.capacity_bytes);
        let (max_message, bound_tokens) = (e.max_message_bytes, e.bound_tokens);
        format!(
            "bound {edge} {channel} capacity={capacity} max_message={max_message} \
             bound_tokens={bound_tokens:?}"
        )
    }));
    let budgets = meta.batch_bounds.iter();
    out.extend(budgets.map(|b| format!("batch_bound {} max_msgs={}", b.channel, b.max_msgs)));
    let warnings: Vec<&str> = sys.analysis_warnings().iter().map(|d| d.code).collect();
    out.push(format!("warnings {warnings:?}"));
    out.push(format!("library {:?}", sys.library().spi_library));
    out.push(format!("sync_cost {}", sys.sync_cost()));
    out.push(format!("predicted {:?}", sys.predicted_makespan_cycles()));
    let (channels, programs) = sys.into_parts();
    out.extend(channels.iter().enumerate().map(|(i, ch)| {
        let (capacity, max_message) = (ch.capacity_bytes, ch.max_message_bytes);
        format!("ch{i} capacity_bytes={capacity} max_message_bytes={max_message}")
    }));
    for (i, program) in programs.iter().enumerate() {
        let (iterations, speed) = (program.iterations, program.speed);
        out.push(format!("pe{i} iterations={iterations} speed={speed:?}"));
        out.push(format!("  prologue: {}", folded(&program.prologue)));
        out.push(format!("  loop: {}", folded(&program.ops)));
    }
    let sim = make().run().unwrap_or_else(|e| panic!("{name}: {e}")).sim;
    let (makespan, messages, bytes) =
        (sim.makespan_cycles, sim.total_messages(), sim.total_bytes());
    out.push(format!(
        "des makespan_cycles={makespan} total_messages={messages} total_bytes={bytes}"
    ));
    out
}

#[test]
fn lowering_matches_the_pinned_capture() {
    let static_10 = SchedulingMode::FullyStatic { slack_percent: 10 };
    let systems: [(&str, &dyn Fn() -> Recipe); 17] = [
        ("app1 n=1", &|| app1(1, |b| b)),
        ("app1 n=2", &|| app1(2, |b| b)),
        ("app1 n=4", &|| app1(4, |b| b)),
        ("app2 n=1", &|| app2(1)),
        ("app2 n=2", &|| app2(2)),
        ("filterbank", &|| filterbank(|b| b)),
        ("delayed", &|| delayed(|b| b)),
        ("delayed delimiter", &|| {
            delayed(|b| b.length_signal(LengthSignal::Delimiter))
        }),
        ("delayed force_ubs", &|| delayed(|b| b.force_ubs(true))),
        ("fanout ordered-bus", &|| fanout_ordered(|b| b)),
        ("delayed fully-static", &|| {
            delayed(|b| b.scheduling_mode(static_10))
        }),
        ("filterbank partitioned 3 procs / 2 nodes", &|| {
            filterbank(|b| b.partition(blocks(3, 2)))
        }),
        ("delayed force_ubs partitioned 3 procs / 3 nodes", &|| {
            delayed(|b| b.force_ubs(true).partition(blocks(3, 3)))
        }),
        ("fanout ordered-bus partitioned 3 procs / 2 nodes", &|| {
            fanout_ordered(|b| b.partition(blocks(3, 2)))
        }),
        ("app1 n=2 partitioned 3 procs / 3 nodes", &|| {
            app1(2, |b| b.partition(blocks(3, 3)))
        }),
        ("psdf envelope N=16..=64 M=2..=8", &psdf_envelope),
        (
            "loop window=16 partitioned 2 procs / 2 nodes",
            &loop_window_16,
        ),
    ];
    let actual: Vec<String> = systems
        .iter()
        .flat_map(|(name, make)| dump(name, make))
        .collect();
    let pinned: Vec<&str> = include_str!("lowering_pins.txt").lines().collect();
    if actual == pinned {
        return;
    }
    let line = (0..actual.len().max(pinned.len()))
        .find(|&i| actual.get(i).map(String::as_str) != pinned.get(i).copied())
        .expect("the dumps differ");
    panic!(
        "lowering differs from lowering_pins.txt at line {}:\n  pinned: {}\n  actual: {}\n\
         ---- full actual dump ----\n{}",
        line + 1,
        pinned.get(line).unwrap_or(&"<end of file>"),
        actual.get(line).map_or("<end of dump>", String::as_str),
        actual.join("\n"),
    );
}
