//! Ablation studies quantifying SPI's design choices (DESIGN.md §7).

use spi::{SchedulingMode, SpiSystemBuilder};
use spi_apps::{ErrorStageApp, ErrorStageConfig, PrognosisApp, PrognosisConfig};
use spi_dataflow::LengthSignal;
use spi_platform::{ChannelSpec, Machine, Program};

use crate::mpi::{MpiEndpoint, CONTROL_BYTES, ENVELOPE_BYTES};

/// One ablation comparison: a label plus the two measured values.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// What is being compared.
    pub label: String,
    /// Baseline measurement.
    pub baseline: f64,
    /// Optimized/SPI measurement.
    pub optimized: f64,
    /// Unit of the measurements.
    pub unit: &'static str,
}

impl AblationRow {
    /// Baseline ÷ optimized (how much the optimization wins).
    pub fn improvement(&self) -> f64 {
        if self.optimized == 0.0 {
            f64::INFINITY
        } else {
            self.baseline / self.optimized
        }
    }
}

impl std::fmt::Display for AblationRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} baseline {:>10.2} {unit} | optimized {:>10.2} {unit} | {:>5.2}×",
            self.label,
            self.baseline,
            self.optimized,
            self.improvement(),
            unit = self.unit,
        )
    }
}

/// SPI vs a generic MPI layer on an identical producer→consumer stream:
/// same payloads, same channel hardware, different protocol overheads
/// (SPI: 2-byte edge-id header, no matching, no rendezvous; MPI: 24-byte
/// envelope, matching cycles, rendezvous above the eager limit).
pub fn ablation_spi_vs_mpi(payload_bytes: usize, messages: u64) -> AblationRow {
    // ---- MPI side ----------------------------------------------------
    let n = payload_bytes;
    let mut m = Machine::new();
    // The largest data message is an eager one: envelope plus payload.
    let data = m.add_channel(ChannelSpec {
        capacity_bytes: 1 << 20,
        max_message_bytes: ENVELOPE_BYTES + n,
    });
    let ctrl = m.add_channel(ChannelSpec {
        capacity_bytes: 4096,
        max_message_bytes: CONTROL_BYTES,
    });
    let ep = MpiEndpoint::new(data, Some(ctrl));
    m.add_pe(Program::new(
        ep.send_ops(n, move |_| vec![0xA5; n])
            .expect("control channel supplied"),
        messages,
    ));
    m.add_pe(Program::new(
        ep.recv_ops(n, "sink").expect("control channel supplied"),
        messages,
    ));
    let mpi_report = m.run().expect("mpi baseline runs");
    let mpi_us = mpi_report.makespan_us(100.0);

    // ---- SPI side ------------------------------------------------------
    // The same stream expressed as a 2-actor SPI system with a static
    // edge of the same payload size.
    let mut g = spi_dataflow::SdfGraph::new();
    let src = g.add_actor("src", 1);
    let snk = g.add_actor("snk", 1);
    let e = g
        .add_edge(src, snk, 1, 1, 0, payload_bytes as u32)
        .expect("edge");
    let mut b = SpiSystemBuilder::new(g);
    b.actor(src, move |ctx: &mut spi::Firing| {
        ctx.output(e).resize(n, 0xA5);
        1
    });
    b.actor(snk, |_: &mut spi::Firing| 1);
    b.iterations(messages);
    let sys = b
        .build(2, |a| spi_sched::ProcId(a.0))
        .expect("spi system builds");
    let spi_us = sys.run().expect("spi runs").makespan_us();

    AblationRow {
        label: format!("{payload_bytes} B × {messages} msgs: MPI vs SPI"),
        baseline: mpi_us,
        optimized: spi_us,
        unit: "µs",
    }
}

/// Resynchronization on vs off: synchronization-edge count on the
/// BBS-protocol error stage, plus — the paper's headline §4.1 effect —
/// acknowledgement *message* elimination when the same system is forced
/// onto SPI_UBS (resynchronization proves every ack redundant against
/// the I/O processor's loop structure and deletes it).
pub fn ablation_resync(n_pes: usize, frames: u64) -> Vec<AblationRow> {
    let run = |resync: bool, force_ubs: bool| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes,
            ..Default::default()
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder);
        builder.iterations(frames);
        builder.resynchronization(resync);
        builder.force_ubs(force_ubs);
        let sys = app.build_with(builder).expect("buildable");
        let sync_cost = sys.sync_cost() as f64;
        let report = sys.run().expect("clean run");
        (
            report.period_us(),
            report.sim.total_messages() as f64,
            sync_cost,
        )
    };
    let (_, _, sync_off) = run(false, false);
    let (_, _, sync_on) = run(true, false);
    let (t_ubs_off, msgs_ubs_off, _) = run(false, true);
    let (t_ubs_on, msgs_ubs_on, _) = run(true, true);
    vec![
        AblationRow {
            label: format!("{n_pes}-PE error stage: sync edges without/with"),
            baseline: sync_off,
            optimized: sync_on,
            unit: "edges",
        },
        AblationRow {
            label: format!("{n_pes}-PE error stage (UBS): ack+data msgs without/with"),
            baseline: msgs_ubs_off,
            optimized: msgs_ubs_on,
            unit: "msgs",
        },
        AblationRow {
            label: format!("{n_pes}-PE error stage (UBS): period without/with"),
            baseline: t_ubs_off,
            optimized: t_ubs_on,
            unit: "µs",
        },
    ]
}

/// BBS vs forced UBS on the particle-filter app (which has feedback-free
/// sum edges that BBS cannot bound — forcing UBS everywhere shows the
/// ack cost the protocol-selection rule avoids where BBS applies).
pub fn ablation_bbs_vs_ubs(n_pes: usize, steps: u64) -> AblationRow {
    let run = |force_ubs: bool| {
        let app = PrognosisApp::new(PrognosisConfig {
            n_pes,
            steps: steps as usize,
            ..Default::default()
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder, steps).expect("configured");
        builder.iterations(steps);
        builder.force_ubs(force_ubs);
        builder.resynchronization(false); // isolate the protocol effect
        let map = app.actor_processor_map();
        let sys = builder.build(n_pes, move |a| map[&a]).expect("buildable");
        sys.run().expect("clean run").sim.total_messages() as f64
    };
    AblationRow {
        label: format!("{n_pes}-PE particle filter: msgs UBS-forced vs selected"),
        baseline: run(true),
        optimized: run(false),
        unit: "msgs",
    }
}

/// Header vs delimiter length signalling on the dynamic-heavy error
/// stage (the paper's §3 argument for headers on FPGA targets).
pub fn ablation_header_vs_delimiter(n_pes: usize, frames: u64) -> AblationRow {
    let run = |signal: LengthSignal| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes,
            frame: 512,
            order: 10,
            ..Default::default()
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder);
        builder.iterations(frames);
        builder.length_signal(signal);
        let sys = app.build_with(builder).expect("buildable");
        sys.run().expect("clean run").period_us()
    };
    AblationRow {
        label: format!("{n_pes}-PE error stage: delimiter vs header signalling"),
        baseline: run(LengthSignal::Delimiter),
        optimized: run(LengthSignal::Header),
        unit: "µs",
    }
}

/// Self-timed vs fully-static scheduling under execution-time jitter —
/// the paper's §2 argument for self-timed made measurable. Actors
/// declare a mean estimate but actually take `mean × U(1−j, 1+j)`; the
/// fully-static schedule must budget worst case (slack = jitter), while
/// self-timed absorbs the variation.
pub fn ablation_selftimed_vs_static(jitter_percent: u32, iterations: u64) -> AblationRow {
    let build = |mode: SchedulingMode| {
        let mut g = spi_dataflow::SdfGraph::new();
        let stages = 4usize;
        let mean = 100u64;
        let actors: Vec<_> = (0..stages)
            .map(|i| g.add_actor(format!("s{i}"), mean))
            .collect();
        let mut edges = Vec::new();
        for w in actors.windows(2) {
            edges.push(g.add_edge(w[0], w[1], 1, 1, 0, 4).expect("edge"));
        }
        let mut b = SpiSystemBuilder::new(g);
        for (i, &a) in actors.iter().enumerate() {
            let out_edge = edges.get(i).copied();
            b.actor(a, move |ctx: &mut spi::Firing| {
                if let Some(e) = out_edge {
                    ctx.output(e).resize(4, 0);
                }
                // Deterministic jitter in [1−j, 1+j] around the mean.
                let h = ctx
                    .iter
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(i as u64)
                    >> 33;
                let frac = (h % 2001) as f64 / 1000.0 - 1.0; // [-1, 1)
                let factor = 1.0 + frac * f64::from(jitter_percent) / 100.0;
                (mean as f64 * factor).round() as u64
            });
        }
        b.iterations(iterations);
        b.scheduling_mode(mode);
        let sys = b
            .build(stages, |x| spi_sched::ProcId(x.0))
            .expect("buildable");
        sys.run().expect("clean run").period_us()
    };
    AblationRow {
        label: format!("4-stage pipeline, ±{jitter_percent}% jitter: static vs self-timed"),
        baseline: build(SchedulingMode::FullyStatic {
            slack_percent: jitter_percent,
        }),
        optimized: build(SchedulingMode::SelfTimed),
        unit: "µs",
    }
}

/// Hardware/software co-design sensitivity: the error stage with its
/// I/O processor at hardware speed vs slowed `sw_factor×` (a soft-core
/// CPU next to custom PEs, the paper's actual deployment). Returns
/// `(n, period_hw_io, period_sw_io)` per PE count — the software I/O
/// side caps the parallel speedup.
pub fn hwsw_codesign_sweep(
    pe_counts: &[usize],
    sw_factor: u64,
    frames: u64,
) -> Vec<(usize, f64, f64)> {
    let run = |n: usize, factor: u64| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes: n,
            frame: 512,
            order: 10,
            ..Default::default()
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder);
        builder.iterations(frames);
        builder.processor_speed(spi_sched::ProcId(0), factor, 1);
        let sys = app.build_with(builder).expect("buildable");
        sys.run().expect("clean run").period_us()
    };
    pe_counts
        .iter()
        .map(|&n| (n, run(n, 1), run(n, sw_factor)))
        .collect()
}

/// Point-to-point FIFOs vs a shared-bus interconnect on the
/// error-generation stage: SPI assumes dedicated channels (the FPGA
/// fabric provides them); a bus-based MPSoC serializes transfers.
pub fn ablation_bus_vs_p2p(n_pes: usize, frames: u64) -> AblationRow {
    let run = |bus: bool| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes,
            frame: 512,
            order: 10,
            ..Default::default()
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder);
        builder.iterations(frames);
        if bus {
            builder.shared_bus(spi_platform::BusSpec {
                arbitration_cycles: 4,
            });
        }
        let sys = app.build_with(builder).expect("buildable");
        sys.run().expect("clean run").period_us()
    };
    AblationRow {
        label: format!("{n_pes}-PE error stage: shared bus vs point-to-point"),
        baseline: run(true),
        optimized: run(false),
        unit: "µs",
    }
}

/// Ordered-transactions bus vs an arbitrated shared bus on the error
/// stage: the compile-time grant order removes per-transfer arbitration
/// (Sriram's strategy; the paper's "other scheduling models" future
/// work).
pub fn ablation_ordered_vs_arbitrated(n_pes: usize, frames: u64) -> AblationRow {
    let run = |ordered: bool| {
        let app = ErrorStageApp::new(ErrorStageConfig {
            n_pes,
            frame: 512,
            order: 10,
            ..Default::default()
        })
        .expect("valid config");
        let mut builder = SpiSystemBuilder::new(app.graph.clone());
        app.configure(&mut builder);
        builder.iterations(frames);
        if ordered {
            builder.ordered_transactions();
        } else {
            builder.shared_bus(spi_platform::BusSpec {
                arbitration_cycles: 8,
            });
        }
        let sys = app.build_with(builder).expect("buildable");
        sys.run().expect("clean run").period_us()
    };
    AblationRow {
        label: format!("{n_pes}-PE error stage: arbitrated vs ordered bus"),
        baseline: run(false),
        optimized: run(true),
        unit: "µs",
    }
}

/// VTS vs worst-case-static modeling of a dynamic edge: VTS transfers
/// only the actual bytes; a static edge always moves the declared
/// maximum. Measures bytes on the wire for the same workload.
pub fn ablation_vts_vs_worst_case(max_tokens: u32, iterations: u64) -> AblationRow {
    // Workload: actual size = iter % (max+1) tokens of 4 bytes.
    let actual = move |iter: u64| ((iter % (u64::from(max_tokens) + 1)) * 4) as usize;

    // ---- Worst-case static: always max_tokens tokens ------------------
    let bytes_static = {
        let mut g = spi_dataflow::SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b_ = g.add_actor("B", 1);
        let e = g
            .add_edge(a, b_, max_tokens, max_tokens, 0, 4)
            .expect("edge");
        let mut b = SpiSystemBuilder::new(g);
        let payload = (max_tokens * 4) as usize;
        b.actor(a, move |ctx: &mut spi::Firing| {
            let n = actual(ctx.iter).min(payload);
            let buf = ctx.output(e);
            buf.resize(n, 0xFF); // real data padded to max
            buf.resize(payload, 0);
            1
        });
        b.actor(b_, |_: &mut spi::Firing| 1);
        b.iterations(iterations);
        let sys = b.build(2, |x| spi_sched::ProcId(x.0)).expect("buildable");
        sys.run().expect("clean run").sim.total_bytes() as f64
    };

    // ---- VTS dynamic: transfer only the actual bytes -------------------
    let bytes_vts = {
        let mut g = spi_dataflow::SdfGraph::new();
        let a = g.add_actor("A", 1);
        let b_ = g.add_actor("B", 1);
        let e = g
            .add_dynamic_edge(a, b_, max_tokens, max_tokens, 0, 4)
            .expect("edge");
        let mut b = SpiSystemBuilder::new(g);
        b.actor(a, move |ctx: &mut spi::Firing| {
            let iter = ctx.iter;
            ctx.output(e).resize(actual(iter), 0xFF);
            1
        });
        b.actor(b_, |_: &mut spi::Firing| 1);
        b.iterations(iterations);
        let sys = b.build(2, |x| spi_sched::ProcId(x.0)).expect("buildable");
        sys.run().expect("clean run").sim.total_bytes() as f64
    };

    AblationRow {
        label: format!("dynamic edge ≤{max_tokens} tokens: worst-case-static vs VTS"),
        baseline: bytes_static,
        optimized: bytes_vts,
        unit: "bytes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spi_beats_mpi_on_small_messages() {
        let row = ablation_spi_vs_mpi(32, 50);
        assert!(
            row.improvement() > 1.0,
            "SPI must beat MPI on small messages: {row}"
        );
    }

    #[test]
    fn spi_beats_mpi_on_rendezvous_sized_messages() {
        let row = ablation_spi_vs_mpi(1024, 20);
        assert!(row.improvement() > 1.0, "{row}");
    }

    #[test]
    fn resync_never_hurts_and_removes_acks() {
        let rows = ablation_resync(3, 4);
        for row in &rows {
            assert!(
                row.optimized <= row.baseline * 1.02,
                "resync must not regress: {row}"
            );
        }
        // The forced-UBS message row must show real ack elimination.
        assert!(
            rows[1].baseline > rows[1].optimized,
            "resynchronization must delete acknowledgement messages: {}",
            rows[1]
        );
    }

    #[test]
    fn forced_ubs_sends_more_messages() {
        let row = ablation_bbs_vs_ubs(2, 6);
        assert!(
            row.baseline >= row.optimized,
            "forcing UBS cannot reduce traffic: {row}"
        );
    }

    #[test]
    fn header_beats_delimiter() {
        let row = ablation_header_vs_delimiter(2, 4);
        assert!(
            row.optimized <= row.baseline,
            "headers must not be slower than delimiter scans: {row}"
        );
    }

    #[test]
    fn self_timed_absorbs_jitter_better_than_static() {
        let row = ablation_selftimed_vs_static(30, 40);
        assert!(
            row.improvement() > 1.05,
            "static worst-case budgeting must cost real time: {row}"
        );
    }

    #[test]
    fn software_io_caps_parallel_speedup() {
        let rows = hwsw_codesign_sweep(&[1, 4], 4, 4);
        let (_, hw1, sw1) = rows[0];
        let (_, hw4, sw4) = rows[1];
        let hw_speedup = hw1 / hw4;
        let sw_speedup = sw1 / sw4;
        assert!(
            sw_speedup < hw_speedup,
            "software I/O must cap speedup: hw {hw_speedup:.2} vs sw {sw_speedup:.2}"
        );
    }

    #[test]
    fn ordered_bus_beats_arbitrated_bus() {
        let row = ablation_ordered_vs_arbitrated(3, 4);
        assert!(
            row.optimized <= row.baseline * 1.05,
            "removing arbitration must not cost time: {row}"
        );
    }

    #[test]
    fn shared_bus_is_never_faster() {
        let row = ablation_bus_vs_p2p(4, 4);
        assert!(row.baseline >= row.optimized * 0.999, "{row}");
    }

    #[test]
    fn vts_moves_fewer_bytes() {
        let row = ablation_vts_vs_worst_case(64, 40);
        assert!(row.improvement() > 1.5, "VTS must save real traffic: {row}");
    }
}
