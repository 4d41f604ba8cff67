//! `spi-benchmark`: the layered, repeatable benchmark of the SPI stack
//! that `BENCHMARK.json` (repository root) describes. Start it through
//! `benchmark/run.sh`, which refuses an instrumented build; see
//! `benchmark/README.md` for what each workload and metric is for.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload (the contract)
//! run.sh [--seed N] [--seconds S] [--quick]              every workload, rounds interleaved
//! run.sh --compare A.json B.json                         gate B against A
//! run.sh --self-test                                     the gate gating itself
//! ```

mod alloc;
mod app1;
mod compare;
mod fir;
mod host;
mod json;
mod ladder;
mod report;
mod runner_trace;
mod selfloop;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{Contract, RunInfo, WorkloadResult};
use workload::{layer, Layer, Round, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end rounds per run. Every round runs one slice of every
/// workload, so slow drift of a shared host lands on all of them.
const ROUNDS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trace {
    /// `--trace 0`: end-to-end rounds only, benchmark-side tracing off.
    Off,
    /// `--trace 1`: the traced round and the ladder only.
    On,
    /// No `--trace`: both, in that order.
    Both,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    quick: bool,
    out: PathBuf,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
    SelfTest,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut run = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: Trace::Both,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = Workload::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name}"))?;
                    run.workloads = vec![w];
                }
            }
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => run.quick = true,
            "--out" => run.out = PathBuf::from(value()?),
            "--compare" => {
                return Ok(Command::Compare(
                    PathBuf::from(value()?),
                    PathBuf::from(value()?),
                ))
            }
            "--self-test" => return Ok(Command::SelfTest),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(run))
}

/// Inputs derived from the seed, generated once per process and only
/// for the workloads that run.
struct Inputs {
    seed: u64,
    quick: bool,
    fir: Option<fir::Inputs>,
    app1: Option<app1::References>,
}

impl Inputs {
    fn fir(&mut self) -> &fir::Inputs {
        self.fir
            .get_or_insert_with(|| fir::Inputs::generate(self.seed))
    }
    fn app1(&mut self) -> &app1::References {
        self.app1
            .get_or_insert_with(|| app1::References::compute(self.seed, self.quick))
    }
}

/// Serial workloads — one thread, or PEs in lock-step with one
/// iteration in flight — run on one CPU, the one the calibration kernel
/// is timed on: nothing in them can overlap, and which vCPUs the guest
/// scheduler would spread them over (a cross-CPU wake-up costs 20–40 µs
/// through the hypervisor, a same-CPU one 2–3 µs) is the host's choice,
/// not the program's. `fir2k_*` places its two PEs itself.
fn pin_serial(w: Workload) -> Option<host::Pin> {
    (!matches!(w, Workload::Fir(_))).then(|| host::Pin::to(host::placement().1))
}

fn end_to_end_round(w: Workload, inputs: &mut Inputs, budget: Duration) -> Round {
    let (seed, quick) = (inputs.seed, inputs.quick);
    let _pin = pin_serial(w);
    match w {
        Workload::SelfLoop(mode) => selfloop::round(mode, seed, budget, quick),
        Workload::Fir(kind) => fir::round(kind, inputs.fir(), budget, quick),
        Workload::App1Lpc => app1::lpc_round(inputs.app1(), budget),
        Workload::DesApp1 => app1::des_round(inputs.app1(), budget),
    }
}

fn traced_round(
    w: Workload,
    inputs: &mut Inputs,
    budget: Duration,
    checks: &mut Round,
    span_file: &mut Option<json::Value>,
) -> Vec<Layer> {
    let (seed, quick) = (inputs.seed, inputs.quick);
    let _pin = pin_serial(w);
    match w {
        Workload::SelfLoop(mode) => selfloop::traced(mode, seed, budget, quick, checks, span_file),
        Workload::Fir(kind) => fir::traced(kind, inputs.fir(), budget, quick, checks, span_file),
        Workload::App1Lpc => app1::lpc_traced(inputs.app1(), budget, checks, span_file),
        Workload::DesApp1 => app1::des_traced(inputs.app1(), budget, checks, span_file),
    }
}

/// The rungs that make up one iteration of `w`, summed: what the ladder
/// can explain of its measured per-iteration time.
fn explained_ns(w: Workload, ladder: &[Layer], layers: &[Layer]) -> f64 {
    let rung = |name| ladder::get(ladder, name);
    let ring_op = rung("platform.transport.ring_op_ns.8B");
    let filter = rung("bench.filter_ns.2k");
    match w {
        Workload::SelfLoop(workload::LoopMode::Bare) => ring_op,
        Workload::SelfLoop(workload::LoopMode::Traced) => {
            ring_op
                + rung("trace.capture.record_ns")
                    * ladder::get(layers, "trace.capture.events_per_iter")
        }
        Workload::SelfLoop(workload::LoopMode::Supervised) => {
            ring_op + rung("platform.supervise.frame_codec_ns.8B")
        }
        Workload::Fir(workload::EdgeKind::Ring) => {
            rung("platform.transport.ring_frame_ns.2k") + filter
        }
        Workload::Fir(workload::EdgeKind::Pointer) => {
            rung("platform.transport.pointer_frame_ns.2k") + filter
        }
        Workload::Fir(workload::EdgeKind::Net) => rung("net.transport.frame_ns.2k") + filter,
        // Every I/O send actor regenerates the frame and its predictor
        // (one per error PE); the error filter's work is split, not
        // repeated.
        Workload::App1Lpc | Workload::DesApp1 => {
            let senders = if w == Workload::DesApp1 {
                app1::DES_PES
            } else {
                app1::THREADED_PES
            } as f64;
            senders
                * (rung("dsp.synth_frame_ns.app1")
                    + rung("dsp.autocorr_fft_ns.app1")
                    + rung("dsp.normal_eq_ns.app1"))
                + rung("dsp.prediction_error_ns.app1")
        }
    }
}

fn write_file(dir: &Path, name: &str, value: &json::Value) {
    let path = dir.join(name);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, value.pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        // A read-only checkout must not turn a measured run into a
        // failed one; the numbers are on stdout either way.
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run(args: Args) -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions on; build with --release");
        return ExitCode::from(2);
    }
    let contract = Contract::load();
    let host = host::HostInfo::detect();
    // Before anything pins a thread.
    host::placement();
    let rounds = if args.quick { 1 } else { ROUNDS };
    let mut inputs = Inputs {
        seed: args.seed,
        quick: args.quick,
        fir: None,
        app1: None,
    };
    let mut results: Vec<WorkloadResult> = args
        .workloads
        .iter()
        .map(|w| WorkloadResult::new(*w))
        .collect();
    println!(
        "spi-benchmark: {} workload(s), seed {}, {} s each, {} round(s), host: {} x {} ({}), {}",
        results.len(),
        args.seed,
        args.seconds,
        rounds,
        host.nproc,
        host.cpu_model,
        host.kernel,
        host.rustc
    );

    if args.trace != Trace::On {
        let slice = Duration::from_secs_f64(args.seconds / rounds as f64);
        for _ in 0..rounds {
            for r in &mut results {
                let round = end_to_end_round(r.workload, &mut inputs, slice);
                r.rounds.push(round);
            }
        }
    }

    if args.trace != Trace::Off {
        // The ladder takes ≈ 1.5 s of a traced run's time.
        let budget = Duration::from_secs_f64((args.seconds - 1.5).max(args.seconds * 0.5));
        let mut span_files = Vec::new();
        let mut calib = Vec::new();
        let calibrate = || {
            let _pin = host::Pin::to(host::placement().1);
            host::calibrate()
        };
        for r in &mut results {
            calib.push(calibrate());
            let mut spans = None;
            r.layers = traced_round(r.workload, &mut inputs, budget, &mut r.traced, &mut spans);
            span_files.push((r.workload, spans));
        }
        calib.push(calibrate());
        let ladder = {
            let _pin = host::Pin::to(host::placement().1);
            ladder::climb(args.seed, &calib)
        };
        for r in &mut results {
            let iter_ns = ladder::get(&r.layers, "iter_ns");
            let unexplained = if iter_ns > 0.0 {
                1.0 - explained_ns(r.workload, &ladder, &r.layers) / iter_ns
            } else {
                0.0
            };
            r.layers
                .push(layer("ledger.unexplained_share", unexplained, "ratio"));
            if let Workload::SelfLoop(_) = r.workload {
                let bare = ladder::get(&r.layers, "selfloop8.bare_iter_ns");
                let ring_op = ladder::get(&ladder, "platform.transport.ring_op_ns.8B");
                r.layers
                    .push(layer("platform.runner.dispatch_ns", bare - ring_op, "ns"));
            }
            r.layers.extend(ladder.iter().cloned());
        }
        // Spans stay in memory until every measurement is done.
        for (w, spans) in span_files {
            if let Some(v) = spans {
                write_file(
                    &args.out,
                    &format!("spans-{}-seed{}.json", w.name(), args.seed),
                    &v,
                );
            }
        }
    }

    report::print_table(&results, &contract);
    let trace = match args.trace {
        Trace::Off => "0",
        Trace::On => "1",
        Trace::Both => "both",
    };
    let info = RunInfo {
        seed: args.seed,
        seconds: args.seconds,
        rounds,
        quick: args.quick,
        trace,
    };
    let scope = if results.len() == 1 {
        results[0].workload.name()
    } else {
        "all"
    };
    write_file(
        &args.out,
        &format!("result-{scope}-seed{}-trace{trace}.json", args.seed),
        &report::result_file(&results, &contract, &host, &info),
    );

    // The contract's last line: one workload's metrics. A run of
    // several workloads prints one line each, the last workload last.
    for r in &results {
        println!("{}", report::summary_line(r, &contract));
    }
    if results.iter().all(|r| r.failed() == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &Path) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let outcome = load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b)));
    match outcome {
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
        Ok(compare::Outcome::HostsDiffer(ha, hb)) => {
            println!("HOSTS DIFFER — not compared (a result is only comparable with one from the same host block)");
            println!("  A: {}", ha.to_json().compact());
            println!("  B: {}", hb.to_json().compact());
            ExitCode::from(3)
        }
        Ok(compare::Outcome::Compared(rows)) => {
            compare::print_rows(&rows);
            if compare::breached(&rows) {
                println!("compare: BREACH — B is worse than A beyond a bound, or lost a metric");
                ExitCode::FAILURE
            } else {
                println!("compare: ok — every end-to-end metric of B is within its bound of A");
                ExitCode::SUCCESS
            }
        }
    }
}

fn self_test() -> ExitCode {
    // The smallest real result: one quick round of one workload.
    let contract = Contract::load();
    let mut r = WorkloadResult::new(Workload::SelfLoop(workload::LoopMode::Bare));
    r.rounds.push(selfloop::round(
        workload::LoopMode::Bare,
        1,
        Duration::from_millis(50),
        true,
    ));
    let info = RunInfo {
        seed: 1,
        seconds: 0.05,
        rounds: 1,
        quick: true,
        trace: "0",
    };
    let file = report::result_file(&[r], &contract, &host::HostInfo::detect(), &info);
    match compare::self_test(&file) {
        Ok(()) => {
            println!("self-test: ok — identical passes, a 30 % slowdown breaches, a dropped metric is flagged, another host is refused");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(args)) => run(args),
        Ok(Command::Compare(a, b)) => compare_files(&a, &b),
        Ok(Command::SelfTest) => self_test(),
        Err(e) => {
            eprintln!("spi-benchmark: {e}");
            eprintln!("usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]");
            eprintln!("       run.sh --compare A.json B.json | --self-test");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Command, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_invocation_parses() {
        let Ok(Command::Run(a)) = args(&[
            "--workload",
            "fir2k_net",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]) else {
            panic!("contract invocation must parse");
        };
        assert_eq!(a.workloads, [Workload::Fir(workload::EdgeKind::Net)]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, Trace::On));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
            &["--compare", "only-one"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// `--quick` on every workload, both halves: finishes in seconds,
    /// every check passes, and what is emitted is what `BENCHMARK.json`
    /// names — no per-layer metric missing from the contract, none in
    /// the contract that no workload measures.
    #[test]
    fn quick_mode_runs_every_workload_correctly_and_matches_the_contract() {
        let _serial = alloc::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let contract = Contract::load();
        let mut inputs = Inputs {
            seed: 11,
            quick: true,
            fir: None,
            app1: None,
        };
        let budget = Duration::from_millis(20);
        let ladder = ladder::climb(11, &[host::calibrate(), host::calibrate()]);
        let mut measured = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            let mut r = WorkloadResult::new(w);
            r.rounds.push(end_to_end_round(w, &mut inputs, budget));
            let mut spans = None;
            r.layers = traced_round(w, &mut inputs, budget, &mut r.traced, &mut spans);
            assert_eq!(r.failed(), 0, "{}: {:?}", w.name(), r.notes());
            assert!(spans.is_some(), "{} wrote no spans", w.name());
            for m in r.end_to_end() {
                assert!(
                    m.value > 0.0 && m.n > 0,
                    "{}.{} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            for l in &r.layers {
                assert!(l.value.is_finite(), "{}.{}", w.name(), l.name);
                assert!(
                    contract
                        .per_layer
                        .iter()
                        .any(|s| s.name == l.name && s.unit == l.unit),
                    "{} emits {} [{}], which BENCHMARK.json does not name",
                    w.name(),
                    l.name,
                    l.unit
                );
                measured.insert(l.name);
            }
        }
        for l in &ladder {
            assert!(
                contract
                    .per_layer
                    .iter()
                    .any(|s| s.name == l.name && s.unit == l.unit),
                "{}",
                l.name
            );
            measured.insert(l.name);
        }
        measured.extend(["ledger.unexplained_share", "platform.runner.dispatch_ns"]);
        for spec in &contract.per_layer {
            assert!(
                measured.contains(spec.name.as_str()),
                "no workload measures {}",
                spec.name
            );
        }
    }
}
