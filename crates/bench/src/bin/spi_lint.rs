//! `spi-lint` — static analysis of DIF dataflow files, and runtime
//! trace conformance.
//!
//! Runs the full `spi-analyze` pipeline over each DIF file and renders
//! the diagnostics. With `--procs N` the graph is additionally pushed
//! through scheduling (round-robin actor assignment, like the stress
//! harness) so the schedule-level passes — protocol lints, sync
//! coverage, resynchronization fixpoint — run too.
//!
//! The `trace-check` subcommand instead replays captured `spi-trace`
//! files (native `# spi-trace v1` format) against the bounds recorded
//! in their metadata — eq. (2) occupancy, eq. (1) message size,
//! per-channel FIFO, token conservation and the predicted makespan —
//! emitting the `SPI080`–`SPI085` runtime diagnostics.
//!
//! The `race-check` subcommand replays the same trace files through the
//! vector-clock happens-before checker in `spi_trace::race`, emitting the
//! `SPI100`–`SPI106` concurrency diagnostics (unordered accesses,
//! premature receives, unsynchronized buffer-slot reuse).
//!
//! Usage:
//!   spi-lint [--format human|json] [--procs N] [--force-ubs]
//!            [--no-resync] [--delimiter] FILE...
//!   spi-lint trace-check [--format human|json] TRACE...
//!   spi-lint race-check [--format human|json] TRACE...
//!
//! Exit status: 0 clean (warnings allowed), 1 when any error-severity
//! diagnostic fires, 2 on usage or parse problems.

use std::collections::HashMap;
use std::process::ExitCode;

use spi_analyze::{AnalysisInput, Analyzer, EdgeDecl};
use spi_dataflow::dif::from_dif;
use spi_dataflow::{EdgeId, LengthSignal, PrecedenceGraph, SdfGraph, VtsConversion};
use spi_sched::{
    Assignment, IpcEdgeKind, IpcGraph, ProcId, Protocol, SelfTimedSchedule, SyncGraph,
};

struct Options {
    json: bool,
    procs: Option<usize>,
    force_ubs: bool,
    resync: bool,
    delimiter: bool,
    files: Vec<String>,
}

fn usage() -> &'static str {
    "usage: spi-lint [--format human|json] [--procs N] [--force-ubs] \
     [--no-resync] [--delimiter] FILE..."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        procs: None,
        force_ubs: false,
        resync: true,
        delimiter: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                match it.next().map(String::as_str) {
                    Some("json") => opts.json = true,
                    Some("human") => opts.json = false,
                    Some(other) => {
                        return Err(format!("--format expects human|json, got `{other}`"))
                    }
                    None => return Err("--format expects human|json".into()),
                };
            }
            "--procs" => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--procs expects a positive integer")?;
                opts.procs = Some(n);
            }
            "--force-ubs" => opts.force_ubs = true,
            "--no-resync" => opts.resync = false,
            "--delimiter" => opts.delimiter = true,
            "--help" | "-h" => return Err(usage().to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err(usage().to_string());
    }
    Ok(opts)
}

/// Mirrors the builder's schedule derivation far enough to feed the
/// schedule-level passes: VTS → precedence graph → round-robin actor
/// assignment → IPC graph → protocol selection → sync graph (+ resync).
struct ScheduleArtifacts {
    vts: VtsConversion,
    ipc: IpcGraph,
    sync: SyncGraph,
    resync_cert: Option<spi_sched::ResyncCertificate>,
    edges: Vec<EdgeDecl>,
}

fn derive_schedule(
    graph: &SdfGraph,
    procs: usize,
    force_ubs: bool,
    resync: bool,
) -> Result<ScheduleArtifacts, String> {
    let vts = VtsConversion::convert(graph).map_err(|e| e.to_string())?;
    let cg = vts.graph().clone();
    let pg = PrecedenceGraph::expand(&cg).map_err(|e| e.to_string())?;
    let assignment =
        Assignment::by_actor(&pg, procs, |a| ProcId(a.0 % procs)).map_err(|e| e.to_string())?;
    let st = SelfTimedSchedule::from_assignment(&pg, assignment).map_err(|e| e.to_string())?;
    let ipc = IpcGraph::build(&cg, &pg, &st).map_err(|e| e.to_string())?;

    // eq. (2) bound per edge, folded with MAX; one unbounded instance
    // forces UBS (the fold the system builder uses).
    let bounds = ipc.buffer_bounds_by_edge();
    let mut max_delay: HashMap<EdgeId, u64> = HashMap::new();
    for e in ipc.ipc_edges() {
        if let IpcEdgeKind::Ipc { via } = e.kind {
            let d = max_delay.entry(via).or_insert(0);
            *d = (*d).max(e.delay);
        }
    }
    let q = pg.repetitions().clone();
    let protocols: HashMap<EdgeId, Protocol> = bounds
        .iter()
        .map(|(&via, &bound)| {
            let protocol = match bound {
                Some(b) if !force_ubs => Protocol::Bbs {
                    capacity: b.max(max_delay[&via] + 1),
                },
                _ => Protocol::Ubs {
                    ack_window: q[cg.edge(via).src].max(1),
                },
            };
            (via, protocol)
        })
        .collect();

    let mut sync = SyncGraph::from_ipc(&ipc, |e| {
        let IpcEdgeKind::Ipc { via } = e.kind else {
            unreachable!("protocol_of is only called for IPC edges")
        };
        match protocols[&via] {
            Protocol::Ubs { .. } => Protocol::Ubs { ack_window: 1 },
            bbs => bbs,
        }
    })
    .map_err(|e| e.to_string())?;
    let resync_cert = if resync {
        // Certified variant: the SPI061/SPI062 pass re-verifies every
        // removal proof against the final graph during the lint run.
        Some(sync.resynchronize_certified(true, None).1)
    } else {
        None
    };
    Ok(ScheduleArtifacts {
        vts,
        ipc,
        sync,
        resync_cert,
        edges: protocols
            .into_iter()
            .map(|(edge, protocol)| EdgeDecl {
                edge,
                protocol,
                transport: None,
                net_transport: None,
            })
            .collect(),
    })
}

fn lint_file(path: &str, opts: &Options) -> Result<spi_analyze::AnalysisReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let graph = from_dif(&text).map_err(|e| format!("{path}: {e}"))?;
    let signal = if opts.delimiter {
        LengthSignal::Delimiter
    } else {
        LengthSignal::Header
    };

    let analyzer = Analyzer::default_pipeline();
    let report = match opts.procs {
        None => analyzer.run(&AnalysisInput::new(&graph).with_signal(signal)),
        Some(procs) => {
            // Graph-level errors make schedule derivation meaningless;
            // report them directly.
            let graph_report = analyzer.run(&AnalysisInput::new(&graph).with_signal(signal));
            if graph_report.has_errors() {
                graph_report
            } else {
                let art = derive_schedule(&graph, procs, opts.force_ubs, opts.resync)
                    .map_err(|e| format!("{path}: scheduling failed: {e}"))?;
                let mut input = AnalysisInput::new(&graph)
                    .with_vts(&art.vts)
                    .with_signal(signal)
                    .with_ipc(&art.ipc)
                    .with_sync(&art.sync)
                    .with_edges(&art.edges);
                if let Some(cert) = &art.resync_cert {
                    input = input.with_resync_cert(cert);
                }
                analyzer.run(&input)
            }
        }
    };
    Ok(report)
}

/// `trace-check TRACE...`: replay each captured trace file against its
/// recorded bounds and render the conformance report.
fn trace_check(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                _ => {
                    eprintln!("--format expects human|json");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: spi-lint trace-check [--format human|json] TRACE...");
                return ExitCode::from(2);
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: spi-lint trace-check [--format human|json] TRACE...");
        return ExitCode::from(2);
    }

    let mut any_error = false;
    let mut json_files: Vec<String> = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        let trace = match spi_trace::Trace::from_native(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = spi_trace::check(&trace);
        any_error |= report.has_errors();
        if json {
            let diags: Vec<String> = report
                .diagnostics
                .iter()
                .map(spi_analyze::Diagnostic::render_json)
                .collect();
            json_files.push(format!(
                "{{\"file\":{},\"events\":{},\"channels\":{},\"messages\":{},\
                 \"observed_makespan\":{},\"predicted_makespan\":{},\"slack\":{},\
                 \"diagnostics\":[{}]}}",
                json_escape(path),
                trace.events.len(),
                report.channels_checked,
                report.messages_checked,
                report.observed_makespan,
                report
                    .predicted_makespan
                    .map_or_else(|| "null".into(), |v| v.to_string()),
                report
                    .slack
                    .map_or_else(|| "null".into(), |v| v.to_string()),
                diags.join(",")
            ));
        } else {
            println!("{path}:");
            print!("{}", report.render_human());
        }
    }
    if json {
        println!("[{}]", json_files.join(","));
    }
    if any_error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `race-check TRACE...`: replay each captured trace through the
/// vector-clock happens-before checker and render the SPI100–SPI106
/// concurrency report.
fn race_check(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                _ => {
                    eprintln!("--format expects human|json");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: spi-lint race-check [--format human|json] TRACE...");
                return ExitCode::from(2);
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: spi-lint race-check [--format human|json] TRACE...");
        return ExitCode::from(2);
    }

    let mut any_error = false;
    let mut json_files: Vec<String> = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        let trace = match spi_trace::Trace::from_native(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = spi_trace::race::race_check(&trace);
        any_error |= report.has_errors();
        if json {
            let diags: Vec<String> = report
                .diagnostics
                .iter()
                .map(spi_analyze::Diagnostic::render_json)
                .collect();
            json_files.push(format!(
                "{{\"file\":{},\"events\":{},\"channels\":{},\"hb_edges\":{},\
                 \"diagnostics\":[{}]}}",
                json_escape(path),
                report.events,
                report.channels,
                report.hb_edges,
                diags.join(",")
            ));
        } else {
            println!("{path}:");
            print!("{}", report.render_human());
        }
    }
    if json {
        println!("[{}]", json_files.join(","));
    }
    if any_error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-check") {
        return trace_check(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("race-check") {
        return race_check(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut any_error = false;
    let mut json_files: Vec<String> = Vec::new();
    for path in &opts.files {
        match lint_file(path, &opts) {
            Ok(report) => {
                any_error |= report.has_errors();
                if opts.json {
                    json_files.push(format!(
                        "{{\"file\":{},\"report\":{}}}",
                        json_escape(path),
                        report.render_json()
                    ));
                } else {
                    println!("{path}:");
                    print!("{}", report.render_human());
                }
            }
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.json {
        println!("[{}]", json_files.join(","));
    }
    if any_error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
