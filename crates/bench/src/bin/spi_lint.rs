//! `spi-lint` — static analysis of DIF dataflow files, and runtime
//! trace conformance.
//!
//! Runs the full `spi-analyze` pipeline over each DIF file and renders
//! the diagnostics. With `--procs N` the graph is additionally pushed
//! through `SpiSystemBuilder::plan` (round-robin actor assignment, like
//! the stress harness) so the schedule-level passes — protocol and
//! transport lints, sync coverage, resynchronization fixpoint — run on
//! exactly the lowering `build` would produce.
//!
//! The `trace-check` subcommand instead linearizes captured `spi-trace`
//! files (native `# spi-trace v1` format) and replays them against the
//! bounds recorded in their metadata — eq. (2) occupancy, eq. (1)
//! message size, per-channel FIFO, token conservation, the predicted
//! makespan, supervision budgets — and against their happens-before
//! order (premature receives, endpoint races, unsynchronized slot
//! reuse), emitting the `SPI080`–`SPI105` runtime diagnostics.
//!
//! Usage:
//!   spi-lint [--format human|json] [--procs N] [--force-ubs]
//!            [--no-resync] [--delimiter] FILE...
//!   spi-lint trace-check [--format human|json] TRACE...
//!
//! Exit status: 0 clean (warnings allowed), 1 when any error-severity
//! diagnostic fires, 2 on usage or parse problems.

use std::process::ExitCode;

use spi::SpiSystemBuilder;
use spi_analyze::{AnalysisInput, Analyzer};
use spi_dataflow::dif::from_dif;
use spi_dataflow::LengthSignal;
use spi_sched::ProcId;

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

fn lint_file(path: &str, opts: &Options) -> Result<spi_analyze::AnalysisReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let graph = from_dif(&text).map_err(|e| format!("{path}: {e}"))?;
    let signal = if opts.delimiter {
        LengthSignal::Delimiter
    } else {
        LengthSignal::Header
    };

    Ok(match opts.procs {
        None => Analyzer::default_pipeline().run(&AnalysisInput::new(&graph).with_signal(signal)),
        // The builder's own plan: the checks `build` would enforce on
        // this graph under a round-robin actor assignment (like the
        // stress harness), the protocol lints SPI040–SPI042 included.
        Some(procs) => {
            let mut builder = SpiSystemBuilder::new(graph);
            builder
                .force_ubs(opts.force_ubs)
                .resynchronization(opts.resync)
                .length_signal(signal);
            builder
                .plan(procs, |a| ProcId(a.0 % procs))
                .map_err(|e| format!("{path}: scheduling failed: {e}"))?
        }
    })
}

/// `trace-check TRACE...`: linearize each captured trace file, replay it
/// against its recorded bounds and render the conformance report.
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
        let mut trace = match spi_trace::Trace::from_native(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        trace.linearize();
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
                 \"hb_edges\":{},\"observed_makespan\":{},\"predicted_makespan\":{},\
                 \"slack\":{},\"diagnostics\":[{}]}}",
                json_escape(path),
                trace.events.len(),
                report.channels_checked,
                report.messages_checked,
                report.hb_edges,
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-check") {
        return trace_check(&args[1..]);
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
