//! `spi-noded` — node worker and launcher for distributed SPI runs.
//!
//! Two modes share one binary so the launcher can spawn workers via
//! `current_exe()`:
//!
//! ```text
//! spi-noded launch --nodes 2 --iters 8 [--supervised] [--chaos] \
//!     [--force-ubs] [--timeout-secs S] [--trace-out PATH]
//! spi-noded worker --nodes 2 --iters 8 --node I --dir DIR \
//!     [--supervised] [--chaos] [--force-ubs] [--timeout-secs S]
//! ```
//!
//! The application is the filter bank, and channels with both ends on
//! one node are rings. `launch` builds the partitioned system, spawns
//! one worker per node (restarting the whole run up to twice when a
//! worker fails), drives the control handshake (manifest cross-check,
//! socket barrier, clock sync), then verifies the distributed artifact
//! byte-for-byte against a fresh single-process run of the same
//! application and writes the merged distributed trace. Exit status: 0
//! on byte-identical output with a conformant trace, 1 otherwise.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_apps::{FilterBankApp, FilterBankConfig};
use spi_fault::{FaultKind, FaultPlan};
use spi_net::launcher::{recv_ctl, send_ctl, CtlMsg, NodeDone};
use spi_net::node::{build_endpoints, deploy, Deployment};
use spi_net::wire::put_u64;
use spi_net::{launch, verify_manifest, LaunchSpec, NetError, CONTROL_SOCKET};
use spi_platform::{ChannelId, SupervisionPolicy, ThreadedRunner, Tracer, TransportKind};
use spi_sched::Partition;
use spi_trace::{ClockKind, RingTracer, TraceMeta};

const USAGE: &str = "usage: spi-noded <launch|worker> --nodes N --iters K \
[--supervised] [--chaos] [--force-ubs] [--timeout-secs S] [--trace-out PATH] \
(worker adds: --node I --dir DIR)";

/// Processors in the filter bank's canonical assignment.
const FILTERBANK_PROCS: usize = 3;

#[derive(Clone)]
struct Args {
    mode: String,
    nodes: usize,
    iters: u64,
    node: usize,
    dir: PathBuf,
    supervised: bool,
    chaos: bool,
    force_ubs: bool,
    timeout_secs: u64,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or(USAGE)?;
    if mode != "launch" && mode != "worker" {
        return Err(USAGE.into());
    }
    let mut a = Args {
        mode,
        nodes: 2,
        iters: 8,
        node: usize::MAX,
        dir: PathBuf::new(),
        supervised: false,
        chaos: false,
        force_ubs: false,
        timeout_secs: 10,
        trace_out: PathBuf::from("target/net/filterbank_distributed.trace"),
    };
    while let Some(flag) = argv.next() {
        let mut val = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => {
                a.nodes = val("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--iters" => {
                a.iters = val("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--node" => a.node = val("--node")?.parse().map_err(|e| format!("--node: {e}"))?,
            "--dir" => a.dir = PathBuf::from(val("--dir")?),
            "--supervised" => a.supervised = true,
            "--chaos" => a.chaos = true,
            "--force-ubs" => a.force_ubs = true,
            "--timeout-secs" => {
                a.timeout_secs = val("--timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--timeout-secs: {e}"))?
            }
            "--trace-out" => a.trace_out = PathBuf::from(val("--trace-out")?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    // Socket-level chaos only makes sense under the recovery protocol.
    if a.chaos {
        a.supervised = true;
    }
    if a.nodes == 0 || a.nodes > FILTERBANK_PROCS {
        return Err(format!(
            "--nodes must be 1..={FILTERBANK_PROCS} for the filter bank"
        ));
    }
    if a.mode == "worker" && (a.node >= a.nodes || a.dir.as_os_str().is_empty()) {
        return Err("worker mode needs --node < --nodes and --dir".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spi-noded: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.mode.as_str() {
        "worker" => worker_main(&args),
        _ => launch_main(&args),
    };
    if let Err(e) = result {
        eprintln!("spi-noded {}: {e}", args.mode);
        std::process::exit(1);
    }
}

/// Builds the partitioned filter-bank system every process derives its
/// deployment from. Determinism across processes is load-bearing: the
/// launcher's manifest cross-check verifies it.
fn build_system(a: &Args, app: &FilterBankApp) -> Result<spi::SpiSystem, NetError> {
    let partition = Partition::blocks(FILTERBANK_PROCS, a.nodes)?;
    app.system_with(a.iters, |b| {
        b.partition(partition);
        if a.force_ubs {
            // A UBS edge's window is its 16-record credit window, so the
            // schedule lowers 4-record batch plans; the default BBS
            // windows on the filter bank are too shallow to batch.
            b.force_ubs(true);
        }
    })
    .map_err(|e| NetError::Protocol(format!("app build failed: {e}")))
}

fn supervision_policy(a: &Args, system: &spi::SpiSystem) -> Option<SupervisionPolicy> {
    if !a.supervised {
        return None;
    }
    // The paper-derived deadline covers in-memory hops; distributed
    // edges add socket latency and cross-process scheduling jitter, so
    // clamp it up generously — recovery correctness never depends on
    // the deadline being tight.
    let deadline = system
        .supervision_deadline(50.0)
        .unwrap_or(Duration::from_secs(2))
        .max(Duration::from_millis(250));
    Some(SupervisionPolicy::retry(3).with_deadline(deadline))
}

/// The deterministic chaos plan shared by every process: walk the
/// cross-partition channels in id order and inject one drop, one
/// corruption, and one duplication. Each fault triggers on the node
/// hosting the channel's sender; the node hosting its receiver makes
/// the duplicate's and the corruption's extra frame from the same plan
/// (`spi_fault::FaultyTransport`), so the receiver's sequence dedup and
/// CRC check see them.
fn chaos_plan(a: &Args, dep: &Deployment) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if !a.chaos {
        return plan;
    }
    let kinds = [FaultKind::Drop, FaultKind::Corrupt, FaultKind::Duplicate];
    let msg_index = a.iters.saturating_sub(1).min(1);
    let mut k = 0;
    for ch in 0..dep.specs.len() {
        if dep.is_cross(ch) && k < kinds.len() {
            plan = plan.inject(ChannelId(ch), msg_index, kinds[k]);
            k += 1;
        }
    }
    plan
}

fn encode_output(app: &FilterBankApp) -> Result<Vec<u8>, NetError> {
    let rows = (app.output.lock())
        .map_err(|_| NetError::Protocol("an actor panicked writing the output".into()))?;
    let mut buf = Vec::new();
    put_u64(&mut buf, rows.len() as u64);
    for row in rows.iter() {
        put_u64(&mut buf, row.len() as u64);
        for v in row {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(buf)
}

// ---------------------------------------------------------------------
// Worker mode
// ---------------------------------------------------------------------

fn connect_control(a: &Args) -> Result<UnixStream, NetError> {
    let path = a.dir.join(CONTROL_SOCKET);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(&path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e.into());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn worker_main(a: &Args) -> Result<(), NetError> {
    let app = FilterBankApp::new(FilterBankConfig::default())
        .map_err(|e| NetError::Protocol(format!("app config: {e}")))?;
    let system = build_system(a, &app)?;
    let policy = supervision_policy(a, &system);
    let mut dep = deploy(system)?;

    let mut ctl = connect_control(a)?;
    send_ctl(
        &mut ctl,
        &CtlMsg::Hello {
            node: a.node as u32,
        },
    )?;

    match worker_run(a, &app, &mut dep, policy, &mut ctl) {
        Ok(done) => {
            send_ctl(&mut ctl, &CtlMsg::Done(done))?;
            let _ = recv_ctl(&mut ctl); // Bye (or launcher gone — fine)
            Ok(())
        }
        Err(e) => {
            // Best-effort failure report so the launcher gets a reason
            // instead of just a dead socket.
            let _ = send_ctl(
                &mut ctl,
                &CtlMsg::Done(NodeDone {
                    ok: false,
                    error: e.to_string(),
                    ..NodeDone::default()
                }),
            );
            Err(e)
        }
    }
}

fn worker_run(
    a: &Args,
    app: &FilterBankApp,
    dep: &mut Deployment,
    policy: Option<SupervisionPolicy>,
    ctl: &mut UnixStream,
) -> Result<NodeDone, NetError> {
    let manifest = match recv_ctl(ctl)? {
        CtlMsg::Manifest(m) => m,
        other => {
            return Err(NetError::Protocol(format!(
                "expected Manifest, got {other:?}"
            )))
        }
    };
    verify_manifest(dep, &manifest, a.supervised)?;

    // The tracer exists before the endpoints so batched cross-partition
    // senders can stamp their flush probes into the same per-PE rings
    // the runner uses.
    let procs = dep.procs_on(a.node);
    let tracer = Arc::new(RingTracer::with_default_capacity(procs.len()));
    let probe_tracer: Arc<dyn Tracer> = tracer.clone();

    let endpoints = {
        let ctl = &mut *ctl;
        build_endpoints(
            dep,
            a.node,
            &a.dir,
            a.supervised,
            Some(&probe_tracer),
            move || {
                send_ctl(ctl, &CtlMsg::Ready)?;
                match recv_ctl(ctl)? {
                    CtlMsg::Proceed => Ok(()),
                    other => Err(NetError::Protocol(format!(
                        "expected Proceed, got {other:?}"
                    ))),
                }
            },
        )?
    };
    // Socket-level chaos: decorate after framing-sized endpoints exist,
    // exactly as the in-process runner decorates framed transports.
    let plan = chaos_plan(a, dep);
    let endpoints = if plan.is_empty() {
        endpoints
    } else {
        let (decorator, _log) = plan
            .into_decorator()
            .map_err(|e| NetError::Protocol(format!("fault plan: {e}")))?;
        endpoints
            .into_iter()
            .enumerate()
            .map(|(i, t)| decorator(ChannelId(i), t))
            .collect()
    };

    let programs = dep.take_local_programs(a.node);

    loop {
        match recv_ctl(ctl)? {
            CtlMsg::Ping => send_ctl(
                ctl,
                &CtlMsg::Pong {
                    now_ns: tracer.now(),
                },
            )?,
            CtlMsg::Start => break,
            other => return Err(NetError::Protocol(format!("expected Start, got {other:?}"))),
        }
    }

    let mut runner = ThreadedRunner::new()
        .transport(TransportKind::Ring)
        .timeout(Duration::from_secs(a.timeout_secs))
        .tracer(tracer.clone());
    if let Some(policy) = policy {
        runner = runner.supervise(policy);
    }
    let results = runner.run_with_endpoints(&dep.specs, endpoints, programs)?;
    if let Some(err) = spi::root_failure(results.iter().map(|r| &r.store)) {
        return Err(NetError::Protocol(err.to_string()));
    }

    let trace = tracer.finish(TraceMeta::new(ClockKind::Nanos));
    let artifact = if procs.contains(&0) {
        encode_output(app)?
    } else {
        Vec::new()
    };
    Ok(NodeDone {
        ok: true,
        error: String::new(),
        artifact,
        trace_text: trace.to_native(),
        procs: procs.iter().map(|p| *p as u32).collect(),
    })
}

// ---------------------------------------------------------------------
// Launch mode
// ---------------------------------------------------------------------

fn launch_main(a: &Args) -> Result<(), NetError> {
    let app = FilterBankApp::new(FilterBankConfig::default())
        .map_err(|e| NetError::Protocol(format!("app config: {e}")))?;
    let system = build_system(a, &app)?;
    let policy = supervision_policy(a, &system);
    let meta = match &policy {
        Some(p) => system.trace_meta_supervised(ClockKind::Nanos, p),
        None => system.trace_meta(ClockKind::Nanos),
    };
    let dep = deploy(system)?;

    let mut worker_args = vec![
        "worker".to_string(),
        "--nodes".into(),
        a.nodes.to_string(),
        "--iters".into(),
        a.iters.to_string(),
        "--timeout-secs".into(),
        a.timeout_secs.to_string(),
    ];
    if a.supervised {
        worker_args.push("--supervised".into());
    }
    if a.chaos {
        worker_args.push("--chaos".into());
    }
    if a.force_ubs {
        // Workers must build the byte-identical system; the manifest
        // cross-check fails the run otherwise.
        worker_args.push("--force-ubs".into());
    }
    let spec = LaunchSpec {
        worker_exe: std::env::current_exe()?,
        worker_args,
        nodes: a.nodes,
        supervised: a.supervised,
        run_deadline: Duration::from_secs(a.timeout_secs.saturating_mul(4).max(60)),
    };
    let outcome = launch(&spec, &dep, meta)?;

    // Reference: the same application, single process, in-memory rings.
    let ref_app = FilterBankApp::new(FilterBankConfig::default())
        .map_err(|e| NetError::Protocol(format!("app config: {e}")))?;
    let ref_system = ref_app
        .system(a.iters)
        .map_err(|e| NetError::Protocol(format!("reference build: {e}")))?;
    ref_system.run_threaded_with(&ThreadedRunner::new().transport(TransportKind::Ring))?;
    let expect = encode_output(&ref_app)?;

    let got: Vec<&Vec<u8>> = outcome.artifacts.iter().filter(|a| !a.is_empty()).collect();
    if got.len() != 1 {
        return Err(NetError::Protocol(format!(
            "expected exactly one sink artifact, got {}",
            got.len()
        )));
    }
    let identical = *got[0] == expect;

    if let Some(parent) = a.trace_out.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&a.trace_out, outcome.trace.to_native())?;

    let report = spi_trace::check(&outcome.trace);
    println!(
        "spi-noded: {} nodes, {} iterations, attempt(s) {}, offsets {:?} ns",
        a.nodes, a.iters, outcome.attempts, outcome.offsets_ns
    );
    println!(
        "spi-noded: artifact {} bytes, byte-identical to single-process: {}",
        got[0].len(),
        identical
    );
    println!(
        "spi-noded: merged trace {} events -> {}",
        outcome.trace.events.len(),
        a.trace_out.display()
    );
    if report.has_errors() {
        println!("{}", report.render_human());
        return Err(NetError::Protocol("merged trace failed trace-check".into()));
    }
    if !identical {
        return Err(NetError::Protocol(
            "distributed output differs from single-process output".into(),
        ));
    }
    Ok(())
}
