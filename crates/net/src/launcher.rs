//! Launcher: spawns node workers, drives the control handshake, and
//! merges the per-node traces.
//!
//! The control protocol runs over one Unix socket per child
//! (`<dir>/control.sock`, parent listening):
//!
//! ```text
//! C→P  Hello{node}            child identifies itself
//! P→C  Manifest{...}          partition + channel specs; the child
//!                             cross-checks its own build byte-for-byte
//! C→P  Ready                  all of the child's listeners are bound
//! P→C  Proceed                every node's listeners are bound — safe
//!                             to connect (the barrier in
//!                             [`crate::node::build_endpoints`])
//! P→C  Ping / C→P Pong{now}   ×N clock-sync rounds (min-RTT midpoint)
//! P→C  Start                  begin executing programs
//! C→P  Done{artifact, trace}  results + native-format trace capture
//! P→C  Bye                    child may exit
//! ```
//!
//! Fault path: a child that dies or closes its control socket before
//! `Done` aborts the attempt; the launcher kills the remaining
//! children and — mirroring the supervised runner's restart budget —
//! retries the whole run in a fresh attempt directory, up to twice.

use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spi_trace::{Trace, TraceMeta};

use crate::error::NetError;
use crate::merge::{merge_node_traces, NodeTrace};
use crate::node::Deployment;
use crate::wire::{put_bytes, put_str, put_u32, put_u64, read_record, write_record, WireReader};

/// File name of the control socket inside a run directory.
pub const CONTROL_SOCKET: &str = "control.sock";

/// Whole-run restarts on child failure, mirroring the supervised
/// runner's restart policy at process granularity.
const MAX_RESTARTS: u32 = 2;

/// Clock-sync rounds per node; the minimum-RTT sample wins.
pub const CLOCK_SYNC_ROUNDS: usize = 7;

/// Per-channel entry of the [`CtlMsg::Manifest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanDecl {
    /// Logical capacity in bytes (pre-framing).
    pub capacity_bytes: u64,
    /// Logical per-message bound in bytes (pre-framing).
    pub max_message_bytes: u64,
    /// Sending processor id.
    pub sender: u32,
    /// Receiving processor id.
    pub receiver: u32,
}

/// The launcher's authoritative view of the deployment, sent to every
/// worker for cross-checking against its locally derived one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Number of node processes.
    pub nodes: u32,
    /// `node_of[proc]` — which node hosts each processor.
    pub node_of: Vec<u32>,
    /// Per-channel declarations, indexed by channel id.
    pub channels: Vec<ChanDecl>,
    /// Whether the run is supervised (workers must frame-inflate their
    /// endpoint specs to match).
    pub supervised: bool,
}

/// Builds the manifest describing `d` for `nodes` node processes.
pub fn manifest_of(d: &Deployment, supervised: bool) -> Result<Manifest, NetError> {
    let mut node_of = Vec::with_capacity(d.partition.processor_count());
    for p in 0..d.partition.processor_count() {
        node_of.push(d.partition.node_of(spi_sched::ProcId(p))? as u32);
    }
    let channels = d
        .roles
        .iter()
        .zip(&d.specs)
        .map(|(role, spec)| ChanDecl {
            capacity_bytes: spec.capacity_bytes as u64,
            max_message_bytes: spec.max_message_bytes as u64,
            sender: role.sender.0 as u32,
            receiver: role.receiver.0 as u32,
        })
        .collect();
    Ok(Manifest {
        nodes: d.partition.node_count() as u32,
        node_of,
        channels,
        supervised,
    })
}

/// Cross-checks a worker's locally derived deployment against the
/// launcher's manifest. Any disagreement means the supposedly
/// deterministic system build diverged between processes — running
/// would exchange garbage, so this is fatal.
pub fn verify_manifest(d: &Deployment, m: &Manifest, supervised: bool) -> Result<(), NetError> {
    let local = manifest_of(d, supervised)?;
    if local == *m {
        return Ok(());
    }
    let what = if local.nodes != m.nodes {
        format!("node count: local {} vs manifest {}", local.nodes, m.nodes)
    } else if local.node_of != m.node_of {
        format!(
            "processor placement: local {:?} vs manifest {:?}",
            local.node_of, m.node_of
        )
    } else if local.supervised != m.supervised {
        format!(
            "supervision flag: local {} vs manifest {}",
            local.supervised, m.supervised
        )
    } else {
        let ch = local
            .channels
            .iter()
            .zip(&m.channels)
            .position(|(a, b)| a != b)
            .map(|i| i.to_string())
            .unwrap_or_else(|| format!("count {} vs {}", local.channels.len(), m.channels.len()));
        format!("channel {ch}")
    };
    Err(NetError::ManifestMismatch(what))
}

/// A control-protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlMsg {
    /// Child identifies itself after connecting.
    Hello {
        /// The child's node index.
        node: u32,
    },
    /// Launcher's deployment description (cross-checked by the child).
    Manifest(Manifest),
    /// Child has bound all its listeners.
    Ready,
    /// All nodes have bound; senders may connect.
    Proceed,
    /// Clock-sync probe.
    Ping,
    /// Clock-sync reply carrying the child tracer's current timestamp.
    Pong {
        /// `RingTracer::now()` at the moment the ping was handled.
        now_ns: u64,
    },
    /// Begin executing programs.
    Start,
    /// Child finished (successfully or not).
    Done(NodeDone),
    /// Child may exit.
    Bye,
}

/// Payload of [`CtlMsg::Done`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeDone {
    /// Whether the node's run succeeded.
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub error: String,
    /// Application artifact bytes (empty for nodes that host no sink).
    pub artifact: Vec<u8>,
    /// The node's trace capture in native format (empty when untraced).
    pub trace_text: String,
    /// Global processor ids this node ran, ascending (the local-PE map
    /// for the merge).
    pub procs: Vec<u32>,
}

const TAG_HELLO: u32 = 1;
const TAG_MANIFEST: u32 = 2;
const TAG_READY: u32 = 3;
const TAG_PROCEED: u32 = 4;
const TAG_PING: u32 = 5;
const TAG_PONG: u32 = 6;
const TAG_START: u32 = 7;
const TAG_DONE: u32 = 8;
const TAG_BYE: u32 = 9;

impl CtlMsg {
    /// Encodes the message body (record framing is added on the wire).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            CtlMsg::Hello { node } => {
                put_u32(&mut out, TAG_HELLO);
                put_u32(&mut out, *node);
            }
            CtlMsg::Manifest(m) => {
                put_u32(&mut out, TAG_MANIFEST);
                put_u32(&mut out, m.nodes);
                put_u32(&mut out, m.node_of.len() as u32);
                for n in &m.node_of {
                    put_u32(&mut out, *n);
                }
                put_u32(&mut out, m.channels.len() as u32);
                for c in &m.channels {
                    put_u64(&mut out, c.capacity_bytes);
                    put_u64(&mut out, c.max_message_bytes);
                    put_u32(&mut out, c.sender);
                    put_u32(&mut out, c.receiver);
                }
                put_u32(&mut out, u32::from(m.supervised));
            }
            CtlMsg::Ready => put_u32(&mut out, TAG_READY),
            CtlMsg::Proceed => put_u32(&mut out, TAG_PROCEED),
            CtlMsg::Ping => put_u32(&mut out, TAG_PING),
            CtlMsg::Pong { now_ns } => {
                put_u32(&mut out, TAG_PONG);
                put_u64(&mut out, *now_ns);
            }
            CtlMsg::Start => put_u32(&mut out, TAG_START),
            CtlMsg::Done(d) => {
                put_u32(&mut out, TAG_DONE);
                put_u32(&mut out, u32::from(d.ok));
                put_str(&mut out, &d.error);
                put_bytes(&mut out, &d.artifact);
                put_str(&mut out, &d.trace_text);
                put_u32(&mut out, d.procs.len() as u32);
                for p in &d.procs {
                    put_u32(&mut out, *p);
                }
            }
            CtlMsg::Bye => put_u32(&mut out, TAG_BYE),
        }
        out
    }

    /// Decodes a message body.
    ///
    /// # Errors
    ///
    /// [`crate::wire::WireDecodeError`] on truncation or an unknown tag.
    pub fn decode(buf: &[u8]) -> Result<CtlMsg, crate::wire::WireDecodeError> {
        let mut r = WireReader::new(buf);
        let tag = r.u32("tag")?;
        let msg = match tag {
            TAG_HELLO => CtlMsg::Hello {
                node: r.u32("hello.node")?,
            },
            TAG_MANIFEST => {
                let nodes = r.u32("manifest.nodes")?;
                let n = r.count("manifest.node_of.len", 4)?;
                let mut node_of = Vec::with_capacity(n);
                for _ in 0..n {
                    node_of.push(r.u32("manifest.node_of[]")?);
                }
                let n = r.count("manifest.channels.len", 24)?;
                let mut channels = Vec::with_capacity(n);
                for _ in 0..n {
                    channels.push(ChanDecl {
                        capacity_bytes: r.u64("manifest.ch.capacity")?,
                        max_message_bytes: r.u64("manifest.ch.max_msg")?,
                        sender: r.u32("manifest.ch.sender")?,
                        receiver: r.u32("manifest.ch.receiver")?,
                    });
                }
                let supervised = r.u32("manifest.supervised")? != 0;
                CtlMsg::Manifest(Manifest {
                    nodes,
                    node_of,
                    channels,
                    supervised,
                })
            }
            TAG_READY => CtlMsg::Ready,
            TAG_PROCEED => CtlMsg::Proceed,
            TAG_PING => CtlMsg::Ping,
            TAG_PONG => CtlMsg::Pong {
                now_ns: r.u64("pong.now_ns")?,
            },
            TAG_START => CtlMsg::Start,
            TAG_DONE => {
                let ok = r.u32("done.ok")? != 0;
                let error = r.str("done.error")?.to_string();
                let artifact = r.bytes("done.artifact")?.to_vec();
                let trace_text = r.str("done.trace")?.to_string();
                let n = r.count("done.procs.len", 4)?;
                let mut procs = Vec::with_capacity(n);
                for _ in 0..n {
                    procs.push(r.u32("done.procs[]")?);
                }
                CtlMsg::Done(NodeDone {
                    ok,
                    error,
                    artifact,
                    trace_text,
                    procs,
                })
            }
            TAG_BYE => CtlMsg::Bye,
            other => {
                return Err(crate::wire::WireDecodeError {
                    at: 0,
                    what: format!("unknown control tag {other}"),
                })
            }
        };
        Ok(msg)
    }
}

/// Sends one control message over `stream`.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn send_ctl(stream: &mut UnixStream, msg: &CtlMsg) -> Result<(), NetError> {
    write_record(stream, &msg.encode())?;
    Ok(())
}

/// Receives one control message, blocking without deadline (worker
/// side: a dead launcher shows up as EOF).
///
/// # Errors
///
/// [`NetError::Protocol`] on EOF, I/O errors, or decode failures.
pub fn recv_ctl(stream: &mut UnixStream) -> Result<CtlMsg, NetError> {
    match read_record(stream)? {
        Some(body) => Ok(CtlMsg::decode(&body)?),
        None => Err(NetError::Protocol("control socket closed".into())),
    }
}

/// A `Read` adapter that turns per-syscall read timeouts into bounded
/// retries, so a multi-read record decode survives slow children while
/// still honouring an overall deadline and noticing child death between
/// retries. Partial reads are never abandoned: the retry happens at the
/// syscall level, inside one `read_record` call.
struct PatientReader<'a> {
    stream: &'a UnixStream,
    deadline: Instant,
    liveness: &'a mut dyn FnMut() -> Option<String>,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if let Some(reason) = (self.liveness)() {
                        return Err(std::io::Error::other(reason));
                    }
                    if Instant::now() >= self.deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "control deadline elapsed",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

/// Receives one control message with an overall deadline, invoking
/// `liveness` between poll intervals (return `Some(reason)` to abort —
/// e.g. when the child process has exited).
fn recv_ctl_deadline(
    stream: &UnixStream,
    deadline: Instant,
    liveness: &mut dyn FnMut() -> Option<String>,
) -> Result<CtlMsg, NetError> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut reader = PatientReader {
        stream,
        deadline,
        liveness,
    };
    match read_record(&mut reader)? {
        Some(body) => Ok(CtlMsg::decode(&body)?),
        None => Err(NetError::Protocol("control socket closed".into())),
    }
}

/// Configuration for a distributed launch.
pub struct LaunchSpec {
    /// Path of the worker executable (usually
    /// `std::env::current_exe()` when launcher and worker share a
    /// binary).
    pub worker_exe: PathBuf,
    /// Arguments identifying the application and run shape; the
    /// launcher appends `--node <i> --dir <attempt-dir>` per child.
    pub worker_args: Vec<String>,
    /// Number of node processes.
    pub nodes: usize,
    /// Whether workers run supervised (manifest flag; workers size
    /// their endpoints with frame headers to match).
    pub supervised: bool,
    /// Overall deadline for each attempt's execute phase.
    pub run_deadline: Duration,
}

/// Result of a successful distributed launch.
pub struct LaunchOutcome {
    /// Per-node artifacts, indexed by node (empty vec when a node
    /// hosts no sink).
    pub artifacts: Vec<Vec<u8>>,
    /// The merged, clock-aligned distributed trace.
    pub trace: Trace,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Per-node clock offsets applied during the merge, in ns.
    pub offsets_ns: Vec<i64>,
}

/// Kills and reaps every child on drop, so no attempt leaks processes.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

static ATTEMPT_SALT: AtomicU64 = AtomicU64::new(0);

/// Spawns `spec.nodes` workers, drives the handshake, and merges the
/// per-node traces under `meta` (the launcher's authoritative metadata
/// from its own system build).
///
/// # Errors
///
/// The last attempt's failure once the restart budget is exhausted.
pub fn launch(
    spec: &LaunchSpec,
    deployment: &Deployment,
    meta: TraceMeta,
) -> Result<LaunchOutcome, NetError> {
    let manifest = manifest_of(deployment, spec.supervised)?;
    // Unix socket paths are length-limited (~108 bytes); keep run dirs
    // under the system temp dir with short names.
    let base = std::env::temp_dir().join(format!(
        "spi-net-{}-{}",
        std::process::id(),
        ATTEMPT_SALT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut attempt = 0;
    let outcome = loop {
        let dir = base.join(format!("a{attempt}"));
        match try_launch(spec, &manifest, &dir, meta.clone()) {
            Ok(mut outcome) => {
                outcome.attempts = attempt + 1;
                break Ok(outcome);
            }
            Err(e) => {
                eprintln!("spi-net: attempt {attempt} failed: {e}");
                if attempt == MAX_RESTARTS {
                    break Err(e);
                }
                attempt += 1;
            }
        }
    };
    let _ = std::fs::remove_dir_all(&base);
    outcome
}

fn try_launch(
    spec: &LaunchSpec,
    manifest: &Manifest,
    dir: &std::path::Path,
    meta: TraceMeta,
) -> Result<LaunchOutcome, NetError> {
    std::fs::create_dir_all(dir)?;
    let listener = UnixListener::bind(dir.join(CONTROL_SOCKET))?;
    listener.set_nonblocking(true)?;

    let epoch = Instant::now();
    let mut children = Vec::with_capacity(spec.nodes);
    for node in 0..spec.nodes {
        let child = Command::new(&spec.worker_exe)
            .args(&spec.worker_args)
            .arg("--node")
            .arg(node.to_string())
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .spawn()?;
        children.push(child);
    }
    let mut reaper = Reaper(children);

    let handshake_deadline = Instant::now() + Duration::from_secs(30);
    // Accept one control connection per child and identify it by its
    // Hello. Children may connect in any order.
    let mut conns: Vec<Option<UnixStream>> = (0..spec.nodes).map(|_| None).collect();
    let mut accepted = 0;
    while accepted < spec.nodes {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let node = {
                    let mut live = liveness_probe(&mut reaper.0);
                    match recv_ctl_deadline(&stream, handshake_deadline, &mut live)? {
                        CtlMsg::Hello { node } => node as usize,
                        other => {
                            return Err(NetError::Protocol(format!(
                                "expected Hello, got {other:?}"
                            )))
                        }
                    }
                };
                if node >= spec.nodes || conns[node].is_some() {
                    return Err(NetError::Protocol(format!("bad Hello node {node}")));
                }
                conns[node] = Some(stream);
                accepted += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Some(reason) = liveness_probe(&mut reaper.0)() {
                    return Err(NetError::Protocol(reason));
                }
                if Instant::now() >= handshake_deadline {
                    return Err(NetError::Protocol("handshake deadline elapsed".into()));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e.into()),
        }
    }
    // Every node said Hello once, so every slot is filled.
    let mut conns: Vec<UnixStream> = conns.into_iter().flatten().collect();

    // Manifest out, Ready back (the bind phase), then release the
    // connect phase on every node at once.
    for conn in &mut conns {
        send_ctl(conn, &CtlMsg::Manifest(manifest.clone()))?;
    }
    for (node, conn) in conns.iter_mut().enumerate() {
        let mut live = liveness_probe(&mut reaper.0);
        match recv_ctl_deadline(conn, handshake_deadline, &mut live)? {
            CtlMsg::Ready => {}
            other => {
                return Err(NetError::Protocol(format!(
                    "node {node}: expected Ready, got {other:?}"
                )))
            }
        }
    }
    for conn in &mut conns {
        send_ctl(conn, &CtlMsg::Proceed)?;
    }

    // Clock sync: min-RTT midpoint against each child's tracer clock.
    let mut offsets_ns = vec![0i64; spec.nodes];
    for (node, conn) in conns.iter_mut().enumerate() {
        let mut best_rtt = u64::MAX;
        for _ in 0..CLOCK_SYNC_ROUNDS {
            let t0 = epoch.elapsed().as_nanos() as u64;
            send_ctl(conn, &CtlMsg::Ping)?;
            let mut live = liveness_probe(&mut reaper.0);
            let now_ns = match recv_ctl_deadline(conn, handshake_deadline, &mut live)? {
                CtlMsg::Pong { now_ns } => now_ns,
                other => {
                    return Err(NetError::Protocol(format!(
                        "node {node}: expected Pong, got {other:?}"
                    )))
                }
            };
            let t1 = epoch.elapsed().as_nanos() as u64;
            let rtt = t1.saturating_sub(t0);
            if rtt < best_rtt {
                best_rtt = rtt;
                let midpoint = t0 + rtt / 2;
                offsets_ns[node] = midpoint as i64 - now_ns as i64;
            }
        }
    }

    for conn in &mut conns {
        send_ctl(conn, &CtlMsg::Start)?;
    }

    // Execute phase: collect Done from every node.
    let run_deadline = Instant::now() + spec.run_deadline;
    let mut dones = Vec::with_capacity(conns.len());
    for (node, conn) in conns.iter_mut().enumerate() {
        let mut live = liveness_probe(&mut reaper.0);
        match recv_ctl_deadline(conn, run_deadline, &mut live)? {
            CtlMsg::Done(d) => dones.push(d),
            other => {
                return Err(NetError::Protocol(format!(
                    "node {node}: expected Done, got {other:?}"
                )))
            }
        }
    }
    for conn in &mut conns {
        let _ = send_ctl(conn, &CtlMsg::Bye);
    }
    for child in &mut reaper.0 {
        let _ = child.wait();
    }
    reaper.0.clear();

    let mut artifacts = Vec::with_capacity(spec.nodes);
    let mut node_traces = Vec::with_capacity(spec.nodes);
    for (node, done) in dones.into_iter().enumerate() {
        if !done.ok {
            return Err(NetError::NodeFailed {
                node,
                error: done.error,
            });
        }
        artifacts.push(done.artifact);
        if !done.trace_text.is_empty() {
            node_traces.push(NodeTrace {
                trace: Trace::from_native(&done.trace_text)?,
                offset_ns: offsets_ns[node],
                procs: done.procs.iter().map(|p| *p as usize).collect(),
            });
        }
    }
    let trace = merge_node_traces(meta, &node_traces);
    Ok(LaunchOutcome {
        artifacts,
        trace,
        attempts: 1,
        offsets_ns,
    })
}

/// Builds a liveness closure reporting the first exited child.
fn liveness_probe(children: &mut [Child]) -> impl FnMut() -> Option<String> + '_ {
    move || {
        for (i, child) in children.iter_mut().enumerate() {
            if let Ok(Some(status)) = child.try_wait() {
                return Some(format!("node {i} exited early: {status}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_round_trip() {
        let msgs = vec![
            CtlMsg::Hello { node: 3 },
            CtlMsg::Manifest(Manifest {
                nodes: 2,
                node_of: vec![0, 0, 1],
                channels: vec![ChanDecl {
                    capacity_bytes: 4096,
                    max_message_bytes: 1040,
                    sender: 0,
                    receiver: 2,
                }],
                supervised: true,
            }),
            CtlMsg::Ready,
            CtlMsg::Proceed,
            CtlMsg::Ping,
            CtlMsg::Pong { now_ns: 123456789 },
            CtlMsg::Start,
            CtlMsg::Done(NodeDone {
                ok: true,
                error: String::new(),
                artifact: vec![1, 2, 3],
                trace_text: "# spi-trace v1\n".into(),
                procs: vec![0, 1],
            }),
            CtlMsg::Bye,
        ];
        for msg in msgs {
            let decoded = CtlMsg::decode(&msg.encode()).expect("round trip");
            assert_eq!(decoded, msg);
        }
    }

    /// A count off the wire must not size an allocation the bytes after
    /// it cannot back: sized as read, this 16-byte manifest claiming
    /// `u32::MAX` channels aborts the process on the failed allocation.
    #[test]
    fn an_oversized_count_is_a_decode_error_not_an_abort() {
        let mut manifest = Vec::new();
        for word in [TAG_MANIFEST, 2, 0, u32::MAX] {
            put_u32(&mut manifest, word);
        }
        assert_eq!(manifest.len(), 16);
        let err = CtlMsg::decode(&manifest).expect_err("oversized channel count");
        assert!(err.what.contains("manifest.channels.len"), "{err}");

        let mut node_of = Vec::new();
        for word in [TAG_MANIFEST, 2, u32::MAX] {
            put_u32(&mut node_of, word);
        }
        assert!(CtlMsg::decode(&node_of).is_err());

        let mut done = CtlMsg::Done(NodeDone::default()).encode();
        done.truncate(done.len() - 4);
        put_u32(&mut done, u32::MAX);
        assert!(CtlMsg::decode(&done).is_err());
    }

    #[test]
    fn unknown_tag_is_a_decode_error() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 999);
        assert!(CtlMsg::decode(&buf).is_err());
    }
}
