//! Benchmark-side tracing for the traced round: spans around the calls
//! into each layer, kept in preallocated memory and written out when
//! the run ends.
//!
//! One [`PeTrace`] per processing element, written only by that PE's
//! thread (plain relaxed loads and stores on atomics — no locks, no
//! allocation, no `unsafe`) and read after the segment's threads are
//! joined. Aggregates cover every iteration; raw spans are kept for the
//! first [`RAW_ITERS`] iterations. All spans of one schedule iteration
//! share its iteration id, across PEs.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{obj, Value};
use crate::stats;

/// Iterations whose raw spans are kept.
pub const RAW_ITERS: u64 = 4096;
/// Raw spans kept per PE (an `app1_lpc` iteration has six on P0).
const RAW_SPANS: usize = RAW_ITERS as usize * 8;
/// Per-call duration samples kept per PE and kind, for the p50s.
const SAMPLES: usize = 1 << 16;

/// What a span's interval was spent in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// A transport send call (`send`, `send_in_place`, `send_token`).
    Send = 0,
    /// A receive that found its message waiting.
    Recv = 1,
    /// A receive that had to block: the non-blocking attempt came back
    /// empty and the blocking call's whole duration is waiting.
    Wait = 2,
    /// An `Op::Compute` closure, or the driver's filter / verify step.
    Compute = 3,
    /// An `Op::Send` payload closure (actor output + SPI framing).
    Payload = 4,
}

pub const KINDS: usize = 5;
const NAMES: [&str; KINDS] = [
    "transport.send",
    "transport.recv",
    "transport.wait",
    "compute",
    "payload",
];

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide span epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One PE's span log and aggregates.
pub struct PeTrace {
    ns: [AtomicU64; KINDS],
    calls: [AtomicU64; KINDS],
    /// Per-call nanoseconds of the first [`SAMPLES`] sends and
    /// unblocked receives.
    samples: [Box<[AtomicU32]>; 2],
    n_samples: [AtomicUsize; 2],
    /// `(start, end, kind << 32 | iteration)` triples.
    raw: Box<[AtomicU64]>,
    n_raw: AtomicUsize,
    /// The iteration the PE is in, maintained by the closure wrappers
    /// so transport spans (which see no iteration counter) can be
    /// tagged with it.
    pub cur_iter: AtomicU64,
    pub msgs_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
}

fn zeroed_u64(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Default for PeTrace {
    fn default() -> Self {
        PeTrace {
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            samples: std::array::from_fn(|_| (0..SAMPLES).map(|_| AtomicU32::new(0)).collect()),
            n_samples: std::array::from_fn(|_| AtomicUsize::new(0)),
            raw: zeroed_u64(RAW_SPANS * 3),
            n_raw: AtomicUsize::new(0),
            cur_iter: AtomicU64::new(0),
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
        }
    }
}

impl PeTrace {
    /// Records one finished span. Single writer: only the owning PE's
    /// thread calls this, so load-then-store is not a lost update.
    pub fn record(&self, kind: Kind, iter: u64, start_ns: u64, end_ns: u64) {
        let k = kind as usize;
        let dur = end_ns.saturating_sub(start_ns);
        self.ns[k].store(self.ns[k].load(Relaxed) + dur, Relaxed);
        self.calls[k].store(self.calls[k].load(Relaxed) + 1, Relaxed);
        if k < 2 {
            let n = self.n_samples[k].load(Relaxed);
            if n < SAMPLES {
                self.samples[k][n].store(dur.min(u64::from(u32::MAX)) as u32, Relaxed);
                self.n_samples[k].store(n + 1, Relaxed);
            }
        }
        if iter < RAW_ITERS {
            let n = self.n_raw.load(Relaxed);
            if n < RAW_SPANS {
                self.raw[3 * n].store(start_ns, Relaxed);
                self.raw[3 * n + 1].store(end_ns, Relaxed);
                self.raw[3 * n + 2].store((k as u64) << 32 | iter, Relaxed);
                self.n_raw.store(n + 1, Relaxed);
            }
        }
    }

    /// Times `f` as one span of `kind` in iteration `iter`.
    pub fn span<R>(&self, kind: Kind, iter: u64, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let r = f();
        self.record(kind, iter, start, now_ns());
        r
    }

    pub fn note_sent(&self, bytes: usize) {
        self.msgs_sent
            .store(self.msgs_sent.load(Relaxed) + 1, Relaxed);
        self.bytes_sent
            .store(self.bytes_sent.load(Relaxed) + bytes as u64, Relaxed);
    }

    pub fn ns(&self, kind: Kind) -> u64 {
        self.ns[kind as usize].load(Relaxed)
    }

    /// Nanoseconds covered by spans of any kind; the rest of the PE's
    /// wall time is the engine around the calls.
    pub fn covered_ns(&self) -> u64 {
        self.ns.iter().map(|ns| ns.load(Relaxed)).sum()
    }

    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize].load(Relaxed)
    }

    /// Median duration of the sampled calls of `kind` (`Send` or
    /// `Recv`), in nanoseconds.
    pub fn p50_ns(&self, kind: Kind) -> f64 {
        let k = kind as usize;
        let n = self.n_samples[k].load(Relaxed);
        let v: Vec<f64> = self.samples[k][..n]
            .iter()
            .map(|s| f64::from(s.load(Relaxed)))
            .collect();
        stats::median(&v)
    }

    fn raw_spans(&self) -> Vec<(u64, u64, usize, u64)> {
        (0..self.n_raw.load(Relaxed))
            .map(|i| {
                let tag = self.raw[3 * i + 2].load(Relaxed);
                (
                    self.raw[3 * i].load(Relaxed),
                    self.raw[3 * i + 1].load(Relaxed),
                    (tag >> 32) as usize,
                    tag & 0xFFFF_FFFF,
                )
            })
            .collect()
    }
}

/// The span file of one traced segment: per PE the aggregates of every
/// iteration, and the raw spans of the first [`RAW_ITERS`] as rows of
/// `[id, parent, pe, iteration, name, start_ns, end_ns]`. Each
/// `(pe, iteration)` gets a synthesized `iteration` root span covering
/// its children; the root's self time (duration minus children) is what
/// the engine around the calls — runner dispatch, driver loop — cost.
pub fn to_json(workload: &str, iterations: u64, wall_ns: u64, pes: &[&PeTrace]) -> Value {
    let mut names: Vec<Value> = NAMES.iter().map(|n| Value::from(*n)).collect();
    names.push(Value::from("iteration"));
    let root_name = KINDS;

    let mut rows = Vec::new();
    let mut aggregates = Vec::new();
    for (pe, trace) in pes.iter().enumerate() {
        aggregates.push(obj([
            ("pe", Value::from(pe)),
            (
                "ns",
                obj(NAMES
                    .iter()
                    .enumerate()
                    .map(|(k, n)| (*n, Value::from(trace.ns[k].load(Relaxed))))),
            ),
            (
                "calls",
                obj(NAMES
                    .iter()
                    .enumerate()
                    .map(|(k, n)| (*n, Value::from(trace.calls[k].load(Relaxed))))),
            ),
            ("msgs_sent", Value::from(trace.msgs_sent.load(Relaxed))),
            ("bytes_sent", Value::from(trace.bytes_sent.load(Relaxed))),
        ]));

        let raw = trace.raw_spans();
        // Raw spans are recorded in program order, so one iteration's
        // spans are contiguous.
        let mut i = 0;
        while i < raw.len() {
            let iter = raw[i].3;
            let mut j = i;
            let (mut lo, mut hi) = (u64::MAX, 0);
            while j < raw.len() && raw[j].3 == iter {
                lo = lo.min(raw[j].0);
                hi = hi.max(raw[j].1);
                j += 1;
            }
            let root_id = rows.len();
            let row = |id: usize, parent: Value, name: usize, s: u64, e: u64| {
                Value::Arr(vec![
                    Value::from(id),
                    parent,
                    Value::from(pe),
                    Value::from(iter),
                    Value::from(name),
                    Value::from(s),
                    Value::from(e),
                ])
            };
            rows.push(row(root_id, Value::Null, root_name, lo, hi));
            for &(s, e, k, _) in &raw[i..j] {
                rows.push(row(rows.len(), Value::from(root_id), k, s, e));
            }
            i = j;
        }
    }
    obj([
        ("workload", Value::from(workload)),
        ("iterations", Value::from(iterations)),
        ("wall_ns", Value::from(wall_ns)),
        ("raw_iterations", Value::from(RAW_ITERS.min(iterations))),
        ("names", Value::Arr(names)),
        ("aggregates", Value::Arr(aggregates)),
        (
            "columns",
            Value::Arr(
                [
                    "id",
                    "parent",
                    "pe",
                    "iteration",
                    "name",
                    "start_ns",
                    "end_ns",
                ]
                .iter()
                .map(|c| Value::from(*c))
                .collect(),
            ),
        ),
        ("spans", Value::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_cover_every_iteration_and_raw_spans_only_the_first() {
        let t = PeTrace::default();
        for iter in 0..RAW_ITERS + 10 {
            t.record(Kind::Send, iter, 100 * iter, 100 * iter + 30);
            t.record(Kind::Compute, iter, 100 * iter + 40, 100 * iter + 90);
        }
        assert_eq!(t.calls(Kind::Send), RAW_ITERS + 10);
        assert_eq!(t.ns(Kind::Send), 30 * (RAW_ITERS + 10));
        assert_eq!(t.ns(Kind::Compute), 50 * (RAW_ITERS + 10));
        assert_eq!(t.p50_ns(Kind::Send), 30.0);
        assert_eq!(t.raw_spans().len(), 2 * RAW_ITERS as usize);
    }

    #[test]
    fn span_file_links_children_to_a_root_per_iteration() {
        let (a, b) = (PeTrace::default(), PeTrace::default());
        a.record(Kind::Send, 0, 10, 20);
        a.record(Kind::Wait, 0, 25, 60);
        a.record(Kind::Send, 1, 70, 80);
        b.record(Kind::Recv, 0, 21, 24);
        let v = to_json("w", 2, 1000, &[&a, &b]);
        let spans = v.get("spans").and_then(Value::as_array).unwrap();
        // Three roots (pe0/iter0, pe0/iter1, pe1/iter0) + four children.
        assert_eq!(spans.len(), 7);
        let cell = |r: usize, c: usize| spans[r].as_array().unwrap()[c].clone();
        assert_eq!(cell(0, 1), Value::Null);
        assert_eq!(
            (cell(0, 5), cell(0, 6)),
            (Value::from(10u64), Value::from(60u64))
        );
        assert_eq!(cell(1, 1), Value::from(0u64));
        assert_eq!(cell(2, 1), Value::from(0u64));
        assert_eq!(cell(3, 1), Value::Null);
        assert_eq!(cell(4, 1), Value::from(3u64));
        assert_eq!(cell(5, 2), Value::from(1u64));
        // The whole file is valid JSON.
        assert_eq!(crate::json::parse(&v.pretty()).unwrap(), v);
    }
}
