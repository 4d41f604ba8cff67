//! Benchmark-side tracing of programs that run on the program's own
//! engines (`ThreadedRunner`, the DES): a timing [`Transport`] installed
//! through `ThreadedRunner::decorate_transports`, and wrappers around
//! the `Op::Compute` / `Op::Send` closures of the lowered programs.
//! Nothing inside the program is touched; what the spans do not cover
//! is, by subtraction, the engine itself.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spi_platform::{
    BufferPool, ChannelId, Op, Program, Token, Transport, TransportDecorator, TransportError,
};

use crate::host::TaskSample;
use crate::spans::{now_ns, Kind, PeTrace};

/// A [`Transport`] that times the calls the engines make. A blocking
/// call first tries its non-blocking twin: if that succeeds the time is
/// transport work, otherwise the blocking call that follows is waiting.
struct TimedTransport {
    inner: Box<dyn Transport>,
    /// Trace of the PE that sends on this channel / receives from it.
    tx: Arc<PeTrace>,
    rx: Arc<PeTrace>,
}

impl Transport for TimedTransport {
    fn capacity_bytes(&self) -> usize {
        self.inner.capacity_bytes()
    }
    fn max_message_bytes(&self) -> usize {
        self.inner.max_message_bytes()
    }
    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn snapshot(&self) -> (usize, usize) {
        self.inner.snapshot()
    }
    fn pool(&self) -> Option<&BufferPool> {
        self.inner.pool()
    }

    fn send(&self, data: &[u8], timeout: Duration) -> Result<(), TransportError> {
        match self.try_send(data) {
            Err(TransportError::Full) => {
                let iter = self.tx.cur_iter.load(Relaxed);
                let r = self
                    .tx
                    .span(Kind::Wait, iter, || self.inner.send(data, timeout));
                if r.is_ok() {
                    self.tx.note_sent(data.len());
                }
                r
            }
            r => r,
        }
    }

    fn try_send(&self, data: &[u8]) -> Result<(), TransportError> {
        let start = now_ns();
        let r = self.inner.try_send(data);
        if r.is_ok() {
            self.tx
                .record(Kind::Send, self.tx.cur_iter.load(Relaxed), start, now_ns());
            self.tx.note_sent(data.len());
        }
        r
    }

    fn recv_token(&self, timeout: Duration) -> Result<Token, TransportError> {
        match self.try_recv_token() {
            Err(TransportError::Empty) => {
                let iter = self.rx.cur_iter.load(Relaxed);
                self.rx
                    .span(Kind::Wait, iter, || self.inner.recv_token(timeout))
            }
            r => r,
        }
    }

    fn try_recv_token(&self) -> Result<Token, TransportError> {
        let start = now_ns();
        let r = self.inner.try_recv_token();
        if r.is_ok() {
            self.rx
                .record(Kind::Recv, self.rx.cur_iter.load(Relaxed), start, now_ns());
        }
        r
    }

    // The engines reach the transport only through the four calls
    // above; the rest of the trait forwards so the decorator stays a
    // faithful `Transport`.
    fn try_recv(&self) -> Result<Vec<u8>, TransportError> {
        self.try_recv_token().map(Token::into_vec)
    }
    fn recv(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.recv_token(timeout).map(Token::into_vec)
    }
    fn send_with(
        &self,
        len: usize,
        fill: &mut dyn FnMut(&mut [u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let iter = self.tx.cur_iter.load(Relaxed);
        let r = self.tx.span(Kind::Send, iter, || {
            self.inner.send_with(len, fill, timeout)
        });
        if r.is_ok() {
            self.tx.note_sent(len);
        }
        r
    }
    fn recv_with(
        &self,
        consume: &mut dyn FnMut(&[u8]),
        timeout: Duration,
    ) -> Result<(), TransportError> {
        let iter = self.rx.cur_iter.load(Relaxed);
        self.rx
            .span(Kind::Recv, iter, || self.inner.recv_with(consume, timeout))
    }
}

/// The spans of one instrumented program set.
pub struct Instrumented {
    /// One trace per PE, in program order.
    pub pes: Vec<Arc<PeTrace>>,
    /// `/proc/self/task` walks taken by PE0 at 1/8 and 7/8 of its
    /// iterations, while every thread of the run is alive.
    pub samples: Arc<Mutex<Vec<TaskSample>>>,
    channel_ends: Vec<(usize, usize)>,
}

impl Instrumented {
    /// The decorator to hand to `ThreadedRunner::decorate_transports`.
    pub fn decorator(&self) -> Arc<TransportDecorator> {
        let pes = self.pes.clone();
        let ends = self.channel_ends.clone();
        Arc::new(
            move |ch: ChannelId, inner: Box<dyn Transport>| -> Box<dyn Transport> {
                let (tx, rx) = ends[ch.0];
                Box::new(TimedTransport {
                    inner,
                    tx: pes[tx].clone(),
                    rx: pes[rx].clone(),
                })
            },
        )
    }

    /// `(threads alive mid-run, run-queue wait share between the two
    /// samples)`.
    pub fn threads_and_runqueue(&self) -> (usize, f64) {
        TaskSample::summarize(&self.samples.lock().expect("sample lock"))
    }
}

/// Wraps every closure of `programs` in a span and works out which PE
/// sits at each end of each channel.
pub fn instrument(programs: &mut [Program], channels: usize) -> Instrumented {
    let pes: Vec<Arc<PeTrace>> = programs
        .iter()
        .map(|_| Arc::new(PeTrace::default()))
        .collect();
    let samples = Arc::new(Mutex::new(Vec::new()));
    let mut channel_ends = vec![(0usize, 0usize); channels];
    for (pe, program) in programs.iter_mut().enumerate() {
        for op in program.prologue.iter().chain(&program.ops) {
            match op {
                Op::Send { channel, .. } => channel_ends[channel.0].0 = pe,
                Op::Recv { channel } => channel_ends[channel.0].1 = pe,
                _ => {}
            }
        }
        let sampler = (pe == 0).then(|| (samples.clone(), program.iterations));
        wrap_ops(&mut program.prologue, &pes[pe], None);
        wrap_ops(&mut program.ops, &pes[pe], sampler);
    }
    Instrumented {
        pes,
        samples,
        channel_ends,
    }
}

type Sampler = (Arc<Mutex<Vec<TaskSample>>>, u64);

fn wrap_ops(ops: &mut [Op], trace: &Arc<PeTrace>, mut sampler: Option<Sampler>) {
    let has_closure = |op: &Op| matches!(op, Op::Compute { .. } | Op::Send { .. });
    let last = ops.iter().rposition(has_closure);
    for (i, op) in ops.iter_mut().enumerate() {
        let t = trace.clone();
        let is_last = Some(i) == last;
        // The iteration's first closure keeps the transport spans'
        // iteration tag current; its last one advances the tag so a
        // receive that opens the next iteration is tagged with it.
        let enter = move |iter: u64| {
            t.cur_iter.store(iter, Relaxed);
            now_ns()
        };
        let t = trace.clone();
        let leave = move |kind: Kind, iter: u64, start: u64| {
            t.record(kind, iter, start, now_ns());
            if is_last {
                t.cur_iter.store(iter + 1, Relaxed);
            }
        };
        // Only the first closure of PE0's loop samples.
        let sampler = if has_closure(op) {
            sampler.take()
        } else {
            None
        };
        let sample = move |iter: u64| {
            if let Some((samples, of)) = &sampler {
                if iter == of / 8 || iter + 1 == of - of / 8 {
                    samples
                        .lock()
                        .expect("sample lock")
                        .push(TaskSample::take());
                }
            }
        };
        match op {
            Op::Compute { work, .. } => {
                let mut inner = std::mem::replace(work, Box::new(|_| 0));
                *work = Box::new(move |l| {
                    sample(l.iter);
                    let start = enter(l.iter);
                    let cycles = inner(l);
                    leave(Kind::Compute, l.iter, start);
                    cycles
                });
            }
            Op::Send { payload, .. } => {
                let mut inner = std::mem::replace(payload, Box::new(|_| Vec::new()));
                *payload = Box::new(move |l| {
                    sample(l.iter);
                    let start = enter(l.iter);
                    let bytes = inner(l);
                    leave(Kind::Payload, l.iter, start);
                    bytes
                });
            }
            Op::Recv { .. } | Op::WaitUntil { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_platform::{ChannelSpec, ThreadedRunner, TransportKind};

    #[test]
    fn spans_cover_transport_calls_and_closures_of_a_two_pe_program() {
        let c = ChannelId(0);
        let producer = Program::new(
            vec![Op::Send {
                channel: c,
                payload: Box::new(|l| vec![l.iter as u8; 4]),
            }],
            50,
        );
        let consumer = Program::new(
            vec![
                Op::Recv { channel: c },
                Op::Compute {
                    label: "check".into(),
                    work: Box::new(move |l| {
                        assert_eq!(l.take_from(c), Some(vec![l.iter as u8; 4]));
                        0
                    }),
                },
            ],
            50,
        );
        let mut programs = vec![producer, consumer];
        let inst = instrument(&mut programs, 1);
        let spec = ChannelSpec {
            capacity_bytes: 16,
            max_message_bytes: 4,
            ..ChannelSpec::default()
        };
        ThreadedRunner::new()
            .transport(TransportKind::Ring)
            .decorate_transports(inst.decorator())
            .run(&[spec], programs)
            .expect("run");

        let (p, c) = (&inst.pes[0], &inst.pes[1]);
        assert_eq!(p.calls(Kind::Payload), 50);
        assert_eq!(p.calls(Kind::Send) + p.calls(Kind::Wait), 50);
        assert_eq!(p.msgs_sent.load(Relaxed), 50);
        assert_eq!(p.bytes_sent.load(Relaxed), 200);
        assert_eq!(c.calls(Kind::Recv) + c.calls(Kind::Wait), 50);
        assert_eq!(c.calls(Kind::Compute), 50);
        let (threads, share) = inst.threads_and_runqueue();
        assert!(
            threads >= 2,
            "PE threads alive at the sample, saw {threads}"
        );
        assert!((0.0..=1.0).contains(&share));
    }
}
