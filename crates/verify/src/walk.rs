//! The runner's op walk under the explorer: a run of consecutive sends,
//! each published quietly, whose consumer is woken once for the run.
//!
//! [`explore_send_run`] runs the shipped [`ThreadedRunner`] (its
//! `Direct` port, untraced) on two PEs inside an exploration —
//! `shim::scope` enrolls the PE threads — so every schedule point of
//! the walk, the transport and the wait list is explored together. The
//! producer's program is one run of two sends on a one-message channel;
//! the consumer receives and keeps each message in turn. The second
//! send finds the channel full while the consumer may be parked on the
//! first, whose publish woke nobody: unless the PE pays the wake it
//! owes before its blocking fallback, both PEs park for good, and the
//! frozen model clock turns that into a reported deadlock (registry
//! entry `mutants/deferred_wake_unflushed.patch`).

use std::time::Duration;

use spi_platform::model::{explore, Exploration, ModelOptions};
use spi_platform::{ChannelId, ChannelSpec, Op, Program, ThreadedRunner, TransportKind};

/// Far beyond any exploration: the model clock is frozen, so this
/// deadline is simply "never" inside a session.
const NEVER: Duration = Duration::from_secs(3600);

/// Exhaustively explores a two-send run through a one-message channel
/// over `kind` ([`TransportKind::Ring`] or [`TransportKind::Pointer`];
/// the locked reference queue blocks on a real mutex and cannot run
/// under the explorer). Every schedule must complete with the consumer
/// holding both messages in order.
pub fn explore_send_run(kind: TransportKind, opts: &ModelOptions) -> Exploration {
    explore(opts, move |sc| {
        sc.thread("runner", move || {
            let ch = ChannelId(0);
            let spec = ChannelSpec {
                capacity_bytes: 4,
                max_message_bytes: 4,
            };
            let send = |byte: u8| Op::Send {
                channel: ch,
                payload: Box::new(move |_| vec![byte; 4]),
            };
            let producer = Program::new(vec![send(1), send(2)], 1);
            // Each message is taken out of the inbox before the next
            // receive: a pooled lease held there would keep the
            // pointer transport's only slot from the second send.
            let keep = || Op::Compute {
                label: "keep".into(),
                work: Box::new(move |l| {
                    let m = l.take_from(ch).expect("received");
                    l.store.entry("got".into()).or_default().push(m[0]);
                    0
                }),
            };
            let recv = || Op::Recv { channel: ch };
            let consumer = Program::new(vec![recv(), keep(), recv(), keep()], 1);
            // The consumer is PE 0. The runner joins its PEs in order
            // and a join depends on every step; the consumer finishes
            // after the producer's last publish, so its join meets only
            // the producer's trailing wakes (the other order explores
            // several times as many schedules).
            let results = ThreadedRunner::new()
                .transport(kind)
                .timeout(NEVER)
                .run(&[spec], vec![consumer, producer])
                .expect("model run");
            assert_eq!(
                results[0].store["got"],
                [1, 2],
                "run delivered out of order"
            );
        });
    })
}
