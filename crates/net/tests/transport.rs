//! Socket transport semantics: the `NetSender`/`NetReceiver` pair must
//! behave like the in-memory transports — eq. (2)-sized capacity
//! enforced at the sender, `RingTransport`-shaped errors, nonblocking
//! try-ops — and the framing codec must survive arbitrarily fragmented
//! socket I/O.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use spi_fault::{FaultKind, FaultPlan};
use spi_net::wire::{read_record, write_record};
use spi_net::{loopback, loopback_with, socket_path, BatchParams, NetReceiver, NetSender};
use spi_platform::{
    decode_frame, encode_frame_into, ChannelId, ChannelSpec, FrameError, Transport, TransportError,
    FRAME_HEADER_BYTES,
};

fn spec(capacity: usize, max_msg: usize) -> ChannelSpec {
    ChannelSpec {
        capacity_bytes: capacity,
        max_message_bytes: max_msg,
    }
}

#[test]
fn payloads_cross_the_socket_byte_accurately() {
    let (tx, rx) = loopback(&spec(4096, 512)).expect("loopback");
    for i in 0..64u32 {
        let msg: Vec<u8> = (0..((i % 37) + 1)).map(|b| (b ^ i) as u8).collect();
        tx.send(&msg, Duration::from_secs(5)).expect("send");
        let got = rx.recv(Duration::from_secs(5)).expect("recv");
        assert_eq!(got, msg, "message {i} mangled in transit");
    }
}

#[test]
fn sender_side_credit_window_enforces_declared_capacity() {
    // Two 8-byte messages fill the 16-byte window; the third must see
    // Full without the receiver ever draining.
    let (tx, _rx) = loopback(&spec(16, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("first fits");
    tx.try_send(&[2u8; 8]).expect("second fits");
    assert_eq!(tx.try_send(&[3u8; 8]), Err(TransportError::Full));
    assert_eq!(tx.len_bytes(), 16);
    assert_eq!(tx.occupancy(), 2);
}

#[test]
fn credits_return_when_the_receiver_consumes() {
    let (tx, rx) = loopback(&spec(16, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("first fits");
    tx.try_send(&[2u8; 8]).expect("second fits");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [1u8; 8]);
    // The credit ack travels back asynchronously; a blocking send must
    // absorb that latency.
    tx.send(&[3u8; 8], Duration::from_secs(5))
        .expect("send after drain");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [2u8; 8]);
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [3u8; 8]);
}

#[test]
fn oversize_messages_are_rejected_without_consuming_credits() {
    let (tx, _rx) = loopback(&spec(64, 8)).expect("loopback");
    assert_eq!(
        tx.try_send(&[0u8; 9]),
        Err(TransportError::TooLarge { bytes: 9, max: 8 })
    );
    assert_eq!(tx.len_bytes(), 0);
}

#[test]
fn blocked_send_times_out_with_ring_shaped_error() {
    let (tx, _rx) = loopback(&spec(8, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("fills the window");
    let timeout = Duration::from_millis(50);
    match tx.send(&[2u8; 8], timeout) {
        Err(TransportError::Timeout { after, idle }) => {
            assert_eq!(after, timeout);
            assert!(idle <= after, "idle {idle:?} cannot exceed after {after:?}");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn empty_receiver_reports_empty_then_times_out() {
    let (_tx, rx) = loopback(&spec(64, 8)).expect("loopback");
    assert_eq!(rx.try_recv().map(|_| ()), Err(TransportError::Empty));
    let timeout = Duration::from_millis(50);
    match rx.recv(timeout) {
        Err(TransportError::Timeout { after, .. }) => assert_eq!(after, timeout),
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn the_nonblocking_calls_never_sit_through_a_poll_window() {
    // `try_recv` on an empty receiver and `try_send` on a full window
    // make one non-blocking read each. If they polled the way a
    // blocking wait does before it sleeps, no call could come back in
    // less than the poll window; the fastest of many is free of
    // scheduling noise.
    let (tx, rx) = loopback(&spec(8, 8)).expect("loopback");
    let (_idle_tx, idle_rx) = loopback(&spec(8, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("fills the window");
    let fastest = |call: &dyn Fn()| {
        let time = |_| {
            let start = Instant::now();
            call();
            start.elapsed()
        };
        (0..200).map(time).min().expect("200 calls")
    };
    let full = fastest(&|| assert_eq!(tx.try_send(&[2u8; 8]), Err(TransportError::Full)));
    let empty = fastest(&|| assert_eq!(idle_rx.try_recv(), Err(TransportError::Empty)));
    let bound = spi_sched::WAKEUP_COST / 2;
    assert!(full < bound, "try_send on a full window took {full:?}");
    assert!(
        empty < bound,
        "try_recv on an empty receiver took {empty:?}"
    );
    assert_eq!(rx.try_recv().expect("the one message"), [1u8; 8]);
}

#[test]
fn an_empty_window_always_admits_one_message() {
    // Mirrors the in-memory transports: a message as large as the whole
    // capacity must pass when the channel is idle.
    let (tx, rx) = loopback(&spec(8, 8)).expect("loopback");
    tx.send(&[7u8; 8], Duration::from_secs(5)).expect("send");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [7u8; 8]);
}

#[test]
fn peer_disconnect_surfaces_as_timeout_not_hang() {
    let (tx, rx) = loopback(&spec(8, 8)).expect("loopback");
    tx.try_send(&[1u8; 8]).expect("fills the window");
    drop(rx);
    let start = std::time::Instant::now();
    let res = tx.send(&[2u8; 8], Duration::from_secs(30));
    assert!(
        matches!(res, Err(TransportError::Timeout { .. })),
        "expected fast-fail Timeout, got {res:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "closed peer must fail fast, waited {:?}",
        start.elapsed()
    );
}

#[test]
fn a_fault_plan_wrapping_each_end_apart_delivers_its_extra_frames() {
    // `spi-noded --chaos` wraps each process's end of a socket in its
    // own decorator from the same plan: the duplicate and the corrupt
    // copy must still reach the receiver, behind the message each
    // follows, for its sequence dedup and its CRC check to see them.
    let (decorator, _log) = FaultPlan::new()
        .inject(ChannelId(0), 0, FaultKind::Duplicate)
        .inject(ChannelId(0), 2, FaultKind::Corrupt)
        .into_decorator()
        .expect("valid plan");
    let (tx, rx) = loopback(&spec(1024, 64)).expect("loopback");
    let (tx, rx) = (
        decorator(ChannelId(0), Box::new(tx)),
        decorator(ChannelId(0), Box::new(rx)),
    );
    let t = Duration::from_secs(5);
    let mut frame = Vec::new();
    for seq in 0..3 {
        encode_frame_into(&mut frame, seq, &[seq as u8; 8]);
        let sent = tx.send(&frame, t);
        if seq == 2 {
            assert!(matches!(sent, Err(TransportError::Injected { .. })));
            tx.send(&frame, t).expect("the retransmission");
        } else {
            sent.expect("send");
        }
    }
    let got: Vec<_> = (0..5)
        .map(|_| decode_frame(&rx.recv(t).expect("recv")).map(|(seq, _)| seq))
        .collect();
    assert_eq!(got, [Ok(0), Ok(0), Ok(1), Ok(2), Err(FrameError::BadCrc)]);
    assert_eq!(rx.try_recv(), Err(TransportError::Empty));
}

#[test]
fn bind_and_connect_establish_across_a_filesystem_socket() {
    let dir = std::env::temp_dir().join(format!("spi-net-t-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = socket_path(&dir, 0);
    let s = spec(1024, 128);
    let bound = NetReceiver::bind_with(&path, &s, BatchParams::disabled()).expect("bind");
    let tx = NetSender::connect_with(&path, &s, BatchParams::disabled()).expect("connect");
    let rx = bound.accept().expect("accept");
    assert!(!path.exists(), "the path is needed only until the accept");
    tx.send(b"over the wall", Duration::from_secs(5))
        .expect("send");
    assert_eq!(
        rx.recv(Duration::from_secs(5)).expect("recv"),
        b"over the wall"
    );
    drop(rx);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Batched path: sender-side coalescing into one staged write and the
// receiver's cumulative credit acks must preserve every semantic the
// unbatched tests above pin down.
// ---------------------------------------------------------------------

fn batch(max_msgs: usize, flush_after: Duration) -> BatchParams {
    BatchParams {
        max_msgs,
        flush_after,
    }
}

#[test]
fn batched_payloads_arrive_byte_accurate_and_in_order() {
    let (tx, rx) = loopback_with(&spec(4096, 512), batch(8, Duration::from_millis(50)))
        .expect("batched loopback");
    let msgs: Vec<Vec<u8>> = (0..64u32)
        .map(|i| (0..((i % 37) + 1)).map(|b| (b ^ i) as u8).collect())
        .collect();
    for m in &msgs {
        tx.send(m, Duration::from_secs(5)).expect("send");
    }
    for (i, m) in msgs.iter().enumerate() {
        let got = rx.recv(Duration::from_secs(5)).expect("recv");
        assert_eq!(&got, m, "message {i} mangled or reordered by batching");
    }
}

#[test]
fn batched_sender_still_enforces_the_credit_window() {
    // Window holds 8 messages; the batch bound (4) is half the window.
    // Pending-but-unflushed records count against the window, so the
    // ninth send must see Full with no receiver involvement.
    let (tx, _rx) =
        loopback_with(&spec(64, 8), batch(4, Duration::from_secs(5))).expect("batched loopback");
    for i in 0..8u8 {
        tx.try_send(&[i; 8]).expect("window admits eight");
    }
    assert_eq!(tx.try_send(&[9u8; 8]), Err(TransportError::Full));
    assert_eq!(tx.len_bytes(), 64);
    assert_eq!(tx.occupancy(), 8);
}

/// Stages `payload` on `tx` from a helper thread that then stays alive
/// without ever waiting inside spi-net — an owner gone off to compute —
/// until the returned handle is dropped. Also returns an instant taken
/// just before the record was staged: a lower bound on when its batch
/// started, so a helper descheduled around `try_send` can only make a
/// wait measured from it look longer, never shorter.
fn stage_and_wander(tx: &Arc<NetSender>, payload: &'static [u8]) -> (mpsc::Sender<()>, Instant) {
    let tx = Arc::clone(tx);
    let (release, parked) = mpsc::channel::<()>();
    let (staged, when) = mpsc::channel();
    std::thread::spawn(move || {
        let before = Instant::now();
        tx.try_send(payload).expect("stage");
        staged.send(before).expect("report");
        let _ = parked.recv();
    });
    (release, when.recv().expect("helper staged the record"))
}

#[test]
fn deadline_flush_delivers_a_lone_record_while_its_owner_is_away() {
    // One record in a batch of 8, staged by a thread that never waits
    // inside spi-net again: only the net-timer deadline can put it on
    // the wire, and it must do so within flush_after (plus scheduling).
    let flush_after = Duration::from_millis(20);
    let (tx, rx) = loopback_with(&spec(4096, 64), batch(8, flush_after)).expect("batched loopback");
    let tx = Arc::new(tx);
    let (_owner, staged_at) = stage_and_wander(&tx, b"lone");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"lone");
    let waited = staged_at.elapsed();
    assert!(
        waited >= flush_after - Duration::from_millis(1),
        "arrived after {waited:?}: something other than the deadline flushed it"
    );
    assert!(
        waited < Duration::from_secs(2),
        "deadline flush took {waited:?}"
    );
}

#[test]
fn a_blocked_receiver_is_served_by_the_deadline_not_by_feedback() {
    // A receiver parked in recv sends nothing back (there is no hungry
    // signal): a record staged by a wandering owner reaches it at the
    // flush deadline — not earlier, and not at the batch-full never.
    let flush_after = Duration::from_millis(40);
    let (tx, rx) = loopback_with(&spec(4096, 64), batch(8, flush_after)).expect("batched loopback");
    let waiter = std::thread::spawn(move || {
        let got = rx.recv(Duration::from_secs(10));
        (got, Instant::now())
    });
    // Let the receiver park before the record is staged.
    std::thread::sleep(Duration::from_millis(50));
    let tx = Arc::new(tx);
    let (_owner, staged_at) = stage_and_wander(&tx, b"eager");
    let (got, arrived_at) = waiter.join().expect("join");
    assert_eq!(got.expect("recv"), b"eager");
    let waited = arrived_at.duration_since(staged_at);
    assert!(
        waited >= flush_after - Duration::from_millis(1) && waited < Duration::from_secs(2),
        "delivery took {waited:?} against a {flush_after:?} deadline"
    );
}

#[test]
fn request_response_over_two_batched_edges_needs_no_deadline() {
    // Flush-before-block: each side stages one record in a batch of 8
    // and then waits for the other's reply. With a 30 s deadline only
    // the rule "drain what you staged before you wait" can keep the
    // loop turning.
    let far = batch(8, Duration::from_secs(30));
    let (req_tx, req_rx) = loopback_with(&spec(4096, 64), far).expect("request edge");
    let (rsp_tx, rsp_rx) = loopback_with(&spec(4096, 64), far).expect("response edge");
    let server = std::thread::spawn(move || {
        for _ in 0..200u32 {
            let mut req = req_rx.recv(Duration::from_secs(10)).expect("request");
            req.reverse();
            rsp_tx.send(&req, Duration::from_secs(10)).expect("reply");
        }
    });
    let start = Instant::now();
    for i in 0..200u32 {
        req_tx
            .send(&i.to_le_bytes(), Duration::from_secs(10))
            .expect("request");
        let rsp = rsp_rx.recv(Duration::from_secs(10)).expect("response");
        assert_eq!(rsp, i.to_be_bytes());
    }
    server.join().expect("server");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "200 round trips took {:?}",
        start.elapsed()
    );
}

#[test]
fn polling_an_empty_receiver_flushes_what_the_poller_staged() {
    // The non-blocking face of the same rule: try_recv reporting Empty
    // is a wait point too.
    let far = batch(8, Duration::from_secs(30));
    let (tx, rx) = loopback_with(&spec(4096, 64), far).expect("edge");
    let (_other_tx, other_rx) = loopback_with(&spec(4096, 64), far).expect("other edge");
    tx.try_send(b"staged").expect("stage");
    assert_eq!(
        other_rx.try_recv().map(|_| ()),
        Err(TransportError::Empty),
        "nothing was sent on the other edge"
    );
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"staged");
}

#[test]
fn a_thread_that_exits_with_a_partial_batch_strands_nothing() {
    let far = batch(8, Duration::from_secs(30));
    let (tx, rx) = loopback_with(&spec(4096, 64), far).expect("batched loopback");
    let tx = Arc::new(tx);
    let stager = Arc::clone(&tx);
    std::thread::spawn(move || {
        stager.try_send(b"one").expect("stage");
        stager.try_send(b"two").expect("stage");
    })
    .join()
    .expect("stager");
    // The endpoint is still alive (no Final flush) and the deadline is
    // 30 s away: the records are here because the thread's exit
    // flushed them.
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"one");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"two");
    drop(tx);
}

/// `comm` of every live thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|c| c.trim().to_string())
        .collect()
}

#[test]
fn eight_batched_edges_run_on_at_most_one_helper_thread() {
    let fast = batch(4, Duration::from_millis(1));
    let edges: Vec<_> = (0..8)
        .map(|_| loopback_with(&spec(1024, 16), fast).expect("edge"))
        .collect();
    // Steady state: traffic on every edge, partial batches left for the
    // timer, credit going round.
    for round in 0..50u8 {
        for (tx, rx) in &edges {
            for i in 0..3u8 {
                tx.send(&[round, i], Duration::from_secs(5)).expect("send");
            }
            for i in 0..3u8 {
                assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [round, i]);
            }
        }
    }
    let names = thread_names();
    let helpers: Vec<&String> = names.iter().filter(|n| n.starts_with("net-")).collect();
    // One timer per process, however many edges (other tests of this
    // binary share it); none of the per-edge threads of old.
    assert!(
        helpers.len() <= 1 && helpers.iter().all(|n| *n == "net-timer"),
        "spi-net helper threads with 8 edges open: {helpers:?}"
    );
    drop(edges);
}

#[test]
fn a_corrupt_length_prefix_closes_the_channel_instead_of_allocating() {
    let (mut raw, ours) = UnixStream::pair().expect("socketpair");
    let rx = NetReceiver::from_stream_with(ours, &spec(256, 64), BatchParams::disabled());
    // One good record, then a prefix claiming 200 MiB on a channel
    // whose messages are at most 64 bytes.
    write_record(&mut raw, b"fine").expect("good record");
    raw.write_all(&(200u32 << 20).to_le_bytes())
        .expect("prefix");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"fine");
    let start = Instant::now();
    let res = rx.recv(Duration::from_secs(30));
    assert!(
        matches!(res, Err(TransportError::Timeout { .. })),
        "expected the closed-channel error, got {res:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "corruption must fail fast, waited {:?}",
        start.elapsed()
    );
}

#[test]
fn a_sender_refuses_credit_it_never_extended() {
    // An acknowledgement for more than was sent is stream corruption:
    // the channel closes rather than letting the window run negative.
    let (ours, mut raw) = UnixStream::pair().expect("socketpair");
    let tx =
        NetSender::from_stream_with(ours, &spec(8, 8), BatchParams::disabled()).expect("sender");
    tx.try_send(&[1u8; 8]).expect("fills the window");
    raw.write_all(&spi_net::wire::encode_ack(1 << 40, 3))
        .expect("bogus ack");
    let res = tx.send(&[2u8; 8], Duration::from_secs(30));
    assert!(
        matches!(res, Err(TransportError::Timeout { .. })),
        "expected the closed-channel error, got {res:?}"
    );
}

#[test]
fn explicit_and_final_flushes_drain_pending_records() {
    let (tx, rx) = loopback_with(&spec(4096, 64), batch(8, Duration::from_secs(30)))
        .expect("batched loopback");
    tx.try_send(b"one").expect("send");
    tx.try_send(b"two").expect("send");
    tx.flush_pending().expect("explicit flush");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"one");
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"two");
    tx.try_send(b"three").expect("send");
    drop(tx); // Drop's Final flush must not strand the record.
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), b"three");
}

#[test]
fn coalesced_acks_return_credit_for_sustained_traffic() {
    // Window = 4 messages, batch = 2: the receiver acks cumulatively
    // (every 2 consumptions or at the half-window low-water mark), so
    // several window-refills' worth of blocking sends must all clear.
    let (tx, rx) =
        loopback_with(&spec(32, 8), batch(2, Duration::from_millis(10))).expect("batched loopback");
    let consumer = std::thread::spawn(move || {
        let mut got = Vec::new();
        for _ in 0..24 {
            got.push(rx.recv(Duration::from_secs(10)).expect("recv"));
        }
        (got, rx) // keep the endpoint alive for the drain check below
    });
    for i in 0..24u8 {
        tx.send(&[i; 8], Duration::from_secs(10)).expect("send");
    }
    let (got, rx) = consumer.join().expect("join");
    for (i, m) in got.iter().enumerate() {
        assert_eq!(m, &[i as u8; 8], "message {i}");
    }
    // Every credit returns once the receiver settles on its empty poll
    // (sub-threshold residue is acknowledged at every wait point).
    assert_eq!(rx.try_recv().map(|_| ()), Err(TransportError::Empty));
    let deadline = Instant::now() + Duration::from_secs(5);
    while tx.len_bytes() != 0 {
        assert!(Instant::now() < deadline, "final cumulative ack missing");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tx.occupancy(), 0);
}

#[test]
fn batched_endpoints_interoperate_across_a_filesystem_socket() {
    let dir = std::env::temp_dir().join(format!("spi-net-b-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = socket_path(&dir, 1);
    let s = spec(1024, 128);
    let b = batch(4, Duration::from_millis(10));
    let bound = NetReceiver::bind_with(&path, &s, b).expect("bind");
    let tx = NetSender::connect_with(&path, &s, b).expect("connect");
    let rx = bound.accept().expect("accept");
    for i in 0..16u8 {
        tx.send(&[i; 16], Duration::from_secs(5)).expect("send");
    }
    for i in 0..16u8 {
        assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [i; 16]);
    }
    drop(rx);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// No endpoint waits for socket space: the socket buffer is the kernel's
// business, the window is eq. (2)'s. A sender blocks on credit only, a
// receiver never on an acknowledgement, and a sender's exit costs its
// consumer nothing.
// ---------------------------------------------------------------------

/// A 1 MiB window of 4 KiB messages: five times what a default Unix
/// socket buffer takes.
const WIDE: usize = 256;

fn wide_spec() -> ChannelSpec {
    spec(WIDE * 4096, 4096)
}

fn wide_msg(i: usize) -> Vec<u8> {
    (0..4096).map(|b| (b ^ i) as u8).collect()
}

#[test]
fn a_sender_that_finishes_first_loses_none_of_its_tail() {
    // The receiver reads one batch ahead, the sender writes another and
    // exits: the acknowledgement that then fails says the sender is
    // gone, not that its stream is over.
    let (tx, rx) =
        loopback_with(&spec(64, 8), batch(4, Duration::from_secs(30))).expect("batched loopback");
    for i in 0..4u8 {
        tx.try_send(&[i; 8]).expect("first batch");
    }
    assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [0u8; 8]);
    for i in 4..8u8 {
        tx.try_send(&[i; 8]).expect("second batch");
    }
    drop(tx);
    for i in 1..8u8 {
        assert_eq!(rx.recv(Duration::from_secs(5)).expect("tail"), [i; 8]);
    }
    let res = rx.recv(Duration::from_secs(30));
    assert!(
        matches!(res, Err(TransportError::Timeout { .. })),
        "expected the closed-channel error after the last record, got {res:?}"
    );
}

#[test]
fn a_window_wider_than_the_socket_buffer_blocks_on_credit_alone() {
    for b in [BatchParams::disabled(), batch(32, Duration::from_secs(30))] {
        let (tx, rx) = loopback_with(&wide_spec(), b).expect("loopback");
        // Nobody is reading: the whole window must still go in without
        // a wait, as it would into a ring of that size.
        let start = Instant::now();
        for i in 0..WIDE {
            tx.try_send(&wide_msg(i)).expect("the window admits it");
        }
        assert_eq!(tx.try_send(&wide_msg(0)), Err(TransportError::Full));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(tx.snapshot(), (WIDE * 4096, WIDE));
        // This thread staged what the socket refused, so its own waits
        // in recv push it out.
        for i in 0..WIDE {
            assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), wide_msg(i));
        }
    }
}

#[test]
fn a_schedule_that_fits_the_window_cannot_deadlock_on_the_socket() {
    // A fills e1 and then sends on e3; B waits for e3 before it reads
    // e1. Deadlock-free on rings sized to the windows, so deadlock-free
    // here — including e1's tail, which A leaves to the timer.
    let (e1_tx, e1_rx) = loopback_with(&wide_spec(), BatchParams::disabled()).expect("e1");
    let (e3_tx, e3_rx) = loopback(&spec(64, 8)).expect("e3");
    let (done, parked) = mpsc::channel::<()>();
    let a = std::thread::spawn(move || {
        for i in 0..WIDE {
            e1_tx
                .send(&wide_msg(i), Duration::from_secs(10))
                .expect("e1");
        }
        e3_tx.send(b"go", Duration::from_secs(10)).expect("e3");
        // Off computing: no spi-net wait point, endpoints kept alive.
        let _ = parked.recv();
    });
    assert_eq!(e3_rx.recv(Duration::from_secs(10)).expect("e3"), b"go");
    for i in 0..WIDE {
        assert_eq!(
            e1_rx.recv(Duration::from_secs(10)).expect("e1"),
            wide_msg(i)
        );
    }
    done.send(()).expect("release");
    a.join().expect("A");
}

#[test]
fn a_send_that_finds_no_room_anywhere_honours_its_deadline() {
    // One-byte records cost five staged bytes each: a window of them
    // outgrows the staging buffer, and with the socket full too the send
    // has to wait for the consumer — for as long as it was given.
    let (tx, rx) = loopback(&spec(1 << 16, 1 << 16)).expect("loopback");
    let mut sent = 0usize;
    while tx.try_send(&[sent as u8]).is_ok() {
        sent += 1;
        assert!(sent < 1 << 16, "credit ran out before room did");
    }
    let (timeout, start) = (Duration::from_millis(50), Instant::now());
    match tx.send(&[0], timeout) {
        Err(TransportError::Timeout { after, idle }) => assert!(after == timeout && idle <= after),
        other => panic!("expected Timeout, got {other:?}"),
    }
    let waited = start.elapsed();
    assert!(waited >= timeout && waited < Duration::from_secs(5));
    for i in 0..sent {
        assert_eq!(rx.recv(Duration::from_secs(5)).expect("recv"), [i as u8]);
    }
    tx.send(&[7], Duration::from_secs(5))
        .expect("room came back");
}

#[test]
fn acknowledgements_nobody_reads_do_not_slow_the_receiver() {
    // Unbatched, one ack per message, and a sender that reads them only
    // when its window is short: the ack direction fills after a few
    // hundred. From there on each ack must be skipped on the spot.
    const N: u32 = 3000;
    let (tx, rx) = loopback(&spec(N as usize * 4, 4)).expect("loopback");
    for i in 0..N {
        tx.try_send(&i.to_le_bytes()).expect("the window admits it");
    }
    let start = Instant::now();
    for i in 0..N {
        let got = rx.recv(Duration::from_secs(5)).expect("recv");
        assert_eq!(got, i.to_le_bytes());
    }
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{N} receives took {:?}: the receiver waited on its acks",
        start.elapsed()
    );
    // Once the sender reads through the backlog, the receiver's next
    // wait point gets the latest totals out, and they cover every ack
    // that was skipped.
    let deadline = Instant::now() + Duration::from_secs(5);
    while tx.snapshot() != (0, 0) {
        assert!(Instant::now() < deadline, "credit lost with a skipped ack");
        assert_eq!(rx.try_recv().map(|_| ()), Err(TransportError::Empty));
    }
}

// ---------------------------------------------------------------------
// Framing resilience: the seq+crc32 supervision frames must survive
// partial reads and short writes on the wire codec.
// ---------------------------------------------------------------------

/// Writer that accepts at most `chunk` bytes per call — models a socket
/// under backpressure returning short writes.
struct ShortWriter {
    out: Vec<u8>,
    chunk: usize,
}

impl Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Reader that yields at most `chunk` bytes per call — models a socket
/// delivering a record in fragments.
struct ShortReader<'a> {
    buf: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for ShortReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = out.len().min(self.chunk).min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn supervision_frames_survive_fragmented_wire_io() {
    let payload: Vec<u8> = (0..1500u32).map(|i| (i * 7) as u8).collect();
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, 42, &payload);

    for chunk in [1, 2, 3, 7, 8, 9, 64, 4096] {
        let mut w = ShortWriter {
            out: Vec::new(),
            chunk,
        };
        write_record(&mut w, &frame).expect("write through short writes");
        let mut r = ShortReader {
            buf: &w.out,
            pos: 0,
            chunk,
        };
        let got = read_record(&mut r)
            .expect("read through partial reads")
            .expect("one record");
        let (seq, body) = decode_frame(&got).expect("frame intact");
        assert_eq!(seq, 42, "chunk size {chunk}");
        assert_eq!(body, &payload[..], "chunk size {chunk}");
    }
}

#[test]
fn truncated_frame_prefixes_never_decode() {
    let payload = b"signal processing interface";
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, 3, payload);
    // Every proper prefix must fail loudly: header-short prefixes as
    // Truncated, longer ones by CRC (the crc covers the whole payload).
    for n in 0..frame.len() {
        match decode_frame(&frame[..n]) {
            Err(FrameError::Truncated) => assert!(n < FRAME_HEADER_BYTES),
            Err(FrameError::BadCrc) => assert!(n >= FRAME_HEADER_BYTES),
            Ok(_) => panic!("prefix of {n} bytes decoded as a valid frame"),
        }
    }
    let (seq, body) = decode_frame(&frame).expect("full frame decodes");
    assert_eq!((seq, body), (3, &payload[..]));
}

#[test]
fn a_record_split_mid_length_prefix_is_an_unexpected_eof() {
    let mut full = Vec::new();
    write_record(&mut full, b"abcdef").expect("encode");
    for cut in 1..4 {
        let mut r = ShortReader {
            buf: &full[..cut],
            pos: 0,
            chunk: 1,
        };
        let err = read_record(&mut r).expect_err("mid-prefix EOF must error");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
    }
}
