//! Property test of the batched socket transport: on any interleaving
//! of sends and receives, the coalesced-ack credit accounting must keep
//! the in-flight bytes inside the eq. (2) window B(e), preserve FIFO
//! order, and eventually return every credit — with nobody but the two
//! calling sides reading the socket: the sender takes acknowledgements
//! in when its window is short (or when asked for its occupancy), the
//! receiver reads data when asked to receive. A seeded loop over 32
//! cases (`SPI_CHAOS_SEED=<case>` replays one).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use spi_net::{loopback_with, BatchParams};
use spi_platform::rng::for_each_case;
use spi_platform::{ChannelSpec, Transport, TransportError};

#[test]
fn coalesced_ack_accounting_never_exceeds_the_eq2_window() {
    for_each_case(32, |rng| {
        let sizes: Vec<usize> = (0..rng.gen_range(1..60usize))
            .map(|_| rng.gen_range(1..32usize))
            .collect();
        let recv_gaps: Vec<usize> = (0..rng.gen_range(1..60usize))
            .map(|_| rng.gen_range(0..4usize))
            .collect();
        let max_msgs = rng.gen_range(1..9usize);
        let cap_msgs = rng.gen_range(2..9usize);
        let max_msg = 32usize;
        let capacity = cap_msgs * max_msg;
        let spec = ChannelSpec {
            capacity_bytes: capacity,
            max_message_bytes: max_msg,
        };
        let (tx, rx) = loopback_with(
            &spec,
            BatchParams {
                max_msgs,
                flush_after: Duration::from_millis(2),
            },
        )
        .expect("batched loopback");

        let mut expected: VecDeque<Vec<u8>> = VecDeque::new();
        let tx_dbg = &tx;
        let pop_and_check = |expected: &mut VecDeque<Vec<u8>>| {
            let got = match rx.recv(Duration::from_secs(10)) {
                Ok(m) => m,
                Err(e) => panic!(
                    "recv {e:?}; tx in-flight {}B/{}msg, rx queued {}B/{}msg, expected {} msgs, params max_msgs={} cap_msgs={}",
                    tx_dbg.len_bytes(), tx_dbg.occupancy(), rx.len_bytes(), rx.occupancy(), expected.len(), max_msgs, cap_msgs
                ),
            };
            let want = expected.pop_front().expect("receive only what was sent");
            assert_eq!(got, want, "FIFO order broken by batching");
            rx.len_bytes()
        };

        for (i, &sz) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..sz).map(|b| (b as u8) ^ (i as u8)).collect();
            loop {
                match tx.try_send(&payload) {
                    Ok(()) => break,
                    Err(TransportError::Full) => {
                        if expected.is_empty() {
                            // Everything sent was already consumed; the
                            // window is only full until the receiver's
                            // cumulative ack lands. An empty poll
                            // settles any sub-threshold residue.
                            let _ = rx.try_recv();
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        }
                        // A full window with records pending is exactly
                        // where a lost or late cumulative ack would
                        // wedge; a blocking receive must always unblock
                        // it (the sender flushed before reporting Full,
                        // the receiver returns credit as it consumes).
                        let queued = pop_and_check(&mut expected);
                        assert!(
                            queued <= capacity,
                            "receiver holds {queued} B > B(e) = {capacity} B"
                        );
                    }
                    Err(other) => panic!("unexpected send error {other:?}"),
                }
            }
            expected.push_back(payload);
            let in_flight = tx.len_bytes();
            assert!(
                in_flight <= capacity,
                "sender admitted {in_flight} B in flight > B(e) = {capacity} B"
            );
            for _ in 0..recv_gaps[i % recv_gaps.len()] {
                if expected.is_empty() {
                    break;
                }
                let queued = pop_and_check(&mut expected);
                assert!(queued <= capacity);
            }
        }

        tx.flush_pending().expect("final flush");
        while !expected.is_empty() {
            pop_and_check(&mut expected);
        }

        // With the channel drained, every coalesced ack must land by the
        // time the receiver next observes an empty queue: consumptions
        // below the ack threshold stay unacknowledged only until the
        // receiver settles them on the empty poll (the same settle that
        // precedes every park, so a sender can never wedge on them).
        assert_eq!(rx.try_recv().map(|_| ()), Err(TransportError::Empty));
        let deadline = Instant::now() + Duration::from_secs(5);
        while tx.len_bytes() != 0 || tx.occupancy() != 0 {
            assert!(
                Instant::now() < deadline,
                "credits never fully returned: {} B / {} msg outstanding",
                tx.len_bytes(),
                tx.occupancy()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    });
}
