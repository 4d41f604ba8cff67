//! Seeded simulation tests for the `spi-net` sender's adaptive flush
//! policy edges (ISSUE satellite): each edge runs under one named
//! seed, so a failure prints a one-command replay line and CI runs are
//! reproducible bit-for-bit. The virtual clock makes the timing edges
//! (the `net-timer` deadline, hour-long deadlines that must *not* fire)
//! exact and instantaneous.

use spi_sim::{check, env_seed, scenarios, SimOptions};

const TEST: &str = "net_flush_edges";

fn opts(named: u64) -> SimOptions {
    SimOptions::seeded(env_seed("SPI_SIM_SEED").unwrap_or(named))
}

#[test]
fn deadline_fires_on_partial_batch() {
    // Named seed 0xD0: three records in an 8-record window, their owner
    // asleep past the deadline — only the Deadline trigger can flush.
    let o = opts(0xD0);
    check(TEST, &o, || scenarios::net_deadline_flush(o.seed));
}

#[test]
fn idle_then_full_window() {
    // Named seed 0xB1: a producer about to wait for a reply flushes its
    // cold batch first (flush-before-block); a full window then flushes
    // on count despite an hour-long deadline.
    let o = opts(0xB1);
    check(TEST, &o, || scenarios::net_idle_then_full(o.seed));
}

#[test]
fn final_flush_races_peer_eof() {
    // Named seed 0xEF: sender's Final flush racing receiver teardown
    // must deliver or error cleanly — never panic or wedge the clock.
    let o = opts(0xEF);
    check(TEST, &o, || scenarios::net_final_flush_races_eof(o.seed));
}

#[test]
fn sender_that_finishes_first_loses_no_tail() {
    // Named seed 0x7A: the producer drops its endpoint (Final flush
    // through a socket that refuses half the writes) and exits before
    // the consumer has read anything.
    let o = opts(0x7A);
    check(TEST, &o, || scenarios::net_sender_finishes_first(o.seed));
}

#[test]
fn flush_edges_hold_across_seeds() {
    // The named seeds above pin CI reproduction; a small sweep checks
    // the edges are not one-interleaving flukes.
    for seed in 0..6u64 {
        let o = SimOptions::seeded(seed);
        check(TEST, &o, || scenarios::net_deadline_flush(seed));
        check(TEST, &o, || scenarios::net_idle_then_full(seed));
        check(TEST, &o, || scenarios::net_final_flush_races_eof(seed));
        check(TEST, &o, || scenarios::net_sender_finishes_first(seed));
    }
}
