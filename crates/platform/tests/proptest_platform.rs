//! Property tests of the discrete-event engine, each a seeded loop over
//! 64 cases (`SPI_CHAOS_SEED=<case>` replays one).

use spi_platform::rng::for_each_case;
use spi_platform::{ChannelId, ChannelSpec, Machine, Op, Program};

#[test]
fn every_sent_message_is_delivered_in_order() {
    for_each_case(64, |rng| {
        let sizes: Vec<usize> = (0..rng.gen_range(1..20usize))
            .map(|_| rng.gen_range(1..64usize))
            .collect();
        let cap = rng.gen_range(128..1024usize);
        let consumer_cost = rng.gen_range(0..50u64);
        let mut m = Machine::new();
        let ch = m.add_channel(ChannelSpec {
            capacity_bytes: cap,
            max_message_bytes: sizes.iter().copied().max().unwrap_or(1),
        });
        let sizes_p = sizes.clone();
        let n = sizes.len() as u64;
        m.add_pe(Program::new(
            vec![Op::Send {
                channel: ch,
                payload: Box::new(move |l| {
                    let sz = sizes_p[l.iter as usize];
                    vec![(l.iter % 251) as u8; sz]
                }),
            }],
            n,
        ));
        m.add_pe(Program::new(
            vec![
                Op::Recv { channel: ch },
                Op::Compute {
                    label: "check".into(),
                    work: Box::new(move |l| {
                        let msg = l.take_from(ChannelId(0)).expect("delivered");
                        let mut seq = l.store.remove("seq").unwrap_or_default();
                        seq.push(msg[0]);
                        l.store.insert("seq".into(), seq);
                        consumer_cost
                    }),
                },
            ],
            n,
        ));
        let report = m.run().expect("live pipeline");
        assert_eq!(report.channels[0].messages, n);
        let expected: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_eq!(&report.locals[1].store["seq"], &expected);
        // Byte accounting matches the payloads.
        assert_eq!(
            report.channels[0].bytes,
            sizes.iter().map(|&s| s as u64).sum::<u64>()
        );
        assert!(report.channels[0].peak_bytes as usize <= cap);
    });
}

#[test]
fn makespan_dominates_total_busy_per_pe() {
    for_each_case(64, |rng| {
        let costs: Vec<u64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(1..200u64))
            .collect();
        let iters = rng.gen_range(1..20u64);
        let mut m = Machine::new();
        for &c in &costs {
            m.add_pe(Program::new(
                vec![Op::Compute {
                    label: "w".into(),
                    work: Box::new(move |_| c),
                }],
                iters,
            ));
        }
        let report = m.run().expect("independent PEs");
        for (i, &c) in costs.iter().enumerate() {
            assert_eq!(report.pe[i].busy_cycles, c * iters);
            assert!(report.pe[i].finish_cycle >= c * iters);
        }
        assert_eq!(
            report.makespan_cycles,
            costs.iter().map(|&c| c * iters).max().expect("nonempty")
        );
    });
}

#[test]
fn budget_is_respected() {
    for_each_case(64, |rng| {
        let budget = rng.gen_range(1..500u64);
        let mut m = Machine::new();
        m.add_pe(Program::new(
            vec![Op::Compute {
                label: "w".into(),
                work: Box::new(|_| 100),
            }],
            1000,
        ));
        m.set_budget_cycles(budget);
        assert!(m.run().is_err());
    });
}
