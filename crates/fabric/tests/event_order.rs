//! Pins the fabric's event order: every counter, the finish time and
//! the exact delivery sequence of two seeded runs, recorded before the
//! per-packet path was rewritten for host speed. The wire is a
//! deterministic discrete-event model ordered by `(at_ns, eid)` with one
//! RNG stream, so any change to event order, eid assignment or RNG draw
//! order moves at least one of these values.

use bytes::Bytes;
use fabric::{DeliveryOrder, Fabric, FabricConfig, FabricStats, FaultConfig, LinkFaultConfig};
use msg_match::Envelope;

/// FNV-1a over the `(dst, src, msg_seq)` triples, in the order given.
fn sequence_hash(deliveries: &[(u32, u32, u64)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &(dst, src, msg_seq) in deliveries {
        for word in [u64::from(dst), u64::from(src), msg_seq] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// All-to-all with payloads alternating between `small` (eager) and
/// `large` (rendezvous) bytes, every send at time zero — the shape of
/// the `domain-fabric` bench workload.
fn send_all_to_all(net: &mut Fabric, msgs_per_pair: u32, small: usize, large: usize, seed: u32) {
    let ranks = net.ranks();
    for m in 0..msgs_per_pair {
        for src in 0..ranks {
            for dst in (0..ranks).filter(|&d| d != src) {
                let len = if m % 2 == 0 { small } else { large };
                let fill = seed.wrapping_add(src * 31 + dst * 7 + m).to_le_bytes()[0];
                net.send(
                    src,
                    dst,
                    Envelope::new(src, m, 0),
                    Bytes::from(vec![fill; len]),
                );
            }
        }
    }
}

fn drain(net: &mut Fabric, into: &mut Vec<(u32, u32, u64)>) {
    for dst in 0..net.ranks() {
        into.extend(
            net.take_deliveries(dst)
                .into_iter()
                .map(|d| (d.dst, d.src, d.msg_seq)),
        );
    }
}

/// The `domain-fabric` wire: 2 % drop / duplicate / corrupt, 20 %
/// reorder, flat 10 µs retransmit timer.
fn bench_wire() -> FabricConfig {
    FabricConfig {
        seed: 1,
        order: DeliveryOrder::Unordered,
        retransmit_timeout_ns: 10_000,
        backoff: 1,
        fault: FaultConfig {
            drop_prob: 0.02,
            duplicate_prob: 0.02,
            corrupt_prob: 0.02,
            reorder_prob: 0.20,
            reorder_skew_ns: 8_000,
        },
        ..Default::default()
    }
}

const BENCH_MIX_STATS: FabricStats = FabricStats {
    messages_sent: 3584,
    messages_delivered: 3584,
    eager_messages: 1792,
    rendezvous_messages: 1792,
    packets_sent: 36739,
    data_packets: 16128,
    control_packets: 20611,
    acks_sent: 18819,
    retransmits: 1264,
    drops_injected: 721,
    duplicates_injected: 724,
    reorders_injected: 7536,
    duplicate_packets_dropped: 899,
    duplicate_deliveries: 0,
    credit_stalls: 15680,
    credit_stall_ns: 836_308_340,
    exhausted_retries: 0,
    corruptions_injected: 341,
    corrupt_packets_dropped: 341,
    link_down_drops: 0,
    parked_packets: 0,
    link_down_events: 0,
    link_heal_events: 0,
    wire_bytes: 5_277_152,
};

#[test]
fn bench_mix_run_to_quiescence_is_pinned() {
    let mut net = Fabric::new(8, bench_wire());
    send_all_to_all(&mut net, 64, 64, 2048, 1);
    net.run_until_quiescent(60_000_000_000).unwrap();
    let mut seq = Vec::new();
    drain(&mut net, &mut seq);
    assert_eq!(net.stats(), BENCH_MIX_STATS);
    assert_eq!(net.now_ns(), 137_289);
    assert_eq!(seq.len(), 3584);
    assert_eq!(
        sequence_hash(&seq),
        0x3764_706D_0903_DF05,
        "delivery sequence moved"
    );
}

/// The same mix driven the way `gpu_msg::Domain` drives its wire: one
/// progress quantum at a time, inboxes drained after each.
#[test]
fn bench_mix_advanced_in_quanta_is_pinned() {
    let mut net = Fabric::new(8, bench_wire());
    send_all_to_all(&mut net, 64, 64, 2048, 1);
    let mut seq = Vec::new();
    while !net.quiescent() {
        net.advance(5_000);
        drain(&mut net, &mut seq);
    }
    assert_eq!(
        net.stats(),
        BENCH_MIX_STATS,
        "the drive mode must not change what the wire does"
    );
    assert_eq!(net.now_ns(), 140_000);
    assert_eq!(
        sequence_hash(&seq),
        0xED35_260F_2C6A_3285,
        "delivery sequence moved"
    );
}

/// Exponential backoff over flapping links: retransmit deadlines are no
/// longer monotone in scheduling order, budgets exhaust inside down
/// windows, and packets park and re-arm for the heal.
#[test]
fn backoff_with_parking_link_flaps_is_pinned() {
    let cfg = FabricConfig {
        seed: 5,
        mtu: 128,
        eager_threshold: 512,
        order: DeliveryOrder::PerPairFifo,
        retransmit_timeout_ns: 3_000,
        backoff: 2,
        max_retransmits: 4,
        fault: FaultConfig {
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            corrupt_prob: 0.05,
            reorder_prob: 0.30,
            reorder_skew_ns: 6_000,
        },
        link_fault: LinkFaultConfig {
            flap_prob: 0.5,
            flap_period_ns: 200_000,
            flap_down_ns: 100_000,
            ..LinkFaultConfig::NONE
        },
        ..Default::default()
    };
    let mut net = Fabric::new(4, cfg);
    let mut seq = Vec::new();
    for round in 0..4 {
        send_all_to_all(&mut net, 6, 96, 1500, round);
        net.advance(20_000);
        drain(&mut net, &mut seq);
    }
    net.run_until_quiescent(60_000_000_000).unwrap();
    drain(&mut net, &mut seq);
    let events = net.take_link_events();
    let s = net.stats();
    assert!(s.parked_packets > 0, "the run must leave the flat-RTO path");
    assert_eq!(
        s,
        FabricStats {
            messages_sent: 288,
            messages_delivered: 288,
            eager_messages: 144,
            rendezvous_messages: 144,
            packets_sent: 4993,
            data_packets: 1872,
            control_packets: 3121,
            acks_sent: 2977,
            retransmits: 1175,
            drops_injected: 293,
            duplicates_injected: 303,
            reorders_injected: 1637,
            duplicate_packets_dropped: 961,
            duplicate_deliveries: 0,
            credit_stalls: 1449,
            credit_stall_ns: 7_245_387,
            exhausted_retries: 0,
            corruptions_injected: 167,
            corrupt_packets_dropped: 167,
            link_down_drops: 187,
            parked_packets: 36,
            link_down_events: 2,
            link_heal_events: 2,
            wire_bytes: 555_400,
        }
    );
    assert_eq!(net.now_ns(), 181_835);
    assert_eq!(events.len(), 4);
    assert_eq!(
        sequence_hash(&seq),
        0x5860_A165_238B_4085,
        "delivery sequence moved"
    );
}
