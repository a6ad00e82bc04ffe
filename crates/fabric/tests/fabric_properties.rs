//! Crate-level properties: a faulty wire with selective-repeat repair is
//! observationally equivalent (same delivered message set) to a clean
//! one, across protocol regimes and fault mixes.

use bytes::Bytes;
use fabric::{DeliveryOrder, Fabric, FabricConfig, FaultConfig};
use msg_match::Envelope;

/// Deterministic mixed workload: every ordered pair exchanges small
/// (eager) and large (rendezvous) payloads with distinguishing content.
fn drive_all_to_all(net: &mut Fabric, msgs_per_pair: u32) {
    let ranks = net.ranks();
    for m in 0..msgs_per_pair {
        for src in 0..ranks {
            for dst in 0..ranks {
                if src == dst {
                    continue;
                }
                // Alternate sizes around the eager threshold.
                let len = if m % 2 == 0 { 32 } else { 2048 };
                let fill = (src * 41 + dst * 17 + m) as u8;
                let mut payload = vec![fill; len];
                payload[0] = m as u8; // make messages distinguishable
                net.send(src, dst, Envelope::new(src, m, 0), Bytes::from(payload));
            }
        }
    }
}

/// Collect (src, tag, payload) per destination, sorted for multiset
/// comparison.
fn delivered_multiset(net: &mut Fabric) -> Vec<Vec<(u32, u32, Vec<u8>)>> {
    (0..net.ranks())
        .map(|dst| {
            let mut got: Vec<(u32, u32, Vec<u8>)> = net
                .take_deliveries(dst)
                .into_iter()
                .filter(|d| !d.duplicate)
                .map(|d| (d.src, d.envelope.tag, d.payload.to_vec()))
                .collect();
            got.sort();
            got
        })
        .collect()
}

#[test]
fn lossy_fabric_delivers_exactly_the_lossless_message_set() {
    let base = FabricConfig {
        mtu: 256,
        eager_threshold: 1024,
        ..Default::default()
    };
    let mut clean = Fabric::new(4, base);
    drive_all_to_all(&mut clean, 6);
    clean.run_until_quiescent(10_000_000_000).unwrap();
    let reference = delivered_multiset(&mut clean);

    for (seed, fault) in [
        (
            1,
            FaultConfig {
                drop_prob: 0.05,
                ..FaultConfig::NONE
            },
        ),
        (
            2,
            FaultConfig {
                duplicate_prob: 0.2,
                ..FaultConfig::NONE
            },
        ),
        (
            3,
            FaultConfig {
                reorder_prob: 0.5,
                reorder_skew_ns: 100_000,
                ..FaultConfig::NONE
            },
        ),
        (
            4,
            FaultConfig {
                drop_prob: 0.08,
                duplicate_prob: 0.08,
                reorder_prob: 0.3,
                reorder_skew_ns: 50_000,
                corrupt_prob: 0.08,
            },
        ),
    ] {
        let mut lossy = Fabric::new(
            4,
            FabricConfig {
                seed,
                fault,
                ..base
            },
        );
        drive_all_to_all(&mut lossy, 6);
        lossy
            .run_until_quiescent(10_000_000_000)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            delivered_multiset(&mut lossy),
            reference,
            "fault mix {fault:?} must not change the delivered set"
        );
        assert!(
            lossy.stats().messages_delivered == clean.stats().messages_delivered,
            "same message count under seed {seed}"
        );
    }
}

#[test]
fn fifo_mode_preserves_per_pair_payload_order_under_faults() {
    let cfg = FabricConfig {
        order: DeliveryOrder::PerPairFifo,
        seed: 77,
        fault: FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.1,
            reorder_prob: 0.5,
            reorder_skew_ns: 80_000,
            corrupt_prob: 0.1,
        },
        ..Default::default()
    };
    let mut net = Fabric::new(3, cfg);
    drive_all_to_all(&mut net, 8);
    net.run_until_quiescent(10_000_000_000).unwrap();
    for dst in 0..3 {
        let by_src: Vec<Vec<u64>> = {
            let deliveries = net.take_deliveries(dst);
            (0..3)
                .map(|src| {
                    deliveries
                        .iter()
                        .filter(|d| d.src == src)
                        .map(|d| d.msg_seq)
                        .collect()
                })
                .collect()
        };
        for (src, seqs) in by_src.iter().enumerate() {
            if src as u32 == dst {
                continue;
            }
            assert_eq!(
                *seqs,
                (0..seqs.len() as u64).collect::<Vec<_>>(),
                "channel {src}->{dst} must release in send order"
            );
        }
    }
}

#[test]
fn unordered_mode_under_skew_feeds_a_reorder_buffer_correctly() {
    // The consumer-side contract: msg_seq is dense per channel, so a
    // user-level reorder buffer can restore order from unordered
    // deliveries.
    let cfg = FabricConfig {
        order: DeliveryOrder::Unordered,
        seed: 5,
        fault: FaultConfig {
            reorder_prob: 0.7,
            reorder_skew_ns: 300_000,
            ..FaultConfig::NONE
        },
        ..Default::default()
    };
    let mut net = Fabric::new(2, cfg);
    for i in 0..64u32 {
        net.send(0, 1, Envelope::new(0, i, 0), Bytes::from(vec![i as u8; 16]));
    }
    net.run_until_quiescent(10_000_000_000).unwrap();
    let got = net.take_deliveries(1);
    let mut seqs: Vec<u64> = got.iter().map(|d| d.msg_seq).collect();
    let arrival = seqs.clone();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..64).collect::<Vec<u64>>(), "dense, exactly-once");
    assert_ne!(arrival, seqs, "skew must actually disorder arrivals");
}

#[test]
fn rendezvous_pays_handshake_packets_and_time_on_a_lossless_wire() {
    // Eager threshold 0 forces RTS/CTS for every message, 4096 sends
    // the same mix eagerly: the handshake costs packets and a round trip.
    let run = |eager_threshold| {
        let cfg = FabricConfig {
            eager_threshold,
            order: DeliveryOrder::PerPairFifo,
            ..Default::default()
        };
        let mut net = Fabric::new(3, cfg);
        drive_all_to_all(&mut net, 6);
        net.run_until_quiescent(10_000_000_000).unwrap();
        (net.stats(), net.now_ns())
    };
    let (rndv, rndv_finish) = run(0);
    let (eager, eager_finish) = run(4096);
    assert_eq!(rndv.eager_messages, 0, "threshold 0 forces rendezvous");
    assert_eq!(eager.rendezvous_messages, 0, "threshold 4096 forces eager");
    assert!(rndv.packets_sent > eager.packets_sent, "RTS/CTS packets");
    assert!(rndv_finish > eager_finish, "the handshake costs time");
    let payload_bytes = 6 * 3 * (32 + 2048);
    assert!(eager.wire_bytes > payload_bytes, "headers cost wire bytes");
    assert!(rndv.wire_bytes > eager.wire_bytes, "so do RTS/CTS packets");
}
