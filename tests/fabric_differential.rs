//! Differential test: a domain over a *lossy* fabric (drops, duplicates,
//! reordering — repaired by selective-repeat retransmission) completes
//! exactly the same receives with exactly the same payloads as a domain
//! over the ideal direct wire, for every matcher kind. Plus determinism:
//! the same seed reproduces the run bit-for-bit, down to the bench
//! artefact bytes.

use bytes::Bytes;
use fabric::{FabricConfig, FabricStats, FaultConfig};
use gpu_msg::{Domain, DomainConfig, MatcherKind, TransportConfig};
use msg_match::{RecvRequest, RelaxationConfig};
use simt_sim::GpuGeneration;

const RANKS: u32 = 3;
const MSGS_PER_PAIR: u32 = 6;
/// Repeated tag for ordering-guaranteeing matchers (message identity
/// must come from arrival order alone).
const ORDERED_TAG: u32 = 7;

fn lossy_fault() -> FaultConfig {
    FaultConfig {
        drop_prob: 0.08,
        duplicate_prob: 0.08,
        reorder_prob: 0.4,
        reorder_skew_ns: 40_000,
        corrupt_prob: 0.08,
    }
}

fn relax_for(kind: MatcherKind) -> RelaxationConfig {
    match kind {
        MatcherKind::Matrix => RelaxationConfig::FULL_MPI,
        MatcherKind::Partitioned(_) => RelaxationConfig::NO_WILDCARDS,
        MatcherKind::Hash => RelaxationConfig::UNORDERED,
    }
}

fn tag_for(kind: MatcherKind, m: u32) -> u32 {
    match kind {
        // Unordered matching needs tags to disambiguate repeats.
        MatcherKind::Hash => m,
        _ => ORDERED_TAG,
    }
}

/// Payload uniquely identifying (src, dst, m); sizes alternate across
/// the eager threshold so both protocols and fragmentation are in play.
fn payload(src: u32, dst: u32, m: u32) -> Bytes {
    let len = if m.is_multiple_of(2) { 16 } else { 1500 };
    let mut v = vec![(src * 59 + dst * 13 + m) as u8; len];
    v[0] = src as u8;
    v[1] = dst as u8;
    v[2] = m as u8;
    Bytes::from(v)
}

/// Run the scripted all-to-all on `domain`. Returns, per rank, the
/// received payloads **in posted-receive order** — for ordering
/// matchers the j-th post on a channel must hold the j-th send (per-pair
/// order), and for the hash matcher the unique tag pins each post to one
/// message, so equality in this order checks both the completion set and
/// every required ordering constraint.
fn run_workload(domain: &Domain, kind: MatcherKind) -> Vec<Vec<Vec<u8>>> {
    let mut handles: Vec<Vec<_>> = Vec::new();
    for dst in 0..RANKS {
        let mut hs = Vec::new();
        for src in 0..RANKS {
            if src == dst {
                continue;
            }
            for m in 0..MSGS_PER_PAIR {
                let req = RecvRequest::exact(src, tag_for(kind, m), 0);
                hs.push(domain.post_recv(dst, req).expect("legal request"));
            }
        }
        handles.push(hs);
    }
    for m in 0..MSGS_PER_PAIR {
        for src in 0..RANKS {
            for dst in 0..RANKS {
                if src == dst {
                    continue;
                }
                domain.send(src, dst, tag_for(kind, m), 0, payload(src, dst, m));
            }
        }
    }
    let expected: usize = (RANKS * (RANKS - 1) * MSGS_PER_PAIR) as usize;
    let mut got: Vec<Vec<(gpu_msg::RecvHandle, Vec<u8>)>> =
        (0..RANKS).map(|_| Vec::new()).collect();
    let mut rounds = 0;
    while got.iter().map(Vec::len).sum::<usize>() < expected {
        domain.progress_all().expect("progress must not fail");
        for rank in 0..RANKS {
            got[rank as usize].extend(
                domain
                    .take_completions(rank)
                    .into_iter()
                    .map(|c| (c.handle, c.message.payload.to_vec())),
            );
        }
        rounds += 1;
        assert!(
            rounds < 50_000,
            "workload stuck: {} of {expected} completions after {rounds} rounds",
            got.iter().map(Vec::len).sum::<usize>()
        );
    }
    // Handle order == post order (handles are allocated sequentially).
    got.into_iter()
        .map(|mut per_rank| {
            per_rank.sort_by_key(|(h, _)| *h);
            per_rank.into_iter().map(|(_, p)| p).collect()
        })
        .collect()
}

fn direct_domain(kind: MatcherKind) -> Domain {
    Domain::new(RANKS, GpuGeneration::PascalGtx1080, kind, relax_for(kind))
}

fn lossy_domain(kind: MatcherKind, seed: u64) -> Domain {
    let mut cfg = DomainConfig::new(RANKS, GpuGeneration::PascalGtx1080, kind, relax_for(kind));
    cfg.transport = TransportConfig::Fabric(FabricConfig {
        seed,
        fault: lossy_fault(),
        ..Default::default()
    });
    Domain::with_config(cfg)
}

fn assert_differential(kind: MatcherKind) {
    let reference = run_workload(&direct_domain(kind), kind);
    let d = lossy_domain(kind, 23);
    let lossy = run_workload(&d, kind);
    assert_eq!(
        lossy, reference,
        "{kind:?}: lossy fabric must complete the identical receives with identical payloads"
    );
    let fs = d.fabric_stats().expect("fabric transport");
    assert!(
        fs.drops_injected > 0,
        "{kind:?}: the wire must actually have dropped"
    );
    assert!(
        fs.retransmits > 0,
        "{kind:?}: recovery must actually have run"
    );
    assert!(
        fs.reorders_injected > 0,
        "{kind:?}: the wire must actually have reordered"
    );
}

#[test]
fn matrix_matcher_is_wire_fault_transparent() {
    assert_differential(MatcherKind::Matrix);
}

#[test]
fn partitioned_matcher_is_wire_fault_transparent() {
    assert_differential(MatcherKind::Partitioned(4));
}

#[test]
fn hash_matcher_is_wire_fault_transparent() {
    assert_differential(MatcherKind::Hash);
}

#[test]
fn lossy_domain_runs_are_deterministic_per_seed() {
    let runs: Vec<(Vec<Vec<Vec<u8>>>, FabricStats)> = (0..2)
        .map(|_| {
            let d = lossy_domain(MatcherKind::Matrix, 31);
            let out = run_workload(&d, MatcherKind::Matrix);
            (out, d.fabric_stats().unwrap())
        })
        .collect();
    assert_eq!(runs[0], runs[1], "same seed, same run, same counters");
    let other = {
        let d = lossy_domain(MatcherKind::Matrix, 32);
        run_workload(&d, MatcherKind::Matrix);
        d.fabric_stats().unwrap()
    };
    assert_ne!(
        runs[0].1, other,
        "a different seed must change the wire history"
    );
}
