//! Differential tests for composed (chaotic) fault tolerance.
//!
//! The recovery differential pins single fault classes; this suite
//! composes them the way an unlucky run would: crashes, hangs, slow
//! windows, partitions and checkpoint corruption on one seeded
//! schedule, under the partition-aware supervisor, for every engine of
//! the paper's relaxation lattice and under both schedulers. The oracle
//! stays the same: in drain mode the committed per-stream sequences are
//! a pure function of the arrival schedule, so byte-equality against a
//! fault-free run is exactly-once, and dense ascending sequences are
//! per-pair FIFO.
//!
//! The wire half drives a [`Domain`] over a fabric with per-packet
//! faults *and* link lifecycle faults (flap windows, topology
//! partitions): the matchers must complete identical receives with
//! identical payloads as over the ideal direct wire, with parked
//! packets resuming after heals instead of dying.

use bytes::Bytes;
use fabric::{FabricConfig, FaultConfig, LinkFaultConfig};
use gpu_msg::{
    Domain, DomainConfig, FaultPlan, FaultRates, FaultTolerance, MatcherKind, RecoveryConfig,
    Scheduler, ServiceEngine, ServiceMetrics, ShardEnginePolicy, ShardedMatchService,
    ShardedServiceConfig, SupervisorConfig, TenancyConfig, TransportConfig,
};
use integration_support::hot_cold_tenancy;
use msg_match::{RecvRequest, RelaxationConfig};
use simt_sim::GpuGeneration;

const GEN: GpuGeneration = GpuGeneration::PascalGtx1080;
const SCHEDULERS: [Scheduler; 2] = [Scheduler::GlobalClock, Scheduler::ThreadPerShard];
const ENGINES: [ServiceEngine; 5] = [
    ServiceEngine::Matrix,
    ServiceEngine::Partitioned(4),
    ServiceEngine::Partitioned(8),
    ServiceEngine::Partitioned(16),
    ServiceEngine::Hash,
];
const DURATION: f64 = 1.0e-3;

/// Drain-mode config with a queue deep enough that nothing spills or
/// sheds — the precondition for byte-equality as the exactly-once
/// oracle.
fn cfg(engine: ServiceEngine, seed: u64, scheduler: Scheduler) -> ShardedServiceConfig {
    ShardedServiceConfig {
        shards: 2,
        arrival_rate: 6.0e6,
        duration: DURATION,
        queue_capacity: 1 << 20,
        drain: true,
        policy: ShardEnginePolicy::Fixed(engine),
        seed,
        scheduler,
        ..Default::default()
    }
}

/// Every fault class the scheduler knows on one seeded schedule, at
/// roughly two events of each class per run, supervised.
fn chaos_soup(plan_seed: u64) -> FaultTolerance {
    let per_class = 2.0 / DURATION;
    FaultTolerance {
        plan: FaultPlan::random(
            plan_seed,
            2,
            DURATION,
            &FaultRates {
                crash_rate: per_class,
                hang_rate: per_class,
                slow_rate: per_class,
                partition_rate: per_class,
                corrupt_rate: per_class,
                ..Default::default()
            },
        ),
        recovery: RecoveryConfig::default(),
        supervisor: Some(SupervisorConfig::default()),
    }
}

fn completions_with(
    base: ShardedServiceConfig,
    tenancy: Option<TenancyConfig>,
    ft: Option<FaultTolerance>,
) -> (Vec<Vec<u64>>, ServiceMetrics) {
    let mut svc = match tenancy {
        Some(t) => ShardedMatchService::with_tenancy(GEN, base, t),
        None => ShardedMatchService::new(GEN, base),
    };
    svc.set_record_completions(true);
    svc.set_fault_tolerance(ft);
    let r = svc.run();
    (r.completions.expect("recording was enabled"), r.metrics)
}

/// The composed fault soup is invisible: for every engine of the
/// lattice, and for a tenanted hash service resharding live underneath
/// it, under both schedulers, the chaotic run commits exactly the
/// fault-free per-stream sequences — nothing lost, nothing doubled,
/// order preserved.
#[test]
fn composed_faults_are_invisible_for_every_engine_under_both_schedulers() {
    let cases = ENGINES
        .map(|engine| (engine, 6.0e6, None))
        .into_iter()
        .chain([(ServiceEngine::Hash, 8.0e6, Some(hot_cold_tenancy()))]);
    for (engine, arrival_rate, tenancy) in cases {
        let resharding = tenancy.is_some();
        let case = |scheduler| ShardedServiceConfig {
            arrival_rate,
            ..cfg(engine, 5, scheduler)
        };
        let (want, _) = completions_with(case(Scheduler::GlobalClock), tenancy.clone(), None);
        for scheduler in SCHEDULERS {
            let (got, m) = completions_with(case(scheduler), tenancy.clone(), Some(chaos_soup(41)));
            let ctx = format!("{engine:?}/{scheduler:?}/resharding={resharding}");
            assert_eq!(got, want, "{ctx}: chaotic commits must equal fault-free");
            for stream in &got {
                for (i, &seq) in stream.iter().enumerate() {
                    assert_eq!(seq, i as u64, "{ctx}: commit order must be FIFO");
                }
            }
            // The soup must actually have landed, or the equality above
            // is vacuous.
            assert!(m.total_crashes > 0, "{ctx}: no crash");
            assert_eq!(
                m.total_recoveries, m.total_crashes,
                "{ctx}: every crash must recover"
            );
            let landed = |f: fn(&gpu_msg::ShardMetrics) -> u64| m.shards.iter().map(f).sum::<u64>();
            assert!(landed(|s| s.hangs) > 0, "{ctx}: no hang landed");
            assert!(landed(|s| s.partitions) > 0, "{ctx}: no partition landed");
            assert!(
                landed(|s| s.corrupt_checkpoints) > 0,
                "{ctx}: no checkpoint corruption landed"
            );
            assert_eq!(
                m.total_migrations > 0,
                resharding,
                "{ctx}: the hot/cold skew, and only it, must migrate"
            );
        }
    }
}

/// One chaotic run is bit-deterministic: same seeds, same completions,
/// same metrics artefact bytes — under both schedulers, which must also
/// agree with each other.
#[test]
fn chaotic_runs_reproduce_bit_for_bit_across_schedulers() {
    let run = |scheduler| {
        completions_with(
            cfg(ServiceEngine::Partitioned(8), 11, scheduler),
            None,
            Some(chaos_soup(43)),
        )
    };
    let (ca, ma) = run(Scheduler::GlobalClock);
    let (cb, mb) = run(Scheduler::GlobalClock);
    assert_eq!(ca, cb, "same seed must reproduce completions");
    assert_eq!(ma.to_json(), mb.to_json(), "artefact bytes must match");
    let (cc, mc) = run(Scheduler::ThreadPerShard);
    assert_eq!(ca, cc, "schedulers must agree on completions");
    assert_eq!(
        ma.to_json(),
        mc.to_json(),
        "schedulers must agree on the artefact bytes"
    );
}

// ---------------------------------------------------------------------
// Wire half: Domain over a fabric with packet faults AND link lifecycle
// faults.
// ---------------------------------------------------------------------

const RANKS: u32 = 3;
const MSGS_PER_PAIR: u32 = 6;
const ORDERED_TAG: u32 = 7;

/// Per-packet faults plus link flaps and topology partitions. The down
/// windows outlast the flat retransmit budget (12 × 3µs), so budgets
/// exhausted against a downed link park and resume at the heal.
fn chaotic_wire(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        retransmit_timeout_ns: 3_000,
        backoff: 1,
        max_retransmits: 12,
        fault: FaultConfig {
            drop_prob: 0.06,
            duplicate_prob: 0.04,
            reorder_prob: 0.2,
            reorder_skew_ns: 8_000,
            corrupt_prob: 0.06,
        },
        link_fault: LinkFaultConfig {
            flap_period_ns: 60_000,
            flap_prob: 0.4,
            flap_down_ns: 45_000,
            partition_period_ns: 100_000,
            partition_prob: 0.5,
            partition_down_ns: 60_000,
        },
        ..Default::default()
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
        MatcherKind::Hash => m,
        _ => ORDERED_TAG,
    }
}

fn payload(src: u32, dst: u32, m: u32) -> Bytes {
    let len = if m.is_multiple_of(2) { 16 } else { 1500 };
    let mut v = vec![(src * 59 + dst * 13 + m) as u8; len];
    v[0] = src as u8;
    v[1] = dst as u8;
    v[2] = m as u8;
    Bytes::from(v)
}

/// Scripted all-to-all; returns the received payloads in posted-receive
/// order per rank (see `fabric_differential` for why that order checks
/// both the completion set and the ordering constraints).
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
            rounds < 200_000,
            "workload stuck: {} of {expected} completions after {rounds} rounds",
            got.iter().map(Vec::len).sum::<usize>()
        );
    }
    got.into_iter()
        .map(|mut per_rank| {
            per_rank.sort_by_key(|(h, _)| *h);
            per_rank.into_iter().map(|(_, p)| p).collect()
        })
        .collect()
}

fn assert_chaos_wire_transparent(kind: MatcherKind) {
    let reference = run_workload(&Domain::new(RANKS, GEN, kind, relax_for(kind)), kind);
    let mut dc = DomainConfig::new(RANKS, GEN, kind, relax_for(kind));
    dc.transport = TransportConfig::Fabric(chaotic_wire(29));
    let d = Domain::with_config(dc);
    let chaotic = run_workload(&d, kind);
    assert_eq!(
        chaotic, reference,
        "{kind:?}: a flapping, partitioning wire must complete identical receives"
    );
    let fs = d.fabric_stats().expect("fabric transport");
    assert!(
        fs.link_down_drops > 0 || fs.parked_packets > 0,
        "{kind:?}: no link window ever touched traffic — the chaos is vacuous: {fs:?}"
    );
    assert!(fs.retransmits > 0, "{kind:?}: repair must have run");
    assert_eq!(
        fs.messages_delivered, fs.messages_sent,
        "{kind:?}: the wire must deliver everything it accepted"
    );
}

#[test]
fn matrix_matcher_survives_link_lifecycle_chaos() {
    assert_chaos_wire_transparent(MatcherKind::Matrix);
}

#[test]
fn partitioned_matcher_survives_link_lifecycle_chaos() {
    assert_chaos_wire_transparent(MatcherKind::Partitioned(4));
}

#[test]
fn hash_matcher_survives_link_lifecycle_chaos() {
    assert_chaos_wire_transparent(MatcherKind::Hash);
}
