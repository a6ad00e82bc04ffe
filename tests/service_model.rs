//! Service-model behaviour tests: determinism, saturation-boundary
//! monotonicity, and the JSON metrics interchange used by bench-harness.

use gpu_msg::{
    FaultEvent, FaultKind, FaultPlan, FaultRates, FaultTolerance, RecoveryConfig, Scheduler,
    ServiceEngine, ServiceMetrics, ShardEnginePolicy, ShardedMatchService, ShardedServiceConfig,
    ShardedServiceReport, SupervisorConfig,
};
use integration_support::hot_cold_tenancy;
use simt_sim::GpuGeneration;

const GEN: GpuGeneration = GpuGeneration::PascalGtx1080;

fn run(cfg: ShardedServiceConfig) -> ShardedServiceReport {
    ShardedMatchService::new(GEN, cfg).run()
}

fn sharded_cfg(shards: usize, rate: f64) -> ShardedServiceConfig {
    ShardedServiceConfig {
        shards,
        arrival_rate: rate,
        duration: 0.001,
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Matrix),
        seed: 11,
        ..Default::default()
    }
}

/// The simulation uses no wall clock and no unordered iteration, so the
/// same seed and config must reproduce the report bit for bit — metrics
/// snapshot included.
#[test]
fn sharded_service_is_deterministic() {
    let a = run(sharded_cfg(4, 8.0e6));
    let b = run(sharded_cfg(4, 8.0e6));
    assert_eq!(a.aggregate.sustained_rate, b.aggregate.sustained_rate);
    assert_eq!(a.aggregate.utilisation, b.aggregate.utilisation);
    assert_eq!(a.aggregate.saturated, b.aggregate.saturated);
    assert_eq!(a.metrics, b.metrics, "metrics snapshots must be identical");
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "and so must their serialized form"
    );
}

/// One shard is one resident kernel with one queue, deterministic too on
/// a relaxed engine at its own seed.
#[test]
fn single_queue_service_is_deterministic() {
    let cfg = ShardedServiceConfig {
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Partitioned(8)),
        seed: 3,
        ..sharded_cfg(1, 3.0e6)
    };
    let (a, b) = (run(cfg), run(cfg));
    assert_eq!(a.aggregate.sustained_rate, b.aggregate.sustained_rate);
    assert_eq!(a.aggregate.saturated, b.aggregate.saturated);
    assert_eq!(a.metrics, b.metrics, "metrics snapshots must be identical");
}

/// Pushing the offered rate up never lowers the sustained rate: below
/// the ceiling the service keeps up, past it the throughput pins at the
/// ceiling instead of collapsing.
#[test]
fn sustained_rate_is_monotone_in_offered_rate() {
    let rates = [1.0e6, 2.0e6, 4.0e6, 8.0e6, 16.0e6];
    let mut last = 0.0f64;
    for &rate in &rates {
        let r = run(sharded_cfg(2, rate));
        assert!(
            r.aggregate.sustained_rate >= last * 0.98,
            "sustained rate dropped from {last:.0} to {:.0} at offered {rate:.0}",
            r.aggregate.sustained_rate
        );
        last = r.aggregate.sustained_rate;
    }
}

/// Saturation is a boundary, not a scatter: once a configuration
/// saturates at some offered rate, every higher rate saturates too.
/// `ever_spilled` is monotone the same way — it records that admission
/// control rejected at least one arrival, and a rate that overflows the
/// bounded queue keeps overflowing it at every higher rate.
#[test]
fn saturation_flag_is_monotone_in_offered_rate() {
    let rates = [1.0e6, 2.0e6, 4.0e6, 8.0e6, 16.0e6, 32.0e6];
    let mut seen_saturated = false;
    let mut seen_spilled = false;
    for &rate in &rates {
        let r = run(sharded_cfg(1, rate));
        if seen_saturated {
            assert!(
                r.aggregate.saturated,
                "unsaturated at {rate:.0} after saturating at a lower rate"
            );
        }
        seen_saturated |= r.aggregate.saturated;
        let spilled_now = r.metrics.shards.iter().any(|s| s.ever_spilled);
        if seen_spilled {
            assert!(
                spilled_now,
                "no spill at {rate:.0} after spilling at a lower rate"
            );
        }
        seen_spilled |= spilled_now;
        assert_eq!(
            spilled_now,
            r.metrics.shards.iter().any(|s| s.overflow.spilled > 0),
            "ever_spilled must mirror the spill counter"
        );
        // Saturation means sustained overload; a saturated shard with a
        // bounded queue must also have spilled. The converse is not
        // required: a transient burst can spill without saturating.
        for s in &r.metrics.shards {
            if s.saturated && s.overflow.spilled > 0 {
                assert!(s.ever_spilled);
            }
        }
    }
    assert!(seen_saturated, "the sweep must cross the matrix ceiling");
    assert!(seen_spilled, "the sweep must overflow the bounded queue");
}

/// Adding shards never hurts at a fixed offered rate.
#[test]
fn sustained_rate_is_monotone_in_shard_count() {
    let mut last = 0.0f64;
    for shards in [1usize, 2, 4] {
        let r = run(sharded_cfg(shards, 10.0e6));
        assert!(
            r.aggregate.sustained_rate >= last * 0.98,
            "sustained rate dropped when going to {shards} shards"
        );
        last = r.aggregate.sustained_rate;
    }
}

/// The metrics snapshot exports as well-formed JSON that carries its
/// counters, its float fields bit for bit and every shard.
#[test]
fn metrics_round_trip_through_json() {
    use serde::Value;
    let r = run(sharded_cfg(3, 6.0e6));
    let json = r.metrics.to_json();
    let tree = serde::json::parse_value(&json).expect("snapshot must be well-formed JSON");
    let field = |name: &str| tree.field(name).expect("snapshot field");
    assert_eq!(field("total_matched"), &Value::U64(r.metrics.total_matched));
    let Value::F64(rate) = field("sustained_rate") else {
        panic!("sustained_rate must be a number");
    };
    assert_eq!(rate.to_bits(), r.metrics.sustained_rate.to_bits());
    let Value::Array(shards) = field("shards") else {
        panic!("shards must be an array");
    };
    assert_eq!(shards.len(), 3);
}

/// FNV-1a over an exported document.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// An export without its `# HELP` prose and without the two always-zero
/// counters the service no longer reports (`prefilter_rejections`,
/// `reorder_duplicates`, in both their JSON and Prometheus spellings), so
/// the golden compares every number that is still exported.
fn canonical(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !l.starts_with("# HELP ")
                && !l.contains("prefilter_rejections")
                && !l.contains("reorder_duplicates")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The three snapshots the golden pins: one matrix shard; four hash
/// shards on shard threads; and the hot/cold tenancy fixture resharding
/// live under a seeded soup of all five fault kinds.
fn golden_runs() -> Vec<ServiceMetrics> {
    let single = sharded_cfg(1, 3.0e6);
    let threaded = ShardedServiceConfig {
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Hash),
        scheduler: Scheduler::ThreadPerShard,
        duration: 0.5e-3,
        ..sharded_cfg(4, 20.0e6)
    };
    let tenanted = ShardedServiceConfig {
        shards: 2,
        arrival_rate: 8.0e6,
        duration: 1.0e-3,
        queue_capacity: 1 << 20,
        drain: true,
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Hash),
        seed: 23,
        ..Default::default()
    };
    let per_class = 2.0 / tenanted.duration;
    let mut chaos = ShardedMatchService::with_tenancy(GEN, tenanted, hot_cold_tenancy());
    chaos.set_fault_tolerance(Some(FaultTolerance {
        plan: FaultPlan::random(
            41,
            tenanted.shards,
            tenanted.duration,
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
    }));
    vec![
        run(single).metrics,
        run(threaded).metrics,
        chaos.run().metrics,
    ]
}

/// FNV-1a of `(to_json, to_prometheus)` per golden run, after
/// [`canonical`].
const GOLDEN: [(u64, u64); 3] = [
    (0xbd8d_1fe4_2908_7184, 0x4e56_b433_e5e0_6d4c),
    (0x51b3_024a_b1d4_6d32, 0x660e_b21b_3b0b_d5fb),
    (0xf0c6_ef38_8fa9_882f, 0x2f74_8432_024d_0132),
];

/// Every exported number of three representative runs is pinned: a
/// change to how a metric is computed, named, typed or labelled fails
/// here, while `# HELP` prose may be reworded freely.
#[test]
fn exported_snapshots_match_the_golden() {
    let got: Vec<(u64, u64)> = golden_runs()
        .iter()
        .map(|m| {
            (
                fnv(&canonical(&m.to_json())),
                fnv(&canonical(&m.to_prometheus())),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN, "exported snapshots drifted: {got:#x?}");
}

/// The two traced runs the trace golden pins, both sampling every
/// message into the flow trace: the chaos tenancy run of
/// [`golden_runs`] (migrations, journal replay, checkpoint corruption)
/// on the global clock, and a supervised hang on shard threads (one
/// failover and its handback).
fn traced_golden_runs() -> Vec<ShardedMatchService> {
    let tenanted = ShardedServiceConfig {
        shards: 2,
        arrival_rate: 8.0e6,
        duration: 1.0e-3,
        queue_capacity: 1 << 20,
        drain: true,
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Hash),
        seed: 23,
        trace: true,
        trace_capacity: 1 << 16,
        flow_sample_every: 1,
        ..Default::default()
    };
    let per_class = 2.0 / tenanted.duration;
    let mut chaos = ShardedMatchService::with_tenancy(GEN, tenanted, hot_cold_tenancy());
    chaos.set_fault_tolerance(Some(FaultTolerance {
        plan: FaultPlan::random(
            41,
            tenanted.shards,
            tenanted.duration,
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
    }));
    let hung = ShardedServiceConfig {
        shards: 3,
        arrival_rate: 4.0e6,
        duration: 1.0e-3,
        queue_capacity: 1 << 20,
        drain: true,
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Matrix),
        seed: 5,
        trace: true,
        trace_capacity: 1 << 16,
        flow_sample_every: 1,
        scheduler: Scheduler::ThreadPerShard,
        ..Default::default()
    };
    let mut hang = ShardedMatchService::new(GEN, hung);
    hang.set_fault_tolerance(Some(FaultTolerance {
        plan: FaultPlan::new(vec![FaultEvent {
            at: 0.3e-3,
            shard: 0,
            kind: FaultKind::Hang { seconds: 500e-6 },
        }]),
        recovery: RecoveryConfig::default(),
        supervisor: Some(SupervisorConfig::default()),
    }));
    let mut runs = vec![chaos, hang];
    for svc in &mut runs {
        svc.set_record_completions(true);
    }
    runs
}

/// FNV-1a of `(trace_json, scheduler_trace_json, completions)` per
/// traced golden run.
const TRACE_GOLDEN: [(u64, u64, u64); 2] = [
    (
        0x4e37_44b1_a031_fbf6,
        0x71bd_eea7_814e_ee5e,
        0xcc46_2450_185a_1603,
    ),
    (
        0xb9d6_5a96_939a_9f36,
        0x18ea_7fc5_f9fb_b390,
        0xacc6_559e_75bd_893b,
    ),
];

/// Every event the shard recorders and the coordinator record — their
/// order within each track included — and every stream's commit order
/// are pinned. Comparing one scheduler with the other cannot catch an
/// event reordered on both sides; this can.
#[test]
fn exported_traces_match_the_golden() {
    let mut got = Vec::new();
    let mut shard_traces = String::new();
    for mut svc in traced_golden_runs() {
        let r = svc.run();
        assert!(
            r.metrics.shards.iter().all(|s| s.trace_dropped == 0),
            "the golden pins whole traces: no recorder may wrap"
        );
        let trace = svc.trace_json().expect("tracing is on");
        let sched = svc.scheduler_trace_json().expect("tracing is on");
        let completions = r.completions.expect("completions are recorded");
        got.push((fnv(&trace), fnv(&sched), fnv(&format!("{completions:?}"))));
        shard_traces.push_str(&trace);
    }
    for name in [
        "failover",
        "handback",
        "migration_drain",
        "migration_transfer",
        "migration_handback",
        "migrated",
        "replayed",
        "recovery",
        "checkpoint_corruption",
    ] {
        assert!(
            shard_traces.contains(&format!("\"name\":\"{name}\"")),
            "the traced golden runs must exercise `{name}`"
        );
    }
    assert_eq!(got, TRACE_GOLDEN, "exported traces drifted: {got:#x?}");
}
