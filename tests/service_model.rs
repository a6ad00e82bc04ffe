//! Service-model behaviour tests: determinism, saturation-boundary
//! monotonicity, and the JSON metrics interchange used by bench-harness.

use gpu_msg::{
    ServiceEngine, ServiceMetrics, ShardEnginePolicy, ShardedMatchService, ShardedServiceConfig,
    ShardedServiceReport,
};
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
    assert_eq!(a.aggregate.mean_depth, b.aggregate.mean_depth);
    assert_eq!(a.aggregate.max_depth, b.aggregate.max_depth);
    assert_eq!(a.aggregate.utilisation, b.aggregate.utilisation);
    assert_eq!(a.aggregate.saturated, b.aggregate.saturated);
    assert_eq!(a.aggregate.batches, b.aggregate.batches);
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
    let (a, b) = (run(cfg).aggregate, run(cfg).aggregate);
    assert_eq!(a.sustained_rate, b.sustained_rate);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.saturated, b.saturated);
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

/// The metrics snapshot survives the JSON interchange bit for bit —
/// counters, histogram buckets and float fields alike.
#[test]
fn metrics_round_trip_through_json() {
    let r = run(sharded_cfg(3, 6.0e6));
    let json = r.metrics.to_json();
    let back = ServiceMetrics::from_json(&json).expect("snapshot must parse back");
    assert_eq!(back, r.metrics);
    assert_eq!(back.shards.len(), 3);
    // Re-serializing the parsed value is a fixed point.
    assert_eq!(back.to_json(), json);
}
