//! The production kernels under the race sanitizer: every matching
//! engine and the compaction kernel must be free of same-segment
//! cross-warp conflicts — the correctness contract that makes the
//! warp-synchronous execution model valid on real hardware.

use msg_match::compaction::compact_queue_regions;
use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

fn sanitized_gpu() -> Gpu {
    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    gpu.enable_sanitizer();
    gpu
}

fn assert_clean(gpu: &Gpu, what: &str) {
    let findings = gpu.sanitizer_findings.as_ref().expect("sanitizer enabled");
    assert!(
        findings.is_empty(),
        "{what} raced: {}",
        findings
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn matrix_matcher_is_race_free() {
    let w = WorkloadSpec {
        len: 700,
        src_wildcard_pm: 40,
        tag_wildcard_pm: 10,
        seed: 3,
        ..Default::default()
    }
    .generate();
    let mut gpu = sanitized_gpu();
    let r = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
    assert!(r.matches > 0);
    assert_clean(&gpu, "matrix matcher");
}

#[test]
fn small_path_is_race_free() {
    let w = WorkloadSpec::fully_matching(24, 3).generate();
    let mut gpu = sanitized_gpu();
    MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
    assert_clean(&gpu, "single-warp matcher");
}

#[test]
fn partitioned_matcher_is_race_free() {
    let w = WorkloadSpec::fully_matching(640, 5).generate();
    let mut gpu = sanitized_gpu();
    PartitionedMatcher::new(8)
        .match_batch(&mut gpu, &w.msgs, &w.reqs)
        .unwrap();
    assert_clean(&gpu, "partitioned matcher");
}

#[test]
fn hash_matcher_is_race_free() {
    // Duplicates force multiple iterations including the clear kernel.
    let w = WorkloadSpec {
        len: 512,
        peers: 6,
        tags: 6,
        seed: 5,
        ..Default::default()
    }
    .generate();
    let mut gpu = sanitized_gpu();
    HashMatcher::default()
        .match_batch(&mut gpu, &w.msgs, &w.reqs)
        .unwrap();
    assert_clean(&gpu, "hash matcher");

    let mut gpu = sanitized_gpu();
    HashMatcher::linear_probing(8)
        .match_batch(&mut gpu, &w.msgs, &w.reqs)
        .unwrap();
    assert_clean(&gpu, "linear-probing hash matcher");
}

#[test]
fn compaction_kernel_is_race_free() {
    let q: Vec<u64> = (0..1000u64).map(|i| i | (1 << 63)).collect();
    let keep: Vec<u32> = (0..1000).map(|i| (i % 3 != 0) as u32).collect();
    for regions in [1usize, 4, 32] {
        let mut gpu = sanitized_gpu();
        compact_queue_regions(&mut gpu, &q, &keep, regions);
        assert_clean(&gpu, "compaction kernel");
    }
}

/// The full sharded service with the sanitizer armed on every shard
/// GPU, under both schedulers and with a crash mid-run: no kernel
/// launched anywhere in the service layer may exhibit a cross-warp
/// same-segment conflict. This extends the per-kernel harness above to
/// the composition — replay after recovery, engine fallback, and
/// batch dispatch all route through these engines.
#[test]
fn sharded_service_is_race_free_under_both_schedulers() {
    use gpu_msg::{
        FaultEvent, FaultKind, FaultPlan, FaultTolerance, RecoveryConfig, Scheduler, ServiceEngine,
        ShardEnginePolicy, ShardedMatchService, ShardedServiceConfig,
    };
    for scheduler in [Scheduler::GlobalClock, Scheduler::ThreadPerShard] {
        for engine in [
            ServiceEngine::Matrix,
            ServiceEngine::Partitioned(8),
            ServiceEngine::Hash,
        ] {
            let mut svc = ShardedMatchService::new(
                GpuGeneration::PascalGtx1080,
                ShardedServiceConfig {
                    shards: 3,
                    arrival_rate: 3.0e6,
                    duration: 0.5e-3,
                    queue_capacity: 1 << 20,
                    drain: true,
                    policy: ShardEnginePolicy::Fixed(engine),
                    seed: 17,
                    scheduler,
                    ..Default::default()
                },
            );
            svc.enable_sanitizer();
            svc.set_fault_tolerance(Some(FaultTolerance {
                plan: FaultPlan::new(vec![FaultEvent {
                    at: 0.25e-3,
                    shard: 0,
                    kind: FaultKind::Crash,
                }]),
                recovery: RecoveryConfig::default(),
                supervisor: None,
            }));
            let report = svc.run();
            assert!(
                report.metrics.total_matched > 0,
                "{scheduler:?}/{engine:?} ran dry"
            );
            let findings = svc.sanitizer_findings();
            assert!(
                findings.is_empty(),
                "{scheduler:?}/{engine:?} service raced: {findings:?}"
            );
        }
    }
}
