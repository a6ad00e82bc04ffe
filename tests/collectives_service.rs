//! Integration tests: collectives composed over every matcher, the
//! reorder buffer closing the ordering gap, and the service model's
//! consistency with the batch rates.

use bytes::Bytes;
use gpu_msg::collectives::{barrier, broadcast, ring_allgather_u64, ring_allreduce_sum};
use gpu_msg::{
    Domain, MatcherKind, ReorderBuffer, ServiceEngine, ShardEnginePolicy, ShardedMatchService,
    ShardedServiceConfig,
};
use msg_match::prelude::*;
use simt_sim::GpuGeneration;

#[test]
fn collectives_compose_over_every_matcher() {
    for (kind, relax) in [
        (MatcherKind::Matrix, RelaxationConfig::FULL_MPI),
        (MatcherKind::Partitioned(4), RelaxationConfig::NO_WILDCARDS),
        (MatcherKind::Hash, RelaxationConfig::UNORDERED),
    ] {
        let d = Domain::new(5, GpuGeneration::PascalGtx1080, kind, relax);
        d.run_ranks(|rank, d| {
            barrier(d, rank, 100).unwrap();
            let sum = ring_allreduce_sum(d, rank, rank as f64, 200).unwrap();
            assert_eq!(sum, 10.0, "{kind:?}");
            let all = ring_allgather_u64(d, rank, rank as u64 * 7, 300).unwrap();
            assert_eq!(all, vec![0, 7, 14, 21, 28], "{kind:?}");
            let payload = if rank == 2 {
                Some(Bytes::from_static(b"root-data"))
            } else {
                None
            };
            let b = broadcast(d, rank, 2, payload, 400).unwrap();
            assert_eq!(&b[..], b"root-data", "{kind:?}");
            barrier(d, rank, 500).unwrap();
        });
        assert!(d.quiescent(), "{kind:?}");
    }
}

#[test]
fn reorder_buffer_restores_order_over_unordered_domain() {
    // Sender stamps sequence numbers in the tag; the receiver's hash
    // domain may match out of order, but the reorder buffer re-serialises.
    let d = Domain::new(
        2,
        GpuGeneration::PascalGtx1080,
        MatcherKind::Hash,
        RelaxationConfig::UNORDERED,
    );
    let n = 32u32;
    for seq in 0..n {
        d.send(0, 1, seq, 0, Bytes::from(vec![seq as u8]));
    }
    // Post receives in a scrambled order to force out-of-order completion.
    let mut order: Vec<u32> = (0..n).collect();
    order.reverse();
    let mut rb = ReorderBuffer::new();
    let mut delivered: Vec<u8> = Vec::new();
    for seq in order {
        let m = d
            .recv_blocking(1, RecvRequest::exact(0, seq, 0))
            .expect("delivery");
        for ready in rb.push(seq as u64, m) {
            delivered.push(ready.payload[0]);
        }
    }
    assert!(rb.is_drained());
    assert_eq!(delivered, (0..n as u8).collect::<Vec<u8>>());
    assert!(rb.max_buffered as u32 == n, "fully reversed ⇒ full window");
}

#[test]
fn progress_all_drains_cross_traffic() {
    let d = Domain::full_mpi(3, GpuGeneration::MaxwellM40);
    for src in 0..3u32 {
        for dst in 0..3u32 {
            if src != dst {
                d.send(src, dst, src * 10 + dst, 0, Bytes::new());
            }
        }
    }
    let mut handles = Vec::new();
    for dst in 0..3u32 {
        for src in 0..3u32 {
            if src != dst {
                handles.push(
                    d.post_recv(dst, RecvRequest::exact(src, src * 10 + dst, 0))
                        .unwrap(),
                );
            }
        }
    }
    let matched = d.progress_all().unwrap();
    assert_eq!(matched, 6);
    assert!(
        d.quiescent() || {
            // completions still queued count against quiescence
            (0..3).map(|r| d.take_completions(r).len()).sum::<usize>() == 6
        }
    );
}

#[test]
fn service_ceiling_matches_batch_rate() {
    // The service model's saturated throughput must agree with the batch
    // matcher's rate within ~25%.
    let w = WorkloadSpec::fully_matching(1024, 5).generate();
    let mut gpu = simt_sim::Gpu::new(GpuGeneration::PascalGtx1080);
    let batch = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
    let svc = ShardedMatchService::new(
        GpuGeneration::PascalGtx1080,
        ShardedServiceConfig {
            shards: 1,
            arrival_rate: batch.matches_per_sec * 4.0, // far past saturation
            policy: ShardEnginePolicy::Fixed(ServiceEngine::Matrix),
            ..Default::default()
        },
    )
    .run()
    .aggregate;
    assert!(svc.saturated);
    let ratio = svc.sustained_rate / batch.matches_per_sec;
    assert!(
        (0.75..1.25).contains(&ratio),
        "service ceiling {} vs batch rate {} (ratio {ratio})",
        svc.sustained_rate,
        batch.matches_per_sec
    );
}
