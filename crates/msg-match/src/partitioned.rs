//! Rank partitioning: the *no source wildcard* relaxation (Section VI-A).
//!
//! Prohibiting `MPI_ANY_SOURCE` lets the rank space be statically
//! partitioned into multiple queues (here: `src % queues`, the scheme the
//! feasibility analysis assumes when it counts communication peers).
//! Each queue runs the compliant scan/reduce independently — the same
//! kernel and round driver as [`MatrixMatcher`], handed one queue slice
//! per partition instead of one for the whole batch — and crucially each
//! queue gets its *own* reduce warp, so the sequential phase parallelises
//! across queues. Messages between a fixed pair of ranks stay in one
//! queue, so per-pair ordering — the guarantee MPI actually gives — is
//! preserved; only cross-source arrival order is lost, which is
//! unobservable without the source wildcard. With one queue the matcher
//! is the compliant one without probe dedup, launch for launch.
//!
//! Queue groups are packed into CTAs of at most 32 warps (queues never
//! span CTAs). Grids beyond the SM's two-CTA residency serialise, which
//! is the paper's explanation for the sub-linear region of Figure 5.

use simt_sim::Gpu;

use crate::envelope::{Envelope, RecvRequest, SrcSpec};
use crate::gpu_common::GpuMatchReport;
use crate::matrix::{pack_ctas, Engine, MatrixMatcher, QueueSlice, MAX_BATCH};

/// Predict the CTA footprint of one partitioned launch: how many CTAs
/// the first-fit packing needs for queues of the given lengths (in
/// messages, each capped at one batch). Figure 5 annotates its series
/// with exactly this number.
pub fn cta_plan(queue_lens: &[usize]) -> u32 {
    let slices = queue_lens
        .iter()
        .filter(|&&len| len > 0)
        .map(|&len| QueueSlice::new(0, len.min(MAX_BATCH), 0, 0));
    pack_ctas(slices).len().max(1) as u32
}

/// The rank-partitioned matcher.
#[derive(Debug, Clone)]
pub struct PartitionedMatcher {
    /// Number of queues the rank space is split into.
    pub(crate) queues: usize,
    /// The scan/reduce each queue runs: pipelined, without probe dedup.
    pub(crate) matrix: MatrixMatcher,
}

impl PartitionedMatcher {
    /// Partitioned matcher with `queues` queues.
    pub fn new(queues: usize) -> Self {
        assert!(queues >= 1);
        PartitionedMatcher {
            queues,
            matrix: MatrixMatcher {
                dedup_probes: false,
                ..Default::default()
            },
        }
    }

    /// Match a batch. Requests must not use the source wildcard — that is
    /// the relaxation this matcher trades for queue parallelism.
    ///
    /// # Errors
    /// Returns an error if any request uses `MPI_ANY_SOURCE`.
    pub fn match_batch(
        &self,
        gpu: &mut Gpu,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> Result<GpuMatchReport, String> {
        if let Some(j) = reqs.iter().position(|r| r.src == SrcSpec::Any) {
            return Err(format!(
                "rank partitioning requires the no-source-wildcard relaxation, \
                 but request {j} uses MPI_ANY_SOURCE"
            ));
        }
        // Partition by src % queues, preserving order within each queue.
        let k = self.queues;
        let mut queues: Vec<(Vec<u32>, Vec<u32>)> = vec![Default::default(); k];
        for (i, m) in msgs.iter().enumerate() {
            queues[m.src as usize % k].0.push(i as u32);
        }
        for (j, r) in reqs.iter().enumerate() {
            let SrcSpec::Rank(s) = r.src else {
                unreachable!("wildcards rejected above")
            };
            queues[s as usize % k].1.push(j as u32);
        }
        let msg_words: Vec<u64> = msgs.iter().map(Envelope::pack).collect();
        let req_words: Vec<u64> = reqs.iter().map(RecvRequest::pack).collect();
        Ok(self
            .matrix
            .match_queues(gpu, Engine::Partitioned, &msg_words, &req_words, queues))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::verify_mpi_matching;
    use crate::MatrixMatcher;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simt_sim::GpuGeneration;

    fn e(src: u32, tag: u32) -> Envelope {
        Envelope::new(src, tag, 0)
    }

    fn check(queues: usize, msgs: &[Envelope], reqs: &[RecvRequest]) -> GpuMatchReport {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = PartitionedMatcher::new(queues)
            .match_batch(&mut gpu, msgs, reqs)
            .expect("no wildcards in workload");
        let a: Vec<Option<usize>> = r.assignment.iter().map(|x| x.map(|v| v as usize)).collect();
        // Without the source wildcard, partitioned matching must still
        // produce the exact MPI outcome (per-pair ordering observable).
        verify_mpi_matching(msgs, reqs, &a).expect("partitioned result must equal MPI semantics");
        r
    }

    #[test]
    fn rejects_source_wildcard() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let err = PartitionedMatcher::new(4)
            .match_batch(&mut gpu, &[e(0, 0)], &[RecvRequest::any_source(0, 0)])
            .unwrap_err();
        assert!(err.contains("MPI_ANY_SOURCE"));
    }

    #[test]
    fn tag_wildcard_is_still_allowed() {
        // Only the *source* wildcard blocks partitioning.
        let msgs = vec![e(3, 9)];
        let reqs = vec![RecvRequest::any_tag(3, 0)];
        let r = check(4, &msgs, &reqs);
        assert_eq!(r.matches, 1);
    }

    #[test]
    fn single_queue_equals_matrix_semantics() {
        let msgs: Vec<Envelope> = (0..100).map(|i| e(i % 10, i % 4)).collect();
        let reqs: Vec<RecvRequest> = (0..100)
            .map(|i| RecvRequest::exact(i % 10, i % 4, 0))
            .collect();
        let r = check(1, &msgs, &reqs);
        assert_eq!(r.matches, 100);

        // One queue is the compliant matcher without probe dedup, launch
        // for launch, past the single-warp path on every generation.
        let compliant = MatrixMatcher {
            dedup_probes: false,
            ..Default::default()
        };
        for gen in GpuGeneration::ALL {
            for (len, seed) in [(33usize, 1u64), (100, 2), (256, 3), (700, 4), (1024, 5)] {
                let w = crate::WorkloadSpec::fully_matching(len, seed).generate();
                let mut gpu = Gpu::new(gen);
                let p = PartitionedMatcher::new(1)
                    .match_batch(&mut gpu, &w.msgs, &w.reqs)
                    .expect("no wildcards");
                let m = compliant.match_batch(&mut gpu, &w.msgs, &w.reqs);
                let at = format!("{gen:?}, {len} messages");
                assert_eq!(p.matches, len as u64, "{at}");
                assert_eq!(p.assignment, m.assignment, "{at}");
                assert_eq!(p.cycles, m.cycles, "{at}");
                assert_eq!(p.instructions, m.instructions, "{at}");
                assert_eq!(p.stall_cycles, m.stall_cycles, "{at}");
                assert_eq!(p.launches, m.launches, "{at}");
            }
        }
    }

    #[test]
    fn multi_queue_full_match() {
        let mut rng = StdRng::seed_from_u64(21);
        let msgs: Vec<Envelope> = (0..512)
            .map(|_| e(rng.gen_range(0..16), rng.gen_range(0..6)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        for q in [2usize, 4, 8, 16] {
            let r = check(q, &msgs, &reqs);
            assert_eq!(r.matches, 512, "{q} queues");
        }
    }

    #[test]
    fn imbalanced_sources_still_correct() {
        // Everything from one source: all work lands in one queue.
        let msgs: Vec<Envelope> = (0..200).map(|i| e(5, i % 50)).collect();
        let reqs: Vec<RecvRequest> = (0..200)
            .rev()
            .map(|i| RecvRequest::exact(5, i % 50, 0))
            .collect();
        let r = check(8, &msgs, &reqs);
        assert_eq!(r.matches, 200);
    }

    #[test]
    fn partial_matches_and_unmatched_residue() {
        let msgs: Vec<Envelope> = (0..300).map(|i| e(i % 12, 0)).collect();
        let reqs: Vec<RecvRequest> = (0..150).map(|i| RecvRequest::exact(i % 6, 0, 0)).collect();
        check(4, &msgs, &reqs);
    }

    #[test]
    fn more_queues_is_faster_at_scale() {
        // The headline claim: queue parallelism raises the matching rate.
        let mut rng = StdRng::seed_from_u64(33);
        let n = 1024;
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| e(rng.gen_range(0..64), rng.gen_range(0..100)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r1 = PartitionedMatcher::new(1)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        let r8 = PartitionedMatcher::new(8)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(r1.matches, n as u64);
        assert_eq!(r8.matches, n as u64);
        assert!(
            r8.matches_per_sec > r1.matches_per_sec * 3.0,
            "8 queues should be ≫ 1 queue: {} vs {}",
            r8.matches_per_sec,
            r1.matches_per_sec
        );
    }

    #[test]
    fn long_queues_iterate() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 3000;
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| e(rng.gen_range(0..8), rng.gen_range(0..4)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        let r = check(2, &msgs, &reqs);
        assert_eq!(r.matches, n as u64);
        assert!(r.launches > 1);
    }
}
