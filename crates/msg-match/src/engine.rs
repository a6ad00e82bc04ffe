//! A unified matching engine: one entry point that enforces a
//! [`RelaxationConfig`], dispatches to the right algorithm, and can
//! *choose* the relaxation level from workload characteristics — the
//! paper's Section VII argument ("we consider these relaxations to be
//! feasible") turned into a policy.

use simt_sim::Gpu;

use crate::envelope::{Envelope, RecvRequest};
use crate::gpu_common::GpuMatchReport;
use crate::hash::HashMatcher;
use crate::matrix::{MatrixMatcher, MAX_BATCH};
use crate::partitioned::PartitionedMatcher;
use crate::relax::{DataStructure, RelaxationConfig};
use crate::workloads::{tuple_uniqueness_pct, tuple_uniqueness_pct_indexed};

/// Tuning inputs for automatic engine selection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SelectionPolicy {
    /// Uniqueness (max tuple share, percent) above which hash tables are
    /// considered collision-hostile. Figure 6(a) puts most apps in
    /// single digits; Nekbone-like workloads exceed this.
    pub(crate) max_uniqueness_pct: f64,
    /// Maximum queues to partition into (bounded by communication peers;
    /// Section VII-A: most apps allow 10–30).
    pub(crate) max_queues: usize,
}

impl Default for SelectionPolicy {
    fn default() -> Self {
        SelectionPolicy {
            max_uniqueness_pct: 10.0,
            max_queues: 16,
        }
    }
}

/// Which engine a [`MatchEngine`] ran, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Matrix scan/reduce on a single queue.
    Matrix,
    /// Matrix scan/reduce over `queues` partitioned queues.
    Partitioned {
        /// Queue count used.
        queues: usize,
    },
    /// Two-level hash table.
    Hash,
}

/// Static display name for an [`EngineChoice`] (span and metric label).
pub(crate) fn engine_name(choice: EngineChoice) -> &'static str {
    match choice {
        EngineChoice::Matrix => "matrix",
        EngineChoice::Partitioned { .. } => "partitioned",
        EngineChoice::Hash => "hash",
    }
}

/// Unified matcher: semantics in, algorithm out.
#[derive(Debug, Clone, Default)]
pub struct MatchEngine {
    /// Selection tuning.
    pub(crate) policy: SelectionPolicy,
}

impl MatchEngine {
    /// Choose the deepest-relaxed engine a workload *permits* under
    /// `config`, following Table II: hash if ordering is relaxed and the
    /// tuples are hash-friendly, partitioned if wildcards are relaxed,
    /// matrix otherwise.
    pub fn choose(
        &self,
        config: RelaxationConfig,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> EngineChoice {
        if config.data_structure() == DataStructure::HashTable
            && tuple_uniqueness_pct(msgs) <= self.policy.max_uniqueness_pct
        {
            return EngineChoice::Hash;
        }
        if config.partitionable() {
            let peers: std::collections::BTreeSet<u32> = msgs.iter().map(|m| m.src).collect();
            let queues = peers.len().clamp(1, self.policy.max_queues);
            if queues > 1 {
                return EngineChoice::Partitioned { queues };
            }
        }
        let _ = reqs;
        EngineChoice::Matrix
    }

    /// [`MatchEngine::choose`] over an index view into `msgs`: scores the
    /// sub-batch `ids` selects without gathering it into a fresh
    /// `Vec<Envelope>` (what [`crate::comm_router::ShardPlacement::plan_engines`]
    /// feeds it per shard).
    pub(crate) fn choose_indexed(
        &self,
        config: RelaxationConfig,
        msgs: &[Envelope],
        ids: &[u32],
    ) -> EngineChoice {
        if config.data_structure() == DataStructure::HashTable
            && tuple_uniqueness_pct_indexed(msgs, ids) <= self.policy.max_uniqueness_pct
        {
            return EngineChoice::Hash;
        }
        if config.partitionable() {
            let peers: std::collections::BTreeSet<u32> =
                ids.iter().map(|&i| msgs[i as usize].src).collect();
            let queues = peers.len().clamp(1, self.policy.max_queues);
            if queues > 1 {
                return EngineChoice::Partitioned { queues };
            }
        }
        EngineChoice::Matrix
    }

    /// Validate, choose and run.
    ///
    /// # Errors
    /// Fails if the workload violates `config` (e.g. wildcards under a
    /// no-wildcard configuration) or an engine rejects its input.
    pub fn match_batch(
        &self,
        gpu: &mut Gpu,
        config: RelaxationConfig,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> Result<(EngineChoice, GpuMatchReport), String> {
        config.validate_workload(msgs, reqs)?;
        let choice = self.choose(config, msgs, reqs);
        let report = self.match_with(gpu, choice, msgs, reqs)?;
        Ok((choice, report))
    }

    /// Run an explicit, already-chosen engine on a batch.
    ///
    /// A streaming service pins one engine per shard at placement time
    /// and then services every batch with it; this entry point skips the
    /// per-batch policy decision (and its workload scan) that
    /// [`match_batch`](Self::match_batch) performs.
    ///
    /// # Errors
    /// Fails if the batch violates the engine's own preconditions (e.g.
    /// wildcards under the partitioned or hash engines).
    pub fn match_with(
        &self,
        gpu: &mut Gpu,
        choice: EngineChoice,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> Result<GpuMatchReport, String> {
        let t0 = gpu.obs.as_ref().map(|r| r.now_ns());
        let report = match choice {
            EngineChoice::Matrix => {
                let m = MatrixMatcher::default();
                if msgs.len() <= MAX_BATCH && reqs.len() <= MAX_BATCH {
                    m.match_batch(gpu, msgs, reqs)
                } else {
                    m.match_iterative(gpu, msgs, reqs)
                }
            }
            EngineChoice::Partitioned { queues } => {
                PartitionedMatcher::new(queues).match_batch(gpu, msgs, reqs)?
            }
            EngineChoice::Hash => HashMatcher::default().match_batch(gpu, msgs, reqs)?,
        };
        if let (Some(rec), Some(t0)) = (gpu.obs.as_mut(), t0) {
            let dur = rec.now_ns().saturating_sub(t0);
            rec.record_complete(
                obs::SpanCategory::Match,
                engine_name(choice),
                t0,
                dur,
                vec![
                    ("msgs", obs::ArgValue::U64(msgs.len() as u64)),
                    ("reqs", obs::ArgValue::U64(reqs.len() as u64)),
                    ("matches", obs::ArgValue::U64(report.matches)),
                    ("launches", obs::ArgValue::U64(report.launches as u64)),
                ],
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::verify_mpi_matching;
    use crate::workloads::WorkloadSpec;
    use simt_sim::GpuGeneration;

    #[test]
    fn full_mpi_always_picks_matrix() {
        let w = WorkloadSpec::fully_matching(128, 1).generate();
        let e = MatchEngine::default();
        assert_eq!(
            e.choose(RelaxationConfig::FULL_MPI, &w.msgs, &w.reqs),
            EngineChoice::Matrix
        );
    }

    #[test]
    fn no_wildcards_picks_partitioned_with_peer_bounded_queues() {
        let w = WorkloadSpec {
            len: 128,
            peers: 6,
            seed: 1,
            ..Default::default()
        }
        .generate();
        let e = MatchEngine::default();
        match e.choose(RelaxationConfig::NO_WILDCARDS, &w.msgs, &w.reqs) {
            EngineChoice::Partitioned { queues } => assert!(queues <= 6, "queues {queues}"),
            other => panic!("expected partitioned, got {other:?}"),
        }
    }

    #[test]
    fn unordered_picks_hash_unless_collision_hostile() {
        let e = MatchEngine::default();
        let unique = WorkloadSpec::unique_tuples(128, 1).generate();
        assert_eq!(
            e.choose(RelaxationConfig::UNORDERED, &unique.msgs, &unique.reqs),
            EngineChoice::Hash
        );
        // Nekbone-like: one tag, few skewed peers → hash hostile, fall
        // back to partitioned matrices.
        let hostile = WorkloadSpec {
            len: 128,
            peers: 3,
            tags: 1,
            seed: 1,
            ..Default::default()
        }
        .generate();
        match e.choose(RelaxationConfig::UNORDERED, &hostile.msgs, &hostile.reqs) {
            EngineChoice::Partitioned { .. } => {}
            other => panic!("expected partitioned fallback, got {other:?}"),
        }
    }

    #[test]
    fn match_batch_validates_and_runs() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let e = MatchEngine::default();
        let w = WorkloadSpec::fully_matching(200, 2).generate();
        let (choice, r) = e
            .match_batch(&mut gpu, RelaxationConfig::FULL_MPI, &w.msgs, &w.reqs)
            .unwrap();
        assert_eq!(choice, EngineChoice::Matrix);
        assert_eq!(r.matches, 200);
        let a: Vec<Option<usize>> = r.assignment.iter().map(|x| x.map(|v| v as usize)).collect();
        verify_mpi_matching(&w.msgs, &w.reqs, &a).unwrap();
    }

    #[test]
    fn match_batch_rejects_violations() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let e = MatchEngine::default();
        let w = WorkloadSpec {
            len: 64,
            src_wildcard_pm: 500,
            seed: 3,
            ..Default::default()
        }
        .generate();
        assert!(e
            .match_batch(&mut gpu, RelaxationConfig::NO_WILDCARDS, &w.msgs, &w.reqs)
            .is_err());
        assert!(e
            .match_batch(&mut gpu, RelaxationConfig::FULL_MPI, &w.msgs, &w.reqs)
            .is_ok());
    }

    #[test]
    fn relaxed_engines_still_fully_match() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let e = MatchEngine::default();
        let w = WorkloadSpec::fully_matching(512, 4).generate();
        for cfg in [RelaxationConfig::NO_WILDCARDS, RelaxationConfig::UNORDERED] {
            let (_, r) = e.match_batch(&mut gpu, cfg, &w.msgs, &w.reqs).unwrap();
            assert_eq!(r.matches, 512, "{cfg:?}");
            r.verify_valid(&w.msgs, &w.reqs).unwrap();
        }
    }
}
