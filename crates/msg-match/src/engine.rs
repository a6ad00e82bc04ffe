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
use crate::workloads::tuple_uniqueness_pct;

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

impl EngineChoice {
    /// The least-relaxed configuration this engine serves: its row of
    /// the Table II lattice. Wider guarantees need a stricter engine.
    pub fn relaxation(self) -> RelaxationConfig {
        match self {
            EngineChoice::Matrix => RelaxationConfig::FULL_MPI,
            EngineChoice::Partitioned { .. } => RelaxationConfig::NO_WILDCARDS,
            EngineChoice::Hash => RelaxationConfig::UNORDERED,
        }
    }

    /// Ordering strictness: how many of the wildcard and ordering
    /// guarantees [`relaxation`](Self::relaxation) keeps (matrix 2,
    /// partitioned 1, hash 0). A failover target falls back to the
    /// stricter of its own and an inherited stream's engine.
    pub fn strictness(self) -> u8 {
        let r = self.relaxation();
        u8::from(r.wildcards) + u8::from(r.ordering)
    }

    /// Span name of the engine, without parameters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EngineChoice::Matrix => "matrix",
            EngineChoice::Partitioned { .. } => "partitioned",
            EngineChoice::Hash => "hash",
        }
    }

    /// Metric label: the span name with the queue count of a
    /// partitioned engine, e.g. `partitioned(16)`.
    pub fn label(self) -> String {
        match self {
            EngineChoice::Partitioned { queues } => format!("{}({queues})", self.name()),
            _ => self.name().to_string(),
        }
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
    /// matrix otherwise. The choice depends on the message multiset only
    /// (its most common tuple's share and its distinct sources), never on
    /// message order.
    pub fn choose(&self, config: RelaxationConfig, msgs: &[Envelope]) -> EngineChoice {
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
        let choice = self.choose(config, msgs);
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
                choice.name(),
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
            e.choose(RelaxationConfig::FULL_MPI, &w.msgs),
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
        match e.choose(RelaxationConfig::NO_WILDCARDS, &w.msgs) {
            EngineChoice::Partitioned { queues } => assert!(queues <= 6, "queues {queues}"),
            other => panic!("expected partitioned, got {other:?}"),
        }
    }

    #[test]
    fn unordered_picks_hash_unless_collision_hostile() {
        let e = MatchEngine::default();
        let unique = WorkloadSpec::unique_tuples(128, 1).generate();
        assert_eq!(
            e.choose(RelaxationConfig::UNORDERED, &unique.msgs),
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
        match e.choose(RelaxationConfig::UNORDERED, &hostile.msgs) {
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

    #[test]
    fn each_engine_states_its_lattice_row_once() {
        let w = WorkloadSpec::fully_matching(64, 7).generate();
        let m0 = w.msgs[0];
        let with = |wild: RecvRequest| {
            let mut reqs = w.reqs.clone();
            let j = reqs.iter().position(|r| r.matches(&m0)).unwrap();
            reqs[j] = wild;
            reqs
        };
        let src_wild = with(RecvRequest::any_source(m0.tag, m0.comm));
        let tag_wild = with(RecvRequest::any_tag(m0.src, m0.comm));
        let e = MatchEngine::default();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let mut accepts = |choice: EngineChoice, reqs: &[RecvRequest]| {
            let lattice = choice.relaxation().validate_workload(&w.msgs, reqs).is_ok();
            let matcher = e.match_with(&mut gpu, choice, &w.msgs, reqs).is_ok();
            (lattice, matcher)
        };
        let partitioned = EngineChoice::Partitioned { queues: 4 };
        // (lattice row, matcher) on a source-wildcard batch: both agree.
        assert_eq!(accepts(EngineChoice::Matrix, &src_wild), (true, true));
        assert_eq!(accepts(partitioned, &src_wild), (false, false));
        assert_eq!(accepts(EngineChoice::Hash, &src_wild), (false, false));
        // On a tag-wildcard batch the matrix and hash rows agree with
        // their matchers; Table II has one wildcard column, so the
        // partitioned row also relaxes the tag wildcard its matcher
        // would still serve — conservative, never unsound.
        assert_eq!(accepts(EngineChoice::Matrix, &tag_wild), (true, true));
        assert_eq!(accepts(partitioned, &tag_wild), (false, true));
        assert_eq!(accepts(EngineChoice::Hash, &tag_wild), (false, false));

        assert!(EngineChoice::Matrix.strictness() > partitioned.strictness());
        assert!(partitioned.strictness() > EngineChoice::Hash.strictness());
        let labels: Vec<String> = [EngineChoice::Matrix, partitioned, EngineChoice::Hash]
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(labels, ["matrix", "partitioned(4)", "hash"]);
        assert_eq!(partitioned.name(), "partitioned");
    }
}
