//! # msg-match — message matching engines for SIMT processors
//!
//! The primary contribution of *"Relaxations for High-Performance Message
//! Passing on Massively Parallel SIMT Processors"* (Klenk et al., IPDPS
//! 2017), reproduced in Rust on the [`simt_sim`] substrate:
//!
//! * [`mod@reference`] — the golden sequential model of MPI matching
//!   semantics (UMQ/PRQ, wildcards, per-pair ordering), against which
//!   every other engine is validated.
//! * [`ListMatcher`] — the CPU baseline: linked-list UMQ/PRQ traversal, the
//!   design of mainstream MPI libraries (~30 M matches/s short queues,
//!   < 5 M beyond 512 entries on host silicon).
//! * [`HashedListMatcher`] — the strongest cited CPU improvement (Flajslik et
//!   al.): hash-addressed bucket queues with wildcard markers.
//! * [`MatrixMatcher`] — the fully MPI-compliant GPU algorithm: warp-ballot
//!   *scan* into a vote matrix, sequential warp *reduce* honouring
//!   ordering and wildcards (paper Algorithms 1 & 2; ~6 M matches/s on
//!   Pascal). Its kernel runs over queue slices, one per queue, and its
//!   round driver iterates queues longer than one batch.
//! * [`partitioned`] — the *no source wildcard* relaxation: static rank
//!   partitioning into parallel queues (~60 M matches/s), each queue one
//!   slice of the matrix kernel with its own reduce warp.
//! * [`HashMatcher`] — the *no ordering* relaxation: two-level hash table with
//!   Jenkins' 6-shift hash (~500 M matches/s).
//! * [`compaction`] — the prefix-scan queue compaction whose cost the
//!   *no unexpected messages* relaxation avoids (~10%).
//! * [`screen_batch`] — O(1) counting-digest queue summaries that reject
//!   fruitless traversals without relaxing any semantics.
//! * [`EnvelopeSoa`] / [`RequestSoa`] — structure-of-arrays queue backing whose maintained packed
//!   word column uploads straight to the kernels.
//! * [`RelaxationConfig`] — the Table II lattice tying guarantees to engines, with
//!   workload validation.
//! * [`EngineChoice`] — what an engine is, stated once: its lattice row,
//!   ordering strictness, span name and metric label; [`MatchEngine`]
//!   chooses one from a workload and runs it.
//! * [`ShardPlacement`] — the communicator level of matching parallelism:
//!   `(communicator, source rank)` keys mapped onto service shards, one
//!   engine per shard.
//! * [`WorkloadSpec`] — the micro-benchmark generators of Section V-B.
//!
//! ## Quick example
//!
//! ```
//! use msg_match::prelude::*;
//! use simt_sim::{Gpu, GpuGeneration};
//!
//! let w = WorkloadSpec::fully_matching(256, 42).generate();
//! let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
//! let report = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
//! assert_eq!(report.matches, 256);
//! println!("{:.1} M matches/s", report.matches_per_sec / 1e6);
//! ```

#![warn(missing_docs, unreachable_pub)]

pub mod compaction;
mod engine;
pub mod envelope;
mod gpu_common;
mod hash;
mod hashed_list;
mod list;
mod matrix;
pub mod partitioned;
mod placement;
mod prefilter;
pub mod reference;
mod relax;
mod soa;
mod workloads;

/// Convenience re-exports of the main API surface.
pub mod prelude {
    pub use crate::engine::{EngineChoice, MatchEngine};
    pub use crate::envelope::{CommId, Envelope, Rank, RecvRequest, SrcSpec, Tag, TagSpec};
    pub use crate::gpu_common::GpuMatchReport;
    pub use crate::hash::{HashMatcher, TableOrganization};
    pub use crate::hashed_list::HashedListMatcher;
    pub use crate::list::{ListMatcher, MatchPair};
    pub use crate::matrix::{MatrixMatcher, MAX_BATCH};
    pub use crate::partitioned::PartitionedMatcher;
    pub use crate::placement::ShardPlacement;
    pub use crate::prefilter::{
        expand_assignment, screen_batch, screen_soa, EnvelopeFilter, RequestFilter, ScreenReport,
    };
    pub use crate::reference::{match_queues, MatchEvent, ReferenceEngine};
    pub use crate::relax::{DataStructure, PerformanceClass, RelaxationConfig, UserImplication};
    pub use crate::soa::{EnvelopeSoa, RequestSoa};
    pub use crate::workloads::{Workload, WorkloadSpec};
}

pub use prelude::*;
