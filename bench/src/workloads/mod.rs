//! The five named workloads. Names are stable: later issues cite them.
//!
//! Every workload builds its inputs from the seed, drives the stack only
//! through public functions, and checks each repetition against the
//! repository's own oracles. The host side is a closed loop with one
//! client (repetitions back to back from one process); the simulated
//! side of the `svc-*` workloads is an open loop (the service's seeded
//! arrival process at a fixed offered rate).

pub mod domain_fabric;
pub mod match_unexpected;
pub mod service;

use crate::metrics::Values;
use crate::trace::Tracer;

/// Outcome of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Wall seconds of the timed calls (verification excluded).
    pub wall_s: f64,
    /// Messages resolved (matched, delivered, or left unexpected).
    pub msgs: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: spilled, shed, lost, undelivered, or
    /// diverging from the oracle.
    pub failed: u64,
    /// Simulated warp instructions executed (estimated from simulated
    /// cycles on the `Domain` workloads, whose endpoints report cycles
    /// only).
    pub sim_instr: f64,
    /// Every simulated-clock value of the repetition, by metric name.
    /// Deterministic per seed: the runner fails the run unless each
    /// repetition reproduces the first one's list bit for bit.
    pub sim: Vec<(&'static str, f64)>,
}

/// What the traced pass tells a workload about its own repetitions.
#[derive(Debug, Clone, Copy)]
pub struct LayerCtx {
    /// Undisturbed (first-quartile) wall seconds of the pass's untraced
    /// repetitions.
    pub rep_wall_s: f64,
    /// Shrink every probe to its minimum (smoke mode).
    pub quick: bool,
}

/// One benchmark workload, set up for one seed.
pub trait Workload {
    /// Run one repetition and verify its outputs.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;

    /// Traced-pass extras: replay each layer's public call directly with
    /// inputs of the run's own shape, run ladders and probes, and return
    /// the per-layer metrics that are not already in [`Rep::sim`].
    fn layers(&mut self, tr: &mut Tracer, ctx: &LayerCtx) -> Values;
}

/// Registry entry for a workload.
pub struct WorkloadInfo {
    /// Stable name.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Input generation + construction + oracle run + one warm-up
    /// repetition: everything `setup_s` times.
    pub setup: fn(u64, &mut Tracer) -> Box<dyn Workload>,
    /// Canonical text of every constant of the workload (seed excluded),
    /// hashed into the context block so result files from different
    /// constants are never compared.
    pub constants: fn() -> String,
}

/// The registry, in the order `--all` runs it.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "svc-matrix",
        why: "Full-MPI matrix engine through the real service on 2 shard threads: simt-sim is ~97 % of host time, so simulator speed-ups must show here; the ladder exposes the capacity knee.",
        setup: |seed, tr| Box::new(service::ServiceWorkload::setup(&service::SVC_MATRIX, seed, tr)),
        constants: || service::SVC_MATRIX.constants(),
    },
    WorkloadInfo {
        name: "svc-hash",
        why: "Most-relaxed engine, 4 shards merged on one thread: ~0.5 us host per message, the largest share service/scheduler/metrics code ever gets; near-bypass for simulator-kernel changes.",
        setup: |seed, tr| Box::new(service::ServiceWorkload::setup(&service::SVC_HASH, seed, tr)),
        constants: || service::SVC_HASH.constants(),
    },
    WorkloadInfo {
        name: "svc-faulted",
        why: "Same service under tenancy, live resharding and a soup of all five fault kinds: checkpoints, journal replay, failover, fencing, migration; a fast-path gain that taxes recovery shows here.",
        setup: |seed, tr| Box::new(service::ServiceWorkload::setup(&service::SVC_FAULTED, seed, tr)),
        constants: || service::SVC_FAULTED.constants(),
    },
    WorkloadInfo {
        name: "domain-fabric",
        why: "8-rank all-to-all over a lossy, reordering simulated wire: fabric event loop, reorder buffer and domain do ~90 % of the work, the simulator ~10 %; the bypass control for simulator changes.",
        setup: |seed, tr| Box::new(domain_fabric::DomainFabric::setup(seed, tr)),
        constants: domain_fabric::constants,
    },
    WorkloadInfo {
        name: "match-unexpected",
        why: "2048 unexpected messages, then 2048 mostly fruitless receives on the matrix engine: deep UMQ, iterative launches; prefilter, compaction and probe dedup do the work. Native list matchers are oracle.",
        setup: |seed, tr| Box::new(match_unexpected::MatchUnexpected::setup(seed, tr)),
        constants: match_unexpected::constants,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}
