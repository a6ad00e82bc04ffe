//! Sustained-operation model of the resident communication kernel.
//!
//! The paper's motivation is *message rate*: "due to their highly
//! parallel nature, GPUs could be expected to exchange significantly more
//! messages than CPUs … the matching of messages becomes a major limiter
//! for high message rates." This module turns the batch matching rates
//! into an operational statement: a communication kernel servicing a
//! continuous arrival stream, with the queue dynamics that implies.
//!
//! [`ShardedMatchService`] is the one model: N shards, each owning a
//! persistent [`Gpu`] (one communication SM's worth of matching
//! capacity) and a bounded pending queue; `shards: 1` is the single
//! resident kernel with one queue. Traffic is keyed to shards by
//! [`msg_match::ShardPlacement`] (communicator + source-rank range),
//! each shard's engine is pinned at placement time via
//! [`msg_match::MatchEngine`], and admission control spills arrivals
//! that find the shard's queue full. Per-shard counters and histograms
//! land in a [`crate::metrics::ServiceMetrics`] snapshot.
//!
//! The model runs in *simulated device time*: messages (with matching
//! pre-posted receives) arrive at a configured rate; whenever enough
//! work is pending the kernel matches a batch of up to `max_batch`
//! entries, which occupies the device for the simulated duration the
//! matcher reports; arrivals accumulate meanwhile. Below saturation the
//! queue stays bounded; past the matcher's rate ceiling it grows (or
//! spills) without bound — the report flags it.
//!
//! The service additionally survives *shard failures*. With a
//! [`FaultTolerance`] attached, a [`FaultPlan`] injects crashes, hangs
//! and slow windows at simulated-time points; each shard periodically
//! checkpoints its stream watermarks and journals admitted arrivals
//! ([`crate::recovery`]), so a crashed shard restarts a fresh device,
//! restores the snapshot and replays the journal with duplicate
//! suppression — the committed match set is byte-identical to a
//! fault-free run (exactly-once delivery). A [`Supervisor`] drives
//! health checks on the same clock, failing a down shard's streams over
//! to the healthiest peer via [`ShardPlacement::redirect`] and shedding
//! deadline-expired work under sustained overload.

use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::fault::FaultPlan;
use crate::metrics::{OverflowStats, SchedulerProfile, ServiceMetrics, ShardWallProfile};
use crate::recovery::RecoveryConfig;
use crate::sched::{self, Scheduler};
use crate::supervisor::SupervisorConfig;

/// Which matching engine the service kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEngine {
    /// Fully compliant matrix matching.
    Matrix,
    /// Rank-partitioned with this many queues.
    Partitioned(usize),
    /// Two-level hash (no ordering).
    Hash,
}

impl ServiceEngine {
    fn choice(self) -> EngineChoice {
        match self {
            ServiceEngine::Matrix => EngineChoice::Matrix,
            ServiceEngine::Partitioned(queues) => EngineChoice::Partitioned { queues },
            ServiceEngine::Hash => EngineChoice::Hash,
        }
    }
}

/// Display form of an engine choice, used in metrics snapshots.
pub fn engine_label(choice: EngineChoice) -> String {
    match choice {
        EngineChoice::Matrix => "matrix".to_string(),
        EngineChoice::Partitioned { queues } => format!("partitioned({queues})"),
        EngineChoice::Hash => "hash".to_string(),
    }
}

/// Ordering strictness of an engine (matrix preserves everything, hash
/// nothing) — the supervisor falls a failover target back to the
/// *stricter* of its own and the failed shard's engine, so inherited
/// streams keep the ordering their relaxation level promised.
pub(crate) fn strictness(choice: EngineChoice) -> u8 {
    match choice {
        EngineChoice::Matrix => 2,
        EngineChoice::Partitioned { .. } => 1,
        EngineChoice::Hash => 0,
    }
}

/// Aggregate outcome of a service run, summed over its shards.
#[derive(Debug, Clone, Copy)]
pub struct ServiceReport {
    /// Messages matched per second of simulated time.
    pub sustained_rate: f64,
    /// Offered arrivals per second (echoed from the config).
    pub offered_rate: f64,
    /// Mean pending-queue depth sampled at batch boundaries.
    pub mean_depth: f64,
    /// Maximum pending-queue depth observed.
    pub max_depth: usize,
    /// Fraction of device time spent matching (utilisation).
    pub utilisation: f64,
    /// True if the service was in steady-state overload when time ran
    /// out: the backlog was still growing, or admission control was
    /// still spilling in the final stretch of the run.
    pub saturated: bool,
    /// Arrivals the service gave up on (spilled at admission or shed).
    pub overflow: OverflowStats,
    /// Batches executed.
    pub batches: u64,
}

/// How a sharded service picks each shard's engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEnginePolicy {
    /// Pin the same engine on every shard.
    Fixed(ServiceEngine),
    /// Choose per shard, from the traffic sample the shard owns, under
    /// this relaxation level (via [`MatchEngine::choose`]).
    Auto(RelaxationConfig),
}

/// Parameters for the sharded streaming service.
#[derive(Debug, Clone, Copy)]
pub struct ShardedServiceConfig {
    /// Number of shards (each owns a persistent device).
    pub shards: usize,
    /// Aggregate offered load in messages per second of device time.
    pub arrival_rate: f64,
    /// Largest batch a shard matches at once.
    pub max_batch: usize,
    /// A shard aggregates at least this many pending messages before
    /// launching (or fewer when draining the tail).
    pub batch_threshold: usize,
    /// Bounded pending queue per shard: arrivals beyond this backlog
    /// spill to the (unmodelled) slow host path and are only counted.
    pub queue_capacity: usize,
    /// Simulated duration in seconds (arrivals stop at this point).
    pub duration: f64,
    /// Keep servicing after `duration` until every admitted arrival has
    /// committed, every recovery has finished and every failover has
    /// been handed back. Off (the default), the run stops once in-flight
    /// work commits, leaving any backlog unmatched — the right model for
    /// rate measurements. The exactly-once differential tests turn it on
    /// so fault-free and faulty runs complete the same set.
    pub drain: bool,
    /// Per-shard engine policy.
    pub policy: ShardEnginePolicy,
    /// Communicators in the traffic mix.
    pub comms: u16,
    /// Distinct source ranks per communicator.
    pub peers: u32,
    /// Workload seed.
    pub seed: u64,
    /// Record a span timeline per shard. Off by default: the hot path
    /// then holds no recorder and performs no tracing work or allocation.
    pub trace: bool,
    /// Ring capacity (events) of each shard's flight recorder,
    /// preallocated once at build time.
    pub trace_capacity: usize,
    /// Causal flow tracing samples one in this many messages (0 and 1
    /// both mean "every message"). Membership is a pure hash of
    /// `(seed, flow id)` — never arrival order — so the sampled set is
    /// identical across runs and schedulers; 1-in-64 keeps bounded
    /// recorders useful at 10 M msg/s.
    pub flow_sample_every: u32,
    /// How shard domains execute: one merged clock on the calling
    /// thread, or one OS thread per conflict group synchronized at
    /// supervisor barriers. Artefacts are byte-identical either way
    /// (`tests/parallel_differential.rs` pins this); only wall-clock
    /// time differs.
    pub scheduler: Scheduler,
    /// Screen each dispatch batch through counting-digest pre-filters
    /// before launching (see [`msg_match::prefilter`]). Service streams
    /// are self-matching, so in this path the screen never rejects —
    /// artefacts are byte-identical on or off — but the rejection
    /// counter it feeds (`shard_prefilter_rejections_total`) is the
    /// signal an operator watches for mismatched traffic.
    pub prefilter: bool,
}

impl Default for ShardedServiceConfig {
    fn default() -> Self {
        ShardedServiceConfig {
            shards: 4,
            arrival_rate: 4.0e6,
            max_batch: 1024,
            batch_threshold: 256,
            queue_capacity: 1 << 14,
            duration: 0.002,
            drain: false,
            policy: ShardEnginePolicy::Fixed(ServiceEngine::Matrix),
            comms: 1,
            peers: 64,
            seed: 5,
            trace: false,
            trace_capacity: 4096,
            flow_sample_every: 64,
            scheduler: Scheduler::GlobalClock,
            prefilter: true,
        }
    }
}

/// The fault-tolerance stack attached to a [`ShardedMatchService`]:
/// what breaks, how shards recover, and who supervises.
///
/// Carried outside the `Copy` [`ShardedServiceConfig`] (a fault plan
/// owns its event list) and attached via
/// [`ShardedMatchService::set_fault_tolerance`]. With none attached the
/// service pays zero overhead: no checkpoints, no journal bookkeeping
/// beyond watermark counters, no supervisor ticks.
#[derive(Debug, Clone, Default)]
pub struct FaultTolerance {
    /// The deterministic fault schedule ([`FaultPlan::none`] for a
    /// fault-free run that still exercises checkpoints).
    pub plan: FaultPlan,
    /// Checkpoint cadence and recovery costs.
    pub recovery: RecoveryConfig,
    /// Health-check/failover/shedding policy; `None` leaves shards to
    /// recover on their own with no rerouting and no shedding.
    pub supervisor: Option<SupervisorConfig>,
}

/// Outcome of a sharded service run.
#[derive(Debug, Clone)]
pub struct ShardedServiceReport {
    /// Aggregate service-level view.
    pub aggregate: ServiceReport,
    /// Per-shard observability snapshot.
    pub metrics: ServiceMetrics,
    /// Per-stream committed seqs in delivery order, recorded only when
    /// [`ShardedMatchService::set_record_completions`] was turned on —
    /// the artefact the exactly-once differential tests compare.
    pub completions: Option<Vec<Vec<u64>>>,
    /// Wall-clock (host) seconds the run took — *not* deterministic,
    /// kept out of [`ServiceMetrics`] so metric snapshots stay
    /// byte-comparable across schedulers and runs.
    pub wall_seconds: f64,
    /// Dual-clock scheduler profile: per-shard wall-time bucket
    /// decompositions (compute / barrier-wait / backpressure /
    /// supervisor-sync). Wall-clock data, so it also lives outside
    /// [`ServiceMetrics`] and exports to its own Prometheus document.
    pub scheduler_profile: crate::metrics::SchedulerProfile,
}

/// One shard: a persistent device and a pinned engine. The traffic it
/// serves lives in [`ServiceStream`] slots, keyed to shards by
/// [`ShardPlacement`] — so failover and migration move *streams*, never
/// devices.
pub(crate) struct ServiceShard {
    pub(crate) gpu: Gpu,
    pub(crate) choice: EngineChoice,
}

/// One stream slot: an arrival process and the tuple pool it replays.
pub(crate) struct ServiceStream {
    /// The slot's tuple pool, replayed cyclically as its arrivals:
    /// stream entry `seq` carries envelope `msgs[seq % len]`, so message
    /// identity is a pure function of `(stream, seq)` — which is what
    /// makes journal replay (and migration transfer) reproduce the
    /// fault-free matches.
    pub(crate) msgs: Vec<Envelope>,
    /// Share of the aggregate arrival rate this slot receives.
    pub(crate) rate: f64,
    /// Owning tenant id (0 for the implicit single tenant).
    pub(crate) tenant: u32,
    /// QoS admission gate; `None` admits on raw queue capacity.
    pub(crate) qos: Option<crate::tenancy::StreamQos>,
    /// Arrival process shape.
    pub(crate) pattern: crate::tenancy::ArrivalPattern,
}

/// A sharded streaming match service over persistent devices.
///
/// Built once, run many times: [`run`](Self::run) resets all queue,
/// stream, placement and metric state but keeps the shard devices and
/// engine pins, so repeated runs with the same config are bit-identical.
pub struct ShardedMatchService {
    cfg: ShardedServiceConfig,
    placement: ShardPlacement,
    shards: Vec<ServiceShard>,
    streams: Vec<ServiceStream>,
    /// The slot → home-shard map at construction, restored before every
    /// run so live resharding in one run never leaks into the next.
    initial_assignments: Vec<usize>,
    /// Tenancy layer (QoS classes, fill limits, reshard policy);
    /// `None` runs the legacy single-tenant admission path.
    tenancy: Option<crate::tenancy::TenancyConfig>,
    fault_tolerance: Option<FaultTolerance>,
    record_completions: bool,
    /// Coordinator-track recorder for scheduler epoch spans, present
    /// when tracing is on. Kept apart from the shard recorders so the
    /// shard timeline stays byte-identical across schedulers (epoch
    /// grouping legitimately differs between them).
    sched_rec: Option<obs::sync::SharedSpanRecorder>,
    /// Wall-clock trace tracks captured from the last run's profiler
    /// (empty before the first traced run). Exported separately from
    /// the virtual-time documents; see
    /// [`wall_trace_json`](Self::wall_trace_json).
    wall_tracks: Vec<(String, obs::SpanRecorder)>,
}

impl ShardedMatchService {
    /// Build a service with hash placement over `cfg.shards` shards.
    pub fn new(generation: GpuGeneration, cfg: ShardedServiceConfig) -> Self {
        Self::with_placement(generation, cfg, ShardPlacement::hashed(cfg.shards))
    }

    /// Build a service with an explicit placement (rule-keyed by
    /// communicator and rank range; see [`ShardPlacement`]).
    ///
    /// # Panics
    /// Panics if `placement.shards != cfg.shards` or `cfg.shards == 0`.
    pub fn with_placement(
        generation: GpuGeneration,
        cfg: ShardedServiceConfig,
        placement: ShardPlacement,
    ) -> Self {
        assert!(cfg.shards > 0, "a service needs at least one shard");
        assert_eq!(
            placement.shards, cfg.shards,
            "placement shard count must match the config"
        );

        // Traffic sample: per-communicator workloads, interleaved so
        // every batch window sees the full communicator mix.
        let per_comm = (4 * cfg.max_batch / cfg.comms.max(1) as usize).max(64);
        let comm_pools: Vec<Vec<Envelope>> = (0..cfg.comms.max(1))
            .map(|c| {
                WorkloadSpec {
                    len: per_comm,
                    peers: cfg.peers,
                    tags: 1 << 12,
                    comm: c,
                    seed: cfg.seed.wrapping_add(c as u64),
                    ..Default::default()
                }
                .generate()
                .msgs
            })
            .collect();
        let mut sample: Vec<Envelope> = Vec::with_capacity(per_comm * comm_pools.len());
        for i in 0..per_comm {
            for pool in &comm_pools {
                sample.push(pool[i]);
            }
        }

        let sample_reqs: Vec<RecvRequest> = sample
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
            .collect();
        let engine = MatchEngine::default();
        let choices: Vec<EngineChoice> = match cfg.policy {
            ShardEnginePolicy::Fixed(e) => vec![e.choice(); cfg.shards],
            ShardEnginePolicy::Auto(relax) => {
                placement.plan_engines(&engine, relax, &sample, &sample_reqs)
            }
        };

        let parts = placement.split(&sample, &sample_reqs);
        let total = sample.len() as f64;
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut streams = Vec::with_capacity(cfg.shards);
        for (idx, ((msg_ids, _), choice)) in parts.into_iter().zip(choices).enumerate() {
            let msgs: Vec<Envelope> = msg_ids.iter().map(|&i| sample[i as usize]).collect();
            let rate = cfg.arrival_rate * msgs.len() as f64 / total;
            let mut gpu = Gpu::new(generation);
            if cfg.trace {
                gpu.enable_tracing(obs::tracks::shard(idx), cfg.trace_capacity);
            }
            shards.push(ServiceShard { gpu, choice });
            // One stream slot per shard, homed 1:1 — the legacy shape.
            streams.push(ServiceStream {
                msgs,
                rate,
                tenant: 0,
                qos: None,
                pattern: crate::tenancy::ArrivalPattern::Uniform,
            });
        }

        let initial_assignments: Vec<usize> = (0..placement.slots())
            .map(|j| placement.home_of_slot(j))
            .collect();
        let sched_rec = cfg.trace.then(|| {
            obs::sync::SharedSpanRecorder::new(obs::tracks::COORDINATOR, cfg.trace_capacity)
        });
        ShardedMatchService {
            cfg,
            placement,
            shards,
            streams,
            initial_assignments,
            tenancy: None,
            fault_tolerance: None,
            record_completions: false,
            sched_rec,
            wall_tracks: Vec::new(),
        }
    }

    /// Build a multi-tenant service: tenant stream slots homed by
    /// [`crate::tenancy::TenancyConfig::assignments`], per-stream QoS
    /// admission, and (optionally) live resharding.
    ///
    /// Each slot carries `1 / streams` of its tenant's share of the
    /// aggregate arrival rate and an even slice of the tenant's
    /// token-bucket quota. Slot workloads are generated per slot with
    /// the tenant id as the communicator, so tenants never share
    /// match-time state — isolation is enforced at admission only.
    ///
    /// # Panics
    /// Panics if the tenancy config is invalid for `cfg.shards`.
    pub fn with_tenancy(
        generation: GpuGeneration,
        cfg: ShardedServiceConfig,
        tenancy: crate::tenancy::TenancyConfig,
    ) -> Self {
        use crate::tenancy::{StreamQos, TokenBucket};
        assert!(cfg.shards > 0, "a service needs at least one shard");
        tenancy.validate(cfg.shards);
        let assignments = tenancy.assignments(cfg.shards);
        let slot_tenants = tenancy.slot_tenants();
        let placement = ShardPlacement::with_assignments(cfg.shards, assignments.clone());
        let total_share = tenancy.total_share();
        let slots = assignments.len();
        let per_slot = (4 * cfg.max_batch / slots.max(1)).max(64);

        // Per-slot pools: tenant id as the communicator keys tenant
        // traffic apart all the way into the match kernels' tuples.
        let mut streams: Vec<ServiceStream> = Vec::with_capacity(slots);
        for (slot, (&tenant, &_home)) in slot_tenants.iter().zip(assignments.iter()).enumerate() {
            let spec = &tenancy.tenants[tenant as usize];
            let msgs = WorkloadSpec {
                len: per_slot,
                peers: cfg.peers,
                tags: 1 << 12,
                comm: tenant as u16,
                seed: cfg.seed.wrapping_add(slot as u64),
                ..Default::default()
            }
            .generate()
            .msgs;
            let streams_n = spec.streams as f64;
            let rate = cfg.arrival_rate * (spec.share / total_share) / streams_n;
            let bucket = (spec.quota_rate > 0.0).then(|| {
                TokenBucket::new(
                    spec.quota_rate / streams_n,
                    (spec.burst / streams_n).max(1.0),
                )
            });
            streams.push(ServiceStream {
                msgs,
                rate,
                tenant,
                qos: Some(StreamQos {
                    class: spec.class,
                    bucket,
                }),
                pattern: spec.pattern,
            });
        }

        // Engine per shard: under `Auto`, chosen from the combined
        // traffic of the slots homed there (matrix when none are).
        let engine = MatchEngine::default();
        let choices: Vec<EngineChoice> = match cfg.policy {
            ShardEnginePolicy::Fixed(e) => vec![e.choice(); cfg.shards],
            ShardEnginePolicy::Auto(relax) => (0..cfg.shards)
                .map(|x| {
                    let msgs: Vec<Envelope> = streams
                        .iter()
                        .zip(assignments.iter())
                        .filter(|(_, &h)| h == x)
                        .flat_map(|(st, _)| st.msgs.iter().copied())
                        .collect();
                    if msgs.is_empty() {
                        return EngineChoice::Matrix;
                    }
                    let reqs: Vec<RecvRequest> = msgs
                        .iter()
                        .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
                        .collect();
                    engine.choose(relax, &msgs, &reqs)
                })
                .collect(),
        };
        let shards = choices
            .into_iter()
            .enumerate()
            .map(|(idx, choice)| {
                let mut gpu = Gpu::new(generation);
                if cfg.trace {
                    gpu.enable_tracing(obs::tracks::shard(idx), cfg.trace_capacity);
                }
                ServiceShard { gpu, choice }
            })
            .collect();

        let sched_rec = cfg.trace.then(|| {
            obs::sync::SharedSpanRecorder::new(obs::tracks::COORDINATOR, cfg.trace_capacity)
        });
        ShardedMatchService {
            cfg,
            placement,
            shards,
            streams,
            initial_assignments: assignments,
            tenancy: Some(tenancy),
            fault_tolerance: None,
            record_completions: false,
            sched_rec,
            wall_tracks: Vec::new(),
        }
    }

    /// Attach (or detach) the fault-tolerance stack. `None` — the
    /// default — runs the legacy fault-free fast path with no
    /// checkpoint or supervisor overhead.
    ///
    /// # Panics
    /// Panics if the plan names a shard the service doesn't have.
    pub fn set_fault_tolerance(&mut self, ft: Option<FaultTolerance>) {
        if let Some(ft) = &ft {
            assert!(
                ft.plan.events().iter().all(|e| e.shard < self.cfg.shards),
                "fault plan names a shard outside the service"
            );
        }
        self.fault_tolerance = ft;
    }

    /// The currently attached fault-tolerance stack.
    pub fn fault_tolerance(&self) -> Option<&FaultTolerance> {
        self.fault_tolerance.as_ref()
    }

    /// Record per-stream committed seqs during runs (differential-test
    /// support; costs one `Vec` push per delivery).
    pub fn set_record_completions(&mut self, on: bool) {
        self.record_completions = on;
    }

    /// Re-pin one shard's engine after construction (test/bench hook
    /// for heterogeneous shard fleets, e.g. to exercise the
    /// supervisor's engine fallback).
    pub fn repin_engine(&mut self, shard: usize, engine: ServiceEngine) {
        self.shards[shard].choice = engine.choice();
    }

    /// The engine pinned on each shard, in shard order.
    pub fn engine_choices(&self) -> Vec<EngineChoice> {
        self.shards.iter().map(|s| s.choice).collect()
    }

    /// The placement keying traffic to shards.
    pub fn placement(&self) -> &ShardPlacement {
        &self.placement
    }

    /// Replace the initial slot→shard assignments — e.g. to replay a
    /// resharded run's *final* placement as a static run for the
    /// byte-equality oracle. Engines are not re-planned; pair with
    /// [`ShardEnginePolicy::Fixed`] when placement feeds engine choice.
    ///
    /// # Panics
    /// Panics on a slot-count mismatch or an out-of-range shard index.
    pub fn set_assignments(&mut self, assignments: Vec<usize>) {
        assert_eq!(
            assignments.len(),
            self.initial_assignments.len(),
            "assignment list must cover every slot"
        );
        assert!(
            assignments.iter().all(|&s| s < self.cfg.shards),
            "assignment names a shard outside the service"
        );
        self.placement = ShardPlacement::with_assignments(self.cfg.shards, assignments.clone());
        self.initial_assignments = assignments;
    }

    /// Export the shards' flight recorders as Chrome `trace_event` JSON
    /// (loadable in Perfetto), one named track per shard.
    ///
    /// `None` unless the service was built with
    /// [`ShardedServiceConfig::trace`] set.
    pub fn trace_json(&self) -> Option<String> {
        let tracks: Vec<(String, &obs::SpanRecorder)> = self
            .shards
            .iter()
            .filter_map(|s| {
                s.gpu.obs.as_ref().map(|rec| {
                    let name = format!("shard {} ({})", rec.track(), engine_label(s.choice));
                    (name, rec)
                })
            })
            .collect();
        if tracks.is_empty() {
            None
        } else {
            Some(obs::perfetto::export(&tracks))
        }
    }

    /// Export the scheduler coordinator's epoch timeline as Chrome
    /// `trace_event` JSON — one span per synchronization epoch with the
    /// conflict-group and thread counts as args.
    ///
    /// Separate from [`trace_json`](Self::trace_json) on purpose: the
    /// shard timeline is a deterministic artefact compared byte-for-byte
    /// across schedulers, while epoch grouping legitimately depends on
    /// the scheduler. `None` unless [`ShardedServiceConfig::trace`] was
    /// set.
    pub fn scheduler_trace_json(&self) -> Option<String> {
        let rec = self.sched_rec.as_ref()?;
        let snap = rec.snapshot();
        let name = format!("scheduler ({:?})", self.cfg.scheduler);
        Some(obs::perfetto::export(&[(name, &snap)]))
    }

    /// Export the last run's wall-clock tracks (one `epoch_wall` span
    /// per shard per scheduler epoch, decomposed into the dual-clock
    /// buckets) as Chrome `trace_event` JSON.
    ///
    /// Wall time is nondeterministic, so this document is never merged
    /// into [`trace_json`](Self::trace_json) — combine them offline
    /// with [`obs::perfetto::merge`] when a side-by-side view is
    /// wanted. `None` unless [`ShardedServiceConfig::trace`] was set
    /// and a run has completed.
    pub fn wall_trace_json(&self) -> Option<String> {
        if self.wall_tracks.is_empty() {
            return None;
        }
        let tracks: Vec<(String, &obs::SpanRecorder)> = self
            .wall_tracks
            .iter()
            .map(|(name, rec)| (name.clone(), rec))
            .collect();
        Some(obs::perfetto::export(&tracks))
    }

    /// Turn on the race sanitizer on every shard device, so service
    /// runs surface cross-warp conflicts in the production kernels.
    pub fn enable_sanitizer(&mut self) {
        for s in self.shards.iter_mut() {
            s.gpu.enable_sanitizer();
        }
    }

    /// All sanitizer findings across shards as `(shard, finding)`
    /// pairs; empty when clean (or when the sanitizer is off).
    pub fn sanitizer_findings(&self) -> Vec<(usize, String)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                s.gpu
                    .sanitizer_findings
                    .iter()
                    .flatten()
                    .map(move |r| (i, r.to_string()))
            })
            .collect()
    }

    /// Simulate `cfg.duration` seconds of service (longer in
    /// [`drain`](ShardedServiceConfig::drain) mode).
    ///
    /// Execution is delegated to [`crate::sched`]: shards advance in
    /// per-shard virtual-time domains — merged on one thread under
    /// [`Scheduler::GlobalClock`], one OS thread per conflict group
    /// under [`Scheduler::ThreadPerShard`] — synchronized at supervisor
    /// barriers. Every simulated artefact is a pure function of the
    /// configuration, the placement and the attached
    /// [`FaultTolerance`], so repeated runs are bit-identical and both
    /// schedulers produce byte-identical metrics, completions and shard
    /// traces; only [`ShardedServiceReport::wall_seconds`] varies.
    pub fn run(&mut self) -> ShardedServiceReport {
        let ShardedMatchService {
            cfg,
            placement,
            shards,
            streams,
            initial_assignments,
            tenancy,
            fault_tolerance,
            record_completions,
            sched_rec,
            wall_tracks,
        } = self;
        let cfg = *cfg;
        let n = shards.len();

        // A clean slate per run keeps repeated runs bit-identical:
        // failover redirects and reshard migrations both roll back.
        placement.set_assignments(initial_assignments.clone());
        for s in 0..n {
            placement.restore(s);
        }
        for shard in shards.iter_mut() {
            if let Some(rec) = shard.gpu.obs.as_mut() {
                rec.reset();
            }
        }
        if let Some(rec) = sched_rec.as_ref() {
            rec.with(|r| r.reset());
        }

        let sampler = obs::FlowSampler::new(cfg.flow_sample_every, cfg.seed);
        let wallprof = if cfg.trace {
            obs::wallprof::WallProfiler::with_trace(n, cfg.trace_capacity)
        } else {
            obs::wallprof::WallProfiler::new(n)
        };

        let knobs = sched::RunKnobs {
            fill: tenancy.as_ref().map(|t| t.fill).unwrap_or_default(),
            reshard: tenancy.as_ref().and_then(|t| t.reshard),
            record_completions: *record_completions,
        };
        let wall_start = std::time::Instant::now();
        let out = sched::run_scheduled(
            &cfg,
            placement,
            shards,
            streams,
            fault_tolerance.as_ref(),
            knobs,
            sched::ObsHooks {
                sched_rec: sched_rec.as_ref(),
                flow_sampler: sampler,
                wallprof: Some(&wallprof),
            },
        );
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        let sched::SchedOutcome {
            mut metrics,
            completions,
            busy,
            last_activity,
            last_spill,
            backlog,
            streams: stream_outcomes,
            migrations,
        } = out;
        *wall_tracks = wallprof.wall_tracks();

        // ---- Finalise per-shard metrics.
        for x in 0..n {
            let m = &mut metrics[x];
            m.busy_seconds = busy[x];
            m.utilisation = if last_activity[x] > 0.0 {
                (busy[x] / last_activity[x]).min(1.0)
            } else {
                0.0
            };
            m.saturated = (backlog[x] > 2 * cfg.max_batch as u64
                && backlog[x] as f64 > 0.05 * m.arrivals as f64)
                || last_spill[x] >= 0.9 * cfg.duration;
            m.ever_spilled = m.overflow.spilled > 0;
            m.trace_dropped = shards[x].gpu.obs.as_ref().map_or(0, |r| r.dropped());
        }

        let scheduler_profile = SchedulerProfile {
            scheduler: match cfg.scheduler {
                Scheduler::GlobalClock => "global_clock".to_string(),
                Scheduler::ThreadPerShard => "thread_per_shard".to_string(),
            },
            wall_seconds,
            shards: (0..n)
                .map(|x| {
                    let s = wallprof.snapshot(x);
                    ShardWallProfile {
                        shard: x,
                        epochs: s.epochs,
                        compute_ns: s.bucket_ns[0],
                        barrier_wait_ns: s.bucket_ns[1],
                        backpressure_ns: s.bucket_ns[2],
                        supervisor_sync_ns: s.bucket_ns[3],
                        total_ns: s.total_ns,
                    }
                })
                .collect(),
        };

        let elapsed = last_activity
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
            .max(f64::MIN_POSITIVE);
        let total_matched: u64 = metrics.iter().map(|m| m.matched).sum();
        let mut overflow = OverflowStats::default();
        for m in &metrics {
            overflow.merge(&m.overflow);
        }
        let aggregate = ServiceReport {
            sustained_rate: total_matched as f64 / elapsed,
            offered_rate: cfg.arrival_rate,
            mean_depth: {
                let (sum, count) = metrics.iter().fold((0.0, 0u64), |(s, c), m| {
                    (s + m.queue_depth.sum, c + m.queue_depth.count)
                });
                sum / count.max(1) as f64
            },
            max_depth: metrics
                .iter()
                .map(|m| m.queue_depth.max as usize)
                .max()
                .unwrap_or(0),
            utilisation: metrics.iter().map(|m| m.utilisation).sum::<f64>() / n as f64,
            saturated: metrics.iter().any(|m| m.saturated),
            overflow,
            batches: metrics.iter().map(|m| m.batches).sum(),
        };
        let mut service_metrics =
            ServiceMetrics::from_shards(cfg.duration, cfg.arrival_rate, elapsed, metrics);
        let (done_migrations, aborted_migrations) = migrations;
        service_metrics.total_migrations = done_migrations;
        service_metrics.aborted_migrations = aborted_migrations;
        if let Some(tc) = tenancy.as_ref() {
            let mut tenants: Vec<crate::metrics::TenantMetrics> = tc
                .tenants
                .iter()
                .enumerate()
                .map(|(id, spec)| crate::metrics::TenantMetrics {
                    tenant: id as u32,
                    name: spec.name.clone(),
                    class: spec.class.label().to_string(),
                    streams: spec.streams as u64,
                    arrivals: 0,
                    admitted: 0,
                    matched: 0,
                    overflow: OverflowStats::default(),
                })
                .collect();
            for so in &stream_outcomes {
                let t = &mut tenants[so.tenant as usize];
                t.arrivals += so.arrivals;
                t.admitted += so.admitted;
                t.matched += so.matched;
                t.overflow.spilled += so.spilled;
                t.overflow.shed += so.shed;
            }
            service_metrics.tenants = tenants;
        }
        ShardedServiceReport {
            aggregate,
            metrics: service_metrics,
            completions,
            wall_seconds,
            scheduler_profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind, FaultRates};

    const GEN: GpuGeneration = GpuGeneration::PascalGtx1080;

    fn run(cfg: ShardedServiceConfig) -> ShardedServiceReport {
        ShardedMatchService::new(GEN, cfg).run()
    }

    /// One shard, one queue: the single resident communication kernel.
    fn single(rate: f64, engine: ServiceEngine) -> ServiceReport {
        run(ShardedServiceConfig {
            shards: 1,
            arrival_rate: rate,
            duration: 0.004,
            policy: ShardEnginePolicy::Fixed(engine),
            ..Default::default()
        })
        .aggregate
    }

    #[test]
    fn below_saturation_the_queue_stays_bounded() {
        // 1 M msgs/s against a ~4.7 M/s matrix matcher: comfortable.
        let r = single(1.0e6, ServiceEngine::Matrix);
        assert!(!r.saturated, "{r:?}");
        assert!(r.utilisation < 0.75, "utilisation {}", r.utilisation);
        assert!((r.sustained_rate - 1.0e6).abs() / 1.0e6 < 0.15, "{r:?}");
        assert_eq!(r.overflow.total(), 0, "no overload, no overflow");
    }

    #[test]
    fn past_saturation_the_backlog_grows() {
        // 20 M msgs/s against the compliant matcher: hopeless.
        let r = single(20.0e6, ServiceEngine::Matrix);
        assert!(r.saturated, "{r:?}");
        assert!(r.utilisation > 0.95, "the kernel must be pegged: {r:?}");
        // The sustained rate caps at the matcher's ceiling.
        assert!(r.sustained_rate < 8.0e6, "{r:?}");
        // With a bounded queue the overload spills instead of growing
        // the backlog without bound.
        assert!(r.overflow.spilled > 0, "{r:?}");
        assert!(r.max_depth <= 1 << 14, "{r:?}");
    }

    #[test]
    fn relaxed_engines_raise_the_ceiling() {
        // The same 20 M msgs/s the matrix matcher drowned under is easy
        // for the hash engine.
        let r = single(20.0e6, ServiceEngine::Hash);
        assert!(!r.saturated, "{r:?}");
        // And partitioning lands in between.
        let p = single(20.0e6, ServiceEngine::Partitioned(16));
        assert!(!p.saturated, "{p:?}");
    }

    #[test]
    fn utilisation_tracks_offered_load() {
        let lo = single(0.5e6, ServiceEngine::Matrix);
        let hi = single(3.0e6, ServiceEngine::Matrix);
        assert!(
            hi.utilisation > lo.utilisation * 2.0,
            "lo {} hi {}",
            lo.utilisation,
            hi.utilisation
        );
    }

    #[test]
    fn batches_fall_as_the_batch_threshold_rises() {
        // The aggregation threshold trades queueing delay against
        // per-launch efficiency: waiting for more work means fewer,
        // fuller launches for the same traffic.
        let batches = |batch_threshold| {
            run(ShardedServiceConfig {
                batch_threshold,
                ..sharded_cfg(1, 2.0e6)
            })
            .aggregate
            .batches
        };
        assert!(
            batches(32) > batches(512),
            "bigger threshold, fewer batches"
        );
    }

    fn sharded_cfg(shards: usize, rate: f64) -> ShardedServiceConfig {
        ShardedServiceConfig {
            shards,
            arrival_rate: rate,
            duration: 0.002,
            ..Default::default()
        }
    }

    #[test]
    fn sharding_raises_the_matrix_ceiling() {
        // 10 M msgs/s drowns one matrix kernel; four shards split the
        // stream into sustainable quarters.
        let one = run(sharded_cfg(1, 10.0e6));
        let four = run(sharded_cfg(4, 10.0e6));
        assert!(one.aggregate.saturated, "{:?}", one.aggregate);
        assert!(!four.aggregate.saturated, "{:?}", four.aggregate);
        assert!(
            four.aggregate.sustained_rate > one.aggregate.sustained_rate,
            "4 shards {} vs 1 shard {}",
            four.aggregate.sustained_rate,
            one.aggregate.sustained_rate
        );
    }

    #[test]
    fn admission_control_spills_rather_than_growing_without_bound() {
        let r = run(ShardedServiceConfig {
            queue_capacity: 2048,
            ..sharded_cfg(1, 30.0e6)
        });
        let shard = &r.metrics.shards[0];
        assert!(shard.overflow.spilled > 0, "overload must spill: {shard:?}");
        assert!(shard.ever_spilled);
        assert!(shard.saturated);
        assert!(
            shard.queue_depth.max as usize <= 2048,
            "bounded queue exceeded: {}",
            shard.queue_depth.max
        );
        assert_eq!(
            shard.admitted + shard.overflow.spilled,
            shard.arrivals,
            "admission accounting must balance"
        );
        assert_eq!(shard.overflow.shed, 0, "no supervisor, nothing shed");
    }

    #[test]
    fn auto_policy_pins_relaxed_engines_per_shard() {
        let svc = ShardedMatchService::new(
            GpuGeneration::PascalGtx1080,
            ShardedServiceConfig {
                policy: ShardEnginePolicy::Auto(RelaxationConfig::UNORDERED),
                comms: 2,
                ..sharded_cfg(4, 4.0e6)
            },
        );
        let choices = svc.engine_choices();
        assert_eq!(choices.len(), 4);
        assert!(
            choices.iter().all(|c| *c != EngineChoice::Matrix),
            "unordered traffic should pin relaxed engines: {choices:?}"
        );
    }

    #[test]
    fn tracing_is_deterministic_and_off_by_default() {
        let base = sharded_cfg(2, 2.0e6);
        let mut untraced = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        untraced.run();
        assert!(
            untraced.trace_json().is_none(),
            "no recorders exist unless tracing was requested"
        );

        let traced_cfg = ShardedServiceConfig {
            trace: true,
            ..base
        };
        let mut a = ShardedMatchService::new(GpuGeneration::PascalGtx1080, traced_cfg);
        let ra = a.run();
        let ja = a.trace_json().expect("tracing was enabled");
        let mut b = ShardedMatchService::new(GpuGeneration::PascalGtx1080, traced_cfg);
        b.run();
        assert_eq!(ja, b.trace_json().unwrap(), "same seed, same bytes");
        a.run();
        assert_eq!(
            ja,
            a.trace_json().unwrap(),
            "recorders reset per run, so repeated runs export identically"
        );
        for cat in ["batch_admission", "match", "kernel_launch", "timing_replay"] {
            assert!(ja.contains(&format!("\"cat\":\"{cat}\"")), "missing {cat}");
        }
        for s in &ra.metrics.shards {
            assert!(s.profile.launches > 0, "{s:?}");
            assert_eq!(
                s.profile.stall_total(),
                s.profile.cycles,
                "stall rollup must partition the shard's cycles"
            );
        }
    }

    #[test]
    fn spills_appear_in_the_trace() {
        let r = ShardedServiceConfig {
            queue_capacity: 2048,
            trace: true,
            ..sharded_cfg(1, 30.0e6)
        };
        let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, r);
        let report = svc.run();
        assert!(report.metrics.shards[0].overflow.spilled > 0);
        let json = svc.trace_json().unwrap();
        assert!(json.contains("\"cat\":\"spill\""));
    }

    #[test]
    fn shard_metrics_balance_their_counters() {
        let r = run(ShardedServiceConfig {
            comms: 3,
            ..sharded_cfg(3, 3.0e6)
        });
        for s in &r.metrics.shards {
            assert!(s.matched <= s.admitted, "{s:?}");
            assert_eq!(s.batches, s.batch_size.count, "{s:?}");
            assert_eq!(s.batches, s.service_time.count, "{s:?}");
            assert_eq!(s.matched, s.match_latency.count, "{s:?}");
        }
        let matched: u64 = r.metrics.shards.iter().map(|s| s.matched).sum();
        assert_eq!(matched, r.metrics.total_matched);
    }

    // ---- Fault tolerance ----

    fn ft_cfg(shards: usize, rate: f64) -> ShardedServiceConfig {
        ShardedServiceConfig {
            queue_capacity: 1 << 20,
            drain: true,
            ..sharded_cfg(shards, rate)
        }
    }

    fn crash_at(shard: usize, at: f64) -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            at,
            shard,
            kind: FaultKind::Crash,
        }])
    }

    #[test]
    fn crashes_recover_and_preserve_exactly_once() {
        let base = ft_cfg(2, 4.0e6);
        // Fault-free baseline: what a perfect run commits.
        let mut clean = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        clean.set_record_completions(true);
        let want = clean.run().completions.unwrap();

        // Same service, shard 0 crashes mid-run.
        let mut faulty = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        faulty.set_record_completions(true);
        faulty.set_fault_tolerance(Some(FaultTolerance {
            plan: crash_at(0, 0.6e-3),
            recovery: RecoveryConfig::default(),
            supervisor: None,
        }));
        let r = faulty.run();
        let got = r.completions.unwrap();

        assert_eq!(got, want, "post-recovery matches must equal fault-free");
        let s0 = &r.metrics.shards[0];
        assert_eq!(s0.crashes, 1);
        assert_eq!(s0.recoveries, 1);
        assert!(s0.journal_replayed > 0, "{s0:?}");
        assert!(
            s0.replay_duplicates > 0,
            "committed-but-journaled entries must be re-matched and suppressed: {s0:?}"
        );
        assert_eq!(s0.recovery_seconds.count, 1);
        assert!(
            s0.recovery_seconds.min >= RecoveryConfig::default().restart_latency,
            "recovery cannot beat the restart latency: {}",
            s0.recovery_seconds.min
        );
        assert_eq!(r.metrics.total_crashes, 1);
        assert_eq!(r.metrics.total_recoveries, 1);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let build = || {
            let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, ft_cfg(3, 5.0e6));
            svc.set_record_completions(true);
            svc.set_fault_tolerance(Some(FaultTolerance {
                plan: FaultPlan::random(
                    13,
                    3,
                    0.002,
                    &FaultRates {
                        crash_rate: 1000.0,
                        hang_rate: 500.0,
                        ..Default::default()
                    },
                ),
                recovery: RecoveryConfig::default(),
                supervisor: Some(SupervisorConfig::default()),
            }));
            svc
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.metrics, b.metrics, "same plan, same metrics, bit for bit");
    }

    #[test]
    fn supervisor_fails_over_and_hands_back() {
        let base = ShardedServiceConfig {
            trace: true,
            ..ft_cfg(2, 4.0e6)
        };
        let mut clean = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        clean.set_record_completions(true);
        clean.repin_engine(0, ServiceEngine::Matrix);
        clean.repin_engine(1, ServiceEngine::Hash);
        let want = clean.run().completions.unwrap();

        let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        svc.set_record_completions(true);
        // Shard 0 promises full ordering; its failover target is the
        // relaxed hash shard, forcing an engine fallback.
        svc.repin_engine(0, ServiceEngine::Matrix);
        svc.repin_engine(1, ServiceEngine::Hash);
        svc.set_fault_tolerance(Some(FaultTolerance {
            plan: FaultPlan::new(vec![FaultEvent {
                at: 0.3e-3,
                shard: 0,
                kind: FaultKind::Hang { seconds: 500e-6 },
            }]),
            recovery: RecoveryConfig::default(),
            supervisor: Some(SupervisorConfig::default()),
        }));
        let r = svc.run();

        let (s0, s1) = (&r.metrics.shards[0], &r.metrics.shards[1]);
        assert_eq!(s0.hangs, 1);
        assert_eq!(s0.failovers_out, 1, "{s0:?}");
        assert_eq!(s1.failovers_in, 1, "{s1:?}");
        assert!(s1.transferred_in > 0, "{s1:?}");
        assert_eq!(
            s1.engine_fallbacks, 1,
            "hash target must adopt the matrix stream's discipline: {s1:?}"
        );
        assert_eq!(r.metrics.total_failovers, 1);
        assert_eq!(
            svc.placement().target_of(0),
            0,
            "the stream must be handed back once shard 0 is up"
        );
        assert_eq!(
            r.completions.unwrap(),
            want,
            "failover must not duplicate or lose a single match"
        );
        let json = svc.trace_json().unwrap();
        assert!(json.contains("\"cat\":\"failover\""));
        assert!(json.contains("\"name\":\"handback\""));
    }

    #[test]
    fn hung_shard_returning_late_is_fenced_under_both_schedulers() {
        // Hang-then-return: shard 0 hangs mid-batch for longer than the
        // failover grace period, so its streams move to shard 1 under a
        // bumped epoch while the stuck batch is still on its device.
        // When the hang ends the batch commits late — every entry now
        // carries a stale epoch and must be rejected at the commit
        // point, not double-committed against the stand-in. The offered
        // rate outruns the two shards so they are continuously busy and
        // the hang is guaranteed to catch a batch on the device.
        let base = ft_cfg(2, 16.0e6);
        let mut clean = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        clean.set_record_completions(true);
        let want = clean.run().completions.unwrap();

        let fence_run = |scheduler: Scheduler| {
            let mut svc = ShardedMatchService::new(
                GpuGeneration::PascalGtx1080,
                ShardedServiceConfig { scheduler, ..base },
            );
            svc.set_record_completions(true);
            svc.set_fault_tolerance(Some(FaultTolerance {
                plan: FaultPlan::new(vec![FaultEvent {
                    at: 0.3e-3,
                    shard: 0,
                    kind: FaultKind::Hang { seconds: 600e-6 },
                }]),
                recovery: RecoveryConfig::default(),
                supervisor: Some(SupervisorConfig::default()),
            }));
            svc.run()
        };
        let a = fence_run(Scheduler::GlobalClock);
        let s0 = &a.metrics.shards[0];
        assert_eq!(s0.failovers_out, 1, "{s0:?}");
        assert!(
            s0.fenced_commits > 0,
            "the returning shard's stale batch must be fenced: {s0:?}"
        );
        assert_eq!(
            a.completions.as_ref().unwrap(),
            &want,
            "fencing must neither lose nor duplicate a match"
        );
        let b = fence_run(Scheduler::ThreadPerShard);
        assert_eq!(a.completions, b.completions);
        assert_eq!(
            a.metrics, b.metrics,
            "fenced runs must be byte-identical across schedulers"
        );
    }

    #[test]
    fn partitioned_shard_fails_over_and_heals_without_loss() {
        let base = ShardedServiceConfig {
            trace: true,
            ..ft_cfg(2, 4.0e6)
        };
        let mut clean = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        clean.set_record_completions(true);
        let want = clean.run().completions.unwrap();

        let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        svc.set_record_completions(true);
        svc.set_fault_tolerance(Some(FaultTolerance {
            plan: FaultPlan::new(vec![FaultEvent {
                at: 0.3e-3,
                shard: 0,
                kind: FaultKind::Partition { seconds: 600e-6 },
            }]),
            recovery: RecoveryConfig::default(),
            supervisor: Some(SupervisorConfig::default()),
        }));
        let r = svc.run();

        let (s0, s1) = (&r.metrics.shards[0], &r.metrics.shards[1]);
        assert_eq!(s0.partitions, 1, "{s0:?}");
        assert_eq!(s0.crashes, 0, "a partition is not a crash: {s0:?}");
        assert_eq!(s0.hangs, 0);
        assert_eq!(
            s0.failovers_out, 1,
            "a sustained partition fails the shard's streams over: {s0:?}"
        );
        assert_eq!(s1.failovers_in, 1, "{s1:?}");
        assert!(s1.transferred_in > 0, "{s1:?}");
        assert_eq!(
            svc.placement().target_of(0),
            0,
            "the stream must be handed back once the partition heals"
        );
        assert_eq!(
            r.completions.unwrap(),
            want,
            "a partition plus failover must not lose or duplicate a match"
        );
        let json = svc.trace_json().unwrap();
        assert!(json.contains("\"cat\":\"partition\""));
        assert!(json.contains("\"name\":\"handback\""));
    }

    #[test]
    fn corrupt_checkpoints_fall_back_a_generation_at_restore() {
        let base = ShardedServiceConfig {
            trace: true,
            ..ft_cfg(2, 4.0e6)
        };
        let mut clean = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        clean.set_record_completions(true);
        let want = clean.run().completions.unwrap();

        // Corrupt shard 0's newest snapshots, then crash it: restore
        // must skip the corrupt generation, start from an older valid
        // snapshot and replay the longer journal window it kept.
        let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        svc.set_record_completions(true);
        svc.set_fault_tolerance(Some(FaultTolerance {
            plan: FaultPlan::new(vec![
                FaultEvent {
                    at: 0.55e-3,
                    shard: 0,
                    kind: FaultKind::CorruptCheckpoint,
                },
                FaultEvent {
                    at: 0.6e-3,
                    shard: 0,
                    kind: FaultKind::Crash,
                },
            ]),
            recovery: RecoveryConfig::default(),
            supervisor: None,
        }));
        let r = svc.run();

        let s0 = &r.metrics.shards[0];
        assert!(s0.corrupt_checkpoints > 0, "{s0:?}");
        assert_eq!(s0.crashes, 1);
        assert_eq!(s0.recoveries, 1);
        assert!(
            s0.snapshot_fallbacks > 0,
            "restore must skip the corrupted generation: {s0:?}"
        );
        assert_eq!(
            r.completions.unwrap(),
            want,
            "fallback restore still converges on the fault-free matches"
        );
        let json = svc.trace_json().unwrap();
        assert!(json.contains("\"name\":\"checkpoint_corruption\""));
    }

    #[test]
    fn overloaded_shards_shed_past_the_deadline() {
        let mut svc = ShardedMatchService::new(
            GpuGeneration::PascalGtx1080,
            ShardedServiceConfig {
                queue_capacity: 2048,
                trace: true,
                ..sharded_cfg(1, 30.0e6)
            },
        );
        svc.set_fault_tolerance(Some(FaultTolerance {
            plan: FaultPlan::none(),
            recovery: RecoveryConfig::default(),
            supervisor: Some(SupervisorConfig {
                shed_deadline: 150e-6,
                overload_checks: 2,
                ..Default::default()
            }),
        }));
        let r = svc.run();
        let s = &r.metrics.shards[0];
        assert!(s.overflow.shed > 0, "sustained overload must shed: {s:?}");
        assert!(
            s.overflow.spilled > 0,
            "shedding does not replace admission spill: {s:?}"
        );
        assert_eq!(r.metrics.total_shed, s.overflow.shed);
        let json = svc.trace_json().unwrap();
        assert!(json.contains("\"cat\":\"shed\""));
    }

    #[test]
    fn checkpoints_cost_little_when_nothing_crashes() {
        let base = ft_cfg(2, 4.0e6);
        let mut plain = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        let r_plain = plain.run();
        let mut ckpt = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        ckpt.set_fault_tolerance(Some(FaultTolerance::default()));
        let r_ckpt = ckpt.run();
        assert!(
            r_ckpt.metrics.shards.iter().all(|s| s.checkpoints > 0),
            "every live shard must checkpoint"
        );
        assert_eq!(
            r_ckpt.metrics.total_matched, r_plain.metrics.total_matched,
            "a crash-free drain matches exactly the same set"
        );
        let (a, b) = (
            r_plain.aggregate.sustained_rate,
            r_ckpt.aggregate.sustained_rate,
        );
        assert!(
            (a - b).abs() / a < 0.05,
            "checkpointing should cost a few percent at most: {a} vs {b}"
        );
    }

    #[test]
    fn slow_shards_lose_throughput_but_nothing_else() {
        let base = sharded_cfg(1, 4.0e6);
        let clean = run(base);
        let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, base);
        svc.set_fault_tolerance(Some(FaultTolerance {
            plan: FaultPlan::new(vec![FaultEvent {
                at: 0.2e-3,
                shard: 0,
                kind: FaultKind::Slow {
                    factor: 4.0,
                    seconds: 1.0e-3,
                },
            }]),
            recovery: RecoveryConfig::default(),
            supervisor: None,
        }));
        let slow = svc.run();
        assert!(
            slow.metrics.total_matched < clean.metrics.total_matched,
            "a 4x slow window must cost throughput: {} vs {}",
            slow.metrics.total_matched,
            clean.metrics.total_matched
        );
        assert_eq!(slow.metrics.total_crashes, 0);
        assert_eq!(slow.metrics.shards[0].overflow.shed, 0);
    }

    #[test]
    fn fault_spans_land_in_the_trace() {
        let mut svc = ShardedMatchService::new(
            GpuGeneration::PascalGtx1080,
            ShardedServiceConfig {
                trace: true,
                ..ft_cfg(2, 4.0e6)
            },
        );
        svc.set_fault_tolerance(Some(FaultTolerance {
            plan: crash_at(1, 0.5e-3),
            recovery: RecoveryConfig::default(),
            supervisor: None,
        }));
        svc.run();
        let json = svc.trace_json().unwrap();
        for cat in ["crash", "recovery", "checkpoint"] {
            assert!(
                json.contains(&format!("\"cat\":\"{cat}\"")),
                "missing {cat}"
            );
        }
    }
}
