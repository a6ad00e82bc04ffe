//! Observability for the streaming match service: per-shard counters and
//! histograms, serializable to JSON so a run can be persisted and
//! tooling can diff runs.
//!
//! Histograms use power-of-two buckets over an integer unit chosen per
//! histogram (messages for sizes/depths, nanoseconds for times), so
//! recording is O(1), memory is fixed, and two runs of the same
//! simulation produce bit-identical snapshots — which the determinism
//! tests rely on.
//!
//! Every exported Prometheus family is declared once, in the family
//! tables at the end of this module (name, kind, help, labels,
//! accessor); the expositions and the family table of `docs/SERVICE.md`
//! are both rendered from them.

use obs::prom::{Family, FamilyKind, HistogramSample, Sample};
use serde::Serialize;

/// Number of power-of-two buckets: bucket `k` holds values `v` with
/// `floor(log2(v)) == k - 1` (bucket 0 holds `v == 0`), covering the
/// full `u64` range.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed-size log₂ histogram with exact count/sum/min/max sidecars.
///
/// Values are `f64` in the caller's unit; `scale` converts them to the
/// integer unit actually bucketed (e.g. `1e9` records seconds as
/// nanoseconds). Quantiles interpolate linearly inside a bucket, so they
/// are estimates with at most a 2× bucket-width error — adequate for
/// p50/p99 dashboards, not for timing claims.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// Caller-unit → bucketed-integer-unit multiplier.
    pub(crate) scale: f64,
    /// Per-bucket counts; index is `1 + floor(log2(units))`, 0 for zero.
    pub(crate) counts: Vec<u64>,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded values (caller units).
    pub(crate) sum: f64,
    /// Smallest recorded value (caller units; 0 when empty).
    pub(crate) min: f64,
    /// Largest recorded value (caller units; 0 when empty).
    pub(crate) max: f64,
}

impl Histogram {
    /// Empty histogram bucketing `value * scale` as integer units.
    pub fn new(scale: f64) -> Self {
        Histogram {
            scale,
            counts: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Record one value (caller units; negative values clamp to 0).
    pub(crate) fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let units = (v * self.scale).round() as u64;
        let bucket = if units == 0 {
            0
        } else {
            64 - units.leading_zeros() as usize
        };
        self.counts[bucket] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Fold another histogram into this one (bucket-wise; both sides
    /// must use the same `scale`).
    ///
    /// Merging is commutative and associative up to `f64` rounding of
    /// `sum`, so folding per-shard histograms in shard-id order yields
    /// one canonical aggregate no matter which thread finished first.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(
            self.scale.to_bits(),
            other.scale.to_bits(),
            "merging histograms with different scales"
        );
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    #[cfg(test)]
    /// Mean of recorded values (caller units; 0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`) in caller units.
    ///
    /// Exact at the edges: an empty histogram reports 0, `q <= 0`
    /// reports the minimum, `q >= 1` the maximum, and a single sample is
    /// returned as recorded. Interior quantiles interpolate inside their
    /// bucket (clamped to the observed range).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 || self.count == 1 {
            return self.max;
        }
        let rank = (q * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c > rank {
                if k == 0 {
                    return 0.0;
                }
                // Interpolate inside [2^(k-1), 2^k) by rank position.
                let lo = (1u64 << (k - 1)) as f64;
                let width = lo; // bucket spans one octave
                let frac = (rank - seen) as f64 / c as f64;
                let units = lo + width * frac;
                return (units / self.scale).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median estimate (caller units).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate (caller units).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Cumulative Prometheus bucket view: `(le, cumulative count)` pairs
    /// in caller units, trimmed to the highest occupied bucket. Bucket
    /// `k >= 1` holds integer units in `[2^(k-1), 2^k - 1]`, so its
    /// inclusive upper bound is `(2^k - 1) / scale`; the zero bucket's
    /// bound is 0. The `+Inf` bucket is implied by
    /// [`count`](Self::count).
    pub(crate) fn prom_buckets(&self) -> Vec<(f64, u64)> {
        let Some(hi) = self.counts.iter().rposition(|&c| c != 0) else {
            return Vec::new();
        };
        let mut cum = 0u64;
        (0..=hi)
            .map(|k| {
                cum += self.counts[k];
                let le = if k == 0 {
                    0.0
                } else {
                    ((1u128 << k) - 1) as f64 / self.scale
                };
                (le, cum)
            })
            .collect()
    }
}

impl Default for Histogram {
    /// An empty histogram of whole units (`scale` 1).
    fn default() -> Self {
        Histogram::new(1.0)
    }
}

/// Shared overflow accounting for every service model: arrivals the
/// service accepted responsibility for but did not match.
///
/// The two counters are deliberately distinct. `spilled` is *admission
/// control*: the bounded pending queue was full, so the arrival was
/// rejected at the door (the unmodelled slow host path takes it).
/// `shed` is *graceful degradation*: the supervisor dropped an admitted
/// — and journaled — arrival oldest-first because it could no longer
/// meet the service deadline, or tenancy admission rejected an arrival
/// over its tenant's quota. Conflating them hides whether a deployment
/// is under-provisioned (spill) or failing its latency SLO under faults
/// (shed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OverflowStats {
    /// Arrivals rejected because the pending queue was at capacity.
    pub spilled: u64,
    /// Arrivals shed past the deadline or over a tenant quota.
    pub shed: u64,
}

impl OverflowStats {
    /// Total messages the service gave up on.
    pub fn total(&self) -> u64 {
        self.spilled + self.shed
    }

    /// Fold another accounting into this one.
    pub fn merge(&mut self, other: &OverflowStats) {
        self.spilled += other.spilled;
        self.shed += other.shed;
    }
}

/// Rolled-up kernel profile for one shard's engine: every launch the
/// shard performed, with cycles attributed per stall class and
/// instructions per op class.
///
/// Fields are flat named `u64`s (rather than the `[u64; N]` arrays the
/// simulator reports) so the struct serializes with the workspace's
/// minimal serde derive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EngineProfile {
    /// Kernel launches performed.
    pub launches: u64,
    /// Simulated cycles across launches (sum).
    pub cycles: u64,
    /// Warp instructions executed.
    pub instructions: u64,
    /// Cycles the issue pipeline was the constraint.
    pub stall_issue: u64,
    /// Cycles waiting on memory operands.
    pub stall_mem_dependency: u64,
    /// Cycles waiting at barriers.
    pub stall_barrier: u64,
    /// Cycles exposed for lack of resident warps.
    pub stall_occupancy_wait: u64,
    /// Cycles lost to execution-pipe contention.
    pub stall_pipe_contention: u64,
    /// ALU instructions.
    pub(crate) instr_alu: u64,
    /// Warp vote/shuffle instructions.
    pub(crate) instr_warp_op: u64,
    /// Global-memory instructions.
    pub(crate) instr_global_mem: u64,
    /// Shared-memory instructions.
    pub(crate) instr_shared_mem: u64,
    /// Atomic instructions.
    pub(crate) instr_atomic: u64,
    /// Barrier instructions.
    pub(crate) instr_barrier: u64,
    /// Sum of `msg_match::GpuMatchReport::probe_dedups` over launches.
    pub(crate) probe_dedups: u64,
}

impl EngineProfile {
    /// Fold one batch report into the rollup.
    pub(crate) fn absorb(&mut self, r: &msg_match::GpuMatchReport) {
        self.launches += r.launches as u64;
        self.cycles += r.cycles;
        self.instructions += r.instructions;
        let [issue, mem, bar, occ, pipe] = r.stall_cycles;
        self.stall_issue += issue;
        self.stall_mem_dependency += mem;
        self.stall_barrier += bar;
        self.stall_occupancy_wait += occ;
        self.stall_pipe_contention += pipe;
        let [alu, warp, gmem, smem, atomic, barrier] = r.class_instructions;
        self.instr_alu += alu;
        self.instr_warp_op += warp;
        self.instr_global_mem += gmem;
        self.instr_shared_mem += smem;
        self.instr_atomic += atomic;
        self.instr_barrier += barrier;
        self.probe_dedups += r.probe_dedups;
    }

    /// `(stall class label, cycles)` pairs in simt-sim's stall-class
    /// order.
    pub(crate) fn stall_breakdown(&self) -> [(&'static str, u64); 5] {
        [
            ("issue", self.stall_issue),
            ("mem_dependency", self.stall_mem_dependency),
            ("barrier", self.stall_barrier),
            ("occupancy_wait", self.stall_occupancy_wait),
            ("pipe_contention", self.stall_pipe_contention),
        ]
    }

    /// `(op class label, instructions)` pairs in
    /// [`simt_sim::OpClass`] order.
    pub(crate) fn instruction_mix(&self) -> [(&'static str, u64); 6] {
        [
            ("alu", self.instr_alu),
            ("warp_op", self.instr_warp_op),
            ("global_mem", self.instr_global_mem),
            ("shared_mem", self.instr_shared_mem),
            ("atomic", self.instr_atomic),
            ("barrier", self.instr_barrier),
        ]
    }

    /// Total stall-attributed cycles (equals [`cycles`](Self::cycles)
    /// whenever every absorbed report kept the partition invariant).
    pub fn stall_total(&self) -> u64 {
        self.stall_issue
            + self.stall_mem_dependency
            + self.stall_barrier
            + self.stall_occupancy_wait
            + self.stall_pipe_contention
    }
}

/// Counters and distributions for one service shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ShardMetrics {
    /// Shard index within the service.
    pub shard: usize,
    /// Engine the shard was pinned to (display form of the
    /// `msg_match::EngineChoice`).
    pub engine: String,
    /// Messages routed to this shard over the run.
    pub arrivals: u64,
    /// Arrivals past admission control:
    /// `admitted + overflow.spilled == arrivals`.
    pub admitted: u64,
    /// Arrivals the shard gave up on, spilled or shed (accounted, not
    /// simulated).
    pub overflow: OverflowStats,
    /// Messages matched.
    pub matched: u64,
    /// Dispatches; equals `batch_size.count` and `service_time.count`.
    pub(crate) batches: u64,
    /// Sum of the `service_time` samples (seconds).
    pub(crate) busy_seconds: f64,
    /// `busy_seconds` over the shard's last activity time, capped at 1.
    pub(crate) utilisation: f64,
    /// Steady-state overload: the backlog was still growing — or the
    /// shard was still spilling — when time ran out. A transient spill
    /// burst (e.g. during a crash's downtime) that the shard later
    /// drained does **not** set this; see
    /// [`ever_spilled`](Self::ever_spilled) for that.
    pub saturated: bool,
    /// True if admission control rejected at least one arrival at any
    /// point in the run, transient or not.
    pub ever_spilled: bool,
    /// Injected crashes this shard suffered (device state lost).
    pub crashes: u64,
    /// Injected hangs this shard suffered (unresponsive, state kept).
    pub hangs: u64,
    /// Injected partition windows that cut this shard off from the
    /// supervisor and its peers (state intact, path down).
    pub partitions: u64,
    /// Crash recoveries completed, one `recovery_seconds` sample each.
    pub(crate) recoveries: u64,
    /// In-flight batches destroyed by a crash before their matches
    /// committed (their entries are re-matched from the journal).
    pub lost_batches: u64,
    /// Checkpoints this shard took.
    pub checkpoints: u64,
    /// Recovery-scanned journal entries below the restored snapshot's
    /// admitted watermark.
    pub(crate) snapshot_restored: u64,
    /// Journal entries replayed (admitted after the last checkpoint)
    /// during recoveries.
    pub journal_replayed: u64,
    /// Re-matched entries suppressed at commit because their seq was
    /// already delivered — the duplicate half of exactly-once replay.
    pub replay_duplicates: u64,
    /// Commits rejected because their entry was dispatched under a
    /// placement epoch that a failover has since superseded — the
    /// fencing half of exactly-once under partitions: a healed shard's
    /// late work can never double-commit against its stand-in.
    pub fenced_commits: u64,
    /// Stream snapshots corrupted by injected checkpoint faults on this
    /// shard (newest generation's checksum flipped).
    pub corrupt_checkpoints: u64,
    /// Snapshot generations skipped at restore because their checksum
    /// failed to verify; each fallback widens the journal-replay window
    /// by one checkpoint generation.
    pub snapshot_fallbacks: u64,
    /// Times this shard took over a down peer's keys.
    pub(crate) failovers_in: u64,
    /// Times this shard's keys were routed away to a failover peer.
    pub(crate) failovers_out: u64,
    /// Planned migrations that moved a slot onto this shard.
    pub(crate) migrations_in: u64,
    /// Planned migrations that drained a slot off this shard.
    pub(crate) migrations_out: u64,
    /// Outstanding journaled entries this shard inherited through
    /// failovers and migrations (admitted elsewhere, matched here).
    pub transferred_in: u64,
    /// Times this shard's engine was swapped for a stricter one because
    /// an inherited stream required ordering its own engine relaxes.
    pub(crate) engine_fallbacks: u64,
    /// Trace events overwritten by the shard's bounded span recorder
    /// (0 when tracing is off or the ring never filled). Deterministic:
    /// the recorder sees the same virtual-time event stream in every
    /// scheduler interleaving.
    pub trace_dropped: u64,
    /// Seconds from each crash to the end of its recovery.
    pub recovery_seconds: Histogram,
    /// Distribution of batch sizes (messages per launch).
    pub batch_size: Histogram,
    /// Pending-queue depth sampled at each dispatch decision, before any
    /// batch is popped.
    pub queue_depth: Histogram,
    /// Simulated device seconds of each batch, slow windows included.
    pub(crate) service_time: Histogram,
    /// Per-message latency from arrival to match completion (seconds).
    pub match_latency: Histogram,
    /// Kernel-profile rollup over every launch the shard performed.
    pub profile: EngineProfile,
}

impl ShardMetrics {
    /// Fresh metrics for shard `shard` pinned to `engine`.
    pub fn new(shard: usize, engine: impl Into<String>) -> Self {
        ShardMetrics {
            shard,
            engine: engine.into(),
            recovery_seconds: Histogram::new(1e9),
            batch_size: Histogram::new(1.0),
            queue_depth: Histogram::new(1.0),
            service_time: Histogram::new(1e9),
            match_latency: Histogram::new(1e9),
            ..Default::default()
        }
    }
}

/// Per-tenant rollup: arrivals and their fates accumulated across every
/// stream the tenant owns, regardless of which shard hosted the slot.
///
/// The `overflow` split is the isolation contract made observable: a
/// guaranteed tenant under a noisy neighbour must show `shed == 0`
/// (its quota was never breached) and `spilled == 0` (headroom was
/// reserved for it), while the best-effort aggressor absorbs all the
/// loss in its own row.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TenantMetrics {
    /// Tenant id (index into the run's `TenancyConfig` tenant list).
    pub(crate) tenant: u32,
    /// Human-readable tenant name from the config.
    pub name: String,
    /// QoS class label: `guaranteed` / `burstable` / `best_effort`.
    pub class: String,
    /// `TenantSpec::streams` of the tenant.
    pub(crate) streams: u64,
    /// Sum of arrivals over the tenant's stream slots.
    pub arrivals: u64,
    /// Arrivals admitted (journaled) across the tenant's streams.
    pub admitted: u64,
    /// Sum of matches over the tenant's stream slots.
    pub(crate) matched: u64,
    /// The tenant's own spilled/shed accounting: `shed` counts quota
    /// rejections (and deadline sheds) of this tenant's traffic only.
    pub overflow: OverflowStats,
}

/// Whole-service snapshot: per-shard metrics plus run-level aggregates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceMetrics {
    /// Configured simulated duration (seconds); arrivals stop here.
    pub(crate) duration: f64,
    /// Aggregate offered load (messages/s).
    pub(crate) offered_rate: f64,
    /// Messages matched per simulated second up to the latest shard
    /// activity.
    pub sustained_rate: f64,
    /// Sum of the shards' `matched`.
    pub total_matched: u64,
    /// Sum of the shards' `overflow.spilled`.
    pub total_spilled: u64,
    /// Sum of the shards' `overflow.shed`.
    pub total_shed: u64,
    /// Injected crashes across all shards.
    pub total_crashes: u64,
    /// Completed recoveries across all shards.
    pub total_recoveries: u64,
    /// Failover reroutes across all shards (counted at the target).
    pub total_failovers: u64,
    /// Planned migrations the reshard planner completed.
    pub total_migrations: u64,
    /// Planned migrations aborted (endpoint down or redirected).
    pub aborted_migrations: u64,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardMetrics>,
    /// One entry per tenant, in tenant-id order; empty for runs without
    /// a tenancy config.
    pub tenants: Vec<TenantMetrics>,
}

impl ServiceMetrics {
    /// Build the whole-service snapshot from per-shard metrics.
    ///
    /// Shards are sorted by shard id before folding, so the aggregate
    /// is independent of the order worker threads delivered them —
    /// the merge-commutativity contract the parallel scheduler relies
    /// on. `elapsed` is the simulated time the sustained rate is
    /// normalised by (the latest shard activity, not the nominal
    /// duration).
    pub(crate) fn from_shards(
        duration: f64,
        offered_rate: f64,
        elapsed: f64,
        mut shards: Vec<ShardMetrics>,
    ) -> Self {
        shards.sort_by_key(|s| s.shard);
        let total_matched: u64 = shards.iter().map(|s| s.matched).sum();
        let mut overflow = OverflowStats::default();
        for s in &shards {
            overflow.merge(&s.overflow);
        }
        ServiceMetrics {
            duration,
            offered_rate,
            sustained_rate: total_matched as f64 / elapsed.max(f64::MIN_POSITIVE),
            total_matched,
            total_spilled: overflow.spilled,
            total_shed: overflow.shed,
            total_crashes: shards.iter().map(|s| s.crashes).sum(),
            total_recoveries: shards.iter().map(|s| s.recoveries).sum(),
            total_failovers: shards.iter().map(|s| s.failovers_in).sum(),
            total_migrations: shards.iter().map(|s| s.migrations_in).sum(),
            aborted_migrations: 0,
            shards,
            tenants: Vec::new(),
        }
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Render the snapshot in the Prometheus text exposition format: the
    /// service families unlabelled, the shard families once per shard
    /// (`shard` and `engine` labels; stall cycles and the instruction mix
    /// add `class`) and the tenant families once per tenant (absent
    /// without tenancy). Histograms export cumulative `le` buckets; the
    /// `+Inf` bucket equals `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut families = SERVICE_FAMILIES.render(std::slice::from_ref(self));
        families.extend(SHARD_FAMILIES.render(&self.shards));
        families.extend(TENANT_FAMILIES.render(&self.tenants));
        obs::prom::render(&families)
    }
}

/// One shard's wall-clock profile: where the host's time went while
/// the scheduler ran this shard, decomposed into the four
/// [`obs::wallprof::WallBucket`]s. All values are measured wall
/// nanoseconds — nondeterministic by nature, which is why this struct
/// lives in [`crate::ShardedServiceReport`] and never inside
/// [`ServiceMetrics`] (whose JSON the differential tests byte-compare).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShardWallProfile {
    /// Shard index.
    pub shard: usize,
    /// Epochs the scheduler ran this shard in.
    pub epochs: u64,
    /// Wall ns a worker spent advancing this shard's domain.
    pub compute_ns: u64,
    /// Wall ns idle at the epoch barrier behind slower workers.
    pub barrier_wait_ns: u64,
    /// Wall ns blocked on the bounded result channel.
    pub backpressure_ns: u64,
    /// Wall ns inside the coordinator's supervisor barrier.
    pub supervisor_sync_ns: u64,
    /// Measured wall ns across the shard's epochs (what the four
    /// buckets partition).
    pub total_ns: u64,
}

impl ShardWallProfile {
    #[cfg(test)]
    /// Sum of the four buckets (equals [`total_ns`](Self::total_ns) by
    /// residual construction; the sum-identity test pins the gap ≤1%).
    pub(crate) fn bucket_sum_ns(&self) -> u64 {
        self.compute_ns + self.barrier_wait_ns + self.backpressure_ns + self.supervisor_sync_ns
    }

    /// `(bucket label, ns)` pairs in [`obs::wallprof::WallBucket::ALL`]
    /// order.
    pub(crate) fn buckets(&self) -> [(&'static str, u64); 4] {
        [
            ("compute", self.compute_ns),
            ("barrier_wait", self.barrier_wait_ns),
            ("backpressure", self.backpressure_ns),
            ("supervisor_sync", self.supervisor_sync_ns),
        ]
    }
}

/// Whole-run dual-clock scheduler profile: per-shard wall-time bucket
/// decompositions plus run totals. Exported to its own Prometheus
/// document (`OBS_wall.prom`) — never merged into the deterministic
/// exposition.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SchedulerProfile {
    /// Scheduler the run used (`"global_clock"` / `"thread_per_shard"`).
    pub scheduler: String,
    /// Wall seconds for the whole run.
    pub wall_seconds: f64,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardWallProfile>,
}

impl SchedulerProfile {
    /// Total wall ns across shards per bucket, in bucket order.
    pub fn totals(&self) -> [(&'static str, u64); 4] {
        let mut t = ShardWallProfile::default().buckets();
        for s in &self.shards {
            for (slot, (_, v)) in t.iter_mut().zip(s.buckets()) {
                slot.1 += v;
            }
        }
        t
    }

    /// Fraction of summed shard wall time spent at the epoch barrier
    /// (0 when nothing was measured).
    pub fn barrier_wait_fraction(&self) -> f64 {
        let total: u64 = self.shards.iter().map(|s| s.total_ns).sum();
        if total == 0 {
            return 0.0;
        }
        let wait: u64 = self.shards.iter().map(|s| s.barrier_wait_ns).sum();
        wait as f64 / total as f64
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Render the wall-clock profile in the Prometheus text exposition
    /// format. Kept separate from [`ServiceMetrics::to_prometheus`] so
    /// wall-clock nondeterminism never lands in the byte-compared
    /// deterministic exposition.
    pub fn to_prometheus(&self) -> String {
        let mut families = WALL_RUN_FAMILIES.render(std::slice::from_ref(self));
        families.extend(WALL_SHARD_FAMILIES.render(&self.shards));
        obs::prom::render(&families)
    }
}

/// How one exported family reads its samples from a subject.
enum Read<S: 'static> {
    /// One sample per subject.
    Value(fn(&S) -> f64),
    /// One sample per `(value of one more label, sample)` pair.
    Split(&'static str, fn(&S) -> Vec<(String, f64)>),
    /// One histogram series per subject.
    Histogram(fn(&S) -> &Histogram),
}

/// One exported family, declared once: name, kind, help text and how to
/// read it.
struct Decl<S: 'static> {
    name: &'static str,
    kind: FamilyKind,
    help: &'static str,
    read: Read<S>,
}

const fn counter<S>(name: &'static str, help: &'static str, value: fn(&S) -> f64) -> Decl<S> {
    Decl {
        name,
        kind: FamilyKind::Counter,
        help,
        read: Read::Value(value),
    }
}

const fn gauge<S>(name: &'static str, help: &'static str, value: fn(&S) -> f64) -> Decl<S> {
    Decl {
        name,
        kind: FamilyKind::Gauge,
        help,
        read: Read::Value(value),
    }
}

/// A family with one sample per value of the extra label `by`.
const fn split<S>(
    kind: FamilyKind,
    name: &'static str,
    help: &'static str,
    by: &'static str,
    samples: fn(&S) -> Vec<(String, f64)>,
) -> Decl<S> {
    Decl {
        name,
        kind,
        help,
        read: Read::Split(by, samples),
    }
}

const fn histogram<S>(
    name: &'static str,
    help: &'static str,
    hist: fn(&S) -> &Histogram,
) -> Decl<S> {
    Decl {
        name,
        kind: FamilyKind::Histogram,
        help,
        read: Read::Histogram(hist),
    }
}

/// `(label value, count)` pairs as the samples of a split family.
fn by_label<const N: usize>(pairs: [(&'static str, u64); N]) -> Vec<(String, f64)> {
    pairs
        .into_iter()
        .map(|(label, v)| (label.to_string(), v as f64))
        .collect()
}

/// The families exported once per subject — the service, a shard, a
/// tenant — and the labels that tell subjects apart.
struct Table<S: 'static> {
    /// Label names, in emission order.
    labels: &'static [&'static str],
    /// The values of `labels` for one subject.
    label_values: fn(&S) -> Vec<String>,
    families: &'static [Decl<S>],
}

impl<S> Table<S> {
    /// Every family of the table over `subjects`; none without subjects.
    fn render(&self, subjects: &[S]) -> Vec<Family> {
        if subjects.is_empty() {
            return Vec::new();
        }
        let series: Vec<(Vec<(String, String)>, &S)> = subjects
            .iter()
            .map(|s| {
                let names = self.labels.iter().map(|l| l.to_string());
                (names.zip((self.label_values)(s)).collect(), s)
            })
            .collect();
        self.families
            .iter()
            .map(|d| match d.read {
                Read::Value(value) => {
                    let samples = series.iter().map(|(labels, s)| Sample {
                        labels: labels.clone(),
                        value: value(s),
                    });
                    Family::scalar(d.name, d.help, d.kind, samples.collect())
                }
                Read::Split(by, split) => {
                    let samples = series.iter().flat_map(|(labels, s)| {
                        split(s).into_iter().map(move |(v, value)| {
                            let mut labels = labels.clone();
                            labels.push((by.to_string(), v));
                            Sample { labels, value }
                        })
                    });
                    Family::scalar(d.name, d.help, d.kind, samples.collect())
                }
                Read::Histogram(hist) => {
                    let series = series.iter().map(|(labels, s)| {
                        let h = hist(s);
                        HistogramSample {
                            labels: labels.clone(),
                            buckets: h.prom_buckets(),
                            sum: h.sum,
                            count: h.count,
                        }
                    });
                    Family::histogram(d.name, d.help, series.collect())
                }
            })
            .collect()
    }
}

/// Run-level families: one unlabelled sample per snapshot.
#[rustfmt::skip]
const SERVICE_FAMILIES: Table<ServiceMetrics> = Table {
    labels: &[],
    label_values: |_| Vec::new(),
    families: &[
        gauge("service_duration_seconds", "Configured simulated duration in seconds; arrivals stop here", |m| m.duration),
        gauge("service_offered_rate", "Aggregate offered load in messages per second", |m| m.offered_rate),
        gauge("service_sustained_rate", "Messages matched per simulated second up to the latest shard activity", |m| m.sustained_rate),
        counter("service_matched_total", "Messages matched across all shards", |m| m.total_matched as f64),
        counter("service_spilled_total", "Messages spilled across all shards", |m| m.total_spilled as f64),
        counter("service_shed_total", "Messages shed past the deadline or over a tenant quota, all shards", |m| m.total_shed as f64),
        counter("service_crashes_total", "Injected shard crashes across the run", |m| m.total_crashes as f64),
        counter("service_recoveries_total", "Completed checkpoint/journal recoveries across the run", |m| m.total_recoveries as f64),
        counter("service_failovers_total", "Supervisor failover reroutes across the run", |m| m.total_failovers as f64),
        counter("service_migrations_total", "Planned slot migrations completed by the reshard planner", |m| m.total_migrations as f64),
        counter("service_migrations_aborted_total", "Planned migrations aborted before transfer", |m| m.aborted_migrations as f64),
    ],
};

/// One series per shard.
#[rustfmt::skip]
const SHARD_FAMILIES: Table<ShardMetrics> = Table {
    labels: &["shard", "engine"],
    label_values: |s| vec![s.shard.to_string(), s.engine.clone()],
    families: &[
        counter("shard_arrivals_total", "Messages routed to the shard", |s| s.arrivals as f64),
        counter("shard_admitted_total", "Arrivals admitted to the pending queue", |s| s.admitted as f64),
        counter("shard_spilled_total", "Arrivals rejected at the admission queue", |s| s.overflow.spilled as f64),
        counter("shard_shed_total", "Arrivals shed: queued past the deadline, or over a tenant quota", |s| s.overflow.shed as f64),
        counter("shard_matched_total", "Messages matched by the shard", |s| s.matched as f64),
        counter("shard_batches_total", "Matching passes launched", |s| s.batches as f64),
        counter("shard_busy_seconds_total", "Simulated seconds the shard's device spent matching", |s| s.busy_seconds),
        gauge("shard_utilisation", "Busy seconds over the shard's last activity time, capped at 1", |s| s.utilisation),
        gauge("shard_saturated", "1 when the backlog was still growing at the end of the run", |s| f64::from(u8::from(s.saturated))),
        gauge("shard_ever_spilled", "1 when admission control rejected at least one arrival", |s| f64::from(u8::from(s.ever_spilled))),
        counter("shard_crashes_total", "Injected crashes the shard suffered", |s| s.crashes as f64),
        counter("shard_hangs_total", "Injected hangs the shard suffered", |s| s.hangs as f64),
        counter("shard_recoveries_total", "Completed checkpoint/journal recoveries", |s| s.recoveries as f64),
        counter("shard_lost_batches_total", "In-flight batches destroyed by a crash before commit", |s| s.lost_batches as f64),
        counter("shard_checkpoints_total", "Periodic state snapshots taken", |s| s.checkpoints as f64),
        counter("shard_snapshot_restored_total", "Recovery-scanned journal entries covered by the restored snapshot", |s| s.snapshot_restored as f64),
        counter("shard_journal_replayed_total", "Journal entries replayed during recoveries", |s| s.journal_replayed as f64),
        counter("shard_replay_duplicates_total", "Re-matched entries suppressed at commit (exactly-once)", |s| s.replay_duplicates as f64),
        counter("shard_partitions_total", "Injected partition windows that cut the shard off", |s| s.partitions as f64),
        counter("shard_fenced_commits_total", "Stale-epoch commits rejected by the failover fence", |s| s.fenced_commits as f64),
        counter("shard_corrupt_checkpoints_total", "Stream snapshots hit by injected checkpoint corruption", |s| s.corrupt_checkpoints as f64),
        counter("shard_snapshot_fallbacks_total", "Corrupt snapshot generations skipped at restore", |s| s.snapshot_fallbacks as f64),
        counter("shard_probe_dedups_total", "Duplicate wildcard probes served by scan-ballot reuse", |s| s.profile.probe_dedups as f64),
        counter("shard_failovers_in_total", "Times the shard took over a down peer's keys", |s| s.failovers_in as f64),
        counter("shard_failovers_out_total", "Times the shard's keys were routed to a failover peer", |s| s.failovers_out as f64),
        counter("shard_transferred_in_total", "Outstanding entries inherited through failovers and migrations", |s| s.transferred_in as f64),
        counter("shard_migrations_in_total", "Planned migrations that moved a slot onto the shard", |s| s.migrations_in as f64),
        counter("shard_migrations_out_total", "Planned migrations that drained a slot off the shard", |s| s.migrations_out as f64),
        counter("shard_engine_fallbacks_total", "Engine swaps to a stricter engine for inherited streams", |s| s.engine_fallbacks as f64),
        counter("shard_trace_dropped_total", "Trace events overwritten by the shard's bounded recorder", |s| s.trace_dropped as f64),
        counter("shard_kernel_launches_total", "Kernel launches performed by the shard", |s| s.profile.launches as f64),
        counter("shard_kernel_cycles_total", "Simulated device cycles across the shard's launches", |s| s.profile.cycles as f64),
        counter("shard_instructions_total", "Warp instructions executed by the shard", |s| s.profile.instructions as f64),
        split(FamilyKind::Counter, "shard_stall_cycles_total", "Critical-path cycles attributed per stall class", "class", |s| by_label(s.profile.stall_breakdown())),
        split(FamilyKind::Counter, "shard_class_instructions_total", "Instructions executed per op class", "class", |s| by_label(s.profile.instruction_mix())),
        histogram("shard_recovery_seconds", "Crash-to-service-resumed recovery latency", |s| &s.recovery_seconds),
        histogram("shard_batch_size", "Messages per matching pass", |s| &s.batch_size),
        histogram("shard_queue_depth", "Pending-queue depth sampled at each dispatch decision, before the batch is popped", |s| &s.queue_depth),
        histogram("shard_service_time_seconds", "Per-batch device service time", |s| &s.service_time),
        histogram("shard_match_latency_seconds", "Arrival-to-match latency", |s| &s.match_latency),
    ],
};

/// One series per tenant; absent without tenancy.
#[rustfmt::skip]
const TENANT_FAMILIES: Table<TenantMetrics> = Table {
    labels: &["tenant", "class"],
    label_values: |t| vec![t.name.clone(), t.class.clone()],
    families: &[
        gauge("tenant_streams", "Streams (slots) the tenant owns", |t| t.streams as f64),
        counter("tenant_arrivals_total", "Messages that arrived for the tenant's streams", |t| t.arrivals as f64),
        counter("tenant_admitted_total", "Arrivals admitted across the tenant's streams", |t| t.admitted as f64),
        counter("tenant_matched_total", "Messages matched across the tenant's streams", |t| t.matched as f64),
        counter("tenant_spilled_total", "The tenant's arrivals rejected for lack of physical queue space", |t| t.overflow.spilled as f64),
        counter("tenant_shed_total", "The tenant's arrivals shed by its own quota or the deadline", |t| t.overflow.shed as f64),
    ],
};

/// Run-level wall-clock families.
#[rustfmt::skip]
const WALL_RUN_FAMILIES: Table<SchedulerProfile> = Table {
    labels: &[],
    label_values: |_| Vec::new(),
    families: &[
        split(FamilyKind::Gauge, "scheduler_wall_seconds", "Wall-clock duration of the run", "scheduler", |p| vec![(p.scheduler.clone(), p.wall_seconds)]),
        gauge("scheduler_barrier_wait_fraction", "Fraction of summed shard wall time idle at the epoch barrier", |p| p.barrier_wait_fraction()),
    ],
};

/// One wall-clock series per shard.
#[rustfmt::skip]
const WALL_SHARD_FAMILIES: Table<ShardWallProfile> = Table {
    labels: &["shard"],
    label_values: |s| vec![s.shard.to_string()],
    families: &[
        counter("scheduler_shard_epochs_total", "Scheduler epochs the shard participated in", |s| s.epochs as f64),
        counter("scheduler_shard_wall_ns_total", "Measured wall nanoseconds across the shard's epochs", |s| s.total_ns as f64),
        split(FamilyKind::Counter, "scheduler_shard_bucket_ns_total", "Wall nanoseconds attributed per scheduler bucket", "bucket", |s| by_label(s.buckets())),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats_are_exact_where_promised() {
        let mut h = Histogram::new(1.0);
        for v in [0.0, 1.0, 2.0, 3.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1000.0);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        assert_eq!(h.counts[0], 1, "zero bucket");
        assert_eq!(h.counts[1], 1, "v=1");
        assert_eq!(h.counts[2], 2, "v in [2,4)");
        assert_eq!(h.counts[10], 1, "v in [512,1024)");
    }

    #[test]
    fn quantiles_order_and_clamp() {
        let mut h = Histogram::new(1e9); // seconds in ns
        for i in 1..=100 {
            h.record(i as f64 * 1e-6);
        }
        let (p50, p99) = (h.p50(), h.p99());
        assert!(p50 <= p99, "p50 {p50} p99 {p99}");
        assert!(p50 >= h.min && p99 <= h.max);
        assert!(p99 > 5e-5, "p99 must sit in the upper tail: {p99}");
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new(1.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert!(h.prom_buckets().is_empty());
    }

    #[test]
    fn quantile_edges_are_exact() {
        // Powers of two occupy one bucket each, so interior quantiles
        // are exact too: rank r lands on sample 2^r.
        let mut h = Histogram::new(1.0);
        for k in 0..10 {
            h.record((1u64 << k) as f64);
        }
        assert_eq!(h.p50(), 32.0, "rank 5 of [1,2,4,...,512]");
        assert_eq!(h.p99(), 512.0);
        assert_eq!(h.quantile(0.0), 1.0, "q=0 is the minimum");
        assert_eq!(h.quantile(1.0), 512.0, "q=1 is the maximum");
        assert_eq!(h.quantile(-3.0), 1.0);
        assert_eq!(h.quantile(7.0), 512.0);

        let mut one = Histogram::new(1e9);
        one.record(42e-9);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 42e-9, "single sample is exact at q={q}");
        }

        let mut flat = Histogram::new(1.0);
        for _ in 0..5 {
            flat.record(7.0);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(flat.quantile(q), 7.0, "all-equal samples are exact");
        }
    }

    #[test]
    fn prom_buckets_are_cumulative_and_trimmed() {
        let mut h = Histogram::new(1.0);
        for v in [0.0, 1.0, 2.0, 3.0, 1000.0] {
            h.record(v);
        }
        let b = h.prom_buckets();
        assert_eq!(b.first(), Some(&(0.0, 1)), "zero bucket");
        assert!(b.contains(&(1.0, 2)));
        assert!(b.contains(&(3.0, 4)), "cumulative through [2,3]");
        assert_eq!(b.last(), Some(&(1023.0, 5)), "trimmed at the top bucket");
        assert!(b.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn histogram_merge_is_commutative_and_matches_direct_recording() {
        let mut a = Histogram::new(1.0);
        let mut b = Histogram::new(1.0);
        let mut direct = Histogram::new(1.0);
        for v in [3.0, 100.0, 0.0] {
            a.record(v);
            direct.record(v);
        }
        for v in [7.0, 1.0] {
            b.record(v);
            direct.record(v);
        }

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab, direct, "merge must equal recording into one");

        // Empty operands on either side are identities.
        let empty = Histogram::new(1.0);
        let mut left = empty.clone();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge(&empty);
        assert_eq!(right, a);
    }

    #[test]
    fn service_aggregation_is_independent_of_shard_arrival_order() {
        let shard = |idx: usize, matched: u64, spilled: u64| {
            let mut s = ShardMetrics::new(idx, "matrix");
            s.arrivals = matched + spilled;
            s.admitted = matched;
            s.matched = matched;
            s.overflow.spilled = spilled;
            s.crashes = idx as u64 % 2;
            s.failovers_in = idx as u64;
            s.queue_depth.record(idx as f64 * 10.0);
            s
        };
        let shards: Vec<ShardMetrics> =
            (0..5).map(|i| shard(i, 100 + i as u64, i as u64)).collect();

        let forward = ServiceMetrics::from_shards(0.002, 4.0e6, 0.002, shards.clone());
        let mut shuffled = shards;
        shuffled.reverse();
        shuffled.swap(0, 2);
        let scrambled = ServiceMetrics::from_shards(0.002, 4.0e6, 0.002, shuffled);
        assert_eq!(
            forward, scrambled,
            "folding order must not leak into the aggregate"
        );
        assert_eq!(forward.total_matched, 100 + 101 + 102 + 103 + 104);
        assert_eq!(forward.total_failovers, 1 + 2 + 3 + 4);
        assert!(
            forward.shards.windows(2).all(|w| w[0].shard < w[1].shard),
            "shards must come back in id order"
        );
    }

    #[test]
    fn engine_profile_absorbs_reports_and_keeps_the_partition() {
        use msg_match::{MatchEngine, RelaxationConfig, WorkloadSpec};
        use simt_sim::{Gpu, GpuGeneration};
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let w = WorkloadSpec::fully_matching(256, 3).generate();
        let (_, r) = MatchEngine::default()
            .match_batch(&mut gpu, RelaxationConfig::FULL_MPI, &w.msgs, &w.reqs)
            .unwrap();
        let mut p = EngineProfile::default();
        p.absorb(&r);
        p.absorb(&r);
        assert_eq!(p.cycles, 2 * r.cycles);
        assert_eq!(p.stall_total(), p.cycles, "stall classes partition cycles");
        assert_eq!(
            p.instruction_mix().iter().map(|(_, v)| v).sum::<u64>(),
            p.instructions
        );
    }

    #[test]
    fn prometheus_exposition_has_required_families() {
        let mut sm = ShardMetrics::new(2, "hash");
        sm.arrivals = 1000;
        sm.matched = 990;
        sm.profile.stall_mem_dependency = 40;
        sm.profile.stall_issue = 60;
        sm.profile.cycles = 100;
        sm.match_latency.record(8.1e-6);
        sm.match_latency.record(3.0e-6);
        sm.overflow.shed = 3;
        sm.crashes = 1;
        sm.recoveries = 1;
        sm.replay_duplicates = 7;
        sm.recovery_seconds.record(62e-6);
        let m = ServiceMetrics {
            duration: 0.002,
            offered_rate: 2.0e6,
            sustained_rate: 1.9e6,
            total_matched: 990,
            total_spilled: 10,
            total_shed: 3,
            total_crashes: 1,
            total_recoveries: 1,
            total_failovers: 0,
            total_migrations: 2,
            aborted_migrations: 1,
            shards: vec![sm],
            tenants: vec![TenantMetrics {
                tenant: 0,
                name: "acme".to_string(),
                class: "guaranteed".to_string(),
                streams: 3,
                arrivals: 500,
                admitted: 500,
                matched: 495,
                overflow: OverflowStats::default(),
            }],
        };
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE service_matched_total counter"));
        assert!(text.contains("service_matched_total 990"));
        assert!(text.contains("service_shed_total 3"));
        assert!(text.contains("shard_shed_total{shard=\"2\",engine=\"hash\"} 3"));
        assert!(text.contains("shard_crashes_total{shard=\"2\",engine=\"hash\"} 1"));
        assert!(text.contains("shard_replay_duplicates_total{shard=\"2\",engine=\"hash\"} 7"));
        assert!(text.contains("# TYPE shard_recovery_seconds histogram"));
        assert!(
            text.contains("shard_recovery_seconds_count{shard=\"2\",engine=\"hash\"} 1"),
            "recovery latency histogram must be exported"
        );
        assert!(text.contains("shard_arrivals_total{shard=\"2\",engine=\"hash\"} 1000"));
        assert!(text.contains(
            "shard_stall_cycles_total{shard=\"2\",engine=\"hash\",class=\"mem_dependency\"} 40"
        ));
        assert!(text.contains("# TYPE shard_match_latency_seconds histogram"));
        assert!(
            text.contains(
                "shard_match_latency_seconds_bucket{shard=\"2\",engine=\"hash\",le=\"+Inf\"} 2"
            ),
            "+Inf bucket must equal _count"
        );
        assert!(text.contains("shard_match_latency_seconds_count{shard=\"2\",engine=\"hash\"} 2"));
        assert!(text.contains("service_migrations_total 2"));
        assert!(text.contains("service_migrations_aborted_total 1"));
        assert!(text.contains("# TYPE tenant_shed_total counter"));
        assert!(text.contains("tenant_admitted_total{tenant=\"acme\",class=\"guaranteed\"} 500"));
        assert!(text.contains("tenant_shed_total{tenant=\"acme\",class=\"guaranteed\"} 0"));
    }

    #[test]
    fn tenant_families_absent_without_tenancy() {
        let m =
            ServiceMetrics::from_shards(0.002, 1.0e6, 0.002, vec![ShardMetrics::new(0, "hash")]);
        assert!(m.tenants.is_empty());
        let text = m.to_prometheus();
        assert!(!text.contains("tenant_shed_total"));
        assert!(text.contains("shard_migrations_in_total{shard=\"0\",engine=\"hash\"} 0"));
    }

    #[test]
    fn scheduler_profile_totals_and_prometheus() {
        let p = SchedulerProfile {
            scheduler: "thread_per_shard".to_string(),
            wall_seconds: 0.5,
            shards: vec![
                ShardWallProfile {
                    shard: 0,
                    epochs: 10,
                    compute_ns: 70,
                    barrier_wait_ns: 20,
                    backpressure_ns: 5,
                    supervisor_sync_ns: 5,
                    total_ns: 100,
                },
                ShardWallProfile {
                    shard: 1,
                    epochs: 10,
                    compute_ns: 50,
                    barrier_wait_ns: 40,
                    backpressure_ns: 0,
                    supervisor_sync_ns: 10,
                    total_ns: 100,
                },
            ],
        };
        assert_eq!(p.shards[0].bucket_sum_ns(), p.shards[0].total_ns);
        assert_eq!(p.totals()[1], ("barrier_wait", 60));
        assert!((p.barrier_wait_fraction() - 0.3).abs() < 1e-12);
        let text = p.to_prometheus();
        assert!(text.contains("scheduler_wall_seconds{scheduler=\"thread_per_shard\"} 0.5"));
        assert!(text
            .contains("scheduler_shard_bucket_ns_total{shard=\"1\",bucket=\"barrier_wait\"} 40"));
        assert!(text.contains("scheduler_barrier_wait_fraction 0.3"));
    }

    #[test]
    fn service_metrics_round_trip_json() {
        let mut sm = ShardMetrics::new(2, "hash");
        sm.arrivals = 1000;
        sm.matched = 990;
        sm.overflow.spilled = 10;
        sm.overflow.shed = 2;
        sm.ever_spilled = true;
        sm.crashes = 1;
        sm.recoveries = 1;
        sm.journal_replayed = 120;
        sm.snapshot_restored = 30;
        sm.replay_duplicates = 5;
        sm.busy_seconds = 0.25;
        sm.recovery_seconds.record(55e-6);
        sm.batch_size.record(512.0);
        sm.service_time.record(3.2e-6);
        sm.match_latency.record(8.1e-6);
        let m = ServiceMetrics {
            duration: 0.002,
            offered_rate: 2.0e6,
            sustained_rate: 1.9e6,
            total_matched: 990,
            total_spilled: 10,
            total_shed: 2,
            total_crashes: 1,
            total_recoveries: 1,
            total_failovers: 1,
            total_migrations: 1,
            aborted_migrations: 0,
            shards: vec![sm],
            tenants: vec![TenantMetrics {
                tenant: 1,
                name: "burst-co".to_string(),
                class: "burstable".to_string(),
                streams: 2,
                arrivals: 400,
                admitted: 390,
                matched: 388,
                overflow: OverflowStats {
                    spilled: 4,
                    shed: 6,
                },
            }],
        };
        // The JSON export is well formed and carries every section.
        use serde::Value;
        let tree = serde::json::parse_value(&m.to_json()).unwrap();
        let shard = tree.field("shards").unwrap().index(0).unwrap();
        assert_eq!(shard.field("journal_replayed").unwrap(), &Value::U64(120));
        let busy = shard.field("busy_seconds").unwrap();
        assert_eq!(busy, &Value::F64(0.25));
        let tenant = tree.field("tenants").unwrap().index(0).unwrap();
        assert_eq!(
            tenant.field("name").unwrap(),
            &Value::Str("burst-co".to_string())
        );
    }

    /// One `docs/SERVICE.md` row per family of `table`.
    fn doc_rows<S>(table: &Table<S>, out: &mut String) {
        for d in table.families {
            let mut labels: Vec<String> = table.labels.iter().map(|l| format!("`{l}`")).collect();
            if let Read::Split(by, _) = d.read {
                labels.push(format!("`{by}`"));
            }
            let labels = if labels.is_empty() {
                "—".to_string()
            } else {
                labels.join(", ")
            };
            let kind = format!("{:?}", d.kind).to_lowercase();
            out.push_str(&format!(
                "| `{}` | {kind} | {labels} | {} |\n",
                d.name, d.help
            ));
        }
    }

    /// The family tables of `docs/SERVICE.md`, rendered from the
    /// declarations.
    fn family_tables() -> String {
        const HEADER: &str = "| family | type | labels | help |\n|---|---|---|---|\n";
        let mut out = format!("`ServiceMetrics::to_prometheus`:\n\n{HEADER}");
        doc_rows(&SERVICE_FAMILIES, &mut out);
        doc_rows(&SHARD_FAMILIES, &mut out);
        doc_rows(&TENANT_FAMILIES, &mut out);
        out.push_str(&format!(
            "\n`SchedulerProfile::to_prometheus` (wall clock):\n\n{HEADER}"
        ));
        doc_rows(&WALL_RUN_FAMILIES, &mut out);
        doc_rows(&WALL_SHARD_FAMILIES, &mut out);
        out
    }

    /// `docs/SERVICE.md` documents exactly the declared families: a
    /// family added, renamed or re-described in the tables above, or a
    /// row edited in the document, fails here.
    #[test]
    fn service_md_family_tables_match_the_declarations() {
        const BEGIN: &str = "<!-- family tables: rendered from crates/gpu-msg/src/metrics.rs -->\n";
        const END: &str = "<!-- end family tables -->";
        let doc = include_str!("../../../docs/SERVICE.md");
        let start = doc
            .find(BEGIN)
            .expect("docs/SERVICE.md lacks the begin marker")
            + BEGIN.len();
        let len = doc[start..]
            .find(END)
            .expect("docs/SERVICE.md lacks the end marker");
        let want = family_tables();
        assert!(
            doc[start..start + len] == want,
            "docs/SERVICE.md's family tables are stale; replace the lines between \
             its markers with:\n\n{want}"
        );
    }
}
