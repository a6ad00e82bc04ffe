//! Observability for the streaming match service: per-shard counters and
//! histograms, serializable to JSON so a run can be persisted and
//! tooling can diff runs.
//!
//! Histograms use power-of-two buckets over an integer unit chosen per
//! histogram (messages for sizes/depths, nanoseconds for times), so
//! recording is O(1), memory is fixed, and two runs of the same
//! simulation produce bit-identical snapshots — which the determinism
//! tests rely on.

use serde::{Deserialize, Serialize};

/// Number of power-of-two buckets: bucket `k` holds values `v` with
/// `floor(log2(v)) == k - 1` (bucket 0 holds `v == 0`), covering the
/// full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed-size log₂ histogram with exact count/sum/min/max sidecars.
///
/// Values are `f64` in the caller's unit; `scale` converts them to the
/// integer unit actually bucketed (e.g. `1e9` records seconds as
/// nanoseconds). Quantiles interpolate linearly inside a bucket, so they
/// are estimates with at most a 2× bucket-width error — adequate for
/// p50/p99 dashboards, not for timing claims.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Caller-unit → bucketed-integer-unit multiplier.
    pub scale: f64,
    /// Per-bucket counts; index is `1 + floor(log2(units))`, 0 for zero.
    pub counts: Vec<u64>,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded values (caller units).
    pub sum: f64,
    /// Smallest recorded value (caller units; 0 when empty).
    pub min: f64,
    /// Largest recorded value (caller units; 0 when empty).
    pub max: f64,
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
    pub fn record(&mut self, value: f64) {
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

    /// Mean of recorded values (caller units; 0 when empty).
    pub fn mean(&self) -> f64 {
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
    pub fn quantile(&self, q: f64) -> f64 {
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
    pub fn prom_buckets(&self) -> Vec<(f64, u64)> {
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

/// Shared overflow accounting for every service model: arrivals the
/// service accepted responsibility for but did not match.
///
/// The two counters are deliberately distinct. `spilled` is *admission
/// control*: the bounded pending queue was full, so the arrival was
/// rejected at the door (the unmodelled slow host path takes it).
/// `shed` is *graceful degradation*: the arrival was admitted — and
/// journaled — but the supervisor dropped it oldest-first because it
/// could no longer meet the service deadline. Conflating them hides
/// whether a deployment is under-provisioned (spill) or failing its
/// latency SLO under faults (shed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverflowStats {
    /// Arrivals rejected because the pending queue was at capacity.
    pub spilled: u64,
    /// Admitted arrivals dropped (oldest first) by deadline shedding.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    pub instr_alu: u64,
    /// Warp vote/shuffle instructions.
    pub instr_warp_op: u64,
    /// Global-memory instructions.
    pub instr_global_mem: u64,
    /// Shared-memory instructions.
    pub instr_shared_mem: u64,
    /// Atomic instructions.
    pub instr_atomic: u64,
    /// Barrier instructions.
    pub instr_barrier: u64,
    /// Duplicate wildcard probes served by scan-ballot reuse instead of
    /// a fresh queue pass (matrix engine; see
    /// `msg_match::GpuMatchReport::probe_dedups`).
    pub probe_dedups: u64,
}

impl EngineProfile {
    /// Fold one batch report into the rollup.
    pub fn absorb(&mut self, r: &msg_match::GpuMatchReport) {
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

    /// `(stall class label, cycles)` pairs in [`simt_sim::StallClass`]
    /// order.
    pub fn stall_breakdown(&self) -> [(&'static str, u64); 5] {
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
    pub fn instruction_mix(&self) -> [(&'static str, u64); 6] {
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Shard index within the service.
    pub shard: usize,
    /// Engine the shard was pinned to (display form of the
    /// `msg_match::EngineChoice`).
    pub engine: String,
    /// Messages routed to this shard over the run.
    pub arrivals: u64,
    /// Arrivals admitted to the pending queue.
    pub admitted: u64,
    /// Arrivals the shard gave up on: spilled at admission or shed by
    /// the supervisor's deadline enforcement (accounted, not simulated).
    pub overflow: OverflowStats,
    /// Messages matched.
    pub matched: u64,
    /// Matching passes launched.
    pub batches: u64,
    /// Simulated seconds the shard's device spent matching.
    pub busy_seconds: f64,
    /// `busy_seconds` over the run duration.
    pub utilisation: f64,
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
    /// Completed checkpoint/journal recoveries after crashes.
    pub recoveries: u64,
    /// In-flight batches destroyed by a crash before their matches
    /// committed (their entries are re-matched from the journal).
    pub lost_batches: u64,
    /// Periodic state snapshots taken.
    pub checkpoints: u64,
    /// Entries restored from the checkpoint snapshot during recoveries.
    pub snapshot_restored: u64,
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
    /// Dispatch-batch entries the pre-launch digest screen rejected as
    /// unmatchable (see `msg_match::prefilter`). Service streams are
    /// self-matching, so this stays 0 in healthy runs — a nonzero value
    /// means the shard is being fed traffic its posted side never
    /// requested.
    pub prefilter_rejections: u64,
    /// Times this shard took over a down peer's keys.
    pub failovers_in: u64,
    /// Times this shard's keys were routed away to a failover peer.
    pub failovers_out: u64,
    /// Planned migrations that moved a slot onto this shard.
    pub migrations_in: u64,
    /// Planned migrations that drained a slot off this shard.
    pub migrations_out: u64,
    /// Outstanding journaled entries this shard inherited through
    /// failover transfers (admitted elsewhere, matched here).
    pub transferred_in: u64,
    /// Times this shard's engine was swapped for a stricter one because
    /// an inherited stream required ordering its own engine relaxes.
    pub engine_fallbacks: u64,
    /// Trace events overwritten by the shard's bounded span recorder
    /// (0 when tracing is off or the ring never filled). Deterministic:
    /// the recorder sees the same virtual-time event stream in every
    /// scheduler interleaving.
    pub trace_dropped: u64,
    /// Crash-to-service-resumed recovery latency (seconds).
    pub recovery_seconds: Histogram,
    /// Distribution of batch sizes (messages per launch).
    pub batch_size: Histogram,
    /// Pending-queue depth sampled at dispatch time, just before each
    /// batch is popped.
    pub queue_depth: Histogram,
    /// Per-batch device service time (seconds).
    pub service_time: Histogram,
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
            arrivals: 0,
            admitted: 0,
            overflow: OverflowStats::default(),
            matched: 0,
            batches: 0,
            busy_seconds: 0.0,
            utilisation: 0.0,
            saturated: false,
            ever_spilled: false,
            crashes: 0,
            hangs: 0,
            partitions: 0,
            recoveries: 0,
            lost_batches: 0,
            checkpoints: 0,
            snapshot_restored: 0,
            journal_replayed: 0,
            replay_duplicates: 0,
            fenced_commits: 0,
            corrupt_checkpoints: 0,
            snapshot_fallbacks: 0,
            prefilter_rejections: 0,
            failovers_in: 0,
            failovers_out: 0,
            migrations_in: 0,
            migrations_out: 0,
            transferred_in: 0,
            engine_fallbacks: 0,
            trace_dropped: 0,
            recovery_seconds: Histogram::new(1e9),
            batch_size: Histogram::new(1.0),
            queue_depth: Histogram::new(1.0),
            service_time: Histogram::new(1e9),
            match_latency: Histogram::new(1e9),
            profile: EngineProfile::default(),
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// Tenant id (index into the run's `TenancyConfig` tenant list).
    pub tenant: u32,
    /// Human-readable tenant name from the config.
    pub name: String,
    /// QoS class label: `guaranteed` / `burstable` / `best_effort`.
    pub class: String,
    /// Streams (slots) the tenant owns.
    pub streams: u64,
    /// Messages that arrived for the tenant's streams.
    pub arrivals: u64,
    /// Arrivals admitted (journaled) across the tenant's streams.
    pub admitted: u64,
    /// Messages matched across the tenant's streams.
    pub matched: u64,
    /// The tenant's own spilled/shed accounting: `shed` counts quota
    /// rejections (and deadline sheds) of this tenant's traffic only.
    pub overflow: OverflowStats,
}

/// Whole-service snapshot: per-shard metrics plus run-level aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceMetrics {
    /// Simulated run duration (seconds).
    pub duration: f64,
    /// Aggregate offered load (messages/s).
    pub offered_rate: f64,
    /// Aggregate messages matched per second of simulated time.
    pub sustained_rate: f64,
    /// Messages matched across all shards.
    pub total_matched: u64,
    /// Messages spilled across all shards.
    pub total_spilled: u64,
    /// Messages shed by supervisor deadline enforcement, all shards.
    pub total_shed: u64,
    /// Injected crashes across all shards.
    pub total_crashes: u64,
    /// Completed recoveries across all shards.
    pub total_recoveries: u64,
    /// Failover reroutes across all shards (counted at the target).
    pub total_failovers: u64,
    /// Transport-level sequence duplicates dropped by the endpoints'
    /// reorder buffers ([`crate::ReorderBuffer`]); zero for service
    /// models that run without a transport underneath.
    pub reorder_duplicates: u64,
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
    pub fn from_shards(
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
            reorder_duplicates: 0,
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

    /// Parse a snapshot back from JSON.
    ///
    /// # Errors
    /// Malformed JSON or a shape mismatch.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(s)
    }

    /// True if any shard saturated.
    pub fn any_saturated(&self) -> bool {
        self.shards.iter().any(|s| s.saturated)
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Service-level aggregates become unlabelled gauges/counters;
    /// per-shard series carry `shard` and `engine` labels; stall and
    /// op-class rollups add a `class` label; histograms export
    /// cumulative `le` buckets (the `+Inf` bucket equals `_count`).
    pub fn to_prometheus(&self) -> String {
        use obs::prom::{Family, FamilyKind, HistogramSample, Sample};

        let shard_labels = |s: &ShardMetrics| {
            vec![
                ("shard".to_string(), s.shard.to_string()),
                ("engine".to_string(), s.engine.clone()),
            ]
        };
        let per_shard = |v: fn(&ShardMetrics) -> f64| -> Vec<Sample> {
            self.shards
                .iter()
                .map(|s| Sample {
                    labels: shard_labels(s),
                    value: v(s),
                })
                .collect()
        };
        let shard_hist = |h: fn(&ShardMetrics) -> &Histogram| -> Vec<HistogramSample> {
            self.shards
                .iter()
                .map(|s| {
                    let hist = h(s);
                    HistogramSample {
                        labels: shard_labels(s),
                        buckets: hist.prom_buckets(),
                        sum: hist.sum,
                        count: hist.count,
                    }
                })
                .collect()
        };
        let classed = |pairs: &dyn Fn(&ShardMetrics) -> Vec<(&'static str, u64)>| -> Vec<Sample> {
            self.shards
                .iter()
                .flat_map(|s| {
                    pairs(s).into_iter().map(move |(class, v)| Sample {
                        labels: {
                            let mut l = shard_labels(s);
                            l.push(("class".to_string(), class.to_string()));
                            l
                        },
                        value: v as f64,
                    })
                })
                .collect()
        };

        let unlabelled = |value: f64| {
            vec![Sample {
                labels: Vec::new(),
                value,
            }]
        };
        let mut families = vec![
            Family::scalar(
                "service_duration_seconds",
                "Simulated run duration",
                FamilyKind::Gauge,
                unlabelled(self.duration),
            ),
            Family::scalar(
                "service_offered_rate",
                "Aggregate offered load in messages per second",
                FamilyKind::Gauge,
                unlabelled(self.offered_rate),
            ),
            Family::scalar(
                "service_sustained_rate",
                "Aggregate matched messages per simulated second",
                FamilyKind::Gauge,
                unlabelled(self.sustained_rate),
            ),
            Family::scalar(
                "service_matched_total",
                "Messages matched across all shards",
                FamilyKind::Counter,
                unlabelled(self.total_matched as f64),
            ),
            Family::scalar(
                "service_spilled_total",
                "Messages spilled across all shards",
                FamilyKind::Counter,
                unlabelled(self.total_spilled as f64),
            ),
            Family::scalar(
                "service_shed_total",
                "Messages shed by deadline enforcement across all shards",
                FamilyKind::Counter,
                unlabelled(self.total_shed as f64),
            ),
            Family::scalar(
                "service_crashes_total",
                "Injected shard crashes across the run",
                FamilyKind::Counter,
                unlabelled(self.total_crashes as f64),
            ),
            Family::scalar(
                "service_recoveries_total",
                "Completed checkpoint/journal recoveries across the run",
                FamilyKind::Counter,
                unlabelled(self.total_recoveries as f64),
            ),
            Family::scalar(
                "service_failovers_total",
                "Supervisor failover reroutes across the run",
                FamilyKind::Counter,
                unlabelled(self.total_failovers as f64),
            ),
            Family::scalar(
                "service_reorder_duplicates_total",
                "Transport sequence duplicates dropped by reorder buffers",
                FamilyKind::Counter,
                unlabelled(self.reorder_duplicates as f64),
            ),
            Family::scalar(
                "service_migrations_total",
                "Planned slot migrations completed by the reshard planner",
                FamilyKind::Counter,
                unlabelled(self.total_migrations as f64),
            ),
            Family::scalar(
                "service_migrations_aborted_total",
                "Planned migrations aborted before transfer",
                FamilyKind::Counter,
                unlabelled(self.aborted_migrations as f64),
            ),
            Family::scalar(
                "shard_arrivals_total",
                "Messages routed to the shard",
                FamilyKind::Counter,
                per_shard(|s| s.arrivals as f64),
            ),
            Family::scalar(
                "shard_admitted_total",
                "Arrivals admitted to the pending queue",
                FamilyKind::Counter,
                per_shard(|s| s.admitted as f64),
            ),
            Family::scalar(
                "shard_spilled_total",
                "Arrivals rejected at the admission queue",
                FamilyKind::Counter,
                per_shard(|s| s.overflow.spilled as f64),
            ),
            Family::scalar(
                "shard_shed_total",
                "Admitted arrivals dropped oldest-first past the deadline",
                FamilyKind::Counter,
                per_shard(|s| s.overflow.shed as f64),
            ),
            Family::scalar(
                "shard_matched_total",
                "Messages matched by the shard",
                FamilyKind::Counter,
                per_shard(|s| s.matched as f64),
            ),
            Family::scalar(
                "shard_batches_total",
                "Matching passes launched",
                FamilyKind::Counter,
                per_shard(|s| s.batches as f64),
            ),
            Family::scalar(
                "shard_busy_seconds_total",
                "Simulated seconds the shard's device spent matching",
                FamilyKind::Counter,
                per_shard(|s| s.busy_seconds),
            ),
            Family::scalar(
                "shard_utilisation",
                "Busy seconds over run duration",
                FamilyKind::Gauge,
                per_shard(|s| s.utilisation),
            ),
            Family::scalar(
                "shard_saturated",
                "1 when the backlog was still growing at the end of the run",
                FamilyKind::Gauge,
                per_shard(|s| if s.saturated { 1.0 } else { 0.0 }),
            ),
            Family::scalar(
                "shard_ever_spilled",
                "1 when admission control rejected at least one arrival",
                FamilyKind::Gauge,
                per_shard(|s| if s.ever_spilled { 1.0 } else { 0.0 }),
            ),
            Family::scalar(
                "shard_crashes_total",
                "Injected crashes the shard suffered",
                FamilyKind::Counter,
                per_shard(|s| s.crashes as f64),
            ),
            Family::scalar(
                "shard_hangs_total",
                "Injected hangs the shard suffered",
                FamilyKind::Counter,
                per_shard(|s| s.hangs as f64),
            ),
            Family::scalar(
                "shard_recoveries_total",
                "Completed checkpoint/journal recoveries",
                FamilyKind::Counter,
                per_shard(|s| s.recoveries as f64),
            ),
            Family::scalar(
                "shard_lost_batches_total",
                "In-flight batches destroyed by a crash before commit",
                FamilyKind::Counter,
                per_shard(|s| s.lost_batches as f64),
            ),
            Family::scalar(
                "shard_checkpoints_total",
                "Periodic state snapshots taken",
                FamilyKind::Counter,
                per_shard(|s| s.checkpoints as f64),
            ),
            Family::scalar(
                "shard_snapshot_restored_total",
                "Entries restored from checkpoint snapshots",
                FamilyKind::Counter,
                per_shard(|s| s.snapshot_restored as f64),
            ),
            Family::scalar(
                "shard_journal_replayed_total",
                "Journal entries replayed during recoveries",
                FamilyKind::Counter,
                per_shard(|s| s.journal_replayed as f64),
            ),
            Family::scalar(
                "shard_replay_duplicates_total",
                "Re-matched entries suppressed at commit (exactly-once)",
                FamilyKind::Counter,
                per_shard(|s| s.replay_duplicates as f64),
            ),
            Family::scalar(
                "shard_partitions_total",
                "Injected partition windows that cut the shard off",
                FamilyKind::Counter,
                per_shard(|s| s.partitions as f64),
            ),
            Family::scalar(
                "shard_fenced_commits_total",
                "Stale-epoch commits rejected by the failover fence",
                FamilyKind::Counter,
                per_shard(|s| s.fenced_commits as f64),
            ),
            Family::scalar(
                "shard_corrupt_checkpoints_total",
                "Stream snapshots hit by injected checkpoint corruption",
                FamilyKind::Counter,
                per_shard(|s| s.corrupt_checkpoints as f64),
            ),
            Family::scalar(
                "shard_snapshot_fallbacks_total",
                "Corrupt snapshot generations skipped at restore",
                FamilyKind::Counter,
                per_shard(|s| s.snapshot_fallbacks as f64),
            ),
            Family::scalar(
                "shard_prefilter_rejections_total",
                "Dispatch entries the pre-launch digest screen rejected",
                FamilyKind::Counter,
                per_shard(|s| s.prefilter_rejections as f64),
            ),
            Family::scalar(
                "shard_probe_dedups_total",
                "Duplicate wildcard probes served by scan-ballot reuse",
                FamilyKind::Counter,
                per_shard(|s| s.profile.probe_dedups as f64),
            ),
            Family::scalar(
                "shard_failovers_in_total",
                "Times the shard took over a down peer's keys",
                FamilyKind::Counter,
                per_shard(|s| s.failovers_in as f64),
            ),
            Family::scalar(
                "shard_failovers_out_total",
                "Times the shard's keys were routed to a failover peer",
                FamilyKind::Counter,
                per_shard(|s| s.failovers_out as f64),
            ),
            Family::scalar(
                "shard_transferred_in_total",
                "Outstanding entries inherited through failover transfers",
                FamilyKind::Counter,
                per_shard(|s| s.transferred_in as f64),
            ),
            Family::scalar(
                "shard_migrations_in_total",
                "Planned migrations that moved a slot onto the shard",
                FamilyKind::Counter,
                per_shard(|s| s.migrations_in as f64),
            ),
            Family::scalar(
                "shard_migrations_out_total",
                "Planned migrations that drained a slot off the shard",
                FamilyKind::Counter,
                per_shard(|s| s.migrations_out as f64),
            ),
            Family::scalar(
                "shard_engine_fallbacks_total",
                "Engine swaps to a stricter engine for inherited streams",
                FamilyKind::Counter,
                per_shard(|s| s.engine_fallbacks as f64),
            ),
            Family::scalar(
                "shard_trace_dropped_total",
                "Trace events overwritten by the shard's bounded recorder",
                FamilyKind::Counter,
                per_shard(|s| s.trace_dropped as f64),
            ),
            Family::scalar(
                "shard_kernel_launches_total",
                "Kernel launches performed by the shard",
                FamilyKind::Counter,
                per_shard(|s| s.profile.launches as f64),
            ),
            Family::scalar(
                "shard_kernel_cycles_total",
                "Simulated device cycles across the shard's launches",
                FamilyKind::Counter,
                per_shard(|s| s.profile.cycles as f64),
            ),
            Family::scalar(
                "shard_instructions_total",
                "Warp instructions executed by the shard",
                FamilyKind::Counter,
                per_shard(|s| s.profile.instructions as f64),
            ),
            Family::scalar(
                "shard_stall_cycles_total",
                "Critical-path cycles attributed per stall class",
                FamilyKind::Counter,
                classed(&|s| s.profile.stall_breakdown().to_vec()),
            ),
            Family::scalar(
                "shard_class_instructions_total",
                "Instructions executed per op class",
                FamilyKind::Counter,
                classed(&|s| s.profile.instruction_mix().to_vec()),
            ),
            Family::histogram(
                "shard_recovery_seconds",
                "Crash-to-service-resumed recovery latency",
                shard_hist(|s| &s.recovery_seconds),
            ),
            Family::histogram(
                "shard_batch_size",
                "Messages per matching pass",
                shard_hist(|s| &s.batch_size),
            ),
            Family::histogram(
                "shard_queue_depth",
                "Pending-queue depth sampled at dispatch",
                shard_hist(|s| &s.queue_depth),
            ),
            Family::histogram(
                "shard_service_time_seconds",
                "Per-batch device service time",
                shard_hist(|s| &s.service_time),
            ),
            Family::histogram(
                "shard_match_latency_seconds",
                "Arrival-to-match latency",
                shard_hist(|s| &s.match_latency),
            ),
        ];
        if !self.tenants.is_empty() {
            let tenant_labels = |t: &TenantMetrics| {
                vec![
                    ("tenant".to_string(), t.name.clone()),
                    ("class".to_string(), t.class.clone()),
                ]
            };
            let per_tenant = |v: fn(&TenantMetrics) -> f64| -> Vec<Sample> {
                self.tenants
                    .iter()
                    .map(|t| Sample {
                        labels: tenant_labels(t),
                        value: v(t),
                    })
                    .collect()
            };
            families.extend([
                Family::scalar(
                    "tenant_streams",
                    "Streams (slots) the tenant owns",
                    FamilyKind::Gauge,
                    per_tenant(|t| t.streams as f64),
                ),
                Family::scalar(
                    "tenant_arrivals_total",
                    "Messages that arrived for the tenant's streams",
                    FamilyKind::Counter,
                    per_tenant(|t| t.arrivals as f64),
                ),
                Family::scalar(
                    "tenant_admitted_total",
                    "Arrivals admitted across the tenant's streams",
                    FamilyKind::Counter,
                    per_tenant(|t| t.admitted as f64),
                ),
                Family::scalar(
                    "tenant_matched_total",
                    "Messages matched across the tenant's streams",
                    FamilyKind::Counter,
                    per_tenant(|t| t.matched as f64),
                ),
                Family::scalar(
                    "tenant_spilled_total",
                    "The tenant's arrivals rejected for lack of physical queue space",
                    FamilyKind::Counter,
                    per_tenant(|t| t.overflow.spilled as f64),
                ),
                Family::scalar(
                    "tenant_shed_total",
                    "The tenant's arrivals shed by its own quota or the deadline",
                    FamilyKind::Counter,
                    per_tenant(|t| t.overflow.shed as f64),
                ),
            ]);
        }
        obs::prom::render(&families)
    }
}

/// One shard's wall-clock profile: where the host's time went while
/// the scheduler ran this shard, decomposed into the four
/// [`obs::wallprof::WallBucket`]s. All values are measured wall
/// nanoseconds — nondeterministic by nature, which is why this struct
/// lives in [`crate::ShardedServiceReport`] and never inside
/// [`ServiceMetrics`] (whose JSON the differential tests byte-compare).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardWallProfile {
    /// Shard index.
    pub shard: usize,
    /// Scheduler epochs the shard participated in.
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
    /// Sum of the four buckets (equals [`total_ns`](Self::total_ns) by
    /// residual construction; the sum-identity test pins the gap ≤1%).
    pub fn bucket_sum_ns(&self) -> u64 {
        self.compute_ns + self.barrier_wait_ns + self.backpressure_ns + self.supervisor_sync_ns
    }

    /// `(bucket label, ns)` pairs in [`obs::wallprof::WallBucket::ALL`]
    /// order.
    pub fn buckets(&self) -> [(&'static str, u64); 4] {
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerProfile {
    /// Scheduler the run used (`"global_clock"` / `"thread_per_shard"`).
    pub scheduler: String,
    /// Wall seconds for the whole run (same value as
    /// `ShardedServiceReport::wall_seconds`).
    pub wall_seconds: f64,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardWallProfile>,
}

impl SchedulerProfile {
    /// Total wall ns across shards per bucket, in bucket order.
    pub fn totals(&self) -> [(&'static str, u64); 4] {
        let mut t = [
            ("compute", 0u64),
            ("barrier_wait", 0),
            ("backpressure", 0),
            ("supervisor_sync", 0),
        ];
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
        use obs::prom::{Family, FamilyKind, Sample};
        let bucketed: Vec<Sample> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.buckets().into_iter().map(move |(bucket, ns)| Sample {
                    labels: vec![
                        ("shard".to_string(), s.shard.to_string()),
                        ("bucket".to_string(), bucket.to_string()),
                    ],
                    value: ns as f64,
                })
            })
            .collect();
        let per_shard = |v: fn(&ShardWallProfile) -> f64| -> Vec<Sample> {
            self.shards
                .iter()
                .map(|s| Sample {
                    labels: vec![("shard".to_string(), s.shard.to_string())],
                    value: v(s),
                })
                .collect()
        };
        let families = vec![
            Family::scalar(
                "scheduler_wall_seconds",
                "Wall-clock duration of the run",
                FamilyKind::Gauge,
                vec![Sample {
                    labels: vec![("scheduler".to_string(), self.scheduler.clone())],
                    value: self.wall_seconds,
                }],
            ),
            Family::scalar(
                "scheduler_shard_epochs_total",
                "Scheduler epochs the shard participated in",
                FamilyKind::Counter,
                per_shard(|s| s.epochs as f64),
            ),
            Family::scalar(
                "scheduler_shard_wall_ns_total",
                "Measured wall nanoseconds across the shard's epochs",
                FamilyKind::Counter,
                per_shard(|s| s.total_ns as f64),
            ),
            Family::scalar(
                "scheduler_shard_bucket_ns_total",
                "Wall nanoseconds attributed per scheduler bucket",
                FamilyKind::Counter,
                bucketed,
            ),
            Family::scalar(
                "scheduler_barrier_wait_fraction",
                "Fraction of summed shard wall time idle at the epoch barrier",
                FamilyKind::Gauge,
                vec![Sample {
                    labels: Vec::new(),
                    value: self.barrier_wait_fraction(),
                }],
            ),
        ];
        obs::prom::render(&families)
    }
}

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
            reorder_duplicates: 4,
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
        assert!(text.contains("service_reorder_duplicates_total 4"));
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
        let back: SchedulerProfile = serde::json::from_str(&p.to_json()).unwrap();
        assert_eq!(back, p);
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
            reorder_duplicates: 9,
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
        let back = ServiceMetrics::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }
}
