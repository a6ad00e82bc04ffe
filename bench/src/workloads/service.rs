//! `svc-matrix`, `svc-hash`, `svc-faulted`: the sharded streaming match
//! service at a fixed offered rate, driven through
//! `ShardedMatchService::{new, with_tenancy, run}` only.

use std::time::Instant;

use gpu_msg::{
    FaultKind, FaultPlan, FaultRates, FaultTolerance, Histogram, QosClass, RecoveryConfig,
    ReshardPolicy, Scheduler, ServiceEngine, ShardEnginePolicy, ShardMetrics, ShardedMatchService,
    ShardedServiceConfig, ShardedServiceReport, SupervisorConfig, TenancyConfig, TenantSpec,
};
use msg_match::prelude::*;
use serde::Serialize;
use simt_sim::Gpu;

use crate::layers::{self, GENERATION};
use crate::metrics::Values;
use crate::stats::{self, Rung};
use crate::trace::Tracer;
use crate::workloads::{LayerCtx, Rep, Workload};

/// An ascending offered-rate ladder and the latency limit its knee must
/// meet.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Lowest offered rate (msgs/s).
    pub first: f64,
    /// Rate increment between rungs (msgs/s).
    pub step: f64,
    /// Highest offered rate (msgs/s).
    pub last: f64,
    /// Simulated seconds per rung.
    pub duration: f64,
    /// p99 match-latency limit (seconds) a rung must meet to count.
    pub p99_limit: f64,
}

/// One engine micro-point the paper reports, the simulator's accuracy
/// guard: `len` messages through the workload's engine in one batch.
#[derive(Debug, Clone, Copy)]
pub struct PaperPoint {
    /// Batch length.
    pub len: usize,
    /// Unique `{src, tag}` tuples (Figure 6(b)) instead of the
    /// fully-matching random tuples of Figure 4.
    pub unique_tuples: bool,
    /// Matches/s the paper reports for the GTX 1080.
    pub paper_rate: f64,
}

/// Constants of one service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Engine pinned on every shard.
    pub engine: ServiceEngine,
    /// Shard count.
    pub shards: usize,
    /// Scheduler mode (also fixes the host thread count).
    pub scheduler: Scheduler,
    /// Fixed offered rate of the timed repetitions (msgs/s).
    pub rate: f64,
    /// Simulated seconds per repetition.
    pub duration: f64,
    /// Tenancy, live resharding, drain mode and the five-kind fault soup.
    pub faulted: bool,
    /// Capacity ladder, where the workload reports a knee.
    pub ladder: Option<Ladder>,
    /// Paper micro-point, where the workload guards simulator accuracy.
    pub paper: Option<PaperPoint>,
}

/// `svc-matrix`: 10 M msgs/s × 4 ms ≈ 40 k msgs per repetition on two
/// shard threads (= `nproc` on the reference host). The ladder brackets
/// the ~13 M/s knee the 10 M/s source hides; 200 µs is roughly twice the
/// p99 at the fixed rate, so the limit binds only near saturation.
pub const SVC_MATRIX: ServiceSpec = ServiceSpec {
    engine: ServiceEngine::Matrix,
    shards: 2,
    scheduler: Scheduler::ThreadPerShard,
    rate: 10.0e6,
    duration: 4.0e-3,
    faulted: false,
    ladder: Some(Ladder {
        first: 4.0e6,
        step: 1.0e6,
        last: 16.0e6,
        duration: 4.0e-3,
        p99_limit: 200.0e-6,
    }),
    paper: Some(PaperPoint {
        len: 512,
        unique_tuples: false,
        paper_rate: 6.0e6,
    }),
};

/// `svc-hash`: 400 M msgs/s × 2 ms ≈ 800 k msgs per repetition, four
/// shard domains merged on the calling thread. The ladder runs past the
/// ~1.4–1.6 G/s capacity of four hash shards (the issue's 1.4 G top rung
/// never saturates, which would report the ladder's end as the knee);
/// rungs simulate 0.5 ms so the whole ladder stays near 2.5 s of host
/// time. 10 µs is ~2.5× the p99 at the fixed rate.
pub const SVC_HASH: ServiceSpec = ServiceSpec {
    engine: ServiceEngine::Hash,
    shards: 4,
    scheduler: Scheduler::GlobalClock,
    rate: 400.0e6,
    duration: 2.0e-3,
    faulted: false,
    ladder: Some(Ladder {
        first: 400.0e6,
        step: 200.0e6,
        last: 1.8e9,
        duration: 0.5e-3,
        p99_limit: 10.0e-6,
    }),
    paper: Some(PaperPoint {
        len: 1024,
        unique_tuples: true,
        paper_rate: 500.0e6,
    }),
};

/// `svc-faulted`: 32 M msgs/s × 4 ms = 128 k msgs per repetition through
/// the tenanted, resharding, fault-tolerant configuration of the chaos
/// orchestrator (hot/cold guaranteed tenants, two events of each of the
/// five fault kinds, default recovery and supervisor).
pub const SVC_FAULTED: ServiceSpec = ServiceSpec {
    engine: ServiceEngine::Hash,
    shards: 2,
    scheduler: Scheduler::GlobalClock,
    rate: 32.0e6,
    duration: 4.0e-3,
    faulted: true,
    ladder: None,
    paper: None,
};

/// Expected events of each fault kind per repetition.
const FAULT_SCALE: f64 = 2.0;
/// Fault kinds the soup must land.
const FAULT_CLASSES: u64 = 5;
/// Candidate soups tried per seed. A random soup misses a kind for about
/// one seed in eight (a hang striking a shard that is already down, a
/// corruption before the first checkpoint); the workload is defined as
/// the first candidate that lands all five.
const FAULT_PLAN_ATTEMPTS: u64 = 16;
/// Flow tracing samples one message in this many in the `obs` overhead
/// probe (the service's documented operating point).
const OBS_FLOW_SAMPLE_EVERY: u32 = 64;

impl ServiceSpec {
    /// Canonical text of every constant (hashed into the context block).
    pub fn constants(&self) -> String {
        format!(
            "{self:?} cfg={:?} tenancy={:?} rates={:?} plan_attempts={:?} recovery={:?} supervisor={:?}",
            self.config(0, self.rate),
            self.faulted.then(tenancy),
            self.faulted.then(fault_rates),
            self.faulted.then_some(FAULT_PLAN_ATTEMPTS),
            RecoveryConfig::default(),
            SupervisorConfig::default(),
        )
    }

    fn config(&self, seed: u64, rate: f64) -> ShardedServiceConfig {
        ShardedServiceConfig {
            shards: self.shards,
            arrival_rate: rate,
            duration: self.duration,
            policy: ShardEnginePolicy::Fixed(self.engine),
            scheduler: self.scheduler,
            seed,
            // Lossless drain mode makes the committed set a pure function
            // of the arrival schedule: the exactly-once oracle.
            drain: self.faulted,
            queue_capacity: if self.faulted { 1 << 20 } else { 1 << 14 },
            ..Default::default()
        }
    }

    fn choice(&self) -> EngineChoice {
        match self.engine {
            ServiceEngine::Matrix => EngineChoice::Matrix,
            ServiceEngine::Partitioned(queues) => EngineChoice::Partitioned { queues },
            ServiceEngine::Hash => EngineChoice::Hash,
        }
    }

    /// Build the service for `cfg`; a faulted workload gets tenancy and
    /// completion recording, and the fault-tolerance stack when `plan`
    /// is given (the fault-free oracle runs without one).
    fn build(&self, cfg: ShardedServiceConfig, plan: Option<&FaultPlan>) -> ShardedMatchService {
        if !self.faulted {
            return ShardedMatchService::new(GENERATION, cfg);
        }
        let mut svc = ShardedMatchService::with_tenancy(GENERATION, cfg, tenancy());
        svc.set_record_completions(true);
        if let Some(plan) = plan {
            svc.set_fault_tolerance(Some(FaultTolerance {
                plan: plan.clone(),
                recovery: RecoveryConfig::default(),
                supervisor: Some(SupervisorConfig::default()),
            }));
        }
        svc
    }
}

/// A hot tenant pinned to shard 0 next to a cold one on shard 1, with the
/// planner allowed to move slots: the skew keeps live migration in play.
/// Both are guaranteed-class, so any loss is a guaranteed-class loss.
fn tenancy() -> TenancyConfig {
    TenancyConfig {
        reshard: Some(ReshardPolicy {
            tick: 5.0e-5,
            min_imbalance: 32,
            max_migrations: 2,
        }),
        ..TenancyConfig::new(vec![
            TenantSpec {
                streams: 2,
                shard_set: vec![0],
                ..TenantSpec::new("hot", QosClass::Guaranteed, 0.875)
            },
            TenantSpec {
                shard_set: vec![1],
                ..TenantSpec::new("cold", QosClass::Guaranteed, 0.125)
            },
        ])
    }
}

fn fault_rates() -> FaultRates {
    let per_class = FAULT_SCALE / SVC_FAULTED.duration;
    FaultRates {
        crash_rate: per_class,
        hang_rate: per_class,
        slow_rate: per_class,
        partition_rate: per_class,
        corrupt_rate: per_class,
        ..Default::default()
    }
}

/// The `attempt`-th candidate fault soup for `seed`.
fn fault_plan(seed: u64, attempt: u64) -> FaultPlan {
    FaultPlan::random(
        seed.wrapping_mul(0x9E37_79B9)
            .wrapping_add(17)
            .wrapping_add(attempt.wrapping_mul(0x85EB_CA6B)),
        SVC_FAULTED.shards,
        SVC_FAULTED.duration,
        &fault_rates(),
    )
}

/// Fault kinds that demonstrably struck. Slow windows leave no counter
/// behind, so a scheduled one counts.
fn classes_landed(plan: &FaultPlan, shards: &[ShardMetrics]) -> u64 {
    let slow_planned = plan
        .events()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::Slow { .. }));
    u64::from(sum(shards, |s| s.crashes) > 0)
        + u64::from(sum(shards, |s| s.hangs) > 0)
        + u64::from(sum(shards, |s| s.partitions) > 0)
        + u64::from(sum(shards, |s| s.corrupt_checkpoints) > 0)
        + u64::from(slow_planned)
}

fn sum(shards: &[ShardMetrics], f: fn(&ShardMetrics) -> u64) -> u64 {
    shards.iter().map(f).sum()
}

fn merged(shards: &[ShardMetrics], f: fn(&ShardMetrics) -> &Histogram) -> Histogram {
    let mut h = f(&shards[0]).clone();
    for s in &shards[1..] {
        h.merge(f(s));
    }
    h
}

/// The shard that matched the most messages: its latency histogram is
/// the one a user of the service waits on.
fn busiest(shards: &[ShardMetrics]) -> &ShardMetrics {
    shards
        .iter()
        .max_by_key(|s| (s.matched, std::cmp::Reverse(s.shard)))
        .expect("a service has at least one shard")
}

/// A service workload set up for one seed.
pub struct ServiceWorkload {
    spec: &'static ServiceSpec,
    seed: u64,
    svc: ShardedMatchService,
    /// The fault soup (`svc-faulted`).
    plan: Option<FaultPlan>,
    /// Fault-free committed sequences per stream (`svc-faulted`).
    oracle: Option<Vec<Vec<u64>>>,
    /// `|engine micro-point − paper| ÷ paper`, in percent.
    paper_err_pct: Option<f64>,
    last: Option<ShardedServiceReport>,
    /// Scheduler wall buckets (compute, barrier wait, backpressure,
    /// supervisor sync) summed over every repetition so far.
    sched_ns: [u64; 4],
    /// Host microseconds of each traced repetition's metrics export.
    export_us: Vec<f64>,
}

impl ServiceWorkload {
    /// Everything `setup_s` times: service construction, the oracle (the
    /// fault-free run, or the engine micro-point) and one warm-up
    /// repetition.
    pub fn setup(spec: &'static ServiceSpec, seed: u64, tr: &mut Tracer) -> Self {
        let cfg = spec.config(seed, spec.rate);
        let oracle = spec.faulted.then(|| {
            tr.span("gpu_msg.service.run", |_| spec.build(cfg, None).run())
                .completions
                .expect("completion recording was enabled")
        });
        let paper_err_pct = spec.paper.map(|p| {
            tr.span("msg_match.engine.replay", |_| {
                paper_point_err_pct(spec.choice(), p, seed)
            })
        });
        // Construction and the warm-up repetition; a faulted workload
        // repeats both until its soup lands every fault kind.
        let mut attempt = 0;
        let (plan, svc) = loop {
            let plan = spec.faulted.then(|| fault_plan(seed, attempt));
            let mut svc = tr.span("gpu_msg.service.new", |_| spec.build(cfg, plan.as_ref()));
            let warm = svc.run();
            attempt += 1;
            let landed = plan
                .as_ref()
                .is_none_or(|p| classes_landed(p, &warm.metrics.shards) == FAULT_CLASSES);
            if landed || attempt == FAULT_PLAN_ATTEMPTS {
                break (plan, svc);
            }
        };
        ServiceWorkload {
            spec,
            seed,
            svc,
            plan,
            oracle,
            paper_err_pct,
            last: None,
            sched_ns: [0; 4],
            export_us: Vec::new(),
        }
    }

    /// Mismatches between a repetition's outputs and the oracles.
    fn verify(&self, r: &ShardedServiceReport) -> u64 {
        let m = &r.metrics;
        let mut bad = 0u64;
        // Conservation and partition identities of every shard.
        for s in &m.shards {
            bad += u64::from(s.admitted + s.overflow.spilled != s.arrivals);
            bad += u64::from(s.match_latency.count != s.matched);
            bad += u64::from(s.profile.stall_total() != s.profile.cycles);
        }
        // Failover and migration move admitted work between shards, so
        // "nothing matched that was not admitted" holds service-wide.
        bad += u64::from(m.total_matched > sum(&m.shards, |s| s.admitted));
        bad += u64::from(r.aggregate.saturated);
        let Some(want) = &self.oracle else {
            return bad;
        };
        let got = r
            .completions
            .as_ref()
            .expect("completion recording was enabled");
        // Exactly-once: byte-equal to the fault-free run, stream by stream.
        bad += if got.len() == want.len() {
            got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
        } else {
            got.len().abs_diff(want.len()) as u64
        };
        // Per-stream FIFO: dense ascending sequence numbers.
        bad += got
            .iter()
            .filter(|stream| stream.iter().enumerate().any(|(i, &s)| s != i as u64))
            .count() as u64;
        bad += guaranteed_lost(want, got);
        let plan = self.plan.as_ref().expect("an oracle implies a fault plan");
        bad += FAULT_CLASSES - classes_landed(plan, &m.shards);
        bad
    }

    /// Simulated-clock values of a run, by metric name.
    fn sim_values(&self, r: &ShardedServiceReport) -> Vec<(&'static str, f64)> {
        let shards = r.metrics.shards.as_slice();
        let hot = busiest(shards);
        let instr = sum(shards, |s| s.profile.instructions) as f64;
        let cycles = sum(shards, |s| s.profile.cycles).max(1) as f64;
        let launches = sum(shards, |s| s.profile.launches);
        let matched = r.metrics.total_matched.max(1) as f64;
        let mut v = vec![
            ("sim_msgs_per_s", r.aggregate.sustained_rate),
            ("sim_match_latency_p50_us", hot.match_latency.p50() * 1e6),
            ("sim_match_latency_p99_us", hot.match_latency.p99() * 1e6),
            ("simt_sim.exec.warp_instr_per_msg", instr / matched),
            ("simt_sim.exec.launches", launches as f64),
            (
                "simt_sim.exec.instr_per_launch",
                instr / launches.max(1) as f64,
            ),
            (
                "simt_sim.stall.issue_share",
                sum(shards, |s| s.profile.stall_issue) as f64 / cycles,
            ),
            (
                "simt_sim.stall.mem_dependency_share",
                sum(shards, |s| s.profile.stall_mem_dependency) as f64 / cycles,
            ),
            (
                "simt_sim.stall.barrier_share",
                sum(shards, |s| s.profile.stall_barrier) as f64 / cycles,
            ),
            (
                "simt_sim.stall.occupancy_wait_share",
                sum(shards, |s| s.profile.stall_occupancy_wait) as f64 / cycles,
            ),
            (
                "simt_sim.stall.pipe_contention_share",
                sum(shards, |s| s.profile.stall_pipe_contention) as f64 / cycles,
            ),
            (
                "gpu_msg.service.batch_size_p50",
                merged(shards, |s| &s.batch_size).p50(),
            ),
            (
                "gpu_msg.service.queue_depth_p99",
                merged(shards, |s| &s.queue_depth).p99(),
            ),
            ("gpu_msg.service.utilisation", r.aggregate.utilisation),
            ("gpu_msg.service.spilled", r.metrics.total_spilled as f64),
            ("gpu_msg.service.shed", r.metrics.total_shed as f64),
        ];
        if let Some(want) = &self.oracle {
            let got = r.completions.as_ref().expect("recording was enabled");
            let recovered = merged(shards, |s| &s.recovery_seconds);
            v.extend([
                ("sim_recovery_p50_us", recovered.p50() * 1e6),
                (
                    "gpu_msg.recovery.recoveries",
                    r.metrics.total_recoveries as f64,
                ),
                (
                    "gpu_msg.recovery.checkpoints",
                    sum(shards, |s| s.checkpoints) as f64,
                ),
                (
                    "gpu_msg.recovery.journal_replayed",
                    sum(shards, |s| s.journal_replayed) as f64,
                ),
                (
                    "gpu_msg.recovery.replay_duplicates",
                    sum(shards, |s| s.replay_duplicates) as f64,
                ),
                (
                    "gpu_msg.recovery.snapshot_fallbacks",
                    sum(shards, |s| s.snapshot_fallbacks) as f64,
                ),
                (
                    "gpu_msg.recovery.fenced_commits",
                    sum(shards, |s| s.fenced_commits) as f64,
                ),
                (
                    "gpu_msg.supervisor.failovers",
                    r.metrics.total_failovers as f64,
                ),
                (
                    "gpu_msg.tenancy.migrations",
                    r.metrics.total_migrations as f64,
                ),
                (
                    "gpu_msg.tenancy.aborted_migrations",
                    r.metrics.aborted_migrations as f64,
                ),
                (
                    "gpu_msg.tenancy.guaranteed_lost",
                    guaranteed_lost(want, got) as f64,
                ),
                (
                    "gpu_msg.fault.classes_landed",
                    classes_landed(self.plan.as_ref().expect("faulted"), shards) as f64,
                ),
            ]);
        }
        v
    }

    /// Busiest-shard p99 match latency (seconds) with saturation and
    /// overflow of a fresh service at `rate` for `duration`.
    fn rung(&self, rate: f64, duration: f64) -> Rung {
        let cfg = ShardedServiceConfig {
            duration,
            ..self.spec.config(self.seed, rate)
        };
        let r = self.spec.build(cfg, self.plan.as_ref()).run();
        Rung {
            rate,
            p99: busiest(&r.metrics.shards).match_latency.p99(),
            saturated: r.aggregate.saturated,
            overflow: r.aggregate.overflow.total(),
        }
    }
}

fn guaranteed_lost(want: &[Vec<u64>], got: &[Vec<u64>]) -> u64 {
    let committed = |c: &[Vec<u64>]| c.iter().map(Vec::len).sum::<usize>() as u64;
    committed(want).saturating_sub(committed(got))
}

/// Run the paper micro-point through the workload's engine, verify the
/// assignment against the reference model, and return the relative error
/// of its simulated rate in percent.
fn paper_point_err_pct(choice: EngineChoice, p: PaperPoint, seed: u64) -> f64 {
    let w = if p.unique_tuples {
        WorkloadSpec::unique_tuples(p.len, seed)
    } else {
        WorkloadSpec::fully_matching(p.len, seed)
    }
    .generate();
    let mut gpu = Gpu::new(GENERATION);
    let report = MatchEngine::default()
        .match_with(&mut gpu, choice, &w.msgs, &w.reqs)
        .expect("paper micro-points carry no wildcards");
    let assignment: Vec<Option<usize>> = report
        .assignment
        .iter()
        .map(|a| a.map(|i| i as usize))
        .collect();
    let verdict = if choice == EngineChoice::Matrix {
        msg_match::reference::verify_mpi_matching(&w.msgs, &w.reqs, &assignment)
    } else {
        msg_match::reference::verify_valid_matching(&w.msgs, &w.reqs, &assignment)
    };
    verdict.expect("the engine's assignment must satisfy the reference model");
    assert_eq!(report.matches as usize, p.len, "micro-points fully match");
    (report.matches_per_sec - p.paper_rate).abs() / p.paper_rate * 100.0
}

impl Workload for ServiceWorkload {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let t = Instant::now();
        let r = tr.span("gpu_msg.service.run", |_| self.svc.run());
        let wall_s = t.elapsed().as_secs_f64();

        for (acc, (_, ns)) in self.sched_ns.iter_mut().zip(r.scheduler_profile.totals()) {
            *acc += ns;
        }
        let mismatches = tr.span("oracle.verify", |_| self.verify(&r));
        if tr.is_enabled() {
            // Export cost is priced once per traced repetition, outside
            // the repetition's own wall time.
            let t = Instant::now();
            tr.span("gpu_msg.metrics.export", |_| {
                std::hint::black_box(r.metrics.to_prometheus());
                std::hint::black_box(r.metrics.to_value());
            });
            self.export_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let m = &r.metrics;
        let rep = Rep {
            wall_s,
            msgs: m.total_matched,
            attempted: sum(&m.shards, |s| s.arrivals),
            failed: m.total_spilled + m.total_shed + mismatches,
            sim_instr: sum(&m.shards, |s| s.profile.instructions) as f64,
            sim: self.sim_values(&r),
        };
        self.last = Some(r);
        rep
    }

    fn layers(&mut self, tr: &mut Tracer, ctx: &LayerCtx) -> Values {
        let spec = self.spec;
        let last = self.last.take().expect("layers() follows a repetition");
        let shards = last.metrics.shards.as_slice();
        let mut v = Values::default();

        if let Some(err) = self.paper_err_pct {
            v.set("sim_paper_rate_err_pct", err);
        }

        // Replay the pinned engine at the run's median batch size.
        let batch_len = (merged(shards, |s| &s.batch_size).p50().round() as usize).max(1);
        let cfg = spec.config(self.seed, spec.rate);
        let batch = layers::self_matching_batch(batch_len, cfg.peers, 1 << 12, self.seed);
        let replay = layers::engine_replay(tr, spec.choice(), &batch, ctx.quick);
        replay.record(&mut v);

        // Service overhead: repetition wall minus the engine time on the
        // critical path (the slower shard under threads, all shards on
        // one thread otherwise), per message.
        let critical_instr = match spec.scheduler {
            Scheduler::ThreadPerShard => shards
                .iter()
                .map(|s| s.profile.instructions)
                .max()
                .unwrap_or(0),
            Scheduler::GlobalClock => sum(shards, |s| s.profile.instructions),
        };
        let engine_s = replay.ns_per_instr() * critical_instr as f64 * 1e-9;
        v.set(
            "gpu_msg.service.host_ns_per_msg_overhead",
            (ctx.rep_wall_s - engine_s) * 1e9 / last.metrics.total_matched.max(1) as f64,
        );

        let sched_total = self.sched_ns.iter().sum::<u64>().max(1) as f64;
        for (name, ns) in [
            "gpu_msg.sched.compute_share",
            "gpu_msg.sched.barrier_wait_share",
            "gpu_msg.sched.backpressure_share",
            "gpu_msg.sched.supervisor_sync_share",
        ]
        .into_iter()
        .zip(self.sched_ns)
        {
            v.set(name, ns as f64 / sched_total);
        }
        v.set(
            "gpu_msg.sched.epochs",
            last.scheduler_profile
                .shards
                .iter()
                .map(|s| s.epochs)
                .max()
                .unwrap_or(0) as f64,
        );
        if !self.export_us.is_empty() {
            v.set(
                "gpu_msg.metrics.export_host_us",
                stats::median(&self.export_us),
            );
        }

        // Second fixed rate: half the timed one.
        let half = self.rung(spec.rate / 2.0, spec.duration);
        v.set(
            "gpu_msg.service.match_latency_half_rate_p99_us",
            half.p99 * 1e6,
        );

        if let (Some(ladder), false) = (spec.ladder, ctx.quick) {
            let mut rungs = Vec::new();
            let mut rate = ladder.first;
            while rate <= ladder.last {
                let rung = self.rung(rate, ladder.duration);
                rungs.push(rung);
                if rung.saturated {
                    break;
                }
                rate += ladder.step;
            }
            for r in &rungs {
                println!(
                    "  ladder {:>7.1} M msgs/s: p99 {:>9.2} us  saturated {:<5} overflow {}",
                    r.rate / 1e6,
                    r.p99 * 1e6,
                    r.saturated,
                    r.overflow
                );
            }
            if let Some(knee) = stats::knee(&rungs, ladder.p99_limit) {
                v.set("sim_knee_msgs_per_s", knee);
            }
        }

        // Same configuration on one thread: what the shard threads buy.
        if spec.scheduler == Scheduler::ThreadPerShard {
            let mut single = spec.build(
                ShardedServiceConfig {
                    scheduler: Scheduler::GlobalClock,
                    ..cfg
                },
                self.plan.as_ref(),
            );
            let (wall, r) =
                layers::time_quiet(tr, "gpu_msg.service.run", ctx.quick, || single.run());
            assert_eq!(
                r.metrics, last.metrics,
                "both schedulers must produce identical metrics"
            );
            v.set("gpu_msg.sched.thread_speedup", wall / ctx.rep_wall_s);
        }

        // The repository's own tracing: spans on, 1-in-64 flows.
        let mut traced = spec.build(
            ShardedServiceConfig {
                trace: true,
                flow_sample_every: OBS_FLOW_SAMPLE_EVERY,
                ..cfg
            },
            self.plan.as_ref(),
        );
        let (wall, r) = layers::time_quiet(tr, "gpu_msg.service.run", ctx.quick, || traced.run());
        v.set(
            "obs.trace_overhead_share",
            (wall - ctx.rep_wall_s) / ctx.rep_wall_s,
        );
        v.set(
            "obs.spans_dropped",
            sum(&r.metrics.shards, |s| s.trace_dropped) as f64,
        );
        v
    }
}
