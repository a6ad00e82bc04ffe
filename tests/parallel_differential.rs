//! Differential test for the parallel scheduler: the thread-per-shard
//! execution of the sharded service must produce **byte-identical**
//! artefacts to the single-threaded global-clock execution — metrics
//! JSON, Prometheus exposition, per-stream completion order, and the
//! per-shard Perfetto timeline — for every engine the paper's
//! relaxation lattice offers, per seed, including under fault
//! injection and supervisor-driven failover.
//!
//! This is the property that makes the OS-thread scheduler safe to
//! ship: parallelism may only change wall-clock time, never a single
//! simulated byte. A property sweep additionally places a crash at an
//! arbitrary point in an arbitrary topology and re-checks equality.

use gpu_msg::{
    FaultEvent, FaultKind, FaultPlan, FaultTolerance, RecoveryConfig, Scheduler, ServiceEngine,
    ShardEnginePolicy, ShardedMatchService, ShardedServiceConfig, SupervisorConfig,
};
use proptest::prelude::*;
use simt_sim::GpuGeneration;

const GEN: GpuGeneration = GpuGeneration::PascalGtx1080;

/// The five GPU engine configurations under differential test (the CPU
/// baselines execute no kernels): matrix, partitioned at 4 and 16
/// queues, and the hash matcher under both communicator mixes.
fn engines() -> Vec<(&'static str, ServiceEngine, u16)> {
    vec![
        ("matrix", ServiceEngine::Matrix, 1),
        ("partitioned/4", ServiceEngine::Partitioned(4), 1),
        ("partitioned/16", ServiceEngine::Partitioned(16), 1),
        ("hash/comms=1", ServiceEngine::Hash, 1),
        ("hash/comms=2", ServiceEngine::Hash, 2),
    ]
}

fn cfg(engine: ServiceEngine, comms: u16, seed: u64, scheduler: Scheduler) -> ShardedServiceConfig {
    ShardedServiceConfig {
        shards: 3,
        arrival_rate: 4.0e6,
        duration: 1.0e-3,
        queue_capacity: 1 << 20,
        drain: true,
        policy: ShardEnginePolicy::Fixed(engine),
        comms,
        seed,
        trace: true,
        scheduler,
        ..Default::default()
    }
}

/// Every deterministic artefact of one run, in comparable (byte) form.
#[derive(PartialEq)]
struct Artefacts {
    metrics_json: String,
    prometheus: String,
    completions: Vec<Vec<u64>>,
    shard_trace: String,
}

impl std::fmt::Debug for Artefacts {
    /// Summarised (the JSON bodies run to tens of kilobytes; on
    /// mismatch the assert message should stay readable).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artefacts")
            .field("metrics_json_len", &self.metrics_json.len())
            .field("prometheus_len", &self.prometheus.len())
            .field("completions", &self.completions)
            .field("shard_trace_len", &self.shard_trace.len())
            .finish()
    }
}

fn run_artefacts(base: ShardedServiceConfig, ft: Option<FaultTolerance>) -> Artefacts {
    let mut svc = ShardedMatchService::new(GEN, base);
    svc.set_record_completions(true);
    svc.set_fault_tolerance(ft);
    let r = svc.run();
    Artefacts {
        metrics_json: r.metrics.to_json(),
        prometheus: r.metrics.to_prometheus(),
        completions: r.completions.expect("recording was enabled"),
        shard_trace: svc.trace_json().expect("tracing was enabled"),
    }
}

fn assert_schedulers_agree(
    label: &str,
    make: impl Fn(Scheduler) -> (ShardedServiceConfig, Option<FaultTolerance>),
) {
    let (gc_cfg, gc_ft) = make(Scheduler::GlobalClock);
    let (tp_cfg, tp_ft) = make(Scheduler::ThreadPerShard);
    let gc = run_artefacts(gc_cfg, gc_ft);
    let tp = run_artefacts(tp_cfg, tp_ft);
    assert_eq!(
        gc.metrics_json, tp.metrics_json,
        "{label}: metrics JSON must be byte-identical across schedulers"
    );
    assert_eq!(
        gc.prometheus, tp.prometheus,
        "{label}: Prometheus exposition must be byte-identical across schedulers"
    );
    assert_eq!(
        gc.completions, tp.completions,
        "{label}: per-stream completion order must be identical across schedulers"
    );
    assert_eq!(
        gc.shard_trace, tp.shard_trace,
        "{label}: per-shard Perfetto timeline must be byte-identical across schedulers"
    );
}

#[test]
fn schedulers_agree_fault_free_for_every_engine_and_seed() {
    for (name, engine, comms) in engines() {
        for seed in [5u64, 11] {
            assert_schedulers_agree(&format!("{name} seed={seed}"), |sched| {
                (cfg(engine, comms, seed, sched), None)
            });
        }
    }
}

#[test]
fn schedulers_agree_under_crash_injection_for_every_engine() {
    let crashes = || {
        Some(FaultTolerance {
            plan: FaultPlan::new(vec![
                FaultEvent {
                    at: 0.35e-3,
                    shard: 0,
                    kind: FaultKind::Crash,
                },
                FaultEvent {
                    at: 0.6e-3,
                    shard: 1,
                    kind: FaultKind::Crash,
                },
            ]),
            recovery: RecoveryConfig::default(),
            supervisor: None,
        })
    };
    for (name, engine, comms) in engines() {
        assert_schedulers_agree(&format!("{name} under crashes"), |sched| {
            (cfg(engine, comms, 7, sched), crashes())
        });
    }
}

#[test]
fn schedulers_agree_through_supervised_failover() {
    // A hang long enough for the supervisor to declare shard 0 down,
    // fail its stream over to shard 1, and hand it back — the barrier
    // machinery (redirects merging conflict groups, failover instants
    // written at coordinator ticks) under full load.
    let hang = || {
        Some(FaultTolerance {
            plan: FaultPlan::new(vec![FaultEvent {
                at: 0.3e-3,
                shard: 0,
                kind: FaultKind::Hang { seconds: 500e-6 },
            }]),
            recovery: RecoveryConfig::default(),
            supervisor: Some(SupervisorConfig::default()),
        })
    };
    let build = |sched| (cfg(ServiceEngine::Matrix, 1, 5, sched), hang());
    // The case must actually exercise failover, not vacuously agree.
    let (c, ft) = build(Scheduler::ThreadPerShard);
    let mut svc = ShardedMatchService::new(GEN, c);
    svc.set_fault_tolerance(ft);
    let r = svc.run();
    assert_eq!(
        r.metrics.total_failovers, 1,
        "fixture must drive one failover: {:?}",
        r.metrics.shards[0]
    );
    assert!(
        r.scheduler_profile.wall_seconds > 0.0,
        "wall clock must be measured"
    );
    assert_schedulers_agree("matrix under supervised hang failover", build);
}

#[test]
fn threaded_scheduler_reports_multi_group_epochs() {
    let mut svc = ShardedMatchService::new(
        GEN,
        cfg(ServiceEngine::Matrix, 1, 5, Scheduler::ThreadPerShard),
    );
    svc.run();
    let epochs = svc
        .scheduler_trace_json()
        .expect("tracing was enabled, so the coordinator records epochs");
    assert!(
        epochs.contains("\"cat\":\"epoch\""),
        "coordinator timeline must hold epoch spans: {epochs}"
    );
    // Fault-free identity placement: 3 singleton conflict groups on
    // their own OS threads inside one epoch.
    assert!(
        epochs.contains("\"groups\":3") && epochs.contains("\"threads\":3"),
        "threaded run must partition 3 shards into 3 groups: {epochs}"
    );
}

// Arbitrary topology, batching and crash point: both schedulers commit
// identical per-stream sequences and identical metrics.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn parallel_crash_sweep(
        shards in 1usize..5,
        threshold in 64usize..512,
        frac_pm in 50u32..950,
        victim in 0usize..16,
    ) {
        let frac = frac_pm as f64 / 1000.0;
        let base = |sched| ShardedServiceConfig {
            shards,
            arrival_rate: 3.0e6,
            duration: 0.8e-3,
            batch_threshold: threshold,
            queue_capacity: 1 << 20,
            drain: true,
            seed: 13,
            scheduler: sched,
            ..Default::default()
        };
        let ft = || Some(FaultTolerance {
            plan: FaultPlan::new(vec![FaultEvent {
                at: frac * 0.8e-3,
                shard: victim % shards,
                kind: FaultKind::Crash,
            }]),
            recovery: RecoveryConfig::default(),
            supervisor: None,
        });
        let run = |sched| {
            let mut svc = ShardedMatchService::new(GEN, base(sched));
            svc.set_record_completions(true);
            svc.set_fault_tolerance(ft());
            let r = svc.run();
            (r.completions.expect("recording on"), r.metrics.to_json())
        };
        let gc = run(Scheduler::GlobalClock);
        let tp = run(Scheduler::ThreadPerShard);
        prop_assert_eq!(gc.0, tp.0, "completions diverged");
        prop_assert_eq!(gc.1, tp.1, "metrics diverged");
    }
}
