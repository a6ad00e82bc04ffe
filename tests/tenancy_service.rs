//! Multi-tenant differentials: QoS isolation under a saturating noisy
//! neighbour, live resharding's byte-equality against a static run
//! with the final placement, migration × crash interaction, and
//! scheduler-independence of every tenancy artefact.
//!
//! The oracles mirror the repo's existing differential style: bounded
//! capacity makes isolation observable (the best-effort aggressor must
//! absorb every shed), while lossless drain-mode configs make
//! byte-equality of per-stream completion sequences the exactly-once
//! witness for migrations — nothing lost when a slot's journal window
//! moves, nothing doubled when replay and transfer overlap.

use gpu_msg::{
    ArrivalPattern, FaultEvent, FaultKind, FaultPlan, FaultTolerance, QosClass, RecoveryConfig,
    Scheduler, ServiceEngine, ServiceMetrics, ShardEnginePolicy, ShardedMatchService,
    ShardedServiceConfig, TenancyConfig, TenantSpec,
};
use integration_support::hot_cold_tenancy;
use simt_sim::GpuGeneration;

const GEN: GpuGeneration = GpuGeneration::PascalGtx1080;

const SCHEDULERS: [Scheduler; 2] = [Scheduler::GlobalClock, Scheduler::ThreadPerShard];

fn run_tenancy(
    cfg: ShardedServiceConfig,
    tenancy: TenancyConfig,
    ft: Option<FaultTolerance>,
    assignments: Option<Vec<usize>>,
) -> (Vec<Vec<u64>>, ServiceMetrics, Vec<usize>) {
    let mut svc = ShardedMatchService::with_tenancy(GEN, cfg, tenancy);
    if let Some(a) = assignments {
        svc.set_assignments(a);
    }
    svc.set_record_completions(true);
    svc.set_fault_tolerance(ft);
    let r = svc.run();
    let p = svc.placement();
    let finals = (0..p.slots()).map(|j| p.home_of_slot(j)).collect();
    (
        r.completions.expect("recording was enabled"),
        r.metrics,
        finals,
    )
}

/// A guaranteed tenant with modest, conformant traffic next to an
/// unmetered best-effort tenant offering far more than the service can
/// sustain. The fill limits must confine every loss to the aggressor.
fn isolation_setup(scheduler: Scheduler) -> (ShardedServiceConfig, TenancyConfig) {
    let cfg = ShardedServiceConfig {
        shards: 2,
        arrival_rate: 48.0e6,
        duration: 1.0e-3,
        queue_capacity: 1024,
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Matrix),
        seed: 11,
        scheduler,
        ..Default::default()
    };
    let tenancy = TenancyConfig::new(vec![
        TenantSpec {
            streams: 2,
            ..TenantSpec::new("gold", QosClass::Guaranteed, 0.02)
        },
        TenantSpec {
            streams: 2,
            pattern: ArrivalPattern::Bursty {
                period: 2.0e-4,
                duty: 0.5,
            },
            ..TenantSpec::new("noisy", QosClass::BestEffort, 0.98)
        },
    ]);
    (cfg, tenancy)
}

/// The isolation contract: a saturating best-effort tenant causes zero
/// shed and zero spill for the guaranteed tenant, under both
/// schedulers, with byte-identical artefacts between them.
#[test]
fn best_effort_saturation_cannot_touch_guaranteed_traffic() {
    let mut runs = Vec::new();
    for scheduler in SCHEDULERS {
        let (cfg, tenancy) = isolation_setup(scheduler);
        let (completions, metrics, _) = run_tenancy(cfg, tenancy, None, None);

        assert_eq!(metrics.tenants.len(), 2);
        let gold = &metrics.tenants[0];
        let noisy = &metrics.tenants[1];
        assert_eq!(gold.name, "gold");
        assert_eq!(gold.class, "guaranteed");
        assert_eq!(
            gold.overflow.shed, 0,
            "{scheduler:?}: guaranteed tenant must never be shed"
        );
        assert_eq!(
            gold.overflow.spilled, 0,
            "{scheduler:?}: headroom above the fill limits belongs to it"
        );
        assert_eq!(gold.admitted, gold.arrivals);
        assert!(
            noisy.overflow.shed > 0,
            "{scheduler:?}: the aggressor must be the one losing traffic"
        );
        assert!(
            noisy.arrivals > gold.arrivals,
            "{scheduler:?}: the aggressor must actually dominate the offered load"
        );
        // Tenant rows must reconcile with the shard-level totals.
        let tenant_shed: u64 = metrics.tenants.iter().map(|t| t.overflow.shed).sum();
        let tenant_spilled: u64 = metrics.tenants.iter().map(|t| t.overflow.spilled).sum();
        assert_eq!(tenant_shed, metrics.total_shed);
        assert_eq!(tenant_spilled, metrics.total_spilled);

        let prom = metrics.to_prometheus();
        assert!(prom.contains("tenant_shed_total{tenant=\"gold\",class=\"guaranteed\"} 0"));
        assert!(prom.contains("tenant_arrivals_total{tenant=\"noisy\",class=\"best_effort\"}"));
        runs.push((completions, metrics.to_json()));
    }
    assert_eq!(
        runs[0], runs[1],
        "tenancy artefacts must be byte-identical across schedulers"
    );
}

/// A two-shard skew: a hot tenant confined to shard 0 overloads it
/// while shard 1 idles, with the planner allowed to move slots.
/// Lossless (deep queues, unmetered, drain) so completion sequences
/// are placement-independent iff migration is exactly-once.
fn reshard_setup(scheduler: Scheduler) -> (ShardedServiceConfig, TenancyConfig) {
    let cfg = ShardedServiceConfig {
        shards: 2,
        arrival_rate: 8.0e6,
        duration: 1.0e-3,
        queue_capacity: 1 << 20,
        drain: true,
        policy: ShardEnginePolicy::Fixed(ServiceEngine::Hash),
        seed: 23,
        scheduler,
        ..Default::default()
    };
    (cfg, hot_cold_tenancy())
}

/// Live resharding must be invisible in the committed sequences: the
/// resharded run's completions byte-equal a run that started from the
/// final placement, under both schedulers.
#[test]
fn resharding_matches_static_run_with_final_placement() {
    let mut runs = Vec::new();
    for scheduler in SCHEDULERS {
        let (cfg, tenancy) = reshard_setup(scheduler);
        let (live, metrics, finals) = run_tenancy(cfg, tenancy.clone(), None, None);
        assert!(
            metrics.total_migrations >= 1,
            "{scheduler:?}: the skew must actually trigger a migration"
        );
        assert!(
            finals.contains(&1) && finals.len() == 3,
            "{scheduler:?}: a hot slot must have moved off shard 0: {finals:?}"
        );
        assert!(
            metrics.shards[1].transferred_in > 0,
            "{scheduler:?}: the journal window must have moved with the slot"
        );

        let static_tenancy = TenancyConfig {
            reshard: None,
            ..tenancy
        };
        let (fixed, static_metrics, static_finals) =
            run_tenancy(cfg, static_tenancy, None, Some(finals.clone()));
        assert_eq!(static_finals, finals, "static run must not re-place");
        assert_eq!(static_metrics.total_migrations, 0);
        assert_eq!(
            live, fixed,
            "{scheduler:?}: post-migration completions must byte-equal the static placement"
        );
        runs.push((live, metrics.to_json()));
    }
    assert_eq!(
        runs[0], runs[1],
        "resharding artefacts must be byte-identical across schedulers"
    );
}

/// Crashing either shard mid-run — including inside the migration
/// window — must leave the committed sequences identical to the
/// fault-free resharding run: recovery replays the journal, and the
/// pending migration either completes later or aborts cleanly.
#[test]
fn migration_crash_interaction_recovers_exactly_once() {
    for scheduler in SCHEDULERS {
        let (cfg, tenancy) = reshard_setup(scheduler);
        let (want, clean_m, _) = run_tenancy(cfg, tenancy.clone(), None, None);
        assert!(clean_m.total_migrations >= 1);

        for shard in 0..2 {
            for frac in [0.15, 0.45, 0.75] {
                let ft = FaultTolerance {
                    plan: FaultPlan::new(vec![FaultEvent {
                        at: frac * cfg.duration,
                        shard,
                        kind: FaultKind::Crash,
                    }]),
                    recovery: RecoveryConfig::default(),
                    supervisor: None,
                };
                let (got, m, _) = run_tenancy(cfg, tenancy.clone(), Some(ft), None);
                assert_eq!(
                    got, want,
                    "{scheduler:?}: crash of shard {shard} at {frac}×duration must be invisible"
                );
                assert_eq!(m.total_crashes, 1);
                assert_eq!(m.total_recoveries, 1);
                assert_eq!(
                    m.total_matched, clean_m.total_matched,
                    "{scheduler:?}: replay may re-match but never re-commit"
                );
            }
        }

        // Byte-determinism of the faulty resharding run per seed.
        let ft = || FaultTolerance {
            plan: FaultPlan::new(vec![FaultEvent {
                at: 0.45 * cfg.duration,
                shard: 0,
                kind: FaultKind::Crash,
            }]),
            recovery: RecoveryConfig::default(),
            supervisor: None,
        };
        let (ca, ma, fa) = run_tenancy(cfg, tenancy.clone(), Some(ft()), None);
        let (cb, mb, fb) = run_tenancy(cfg, tenancy.clone(), Some(ft()), None);
        assert_eq!(ca, cb);
        assert_eq!(fa, fb);
        assert_eq!(ma.to_json(), mb.to_json(), "artefact bytes must match");
    }
}

/// Per-stream FIFO survives tenancy and migration: every committed
/// sequence is dense and ascending in the lossless resharding run.
#[test]
fn migrated_streams_keep_per_stream_fifo() {
    let (cfg, tenancy) = reshard_setup(Scheduler::GlobalClock);
    let (completions, metrics, _) = run_tenancy(cfg, tenancy, None, None);
    assert!(metrics.total_migrations >= 1);
    assert_eq!(metrics.total_shed, 0, "lossless config must not shed");
    assert_eq!(metrics.total_spilled, 0, "lossless config must not spill");
    for stream in &completions {
        for (i, &seq) in stream.iter().enumerate() {
            assert_eq!(seq, i as u64, "commit order must stay FIFO per stream");
        }
    }
}
