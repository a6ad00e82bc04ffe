//! Observability report: one traced service run, exported every way the
//! unified observability layer knows.
//!
//! Runs the sharded streaming service with tracing enabled and emits:
//!
//! * the span + causal-flow timeline as Chrome `trace_event` JSON (load
//!   in `ui.perfetto.dev` or `chrome://tracing`),
//! * the metrics snapshot as a Prometheus text exposition,
//! * the dual-clock wall profile: a second Prometheus exposition plus
//!   wall-clock tracks spliced into the same trace document,
//! * a human-readable stall-attribution table: where each shard's
//!   device cycles went, by stall class,
//! * five small [`gpu_msg::Domain`]-over-fabric flow demos, one per
//!   matching engine, so a single `FlowId` can be followed from the
//!   send through packetization to the kernel match.
//!
//! The virtual-clock artefacts are fully deterministic (simulated
//! clock, fixed seed), so they are byte-identical across runs — CI
//! leans on that. The wall-clock artefacts are measurements and are
//! kept strictly apart.

use bytes::Bytes;
use gpu_msg::{
    Domain, DomainConfig, MatcherKind, ServiceMetrics, ShardEnginePolicy, ShardedMatchService,
    ShardedServiceConfig, ShardedServiceReport, TransportConfig,
};
use msg_match::{RecvRequest, RelaxationConfig};
use simt_sim::GpuGeneration;

use crate::table::Report;

/// Everything one traced run produces.
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// The service outcome (aggregate + per-shard metrics).
    pub report: ShardedServiceReport,
    /// Chrome `trace_event` JSON timeline (virtual clock only —
    /// byte-deterministic).
    pub trace_json: String,
    /// Prometheus text exposition of the metrics snapshot (virtual
    /// clock only — byte-deterministic).
    pub exposition: String,
    /// Wall-clock scheduler tracks as a trace document of their own
    /// (empty when the run was untraced). Measured, NOT deterministic.
    pub wall_trace_json: String,
    /// Prometheus text exposition of the dual-clock scheduler profile.
    /// Measured, NOT deterministic.
    pub wall_prom: String,
}

/// Default configuration: a small mixed-communicator service under the
/// auto engine policy, so the timeline shows more than one engine when
/// the traffic allows it.
pub fn default_config() -> ShardedServiceConfig {
    ShardedServiceConfig {
        shards: 4,
        arrival_rate: 6.0e6,
        comms: 2,
        duration: 0.002,
        policy: ShardEnginePolicy::Auto(RelaxationConfig::UNORDERED),
        trace: true,
        ..Default::default()
    }
}

/// Run the traced service and collect all the artefacts.
pub fn run(mut cfg: ShardedServiceConfig) -> ObsArtifacts {
    cfg.trace = true;
    let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, cfg);
    let report = svc.run();
    let trace_json = svc
        .trace_json()
        .expect("tracing is forced on for the obs report");
    let exposition = report.metrics.to_prometheus();
    let wall_trace_json = svc.wall_trace_json().unwrap_or_default();
    let wall_prom = report.scheduler_profile.to_prometheus();
    ObsArtifacts {
        report,
        trace_json,
        exposition,
        wall_trace_json,
        wall_prom,
    }
}

/// One engine's causal-flow demonstration trace.
#[derive(Debug, Clone)]
pub struct FlowDemo {
    /// Engine label (matches the matcher the domain ran).
    pub label: &'static str,
    /// Merged endpoint + fabric-link trace document for this demo.
    pub trace_json: String,
}

/// Run one tiny [`Domain`] per matching engine over a traced fabric
/// with flow sampling at 1-in-1, so the exported trace carries a
/// complete admission → packetize → delivery → match arrow chain for
/// every message. Track ids are offset per demo so the documents can
/// be [`obs::perfetto::merge`]d with the service trace.
pub fn flow_demos(seed: u64) -> Vec<FlowDemo> {
    let engines: [(&'static str, MatcherKind, RelaxationConfig, bool); 5] = [
        (
            "matrix",
            MatcherKind::Matrix,
            RelaxationConfig::FULL_MPI,
            false,
        ),
        (
            "partitioned x4",
            MatcherKind::Partitioned(4),
            RelaxationConfig::NO_WILDCARDS,
            false,
        ),
        (
            "partitioned x16",
            MatcherKind::Partitioned(16),
            RelaxationConfig::NO_WILDCARDS,
            false,
        ),
        (
            "hash",
            MatcherKind::Hash,
            RelaxationConfig::UNORDERED,
            false,
        ),
        (
            "hash+reorder",
            MatcherKind::Hash,
            RelaxationConfig::UNORDERED,
            true,
        ),
    ];
    let ranks = 4u32;
    engines
        .iter()
        .enumerate()
        .map(|(i, &(label, matcher, relax, restore_order))| {
            // Demo 0 shares no tracks with the service trace either:
            // service shard/coordinator/wall ids live below the
            // endpoint/fabric windows of instance 0.
            let base = obs::tracks::instance_base(i);
            let mut fc = fabric::FabricConfig {
                trace: true,
                trace_track_base: base,
                seed: seed.wrapping_add(i as u64),
                ..Default::default()
            };
            if restore_order {
                fc.order = fabric::DeliveryOrder::Unordered;
            }
            let mut cfg = DomainConfig::new(ranks, GpuGeneration::PascalGtx1080, matcher, relax);
            cfg.transport = TransportConfig::Fabric(fc);
            cfg.restore_order = restore_order;
            cfg.trace = true;
            cfg.flow_sample_every = 1;
            cfg.trace_track_base = base;
            let node = Domain::with_config(cfg);
            // Each rank sends a ring neighbourly burst: three eager
            // messages and one large enough to negotiate rendezvous and
            // fragment across several packets.
            for src in 0..ranks {
                let dst = (src + 1) % ranks;
                for k in 0..3u32 {
                    node.send(src, dst, 100 + k, 0, Bytes::from(vec![k as u8; 64]));
                }
                node.send(src, dst, 103, 0, Bytes::from(vec![src as u8; 4096]));
            }
            for dst in 0..ranks {
                let src = (dst + ranks - 1) % ranks;
                for k in 0..4u32 {
                    node.recv_blocking(dst, RecvRequest::exact(src, 100 + k, 0))
                        .unwrap_or_else(|e| panic!("{label} demo recv failed: {e}"));
                }
            }
            let endpoints = node
                .endpoint_trace_json()
                .expect("domain tracing was enabled");
            let links = node
                .transport_trace_json()
                .expect("fabric tracing was enabled");
            FlowDemo {
                label,
                trace_json: obs::perfetto::merge(&[&endpoints, &links]),
            }
        })
        .collect()
}

/// Splice the service trace, the wall-clock tracks and the flow demos
/// into the single `OBS_trace.json` document.
pub fn merged_trace(artefacts: &ObsArtifacts, demos: &[FlowDemo]) -> String {
    let mut docs: Vec<&str> = vec![&artefacts.trace_json, &artefacts.wall_trace_json];
    docs.extend(demos.iter().map(|d| d.trace_json.as_str()));
    obs::perfetto::merge(&docs)
}

/// Stall-attribution table: per shard, the percentage of device cycles
/// attributed to each stall class (rows sum to 100 by construction —
/// the classes partition the cycle count).
pub fn stall_table(m: &ServiceMetrics) -> Report {
    let mut r = Report::new(
        "Stall attribution: where each shard's device cycles went",
        &[
            "shard",
            "engine",
            "launches",
            "cycles",
            "issue_%",
            "mem_dep_%",
            "barrier_%",
            "occ_wait_%",
            "pipe_%",
        ],
    );
    for s in &m.shards {
        let total = s.profile.cycles.max(1) as f64;
        let pct = |v: u64| format!("{:.1}", v as f64 * 100.0 / total);
        r.push(vec![
            s.shard.to_string(),
            s.engine.clone(),
            s.profile.launches.to_string(),
            s.profile.cycles.to_string(),
            pct(s.profile.stall_issue),
            pct(s.profile.stall_mem_dependency),
            pct(s.profile.stall_barrier),
            pct(s.profile.stall_occupancy_wait),
            pct(s.profile.stall_pipe_contention),
        ]);
    }
    r
}

/// Count the `trace_event` entries in an exported trace document.
///
/// # Errors
/// The document must parse as JSON with a `traceEvents` array.
pub fn trace_event_count(trace_json: &str) -> Result<usize, String> {
    let tree = serde::json::parse_value(trace_json).map_err(|e| format!("bad trace JSON: {e}"))?;
    let serde::Value::Object(fields) = &tree else {
        return Err("trace document must be a JSON object".to_string());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k.as_str() == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("trace document must have a traceEvents field")?;
    match events {
        serde::Value::Array(evs) => Ok(evs.len()),
        _ => Err("traceEvents must be an array".to_string()),
    }
}

/// Read a numeric JSON field as `f64`.
fn num(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::U64(n) => Some(*n as f64),
        serde::Value::I64(n) => Some(*n as f64),
        serde::Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn field_num(v: &serde::Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for p in path {
        cur = cur
            .field(p)
            .map_err(|e| format!("missing {}: {e}", path.join(".")))?;
    }
    num(cur).ok_or_else(|| format!("{} is not numeric", path.join(".")))
}

fn field_bool(v: &serde::Value, path: &[&str]) -> Result<bool, String> {
    let mut cur = v;
    for p in path {
        cur = cur
            .field(p)
            .map_err(|e| format!("missing {}: {e}", path.join(".")))?;
    }
    match cur {
        serde::Value::Bool(b) => Ok(*b),
        _ => Err(format!("{} is not a bool", path.join("."))),
    }
}

/// Maximum tolerated goodput regression against the committed baseline.
pub const GOODPUT_DROP_TOLERANCE: f64 = 0.10;

/// Maximum tolerated relative rise of a barrier-stall fraction against
/// the committed baseline (plus one absolute point of slack, so
/// near-zero baselines don't trip on noise-sized drifts).
pub const BARRIER_STALL_RISE_TOLERANCE: f64 = 0.20;

/// The bench-regression gate behind `obs_report --check`: diff the
/// wall-clock-independent goodput and stall-attribution sections of
/// `BENCH_service.json` / `BENCH_recovery.json` / `BENCH_tenancy.json`
/// / `BENCH_chaos.json` against the committed baseline
/// (`docs/bench_baseline.json`).
/// Returns one message per regression; an empty vector passes the gate.
///
/// The benches are pure simulation at a fixed seed, so the compared
/// numbers are deterministic — the tolerances exist to let intentional
/// performance work move them without a lockstep baseline edit. The
/// tenancy isolation and resharding fields are *invariants*, not
/// measurements, so they get no tolerance at all: any guaranteed-tenant
/// loss, failed byte-equality or scheduler divergence is a regression.
/// The chaos sweep is held the same way: its violation count is pinned
/// to the baseline ceiling (zero), and each fault class it claims to
/// compose must actually have landed — a sweep that stops injecting is
/// a regression even though it "passes".
///
/// # Errors
/// Malformed or structurally incomplete artefacts fail loudly rather
/// than passing silently.
pub fn check_regressions(
    baseline: &serde::Value,
    service: &serde::Value,
    recovery: &serde::Value,
    tenancy: &serde::Value,
    chaos: &serde::Value,
) -> Result<Vec<String>, String> {
    let mut regressions = Vec::new();
    let base_service = baseline.field("service").map_err(|e| e.to_string())?;
    let serde::Value::Object(policies) = base_service else {
        return Err("baseline service section must be an object".to_string());
    };
    for (key, expect) in policies {
        let base_rate = field_num(expect, &["sustained_rate"])?;
        let base_frac = field_num(expect, &["barrier_stall_fraction"])?;
        let got_rate = field_num(service, &[key, "sustained_rate"])?;
        let got_frac = field_num(
            service,
            &["stall_attribution", key, "barrier_stall_fraction"],
        )?;
        if got_rate < base_rate * (1.0 - GOODPUT_DROP_TOLERANCE) {
            regressions.push(format!(
                "service {key}: sustained rate {got_rate:.0} msgs/s is more than \
                 {:.0}% below the baseline {base_rate:.0}",
                GOODPUT_DROP_TOLERANCE * 100.0
            ));
        }
        if got_frac > base_frac * (1.0 + BARRIER_STALL_RISE_TOLERANCE) + 0.01 {
            regressions.push(format!(
                "service {key}: barrier-stall fraction {got_frac:.4} is more than \
                 {:.0}% above the baseline {base_frac:.4}",
                BARRIER_STALL_RISE_TOLERANCE * 100.0
            ));
        }
    }

    // The pre-filter headline: the cycle speedup of screening the
    // deepest, most-unexpected grid point gets the usual drop
    // tolerance; the memory-dependency-stall claim is an invariant — a
    // screen that stops cutting mem stalls on unexpected-heavy traffic
    // has lost the property it exists for.
    let base_pref = baseline.field("prefilter").map_err(|e| e.to_string())?;
    let base_speedup = field_num(base_pref, &["headline_cycle_speedup"])?;
    let got_speedup = field_num(service, &["prefilter", "headline", "cycle_speedup"])?;
    if got_speedup < base_speedup * (1.0 - GOODPUT_DROP_TOLERANCE) {
        regressions.push(format!(
            "prefilter: headline cycle speedup {got_speedup:.3}x is more than {:.0}% \
             below the baseline {base_speedup:.3}x",
            GOODPUT_DROP_TOLERANCE * 100.0
        ));
    }
    let stall_full = field_num(
        service,
        &["prefilter", "headline", "mem_dependency_stall_full"],
    )?;
    let stall_screened = field_num(
        service,
        &["prefilter", "headline", "mem_dependency_stall_screened"],
    )?;
    if stall_screened >= stall_full {
        regressions.push(format!(
            "prefilter: screening no longer reduces memory-dependency stalls at the \
             headline point ({stall_screened:.0} >= {stall_full:.0})"
        ));
    }
    if field_num(service, &["prefilter", "headline", "rejected_total"])? == 0.0 {
        regressions.push(
            "prefilter: the headline point rejected nothing — the sweep lost its teeth".to_string(),
        );
    }

    let base_rec = baseline.field("recovery").map_err(|e| e.to_string())?;
    let base_rate = field_num(base_rec, &["baseline_sustained_rate"])?;
    let got_rate = field_num(recovery, &["baseline_sustained_rate"])?;
    if got_rate < base_rate * (1.0 - GOODPUT_DROP_TOLERANCE) {
        regressions.push(format!(
            "recovery: crash-free sustained rate {got_rate:.0} msgs/s is more than \
             {:.0}% below the baseline {base_rate:.0}",
            GOODPUT_DROP_TOLERANCE * 100.0
        ));
    }
    let base_frac = field_num(base_rec, &["baseline_barrier_stall_fraction"])?;
    let got_frac = field_num(recovery, &["baseline_barrier_stall_fraction"])?;
    if got_frac > base_frac * (1.0 + BARRIER_STALL_RISE_TOLERANCE) + 0.01 {
        regressions.push(format!(
            "recovery: barrier-stall fraction {got_frac:.4} is more than {:.0}% above \
             the baseline {base_frac:.4}",
            BARRIER_STALL_RISE_TOLERANCE * 100.0
        ));
    }
    let base_goodput = field_num(base_rec, &["crash_free_goodput_retained"])?;
    let points = recovery.field("points").map_err(|e| e.to_string())?;
    let serde::Value::Array(points) = points else {
        return Err("recovery points must be an array".to_string());
    };
    let crash_free = points
        .iter()
        .find(|p| {
            field_num(p, &["crash_rate"])
                .map(|r| r == 0.0)
                .unwrap_or(false)
        })
        .ok_or("recovery artefact has no crash-free point")?;
    let got_goodput = field_num(crash_free, &["goodput_retained"])?;
    if got_goodput < base_goodput * (1.0 - GOODPUT_DROP_TOLERANCE) {
        regressions.push(format!(
            "recovery: crash-free goodput retained {got_goodput:.4} is more than \
             {:.0}% below the baseline {base_goodput:.4}",
            GOODPUT_DROP_TOLERANCE * 100.0
        ));
    }

    let base_ten = baseline.field("tenancy").map_err(|e| e.to_string())?;
    let base_rate = field_num(base_ten, &["headline_sustained_rate"])?;
    let got_rate = field_num(tenancy, &["headline_sustained_rate"])?;
    if got_rate < base_rate * (1.0 - GOODPUT_DROP_TOLERANCE) {
        regressions.push(format!(
            "tenancy: headline sustained rate {got_rate:.0} msgs/s is more than \
             {:.0}% below the baseline {base_rate:.0}",
            GOODPUT_DROP_TOLERANCE * 100.0
        ));
    }
    for sched in ["global_clock", "thread_per_shard"] {
        let shed = field_num(tenancy, &["isolation", sched, "guaranteed_shed"])?;
        let spilled = field_num(tenancy, &["isolation", sched, "guaranteed_spilled"])?;
        if shed != 0.0 || spilled != 0.0 {
            regressions.push(format!(
                "tenancy: {sched} isolation broken — guaranteed tenant shed {shed:.0} / \
                 spilled {spilled:.0} under a saturating best-effort aggressor"
            ));
        }
        if field_num(tenancy, &["isolation", sched, "aggressor_shed"])? == 0.0 {
            regressions.push(format!(
                "tenancy: {sched} isolation scenario lost its teeth — the best-effort \
                 aggressor was never shed, so the guarantee was not exercised"
            ));
        }
        if field_num(tenancy, &["resharding", sched, "migrations"])? < 1.0 {
            regressions.push(format!(
                "tenancy: {sched} resharding scenario lost its teeth — the skew no \
                 longer triggers a migration"
            ));
        }
        if !field_bool(tenancy, &["resharding", sched, "completions_match_static"])? {
            regressions.push(format!(
                "tenancy: {sched} live resharding diverged from the static run with \
                 the final placement — migration is no longer exactly-once"
            ));
        }
    }
    for section in ["isolation", "resharding"] {
        if !field_bool(tenancy, &[section, "schedulers_byte_identical"])? {
            regressions.push(format!(
                "tenancy: {section} artefacts differ between GlobalClock and \
                 ThreadPerShard — scheduler independence is broken"
            ));
        }
    }

    // The chaos sweep: end-to-end invariants hold at the baseline
    // ceiling (zero — no tolerance), and the sweep keeps its teeth:
    // every composed fault class must have landed at least once across
    // the points, or the zero-violation verdict is vacuous.
    let base_chaos = baseline.field("chaos").map_err(|e| e.to_string())?;
    let max_violations = field_num(base_chaos, &["max_violations"])?;
    let got_violations = field_num(chaos, &["total_violations"])?;
    if got_violations > max_violations {
        regressions.push(format!(
            "chaos: {got_violations:.0} end-to-end invariant violation(s) — the \
             baseline ceiling is {max_violations:.0}"
        ));
    }
    let points = chaos.field("points").map_err(|e| e.to_string())?;
    let serde::Value::Array(points) = points else {
        return Err("chaos points must be an array".to_string());
    };
    for (column, label) in [
        ("crashes", "shard crash"),
        ("hangs", "shard hang"),
        ("partitions", "shard partition"),
        ("corrupt_checkpoints", "checkpoint corruption"),
        ("migrations", "live migration"),
        ("fabric_corruptions", "wire corruption"),
        ("fabric_link_downs", "link-down notice"),
    ] {
        let mut landed = 0.0;
        for p in points {
            landed += field_num(p, &[column])?;
        }
        if landed == 0.0 {
            regressions.push(format!(
                "chaos: sweep lost its teeth — no {label} landed at any point"
            ));
        }
    }
    Ok(regressions)
}

/// Wall-clock matches/s measured over one service run.
fn wall_rate(cfg: ShardedServiceConfig) -> f64 {
    let report = ShardedMatchService::new(GpuGeneration::PascalGtx1080, cfg).run();
    let wall = report.wall_seconds.max(1e-9);
    report.metrics.total_matched as f64 / wall
}

/// Measure the wall-clock cost of flow tracing at the default 1-in-64
/// sampling: a discarded warmup pair, then `runs` traced/untraced
/// pairs run back to back. Returns the `(traced, untraced)` rates of
/// the **best pair** — the pair whose traced/untraced ratio is highest
/// — in wall matches/s; the caller asserts that ratio stays within the
/// tolerated slowdown.
///
/// Best-pair (not medians of independent samples) because timing noise
/// on a millisecond-scale run is one-sided and bursty: preemption and
/// frequency ramps only ever slow a run down, and they last longer
/// than one run. The two runs of a pair execute adjacently and so
/// share machine conditions; a systematic tracing cost depresses the
/// ratio of *every* pair, while a noise burst hitting one side of some
/// pairs leaves at least one clean pair to report.
pub fn tracing_overhead(runs: usize, duration: f64) -> (f64, f64) {
    let base = ShardedServiceConfig {
        duration,
        ..default_config()
    };
    let traced_cfg = ShardedServiceConfig {
        trace: true,
        flow_sample_every: 64,
        ..base
    };
    let untraced_cfg = ShardedServiceConfig {
        trace: false,
        ..base
    };
    wall_rate(traced_cfg);
    wall_rate(untraced_cfg);
    let mut best = (0.0f64, f64::INFINITY);
    for _ in 0..runs.max(1) {
        let pair = (wall_rate(traced_cfg), wall_rate(untraced_cfg));
        if pair.0 * best.1 > best.0 * pair.1 {
            best = pair;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ObsArtifacts {
        run(ShardedServiceConfig {
            shards: 2,
            arrival_rate: 2.0e6,
            duration: 0.001,
            ..default_config()
        })
    }

    #[test]
    fn artefacts_parse_and_are_populated() {
        let a = small();
        let n = trace_event_count(&a.trace_json).expect("trace must parse");
        assert!(n > 0, "trace must hold events");
        for family in [
            "service_matched_total",
            "shard_stall_cycles_total",
            "shard_match_latency_seconds_bucket",
        ] {
            assert!(a.exposition.contains(family), "missing {family}");
        }
        assert!(a.report.metrics.total_matched > 0);
    }

    #[test]
    fn stall_table_has_one_row_per_shard_and_percentages_sum() {
        let a = small();
        let t = stall_table(&a.report.metrics);
        assert_eq!(t.rows.len(), a.report.metrics.shards.len());
        for row in &t.rows {
            let sum: f64 = row[4..]
                .iter()
                .map(|c| c.parse::<f64>().expect("percentage cell"))
                .sum();
            assert!(
                (sum - 100.0).abs() < 0.5,
                "stall percentages must partition the cycles: {row:?}"
            );
        }
    }

    #[test]
    fn artefacts_are_deterministic() {
        // Only the virtual-clock artefacts: wall_trace_json and
        // wall_prom are measurements and legitimately vary per run.
        let (a, b) = (small(), small());
        assert_eq!(a.trace_json, b.trace_json);
        assert_eq!(a.exposition, b.exposition);
    }

    #[test]
    fn wall_artefacts_are_populated_and_separate() {
        let a = small();
        assert!(
            a.wall_trace_json.contains("wall shard"),
            "wall tracks must be exported when tracing is on"
        );
        for family in [
            "scheduler_wall_seconds",
            "scheduler_shard_epochs_total",
            "scheduler_shard_bucket_ns_total",
        ] {
            assert!(a.wall_prom.contains(family), "missing {family}");
        }
        assert!(
            !a.exposition.contains("scheduler_shard_bucket_ns_total"),
            "wall families must stay out of the deterministic exposition"
        );
    }

    #[test]
    fn flow_demos_cover_five_engines_and_merge_with_the_service_trace() {
        let a = small();
        let demos = flow_demos(7);
        assert_eq!(demos.len(), 5);
        for d in &demos {
            for marker in ["\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\""] {
                assert!(
                    d.trace_json.contains(marker),
                    "{}: flow chain must carry {marker}",
                    d.label
                );
            }
            for point in ["send", "packetize", "delivered", "deposit", "matched"] {
                assert!(
                    d.trace_json.contains(&format!("\"name\":\"{point}\"")),
                    "{}: missing flow point {point}",
                    d.label
                );
            }
        }
        let merged = merged_trace(&a, &demos);
        let n = trace_event_count(&merged).expect("merged trace must stay valid JSON");
        let service_n = trace_event_count(&a.trace_json).unwrap();
        assert!(n > service_n, "merge must add the demo and wall events");
    }

    fn baseline_value(rate: f64, frac: f64, goodput: f64) -> serde::Value {
        use serde::Value as V;
        V::Object(vec![
            (
                "service".to_string(),
                V::Object(vec![(
                    "matrix@8shards".to_string(),
                    V::Object(vec![
                        ("sustained_rate".to_string(), V::F64(rate)),
                        ("barrier_stall_fraction".to_string(), V::F64(frac)),
                    ]),
                )]),
            ),
            (
                "recovery".to_string(),
                V::Object(vec![
                    ("baseline_sustained_rate".to_string(), V::F64(rate)),
                    ("baseline_barrier_stall_fraction".to_string(), V::F64(frac)),
                    ("crash_free_goodput_retained".to_string(), V::F64(goodput)),
                ]),
            ),
            (
                "tenancy".to_string(),
                V::Object(vec![("headline_sustained_rate".to_string(), V::F64(rate))]),
            ),
            (
                "prefilter".to_string(),
                V::Object(vec![("headline_cycle_speedup".to_string(), V::F64(3.0))]),
            ),
            (
                "chaos".to_string(),
                V::Object(vec![("max_violations".to_string(), V::F64(0.0))]),
            ),
        ])
    }

    /// A `BENCH_chaos.json`-shaped value: every fault class landed
    /// unless `toothless`, with the given violation total.
    fn chaos_value(violations: f64, toothless: bool) -> serde::Value {
        use serde::Value as V;
        let landed = if toothless { 0.0 } else { 2.0 };
        let point = V::Object(vec![
            ("crashes".to_string(), V::F64(landed)),
            ("hangs".to_string(), V::F64(landed)),
            ("partitions".to_string(), V::F64(landed)),
            ("corrupt_checkpoints".to_string(), V::F64(landed)),
            ("migrations".to_string(), V::F64(landed)),
            ("fabric_corruptions".to_string(), V::F64(landed)),
            ("fabric_link_downs".to_string(), V::F64(landed)),
        ]);
        V::Object(vec![
            ("total_violations".to_string(), V::F64(violations)),
            ("points".to_string(), V::Array(vec![point])),
        ])
    }

    /// A healthy (or deliberately broken) `prefilter` service section.
    fn prefilter_value(speedup: f64, stall_full: f64, stall_screened: f64) -> serde::Value {
        use serde::Value as V;
        V::Object(vec![(
            "headline".to_string(),
            V::Object(vec![
                ("cycle_speedup".to_string(), V::F64(speedup)),
                ("mem_dependency_stall_full".to_string(), V::F64(stall_full)),
                (
                    "mem_dependency_stall_screened".to_string(),
                    V::F64(stall_screened),
                ),
                ("rejected_total".to_string(), V::F64(64.0)),
            ]),
        )])
    }

    /// A `BENCH_tenancy.json`-shaped value with healthy invariants
    /// unless overridden by the arguments.
    fn tenancy_value(rate: f64, guaranteed_shed: f64, matches_static: bool) -> serde::Value {
        use serde::Value as V;
        let iso = |shed: f64| {
            V::Object(vec![
                ("guaranteed_shed".to_string(), V::F64(shed)),
                ("guaranteed_spilled".to_string(), V::F64(0.0)),
                ("aggressor_shed".to_string(), V::F64(1000.0)),
            ])
        };
        let reshard = |ok: bool| {
            V::Object(vec![
                ("migrations".to_string(), V::F64(1.0)),
                ("completions_match_static".to_string(), V::Bool(ok)),
            ])
        };
        V::Object(vec![
            ("headline_sustained_rate".to_string(), V::F64(rate)),
            (
                "isolation".to_string(),
                V::Object(vec![
                    ("global_clock".to_string(), iso(guaranteed_shed)),
                    ("thread_per_shard".to_string(), iso(0.0)),
                    ("schedulers_byte_identical".to_string(), V::Bool(true)),
                ]),
            ),
            (
                "resharding".to_string(),
                V::Object(vec![
                    ("global_clock".to_string(), reshard(matches_static)),
                    ("thread_per_shard".to_string(), reshard(true)),
                    ("schedulers_byte_identical".to_string(), V::Bool(true)),
                ]),
            ),
        ])
    }

    fn artefacts_value(rate: f64, frac: f64, goodput: f64) -> (serde::Value, serde::Value) {
        use serde::Value as V;
        let service = V::Object(vec![
            (
                "matrix@8shards".to_string(),
                V::Object(vec![("sustained_rate".to_string(), V::F64(rate))]),
            ),
            (
                "stall_attribution".to_string(),
                V::Object(vec![(
                    "matrix@8shards".to_string(),
                    V::Object(vec![("barrier_stall_fraction".to_string(), V::F64(frac))]),
                )]),
            ),
            (
                "prefilter".to_string(),
                prefilter_value(3.0, 10_000.0, 2_000.0),
            ),
        ]);
        let recovery = V::Object(vec![
            ("baseline_sustained_rate".to_string(), V::F64(rate)),
            ("baseline_barrier_stall_fraction".to_string(), V::F64(frac)),
            (
                "points".to_string(),
                V::Array(vec![V::Object(vec![
                    ("crash_rate".to_string(), V::F64(0.0)),
                    ("goodput_retained".to_string(), V::F64(goodput)),
                ])]),
            ),
        ]);
        (service, recovery)
    }

    #[test]
    fn regression_gate_passes_matching_artefacts_and_catches_drops() {
        let baseline = baseline_value(8.0e6, 0.30, 0.99);
        let tenancy = tenancy_value(8.0e6, 0.0, true);
        let chaos = chaos_value(0.0, false);
        let (service, recovery) = artefacts_value(8.0e6, 0.30, 0.99);
        let ok = check_regressions(&baseline, &service, &recovery, &tenancy, &chaos)
            .expect("well-formed");
        assert!(ok.is_empty(), "identical numbers must pass: {ok:?}");

        // An 11% goodput drop and a 25% barrier-stall rise both trip.
        let (service, recovery) = artefacts_value(8.0e6 * 0.89, 0.30 * 1.25 + 0.02, 0.99);
        let bad = check_regressions(&baseline, &service, &recovery, &tenancy, &chaos)
            .expect("well-formed");
        assert!(
            bad.iter().any(|m| m.contains("sustained rate")),
            "goodput drop must be reported: {bad:?}"
        );
        assert!(
            bad.iter().any(|m| m.contains("barrier-stall")),
            "stall rise must be reported: {bad:?}"
        );

        // A malformed artefact errors instead of passing silently.
        let empty = serde::Value::Object(vec![]);
        assert!(check_regressions(&baseline, &empty, &empty, &tenancy, &chaos).is_err());
        assert!(check_regressions(&baseline, &service, &recovery, &empty, &chaos).is_err());
        assert!(check_regressions(&baseline, &service, &recovery, &tenancy, &empty).is_err());
    }

    #[test]
    fn regression_gate_holds_the_tenancy_invariants_without_tolerance() {
        let baseline = baseline_value(8.0e6, 0.30, 0.99);
        let chaos = chaos_value(0.0, false);
        let (service, recovery) = artefacts_value(8.0e6, 0.30, 0.99);

        // Even one shed guaranteed message is a regression.
        let bad = tenancy_value(8.0e6, 1.0, true);
        let msgs =
            check_regressions(&baseline, &service, &recovery, &bad, &chaos).expect("well-formed");
        assert!(
            msgs.iter().any(|m| m.contains("isolation broken")),
            "guaranteed loss must be reported: {msgs:?}"
        );

        // A live/static divergence is a regression at any magnitude.
        let bad = tenancy_value(8.0e6, 0.0, false);
        let msgs =
            check_regressions(&baseline, &service, &recovery, &bad, &chaos).expect("well-formed");
        assert!(
            msgs.iter().any(|m| m.contains("exactly-once")),
            "byte-equality failure must be reported: {msgs:?}"
        );

        // A headline rate drop uses the shared goodput tolerance.
        let bad = tenancy_value(8.0e6 * 0.89, 0.0, true);
        let msgs =
            check_regressions(&baseline, &service, &recovery, &bad, &chaos).expect("well-formed");
        assert!(
            msgs.iter().any(|m| m.contains("headline sustained rate")),
            "headline drop must be reported: {msgs:?}"
        );
    }

    #[test]
    fn regression_gate_pins_chaos_violations_and_teeth() {
        let baseline = baseline_value(8.0e6, 0.30, 0.99);
        let tenancy = tenancy_value(8.0e6, 0.0, true);
        let (service, recovery) = artefacts_value(8.0e6, 0.30, 0.99);

        // A single end-to-end violation trips the gate — no tolerance.
        let bad = chaos_value(1.0, false);
        let msgs =
            check_regressions(&baseline, &service, &recovery, &tenancy, &bad).expect("well-formed");
        assert!(
            msgs.iter().any(|m| m.contains("invariant violation")),
            "chaos violations must be reported: {msgs:?}"
        );

        // Zero violations with zero injected faults is vacuous: every
        // missing fault class is reported by name.
        let bad = chaos_value(0.0, true);
        let msgs =
            check_regressions(&baseline, &service, &recovery, &tenancy, &bad).expect("well-formed");
        for label in [
            "shard crash",
            "shard hang",
            "shard partition",
            "checkpoint corruption",
            "live migration",
            "wire corruption",
            "link-down notice",
        ] {
            assert!(
                msgs.iter().any(|m| m.contains(label)),
                "missing {label} teeth must be reported: {msgs:?}"
            );
        }

        // A point missing a teeth column errors instead of passing.
        let truncated = serde::Value::Object(vec![
            ("total_violations".to_string(), serde::Value::F64(0.0)),
            (
                "points".to_string(),
                serde::Value::Array(vec![serde::Value::Object(vec![])]),
            ),
        ]);
        assert!(check_regressions(&baseline, &service, &recovery, &tenancy, &truncated).is_err());
    }

    #[test]
    fn regression_gate_watches_the_prefilter_headline() {
        use serde::Value as V;
        let baseline = baseline_value(8.0e6, 0.30, 0.99);
        let tenancy = tenancy_value(8.0e6, 0.0, true);
        let chaos = chaos_value(0.0, false);
        let (healthy, recovery) = artefacts_value(8.0e6, 0.30, 0.99);

        let with_prefilter = |pref: serde::Value| {
            let V::Object(mut entries) = healthy.clone() else {
                unreachable!()
            };
            entries.retain(|(k, _)| k != "prefilter");
            entries.push(("prefilter".to_string(), pref));
            V::Object(entries)
        };

        // An 11% speedup drop trips the shared goodput tolerance.
        let bad = with_prefilter(prefilter_value(3.0 * 0.89, 10_000.0, 2_000.0));
        let msgs =
            check_regressions(&baseline, &bad, &recovery, &tenancy, &chaos).expect("well-formed");
        assert!(
            msgs.iter().any(|m| m.contains("cycle speedup")),
            "speedup drop must be reported: {msgs:?}"
        );

        // Screening that stops cutting mem stalls is an invariant break.
        let bad = with_prefilter(prefilter_value(3.0, 2_000.0, 2_000.0));
        let msgs =
            check_regressions(&baseline, &bad, &recovery, &tenancy, &chaos).expect("well-formed");
        assert!(
            msgs.iter().any(|m| m.contains("memory-dependency")),
            "stall invariant must be reported: {msgs:?}"
        );
    }

    #[test]
    fn tracing_overhead_returns_positive_rates() {
        let (traced, untraced) = tracing_overhead(1, 0.0005);
        assert!(traced > 0.0 && untraced > 0.0);
    }
}
