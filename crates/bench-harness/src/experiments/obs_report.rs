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
use msg_match::{EngineChoice, RecvRequest, RelaxationConfig};
use simt_sim::GpuGeneration;

use crate::table::Report;

/// Everything one traced run produces.
#[derive(Debug, Clone)]
pub(crate) struct ObsArtifacts {
    /// The service outcome (aggregate + per-shard metrics).
    report: ShardedServiceReport,
    /// Chrome `trace_event` JSON timeline (virtual clock only —
    /// byte-deterministic).
    trace_json: String,
    /// Prometheus text exposition of the metrics snapshot (virtual
    /// clock only — byte-deterministic).
    exposition: String,
    /// Wall-clock scheduler tracks as a trace document of their own
    /// (empty when the run was untraced). Measured, NOT deterministic.
    wall_trace_json: String,
    /// Prometheus text exposition of the dual-clock scheduler profile.
    /// Measured, NOT deterministic.
    wall_prom: String,
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
pub(crate) fn run(mut cfg: ShardedServiceConfig) -> ObsArtifacts {
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
    // Each engine runs at the least-relaxed level it serves.
    let engines: [(&'static str, MatcherKind, bool); 5] = [
        ("matrix", MatcherKind::Matrix, false),
        ("partitioned x4", MatcherKind::Partitioned(4), false),
        ("partitioned x16", MatcherKind::Partitioned(16), false),
        ("hash", MatcherKind::Hash, false),
        ("hash+reorder", MatcherKind::Hash, true),
    ];
    let ranks = 4u32;
    engines
        .iter()
        .enumerate()
        .map(|(i, &(label, matcher, restore_order))| {
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
            let relax = EngineChoice::from(matcher).relaxation();
            let mut cfg = DomainConfig::new(ranks, GpuGeneration::PascalGtx1080, matcher, relax);
            cfg.transport = TransportConfig::Fabric(fc);
            cfg.restore_order = restore_order;
            cfg.trace = true;
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
pub(crate) fn merged_trace(artefacts: &ObsArtifacts, demos: &[FlowDemo]) -> String {
    let mut docs: Vec<&str> = vec![&artefacts.trace_json, &artefacts.wall_trace_json];
    docs.extend(demos.iter().map(|d| d.trace_json.as_str()));
    obs::perfetto::merge(&docs)
}

/// Stall-attribution table: per shard, the percentage of device cycles
/// attributed to each stall class (rows sum to 100 by construction —
/// the classes partition the cycle count).
pub(crate) fn stall_table(m: &ServiceMetrics) -> Report {
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

/// Parses `repro obs_report`'s duration argument: a finite number of
/// seconds above zero.
pub fn parse_duration(arg: &str) -> Option<f64> {
    arg.parse::<f64>()
        .ok()
        .filter(|d| d.is_finite() && *d > 0.0)
}

/// Runs the traced service at `cfg` and the flow demos, hands each
/// artefact (`OBS_trace.json`, `OBS_metrics.prom`, `OBS_wall.prom`) to
/// `save` as `(file name, body)`, and appends what `repro obs_report`
/// prints to `stdout`.
///
/// # Errors
/// The merged trace must parse and hold at least one event, and `save`
/// must succeed.
pub fn report(
    cfg: ShardedServiceConfig,
    stdout: &mut String,
    mut save: impl FnMut(&str, &str) -> std::io::Result<()>,
) -> Result<(), String> {
    let artefacts = run(cfg);
    let demos = flow_demos(cfg.seed);
    let merged = merged_trace(&artefacts, &demos);
    let events = match trace_event_count(&merged) {
        Ok(0) => return Err("exported trace holds no events".to_string()),
        Ok(n) => n,
        Err(e) => return Err(format!("exported trace failed validation: {e}")),
    };

    let m = &artefacts.report.metrics;
    let prof = &artefacts.report.scheduler_profile;
    stdout.push_str(&stall_table(m).to_text());
    stdout.push_str(&format!(
        "\nservice: {} matched, {} spilled, sustained {:.2} M msgs/s over {} shards\n\
         wall clock ({}): {:.1} ms, barrier-wait fraction {:.2}\n",
        m.total_matched,
        m.total_spilled,
        m.sustained_rate / 1e6,
        m.shards.len(),
        prof.scheduler,
        prof.wall_seconds * 1e3,
        prof.barrier_wait_fraction()
    ));
    for d in &demos {
        stdout.push_str(&format!("flow demo: {}\n", d.label));
    }
    for (path, body) in [
        ("OBS_trace.json", &merged),
        ("OBS_metrics.prom", &artefacts.exposition),
        ("OBS_wall.prom", &artefacts.wall_prom),
    ] {
        save(path, body).map_err(|e| format!("could not write {path}: {e}"))?;
        stdout.push_str(&format!("wrote {path}\n"));
    }
    stdout.push_str(&format!("trace events: {events}\n"));
    Ok(())
}

/// Count the `trace_event` entries in an exported trace document.
///
/// # Errors
/// The document must parse as JSON with a `traceEvents` array.
pub(crate) fn trace_event_count(trace_json: &str) -> Result<usize, String> {
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
    fn duration_must_be_finite_and_positive() {
        for bad in ["inf", "NaN", "0", "-1", "abc"] {
            assert_eq!(parse_duration(bad), None, "{bad}");
        }
        assert_eq!(parse_duration("0.0005"), Some(0.0005));
    }

    #[test]
    fn artefacts_parse_and_are_populated() {
        let a = small();
        let n = trace_event_count(&a.trace_json).expect("trace must parse");
        assert!(n > 0, "trace must hold events");
        for family in [
            "service_matched_total",
            "shard_stall_cycles_total",
            "shard_class_instructions_total",
            "shard_match_latency_seconds_bucket",
            "shard_trace_dropped_total",
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
            "scheduler_shard_wall_ns_total",
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
}
