//! Observability invariants, checked across crate boundaries.
//!
//! Two properties anchor the tracing layer:
//!
//! * **Golden determinism** — the exported Perfetto trace is a pure
//!   function of the configuration. Two identically-configured service
//!   runs must produce byte-identical JSON (the recorder runs on the
//!   simulated clock; no wall-clock or randomness may leak in).
//! * **Exact stall attribution** — for every GPU engine, the per-class
//!   stall cycles partition the device cycle count: they sum *exactly*
//!   to [`GpuMatchReport::cycles`], never approximately.
//!
//! The CPU baselines (`ListMatcher`, `HashedListMatcher`) execute no
//! device kernels and carry no `TimingReport`, so the differential
//! covers the five GPU configurations: matrix, partitioned at 4 and 16
//! queues, and the hash matcher under both table organisations.

use gpu_msg::{ShardEnginePolicy, ShardedMatchService, ShardedServiceConfig};
use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

fn traced_config() -> ShardedServiceConfig {
    ShardedServiceConfig {
        shards: 3,
        arrival_rate: 3.0e6,
        comms: 2,
        duration: 0.001,
        policy: ShardEnginePolicy::Auto(RelaxationConfig::UNORDERED),
        trace: true,
        ..Default::default()
    }
}

fn run_trace() -> String {
    let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, traced_config());
    svc.run();
    svc.trace_json().expect("tracing was enabled")
}

#[test]
fn perfetto_export_is_byte_identical_across_runs() {
    let (a, b) = (run_trace(), run_trace());
    assert!(
        a.contains("\"traceEvents\""),
        "export must be a trace_event document"
    );
    assert!(
        a.contains("kernel_launch") && a.contains("batch_admission"),
        "trace must hold kernel and admission spans"
    );
    assert_eq!(a, b, "same configuration must export identical bytes");
}

/// Drive one engine configuration over a workload and check the stall
/// partition on the merged report.
fn check_partition(name: &str, report: &GpuMatchReport) {
    let total: u64 = report.stall_cycles.iter().sum();
    assert!(report.cycles > 0, "{name}: engine must consume cycles");
    assert_eq!(
        total, report.cycles,
        "{name}: stall classes must partition the cycle count exactly \
         (breakdown {:?}, cycles {})",
        report.stall_cycles, report.cycles
    );
}

#[test]
fn stall_classes_partition_cycles_for_every_engine() {
    let w = WorkloadSpec::unique_tuples(512, 0xB5).generate();
    let engine = MatchEngine::default();

    for (name, choice) in [
        ("matrix", EngineChoice::Matrix),
        ("partitioned/4", EngineChoice::Partitioned { queues: 4 }),
        ("partitioned/16", EngineChoice::Partitioned { queues: 16 }),
    ] {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let report = engine
            .match_with(&mut gpu, choice, &w.msgs, &w.reqs)
            .unwrap_or_else(|e| panic!("{name} rejected the workload: {e}"));
        check_partition(name, &report);
        assert!(
            report.stall_cycles[2] > 0,
            "{name}: scan/reduce kernels always wait at CTA barriers"
        );
    }

    for (name, matcher) in [
        ("hash/two-level", HashMatcher::default()),
        ("hash/linear-probing", HashMatcher::linear_probing(8)),
    ] {
        assert!(matches!(
            (name, matcher.config.organization),
            ("hash/two-level", TableOrganization::TwoLevel)
                | (
                    "hash/linear-probing",
                    TableOrganization::LinearProbing { .. }
                )
        ));
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let report = matcher
            .match_batch(&mut gpu, &w.msgs, &w.reqs)
            .unwrap_or_else(|e| panic!("{name} rejected the workload: {e}"));
        check_partition(name, &report);
    }
}

#[test]
fn flow_events_are_part_of_the_golden_trace() {
    let run = || {
        let cfg = ShardedServiceConfig {
            flow_sample_every: 1,
            ..traced_config()
        };
        let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, cfg);
        svc.run();
        svc.trace_json().expect("tracing was enabled")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "flow events must be as deterministic as the spans");
    for marker in [
        "\"ph\":\"s\"",
        "\"ph\":\"t\"",
        "\"ph\":\"f\"",
        "\"bp\":\"e\"",
        "\"cat\":\"flow\"",
    ] {
        assert!(a.contains(marker), "golden trace must carry {marker}");
    }
    // Flow ids render as lowercase hex with the service stream layout.
    assert!(
        a.contains("\"id\":\"0x1"),
        "service flow ids must encode stream+1 in the high bits"
    );
    // Sampling keeps determinism: a 1-in-4 run is a strict subset and
    // still byte-stable.
    let sampled = || {
        let cfg = ShardedServiceConfig {
            flow_sample_every: 4,
            ..traced_config()
        };
        let mut svc = ShardedMatchService::new(GpuGeneration::PascalGtx1080, cfg);
        svc.run();
        svc.trace_json().expect("tracing was enabled")
    };
    let (s1, s2) = (sampled(), sampled());
    assert_eq!(s1, s2, "sampled flow traces must be byte-stable too");
    assert!(
        s1.matches("\"ph\":\"s\"").count() < a.matches("\"ph\":\"s\"").count(),
        "1-in-4 sampling must admit strictly fewer flows than 1-in-1"
    );
}

#[test]
fn json_escaping_survives_hostile_strings() {
    use obs::{ArgValue, FlowId, FlowPhase, SpanCategory, SpanRecorder};
    let hostile = "quote:\" backslash:\\ newline:\n tab:\t bell:\u{0007} unicode:µs";
    let mut rec = SpanRecorder::new(42, 16);
    rec.record_complete(
        SpanCategory::Match,
        hostile,
        10,
        5,
        vec![("note", ArgValue::Text(hostile.to_string()))],
    );
    rec.record_instant(SpanCategory::Fault, hostile, vec![]);
    rec.record_flow(
        hostile,
        FlowId(0xdead_beef),
        FlowPhase::Step,
        20,
        vec![("ctx", ArgValue::Text("\u{0001}\u{001f}".to_string()))],
    );
    let doc = obs::perfetto::export(&[(hostile.to_string(), &rec)]);
    let tree =
        serde::json::parse_value(&doc).expect("hostile strings must still export valid JSON");
    let serde::Value::Array(events) = tree.field("traceEvents").unwrap().clone() else {
        panic!("traceEvents must be an array");
    };
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e.field("name") {
            Ok(serde::Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        names.iter().filter(|n| **n == hostile).count() >= 3,
        "escaped names must round-trip exactly: {names:?}"
    );
    let ctl = events.iter().find_map(|e| {
        e.field("args")
            .ok()
            .and_then(|a| a.field("ctx").ok())
            .and_then(|v| match v {
                serde::Value::Str(s) => Some(s.clone()),
                _ => None,
            })
    });
    assert_eq!(
        ctl.as_deref(),
        Some("\u{0001}\u{001f}"),
        "control characters must survive as \\u escapes"
    );
}

#[test]
fn per_launch_profiles_sum_to_the_merged_report() {
    let w = WorkloadSpec::fully_matching(256, 7).generate();
    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    gpu.enable_tracing(0, 1024);
    let report = MatchEngine::default()
        .match_with(&mut gpu, EngineChoice::Matrix, &w.msgs, &w.reqs)
        .expect("matrix accepts any workload");
    check_partition("matrix (traced)", &report);

    let rec = gpu.take_recorder().expect("recorder was attached");
    let kernel_spans = rec
        .events()
        .filter(|e| !e.instant && e.category == obs::SpanCategory::KernelLaunch)
        .count();
    assert_eq!(
        kernel_spans, report.launches as usize,
        "one kernel span per launch"
    );
}
