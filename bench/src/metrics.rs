//! The benchmark's metric tables: every name the command prints, with
//! its unit, direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for
//! the outside driver; `tests::benchmark_json_matches_the_tables` keeps
//! the two from drifting.
//!
//! Every number carries its clock in its name: `sim_*` is simulated
//! device/wire time (deterministic per seed, must repeat exactly),
//! `host_*` is wall time of this process.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable name (later issues cite it).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: the ones every workload produces, printed by the
/// untraced pass. (The workload-specific headline numbers — knee,
/// latency percentiles, recovery time, paper-rate error, failed share —
/// live in [`PER_LAYER`]: the driver contract wants every end-to-end
/// metric from every workload, never zero.)
///
/// The bounds are sized to the reference sandbox, not to a wish. Ten
/// 10-second runs of one commit (one per seed), taken three times, spread
/// by up to 9 % of the median on the `host_*` rates (whole runs drift
/// together with the neighbours' load, and the seeds change the work of
/// the `Domain` workloads), by up to 5 % on peak RSS, and by up to 6 % on
/// `sim_msgs_per_s` (exact per seed; the seeds differ). The driver wants
/// every spread inside its bound and preferably under a third of it.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_msgs_per_s", "msgs/s", Higher, 0.25),
    e2e("host_sim_instr_per_s", "instr/s", Higher, 0.25),
    e2e("host_peak_rss_mb", "MiB", Lower, 0.20),
    e2e("sim_msgs_per_s", "msgs/s", Higher, 0.20),
];

/// Per-layer metrics, printed by the traced pass. Layers are the
/// crate/module names.
pub const PER_LAYER: &[MetricDef] = &[
    // Workload-specific end-to-end numbers (see `END_TO_END`).
    layer("sim_knee_msgs_per_s", "msgs/s", Higher),
    layer("sim_match_latency_p50_us", "us", Lower),
    layer("sim_match_latency_p99_us", "us", Lower),
    layer("sim_recovery_p50_us", "us", Lower),
    layer("sim_paper_rate_err_pct", "%", Lower),
    layer("failed_ops_share", "ratio", Lower),
    // simt-sim: functional interpreter, timing replay, stall attribution.
    layer("simt_sim.exec.host_ns_per_warp_instr", "ns", Lower),
    layer("simt_sim.exec.warp_instr_per_msg", "instr", Lower),
    layer("simt_sim.exec.launches", "count", Lower),
    layer("simt_sim.exec.instr_per_launch", "instr", Lower),
    layer("simt_sim.timing.host_ns_per_replayed_op", "ns", Lower),
    layer("simt_sim.stall.issue_share", "ratio", Lower),
    layer("simt_sim.stall.mem_dependency_share", "ratio", Lower),
    layer("simt_sim.stall.barrier_share", "ratio", Lower),
    layer("simt_sim.stall.occupancy_wait_share", "ratio", Lower),
    layer("simt_sim.stall.pipe_contention_share", "ratio", Lower),
    // msg-match: pinned engine, pre-filter, compaction, CPU baselines.
    layer("msg_match.engine.host_ns_per_msg", "ns", Lower),
    layer("msg_match.engine.sim_cycles_per_msg", "cycles", Lower),
    layer("msg_match.engine.launches_per_batch", "count", Lower),
    layer("msg_match.engine.probe_dedup_share", "ratio", Higher),
    layer("msg_match.prefilter.host_ns_per_probe", "ns", Lower),
    layer("msg_match.prefilter.rejected_share", "ratio", Higher),
    layer("msg_match.prefilter.skipped_launch_share", "ratio", Higher),
    layer("msg_match.compaction.host_ns_per_entry", "ns", Lower),
    layer("msg_match.compaction.sim_cycles_share", "ratio", Lower),
    layer("msg_match.list.host_ns_per_msg", "ns", Lower),
    layer("msg_match.list.walk_len_mean", "count", Lower),
    layer("msg_match.hashed_list.host_ns_per_msg", "ns", Lower),
    // fabric: event loop and wire counters.
    layer("fabric.net.host_ns_per_packet", "ns", Lower),
    layer("fabric.net.sim_finish_us", "us", Lower),
    layer("fabric.retransmit_share", "ratio", Lower),
    layer("fabric.wire_overhead_ratio", "ratio", Lower),
    layer("fabric.eager_share", "ratio", Higher),
    layer("fabric.credit_stall_us", "us", Lower),
    layer("fabric.dup_dropped", "count", Lower),
    layer("fabric.corrupt_dropped", "count", Lower),
    layer("fabric.exhausted_retries", "count", Lower),
    // gpu-msg: domain, reorder, service, scheduler, recovery, export.
    layer("gpu_msg.domain.host_ns_per_msg", "ns", Lower),
    layer("gpu_msg.domain.progress_rounds", "count", Lower),
    layer("gpu_msg.domain.umq_high_water", "count", Lower),
    layer("gpu_msg.domain.prq_high_water", "count", Lower),
    layer("gpu_msg.reorder.high_water", "count", Lower),
    layer("gpu_msg.reorder.duplicates", "count", Lower),
    layer("gpu_msg.service.host_ns_per_msg_overhead", "ns", Lower),
    layer("gpu_msg.service.batch_size_p50", "msgs", Higher),
    layer("gpu_msg.service.queue_depth_p99", "msgs", Lower),
    layer("gpu_msg.service.utilisation", "ratio", Lower),
    layer("gpu_msg.service.spilled", "count", Lower),
    layer("gpu_msg.service.shed", "count", Lower),
    layer(
        "gpu_msg.service.match_latency_half_rate_p99_us",
        "us",
        Lower,
    ),
    layer("gpu_msg.sched.compute_share", "ratio", Higher),
    layer("gpu_msg.sched.barrier_wait_share", "ratio", Lower),
    layer("gpu_msg.sched.backpressure_share", "ratio", Lower),
    layer("gpu_msg.sched.supervisor_sync_share", "ratio", Lower),
    layer("gpu_msg.sched.epochs", "count", Lower),
    layer("gpu_msg.sched.thread_speedup", "ratio", Higher),
    layer("gpu_msg.recovery.recoveries", "count", Lower),
    layer("gpu_msg.recovery.checkpoints", "count", Lower),
    layer("gpu_msg.recovery.journal_replayed", "count", Lower),
    layer("gpu_msg.recovery.replay_duplicates", "count", Lower),
    layer("gpu_msg.recovery.snapshot_fallbacks", "count", Lower),
    layer("gpu_msg.recovery.fenced_commits", "count", Lower),
    layer("gpu_msg.supervisor.failovers", "count", Lower),
    layer("gpu_msg.tenancy.migrations", "count", Lower),
    layer("gpu_msg.tenancy.aborted_migrations", "count", Lower),
    layer("gpu_msg.tenancy.guaranteed_lost", "count", Lower),
    layer("gpu_msg.fault.classes_landed", "count", Higher),
    layer("gpu_msg.metrics.export_host_us", "us", Lower),
    // obs: the repository's own tracing.
    layer("obs.trace_overhead_share", "ratio", Lower),
    layer("obs.span.host_ns_per_record", "ns", Lower),
    layer("obs.spans_dropped", "count", Lower),
    // The benchmark itself: can the other numbers be trusted?
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.budget_coverage", "ratio", Higher),
    layer("bench.rep_wall_iqr_share", "ratio", Lower),
    layer("bench.rep_wall_p90_ms", "ms", Lower),
    layer("bench.reps", "count", Higher),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named values produced by one pass, in production order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name = value`.
    ///
    /// # Panics
    /// Panics if `name` is not in a metric table or was already set —
    /// both are harness bugs that would silently corrupt a comparison.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric `{name}` is not in the tables");
        assert!(self.get(name).is_none(), "metric `{name}` set twice");
        self.0.push((name, value));
    }

    /// Value of `name`, if this pass produced it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Append another pass's values.
    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde::json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn str_of(v: &Value, field: &str) -> String {
        match v.field(field) {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("field `{field}` must be a string, got {other:?}"),
        }
    }

    fn array<'a>(v: &'a Value, field: &str) -> &'a [Value] {
        match v.field(field) {
            Ok(Value::Array(a)) => a,
            other => panic!("field `{field}` must be an array, got {other:?}"),
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{d:?}"
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = benchmark_json();
        let Value::Object(pairs) = &doc else {
            panic!("BENCHMARK.json must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let names: Vec<String> = array(&doc, "workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for w in array(&doc, "workloads") {
            assert!(str_of(w, "why").len() <= 200, "why too long: {w:?}");
        }

        for (field, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = array(&doc, field);
            assert_eq!(listed.len(), table.len(), "{field} length");
            for (j, d) in listed.iter().zip(table) {
                assert_eq!(str_of(j, "name"), d.name);
                assert_eq!(str_of(j, "unit"), d.unit, "{}", d.name);
                let better = match d.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(str_of(j, "better"), better, "{}", d.name);
                match (j.field("bound"), d.bound) {
                    (Ok(Value::F64(b)), Some(want)) => assert_eq!(*b, want, "{}", d.name),
                    (Err(_), None) => {}
                    other => panic!("bound mismatch for {}: {other:?}", d.name),
                }
            }
        }

        assert_eq!(
            doc.field("run_seconds"),
            Ok(&Value::U64(crate::RUN_SECONDS)),
            "run_seconds must equal the binary's default --seconds"
        );
    }
}
