//! The benchmark's own span tracer: one span per call from `bench/` into
//! a layer, kept in memory and written out when the run ends.
//!
//! Spans are recorded from the benchmark's files only (spans inside the
//! crates are a later issue), on the calling thread, with name, start,
//! end, parent and repetition id. A layer's *self time* is its span's
//! duration minus the part its child spans cover; the per-layer budget
//! table is printed from that.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`gpu_msg.service.run`, `fabric.replay`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Repetition the span belongs to (0 outside repetitions).
    pub rep: u32,
}

/// Aggregate of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child spans.
    pub self_ns: u64,
}

/// In-memory span recorder. Disabled (the untraced pass) it runs the
/// closure and records nothing, so end-to-end numbers never pay for it.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or passes straight through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Switch recording on or off between repetitions (the traced pass
    /// alternates traced and untraced repetitions to price the tracer).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between spans");
        self.enabled = enabled;
    }

    /// Is the tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tag subsequent spans with this repetition id.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` as a span named `name`, nested under whatever span is
    /// open. The closure receives the tracer back so layer calls inside
    /// it can record children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order: its duration minus the
    /// part its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(children))
            .collect()
    }

    /// Per-name totals and self times, name-ordered.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.end_ns - s.start_ns;
            e.self_ns += self_ns;
        }
        out
    }

    /// Render the spans as Chrome `trace_event` JSON through the
    /// repository's own exporter (one wall-clock track; `id`, `parent`
    /// and `rep` travel as span args).
    pub fn to_perfetto(&self, workload: &str) -> String {
        let mut rec = obs::SpanRecorder::new(0, self.spans.len().max(1));
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id", obs::ArgValue::U64(id as u64)),
                ("rep", obs::ArgValue::U64(u64::from(s.rep))),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", obs::ArgValue::U64(u64::from(p))));
            }
            rec.record_complete(
                obs::SpanCategory::Wall,
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns,
                args,
            );
        }
        obs::perfetto::export(&[(format!("bench {workload} (wall clock)"), &rec)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_closure() {
        let mut tr = Tracer::new(false);
        let v = tr.span("a", |tr| tr.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_repetition_ids() {
        let mut tr = Tracer::new(true);
        tr.set_rep(3);
        tr.span("bench.rep", |tr| {
            tr.span("layer.a", |_| ());
            tr.span("layer.b", |tr| tr.span("layer.c", |_| ()));
        });
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["bench.rep", "layer.a", "layer.b", "layer.c"]);
        let parents: Vec<_> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(tr
            .spans()
            .iter()
            .all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = tr.layer_times();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!((outer.calls, inner.calls), (1, 1));
    }

    #[test]
    fn export_carries_parent_and_rep_as_args() {
        let mut tr = Tracer::new(true);
        tr.set_rep(2);
        tr.span("bench.rep", |tr| tr.span("gpu_msg.service.run", |_| ()));
        let json = tr.to_perfetto("svc-hash");
        assert!(json.contains("\"name\":\"gpu_msg.service.run\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"rep\":2"));
        assert!(json.contains("\"cat\":\"wall\""));
        serde::json::parse_value(&json).expect("the trace must be valid JSON");
    }
}
