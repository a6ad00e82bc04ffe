//! Prometheus text-exposition renderer.
//!
//! Producers describe their metrics as [`Family`] values — counters,
//! gauges, or histograms — and [`render`] emits the classic
//! `# HELP` / `# TYPE` / sample-line format. Histogram buckets follow
//! the exposition contract exactly: `le` bounds are *cumulative* upper
//! bounds, the `+Inf` bucket equals `_count`, and `_sum` carries the
//! exact sum of observations.

use std::fmt::Write as _;

/// Metric family kind, rendered into the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

impl FamilyKind {
    fn label(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

/// One labelled scalar sample of a counter or gauge family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label pairs in emission order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// One labelled histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Label pairs in emission order (`le` is appended per bucket).
    pub labels: Vec<(String, String)>,
    /// `(upper bound, cumulative count)` pairs in increasing bound
    /// order. The implicit `+Inf` bucket is emitted from `count`.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

/// A named family of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Metric name (producers follow Prometheus naming conventions).
    pub(crate) name: String,
    /// `# HELP` text.
    pub(crate) help: String,
    /// Family kind.
    pub(crate) kind: FamilyKind,
    /// Scalar samples (counters/gauges).
    pub(crate) samples: Vec<Sample>,
    /// Histogram series (histograms).
    pub(crate) histograms: Vec<HistogramSample>,
}

impl Family {
    /// Scalar (counter/gauge) family over `samples`.
    pub fn scalar(name: &str, help: &str, kind: FamilyKind, samples: Vec<Sample>) -> Self {
        Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples,
            histograms: Vec::new(),
        }
    }

    /// Histogram family over `histograms`.
    pub fn histogram(name: &str, help: &str, histograms: Vec<HistogramSample>) -> Self {
        Family {
            name: name.to_string(),
            help: help.to_string(),
            kind: FamilyKind::Histogram,
            samples: Vec::new(),
            histograms,
        }
    }
}

/// Deterministic value rendering: integers as integers, floats via the
/// shortest round-trip form Rust guarantees.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Render families in order as a Prometheus text exposition.
pub fn render(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.label());
        for s in &f.samples {
            out.push_str(&f.name);
            write_labels(&mut out, &s.labels, None);
            let _ = writeln!(out, " {}", fmt_value(s.value));
        }
        for h in &f.histograms {
            for (le, cum) in &h.buckets {
                let _ = write!(out, "{}_bucket", f.name);
                write_labels(&mut out, &h.labels, Some(("le", &fmt_value(*le))));
                let _ = writeln!(out, " {cum}");
            }
            let _ = write!(out, "{}_bucket", f.name);
            write_labels(&mut out, &h.labels, Some(("le", "+Inf")));
            let _ = writeln!(out, " {}", h.count);
            out.push_str(&f.name);
            out.push_str("_sum");
            write_labels(&mut out, &h.labels, None);
            let _ = writeln!(out, " {}", fmt_value(h.sum));
            out.push_str(&f.name);
            out.push_str("_count");
            write_labels(&mut out, &h.labels, None);
            let _ = writeln!(out, " {}", h.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_families_render_help_type_and_labels() {
        let f = Family::scalar(
            "service_matched_total",
            "Messages matched.",
            FamilyKind::Counter,
            vec![Sample {
                labels: vec![
                    ("shard".into(), "0".into()),
                    ("engine".into(), "hash".into()),
                ],
                value: 1234.0,
            }],
        );
        let text = render(&[f]);
        assert!(text.contains("# HELP service_matched_total Messages matched."));
        assert!(text.contains("# TYPE service_matched_total counter"));
        assert!(text.contains("service_matched_total{shard=\"0\",engine=\"hash\"} 1234\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf_sum_count() {
        let f = Family::histogram(
            "lat_seconds",
            "Latency.",
            vec![HistogramSample {
                labels: vec![("shard".into(), "1".into())],
                buckets: vec![(0.001, 3), (0.01, 7), (0.1, 9)],
                sum: 0.5,
                count: 10,
            }],
        );
        let text = render(&[f]);
        assert!(text.contains("lat_seconds_bucket{shard=\"1\",le=\"0.001\"} 3"));
        assert!(text.contains("lat_seconds_bucket{shard=\"1\",le=\"0.1\"} 9"));
        assert!(text.contains("lat_seconds_bucket{shard=\"1\",le=\"+Inf\"} 10"));
        assert!(text.contains("lat_seconds_sum{shard=\"1\"} 0.5"));
        assert!(text.contains("lat_seconds_count{shard=\"1\"} 10"));
    }

    #[test]
    fn values_render_deterministically() {
        assert_eq!(fmt_value(4.0), "4");
        assert_eq!(fmt_value(0.25), "0.25");
        assert_eq!(fmt_value(-3.0), "-3");
    }
}
