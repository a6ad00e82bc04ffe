//! What a pass leaves behind: the context block, the human-readable
//! tables, the result file, the driver's contract line, and the
//! comparison of two result files.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

use crate::metrics::{Better, MetricDef, Values, END_TO_END, PER_LAYER};

/// Where and on what a result was measured. Printed with every output
/// and stored in every result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Git commit of the checkout (`unknown` outside a repository).
    pub git_commit: String,
    /// Workload seed.
    pub seed: u64,
    /// FNV-1a hash of the workload's constants, in hex. Results whose
    /// hashes differ measured different workloads and are never compared.
    pub constants_hash: String,
}

/// This package's directory (`bench/` of the checkout): where `cargo run`
/// says the manifest is, else where it was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let package = package_dir();
    let root = package.parent().unwrap_or(&package);
    let out = Command::new(program)
        .args(args)
        .current_dir(root)
        // Only the checkout's own repository counts: never report the
        // commit of some repository the checkout happens to sit inside.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Context {
    /// Gather the context of this process for `workload` at `seed`.
    pub fn gather(workload: &str, constants: &str, seed: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Context {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            seed,
            constants_hash: format!("{:016x}", fnv1a(&format!("{workload} {constants}"))),
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("git_commit".into(), Value::Str(self.git_commit.clone())),
            ("seed".into(), Value::U64(self.seed)),
            (
                "constants_hash".into(),
                Value::Str(self.constants_hash.clone()),
            ),
        ])
    }

    /// Print the block.
    pub fn print(&self, workload: &str, traced: bool) {
        println!(
            "== {workload} ({} pass) seed {} constants {}",
            pass_name(traced),
            self.seed,
            self.constants_hash
        );
        println!(
            "   host: {} threads, {}, {}, commit {}",
            self.nproc, self.cpu_model, self.rustc, self.git_commit
        );
    }
}

/// Display name of a pass.
pub fn pass_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

/// Outcome of one pass of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// Workload name.
    pub workload: &'static str,
    /// Traced pass (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Operations attempted over every timed repetition.
    pub attempted: u64,
    /// Operations that failed or diverged from an oracle.
    pub failed: u64,
    /// Metrics the pass produced.
    pub values: Values,
}

impl PassResult {
    /// Did every operation succeed and every check hold?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metric table this pass reports against.
    pub fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    fn metrics_value(&self, fill_missing: bool) -> Value {
        Value::Object(
            self.table()
                .iter()
                .filter_map(|d| {
                    let value = self.values.get(d.name).or(fill_missing.then_some(0.0))?;
                    Some((
                        d.name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::F64(value)),
                            ("unit".into(), Value::Str(d.unit.into())),
                        ]),
                    ))
                })
                .collect(),
        )
    }

    fn outcome_fields(&self, fill_missing: bool) -> Vec<(String, Value)> {
        vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), self.metrics_value(fill_missing)),
        ]
    }

    /// The last line of standard output: one JSON object with exactly
    /// `correct`, `attempted`, `failed` and `metrics`. The driver wants
    /// every metric of the pass's table from every workload, so a
    /// per-layer metric the workload cannot produce reads 0 here (the
    /// printed table and the result file omit it instead).
    pub fn contract_line(&self) -> String {
        render(&Value::Object(self.outcome_fields(true)), false)
    }

    /// The result file: context plus outcome, metrics the workload did
    /// not produce left out.
    pub fn to_json(&self, ctx: &Context) -> String {
        let mut fields = vec![
            ("context".to_string(), ctx.to_value()),
            ("workload".to_string(), Value::Str(self.workload.into())),
            ("traced".to_string(), Value::Bool(self.traced)),
        ];
        fields.extend(self.outcome_fields(false));
        render(&Value::Object(fields), true)
    }

    /// Print every produced metric by name with its unit.
    pub fn print(&self) {
        for d in self.table() {
            if let Some(v) = self.values.get(d.name) {
                println!("   {:<46} {:>16} {}", d.name, format_value(v), d.unit);
            }
        }
        println!(
            "   failed_ops_share {}: {} failed of {} attempted",
            format_value(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The serde shim renders `Serialize` types; wrap a raw tree for it.
struct Tree<'a>(&'a Value);

impl serde::Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn render(v: &Value, pretty: bool) -> String {
    if pretty {
        serde::json::to_string_pretty(&Tree(v))
    } else {
        serde::json::to_string(&Tree(v))
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Value in the first file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// Why the pair is out of tolerance, if it is.
    pub violation: Option<String>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn metric_values(doc: &Value) -> Result<Vec<(String, f64)>, String> {
    let Value::Object(pairs) = doc.field("metrics").map_err(|e| e.to_string())? else {
        return Err("`metrics` must be an object".into());
    };
    pairs
        .iter()
        .map(|(name, m)| {
            m.field("value")
                .ok()
                .and_then(number)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))
        })
        .collect()
}

fn context_str(doc: &Value, field: &str) -> Result<String, String> {
    match doc.field("context").and_then(|c| c.field(field)) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        Ok(Value::U64(n)) => Ok(n.to_string()),
        other => Err(format!("result file lacks context.{field}: {other:?}")),
    }
}

/// Is `b` worse than `a` by more than `bound` of `a`, in the metric's
/// own direction?
fn worse_by(def: &MetricDef, a: f64, b: f64, bound: f64) -> bool {
    match def.better {
        Better::Higher => b < a * (1.0 - bound),
        Better::Lower => b > a * (1.0 + bound),
    }
}

/// Compare two result documents of the same workload, pass and seed.
///
/// Every `sim_*` metric and every `simt_sim.stall.*` share must be
/// exactly equal; every bounded end-to-end metric must agree within its
/// bound in both directions (two runs of one commit have no "parent").
///
/// # Errors
/// Refuses documents whose constants hashes, workloads, passes or seeds
/// differ — they measured different things — and malformed documents.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Delta>, String> {
    for field in ["constants_hash", "seed"] {
        let (x, y) = (context_str(a, field)?, context_str(b, field)?);
        if x != y {
            return Err(format!(
                "refusing to compare: context.{field} differs ({x} vs {y})"
            ));
        }
    }
    for field in ["workload", "traced"] {
        if a.field(field).ok() != b.field(field).ok() {
            return Err(format!("refusing to compare: `{field}` differs"));
        }
    }
    let (ma, mb) = (metric_values(a)?, metric_values(b)?);
    let mut rows = Vec::new();
    for (name, va) in &ma {
        let Some((_, vb)) = mb.iter().find(|(n, _)| n == name) else {
            return Err(format!("metric `{name}` is missing from the second file"));
        };
        let (va, vb) = (*va, *vb);
        let exact = name.starts_with("sim_") || name.starts_with("simt_sim.stall.");
        let def = crate::metrics::find(name);
        let violation = if exact {
            (va.to_bits() != vb.to_bits()).then(|| "simulated values must be equal".to_string())
        } else {
            def.and_then(|d| d.bound.map(|bound| (d, bound)))
                .filter(|(d, bound)| worse_by(d, va, vb, *bound) || worse_by(d, vb, va, *bound))
                .map(|(_, bound)| format!("differs by more than {:.0} %", bound * 100.0))
        };
        rows.push(Delta {
            name: name.clone(),
            a: va,
            b: vb,
            violation,
        });
    }
    Ok(rows)
}

/// Load a result file.
///
/// # Errors
/// Unreadable file or malformed JSON.
pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde::json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result files, print the observed spread per metric, and
/// return the number of violations.
///
/// # Errors
/// See [`compare`] and [`load`].
pub fn compare_files(a: &Path, b: &Path) -> Result<usize, String> {
    let rows = compare(&load(a)?, &load(b)?)?;
    println!("-- {} vs {}", a.display(), b.display());
    for r in &rows {
        let spread = if r.a == 0.0 {
            0.0
        } else {
            (r.b - r.a).abs() / r.a.abs()
        };
        println!(
            "   {:<46} {:>14} {:>14}  spread {:>8.4} %  {}",
            r.name,
            format_value(r.a),
            format_value(r.b),
            spread * 100.0,
            r.violation.as_deref().unwrap_or("ok")
        );
    }
    Ok(rows.iter().filter(|r| r.violation.is_some()).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(hash: &str) -> Context {
        Context {
            nproc: 2,
            cpu_model: "test cpu".into(),
            rustc: "rustc 1.0".into(),
            git_commit: "abc".into(),
            seed: 7,
            constants_hash: hash.into(),
        }
    }

    fn untraced(host: f64, sim: f64) -> PassResult {
        let mut values = Values::default();
        values.set("setup_s", 0.5);
        values.set("host_msgs_per_s", host);
        values.set("host_sim_instr_per_s", 1.0e6);
        values.set("host_peak_rss_mb", 30.0);
        values.set("sim_msgs_per_s", sim);
        PassResult {
            workload: "svc-hash",
            traced: false,
            attempted: 100,
            failed: 0,
            values,
        }
    }

    fn doc(r: &PassResult, hash: &str) -> Value {
        serde::json::parse_value(&r.to_json(&ctx(hash))).expect("result files parse")
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let line = untraced(1.5e6, 4.0e8).contract_line();
        assert!(!line.contains('\n'));
        let Value::Object(pairs) = serde::json::parse_value(&line).unwrap() else {
            panic!("the contract line must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Object(metrics) = &pairs[3].1 else {
            panic!("metrics must be an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.field("unit").unwrap(), &Value::Str("s".into()));
    }

    #[test]
    fn traced_contract_line_zero_fills_what_the_workload_cannot_produce() {
        let mut values = Values::default();
        values.set("bench.reps", 12.0);
        let r = PassResult {
            workload: "domain-fabric",
            traced: true,
            attempted: 10,
            failed: 1,
            values,
        };
        let line = serde::json::parse_value(&r.contract_line()).unwrap();
        assert_eq!(line.field("correct").unwrap(), &Value::Bool(false));
        let Value::Object(metrics) = line.field("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let knee = line.field("metrics").unwrap().field("sim_knee_msgs_per_s");
        assert_eq!(knee.unwrap().field("value").unwrap(), &Value::F64(0.0));
        // The result file leaves the missing metric out instead.
        let file = doc(&r, "h");
        assert!(file
            .field("metrics")
            .unwrap()
            .field("sim_knee_msgs_per_s")
            .is_err());
        assert!(file.field("metrics").unwrap().field("bench.reps").is_ok());
    }

    #[test]
    fn compare_accepts_host_noise_within_the_bound_and_rejects_beyond() {
        let bound = crate::metrics::find("host_msgs_per_s")
            .and_then(|d| d.bound)
            .expect("host_msgs_per_s is bounded");
        let base = doc(&untraced(1.0e6, 4.0e8), "h");
        let near = doc(&untraced(1.0e6 * (1.0 + 0.5 * bound), 4.0e8), "h");
        let far = doc(&untraced(1.0e6 * (1.0 + 2.0 * bound), 4.0e8), "h");
        assert!(compare(&base, &near)
            .unwrap()
            .iter()
            .all(|d| d.violation.is_none()));
        let rows = compare(&base, &far).unwrap();
        let bad: Vec<_> = rows.iter().filter(|d| d.violation.is_some()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "host_msgs_per_s");
        // Symmetric: the faster file first is the same disagreement.
        assert_eq!(
            compare(&far, &base)
                .unwrap()
                .iter()
                .filter(|d| d.violation.is_some())
                .count(),
            1
        );
    }

    #[test]
    fn compare_demands_exact_simulated_values() {
        let base = doc(&untraced(1.0e6, 4.0e8), "h");
        let drift = doc(&untraced(1.0e6, 4.0e8 + 1.0), "h");
        let rows = compare(&base, &drift).unwrap();
        let bad: Vec<_> = rows.iter().filter(|d| d.violation.is_some()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "sim_msgs_per_s");
    }

    #[test]
    fn compare_refuses_different_constants_seeds_or_workloads() {
        let a = doc(&untraced(1.0e6, 4.0e8), "aaaa");
        let b = doc(&untraced(1.0e6, 4.0e8), "bbbb");
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("constants_hash"), "{err}");

        let mut other = untraced(1.0e6, 4.0e8);
        other.workload = "svc-matrix";
        let err = compare(&a, &doc(&other, "aaaa")).unwrap_err();
        assert!(err.contains("workload"), "{err}");
    }

    #[test]
    fn constants_hash_depends_on_workload_and_constants_only() {
        let a = Context::gather("svc-hash", "rate=1", 1);
        let b = Context::gather("svc-hash", "rate=1", 2);
        let c = Context::gather("svc-hash", "rate=2", 1);
        let d = Context::gather("svc-matrix", "rate=1", 1);
        assert_eq!(a.constants_hash, b.constants_hash);
        assert_ne!(a.constants_hash, c.constants_hash);
        assert_ne!(a.constants_hash, d.constants_hash);
        assert!(a.nproc >= 1);
    }
}
