//! Experiment drivers — one module per table/figure of the paper, plus
//! the observability exporter ([`obs_report`]). [`OUTPUTS`] is what the
//! `repro` binary prints: one entry per output, each rendered from these
//! modules at the paper's sizes and seeds.

use std::sync::OnceLock;

use proxy_traces::{AppAnalysis, AppModel};
use simt_sim::GpuGeneration;

use crate::table::Report;

pub mod ablations;
pub mod cpu_baseline;
pub mod figure4;
pub mod figure5;
pub mod figure6b;
pub mod obs_report;
pub mod profile;
pub mod scaling;
pub mod table2;
pub mod traces;
pub mod unexpected;

/// One rendered output: the text `repro <name>` prints and the reports
/// in it.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Exactly the bytes `repro <name>` prints.
    pub text: String,
    /// Every report in `text`, with the stem of the CSV file `repro all`
    /// writes it to under `results/`.
    pub reports: Vec<(String, Report)>,
}

impl Output {
    /// Reports separated by blank lines, each under its CSV stem.
    fn of<S: Into<String>>(reports: impl IntoIterator<Item = (S, Report)>) -> Self {
        let mut out = Output::default();
        for (stem, report) in reports {
            if !out.reports.is_empty() {
                out.text.push('\n');
            }
            out.text.push_str(&report.to_text());
            out.reports.push((stem.into(), report));
        }
        out
    }
}

/// Computes one output.
pub type Render = fn() -> Output;

/// Every output `repro` prints, as `(name, render)`, in the order
/// `repro all` prints them.
pub const OUTPUTS: [(&str, Render); 13] = [
    ("table1", table1),                   // Table I
    ("figure2", figure2),                 // Figure 2 and its PRQ companion
    ("figure6a", figure6a),               // Figure 6(a)
    ("recommendations", recommendations), // Sections VI-A and VII
    ("figure4", figure4),                 // Figure 4
    ("figure5", figure5),                 // Figure 5 + generation speedups
    ("figure6b", figure6b),               // Figure 6(b), one table per generation
    ("table2", table2),                   // Table II
    ("cpu_baseline", cpu_baseline),       // Section II-C, native wall clock
    ("profile", profile),                 // Section VII-C
    ("unexpected", unexpected),           // Section VI-B
    ("ablations", ablations),             // design choices the text calls out
    ("scaling", scaling),                 // rank-0 hotspot (related work)
];

/// The twelve applications' trace analyses, computed once for every
/// output that reads them.
fn analyses() -> &'static [(AppModel, AppAnalysis)] {
    static ANALYSES: OnceLock<Vec<(AppModel, AppAnalysis)>> = OnceLock::new();
    ANALYSES.get_or_init(|| traces::analyze_all(1.0, 0xD0E))
}

fn table1() -> Output {
    Output::of([("table1", traces::table1(analyses()))])
}

fn figure2() -> Output {
    Output::of([
        ("figure2_umq", traces::figure2(analyses())),
        ("figure2_prq", traces::figure2_prq(analyses())),
    ])
}

fn figure6a() -> Output {
    Output::of([("figure6a", traces::figure6a(analyses()))])
}

fn recommendations() -> Output {
    Output::of([
        ("queue_usage", traces::queue_usage(analyses())),
        ("recommendations", traces::recommendations(analyses())),
    ])
}

fn figure4() -> Output {
    let points = figure4::run(&figure4::DEFAULT_LENS, 7);
    Output::of([("figure4", figure4::report(&points))])
}

fn figure5() -> Output {
    let points = figure5::run(&figure5::DEFAULT_QUEUES, &figure5::DEFAULT_LENS, 7);
    let mut out = Output::of([("figure5", figure5::report(&points))]);
    // The paper's cross-generation claim for this experiment.
    let at = |generation| figure5::run_generation(generation, &[4, 16], &[1024], 7);
    let pascal = at(GpuGeneration::PascalGtx1080);
    out.text += &format!(
        "\nGTX1080 speedup: {:.2}x over K80 (paper: 2.12x), {:.2}x over M40 (paper: 1.56x)\n",
        figure5::mean_speedup(&pascal, &at(GpuGeneration::KeplerK80)),
        figure5::mean_speedup(&pascal, &at(GpuGeneration::MaxwellM40))
    );
    out
}

fn figure6b() -> Output {
    let points = figure6b::run(&figure6b::DEFAULT_LENS, &figure6b::DEFAULT_CTAS, 7);
    let mut out = Output::of(GpuGeneration::ALL.map(|gen| {
        let stem = format!("figure6b_{}", gen.short_name().to_lowercase());
        (stem, figure6b::report(&points, gen))
    }));
    out.text.push('\n');
    out
}

fn table2() -> Output {
    Output::of([("table2", table2::report(&table2::run(1024, 17)))])
}

fn cpu_baseline() -> Output {
    let points = cpu_baseline::run(&cpu_baseline::DEFAULT_LENS, 7);
    Output::of([("cpu_baseline", cpu_baseline::report(&points))])
}

fn profile() -> Output {
    let engines = profile::engines(1024, 5);
    Output::of([
        ("profile", profile::report(&profile::run(&engines))),
        ("instruction_mix", profile::instruction_mix(&engines)),
    ])
}

fn unexpected() -> Output {
    let compaction = unexpected::run_compaction(&[256, 512, 1024], 5);
    let fraction = unexpected::run_fraction(1024, &[10, 25, 50, 75, 90, 100], 5);
    let (compaction, fraction) = unexpected::report(&compaction, &fraction);
    Output::of([("compaction", compaction), ("match_fraction", fraction)])
}

fn ablations() -> Output {
    let pipelining = ablations::pipelining(&[128, 256, 512, 992], 3);
    let window = ablations::window_sweep(512, &[16, 32, 64, 128], 3);
    let long_queues = ablations::long_queues(&[2048, 4096, 8192], 3);
    Output::of([
        ("ablation_pipelining", pipelining),
        ("ablation_window", window),
        ("ablation_long_queues", long_queues),
        ("ablation_hash_design", ablations::hash_design(1024, 3)),
    ])
}

fn scaling() -> Output {
    let points = scaling::run(&scaling::DEFAULT_RANKS, 8, 7);
    Output::of([("scaling", scaling::report(&points))])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a, the hash of the workspace's other goldens.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `text` without the lines that contain `needle`.
    fn without(text: &str, needle: &str) -> String {
        text.lines()
            .filter(|l| !l.contains(needle))
            .flat_map(|l| [l, "\n"])
            .collect()
    }

    /// FNV-1a of every deterministic output as c750c10 printed it, one
    /// release binary per output. `recommendations` is the two sections
    /// of that revision's `all` stdout; the `obs_report` entries are
    /// `obs_report` run with no argument, its trace without the
    /// `"cat":"wall"` lines and its stdout without the `wall clock (…)`
    /// line (both are host time). `cpu_baseline` is host-timed and
    /// has no entry.
    const GOLDEN: [(&str, u64); 15] = [
        ("table1", 0x22e3_c645_5df7_196f),
        ("figure2", 0x6af2_c78c_d5b4_28d9),
        ("figure6a", 0x9d96_c302_4b8c_f72d),
        ("recommendations", 0x320a_0d14_82e8_37d7),
        ("figure4", 0x76b5_3ac0_a4bb_278a),
        ("figure5", 0x965d_1689_f439_b884),
        ("figure6b", 0x0b8c_4db3_a37e_cd4a),
        ("table2", 0xf4f6_9ea7_a8aa_f9bc),
        ("profile", 0x29f7_bc01_31ae_c398),
        ("unexpected", 0x03c6_d7a7_28e3_b94c),
        ("ablations", 0x80bd_2408_6e0b_a911),
        ("scaling", 0x6bfc_5a22_3e63_1eba),
        ("obs_report OBS_metrics.prom", 0x28d4_defe_d3e6_ba48),
        ("obs_report OBS_trace.json", 0x09ed_c9f4_c726_3730),
        ("obs_report stdout", 0xa29c_5114_cc83_1905),
    ];

    fn obs_report_hashes() -> Vec<(&'static str, u64)> {
        let mut stdout = String::new();
        let mut files = Vec::new();
        obs_report::report(obs_report::default_config(), &mut stdout, |path, body| {
            files.push((path.to_string(), body.to_string()));
            Ok(())
        })
        .expect("the default obs report runs");
        let file = |name: &str| {
            let (_, body) = files.iter().find(|(p, _)| p == name).expect(name);
            body.clone()
        };
        vec![
            (
                "obs_report OBS_metrics.prom",
                fnv(&file("OBS_metrics.prom")),
            ),
            (
                "obs_report OBS_trace.json",
                fnv(&without(&file("OBS_trace.json"), "\"cat\":\"wall\"")),
            ),
            ("obs_report stdout", fnv(&without(&stdout, "wall clock ("))),
        ]
    }

    #[test]
    fn every_output_matches_its_golden() {
        let got: Vec<(&str, u64)> = std::thread::scope(|s| {
            let outputs: Vec<_> = OUTPUTS
                .iter()
                .filter(|(name, _)| *name != "cpu_baseline")
                .map(|&(name, render)| (name, s.spawn(move || fnv(&render().text))))
                .collect();
            let obs = s.spawn(obs_report_hashes);
            let mut got: Vec<(&str, u64)> = outputs
                .into_iter()
                .map(|(name, h)| (name, h.join().expect("output renders")))
                .collect();
            got.extend(obs.join().expect("obs report renders"));
            got
        });
        let moved: Vec<String> = GOLDEN
            .iter()
            .zip(&got)
            .filter(|(want, got)| want != got)
            .map(|(want, got)| format!("{} {:#018x}, golden {:#018x}", got.0, got.1, want.1))
            .collect();
        assert_eq!(got.len(), GOLDEN.len());
        assert!(moved.is_empty(), "outputs moved:\n{}", moved.join("\n"));
    }
}
