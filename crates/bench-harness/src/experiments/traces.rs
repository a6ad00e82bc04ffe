//! Shared trace-analysis driver for Table I, Figure 2 and Figure 6(a):
//! generates every proxy application's synthetic trace and analyses it.

use proxy_traces::{analyze, generate, AppAnalysis, AppModel, GenOptions};

use crate::table::Report;

/// Analyse all twelve applications at the given depth scale (1.0 = the
/// paper's reported queue depths).
pub fn analyze_all(depth_scale: f64, seed: u64) -> Vec<(AppModel, AppAnalysis)> {
    AppModel::all()
        .into_iter()
        .map(|model| {
            let trace = generate(
                &model,
                GenOptions {
                    depth_scale,
                    ranks: None,
                    seed,
                    rank0_funnel: 0,
                },
            );
            (model, analyze(&trace))
        })
        .collect()
}

/// Table I: application communication characteristics.
pub fn table1(analyses: &[(AppModel, AppAnalysis)]) -> Report {
    let mut r = Report::new(
        "Table I: proxy application characteristics",
        &[
            "application",
            "suite",
            "ranks",
            "peers(med)",
            "comms",
            "tags",
            "tag_bits",
            "src_wild",
            "tag_wild",
            "msgs",
        ],
    );
    for (model, a) in analyses {
        r.push(vec![
            model.name.to_string(),
            model.suite.label().to_string(),
            a.ranks.to_string(),
            format!("{:.0}", a.peers.median),
            a.communicators.to_string(),
            a.distinct_tags.to_string(),
            a.tag_bits().to_string(),
            a.src_wildcards.to_string(),
            a.tag_wildcards.to_string(),
            a.messages.to_string(),
        ]);
    }
    r
}

/// Figure 2: UMQ maximum-depth distribution across ranks, per app.
pub fn figure2(analyses: &[(AppModel, AppAnalysis)]) -> Report {
    let title = "Figure 2: UMQ length distribution across ranks";
    depths(title, analyses, false)
}

/// The PRQ companion distribution (the paper omits the plot "due to
/// their similarity" — we print it to show the similarity).
pub fn figure2_prq(analyses: &[(AppModel, AppAnalysis)]) -> Report {
    let title = "Figure 2 (companion): PRQ length distribution across ranks";
    depths(title, analyses, true)
}

/// One queue's depth distribution across ranks, per app: the PRQ's when
/// `prq`, else the UMQ's.
fn depths(title: &str, analyses: &[(AppModel, AppAnalysis)], prq: bool) -> Report {
    let mut r = Report::new(
        title,
        &["application", "min", "q1", "median", "mean", "q3", "max"],
    );
    for (model, a) in analyses {
        let d = if prq { &a.prq_depth } else { &a.umq_depth };
        let mut row = vec![model.name.to_string()];
        row.extend([d.min, d.q1, d.median, d.mean, d.q3, d.max].map(|v| format!("{v:.0}")));
        r.push(row);
    }
    r
}

/// Figure 6(a): {src, tag} tuple uniqueness per application.
pub fn figure6a(analyses: &[(AppModel, AppAnalysis)]) -> Report {
    let mut r = Report::new(
        "Figure 6(a): most-common {src,tag} tuple share per destination [%]",
        &["application", "uniqueness_pct", "hash_friendly"],
    );
    for (model, a) in analyses {
        r.push(vec![
            model.name.to_string(),
            format!("{:.2}", a.tuple_uniqueness_pct),
            if a.tuple_uniqueness_pct < 10.0 {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    r
}

/// Section VI-A/VII feasibility companion: peer-usage regularity per app
/// ("multiple queues is only efficient if queues are evenly used").
pub fn queue_usage(analyses: &[(AppModel, AppAnalysis)]) -> Report {
    let mut r = Report::new(
        "Section VI-A: peer-usage regularity (busiest peer / fair share)",
        &["application", "imbalance(med)", "regular", "usable_queues"],
    );
    for (model, a) in analyses {
        let regular = a.peer_imbalance.median < 2.0;
        r.push(vec![
            model.name.to_string(),
            format!("{:.2}", a.peer_imbalance.median),
            if regular { "yes" } else { "no" }.to_string(),
            format!("{:.0}", a.peers.median),
        ]);
    }
    r
}

/// Section VII as a table: the deepest relaxation each application
/// tolerates and the engine that buys, derived from its own trace.
pub fn recommendations(analyses: &[(AppModel, AppAnalysis)]) -> Report {
    let mut r = Report::new(
        "Section VII: recommended configuration per application",
        &[
            "application",
            "wildcards",
            "hash_friendly",
            "recommendation",
        ],
    );
    for (model, a) in analyses {
        let wild = a.src_wildcards > 0 || a.tag_wildcards > 0;
        let hashable = a.tuple_uniqueness_pct < 10.0;
        let rec = if wild {
            "compliant matrix (or drop ANY_SOURCE at init)".to_string()
        } else if hashable {
            "hash table under BSP tag discipline (~500 M class)".to_string()
        } else {
            format!("{:.0} partitioned queues (~60 M class)", a.peers.median)
        };
        r.push(vec![
            model.name.to_string(),
            if wild { "yes" } else { "no" }.to_string(),
            if hashable { "yes" } else { "no" }.to_string(),
            rec,
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Vec<(AppModel, AppAnalysis)> {
        // Reduced scale keeps the suite fast; shape assertions use
        // scale-aware bounds.
        analyze_all(0.2, 99)
    }

    #[test]
    fn table1_reproduces_paper_facts() {
        let analyses = small();
        let by = |n: &str| -> &AppAnalysis {
            &analyses
                .iter()
                .find(|(m, _)| m.name == n)
                .unwrap_or_else(|| panic!("{n} missing from the trace analyses"))
                .1
        };
        // Wildcards: only MiniDFT and MiniFE, src only.
        for (m, a) in &analyses {
            if m.name == "MiniDFT" || m.name == "MiniFE" {
                assert!(a.src_wildcards > 0, "{}", m.name);
            } else {
                assert_eq!(a.src_wildcards, 0, "{}", m.name);
            }
            assert_eq!(a.tag_wildcards, 0, "{}", m.name);
            assert!(a.tag_bits() <= 16, "{}", m.name);
        }
        // Communicators.
        assert_eq!(by("Nekbone").communicators, 2);
        assert_eq!(by("MiniDFT").communicators, 7);
        assert_eq!(by("LULESH").communicators, 1);
        // Peer extremes: AMG and CNS spread widest.
        assert!(by("AMG").peers.median >= 60.0);
        assert!(by("CNS").peers.median >= 55.0);
        assert!(by("Nekbone").peers.median <= 25.0);
    }

    #[test]
    fn figure2_outliers_are_multigrid_and_nekbone() {
        let analyses = small();
        let mean = |n: &str| {
            analyses
                .iter()
                .find(|(m, _)| m.name == n)
                .unwrap_or_else(|| panic!("{n} missing from the trace analyses"))
                .1
                .umq_depth
                .mean
        };
        // At scale 0.2 the paper's 512 threshold becomes ~102.
        for (m, a) in &analyses {
            match m.name {
                "MultiGrid" | "Nekbone" => {
                    assert!(a.umq_depth.mean > 200.0, "{} too shallow", m.name)
                }
                _ => assert!(a.umq_depth.mean < 102.4, "{} too deep", m.name),
            }
        }
        assert!(mean("Nekbone") > mean("MultiGrid") * 1.2);
        // Nekbone's skew: mean well above median.
        let nek = &analyses
            .iter()
            .find(|(m, _)| m.name == "Nekbone")
            .expect("Nekbone missing from the trace analyses")
            .1;
        assert!(
            nek.umq_depth.mean > nek.umq_depth.median * 1.5,
            "Nekbone must be long-tailed: mean {} median {}",
            nek.umq_depth.mean,
            nek.umq_depth.median
        );
    }

    #[test]
    fn figure6a_mostly_single_digit() {
        let analyses = small();
        let single_digit = analyses
            .iter()
            .filter(|(_, a)| a.tuple_uniqueness_pct < 10.0)
            .count();
        assert!(
            single_digit >= 8,
            "most applications must be hash friendly, got {single_digit}/12"
        );
        // Nekbone (1 tag, skewed peers) must be among the bad cases.
        let nek = &analyses
            .iter()
            .find(|(m, _)| m.name == "Nekbone")
            .expect("Nekbone missing from the trace analyses")
            .1;
        assert!(
            nek.tuple_uniqueness_pct > 10.0,
            "Nekbone should be collision heavy, got {:.2}%",
            nek.tuple_uniqueness_pct
        );
    }

    #[test]
    fn reports_render() {
        let analyses = small();
        assert_eq!(table1(&analyses).rows.len(), 12);
        assert_eq!(figure2(&analyses).rows.len(), 12);
        assert_eq!(figure2_prq(&analyses).rows.len(), 12);
        assert_eq!(figure6a(&analyses).rows.len(), 12);
        assert_eq!(queue_usage(&analyses).rows.len(), 12);
        assert_eq!(recommendations(&analyses).rows.len(), 12);
    }

    #[test]
    fn recommendations_follow_the_paper() {
        let analyses = small();
        let rec = recommendations(&analyses);
        let row = |name: &str| {
            rec.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert!(row("MiniDFT")[3].contains("compliant"), "wildcard app");
        assert!(
            row("Nekbone")[3].contains("partitioned"),
            "hash-hostile app"
        );
        assert!(row("LULESH")[3].contains("hash"), "BSP-friendly app");
    }

    #[test]
    fn queue_usage_flags_the_irregular_apps() {
        let analyses = small();
        let usage = queue_usage(&analyses);
        let regular = |name: &str| {
            usage
                .rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[2].clone())
                .unwrap_or_else(|| panic!("{name} missing from the queue-usage table"))
        };
        assert_eq!(regular("Nekbone"), "no");
        assert_eq!(regular("LULESH"), "yes");
        assert_eq!(regular("CNS"), "yes");
    }
}
