//! Queue-depth scaling with process count — the related-work
//! observation the paper builds on (Keller et al.: "the UMQ length
//! scales linearly with the process count … However, this only applies
//! to rank 0 while other ranks do not exceed a queue length of 200").
//!
//! A gather-to-root phase is appended to a regular stencil application;
//! rank 0's maximum UMQ depth then grows linearly with the rank count
//! while the other ranks' depths stay flat — quantifying why hotspot
//! ranks, not averages, dictate matcher provisioning.

use proxy_traces::{analyze, generate, AppModel, GenOptions};

use crate::table::Report;

/// One scaling point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Rank count.
    pub(crate) ranks: u32,
    /// Rank 0's maximum UMQ depth.
    pub(crate) rank0_umq: f64,
    /// Median (over the other ranks) maximum UMQ depth.
    pub(crate) others_umq: f64,
}

/// Rank counts swept.
pub const DEFAULT_RANKS: [u32; 4] = [16, 32, 64, 128];

/// Run the scaling study on a LULESH-like stencil with a gather phase.
pub fn run(rank_counts: &[u32], funnel_msgs: u32, seed: u64) -> Vec<Point> {
    let model = AppModel::by_name("LULESH").expect("known app");
    rank_counts
        .iter()
        .map(|&ranks| {
            let trace = generate(
                &model,
                GenOptions {
                    depth_scale: 0.5,
                    ranks: Some(ranks),
                    seed,
                    rank0_funnel: funnel_msgs,
                },
            );
            // Per-rank maxima: rank 0 vs the field. The analyzer returns
            // a distribution over ranks; isolate rank 0 by re-analysing
            // the trace with rank 0's traffic only? Cheaper: the funnel
            // targets rank 0 exclusively, so the distribution's max IS
            // rank 0 and the median is the field.
            let a = analyze(&trace);
            Point {
                ranks,
                rank0_umq: a.umq_depth.max,
                others_umq: a.umq_depth.median,
            }
        })
        .collect()
}

/// Render the study.
pub fn report(points: &[Point]) -> Report {
    let mut r = Report::new(
        "Related-work scaling: rank-0 UMQ depth vs process count (gather phase)",
        &["ranks", "rank0_umq_max", "other_ranks_median"],
    );
    for p in points {
        r.push(vec![
            p.ranks.to_string(),
            format!("{:.0}", p.rank0_umq),
            format!("{:.0}", p.others_umq),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank0_scales_linearly_others_stay_flat() {
        let pts = run(&[16, 64], 8, 7);
        let (small, large) = (pts[0], pts[1]);
        let rank0_growth = large.rank0_umq / small.rank0_umq;
        let other_growth = large.others_umq / small.others_umq.max(1.0);
        assert!(
            rank0_growth > 2.5,
            "rank 0 must scale ~linearly with 4x ranks: {rank0_growth}"
        );
        assert!(
            other_growth < 1.5,
            "other ranks must stay flat: {other_growth}"
        );
    }

    #[test]
    fn without_funnel_no_hotspot() {
        let pts = run(&[64], 0, 7);
        // Max within ~2x of the median when no rank is a gather root.
        assert!(pts[0].rank0_umq < pts[0].others_umq * 2.0, "{pts:?}");
    }
}
