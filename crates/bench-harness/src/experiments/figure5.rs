//! Figure 5: rank-partitioned matching rate vs. total queue length for
//! 1–32 queues (GTX 1080), with the required CTA counts annotated, plus
//! the paper's cross-generation speedups (GTX 1080 averages 2.12× over
//! the K80 and 1.56× over the M40 in this experiment).

use msg_match::partitioned::cta_plan;
use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::table::{fmt_mps, Report};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Number of queues.
    pub(crate) queues: usize,
    /// Total queue length across all queues.
    pub(crate) total_len: usize,
    /// Matching rate.
    pub(crate) matches_per_sec: f64,
    /// CTAs the launch plan needs.
    pub(crate) ctas: u32,
}

/// Queue counts the paper's figure plots.
pub const DEFAULT_QUEUES: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Total queue lengths swept.
pub const DEFAULT_LENS: [usize; 5] = [256, 1024, 2048, 4096, 8192];

/// Workload with sources spread uniformly so queues balance (the paper's
/// best case; feasibility of that assumption is Section VI-A's analysis).
/// Receives are posted in arrival order: the paper notes an *ordered*
/// queue sustains the single-batch rate across lengths, while a reversed
/// one degrades (covered by the `ablations` harness).
fn workload(total_len: usize, queues: usize, seed: u64) -> Workload {
    let mut w = WorkloadSpec {
        len: total_len,
        peers: (queues * 8) as u32, // several sources per queue
        tags: 1 << 12,
        seed,
        ..Default::default()
    }
    .generate();
    w.reqs = w
        .msgs
        .iter()
        .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
        .collect();
    w
}

/// Sizes of each queue under `src % queues` partitioning.
fn queue_sizes(w: &Workload, queues: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; queues];
    for m in &w.msgs {
        sizes[m.src as usize % queues] += 1;
    }
    sizes
}

/// Run the sweep for one generation.
pub fn run_generation(
    generation: GpuGeneration,
    queues: &[usize],
    lens: &[usize],
    seed: u64,
) -> Vec<Point> {
    let mut out = Vec::new();
    for &total_len in lens {
        for &q in queues {
            let w = workload(total_len, q, seed);
            let mut gpu = Gpu::new(generation);
            let r = PartitionedMatcher::new(q)
                .match_batch(&mut gpu, &w.msgs, &w.reqs)
                .expect("workload has no wildcards");
            assert_eq!(r.matches as usize, total_len, "must fully match");
            out.push(Point {
                queues: q,
                total_len,
                matches_per_sec: r.matches_per_sec,
                ctas: cta_plan(&queue_sizes(&w, q)),
            });
        }
    }
    out
}

/// The figure's main sweep (GTX 1080).
pub fn run(queues: &[usize], lens: &[usize], seed: u64) -> Vec<Point> {
    run_generation(GpuGeneration::PascalGtx1080, queues, lens, seed)
}

/// Mean speedup of `a` over `b` across matching (queues, len) points.
pub fn mean_speedup(a: &[Point], b: &[Point]) -> f64 {
    let mut ratios = Vec::new();
    for pa in a {
        if let Some(pb) = b
            .iter()
            .find(|p| p.queues == pa.queues && p.total_len == pa.total_len)
        {
            ratios.push(pa.matches_per_sec / pb.matches_per_sec);
        }
    }
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Render the GTX 1080 sweep.
pub fn report(points: &[Point]) -> Report {
    let mut r = Report::new(
        "Figure 5: partitioned matching rate [M matches/s] (CTAs), GTX 1080",
        &["total_len", "1q", "2q", "4q", "8q", "16q", "32q"],
    );
    let mut lens: Vec<usize> = points.iter().map(|p| p.total_len).collect();
    lens.sort_unstable();
    lens.dedup();
    for len in lens {
        let mut row = vec![len.to_string()];
        for q in DEFAULT_QUEUES {
            let cell = points
                .iter()
                .find(|p| p.total_len == len && p.queues == q)
                .map(|p| format!("{} ({})", fmt_mps(p.matches_per_sec), p.ctas))
                .unwrap_or_default();
            row.push(cell);
        }
        r.push(row);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_queues_scale_roughly_linearly_up_to_four() {
        let pts = run(&[1, 2, 4], &[1024], 3);
        let rate = |q: usize| {
            pts.iter()
                .find(|p| p.queues == q)
                .unwrap_or_else(|| panic!("sweep is missing the {q}-queue point"))
                .matches_per_sec
        };
        let s2 = rate(2) / rate(1);
        let s4 = rate(4) / rate(1);
        assert!(s2 > 1.5, "2 queues speedup {s2}");
        assert!(s4 > 3.0, "4 queues speedup {s4}");
    }

    #[test]
    fn sixteen_queues_near_sixty_m() {
        let pts = run(&[16], &[1024], 3);
        let r = pts[0].matches_per_sec;
        assert!(
            (40.0e6..90.0e6).contains(&r),
            "paper reports ≈60 M matches/s for well-partitioned queues, got {r}"
        );
    }

    #[test]
    fn generation_speedups_match_paper() {
        let q = [4usize, 16];
        let l = [1024usize];
        let p = run_generation(GpuGeneration::PascalGtx1080, &q, &l, 5);
        let k = run_generation(GpuGeneration::KeplerK80, &q, &l, 5);
        let m = run_generation(GpuGeneration::MaxwellM40, &q, &l, 5);
        let vs_k = mean_speedup(&p, &k);
        let vs_m = mean_speedup(&p, &m);
        // Paper: 2.12× over K80, 1.56× over M40.
        assert!((1.5..3.0).contains(&vs_k), "vs K80: {vs_k}");
        assert!((1.2..2.2).contains(&vs_m), "vs M40: {vs_m}");
    }

    #[test]
    fn cta_annotation_is_the_first_launch_grid() {
        // The annotation predicts the grid the first round launches; the
        // launch's functional-execution instant records the real one.
        for &total_len in &DEFAULT_LENS {
            for &q in &DEFAULT_QUEUES {
                let w = workload(total_len, q, 3);
                let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
                gpu.enable_tracing(0, 1 << 12);
                PartitionedMatcher::new(q)
                    .match_batch(&mut gpu, &w.msgs, &w.reqs)
                    .expect("workload has no wildcards");
                let rec = gpu.take_recorder().expect("tracing is on");
                let launched = rec
                    .events()
                    .find(|e| e.instant && e.category == obs::SpanCategory::FunctionalExec)
                    .and_then(|e| e.args.iter().find(|(k, _)| *k == "ctas"))
                    .map(|(_, v)| v.clone());
                assert_eq!(
                    launched,
                    Some(obs::ArgValue::U64(cta_plan(&queue_sizes(&w, q)).into())),
                    "{q} queues over {total_len} messages"
                );
            }
        }
    }

    #[test]
    fn cta_annotation_grows_with_length() {
        let pts = run(&[4], &[1024, 4096], 3);
        let point = |len: usize| {
            pts.iter()
                .find(|p| p.total_len == len)
                .unwrap_or_else(|| panic!("sweep is missing total_len {len}"))
        };
        let c1 = point(1024).ctas;
        let c4 = point(4096).ctas;
        assert!(c4 >= c1, "more total work needs at least as many CTAs");
    }
}
