//! Figure 6(b): hash-table matching rate under the no-ordering
//! relaxation, vs. element count and CTA count, on all three generations.
//!
//! Expected shape: two orders of magnitude above the compliant matcher —
//! ~110–150 M matches/s on Kepler, ~500 M on the GTX 1080 (a 3.3×
//! Kepler→Pascal gap, driven by clock *and* the atomic-throughput
//! improvements), with modest sensitivity to the CTA count because the
//! SM serialises beyond its residency limit.

use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::table::{fmt_mps, Report};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Device generation.
    pub(crate) generation: GpuGeneration,
    /// Elements matched (messages = requests).
    pub(crate) len: usize,
    /// CTAs launched.
    pub(crate) ctas: u32,
    /// Matching rate.
    pub(crate) matches_per_sec: f64,
}

/// Element counts swept.
pub const DEFAULT_LENS: [usize; 5] = [256, 1024, 2048, 4096, 8192];
/// CTA counts swept (the paper reports 1 and 32).
pub const DEFAULT_CTAS: [u32; 4] = [1, 4, 16, 32];

/// Run the sweep.
pub fn run(lens: &[usize], ctas: &[u32], seed: u64) -> Vec<Point> {
    let mut out = Vec::new();
    for &len in lens {
        let w = WorkloadSpec::unique_tuples(len, seed).generate();
        for &c in ctas {
            for generation in GpuGeneration::ALL {
                let mut gpu = Gpu::new(generation);
                let r = HashMatcher::with_ctas(c)
                    .match_batch(&mut gpu, &w.msgs, &w.reqs)
                    .expect("no wildcards in unique-tuple workload");
                assert_eq!(r.matches as usize, len, "unique tuples must fully match");
                out.push(Point {
                    generation,
                    len,
                    ctas: c,
                    matches_per_sec: r.matches_per_sec,
                });
            }
        }
    }
    out
}

/// Render one generation's slice.
pub fn report(points: &[Point], generation: GpuGeneration) -> Report {
    let mut r = Report::new(
        format!(
            "Figure 6(b): hash-table matching rate [M matches/s], {}",
            generation.device_name()
        ),
        &["elements", "1 CTA", "4 CTAs", "16 CTAs", "32 CTAs"],
    );
    let mut lens: Vec<usize> = points.iter().map(|p| p.len).collect();
    lens.sort_unstable();
    lens.dedup();
    for len in lens {
        let mut row = vec![len.to_string()];
        for c in DEFAULT_CTAS {
            let cell = points
                .iter()
                .find(|p| p.len == len && p.ctas == c && p.generation == generation)
                .map(|p| fmt_mps(p.matches_per_sec))
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
    fn rates_land_in_paper_bands() {
        let pts = run(&[1024], &[1], 5);
        let get = |g: GpuGeneration| {
            pts.iter()
                .find(|p| p.generation == g)
                .unwrap()
                .matches_per_sec
        };
        let k = get(GpuGeneration::KeplerK80);
        let p = get(GpuGeneration::PascalGtx1080);
        // Paper: 110–150 M on Kepler, ~500 M on Pascal.
        assert!((90.0e6..200.0e6).contains(&k), "K80 {k}");
        assert!((350.0e6..650.0e6).contains(&p), "GTX1080 {p}");
        // Kepler→Pascal ≈ 3.3×.
        let ratio = p / k;
        assert!((2.2..4.5).contains(&ratio), "Pascal/Kepler ratio {ratio}");
    }

    #[test]
    fn hash_dwarfs_the_compliant_matcher() {
        // The headline 80× claim (Pascal, ~6 M → ~500 M).
        let w = WorkloadSpec::unique_tuples(1024, 9).generate();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let hash = HashMatcher::default()
            .match_batch(&mut gpu, &w.msgs, &w.reqs)
            .unwrap();
        let matrix = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
        let speedup = hash.matches_per_sec / matrix.matches_per_sec;
        assert!(
            (40.0..140.0).contains(&speedup),
            "out-of-order speedup should be ~80×, got {speedup:.0}×"
        );
    }

    #[test]
    fn report_renders_per_generation() {
        let pts = run(&[256], &[1, 4, 16, 32], 1);
        let rep = report(&pts, GpuGeneration::MaxwellM40);
        assert_eq!(rep.rows.len(), 1);
        assert!(rep.to_text().contains("M40"));
    }
}
