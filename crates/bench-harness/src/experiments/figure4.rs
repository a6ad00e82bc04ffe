//! Figure 4: single-CTA matching rate of the MPI-compliant matrix
//! algorithm vs. queue length, on all three GPU generations.
//!
//! Workload as in Section V-B: random tuples in random order, every
//! message has a matching receive, nothing is left after matching.
//! Expected shape: a steady rate per generation (K80 ≈ 3 M, M40 ≈ 3.5 M,
//! GTX 1080 ≈ 6 M matches/s), ordered by clock rate, with a drop at 1024
//! where all 32 warps are needed for the scan and the reduce can no
//! longer be overlapped.

use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::table::{fmt_mps, Report};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Device generation.
    pub(crate) generation: GpuGeneration,
    /// Queue length (messages = receives).
    pub(crate) len: usize,
    /// Matching rate in matches/s.
    pub(crate) matches_per_sec: f64,
}

/// Queue lengths the paper's figure sweeps.
pub const DEFAULT_LENS: [usize; 9] = [16, 32, 64, 128, 256, 512, 768, 992, 1024];

/// Run the sweep.
pub fn run(lens: &[usize], seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for &len in lens {
        let w = WorkloadSpec::fully_matching(len, seed).generate();
        for generation in GpuGeneration::ALL {
            let mut gpu = Gpu::new(generation);
            let r = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
            assert_eq!(
                r.matches as usize, len,
                "fully-matching workload must fully match"
            );
            points.push(Point {
                generation,
                len,
                matches_per_sec: r.matches_per_sec,
            });
        }
    }
    points
}

/// Render the sweep as the figure's data table.
pub fn report(points: &[Point]) -> Report {
    let mut r = Report::new(
        "Figure 4: MPI-compliant matrix matching rate [M matches/s], single CTA",
        &["queue_len", "K80", "M40", "GTX1080"],
    );
    let mut lens: Vec<usize> = points.iter().map(|p| p.len).collect();
    lens.dedup();
    for len in lens {
        let cell = |g: GpuGeneration| -> String {
            points
                .iter()
                .find(|p| p.len == len && p.generation == g)
                .map(|p| fmt_mps(p.matches_per_sec))
                .unwrap_or_default()
        };
        r.push(vec![
            len.to_string(),
            cell(GpuGeneration::KeplerK80),
            cell(GpuGeneration::MaxwellM40),
            cell(GpuGeneration::PascalGtx1080),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let pts = run(&[256, 512, 992, 1024], 7);
        let get = |g: GpuGeneration, l: usize| {
            pts.iter()
                .find(|p| p.generation == g && p.len == l)
                .unwrap()
                .matches_per_sec
        };
        // Generation ordering at 512.
        let (k, m, p) = (
            get(GpuGeneration::KeplerK80, 512),
            get(GpuGeneration::MaxwellM40, 512),
            get(GpuGeneration::PascalGtx1080, 512),
        );
        assert!(
            k < m && m < p,
            "newer generations must be faster: {k} {m} {p}"
        );
        // Paper bands: ~3 / ~3.5 / ~6 M matches/s.
        assert!((2.0e6..4.5e6).contains(&k), "K80 {k}");
        assert!((2.5e6..5.0e6).contains(&m), "M40 {m}");
        assert!((4.5e6..8.0e6).contains(&p), "GTX1080 {p}");
        // Steady between 256 and 992 (within 25%).
        let ratio = get(GpuGeneration::PascalGtx1080, 256) / get(GpuGeneration::PascalGtx1080, 992);
        assert!(
            (0.75..1.35).contains(&ratio),
            "rate must be steady, ratio {ratio}"
        );
        // Drop at 1024 (pipelining lost).
        assert!(
            get(GpuGeneration::PascalGtx1080, 1024) < get(GpuGeneration::PascalGtx1080, 992) * 0.92,
            "1024 must drop below 992"
        );
    }

    #[test]
    fn report_renders() {
        let pts = run(&[64], 1);
        let rep = report(&pts);
        assert_eq!(rep.rows.len(), 1);
        assert!(rep.to_text().contains("Figure 4"));
    }
}
