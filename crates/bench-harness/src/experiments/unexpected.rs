//! Section VI-B: the cost of *unexpected messages*.
//!
//! Two effects are quantified:
//!
//! 1. **Compaction overhead** — when some entries survive a matching
//!    pass, the queues are compacted (prefix scan + move). The paper
//!    measures this at ~10% of the matching rate.
//! 2. **Match-fraction sensitivity** — unmatched messages traverse the
//!    whole receive queue without progress, so the rate scales with the
//!    fraction of messages that match ("if only half of the messages can
//!    be matched, the matching rate is reduced by about 50%").

use msg_match::compaction::compact_queue;
use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::table::{fmt_mps, Report};

/// Compaction-overhead measurement.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPoint {
    /// Queue length.
    pub(crate) len: usize,
    /// Matching-only rate.
    pub(crate) match_mps: f64,
    /// Rate including queue compaction.
    pub(crate) with_compaction_mps: f64,
    /// Overhead percentage.
    pub(crate) overhead_pct: f64,
}

/// Match-fraction sweep point.
#[derive(Debug, Clone, Copy)]
pub struct FractionPoint {
    /// Percent of messages with a matching receive.
    pub(crate) match_pct: u32,
    /// Effective matching rate (matches per second of kernel time).
    pub(crate) matches_per_sec: f64,
}

/// Measure compaction overhead at several queue lengths (GTX 1080).
pub fn run_compaction(lens: &[usize], seed: u64) -> Vec<CompactionPoint> {
    lens.iter()
        .map(|&len| {
            let w = WorkloadSpec {
                len,
                match_pct: 90,
                seed,
                ..Default::default()
            }
            .generate();
            let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
            let r = MatrixMatcher::default().match_iterative(&mut gpu, &w.msgs, &w.reqs);
            // Compact both queues under the ~10% residue mask.
            let keep: Vec<u32> = (0..len).map(|i| (i % 10 == 0) as u32).collect();
            let packed_m: Vec<u64> = w.msgs.iter().map(Envelope::pack).collect();
            let packed_r: Vec<u64> = w.reqs.iter().map(RecvRequest::pack).collect();
            let (_, c1) = compact_queue(&mut gpu, &packed_m, &keep);
            let (_, c2) = compact_queue(&mut gpu, &packed_r, &keep);
            let match_s = r.seconds;
            let total_s = r.seconds + c1.seconds + c2.seconds;
            CompactionPoint {
                len,
                match_mps: r.matches as f64 / match_s,
                with_compaction_mps: r.matches as f64 / total_s,
                overhead_pct: 100.0 * (total_s - match_s) / total_s,
            }
        })
        .collect()
}

/// Sweep the match fraction at a fixed queue length (GTX 1080).
pub fn run_fraction(len: usize, fractions: &[u32], seed: u64) -> Vec<FractionPoint> {
    fractions
        .iter()
        .map(|&match_pct| {
            let w = WorkloadSpec {
                len,
                match_pct,
                seed,
                ..Default::default()
            }
            .generate();
            let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
            let r = MatrixMatcher::default().match_iterative(&mut gpu, &w.msgs, &w.reqs);
            FractionPoint {
                match_pct,
                matches_per_sec: r.matches as f64 / r.seconds.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// Render both measurements.
pub fn report(comp: &[CompactionPoint], frac: &[FractionPoint]) -> (Report, Report) {
    let mut a = Report::new(
        "Section VI-B (1): queue compaction overhead, GTX 1080",
        &["queue_len", "match_only", "with_compaction", "overhead_%"],
    );
    for p in comp {
        a.push(vec![
            p.len.to_string(),
            fmt_mps(p.match_mps),
            fmt_mps(p.with_compaction_mps),
            format!("{:.1}", p.overhead_pct),
        ]);
    }
    let mut b = Report::new(
        "Section VI-B (2): matching rate vs. match fraction, GTX 1080",
        &["match_%", "M matches/s"],
    );
    for p in frac {
        b.push(vec![p.match_pct.to_string(), fmt_mps(p.matches_per_sec)]);
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_costs_single_digit_to_low_double_digit_percent() {
        let pts = run_compaction(&[1024], 5);
        let o = pts[0].overhead_pct;
        assert!(
            (1.0..25.0).contains(&o),
            "paper reports ~10% compaction overhead, got {o:.1}%"
        );
    }

    #[test]
    fn rate_tracks_match_fraction() {
        let pts = run_fraction(512, &[50, 100], 5);
        let half = pts[0].matches_per_sec;
        let full = pts[1].matches_per_sec;
        let ratio = half / full;
        assert!(
            (0.3..0.75).contains(&ratio),
            "50% matchable should roughly halve the rate, ratio {ratio:.2}"
        );
    }
}
