//! The CPU baseline measurement (Section II-C): a native, wall-clock
//! benchmark of list-based UMQ matching.
//!
//! The paper observes host MPI libraries reaching ~30 M matches/s when
//! queues are short and collapsing below 5 M matches/s beyond 512
//! entries. This module measures our `ListMatcher` the same way:
//! pre-fill the UMQ with `len` unique envelopes, then post `len`
//! receives in *random* order so the average search walks half the
//! queue — the regime that kills linear lists.
//!
//! These are real nanoseconds on the machine running the harness, not
//! simulated GPU time; absolute numbers shift with the host CPU but the
//! collapse beyond a few hundred entries is structural.

use std::time::Instant;

use msg_match::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::table::{fmt_mps, Report};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Queue length.
    pub len: usize,
    /// Matches per second, random post order (worst-ish case).
    pub random_mps: f64,
    /// Matches per second, FIFO post order (best case).
    pub fifo_mps: f64,
    /// Matches per second, random posts on the Flajslik-style hashed
    /// matcher with 64 buckets (the cited 3.5×-class improvement).
    pub hashed_mps: f64,
}

/// Queue lengths swept.
pub const DEFAULT_LENS: [usize; 8] = [16, 64, 128, 256, 512, 1024, 2048, 4096];

/// The measured stream: `len` unique envelopes, and the order their
/// receives are posted in (seeded shuffle, or arrival order).
fn stream(len: usize, shuffle: bool, seed: u64) -> (Vec<Envelope>, Vec<usize>) {
    let envelopes = (0..len)
        .map(|i| Envelope::new((i % 1024) as u32, (i / 1024) as u32, 0))
        .collect();
    let mut order: Vec<usize> = (0..len).collect();
    if shuffle {
        order.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    (envelopes, order)
}

/// One pass over the stream: pre-fill the UMQ, then post every receive.
/// A macro because the two list matchers share method names, not a trait.
macro_rules! pass {
    ($matcher:expr, $envelopes:expr, $order:expr) => {{
        let m = $matcher;
        for e in $envelopes.iter() {
            m.arrive(*e);
        }
        for &i in $order.iter() {
            let e = &$envelopes[i];
            let hit = m.post(RecvRequest::exact(e.src, e.tag, 0));
            debug_assert!(hit.is_some());
        }
    }};
}

fn measure_hashed(len: usize, seed: u64, buckets: usize) -> f64 {
    let (envelopes, order) = stream(len, true, seed);
    let reps = (2_000_000 / (len * len / (64 * buckets) + len) + 1).clamp(3, 2000);
    let start = Instant::now();
    for _ in 0..reps {
        pass!(&mut HashedListMatcher::new(buckets), envelopes, order);
    }
    (reps * len) as f64 / start.elapsed().as_secs_f64()
}

fn measure(len: usize, shuffle: bool, seed: u64) -> f64 {
    let (envelopes, order) = stream(len, shuffle, seed);
    // Enough repetitions for a stable clock reading.
    let reps = (2_000_000 / (len * len / 64 + len) + 1).clamp(3, 2000);
    let start = Instant::now();
    for _ in 0..reps {
        pass!(&mut ListMatcher::with_stats(false), envelopes, order);
    }
    (reps * len) as f64 / start.elapsed().as_secs_f64()
}

/// Run the sweep.
pub fn run(lens: &[usize], seed: u64) -> Vec<Point> {
    lens.iter()
        .map(|&len| Point {
            len,
            random_mps: measure(len, true, seed),
            fifo_mps: measure(len, false, seed),
            hashed_mps: measure_hashed(len, seed, 64),
        })
        .collect()
}

/// Render the sweep.
pub fn report(points: &[Point]) -> Report {
    let mut r = Report::new(
        "CPU baseline: list-based matching rate [M matches/s] (native wall clock)",
        &["queue_len", "random_order", "fifo_order", "hashed_64q"],
    );
    for p in points {
        r.push(vec![
            p.len.to_string(),
            fmt_mps(p.random_mps),
            fmt_mps(p.fifo_mps),
            fmt_mps(p.hashed_mps),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sweep's shape is structural — it follows from how many queue
    // entries each search inspects — so the tests assert on the
    // matchers' own walk-length counters, which repeat exactly. Wall
    // clocks taken one after the other compare two different moments of
    // a shared host, not two matchers.

    /// Entries the list matcher inspects to match the whole stream.
    fn list_walk(len: usize, shuffle: bool) -> u64 {
        let (envelopes, order) = stream(len, shuffle, 3);
        let mut m = ListMatcher::new();
        pass!(&mut m, envelopes, order);
        assert_eq!(m.umq_attempts.len(), len);
        assert!(m.umq_attempts.iter().all(|a| a.matched));
        m.umq_attempts.iter().map(|a| a.search_len as u64).sum()
    }

    /// The same count on the 64-bucket hashed matcher, random posts.
    fn hashed_walk(len: usize) -> u64 {
        let (envelopes, order) = stream(len, true, 3);
        let mut m = HashedListMatcher::new(64);
        pass!(&mut m, envelopes, order);
        assert_eq!(m.matches, len as u64);
        m.entries_inspected
    }

    #[test]
    fn long_random_queues_collapse() {
        let short = list_walk(64, true) as f64 / 64.0;
        let long = list_walk(2048, true) as f64 / 2048.0;
        assert!(
            long > short * 4.0,
            "linear search must collapse: {short:.1} → {long:.1} entries per match"
        );
    }

    #[test]
    fn hashed_matcher_recovers_the_collapse() {
        // The related-work claim (Flajslik et al.): hashing to multiple
        // queues restores multiple-× performance on deep random queues.
        let (list, hashed) = (list_walk(2048, true), hashed_walk(2048));
        assert!(list > hashed * 3, "hashed {hashed} vs list {list} entries");
    }

    #[test]
    fn fifo_stays_fast() {
        let (fifo, random) = (list_walk(2048, false), list_walk(2048, true));
        assert_eq!(fifo, 2048, "every FIFO post hits the head");
        assert!(
            random > fifo * 2,
            "head hits must beat half-queue walks: fifo {fifo} vs random {random} entries"
        );
    }

    #[test]
    fn sweep_reports_a_rate_for_every_column() {
        let pts = run(&[16], 3);
        assert_eq!(pts.len(), 1);
        for mps in [pts[0].random_mps, pts[0].fifo_mps, pts[0].hashed_mps] {
            assert!(mps.is_finite() && mps > 0.0);
        }
    }
}
