//! Ablations of the design choices the paper calls out.
//!
//! * **Scan/reduce pipelining** (Section V-A: "both phases can be
//!   pipelined to overlap execution") — on/off across queue lengths.
//! * **Window size** — the matrix tile width trades shared-memory
//!   footprint (occupancy) against pipelining granularity.
//! * **Long queues, ordered vs. reversed** (Section V-B: "While an
//!   ordered queue would yield the same performance as shown in the
//!   graph, a reversed queue would decrease performance").
//! * **Hash-table organisation and load factor** (Section VI-C: "Future
//!   work might further investigate various combinations of hash
//!   functions and collision resolution policies").

use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::table::{fmt_mps, Report};

/// Pipelining on/off across queue lengths (GTX 1080).
pub fn pipelining(lens: &[usize], seed: u64) -> Report {
    let mut rep = Report::new(
        "Ablation: scan/reduce pipelining (GTX 1080) [M matches/s]",
        &["queue_len", "pipelined", "serial", "speedup"],
    );
    for &len in lens {
        let w = WorkloadSpec::fully_matching(len, seed).generate();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let on = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
        let off = MatrixMatcher {
            disable_pipelining: true,
            ..Default::default()
        }
        .match_batch(&mut gpu, &w.msgs, &w.reqs);
        rep.push(vec![
            len.to_string(),
            fmt_mps(on.matches_per_sec),
            fmt_mps(off.matches_per_sec),
            format!("{:.2}x", on.matches_per_sec / off.matches_per_sec),
        ]);
    }
    rep
}

/// Window-size sweep for the matrix matcher (GTX 1080).
pub fn window_sweep(len: usize, windows: &[usize], seed: u64) -> Report {
    let mut rep = Report::new(
        format!("Ablation: matrix scan window at {len} entries (GTX 1080)"),
        &["window", "M matches/s", "cycles"],
    );
    let w = WorkloadSpec::fully_matching(len, seed).generate();
    for &window in windows {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = MatrixMatcher {
            window,
            ..Default::default()
        }
        .match_batch(&mut gpu, &w.msgs, &w.reqs);
        assert_eq!(r.matches as usize, len);
        rep.push(vec![
            window.to_string(),
            fmt_mps(r.matches_per_sec),
            r.cycles.to_string(),
        ]);
    }
    rep
}

/// Receive-queue order for iterative long-queue matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueOrder {
    /// Receives posted in message arrival order.
    Ordered,
    /// Receives posted in reverse arrival order (the paper's worst case).
    Reversed,
    /// Receives posted in random order.
    Shuffled,
}

/// Long-queue sweep: rate vs. total length × receive order (GTX 1080).
pub fn long_queues(totals: &[usize], seed: u64) -> Report {
    let mut rep = Report::new(
        "Ablation: long queues (iterative matching), receive-queue order (GTX 1080)",
        &["total_len", "ordered", "reversed", "shuffled", "iters(rev)"],
    );
    for &total in totals {
        let w = WorkloadSpec {
            len: total,
            peers: 64,
            tags: 1 << 12,
            seed,
            ..Default::default()
        }
        .generate();
        let run = |order| {
            let mut reqs: Vec<RecvRequest> = w
                .msgs
                .iter()
                .map(|m| RecvRequest::exact(m.src, m.tag, 0))
                .collect();
            match order {
                QueueOrder::Ordered => {}
                QueueOrder::Reversed => reqs.reverse(),
                QueueOrder::Shuffled => {
                    // Deterministic shuffle.
                    for i in (1..reqs.len()).rev() {
                        let j = (i * 2_654_435_761) % (i + 1);
                        reqs.swap(i, j);
                    }
                }
            }
            let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
            let r = MatrixMatcher::default().match_iterative(&mut gpu, &w.msgs, &reqs);
            assert_eq!(r.matches as usize, total, "{order:?} at {total}");
            r
        };
        // Each order is an independent device: run the three side by side.
        let [ordered, reversed, shuffled] = std::thread::scope(|s| {
            [
                QueueOrder::Ordered,
                QueueOrder::Reversed,
                QueueOrder::Shuffled,
            ]
            .map(|order| s.spawn(move || run(order)))
            .map(|h| h.join().expect("long-queue run"))
        });
        let mut cells = vec![total.to_string()];
        cells.extend([&ordered, &reversed, &shuffled].map(|r| fmt_mps(r.matches_per_sec)));
        cells.push(reversed.launches.to_string());
        rep.push(cells);
    }
    rep
}

/// Hash-table organisation × duplicate density (GTX 1080).
pub fn hash_design(len: usize, seed: u64) -> Report {
    let mut rep = Report::new(
        format!("Ablation: hash-table design at {len} entries (GTX 1080) [M matches/s]"),
        &["design", "unique_tuples", "16_tuples_only", "iters(dup)"],
    );
    let unique = WorkloadSpec::unique_tuples(len, seed).generate();
    let dup = WorkloadSpec {
        len,
        peers: 4,
        tags: 4,
        seed,
        ..Default::default()
    }
    .generate();
    let designs: Vec<(String, HashMatcher)> = vec![
        ("two-level 5:1 (paper)".into(), HashMatcher::default()),
        ("linear probing ≤4".into(), HashMatcher::linear_probing(4)),
        ("linear probing ≤16".into(), HashMatcher::linear_probing(16)),
        (
            "two-level, load 1.0".into(),
            HashMatcher::with_slots_per_request_x10(10),
        ),
        (
            "two-level, load 0.33".into(),
            HashMatcher::with_slots_per_request_x10(30),
        ),
    ];
    for (name, m) in designs {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let ru = m.match_batch(&mut gpu, &unique.msgs, &unique.reqs).unwrap();
        assert_eq!(ru.matches as usize, len, "{name} unique");
        let rd = m.match_batch(&mut gpu, &dup.msgs, &dup.reqs).unwrap();
        assert_eq!(rd.matches as usize, len, "{name} duplicates");
        rep.push(vec![
            name,
            fmt_mps(ru.matches_per_sec),
            fmt_mps(rd.matches_per_sec),
            rd.launches.to_string(),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_always_helps_midrange() {
        let rep = pipelining(&[512], 3);
        let row = &rep.rows[0];
        let on: f64 = row[1].parse().unwrap();
        let off: f64 = row[2].parse().unwrap();
        assert!(on > off, "pipelined {on} must beat serial {off}");
    }

    #[test]
    fn reversed_long_queues_are_slower() {
        let rep = long_queues(&[2048], 3);
        let row = &rep.rows[0];
        let ordered: f64 = row[1].parse().unwrap();
        let reversed: f64 = row[2].parse().unwrap();
        assert!(
            reversed < ordered * 0.8,
            "paper: reversed queues decrease performance ({ordered} vs {reversed})"
        );
    }

    #[test]
    fn hash_designs_all_correct_and_two_level_wins_on_duplicates() {
        let rep = hash_design(256, 3);
        assert_eq!(rep.rows.len(), 5);
    }

    #[test]
    fn window_sweep_renders() {
        let rep = window_sweep(256, &[32, 64], 3);
        assert_eq!(rep.rows.len(), 2);
    }
}
