//! Table II: the relaxation lattice with *measured* matching rates on the
//! GTX 1080 — which guarantees are kept, which engine that buys, what it
//! costs the user, and what it delivers.

use msg_match::compaction::compact_queue_regions;
use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::table::{fmt_mps, Report};

/// One measured lattice row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The semantics configuration.
    pub(crate) config: RelaxationConfig,
    /// Engine used.
    pub(crate) structure: DataStructure,
    /// Partitioning possible?
    pub(crate) partitionable: bool,
    /// Measured matches/s at 1024 entries on the GTX 1080.
    pub(crate) matches_per_sec: f64,
    /// User implication class.
    pub(crate) user: UserImplication,
}

/// Measure all six rows at `len` entries.
pub fn run(len: usize, seed: u64) -> Vec<Row> {
    RelaxationConfig::TABLE_II_ROWS
        .iter()
        .map(|&config| {
            let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
            // Workload: with unexpected messages allowed, 10% of arrivals
            // find no receive and the queues need compaction afterwards;
            // without, everything is pre-covered and compaction is skipped.
            let match_pct = if config.unexpected { 90 } else { 100 };
            let spec = if config.ordering {
                WorkloadSpec {
                    len,
                    match_pct,
                    src_wildcard_pm: if config.wildcards { 20 } else { 0 },
                    seed,
                    ..Default::default()
                }
            } else {
                // Hash rows need collision-free tuples to shine.
                WorkloadSpec {
                    match_pct,
                    ..WorkloadSpec::unique_tuples(len, seed)
                }
            };
            let w = spec.generate();
            config
                .validate_workload(&[], &w.reqs)
                .expect("generated workload must satisfy its own lattice row");

            let (matches, mut seconds) = if !config.ordering {
                let r = HashMatcher::default()
                    .match_batch(&mut gpu, &w.msgs, &w.reqs)
                    .expect("no wildcards");
                (r.matches, r.seconds)
            } else if !config.wildcards {
                let r = PartitionedMatcher::new(16)
                    .match_batch(&mut gpu, &w.msgs, &w.reqs)
                    .expect("no wildcards");
                (r.matches, r.seconds)
            } else {
                let r = MatrixMatcher::default().match_iterative(&mut gpu, &w.msgs, &w.reqs);
                (r.matches, r.seconds)
            };

            // Unexpected messages leave residue: charge the compaction
            // pass over both queues (Section VI-B's ~10%).
            if config.unexpected {
                // Compaction parallelism follows the lattice: a fully
                // ordered queue moves as one chain; partitioning gives a
                // chain per queue; no ordering frees every warp.
                let regions = if !config.ordering {
                    32
                } else if config.partitionable() {
                    16
                } else {
                    1
                };
                let keep_msgs: Vec<u32> = (0..w.msgs.len()).map(|i| (i % 10 == 0) as u32).collect();
                let packed: Vec<u64> = w.msgs.iter().map(Envelope::pack).collect();
                let (_, rep1) = compact_queue_regions(&mut gpu, &packed, &keep_msgs, regions);
                let packed_r: Vec<u64> = w.reqs.iter().map(RecvRequest::pack).collect();
                let (_, rep2) = compact_queue_regions(&mut gpu, &packed_r, &keep_msgs, regions);
                seconds += rep1.seconds + rep2.seconds;
            }

            Row {
                config,
                structure: config.data_structure(),
                partitionable: config.partitionable(),
                matches_per_sec: matches as f64 / seconds,
                user: config.user_implication(),
            }
        })
        .collect()
}

/// Render the lattice table.
pub fn report(rows: &[Row]) -> Report {
    let mut r = Report::new(
        "Table II: relaxation summary (measured on simulated GTX 1080, 1024 entries)",
        &[
            "wildcards",
            "ordering",
            "unexp_msgs",
            "partition",
            "structure",
            "M matches/s",
            "user_impact",
        ],
    );
    let yn = |b: bool| if b { "yes" } else { "no" }.to_string();
    for row in rows {
        r.push(vec![
            yn(row.config.wildcards),
            yn(row.config.ordering),
            yn(row.config.unexpected),
            yn(row.partitionable),
            format!("{:?}", row.structure),
            fmt_mps(row.matches_per_sec),
            format!("{:?}", row.user),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_rates_are_ordered_like_the_paper() {
        let rows = run(1024, 17);
        assert_eq!(rows.len(), 6);
        // Row 1 (full MPI) ≈ 6 M; rows 3/4 ≈ 60 M; rows 5/6 ≈ 500 M.
        let full = rows[0].matches_per_sec;
        let part = rows[3].matches_per_sec;
        let hash = rows[5].matches_per_sec;
        assert!((2.0e6..9.0e6).contains(&full), "full MPI {full}");
        assert!((30.0e6..95.0e6).contains(&part), "partitioned {part}");
        assert!((300.0e6..650.0e6).contains(&hash), "hash {hash}");
        assert!(part > full * 5.0, "partitioning must win ~10×");
        assert!(hash > full * 40.0, "hash must win ~80×");
        // "no unexpected" rows beat their "unexpected" siblings.
        assert!(rows[1].matches_per_sec > rows[0].matches_per_sec);
        assert!(rows[3].matches_per_sec > rows[2].matches_per_sec);
        assert!(rows[5].matches_per_sec > rows[4].matches_per_sec);
    }

    #[test]
    fn report_has_six_rows() {
        let rows = run(256, 1);
        assert_eq!(report(&rows).rows.len(), 6);
    }
}
