//! Architectural profile of each matcher — the quantitative backing for
//! the paper's Discussion (Section VII-C): "The fully MPI-compliant
//! algorithm offers only a limited amount of parallelism and performance
//! is low due to the GPU's low single thread performance. Another issue
//! is the lack of a sufficient number of available warps to hide long
//! instruction latencies."
//!
//! For each engine the table reports instructions, achieved IPC,
//! dependency-stall and barrier-wait cycles, and global-memory traffic —
//! making the bottleneck shift visible: the compliant matcher is
//! latency-bound on its sequential reduce chain; partitioning converts
//! that into parallel chains; the hash matcher is memory/atomic-bound.

use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::table::Report;

/// Profile of one matcher run.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Engine label.
    pub(crate) name: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Achieved instructions per cycle.
    pub(crate) ipc: f64,
    /// Cycles warps spent stalled on operand dependencies (summed over
    /// warps, so it can exceed `cycles`).
    pub(crate) dependency_stall_cycles: u64,
    /// Cycles warps spent waiting at barriers (summed over warps).
    pub(crate) barrier_wait_cycles: u64,
    /// Global-memory transactions.
    pub(crate) global_transactions: u64,
    /// Matches per second.
    pub(crate) matches_per_sec: f64,
}

impl EngineProfile {
    fn of(name: &str, r: &GpuMatchReport) -> EngineProfile {
        EngineProfile {
            name: name.to_string(),
            cycles: r.cycles,
            instructions: r.instructions,
            ipc: r.instructions as f64 / r.cycles.max(1) as f64,
            dependency_stall_cycles: r.dependency_stall_cycles,
            barrier_wait_cycles: r.barrier_wait_cycles,
            global_transactions: r.global_transactions,
            matches_per_sec: r.matches_per_sec,
        }
    }
}

/// The three engines, one after another on one GTX 1080, over a fully
/// matching workload of `len` entries: the launches both the profile and
/// the instruction mix report.
pub fn engines(len: usize, seed: u64) -> [GpuMatchReport; 3] {
    let w = WorkloadSpec::fully_matching(len, seed).generate();
    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    let matrix = MatrixMatcher::default().match_batch(&mut gpu, &w.msgs, &w.reqs);
    let part = PartitionedMatcher::new(16)
        .match_batch(&mut gpu, &w.msgs, &w.reqs)
        .expect("no wildcards");
    let hash = HashMatcher::default()
        .match_batch(&mut gpu, &w.msgs, &w.reqs)
        .expect("no wildcards");
    [matrix, part, hash]
}

/// Profile the three [`engines`] reports.
pub fn run(engines: &[GpuMatchReport; 3]) -> Vec<EngineProfile> {
    let [matrix, part, hash] = engines;
    vec![
        EngineProfile::of("matrix (full MPI)", matrix),
        EngineProfile::of("partitioned x16", part),
        EngineProfile::of("hash (unordered)", hash),
    ]
}

/// Instruction-mix report: per-class instruction shares of the three
/// [`engines`] reports.
pub fn instruction_mix(engines: &[GpuMatchReport; 3]) -> Report {
    use simt_sim::OpClass;
    let engines = ["matrix", "partitioned x16", "hash"]
        .into_iter()
        .zip(engines);
    let mut rep = Report::new(
        "Instruction mix per engine [% of issued instructions] (GTX 1080)",
        &["engine", "alu", "warp", "gmem", "smem", "atomic", "bar"],
    );
    for (name, r) in engines {
        let total: u64 = r.class_instructions.iter().sum();
        let mut row = vec![name.to_string()];
        for class in OpClass::ALL {
            row.push(format!(
                "{:.1}",
                100.0 * r.class_instructions[class.index()] as f64 / total.max(1) as f64
            ));
        }
        rep.push(row);
    }
    rep
}

/// Render the profile table.
pub fn report(profiles: &[EngineProfile]) -> Report {
    let mut r = Report::new(
        "Section VII-C: architectural profile (GTX 1080)",
        &[
            "engine",
            "cycles",
            "instr",
            "IPC",
            "dep_stall_cy",
            "barrier_cy",
            "gmem_tx",
            "M matches/s",
        ],
    );
    for p in profiles {
        r.push(vec![
            p.name.clone(),
            p.cycles.to_string(),
            p.instructions.to_string(),
            format!("{:.2}", p.ipc),
            p.dependency_stall_cycles.to_string(),
            p.barrier_wait_cycles.to_string(),
            p.global_transactions.to_string(),
            format!("{:.2}", p.matches_per_sec / 1e6),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compliant_matcher_is_latency_bound() {
        let profiles = run(&engines(1024, 5));
        assert_eq!(profiles.len(), 3);
        let matrix = &profiles[0];
        let part = &profiles[1];
        // The paper's diagnosis: the compliant algorithm cannot keep the
        // SM busy; partitioning raises utilisation.
        assert!(
            matrix.ipc < part.ipc,
            "partitioning must raise IPC: {} vs {}",
            matrix.ipc,
            part.ipc
        );
        assert!(
            matrix.ipc < 1.5,
            "compliant matcher is latency-bound: IPC {}",
            matrix.ipc
        );
        assert!(
            matrix.dependency_stall_cycles > 0,
            "the reduce chain must show dependency stalls"
        );
    }

    #[test]
    fn report_renders() {
        let profiles = run(&engines(256, 1));
        assert_eq!(report(&profiles).rows.len(), 3);
    }

    #[test]
    fn instruction_mix_differs_by_engine() {
        let rep = instruction_mix(&engines(512, 3));
        assert_eq!(rep.rows.len(), 3);
        // The hash engine must be atomic-heavy relative to the matrix.
        let atomic = |row: usize| rep.rows[row][5].parse::<f64>().unwrap();
        assert!(
            atomic(2) > atomic(0) + 3.0,
            "hash atomics {} vs matrix {}",
            atomic(2),
            atomic(0)
        );
    }
}
