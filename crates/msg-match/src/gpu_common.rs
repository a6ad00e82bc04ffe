//! Types shared by the GPU matching engines.

use simt_sim::LaunchReport;

use crate::envelope::{Envelope, RecvRequest};
use crate::reference::verify_valid_matching;

/// Sentinel for "no match" in device result buffers.
pub(crate) const NO_MATCH: u32 = u32::MAX;

/// Result of running a GPU matching kernel over a batch of messages and
/// receive requests.
#[derive(Debug, Clone)]
pub struct GpuMatchReport {
    /// Request index → matched message index (into the submitted batch).
    pub assignment: Vec<Option<u32>>,
    /// Number of pairs matched.
    pub matches: u64,
    /// Simulated kernel time in cycles (all launches summed).
    pub cycles: u64,
    /// Simulated kernel time in seconds on the configured device.
    pub seconds: f64,
    /// Matching rate in matches/second — the unit of the paper's figures.
    pub matches_per_sec: f64,
    /// Kernel launches performed (iterations for long queues).
    pub launches: u32,
    /// Instructions executed across all launches.
    pub instructions: u64,
    /// Cycles warps spent stalled on operand dependencies (summed).
    pub dependency_stall_cycles: u64,
    /// Cycles warps spent waiting at barriers (summed).
    pub barrier_wait_cycles: u64,
    /// Global-memory transactions (loads + stores + atomics).
    pub global_transactions: u64,
    /// Instructions per op class (indexed by
    /// [`simt_sim::OpClass::index`]).
    pub class_instructions: [u64; 6],
    /// Cycles the SM issue pipeline was occupied. Read only through
    /// `Debug`, whose form the launch goldens pin.
    #[allow(dead_code)]
    pub(crate) issue_busy_cycles: u64,
    /// Cycles the global-memory pipe was occupied (`Debug` only, as
    /// above).
    #[allow(dead_code)]
    pub(crate) mem_busy_cycles: u64,
    /// Critical-path cycles attributed per simt-sim stall class
    /// (summed over launches; sums to `cycles` exactly).
    pub stall_cycles: [u64; simt_sim::STALL_CLASSES],
    /// Adjacent duplicate request probes served by scan-ballot reuse
    /// (wildcard probe dedup); 0 for engines without the optimisation.
    pub probe_dedups: u64,
}

impl GpuMatchReport {
    /// Aggregate per-launch reports and a device assignment vector.
    pub(crate) fn from_launches(assignment: Vec<Option<u32>>, launches: &[LaunchReport]) -> Self {
        let matches = assignment.iter().filter(|a| a.is_some()).count() as u64;
        let cycles: u64 = launches.iter().map(|l| l.cycles).sum();
        let seconds: f64 = launches.iter().map(|l| l.seconds).sum();
        let instructions: u64 = launches.iter().map(|l| l.instructions).sum();
        GpuMatchReport {
            matches,
            cycles,
            seconds,
            matches_per_sec: if seconds > 0.0 {
                matches as f64 / seconds
            } else {
                0.0
            },
            launches: launches.len() as u32,
            instructions,
            dependency_stall_cycles: launches
                .iter()
                .map(|l| l.timing.dependency_stall_cycles)
                .sum(),
            barrier_wait_cycles: launches.iter().map(|l| l.timing.barrier_wait_cycles).sum(),
            global_transactions: launches.iter().map(|l| l.timing.global_transactions).sum(),
            class_instructions: launches.iter().fold([0u64; 6], |mut acc, l| {
                for (i, v) in l.timing.class_instructions.iter().enumerate() {
                    acc[i] += v;
                }
                acc
            }),
            issue_busy_cycles: launches.iter().map(|l| l.timing.issue_busy_cycles).sum(),
            mem_busy_cycles: launches.iter().map(|l| l.timing.mem_busy_cycles).sum(),
            stall_cycles: launches
                .iter()
                .fold([0u64; simt_sim::STALL_CLASSES], |mut acc, l| {
                    for (i, v) in l.timing.stall_cycles.iter().enumerate() {
                        acc[i] += v;
                    }
                    acc
                }),
            probe_dedups: 0,
            assignment,
        }
    }

    /// Check the assignment is a legal matching (any semantics level).
    pub fn verify_valid(&self, msgs: &[Envelope], reqs: &[RecvRequest]) -> Result<(), String> {
        let a: Vec<Option<usize>> = self
            .assignment
            .iter()
            .map(|x| x.map(|v| v as usize))
            .collect();
        verify_valid_matching(msgs, reqs, &a)
    }
}

/// Decode a device result buffer (`NO_MATCH` sentinel) into assignments.
pub(crate) fn decode_assignment(raw: &[u32]) -> Vec<Option<u32>> {
    raw.iter()
        .map(|&v| if v == NO_MATCH { None } else { Some(v) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_handles_sentinel() {
        assert_eq!(
            decode_assignment(&[0, NO_MATCH, 7]),
            vec![Some(0), None, Some(7)]
        );
    }
}
