//! Operation traces recorded during functional kernel execution.
//!
//! Functional execution and timing are split: kernels first run to
//! completion on the lane-vector interpreter, recording one [`OpRecord`]
//! per warp-wide instruction; the discrete-event replay in
//! [`crate::timing`] then schedules those records on the SM model. This
//! trace-then-replay design keeps kernels plain Rust while still modelling
//! issue bandwidth, memory latency, latency hiding and barriers.

use serde::{Deserialize, Serialize};

/// A dependency token: the index of an earlier op in the same warp trace
/// whose *completion* (not merely issue) must precede the issue of the op
/// carrying the token. Returned by load wrappers so kernels can mark the
/// first consumer of a loaded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepToken(pub(crate) u32);

/// Kind of a warp-wide instruction, with the parameters the timing model
/// needs. Memory ops carry post-coalescing transaction counts; shared ops
/// carry bank-conflict replay counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// `n` back-to-back single-cycle integer/logic instructions
    /// (address math, compares, bit ops, mask updates).
    IAlu {
        /// Number of back-to-back instructions in the batch.
        n: u32,
    },
    /// Warp vote (`ballot`, `any`, `all`).
    Vote,
    /// Warp shuffle (`shfl`, `shfl_up`, `shfl_down`).
    Shfl,
    /// Global-memory load serviced by `transactions` 128-byte transactions.
    LdGlobal {
        /// 128-byte transactions after coalescing.
        transactions: u32,
    },
    /// Global-memory store.
    StGlobal {
        /// 128-byte transactions after coalescing.
        transactions: u32,
    },
    /// Shared-memory load with `replays` bank-conflict replays (1 = free).
    LdShared {
        /// Bank-conflict replays (1 = conflict free).
        replays: u32,
    },
    /// Shared-memory store.
    StShared {
        /// Bank-conflict replays (1 = conflict free).
        replays: u32,
    },
    /// Global-memory atomic (CAS/exchange/add) touching `transactions`
    /// L2 sectors; serialised per distinct address at the L2.
    AtomGlobal {
        /// Serialised read-modify-write transactions.
        transactions: u32,
    },
    /// Shared-memory atomic with `replays` serialised lane groups.
    AtomShared {
        /// Serialised lane groups.
        replays: u32,
    },
    /// CTA-wide barrier (`__syncthreads()`).
    Bar,
}

/// Coarse classification of ops for profiling reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Integer/logic ALU work.
    Alu,
    /// Warp votes and shuffles.
    WarpOp,
    /// Global-memory loads/stores.
    GlobalMem,
    /// Shared-memory loads/stores.
    SharedMem,
    /// Atomics (global or shared).
    Atomic,
    /// Barriers.
    Barrier,
}

impl OpClass {
    /// All classes, in report order.
    pub const ALL: [OpClass; 6] = [
        OpClass::Alu,
        OpClass::WarpOp,
        OpClass::GlobalMem,
        OpClass::SharedMem,
        OpClass::Atomic,
        OpClass::Barrier,
    ];

    /// Index into per-class count arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::Alu => 0,
            OpClass::WarpOp => 1,
            OpClass::GlobalMem => 2,
            OpClass::SharedMem => 3,
            OpClass::Atomic => 4,
            OpClass::Barrier => 5,
        }
    }
}

impl OpKind {
    /// Profiling class of this op.
    pub(crate) fn class(self) -> OpClass {
        match self {
            OpKind::IAlu { .. } => OpClass::Alu,
            OpKind::Vote | OpKind::Shfl => OpClass::WarpOp,
            OpKind::LdGlobal { .. } | OpKind::StGlobal { .. } => OpClass::GlobalMem,
            OpKind::LdShared { .. } | OpKind::StShared { .. } => OpClass::SharedMem,
            OpKind::AtomGlobal { .. } | OpKind::AtomShared { .. } => OpClass::Atomic,
            OpKind::Bar => OpClass::Barrier,
        }
    }
}

/// One recorded warp-wide instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRecord {
    /// What the instruction is and its cost parameters.
    pub(crate) kind: OpKind,
    /// Op (by index in the same warp trace) whose completion gates issue.
    pub(crate) waits_on: Option<u32>,
}

/// The instruction trace of one warp over a whole kernel execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarpTrace {
    /// Recorded ops in program order.
    pub ops: Vec<OpRecord>,
}

impl WarpTrace {
    /// Record an op with no dependency; returns its token.
    pub fn push(&mut self, kind: OpKind) -> DepToken {
        self.push_dep(kind, None)
    }

    /// Record an op gated on the completion of `waits_on`.
    pub fn push_dep(&mut self, kind: OpKind, waits_on: Option<DepToken>) -> DepToken {
        let idx = self.ops.len() as u32;
        self.ops.push(OpRecord {
            kind,
            waits_on: waits_on.map(|t| t.0),
        });
        DepToken(idx)
    }
}

/// Traces of every warp of one CTA, plus the CTA's resource footprint.
#[derive(Debug, Clone, Default)]
pub struct CtaTrace {
    /// One trace per warp of the CTA.
    pub warps: Vec<WarpTrace>,
    /// Shared memory the CTA allocated, in bytes (occupancy input).
    pub shared_bytes: u32,
}

/// Traces of a full grid launch.
#[derive(Debug, Clone, Default)]
pub struct GridTrace {
    /// One trace per CTA of the grid.
    pub ctas: Vec<CtaTrace>,
    /// Launch geometry: threads per CTA.
    pub threads_per_cta: u32,
    /// Kernel register footprint per thread (occupancy input).
    pub registers_per_thread: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_returns_sequential_tokens() {
        let mut t = WarpTrace::default();
        let a = t.push(OpKind::IAlu { n: 3 });
        let b = t.push(OpKind::Vote);
        assert_eq!(a, DepToken(0));
        assert_eq!(b, DepToken(1));
        assert_eq!(t.ops.len(), 2);
    }

    #[test]
    fn dependency_recorded() {
        let mut t = WarpTrace::default();
        let ld = t.push(OpKind::LdGlobal { transactions: 2 });
        t.push_dep(OpKind::Vote, Some(ld));
        assert_eq!(t.ops[1].waits_on, Some(0));
    }

    #[test]
    fn instruction_count_expands_alu_batches() {
        let mut t = WarpTrace::default();
        t.push(OpKind::IAlu { n: 5 });
        t.push(OpKind::Vote);
        t.push(OpKind::Bar);
        let grid = GridTrace {
            ctas: vec![CtaTrace {
                warps: vec![t],
                shared_bytes: 0,
            }],
            threads_per_cta: 32,
            registers_per_thread: 32,
        };
        let cfg = crate::GpuGeneration::PascalGtx1080.config();
        let r = crate::timing::simulate(&grid, &cfg, 1);
        assert_eq!(r.instructions, 7);
        assert_eq!(r.class_instructions[OpClass::Barrier.index()], 1);
    }
}
