//! Operation traces recorded during functional kernel execution.
//!
//! Functional execution and timing are split: kernels first run to
//! completion on the lane-vector interpreter, recording one [`OpRecord`]
//! per warp-wide instruction; the discrete-event replay in
//! [`crate::timing`] then schedules those records on the SM model. This
//! trace-then-replay design keeps kernels plain Rust while still modelling
//! issue bandwidth, memory latency, latency hiding and barriers.

use std::fmt;
use std::ops::Deref;

/// A dependency token: the index of an earlier op in the same warp trace
/// whose *completion* (not merely issue) must precede the issue of the op
/// carrying the token. Returned by load wrappers so kernels can mark the
/// first consumer of a loaded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepToken(pub(crate) u32);

/// Kind of a warp-wide instruction, with the parameters the timing model
/// needs. Memory ops carry post-coalescing transaction counts; shared ops
/// carry bank-conflict replay counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One recorded warp-wide instruction: 12 bytes, where an
/// `Option<u32>` dependency would make it 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// What the instruction is and its cost parameters.
    pub(crate) kind: OpKind,
    /// Op (by index in the same warp trace) whose completion gates
    /// issue, or [`OpRecord::NO_DEP`].
    dep: u32,
}

impl OpRecord {
    /// `dep` of an op that waits on nothing.
    const NO_DEP: u32 = u32::MAX;

    /// An op of `kind` gated on the completion of `waits_on`.
    #[inline]
    pub(crate) fn new(kind: OpKind, waits_on: Option<DepToken>) -> Self {
        OpRecord {
            kind,
            dep: waits_on.map_or(Self::NO_DEP, |t| t.0),
        }
    }

    /// Op (by index in the same warp trace) whose completion gates issue.
    #[inline]
    pub(crate) fn waits_on(self) -> Option<u32> {
        (self.dep != Self::NO_DEP).then_some(self.dep)
    }
}

/// Distance minus one from op `at` back to the op it waits on, 0 without
/// a dependency. A dependency on the op itself or on a later one wraps
/// around to a huge value, which [`Ops::ring_len`] rejects.
#[inline]
pub(crate) fn dependency_gap(at: usize, waits_on: Option<DepToken>) -> usize {
    waits_on.map_or(0, |d| at.wrapping_sub(d.0 as usize + 1))
}

/// A warp's recorded ops in program order: derefs to the slice of them.
///
/// A device records each launch over the previous launch's ops in place
/// (DESIGN.md §4 "Launch path"), so the buffer may hold ops of an
/// earlier, longer recording past the recorded ones. They are kept for a
/// later long recording to be compared with, and no reader sees them.
#[derive(Clone, Default)]
pub struct Ops {
    /// The recorded ops, then stale ones.
    pub(crate) buf: Vec<OpRecord>,
    /// Number of recorded ops.
    pub(crate) len: usize,
    /// The largest [`dependency_gap`] of a recorded op.
    pub(crate) max_gap: usize,
}

impl Ops {
    /// Slots a completion ring of the timing replay needs: the longest
    /// distance from an op back to the op it waits on, rounded up to a
    /// power of two (at least one). The ops between an op and its
    /// consumer then fill the other slots, so the producer's slot still
    /// holds its completion when the consumer reads it. Kernels wait on
    /// an op a few back, so a ring is a few slots however long the warp
    /// runs.
    ///
    /// # Panics
    /// Panics if an op waits on itself or on a later op.
    pub(crate) fn ring_len(&self) -> usize {
        assert!(
            self.max_gap <= self.len,
            "an op waits on itself or on a later op"
        );
        (self.max_gap + 1).next_power_of_two()
    }
}

impl Deref for Ops {
    type Target = [OpRecord];

    fn deref(&self) -> &[OpRecord] {
        &self.buf[..self.len]
    }
}

impl fmt::Debug for Ops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The instruction trace of one warp over a whole kernel execution.
#[derive(Debug, Clone, Default)]
pub struct WarpTrace {
    /// Recorded ops in program order.
    pub ops: Ops,
}

impl WarpTrace {
    /// Record an op with no dependency; returns its token.
    pub fn push(&mut self, kind: OpKind) -> DepToken {
        self.push_dep(kind, None)
    }

    /// Record an op gated on the completion of `waits_on`.
    pub fn push_dep(&mut self, kind: OpKind, waits_on: Option<DepToken>) -> DepToken {
        let ops = &mut self.ops;
        let idx = ops.len;
        // The op follows the recorded ones, not any stale ones.
        ops.buf.truncate(idx);
        ops.buf.push(OpRecord::new(kind, waits_on));
        ops.len += 1;
        ops.max_gap = ops.max_gap.max(dependency_gap(idx, waits_on));
        DepToken(idx as u32)
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
        assert_eq!(t.ops[1].waits_on(), Some(0));
    }

    #[test]
    fn an_op_record_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<OpRecord>(), 12);
        assert_eq!(OpRecord::new(OpKind::Bar, None).waits_on(), None);
        let last = DepToken(OpRecord::NO_DEP - 1);
        assert_eq!(
            OpRecord::new(OpKind::Bar, Some(last)).waits_on(),
            Some(last.0)
        );
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
