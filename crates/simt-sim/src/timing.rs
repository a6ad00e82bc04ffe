//! Discrete-event timing replay of recorded grid traces on the SM model.
//!
//! The replay models the mechanisms that matter for the paper's results:
//!
//! * **Issue bandwidth** — each SM issues at most
//!   `schedulers × issue_efficiency` instructions per cycle, shared by all
//!   resident warps; a single warp can issue at most one instruction per
//!   cycle. Long sequential sections (the reduce phase) are therefore
//!   latency-bound, while wide sections (the scan) are issue-bound.
//! * **Latency hiding** — memory and pipeline latencies only stall a warp
//!   when a recorded dependency consumes a result; other warps keep
//!   issuing, which is exactly how SIMT machines hide latency. With few
//!   resident warps (short queues) there is less to hide behind.
//! * **Memory pipes** — global transactions and shared-memory replays
//!   drain through finite-throughput servers, so scatter/gather patterns
//!   and atomics queue up.
//! * **Barriers** — `__syncthreads()` releases when the last warp arrives.
//! * **Occupancy waves** — CTAs beyond the residency limit wait for a slot
//!   (the paper's "more CTAs leads to serialization").
//!
//! Time is tracked in integer **millicycles** (1 cycle = 1000 mc) so the
//! replay is exact and deterministic.

use std::ops::Range;

use crate::config::GpuConfig;
use crate::occupancy::{occupancy, Occupancy};
use crate::trace::{GridTrace, OpClass, OpKind, OpRecord};

/// Millicycles per cycle.
const MC: u64 = 1000;

/// Number of `StallClass`es.
pub const STALL_CLASSES: usize = 5;

/// Where a cycle of the critical SM's timeline went — the simulator's
/// `nvprof` stall-reason taxonomy. Every cycle of a launch is attributed
/// to exactly one class, so per-class cycles sum to
/// [`TimingReport::cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StallClass {
    /// The issue pipeline was occupied delivering instructions.
    Issue,
    /// Warps waited on an outstanding memory result (global, shared or
    /// atomic) with nothing else to issue.
    MemDependency,
    /// Warps waited at a CTA barrier.
    Barrier,
    /// Too few resident warps (or CTAs waiting for a residency slot) to
    /// cover the gap — latency that more occupancy would hide.
    OccupancyWait,
    /// Execution-pipe latency/contention other than memory (ALU chains,
    /// vote/shuffle results).
    PipeContention,
}

impl StallClass {
    /// All classes in index order.
    pub(crate) const ALL: [StallClass; STALL_CLASSES] = [
        StallClass::Issue,
        StallClass::MemDependency,
        StallClass::Barrier,
        StallClass::OccupancyWait,
        StallClass::PipeContention,
    ];

    /// Dense index into `[u64; STALL_CLASSES]` breakdowns.
    pub(crate) fn index(self) -> usize {
        match self {
            StallClass::Issue => 0,
            StallClass::MemDependency => 1,
            StallClass::Barrier => 2,
            StallClass::OccupancyWait => 3,
            StallClass::PipeContention => 4,
        }
    }

    /// Stable lowercase label for metrics and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            StallClass::Issue => "issue",
            StallClass::MemDependency => "mem_dependency",
            StallClass::Barrier => "barrier",
            StallClass::OccupancyWait => "occupancy_wait",
            StallClass::PipeContention => "pipe_contention",
        }
    }

    fn of_dependency(class: OpClass) -> StallClass {
        match class {
            OpClass::GlobalMem | OpClass::SharedMem | OpClass::Atomic => StallClass::MemDependency,
            _ => StallClass::PipeContention,
        }
    }

    /// Class owning the tail between the last issue and an op's
    /// completion: memory latency for memory ops, barrier latency for
    /// barriers, and for compute ops the per-warp 1-IPC stretch that
    /// more resident warps would overlap.
    fn of_tail(class: OpClass) -> StallClass {
        match class {
            OpClass::GlobalMem | OpClass::SharedMem | OpClass::Atomic => StallClass::MemDependency,
            OpClass::Barrier => StallClass::Barrier,
            _ => StallClass::OccupancyWait,
        }
    }
}

/// Per-launch profile in the shape rollups consume: the simulator
/// analogue of an `nvprof` kernel summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelProfile {
    /// Kernel display name (see `CtaKernel::name`).
    pub name: &'static str,
    /// Launches this profile covers (one per `LaunchReport`).
    pub launches: u64,
    /// Critical-path cycles.
    pub cycles: u64,
    /// Architectural instructions.
    pub instructions: u64,
    /// Cycles per `StallClass` (indexed by `StallClass::index`);
    /// sums exactly to `cycles`.
    pub stall_cycles: [u64; STALL_CLASSES],
    /// Instructions per [`OpClass`] (indexed by [`OpClass::index`]).
    pub class_instructions: [u64; 6],
}

impl KernelProfile {
    /// Profile of one launch's timing outcome.
    pub(crate) fn from_timing(name: &'static str, t: &TimingReport) -> Self {
        KernelProfile {
            name,
            launches: 1,
            cycles: t.cycles,
            instructions: t.instructions,
            stall_cycles: t.stall_cycles,
            class_instructions: t.class_instructions,
        }
    }
}

/// Timing outcome of a grid launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingReport {
    /// Total simulated cycles (max over the SMs used).
    pub cycles: u64,
    /// Per-SM completion times in cycles.
    pub per_sm_cycles: Vec<u64>,
    /// CTAs resident concurrently per SM (occupancy outcome).
    pub(crate) resident_ctas_per_sm: u32,
    /// Total architectural instructions issued.
    pub(crate) instructions: u64,
    /// Total global-memory transactions (loads + stores + atomics).
    pub global_transactions: u64,
    /// Total shared-memory access replays.
    pub(crate) shared_replays: u64,
    /// Summed cycles warps spent blocked at barriers.
    pub barrier_wait_cycles: u64,
    /// Summed cycles warps spent stalled on operand dependencies.
    pub dependency_stall_cycles: u64,
    /// Instructions per [`OpClass`] (indexed by [`OpClass::index`]).
    pub class_instructions: [u64; 6],
    /// Cycles the issue pipeline was occupied.
    pub issue_busy_cycles: u64,
    /// Cycles the global-memory pipe was occupied.
    pub mem_busy_cycles: u64,
    /// Cycles the shared-memory pipe was occupied.
    pub(crate) shared_busy_cycles: u64,
    /// Critical-SM cycles per `StallClass` (indexed by
    /// `StallClass::index`): an exact partition of the SM timeline
    /// that defined `cycles`, so the entries sum to `cycles`.
    pub stall_cycles: [u64; STALL_CLASSES],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpPhase {
    Ready,
    AtBarrier,
    Done,
}

struct WarpState<'a> {
    cta_slot: usize,
    /// The warp's recorded trace.
    ops: &'a [OpRecord],
    /// Next op index to issue.
    pc: usize,
    /// `pc` at the SM's [`Mark`], if it holds one: the warp's segment
    /// since then is `ops[mark_pc..pc]`.
    mark_pc: usize,
    /// Where the warp's ring of op completion times starts in
    /// `SmSim::completions`.
    base: usize,
    /// The ring's length minus one: op `i` completes into slot
    /// `base + (i & ring_mask)`.
    ring_mask: usize,
    /// Earliest millicycle the warp can issue its next op.
    ready_mc: u64,
    phase: WarpPhase,
    /// Arrival time at the current barrier.
    barrier_arrival_mc: u64,
    /// Why `ready_mc` is what it is — attributes any issue gap this warp
    /// heads (dependency gaps are classified from the producing op
    /// instead).
    wait_class: StallClass,
}

/// The SM state a barrier segment's timing starts from, relative to the
/// release that starts it. Every op of the segment issues at or after
/// the release, so a memory pipe free earlier is as good as free at the
/// release, and the clamp loses nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    mem_free_mc: u64,
    shared_free_mc: u64,
    /// `issue_free_mc − release`, wrapping: when the issue server is
    /// free, which is also the accounted frontier, may lie before the
    /// release.
    issue_free_mc: u64,
}

/// The additive totals of an SM's replay: the report's counters, then
/// the millicycles per stall class (see [`SmSim::totals_mut`]).
const TOTALS: usize = 8 + OpClass::ALL.len() + STALL_CLASSES;

/// What an SM looked like at a barrier release of a CTA alone on it,
/// kept until the next release to tell whether the segment between them
/// repeats (DESIGN.md §4 "Segment fast-forward"). Each warp's `pc` then
/// is its [`WarpState::mark_pc`].
#[derive(Clone, Copy)]
struct Mark {
    cta_slot: usize,
    release_mc: u64,
    entry: Entry,
    /// `now_max_mc − release`. No issue decision reads `now_max_mc` or
    /// `tail_class`: they track the latest completion. A segment whose
    /// own release reaches the `now_max_mc` it started with therefore
    /// leaves both as it would from any such start.
    now_max_mc: u64,
    totals: [u64; TOTALS],
}

struct CtaRun {
    /// The CTA's warps: a contiguous range of `SmSim::warps`.
    warps: Range<usize>,
    /// Warps still executing (not Done).
    live_warps: usize,
    /// Warps currently waiting at a barrier.
    at_barrier: usize,
}

/// The tournament key of a warp that is not Ready: no Ready warp's key
/// reaches it, so the pick never takes it.
const NOT_READY: u64 = u64::MAX;

/// The tournament key of warp `wi` with candidate issue time `mc` (in a
/// tree of `1 << shift` leaves): the time above the index, so the
/// smaller of two keys is the issue rule's pick — the earlier time, then
/// the lower index — and each match is one `min`.
///
/// # Panics
/// Panics if `mc` does not fit the key's time bits; the all-ones time is
/// kept for [`NOT_READY`].
fn pick_key(mc: u64, wi: usize, shift: u32) -> u64 {
    assert!(
        mc < NOT_READY >> shift,
        "candidate time {mc} mc overflows the pick key"
    );
    (mc << shift) | wi as u64
}

/// The allocations a replay works in. [`Replayer`] keeps them between
/// launches, and each SM's replay hands them on to the next SM's.
#[derive(Default)]
struct WorkingSet<'a> {
    warps: Vec<WarpState<'a>>,
    resident: Vec<CtaRun>,
    completions: Vec<u64>,
    tree: Vec<u64>,
}

impl WorkingSet<'_> {
    /// The same allocations holding no warp, for traces of any lifetime
    /// (an emptied `Vec` is collected into its own buffer).
    fn recycle<'b>(self) -> WorkingSet<'b> {
        let mut warps = self.warps;
        warps.clear();
        WorkingSet {
            warps: warps
                .into_iter()
                .map(|_| -> WarpState<'b> { unreachable!("the vector is empty") })
                .collect(),
            resident: self.resident,
            completions: self.completions,
            tree: self.tree,
        }
    }
}

struct SmSim<'a> {
    grid: &'a GridTrace,
    cfg: &'a GpuConfig,
    /// Next CTA (index into grid.ctas) to admit: this SM replays every
    /// `cta_stride`-th CTA.
    next_cta: usize,
    cta_stride: usize,
    /// Every CTA activated so far, in activation order.
    resident: Vec<CtaRun>,
    /// Every warp activated so far, in activation order: the index is
    /// the issue priority among equal candidate times.
    warps: Vec<WarpState<'a>>,
    /// Completion times (mc) of the warps' recent ops, for dependency
    /// lookups: one ring per warp, in activation order (see
    /// [`crate::trace::Ops::ring_len`]). A slot is written when its op
    /// issues, before any later op reads it, so stale values are never
    /// read.
    completions: Vec<u64>,
    /// Tournament tree over the warps' [`pick_key`]s of their candidate
    /// issue times (`max(ready, dependency completion)`), or
    /// [`NOT_READY`]: leaf `i` at `leaves + i`, node `k` the smaller key
    /// of `2k` and `2k + 1`, node 1 the pick. A candidate changes only
    /// when its warp is admitted, steps or leaves a barrier; then one
    /// leaf-to-root path is recomputed.
    tree: Vec<u64>,
    /// Leaf count: the SM's warps, rounded up to a power of two.
    leaves: usize,
    /// `log2(leaves)`: the index bits of a key.
    shift: u32,
    /// Shared-resource availability (mc). `issue_free_mc` is also the
    /// accounted-time frontier: the gap before each issue is attributed
    /// to a stall class, keeping the attribution an exact partition.
    issue_free_mc: u64,
    mem_free_mc: u64,
    shared_free_mc: u64,
    /// Cost parameters (mc).
    issue_cost_mc: u64,
    mem_tx_cost_mc: u64,
    shared_atom_cost_mc: u64,
    /// Finish time of the SM so far.
    now_max_mc: u64,
    /// Millicycles per stall class.
    stall_mc: [u64; STALL_CLASSES],
    /// Class of whatever last extended `now_max_mc` — owns the tail
    /// between the final issue and the SM finish time.
    tail_class: StallClass,
    report: TimingReport,
    /// Resident CTAs with a warp still executing.
    live_ctas: usize,
    /// The previous barrier release, if a CTA alone on the SM made it.
    mark: Option<Mark>,
    /// Ops fast-forwarded over instead of issued.
    skipped_ops: u64,
}

#[cfg(test)]
thread_local! {
    /// Set while a test build replays a fast-forwarded launch again,
    /// step by step (see [`Replayer::replay`]).
    static STEP_BY_STEP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether `copy`, the ops from index `at`, repeats `seg`, the ops from
/// index `from`: the same kinds, each dependency the same distance into
/// its own run. `seg` must wait on nothing before `from`; a dependency
/// of `copy` before `at` wraps around and so never matches.
fn repeats_ops(seg: &[OpRecord], from: usize, copy: &[OpRecord], at: usize) -> bool {
    seg.iter().zip(copy).all(|(a, b)| {
        a.kind == b.kind
            && a.waits_on().map(|d| d as usize - from)
                == b.waits_on().map(|d| (d as usize).wrapping_sub(at))
    })
}

impl<'a> SmSim<'a> {
    /// The replay of SM `sm` of `sms`, which holds CTAs `sm`, `sm + sms`,
    /// …, working in `set`.
    fn new(
        grid: &'a GridTrace,
        cfg: &'a GpuConfig,
        (sm, sms): (usize, usize),
        max_resident: u32,
        set: WorkingSet<'a>,
    ) -> Self {
        let warp_count: usize = grid
            .ctas
            .iter()
            .skip(sm)
            .step_by(sms)
            .map(|cta| cta.warps.len())
            .sum();
        let WorkingSet {
            mut warps,
            mut resident,
            mut completions,
            mut tree,
        } = set;
        warps.clear();
        resident.clear();
        completions.clear();
        // No warp is Ready yet.
        let leaves = warp_count.next_power_of_two();
        tree.clear();
        tree.resize(2 * leaves, NOT_READY);

        let params = &cfg.sm;
        let issue_rate_per_mille =
            params.schedulers as u64 * params.issue_efficiency_pct as u64 * 10;
        let mut sim = SmSim {
            grid,
            cfg,
            next_cta: sm,
            cta_stride: sms,
            resident,
            warps,
            completions,
            tree,
            leaves,
            shift: leaves.trailing_zeros(),
            issue_free_mc: 0,
            mem_free_mc: 0,
            shared_free_mc: 0,
            // instructions per cycle = rate/1000; cost per instr in mc:
            issue_cost_mc: (MC * MC / issue_rate_per_mille).max(1),
            mem_tx_cost_mc: (16 * MC / params.global_tx_per_16_cycles as u64).max(1),
            shared_atom_cost_mc: (16 * MC / params.shared_atomic_per_16_cycles as u64).max(1),
            now_max_mc: 0,
            stall_mc: [0; STALL_CLASSES],
            tail_class: StallClass::PipeContention,
            report: TimingReport::default(),
            live_ctas: 0,
            mark: None,
            skipped_ops: 0,
        };
        for _ in 0..max_resident {
            sim.activate_next(0);
        }
        sim
    }

    /// Hand the allocations back.
    fn into_working_set(self) -> WorkingSet<'a> {
        WorkingSet {
            warps: self.warps,
            resident: self.resident,
            completions: self.completions,
            tree: self.tree,
        }
    }

    /// Admit the next pending CTA into a free residency slot. A CTA whose
    /// warps recorded no op finishes on admission, so it hands the slot
    /// straight to the CTA behind it.
    fn activate_next(&mut self, at_mc: u64) {
        let grid = self.grid;
        while let Some(cta) = grid.ctas.get(self.next_cta) {
            self.next_cta += self.cta_stride;
            let slot = self.resident.len();
            let first = self.warps.len();
            let mut base = self.completions.len();
            for wt in &cta.warps {
                let ring = wt.ops.ring_len();
                #[cfg(test)]
                assert_eq!(ring, ring_len(&wt.ops), "ring sized while recording");
                self.warps.push(WarpState {
                    cta_slot: slot,
                    ops: &wt.ops,
                    pc: 0,
                    mark_pc: 0,
                    base,
                    ring_mask: ring - 1,
                    ready_mc: at_mc,
                    phase: if wt.ops.is_empty() {
                        WarpPhase::Done
                    } else {
                        WarpPhase::Ready
                    },
                    barrier_arrival_mc: 0,
                    wait_class: StallClass::OccupancyWait,
                });
                base += ring;
            }
            self.completions.resize(base, 0);
            self.refresh_range(first..self.warps.len());
            let live_warps = cta.warps.iter().filter(|w| !w.ops.is_empty()).count();
            self.resident.push(CtaRun {
                warps: first..self.warps.len(),
                live_warps,
                at_barrier: 0,
            });
            if live_warps > 0 {
                self.live_ctas += 1;
                return;
            }
        }
    }

    /// Warp `wi`'s candidate issue time from its current state, if it is
    /// Ready.
    fn candidate(&self, wi: usize) -> Option<u64> {
        let w = &self.warps[wi];
        if w.phase != WarpPhase::Ready {
            return None;
        }
        let dep_mc = w.ops[w.pc]
            .waits_on()
            .map_or(0, |d| self.completion(wi, d as usize));
        Some(w.ready_mc.max(dep_mc))
    }

    /// Warp `wi`'s tournament key from its current state.
    fn key(&self, wi: usize) -> u64 {
        self.candidate(wi)
            .map_or(NOT_READY, |mc| pick_key(mc, wi, self.shift))
    }

    /// Slot of op `i` of warp `wi` in `completions`.
    fn slot(&self, wi: usize, i: usize) -> usize {
        let w = &self.warps[wi];
        w.base + (i & w.ring_mask)
    }

    /// Completion time of op `i` of warp `wi`, which issued and which
    /// the warp's next op may wait on.
    fn completion(&self, wi: usize, i: usize) -> u64 {
        self.completions[self.slot(wi, i)]
    }

    /// Set warp `wi`'s tournament key and replay the matches on its
    /// leaf-to-root path.
    fn set_key(&mut self, wi: usize, key: u64) {
        let mut k = self.leaves + wi;
        let mut won = key;
        self.tree[k] = won;
        while k > 1 {
            won = won.min(self.tree[k ^ 1]);
            k >>= 1;
            self.tree[k] = won;
        }
    }

    /// Recompute warp `wi`'s key after its state changed.
    fn refresh(&mut self, wi: usize) {
        self.set_key(wi, self.key(wi));
    }

    /// [`SmSim::refresh`] for a contiguous range of warps (a CTA), one
    /// tree level at a time.
    fn refresh_range(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        for wi in range.clone() {
            self.tree[self.leaves + wi] = self.key(wi);
        }
        let (mut lo, mut hi) = (self.leaves + range.start, self.leaves + range.end - 1);
        while lo > 1 {
            (lo, hi) = (lo >> 1, hi >> 1);
            for k in lo..=hi {
                self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
            }
        }
    }

    /// The pick the tournament replaced: a scan of every warp's
    /// candidate, the lowest index winning a tie, or `None` if no warp is
    /// Ready. The oracle every test replay checks the tree's pick
    /// against.
    #[cfg(test)]
    fn pick_by_scan(&self) -> Option<(u64, usize)> {
        let mut pick: Option<(u64, usize)> = None;
        for wi in 0..self.warps.len() {
            if let Some(mc) = self.candidate(wi) {
                if pick.is_none_or(|(best, _)| mc < best) {
                    pick = Some((mc, wi));
                }
            }
        }
        pick
    }

    fn latency_mc(&self, kind: OpKind) -> u64 {
        let sm = &self.cfg.sm;
        (match kind {
            OpKind::IAlu { .. } => sm.alu_latency,
            OpKind::Vote => sm.vote_latency,
            OpKind::Shfl => sm.vote_latency,
            OpKind::LdShared { replays } | OpKind::StShared { replays } => {
                sm.shared_latency + replays.saturating_sub(1)
            }
            OpKind::AtomShared { replays } => sm.shared_latency + replays,
            OpKind::LdGlobal { .. } | OpKind::StGlobal { .. } => sm.global_latency,
            OpKind::AtomGlobal { .. } => sm.global_atomic_latency,
            OpKind::Bar => sm.vote_latency,
        }) as u64
            * MC
    }

    /// Run the SM to completion; returns finish time in mc.
    fn run(&mut self) -> u64 {
        loop {
            // The ready warp with the earliest candidate start; the
            // lowest warp index wins a tie.
            let key = self.tree[1];
            let pick =
                (key != NOT_READY).then(|| (key >> self.shift, key as usize & (self.leaves - 1)));
            #[cfg(test)]
            assert_eq!(pick, self.pick_by_scan(), "tournament pick");
            // No ready warps: all done (or all at barriers, handled on
            // arrival).
            let Some((cand_mc, wi)) = pick else { break };
            self.step_warp(wi, cand_mc);
        }
        self.finalize_attribution();
        self.now_max_mc
    }

    /// Close the books: attribute the tail between the last issue and
    /// the SM finish time, then round millicycles to cycles with
    /// largest-remainder apportioning so the classes sum *exactly* to
    /// the SM's cycle count.
    fn finalize_attribution(&mut self) {
        let end_mc = self.now_max_mc;
        if end_mc >= self.issue_free_mc {
            self.stall_mc[self.tail_class.index()] += end_mc - self.issue_free_mc;
        } else {
            // Sub-1-IPC issue configurations can leave the issue
            // timeline past the last completion; trim the excess so the
            // partition still covers exactly [0, end_mc].
            let excess = self.issue_free_mc - end_mc;
            let issue = &mut self.stall_mc[StallClass::Issue.index()];
            *issue = issue.saturating_sub(excess);
        }
        let target = end_mc.div_ceil(MC);
        let mut cycles = [0u64; STALL_CLASSES];
        let mut rems = [(0u64, 0usize); STALL_CLASSES];
        for (i, &mc) in self.stall_mc.iter().enumerate() {
            cycles[i] = mc / MC;
            rems[i] = (mc % MC, i);
        }
        let base: u64 = cycles.iter().sum();
        rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let deficit = (target.saturating_sub(base) as usize).min(STALL_CLASSES);
        for &(_, i) in rems.iter().take(deficit) {
            cycles[i] += 1;
        }
        self.report.stall_cycles = cycles;
    }

    fn step_warp(&mut self, wi: usize, cand_mc: u64) {
        let (cta_slot, ops, pc) = {
            let w = &self.warps[wi];
            (w.cta_slot, w.ops, w.pc)
        };
        let op = ops[pc];

        let dep_mc = op.waits_on().map_or(0, |d| self.completion(wi, d as usize));
        let stall = dep_mc.saturating_sub(self.warps[wi].ready_mc);
        self.report.dependency_stall_cycles += stall / MC;

        if let OpKind::Bar = op.kind {
            // Arrive at the barrier.
            let arrive = cand_mc;
            let slot = self.slot(wi, pc);
            self.completions[slot] = arrive;
            let w = &mut self.warps[wi];
            w.phase = WarpPhase::AtBarrier;
            w.barrier_arrival_mc = arrive;
            self.report.instructions += 1;
            self.report.class_instructions[OpClass::Barrier.index()] += 1;
            let run = &mut self.resident[cta_slot];
            run.at_barrier += 1;
            if run.at_barrier == run.live_warps {
                run.at_barrier = 0;
                let range = run.warps.clone();
                // Release: everyone resumes after the slowest arrival.
                let release = self.warps[range.clone()]
                    .iter()
                    .filter(|w| w.phase == WarpPhase::AtBarrier)
                    .map(|w| w.barrier_arrival_mc)
                    .max()
                    .unwrap_or(arrive)
                    + self.latency_mc(OpKind::Bar);
                let mut waits = 0u64;
                let mut finished = 0;
                for w in &mut self.warps[range.clone()] {
                    if w.phase == WarpPhase::AtBarrier {
                        waits += (release - w.barrier_arrival_mc) / MC;
                        w.ready_mc = release;
                        w.pc += 1;
                        if w.pc >= w.ops.len() {
                            w.phase = WarpPhase::Done;
                            finished += 1;
                        } else {
                            w.phase = WarpPhase::Ready;
                            w.wait_class = StallClass::Barrier;
                        }
                    }
                }
                self.refresh_range(range);
                self.report.barrier_wait_cycles += waits;
                if release >= self.now_max_mc {
                    self.now_max_mc = release;
                    self.tail_class = StallClass::Barrier;
                }
                let run = &mut self.resident[cta_slot];
                run.live_warps -= finished;
                if run.live_warps == 0 {
                    // CTA finished: its slot frees; admit the next CTA.
                    self.live_ctas -= 1;
                    self.activate_next(release);
                } else {
                    self.mark_release(cta_slot, release);
                }
            } else {
                self.set_key(wi, NOT_READY);
            }
            return;
        }

        // Issue through the shared scheduler resource.
        let n_instr = match op.kind {
            OpKind::IAlu { n } => n.max(1) as u64,
            _ => 1,
        };
        let start = cand_mc.max(self.issue_free_mc);
        // Attribute the idle gap on the issue timeline before this
        // issue: a dependency gap is classified by the producing op, any
        // other gap by whatever set the issuing warp's ready time.
        let gap = start - self.issue_free_mc;
        if gap > 0 {
            let cls = if dep_mc > self.warps[wi].ready_mc {
                let dep = op
                    .waits_on()
                    .expect("dependency-gated op records its producer");
                let producer = ops[dep as usize];
                StallClass::of_dependency(producer.kind.class())
            } else {
                self.warps[wi].wait_class
            };
            self.stall_mc[cls.index()] += gap;
        }
        self.issue_free_mc = start + n_instr * self.issue_cost_mc;
        self.stall_mc[StallClass::Issue.index()] += n_instr * self.issue_cost_mc;
        self.report.issue_busy_cycles += n_instr * self.issue_cost_mc / MC;
        self.report.class_instructions[op.kind.class().index()] += n_instr;
        // A single warp issues at most one instruction per cycle.
        let issue_end = start + n_instr * MC;

        let mut completion = issue_end - MC + self.latency_mc(op.kind);
        match op.kind {
            OpKind::LdGlobal { transactions } | OpKind::StGlobal { transactions } => {
                let t = transactions.max(1) as u64;
                let served = self.mem_free_mc.max(start) + t * self.mem_tx_cost_mc;
                self.mem_free_mc = served;
                completion = served + self.latency_mc(op.kind);
                self.report.global_transactions += t;
                self.report.mem_busy_cycles += t * self.mem_tx_cost_mc / MC;
            }
            OpKind::AtomGlobal { transactions } => {
                // RMWs pipeline at the L2 on all three generations; the
                // generation gap is latency, not occupancy.
                let t = transactions.max(1) as u64;
                let served = self.mem_free_mc.max(start) + t * self.mem_tx_cost_mc;
                self.mem_free_mc = served;
                completion = served + self.latency_mc(op.kind);
                self.report.global_transactions += t;
                self.report.mem_busy_cycles += t * self.mem_tx_cost_mc / MC;
            }
            OpKind::LdShared { replays } | OpKind::StShared { replays } => {
                let r = replays.max(1) as u64;
                let served = self.shared_free_mc.max(start) + r * MC;
                self.shared_free_mc = served;
                completion = served + self.cfg.sm.shared_latency as u64 * MC;
                self.report.shared_replays += r;
                self.report.shared_busy_cycles += r;
            }
            OpKind::AtomShared { replays } => {
                let r = replays.max(1) as u64;
                let served = self.shared_free_mc.max(start) + r * self.shared_atom_cost_mc;
                self.shared_free_mc = served;
                completion = served + self.cfg.sm.shared_latency as u64 * MC;
                self.report.shared_replays += r;
                self.report.shared_busy_cycles += r * self.shared_atom_cost_mc / MC;
            }
            _ => {}
        }

        self.report.instructions += n_instr;
        let slot = self.slot(wi, pc);
        self.completions[slot] = completion;
        let done_len = {
            let w = &mut self.warps[wi];
            w.ready_mc = issue_end;
            // Any future gap this warp heads is its own 1-IPC limit:
            // latency more resident warps would hide.
            w.wait_class = StallClass::OccupancyWait;
            w.pc += 1;
            w.pc >= ops.len()
        };
        if completion >= self.now_max_mc {
            self.now_max_mc = completion;
            self.tail_class = StallClass::of_tail(op.kind.class());
        }
        if done_len {
            self.warps[wi].phase = WarpPhase::Done;
            self.set_key(wi, NOT_READY);
            let run = &mut self.resident[cta_slot];
            run.live_warps -= 1;
            if run.live_warps == 0 {
                self.live_ctas -= 1;
                let t = self.warps[wi].ready_mc;
                self.activate_next(t);
            }
        } else {
            self.refresh(wi);
        }
    }

    /// Every additive total of the replay, in [`Mark::totals`] order.
    fn totals_mut(&mut self) -> [&mut u64; TOTALS] {
        let r = &mut self.report;
        let [c0, c1, c2, c3, c4, c5] = &mut r.class_instructions;
        let [s0, s1, s2, s3, s4] = &mut self.stall_mc;
        [
            &mut r.instructions,
            &mut r.global_transactions,
            &mut r.shared_replays,
            &mut r.barrier_wait_cycles,
            &mut r.dependency_stall_cycles,
            &mut r.issue_busy_cycles,
            &mut r.mem_busy_cycles,
            &mut r.shared_busy_cycles,
            c0,
            c1,
            c2,
            c3,
            c4,
            c5,
            s0,
            s1,
            s2,
            s3,
            s4,
        ]
    }

    /// CTA `slot`'s barrier released at `release`, and the CTA runs on.
    /// If it is alone on the SM, compare the segment it just replayed
    /// with the ones that follow: when they repeat it from the same entry
    /// state, fast-forward over them; otherwise remember this release for
    /// the next one.
    fn mark_release(&mut self, slot: usize, release: u64) {
        if self.live_ctas > 1 {
            self.mark = None;
            return;
        }
        let mark = Mark {
            cta_slot: slot,
            release_mc: release,
            entry: Entry {
                mem_free_mc: self.mem_free_mc.max(release) - release,
                shared_free_mc: self.shared_free_mc.max(release) - release,
                issue_free_mc: self.issue_free_mc.wrapping_sub(release),
            },
            now_max_mc: self.now_max_mc - release,
            totals: self.totals_mut().map(|t| *t),
        };
        let range = self.resident[slot].warps.clone();
        let n = match self.mark {
            Some(prev)
                if prev.cta_slot == slot
                    && prev.entry == mark.entry
                    && prev.now_max_mc.max(mark.now_max_mc) <= release - prev.release_mc =>
            {
                self.repeats(range.clone())
            }
            _ => 0,
        };
        #[cfg(test)]
        let n = if STEP_BY_STEP.get() { 0 } else { n };
        if n == 0 {
            for w in &mut self.warps[range] {
                w.mark_pc = w.pc;
            }
            self.mark = Some(mark);
            return;
        }
        let prev = self.mark.take().expect("a repeat follows a mark");
        self.fast_forward(&prev, &mark, n, range);
    }

    /// How many copies of the segment CTA `range`'s warps just replayed
    /// (`ops[mark_pc..pc]` of each) follow it back to back, each ending
    /// with ops left in every warp, and none of them needed by an op
    /// after the last one.
    fn repeats(&self, range: Range<usize>) -> usize {
        let warps = &self.warps[range];
        // The segment must read no completion from before itself.
        let closed = warps.iter().all(|w| {
            w.ops[w.mark_pc..w.pc]
                .iter()
                .all(|op| op.waits_on().is_none_or(|d| d as usize >= w.mark_pc))
        });
        if !closed {
            return 0;
        }
        let mut n = 0;
        'copies: loop {
            for w in warps {
                let len = w.pc - w.mark_pc;
                let at = w.pc + n * len;
                // Ops left after the copy: no warp finishes inside the
                // run, and a warp that finished at or before this
                // release stops it.
                if at + len >= w.ops.len()
                    || !repeats_ops(&w.ops[w.mark_pc..w.pc], w.mark_pc, &w.ops[at..at + len], at)
                {
                    break 'copies;
                }
            }
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        // A skipped op's completion is never written to its warp's ring,
        // so no op after the run may wait on one. Ops at least a ring
        // past the run wait on nothing inside it; the ones before may cut
        // the run short.
        for w in warps {
            let len = w.pc - w.mark_pc;
            let end = w.pc + n * len;
            let window = end..(end + w.ring_mask + 1).min(w.ops.len());
            for op in &w.ops[window] {
                if let Some(d) = op.waits_on().map(|d| d as usize) {
                    if (w.pc..end).contains(&d) {
                        n = n.min((d - w.pc) / len);
                    }
                }
            }
        }
        n
    }

    /// Advance CTA `range` over `n` more copies of the segment replayed
    /// between `prev` and `cur`: each one takes as long as it did and
    /// adds what it added, from the same entry state.
    fn fast_forward(&mut self, prev: &Mark, cur: &Mark, n: usize, range: Range<usize>) {
        let times = n as u64;
        let release = cur.release_mc + times * (cur.release_mc - prev.release_mc);
        let entry = cur.entry;
        self.mem_free_mc = release + entry.mem_free_mc;
        self.shared_free_mc = release + entry.shared_free_mc;
        self.issue_free_mc = release.wrapping_add(entry.issue_free_mc);
        self.now_max_mc = release + cur.now_max_mc;
        for ((total, from), to) in self
            .totals_mut()
            .into_iter()
            .zip(prev.totals)
            .zip(cur.totals)
        {
            *total += times * (to - from);
        }
        for w in &mut self.warps[range.clone()] {
            let len = w.pc - w.mark_pc;
            w.pc += n * len;
            w.ready_mc = release;
            self.skipped_ops += (n * len) as u64;
        }
        self.refresh_range(range);
    }
}

/// [`crate::trace::Ops::ring_len`] by a walk of every op: the oracle
/// every test replay checks the ring length kept while recording
/// against.
///
/// # Panics
/// Panics if an op waits on itself or on a later op.
#[cfg(test)]
fn ring_len(ops: &[OpRecord]) -> usize {
    // Distance minus one, so a dependency on the op itself or a later
    // one wraps around to a huge value; no branch per op.
    let gap = ops
        .iter()
        .enumerate()
        .map(|(i, op)| op.waits_on().map_or(0, |d| i.wrapping_sub(d as usize + 1)))
        .max()
        .unwrap_or(0);
    assert!(gap <= ops.len(), "an op waits on itself or on a later op");
    (gap + 1).next_power_of_two()
}

/// A timing replay's working set, kept between launches: a resident
/// [`crate::Gpu`] replays every launch through one, so a replay
/// allocates only while a launch outgrows all earlier ones. Holds no
/// replay state between calls; every report is the one a fresh
/// `Replayer` computes.
#[derive(Default)]
pub struct Replayer {
    set: WorkingSet<'static>,
}

impl Replayer {
    /// Replay `grid` on `sms_used` SMs of the configured device into
    /// `report`, reusing its `per_sm_cycles` buffer.
    pub fn replay(
        &mut self,
        grid: &GridTrace,
        cfg: &GpuConfig,
        sms_used: u32,
        report: &mut TimingReport,
    ) {
        let skipped_ops = self.replay_counting(grid, cfg, sms_used, report);
        // Test builds replay every launch that fast-forwarded again, step
        // by step: the fast-forward's oracle.
        #[cfg(test)]
        if skipped_ops > 0 {
            STEP_BY_STEP.set(true);
            let step_by_step = simulate(grid, cfg, sms_used);
            STEP_BY_STEP.set(false);
            assert_eq!(*report, step_by_step, "fast-forward changed the replay");
        }
        #[cfg(not(test))]
        let _ = skipped_ops;
    }

    /// [`Replayer::replay`]; returns the ops it fast-forwarded over.
    fn replay_counting(
        &mut self,
        grid: &GridTrace,
        cfg: &GpuConfig,
        sms_used: u32,
        report: &mut TimingReport,
    ) -> u64 {
        let max_shared = grid.ctas.iter().map(|c| c.shared_bytes).max().unwrap_or(0);
        let occ: Occupancy = occupancy(
            &cfg.sm,
            grid.threads_per_cta,
            max_shared,
            grid.registers_per_thread,
        );

        let mut per_sm_cycles = std::mem::take(&mut report.per_sm_cycles);
        per_sm_cycles.clear();
        *report = TimingReport {
            per_sm_cycles,
            resident_ctas_per_sm: occ.resident_ctas,
            ..TimingReport::default()
        };
        // CTAs are distributed round-robin over the SMs in use; SM `s`
        // holds CTAs `s`, `s + sms`, …
        let sms = sms_used.min(cfg.sm_count).max(1) as usize;
        let mut set = std::mem::take(&mut self.set).recycle();
        let mut skipped_ops = 0;
        for sm in 0..sms.min(grid.ctas.len()) {
            let mut sim = SmSim::new(grid, cfg, (sm, sms), occ.resident_ctas, set);
            let end_mc = sim.run();
            let sm_cycles = end_mc.div_ceil(MC);
            report.per_sm_cycles.push(sm_cycles);
            // The critical SM defines the launch's cycle count; its stall
            // partition is the launch's stall partition (first SM wins
            // ties, deterministically).
            let r = &sim.report;
            if sm_cycles > report.cycles {
                report.cycles = sm_cycles;
                report.stall_cycles = r.stall_cycles;
            }
            report.instructions += r.instructions;
            report.global_transactions += r.global_transactions;
            report.shared_replays += r.shared_replays;
            report.barrier_wait_cycles += r.barrier_wait_cycles;
            report.dependency_stall_cycles += r.dependency_stall_cycles;
            for (i, v) in r.class_instructions.iter().enumerate() {
                report.class_instructions[i] += v;
            }
            report.issue_busy_cycles += r.issue_busy_cycles;
            report.mem_busy_cycles += r.mem_busy_cycles;
            report.shared_busy_cycles += r.shared_busy_cycles;
            skipped_ops += sim.skipped_ops;
            set = sim.into_working_set();
        }
        self.set = set.recycle();
        skipped_ops
    }
}

/// Replay `grid` on `sms_used` SMs of the configured device, in a fresh
/// [`Replayer`].
pub fn simulate(grid: &GridTrace, cfg: &GpuConfig, sms_used: u32) -> TimingReport {
    let mut report = TimingReport::default();
    Replayer::default().replay(grid, cfg, sms_used, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuGeneration;
    use crate::trace::{CtaTrace, DepToken, WarpTrace};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn one_warp_trace(ops: Vec<OpKind>) -> GridTrace {
        let mut wt = WarpTrace::default();
        for op in ops {
            wt.push(op);
        }
        GridTrace {
            ctas: vec![CtaTrace {
                warps: vec![wt],
                shared_bytes: 0,
            }],
            threads_per_cta: 32,
            registers_per_thread: 32,
        }
    }

    #[test]
    fn alu_chain_is_roughly_one_per_cycle() {
        let grid = one_warp_trace(vec![OpKind::IAlu { n: 100 }]);
        let cfg = GpuGeneration::PascalGtx1080.config();
        let r = simulate(&grid, &cfg, 1);
        assert!(
            r.cycles >= 100,
            "100 instructions take at least 100 cycles, got {}",
            r.cycles
        );
        assert!(
            r.cycles < 160,
            "undep'd ALU stream should pipeline, got {}",
            r.cycles
        );
        assert_eq!(r.instructions, 100);
    }

    #[test]
    fn dependent_load_stalls() {
        // load then dependent vote: completion must include global latency.
        let mut wt = WarpTrace::default();
        let ld = wt.push(OpKind::LdGlobal { transactions: 1 });
        wt.push_dep(OpKind::Vote, Some(ld));
        let grid = GridTrace {
            ctas: vec![CtaTrace {
                warps: vec![wt],
                shared_bytes: 0,
            }],
            threads_per_cta: 32,
            registers_per_thread: 32,
        };
        let cfg = GpuGeneration::PascalGtx1080.config();
        let r = simulate(&grid, &cfg, 1);
        assert!(
            r.cycles as u32 >= cfg.sm.global_latency,
            "dependent consumer must wait out the memory latency: {} < {}",
            r.cycles,
            cfg.sm.global_latency
        );
        assert!(r.dependency_stall_cycles > 0);
    }

    #[test]
    fn independent_loads_overlap() {
        // Two warps each doing load+dependent vote: the second warp's load
        // overlaps the first's latency, so total << 2 × latency.
        let mut w0 = WarpTrace::default();
        let l0 = w0.push(OpKind::LdGlobal { transactions: 1 });
        w0.push_dep(OpKind::Vote, Some(l0));
        let w1 = w0.clone();
        let grid = GridTrace {
            ctas: vec![CtaTrace {
                warps: vec![w0, w1],
                shared_bytes: 0,
            }],
            threads_per_cta: 64,
            registers_per_thread: 32,
        };
        let cfg = GpuGeneration::PascalGtx1080.config();
        let r = simulate(&grid, &cfg, 1);
        assert!(
            (r.cycles as u32) < cfg.sm.global_latency * 2,
            "latency hiding failed: {} cycles",
            r.cycles
        );
    }

    #[test]
    fn barrier_waits_for_slowest_warp() {
        let mut slow = WarpTrace::default();
        slow.push(OpKind::IAlu { n: 500 });
        slow.push(OpKind::Bar);
        let mut fast = WarpTrace::default();
        fast.push(OpKind::IAlu { n: 1 });
        fast.push(OpKind::Bar);
        let grid = GridTrace {
            ctas: vec![CtaTrace {
                warps: vec![slow, fast],
                shared_bytes: 0,
            }],
            threads_per_cta: 64,
            registers_per_thread: 32,
        };
        let cfg = GpuGeneration::MaxwellM40.config();
        let r = simulate(&grid, &cfg, 1);
        assert!(r.cycles >= 500);
        assert!(
            r.barrier_wait_cycles > 300,
            "fast warp must wait: {}",
            r.barrier_wait_cycles
        );
    }

    #[test]
    fn excess_ctas_serialize() {
        // CTAs that exceed the residency limit must wait for slots, so
        // 4× the CTAs of a full complement takes about 2× the time when
        // only 2 are resident.
        let make = |ctas: usize| {
            let mut wt = WarpTrace::default();
            wt.push(OpKind::IAlu { n: 1000 });
            GridTrace {
                ctas: (0..ctas)
                    .map(|_| CtaTrace {
                        warps: vec![wt.clone(); 32],
                        shared_bytes: 40 * 1024, // 96K/40K → 2 resident (Pascal)
                    })
                    .collect(),
                threads_per_cta: 1024,
                registers_per_thread: 32,
            }
        };
        let cfg = GpuGeneration::PascalGtx1080.config();
        let t2 = simulate(&make(2), &cfg, 1);
        let t4 = simulate(&make(4), &cfg, 1);
        assert_eq!(t2.resident_ctas_per_sm, 2);
        let ratio = t4.cycles as f64 / t2.cycles as f64;
        assert!(
            (1.7..=2.4).contains(&ratio),
            "4 CTAs over 2 slots should take ~2× of 2 CTAs, ratio {ratio}"
        );
    }

    #[test]
    fn multiple_sms_scale() {
        let mut wt = WarpTrace::default();
        wt.push(OpKind::IAlu { n: 1000 });
        let grid = GridTrace {
            ctas: (0..8)
                .map(|_| CtaTrace {
                    warps: vec![wt.clone(); 32],
                    shared_bytes: 40 * 1024,
                })
                .collect(),
            threads_per_cta: 1024,
            registers_per_thread: 32,
        };
        let cfg = GpuGeneration::PascalGtx1080.config();
        let one = simulate(&grid, &cfg, 1);
        let four = simulate(&grid, &cfg, 4);
        assert!(
            four.cycles * 3 < one.cycles * 2,
            "4 SMs must be much faster: {} vs {}",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn class_attribution_accounts_for_every_instruction() {
        let grid = one_warp_trace(vec![
            OpKind::IAlu { n: 7 },
            OpKind::Vote,
            OpKind::LdGlobal { transactions: 2 },
            OpKind::LdShared { replays: 1 },
            OpKind::AtomGlobal { transactions: 4 },
            OpKind::Bar,
        ]);
        let cfg = GpuGeneration::PascalGtx1080.config();
        let r = simulate(&grid, &cfg, 1);
        let sum: u64 = r.class_instructions.iter().sum();
        assert_eq!(sum, r.instructions);
        use crate::trace::OpClass;
        assert_eq!(r.class_instructions[OpClass::Alu.index()], 7);
        assert_eq!(r.class_instructions[OpClass::WarpOp.index()], 1);
        assert_eq!(r.class_instructions[OpClass::GlobalMem.index()], 1);
        assert_eq!(r.class_instructions[OpClass::SharedMem.index()], 1);
        assert_eq!(r.class_instructions[OpClass::Atomic.index()], 1);
        assert_eq!(r.class_instructions[OpClass::Barrier.index()], 1);
        assert!(r.issue_busy_cycles > 0);
        assert!(r.mem_busy_cycles > 0);
        assert!(r.shared_busy_cycles > 0);
    }

    #[test]
    fn stall_attribution_partitions_cycles_exactly() {
        let cfg = GpuGeneration::PascalGtx1080.config();
        let shapes: Vec<(&str, GridTrace)> = vec![
            ("alu", one_warp_trace(vec![OpKind::IAlu { n: 100 }])),
            (
                "mixed",
                one_warp_trace(vec![
                    OpKind::IAlu { n: 7 },
                    OpKind::Vote,
                    OpKind::LdGlobal { transactions: 2 },
                    OpKind::LdShared { replays: 3 },
                    OpKind::AtomGlobal { transactions: 4 },
                    OpKind::Bar,
                ]),
            ),
            ("dependent", {
                let mut wt = WarpTrace::default();
                let ld = wt.push(OpKind::LdGlobal { transactions: 1 });
                wt.push_dep(OpKind::Vote, Some(ld));
                GridTrace {
                    ctas: vec![CtaTrace {
                        warps: vec![wt],
                        shared_bytes: 0,
                    }],
                    threads_per_cta: 32,
                    registers_per_thread: 32,
                }
            }),
        ];
        for (name, grid) in &shapes {
            for sms in [1, 4] {
                let r = simulate(grid, &cfg, sms);
                assert_eq!(
                    r.stall_cycles.iter().sum::<u64>(),
                    r.cycles,
                    "{name}/{sms} SMs: stall classes must partition the critical SM"
                );
            }
        }
    }

    #[test]
    fn stall_classes_track_their_causes() {
        let cfg = GpuGeneration::PascalGtx1080.config();
        // Dependent load: the consumer's wait lands on MemDependency.
        let mut wt = WarpTrace::default();
        let ld = wt.push(OpKind::LdGlobal { transactions: 1 });
        wt.push_dep(OpKind::Vote, Some(ld));
        let grid = GridTrace {
            ctas: vec![CtaTrace {
                warps: vec![wt],
                shared_bytes: 0,
            }],
            threads_per_cta: 32,
            registers_per_thread: 32,
        };
        let r = simulate(&grid, &cfg, 1);
        assert!(
            r.stall_cycles[StallClass::MemDependency.index()] as u32 >= cfg.sm.global_latency / 2,
            "memory wait must be attributed: {:?}",
            r.stall_cycles
        );

        // Slow/fast warp pair at a barrier: the wait shows up as Barrier
        // or OccupancyWait, never as memory.
        let mut slow = WarpTrace::default();
        slow.push(OpKind::IAlu { n: 500 });
        slow.push(OpKind::Bar);
        slow.push(OpKind::IAlu { n: 1 });
        let mut fast = WarpTrace::default();
        fast.push(OpKind::IAlu { n: 1 });
        fast.push(OpKind::Bar);
        fast.push(OpKind::IAlu { n: 1 });
        let grid = GridTrace {
            ctas: vec![CtaTrace {
                warps: vec![slow, fast],
                shared_bytes: 0,
            }],
            threads_per_cta: 64,
            registers_per_thread: 32,
        };
        let r = simulate(&grid, &cfg, 1);
        assert_eq!(r.stall_cycles.iter().sum::<u64>(), r.cycles);
        assert_eq!(r.stall_cycles[StallClass::MemDependency.index()], 0);

        // Pure wide ALU work is dominated by issue + occupancy classes.
        let r = simulate(&one_warp_trace(vec![OpKind::IAlu { n: 1000 }]), &cfg, 1);
        let covered = r.stall_cycles[StallClass::Issue.index()]
            + r.stall_cycles[StallClass::OccupancyWait.index()];
        assert!(
            covered * 10 >= r.cycles * 9,
            "ALU stream should be issue/occupancy bound: {:?} of {}",
            r.stall_cycles,
            r.cycles
        );
    }

    #[test]
    fn kernel_profile_mirrors_timing() {
        let grid = one_warp_trace(vec![OpKind::IAlu { n: 10 }, OpKind::Bar]);
        let cfg = GpuGeneration::PascalGtx1080.config();
        let t = simulate(&grid, &cfg, 1);
        let p = KernelProfile::from_timing("k", &t);
        assert_eq!(p.cycles, t.cycles);
        assert_eq!(p.stall_cycles.iter().sum::<u64>(), p.cycles);
        assert_eq!(p.launches, 1);
    }

    #[test]
    #[should_panic(expected = "overflows the pick key")]
    fn pick_key_panics_at_the_first_time_that_does_not_fit() {
        // Eight leaves: three index bits below 61 time bits.
        let shift = 3;
        let last = (NOT_READY >> shift) - 1;
        assert!(pick_key(5, 1, shift) < pick_key(5, 2, shift), "tie");
        assert!(pick_key(last - 1, 7, shift) < pick_key(last, 0, shift));
        assert!(pick_key(last, 7, shift) < NOT_READY);
        pick_key(last + 1, 0, shift);
    }

    /// `grid` replayed with fast-forward and step by step, and the ops the
    /// first skipped.
    fn both_ways(grid: &GridTrace, cfg: &GpuConfig, sms: u32) -> (TimingReport, TimingReport, u64) {
        let mut fast = TimingReport::default();
        let skipped = Replayer::default().replay_counting(grid, cfg, sms, &mut fast);
        STEP_BY_STEP.set(true);
        let step_by_step = simulate(grid, cfg, sms);
        STEP_BY_STEP.set(false);
        (fast, step_by_step, skipped)
    }

    #[test]
    fn repeated_segments_fast_forward_exactly() {
        // Three warps, twelve copies of a load–consume–store segment.
        let mut warps = vec![WarpTrace::default(); 3];
        for (i, wt) in warps.iter_mut().enumerate() {
            for _ in 0..12 {
                let ld = wt.push(OpKind::LdGlobal {
                    transactions: 1 + i as u32,
                });
                wt.push(OpKind::IAlu { n: 3 });
                wt.push_dep(OpKind::StShared { replays: 2 }, Some(ld));
                wt.push(OpKind::Bar);
            }
            wt.push(OpKind::IAlu { n: 1 });
        }
        let grid = GridTrace {
            ctas: vec![CtaTrace {
                warps,
                shared_bytes: 0,
            }],
            threads_per_cta: 96,
            registers_per_thread: 32,
        };
        for gen in GpuGeneration::ALL {
            let (fast, step_by_step, skipped) = both_ways(&grid, &gen.config(), 1);
            assert_eq!(fast, step_by_step, "{gen:?}");
            assert!(
                skipped >= 3 * 4 * 8,
                "{gen:?}: only {skipped} of 147 ops skipped"
            );
        }
    }

    /// A segment body of 1 to `max_len` ops: each op a random kind,
    /// waiting with some chance on an op `back` ops before it, up to
    /// `reach` past the body's start.
    fn random_body(rng: &mut StdRng, max_len: usize, reach: usize) -> Vec<(OpKind, Option<usize>)> {
        (0..rng.gen_range(1..=max_len))
            .map(|j| {
                let kind = match rng.gen_range(0..9) {
                    0 => OpKind::IAlu {
                        n: rng.gen_range(1..6),
                    },
                    1 => OpKind::Vote,
                    2 => OpKind::Shfl,
                    3 => OpKind::LdGlobal {
                        transactions: rng.gen_range(1..5),
                    },
                    4 => OpKind::StGlobal {
                        transactions: rng.gen_range(1..5),
                    },
                    5 => OpKind::LdShared {
                        replays: rng.gen_range(1..4),
                    },
                    6 => OpKind::StShared {
                        replays: rng.gen_range(1..4),
                    },
                    7 => OpKind::AtomGlobal {
                        transactions: rng.gen_range(1..3),
                    },
                    _ => OpKind::AtomShared {
                        replays: rng.gen_range(1..3),
                    },
                };
                let back =
                    (j + reach > 0 && rng.gen_bool(0.5)).then(|| rng.gen_range(1..=j + reach));
                (kind, back)
            })
            .collect()
    }

    /// Append `body`'s ops to `wt`; a dependency before the first op is
    /// dropped.
    fn push_body(wt: &mut WarpTrace, body: &[(OpKind, Option<usize>)]) {
        for &(kind, back) in body {
            let at = wt.ops.len();
            let dep = back.filter(|&b| b <= at).map(|b| DepToken((at - b) as u32));
            wt.push_dep(kind, dep);
        }
    }

    /// A random grid of repeated and almost-repeated barrier segments:
    /// per CTA, warm-up segments, copies of one segment per warp, then
    /// other segments. Some copy may differ from its predecessor in one
    /// op's kind, in one dependency's distance, or in a dependency on the
    /// very op its predecessor's waits on; ops after the copies may wait
    /// on ops inside them; some warps finish at an earlier barrier than
    /// their CTA's others, and the others may run on past the last one.
    fn random_grid(seed: u64) -> (GridTrace, u32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let warps_per_cta = rng.gen_range(1..=4);
        let ctas = (0..rng.gen_range(1..=3))
            .map(|_| {
                let prefix = rng.gen_range(0..=2);
                let copies = rng.gen_range(2..=9);
                let suffix = rng.gen_range(0..=2);
                let warps = (0..warps_per_cta)
                    .map(|w| {
                        // Mostly closed segments, sometimes one that
                        // reads across its barrier.
                        let reach = if rng.gen_bool(0.1) { 3 } else { 0 };
                        let template = random_body(&mut rng, 5, reach);
                        let len = template.len();
                        let mut segments: Vec<_> =
                            (0..prefix).map(|_| random_body(&mut rng, 5, 3)).collect();
                        segments.extend(std::iter::repeat_n(template, copies));
                        segments.extend((0..suffix).map(|_| random_body(&mut rng, 5, 3)));
                        if rng.gen_bool(0.5) {
                            let k = prefix + rng.gen_range(1..copies);
                            let j = rng.gen_range(0..len);
                            let op = &mut segments[k][j];
                            match rng.gen_range(0..3) {
                                0 => op.0 = OpKind::IAlu { n: 7 },
                                1 => op.1 = Some(op.1.map_or(1, |b| b + 1)),
                                // The op its predecessor's op waits on:
                                // the same absolute index, one segment
                                // (body and barrier) further back.
                                _ => op.1 = op.1.map(|b| b + len + 1),
                            }
                        }
                        let mut wt = WarpTrace::default();
                        let mut keep = segments.len();
                        if w > 0 && rng.gen_bool(0.25) {
                            keep = rng.gen_range(1..=keep);
                        }
                        for body in &segments[..keep] {
                            push_body(&mut wt, body);
                            wt.push(OpKind::Bar);
                        }
                        if keep == segments.len() && rng.gen_bool(0.5) {
                            push_body(&mut wt, &random_body(&mut rng, 3, 3));
                        }
                        wt
                    })
                    .collect();
                CtaTrace {
                    warps,
                    shared_bytes: [0, 16 * 1024, 40 * 1024][rng.gen_range(0..3)],
                }
            })
            .collect();
        let grid = GridTrace {
            ctas,
            threads_per_cta: 32 * warps_per_cta as u32,
            registers_per_thread: 32,
        };
        (grid, rng.gen_range(1..=2))
    }

    /// Replays [`random_grid`]s both ways on every generation.
    fn check_random_grid(seed: u64) -> Result<u64, TestCaseError> {
        let (grid, sms) = random_grid(seed);
        let mut skipped = 0;
        for gen in GpuGeneration::ALL {
            let (fast, step_by_step, n) = both_ways(&grid, &gen.config(), sms);
            prop_assert_eq!(fast, step_by_step, "seed {seed}, {gen:?}");
            skipped += n;
        }
        Ok(skipped)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Fast-forward changes no field of any report.
        #[test]
        fn fast_forward_equals_step_by_step(seed in any::<u64>()) {
            check_random_grid(seed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// [`fast_forward_equals_step_by_step`] over many more grids.
        #[test]
        #[cfg_attr(
            debug_assertions,
            ignore = "heavy fast-forward sweep; run with `cargo test --release`"
        )]
        fn fast_forward_equals_step_by_step_at_scale(seed in any::<u64>()) {
            check_random_grid(seed)?;
        }
    }

    #[test]
    fn random_grids_fast_forward() {
        let forwarded = (0..64)
            .filter(|&seed| check_random_grid(seed).expect("exact") > 0)
            .count();
        assert!(forwarded >= 16, "only {forwarded} of 64 grids fast-forward");
    }

    #[test]
    fn deterministic_replay() {
        let grid = one_warp_trace(vec![
            OpKind::IAlu { n: 10 },
            OpKind::LdGlobal { transactions: 4 },
            OpKind::Vote,
            OpKind::Bar,
        ]);
        let cfg = GpuGeneration::KeplerK80.config();
        let a = simulate(&grid, &cfg, 1);
        let b = simulate(&grid, &cfg, 1);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }
}
