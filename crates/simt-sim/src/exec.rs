//! Functional kernel execution: CTAs, warps and the recording API.
//!
//! Kernels implement [`CtaKernel`] and are written *warp-synchronously*:
//! the body is a sequence of segments (closures passed to
//! [`CtaCtx::for_each_warp`] or [`CtaCtx::warp`]) separated by implicit
//! CTA barriers. Within a segment each warp runs to completion in warp-id
//! order, which is deterministic and race-free for kernels whose
//! inter-warp communication crosses barriers — the discipline all kernels
//! in this workspace follow (and that correct CUDA kernels must follow).
//!
//! Every warp-wide operation goes through [`WarpCtx`], which performs it
//! functionally on lane vectors *and* records an [`crate::trace::OpRecord`] for the
//! timing replay, including post-coalescing transaction counts and
//! bank-conflict replays.

use crate::config::{GpuConfig, GpuGeneration, WARP_SIZE};
use crate::lanes::{self, LaneMask, Lanes};
use crate::mem::{
    bank_conflict_degree, coalesced_transactions, element_conflict_degree, run_conflict_degree,
    run_index, run_transactions, BufferId, DeviceMemory, DeviceScalar, SharedId, SharedMemory,
};
use crate::sanitize::{self, Access, AccessKind, RaceReport, Space};
use crate::timing::{self, TimingReport};
use crate::trace::{dependency_gap, CtaTrace, DepToken, GridTrace, OpKind, OpRecord, WarpTrace};

/// Grid launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of CTAs in the grid.
    pub(crate) ctas: u32,
    /// Threads per CTA (multiple CTAs may exceed warp granularity; the
    /// final warp of a CTA may be partial).
    pub(crate) threads_per_cta: u32,
    /// SMs the grid may occupy. The paper dedicates a *single* SM to the
    /// communication kernel (Section II-C), so this defaults to 1 in
    /// [`LaunchConfig::single_sm`].
    pub(crate) sms_used: u32,
}

impl LaunchConfig {
    /// The paper's deployment: everything on one SM.
    pub fn single_sm(ctas: u32, threads_per_cta: u32) -> Self {
        LaunchConfig {
            ctas,
            threads_per_cta,
            sms_used: 1,
        }
    }

    /// Warps per CTA implied by the thread count.
    pub(crate) fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(WARP_SIZE as u32)
    }
}

/// A kernel executable on the simulated device.
pub trait CtaKernel {
    /// Per-thread register footprint, an occupancy input. 32 matches the
    /// compiled footprint of the matching kernels.
    fn registers_per_thread(&self) -> u32 {
        32
    }

    /// Display name used in launch profiles and trace spans.
    fn name(&self) -> &'static str {
        "kernel"
    }

    /// Span category of this kernel's launches in the exported trace
    /// (compaction kernels override this so viewers can filter them).
    fn obs_category(&self) -> obs::SpanCategory {
        obs::SpanCategory::KernelLaunch
    }

    /// Execute one CTA. Called once per CTA in the grid, in CTA-id order.
    fn execute(&mut self, cta: &mut CtaCtx<'_>);
}

/// Execution context of one CTA during functional execution.
pub struct CtaCtx<'a> {
    global: &'a mut DeviceMemory,
    shared: &'a mut SharedMemory,
    /// This CTA's warps in the device's trace arena, holding whatever
    /// earlier launches recorded there.
    traces: &'a mut [WarpTrace],
    cursors: &'a mut [Cursor],
    cta_id: usize,
    threads: usize,
    banks: u32,
    sanitizer: Option<SanitizerState>,
}

/// Per-CTA sanitizer bookkeeping (enabled by
/// [`Gpu::launch_sanitized`]).
#[derive(Default)]
struct SanitizerState {
    log: Vec<Access>,
    segment: u32,
    reports: Vec<RaceReport>,
}

/// One warp's recording position in its arena trace, which still holds
/// earlier launches' ops past that position.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// Ops this launch recorded so far.
    len: usize,
    /// The largest [`dependency_gap`] this launch recorded.
    max_gap: usize,
    /// Whether the trace now differs from the previous launch's.
    changed: bool,
}

impl Cursor {
    /// Record `kind` as the warp's next op, writing the arena only where
    /// it differs from the op an earlier launch left at that position.
    /// Inlined, so that the compare sees which `kind` each call site
    /// records; appending past every earlier trace is out of line.
    #[inline]
    fn record(&mut self, trace: &mut WarpTrace, kind: OpKind, dep: Option<DepToken>) -> DepToken {
        let op = OpRecord::new(kind, dep);
        self.max_gap = self.max_gap.max(dependency_gap(self.len, dep));
        match trace.ops.buf.get_mut(self.len) {
            Some(old) => {
                if *old != op {
                    *old = op;
                    self.changed = true;
                }
            }
            None => Self::append(trace, op),
        }
        self.len += 1;
        DepToken(self.len as u32 - 1)
    }

    #[cold]
    #[inline(never)]
    fn append(trace: &mut WarpTrace, op: OpRecord) {
        trace.ops.buf.push(op);
    }

    /// End the warp's recording: the trace's ops become the ones this
    /// launch recorded. Ops past them stay in the buffer, unread. A
    /// recording of another length changed the trace, even where each of
    /// its ops equals the one the buffer held.
    fn finish(&mut self, trace: &mut WarpTrace) {
        let ops = &mut trace.ops;
        self.changed |= ops.len != self.len;
        ops.len = self.len;
        ops.max_gap = self.max_gap;
    }
}

impl CtaCtx<'_> {
    /// Index of this CTA within the grid.
    pub fn cta_id(&self) -> usize {
        self.cta_id
    }

    /// Threads in this CTA.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Warps in this CTA (the last may be partial).
    pub fn warp_count(&self) -> usize {
        self.traces.len()
    }

    /// Allocate CTA shared memory. Counts against the SM budget and hence
    /// against occupancy.
    pub fn alloc_shared<T: DeviceScalar>(&mut self, len: usize) -> SharedId<T> {
        self.shared.alloc::<T>(len)
    }

    fn warp_ctx(&mut self, warp_id: usize) -> WarpCtx<'_> {
        let start = warp_id * WARP_SIZE;
        let live = self.threads.saturating_sub(start).min(WARP_SIZE);
        WarpCtx {
            global: self.global,
            shared: self.shared,
            trace: &mut self.traces[warp_id],
            cursor: &mut self.cursors[warp_id],
            cta_id: self.cta_id,
            warp_id,
            mask: LaneMask::first(live),
            banks: self.banks,
            san_log: self.sanitizer.as_mut().map(|s| &mut s.log),
        }
    }

    /// Run `f` once per warp (in warp-id order), then execute an implicit
    /// CTA barrier. This is the simulator's `parallel region +
    /// __syncthreads()` idiom.
    pub fn for_each_warp(&mut self, mut f: impl FnMut(&mut WarpCtx<'_>)) {
        for w in 0..self.warp_count() {
            f(&mut self.warp_ctx(w));
        }
        self.barrier();
    }

    /// Run `f` on a single warp while the others idle at the following
    /// barrier — the `if (warp_id == k) { ... } __syncthreads()` idiom the
    /// sequential reduce phase uses.
    pub fn warp(&mut self, warp_id: usize, f: impl FnOnce(&mut WarpCtx<'_>)) {
        assert!(warp_id < self.warp_count(), "warp {warp_id} out of range");
        // The guard (`warp_id == k`) costs one predicate instruction in
        // every warp.
        let mut ctx = self.warp_ctx(warp_id);
        ctx.record(OpKind::IAlu { n: 1 });
        f(&mut ctx);
        for (w, (trace, cursor)) in self
            .traces
            .iter_mut()
            .zip(self.cursors.iter_mut())
            .enumerate()
        {
            if w != warp_id {
                cursor.record(trace, OpKind::IAlu { n: 1 }, None);
            }
        }
        self.barrier();
    }

    /// Explicit CTA-wide barrier (all warps record a `Bar`). Only the CTA
    /// records barriers, always in every warp, so a CTA's warps can never
    /// disagree on how many they hit.
    pub fn barrier(&mut self) {
        for (trace, cursor) in self.traces.iter_mut().zip(self.cursors.iter_mut()) {
            cursor.record(trace, OpKind::Bar, None);
        }
        if let Some(san) = &mut self.sanitizer {
            sanitize::check_segment(self.cta_id as u32, san.segment, &san.log, &mut san.reports);
            san.log.clear();
            san.segment += 1;
        }
    }

    /// Close the CTA: returns its shared-memory footprint and races.
    fn finish(mut self) -> (u32, Vec<RaceReport>) {
        for (trace, cursor) in self.traces.iter_mut().zip(self.cursors.iter_mut()) {
            cursor.finish(trace);
        }
        let reports = match &mut self.sanitizer {
            Some(san) => {
                sanitize::check_segment(
                    self.cta_id as u32,
                    san.segment,
                    &san.log,
                    &mut san.reports,
                );
                std::mem::take(&mut san.reports)
            }
            None => Vec::new(),
        };
        (self.shared.bytes_used(), reports)
    }
}

/// Per-warp recording context: the lane-vector machine kernels program.
pub struct WarpCtx<'a> {
    global: &'a mut DeviceMemory,
    shared: &'a mut SharedMemory,
    trace: &'a mut WarpTrace,
    cursor: &'a mut Cursor,
    cta_id: usize,
    warp_id: usize,
    /// Active lanes: the warp's base mask narrowed by every enclosing
    /// [`WarpCtx::if_lanes`].
    mask: LaneMask,
    banks: u32,
    san_log: Option<&'a mut Vec<Access>>,
}

impl WarpCtx<'_> {
    #[inline]
    fn record(&mut self, kind: OpKind) -> DepToken {
        self.record_dep(kind, None)
    }

    #[inline]
    fn record_dep(&mut self, kind: OpKind, dep: Option<DepToken>) -> DepToken {
        self.cursor.record(self.trace, kind, dep)
    }

    /// Record the memory op `op` and log each active lane's access to
    /// element `index(lane)` of `buffer`: the recording every per-lane
    /// memory op shares, whether it holds its indices as a vector or as
    /// a run.
    #[inline]
    fn record_access(
        &mut self,
        op: OpKind,
        dep: Option<DepToken>,
        (kind, space, buffer): (AccessKind, Space, usize),
        index: impl Fn(usize) -> u32,
    ) -> DepToken {
        let tok = self.record_dep(op, dep);
        // With the sanitizer off this branch is all a launch pays.
        if let Some(log) = self.san_log.as_deref_mut() {
            let warp = self.warp_id as u32;
            log.extend(self.mask.iter().map(|lane| Access {
                warp,
                kind,
                space,
                buffer: buffer as u32,
                index: index(lane),
            }));
        }
        tok
    }

    #[inline]
    fn log_access_one(&mut self, kind: AccessKind, space: Space, buffer: usize, index: u32) {
        if let Some(log) = self.san_log.as_deref_mut() {
            log.push(Access {
                warp: self.warp_id as u32,
                kind,
                space,
                buffer: buffer as u32,
                index,
            });
        }
    }
}

impl WarpCtx<'_> {
    /// Index of this warp within its CTA.
    pub fn warp_id(&self) -> usize {
        self.warp_id
    }

    /// Index of the enclosing CTA within the grid.
    pub fn cta_id(&self) -> usize {
        self.cta_id
    }

    /// Current active-lane mask (base mask intersected with any
    /// [`WarpCtx::if_lanes`] nesting).
    pub(crate) fn active_mask(&self) -> LaneMask {
        self.mask
    }

    /// Lane indices 0..32.
    pub fn lane_ids(&self) -> Lanes<u32> {
        Lanes::from_fn(|i| i as u32)
    }

    /// CTA-relative thread ids of this warp's lanes.
    pub fn thread_ids(&self) -> Lanes<u32> {
        let base = (self.warp_id * WARP_SIZE) as u32;
        Lanes::from_fn(|i| base + i as u32)
    }

    /// Charge `n` integer/logic instructions (address math, compares, bit
    /// manipulation, loop control). Purely a timing annotation.
    pub fn charge_alu(&mut self, n: u32) {
        if n > 0 {
            self.record(OpKind::IAlu { n });
        }
    }

    /// Warp ballot over the active lanes. Charges one predicate-compute
    /// instruction plus the vote. Returns the CUDA-convention bit vector.
    pub fn ballot(&mut self, preds: &Lanes<bool>) -> u32 {
        self.ballot_dep(None, preds)
    }

    /// [`WarpCtx::ballot`] whose predicate consumes the value produced by
    /// `dep` (typically the load that fetched the operands).
    pub fn ballot_dep(&mut self, dep: Option<DepToken>, preds: &Lanes<bool>) -> u32 {
        self.ballot_bits_dep(dep, lanes::ballot(LaneMask::FULL, preds))
    }

    /// [`WarpCtx::ballot_dep`] of predicates the kernel already packed,
    /// lane `l`'s at bit `l`: records the same predicate instruction and
    /// vote, and returns `bits` under the active mask.
    pub fn ballot_bits_dep(&mut self, dep: Option<DepToken>, bits: u32) -> u32 {
        self.record_dep(OpKind::IAlu { n: 1 }, dep);
        self.record(OpKind::Vote);
        bits & self.active_mask().0
    }

    /// Warp-wide all-vote.
    pub fn all(&mut self, preds: &Lanes<bool>) -> bool {
        self.record(OpKind::Vote);
        lanes::all(self.active_mask(), preds)
    }

    /// Broadcast `src_lane`'s value to all active lanes ([`lanes::shfl`]),
    /// returned as the warp-uniform value every active lane now holds.
    pub fn shfl<T: DeviceScalar>(&mut self, values: &Lanes<T>, src_lane: usize) -> T {
        self.record(OpKind::Shfl);
        values.get(src_lane)
    }

    /// Shuffle-up by `delta` (prefix-scan building block).
    pub fn shfl_up<T: DeviceScalar>(&mut self, values: &Lanes<T>, delta: usize) -> Lanes<T> {
        self.record(OpKind::Shfl);
        lanes::shfl_up(self.active_mask(), values, delta)
    }

    /// Run `f` with the active mask narrowed to lanes whose predicate is
    /// true (branch divergence). Charges the predicate + branch.
    pub fn if_lanes(&mut self, preds: &Lanes<bool>, f: impl FnOnce(&mut Self)) {
        self.if_bits(lanes::ballot(LaneMask::FULL, preds), f);
    }

    /// [`WarpCtx::if_lanes`] of predicates packed as bits, lane `l`'s at
    /// bit `l`.
    #[inline]
    fn if_bits(&mut self, bits: u32, f: impl FnOnce(&mut Self)) {
        self.record(OpKind::IAlu { n: 1 });
        let outer = self.mask;
        self.mask = LaneMask(outer.0 & bits);
        if self.mask != LaneMask::EMPTY {
            f(self);
        }
        self.mask = outer;
    }

    // --- global memory ---

    /// Per-lane gather from global memory. Returns the loaded lanes and a
    /// dependency token for the first consumer.
    pub fn ld_global<T: DeviceScalar>(
        &mut self,
        buf: BufferId<T>,
        idx: &Lanes<u32>,
    ) -> (Lanes<T>, DepToken) {
        self.ld_global_after(buf, idx, None)
    }

    /// [`WarpCtx::ld_global`] of the run `base, base + 1, …`: lane `l`
    /// reads element `base + l` below `len` and `base` past it (the dead
    /// lanes of a partial chunk). Records what `ld_global` records for
    /// that index vector, with the transactions counted from the run's
    /// bounds.
    pub fn ld_global_run<T: DeviceScalar>(
        &mut self,
        buf: BufferId<T>,
        base: u32,
        len: u32,
    ) -> (Lanes<T>, DepToken) {
        let mask = self.active_mask();
        let tx = run_transactions(mask, base, len, T::BYTES);
        let access = (AccessKind::Read, Space::Global, buf.index);
        let tok = self.record_access(OpKind::LdGlobal { transactions: tx }, None, access, |l| {
            run_index(base, len, l)
        });
        (self.global.load_run(buf, mask, base, len), tok)
    }

    /// Warp-uniform load: every lane reads element `idx` (one transaction,
    /// broadcast). The reduce phase reads the vote matrix this way.
    pub fn ld_global_bcast<T: DeviceScalar>(
        &mut self,
        buf: BufferId<T>,
        idx: u32,
    ) -> (T, DepToken) {
        let tok = self.record(OpKind::LdGlobal { transactions: 1 });
        self.log_access_one(AccessKind::Read, Space::Global, buf.index, idx);
        (self.global.read(buf, idx as usize), tok)
    }

    /// Per-lane scatter to global memory.
    pub fn st_global<T: DeviceScalar>(
        &mut self,
        buf: BufferId<T>,
        idx: &Lanes<u32>,
        values: &Lanes<T>,
    ) {
        let _ = self.st_global_after(buf, idx, values, None);
    }

    /// Per-lane scatter gated on the completion of `dep`, returning its
    /// own token. Lets kernels express ordered memory traffic, e.g. the
    /// in-place queue-compaction move where a chunk may only be written
    /// after the previous chunk's store retired.
    pub fn st_global_after<T: DeviceScalar>(
        &mut self,
        buf: BufferId<T>,
        idx: &Lanes<u32>,
        values: &Lanes<T>,
        dep: Option<DepToken>,
    ) -> DepToken {
        let mask = self.active_mask();
        let tx = coalesced_transactions(mask, idx, T::BYTES);
        let access = (AccessKind::Write, Space::Global, buf.index);
        let tok = self.record_access(OpKind::StGlobal { transactions: tx }, dep, access, |l| {
            idx.get(l)
        });
        self.global.store_lanes(buf, mask, idx, values);
        tok
    }

    /// Per-lane gather gated on the completion of `dep` (ordered loads).
    pub fn ld_global_after<T: DeviceScalar>(
        &mut self,
        buf: BufferId<T>,
        idx: &Lanes<u32>,
        dep: Option<DepToken>,
    ) -> (Lanes<T>, DepToken) {
        let mask = self.active_mask();
        let tx = coalesced_transactions(mask, idx, T::BYTES);
        let access = (AccessKind::Read, Space::Global, buf.index);
        let tok = self.record_access(OpKind::LdGlobal { transactions: tx }, dep, access, |l| {
            idx.get(l)
        });
        (self.global.load_lanes(buf, mask, idx), tok)
    }

    /// Single-lane store executed by the first active lane (the
    /// `if (lane == leader) buf[i] = v` idiom).
    pub fn st_global_leader<T: DeviceScalar>(&mut self, buf: BufferId<T>, idx: u32, value: T) {
        self.record(OpKind::StGlobal { transactions: 1 });
        if self.active_mask() != LaneMask::EMPTY {
            self.log_access_one(AccessKind::Write, Space::Global, buf.index, idx);
            self.global.write(buf, idx as usize, value);
        }
    }

    /// Global atomic compare-and-swap, per active lane, in lane order.
    /// Returns the old values. Cost: one serialised transaction per
    /// active lane (atomics to the same cache line serialise at the L2).
    pub fn atom_global_cas<T: DeviceScalar + PartialEq>(
        &mut self,
        buf: BufferId<T>,
        idx: &Lanes<u32>,
        compare: &Lanes<T>,
        new: &Lanes<T>,
    ) -> (Lanes<T>, DepToken) {
        let mask = self.active_mask();
        let tx = mask.count().max(1);
        let access = (AccessKind::Atomic, Space::Global, buf.index);
        let tok = self.record_access(OpKind::AtomGlobal { transactions: tx }, None, access, |l| {
            idx.get(l)
        });
        let mut old = Lanes::<T>::default();
        for lane in mask.iter() {
            let i = idx.get(lane) as usize;
            let cur = self.global.read(buf, i);
            old.set(lane, cur);
            if cur == compare.get(lane) {
                self.global.write(buf, i, new.get(lane));
            }
        }
        (old, tok)
    }

    /// Global atomic add per active lane, lane order; returns old values.
    pub fn atom_global_add(
        &mut self,
        buf: BufferId<u32>,
        idx: &Lanes<u32>,
        addend: &Lanes<u32>,
    ) -> (Lanes<u32>, DepToken) {
        let mask = self.active_mask();
        let tx = mask.count().max(1);
        let access = (AccessKind::Atomic, Space::Global, buf.index);
        let tok = self.record_access(OpKind::AtomGlobal { transactions: tx }, None, access, |l| {
            idx.get(l)
        });
        let mut old = Lanes::<u32>::default();
        for lane in mask.iter() {
            let i = idx.get(lane) as usize;
            let cur = self.global.read(buf, i);
            old.set(lane, cur);
            self.global
                .write(buf, i, cur.wrapping_add(addend.get(lane)));
        }
        (old, tok)
    }

    // --- shared memory ---

    /// Per-lane gather from shared memory.
    pub fn ld_shared<T: DeviceScalar>(
        &mut self,
        id: SharedId<T>,
        idx: &Lanes<u32>,
    ) -> (Lanes<T>, DepToken) {
        let mask = self.active_mask();
        let replays = bank_conflict_degree(mask, idx, T::BYTES, self.banks).max(1);
        let access = (AccessKind::Read, Space::Shared, id.index);
        let tok = self.record_access(OpKind::LdShared { replays }, None, access, |l| idx.get(l));
        (self.shared.load_lanes(id, mask, idx), tok)
    }

    /// [`WarpCtx::ld_shared`] of a run (see [`WarpCtx::ld_global_run`]),
    /// with the bank-conflict replays counted from the run's bounds.
    pub fn ld_shared_run<T: DeviceScalar>(
        &mut self,
        id: SharedId<T>,
        base: u32,
        len: u32,
    ) -> (Lanes<T>, DepToken) {
        let mask = self.active_mask();
        let replays = run_conflict_degree(mask, base, len, T::BYTES, self.banks).max(1);
        let access = (AccessKind::Read, Space::Shared, id.index);
        let tok = self.record_access(OpKind::LdShared { replays }, None, access, |l| {
            run_index(base, len, l)
        });
        (self.shared.load_run(id, mask, base, len), tok)
    }

    /// Per-lane scatter to shared memory.
    pub fn st_shared<T: DeviceScalar>(
        &mut self,
        id: SharedId<T>,
        idx: &Lanes<u32>,
        values: &Lanes<T>,
    ) {
        let mask = self.active_mask();
        let replays = bank_conflict_degree(mask, idx, T::BYTES, self.banks).max(1);
        let access = (AccessKind::Write, Space::Shared, id.index);
        self.record_access(OpKind::StShared { replays }, None, access, |l| idx.get(l));
        self.shared.store_lanes(id, mask, idx, values);
    }

    /// Lane 0 stores `value` to element `idx` (the `if (lane == 0)
    /// buf[i] = v` idiom): records what [`WarpCtx::if_lanes`] on
    /// `lane == 0` around [`WarpCtx::st_shared`] records, the branch and,
    /// when lane 0 is active, a one-lane store.
    pub fn st_shared_leader<T: DeviceScalar>(&mut self, id: SharedId<T>, idx: u32, value: T) {
        self.if_bits(1, |w| {
            let replays = element_conflict_degree(T::BYTES, w.banks);
            w.record(OpKind::StShared { replays });
            w.log_access_one(AccessKind::Write, Space::Shared, id.index, idx);
            w.shared.write(id, idx as usize, value);
        });
    }
}

/// Result of a grid launch: functional effects live in the device memory;
/// this report carries the timing and instruction statistics.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Simulated execution time in cycles.
    pub cycles: u64,
    /// Simulated execution time in seconds on the configured device.
    pub seconds: f64,
    /// Architectural instructions executed.
    pub instructions: u64,
    /// CTAs that were resident concurrently per SM (occupancy outcome).
    pub resident_ctas_per_sm: u32,
    /// Detailed timing breakdown.
    pub timing: TimingReport,
    /// Stall/op-class profile of this launch (the `nvprof` summary line),
    /// named after the kernel that ran.
    pub profile: crate::timing::KernelProfile,
}

/// The simulated device: configuration plus global memory.
pub struct Gpu {
    /// Architecture parameters used by the timing model.
    pub(crate) config: GpuConfig,
    /// Device global memory.
    pub mem: DeviceMemory,
    /// When set, every launch runs under the race sanitizer and appends
    /// findings here (the way `compute-sanitizer` wraps a whole process).
    pub sanitizer_findings: Option<Vec<RaceReport>>,
    /// When set, every launch records spans on the shared simulated-time
    /// clock (and sanitizer findings become instant events). `None` by
    /// default: the hot path then does no tracing work and no
    /// allocation.
    pub obs: Option<obs::SpanRecorder>,
    /// The last launch's trace. The next launch records over it in
    /// place, so a launch that repeats it op for op leaves it unchanged.
    trace: GridTrace,
    /// Warps left over when a launch has fewer warps per CTA than the
    /// launch before, with their ops: a wider launch takes them back and
    /// records over them.
    spare_warps: Vec<WarpTrace>,
    /// Recording cursors of the CTA being executed, one per warp.
    cursors: Vec<Cursor>,
    /// Shared memory of the CTA being executed; each CTA starts it
    /// empty and reuses the previous CTA's regions.
    shared: SharedMemory,
    /// The working set every launch's timing replay runs in.
    replayer: timing::Replayer,
    /// The timing replay of `trace`, while `trace` is unchanged.
    replayed: Option<Replayed>,
}

/// A timing replay and the inputs of [`timing::simulate`] that the trace
/// arena does not hold.
struct Replayed {
    config: GpuConfig,
    sms_used: u32,
    timing: TimingReport,
}

impl Gpu {
    /// Create a device of the given generation.
    pub fn new(generation: GpuGeneration) -> Self {
        Gpu::with_config(generation.config())
    }

    /// Create a device from an explicit configuration.
    pub(crate) fn with_config(config: GpuConfig) -> Self {
        Gpu {
            config,
            mem: DeviceMemory::new(),
            sanitizer_findings: None,
            obs: None,
            trace: GridTrace::default(),
            spare_warps: Vec::new(),
            cursors: Vec::new(),
            shared: SharedMemory::default(),
            replayer: timing::Replayer::default(),
            replayed: None,
        }
    }

    /// Attach a preallocated flight recorder: subsequent launches record
    /// spans under trace track `track`, keeping at most `capacity`
    /// events (ring overwrite beyond that).
    pub fn enable_tracing(&mut self, track: u32, capacity: usize) {
        self.obs = Some(obs::SpanRecorder::new(track, capacity));
    }

    /// Detach and return the flight recorder, disabling tracing.
    pub fn take_recorder(&mut self) -> Option<obs::SpanRecorder> {
        self.obs.take()
    }

    /// Reclaim all device memory, invalidating outstanding buffer IDs.
    ///
    /// Long-running resident kernels (the streaming match service) reuse
    /// one device across many batches; resetting between batches keeps
    /// the arena bounded the way a real allocation pool would.
    pub fn reset_memory(&mut self) {
        self.mem.reclaim();
    }

    /// Enable whole-device sanitizing: every subsequent launch (including
    /// launches made by library code that only sees `&mut Gpu`) is race
    /// checked, accumulating findings in
    /// [`Gpu::sanitizer_findings`].
    pub fn enable_sanitizer(&mut self) {
        self.sanitizer_findings = Some(Vec::new());
    }

    /// Launch a kernel: execute every CTA functionally (in CTA-id order),
    /// then replay the recorded traces on the timing model.
    ///
    /// # Panics
    /// Panics if the launch geometry is degenerate.
    pub fn launch(&mut self, kernel: &mut dyn CtaKernel, launch: LaunchConfig) -> LaunchReport {
        let sanitize = self.sanitizer_findings.is_some();
        let (report, races) = self.launch_impl(kernel, launch, sanitize);
        if let Some(findings) = &mut self.sanitizer_findings {
            findings.extend(races);
        }
        report
    }

    /// [`Gpu::launch`] with the race sanitizer enabled: every
    /// global/shared access is checked for same-segment cross-warp
    /// conflicts (the `compute-sanitizer` analogue). Functional results
    /// and timing are identical to a plain launch.
    pub fn launch_sanitized(
        &mut self,
        kernel: &mut dyn CtaKernel,
        launch: LaunchConfig,
    ) -> (LaunchReport, Vec<RaceReport>) {
        self.launch_impl(kernel, launch, true)
    }

    fn launch_impl(
        &mut self,
        kernel: &mut dyn CtaKernel,
        launch: LaunchConfig,
        sanitize: bool,
    ) -> (LaunchReport, Vec<RaceReport>) {
        assert!(launch.ctas > 0, "grid must contain at least one CTA");
        assert!(
            launch.threads_per_cta > 0
                && launch.threads_per_cta <= (WARP_SIZE * crate::config::MAX_WARPS_PER_CTA) as u32,
            "threads per CTA must be in 1..=1024"
        );
        assert!(launch.sms_used >= 1, "need at least one SM");

        // Taken first: a launch that panics mid-recording leaves no replay
        // behind to be mistaken for its half-written trace's.
        let replayed = self.replayed.take();
        let registers_per_thread = kernel.registers_per_thread();
        let grid = &mut self.trace;
        let mut changed = grid.threads_per_cta != launch.threads_per_cta
            || grid.registers_per_thread != registers_per_thread
            || grid.ctas.len() != launch.ctas as usize;
        grid.threads_per_cta = launch.threads_per_cta;
        grid.registers_per_thread = registers_per_thread;
        grid.ctas
            .resize_with(launch.ctas as usize, CtaTrace::default);
        let warp_count = launch.warps_per_cta() as usize;
        let banks = self.config.sm.shared_banks;
        let mut races = Vec::new();
        for (cta_id, cta) in grid.ctas.iter_mut().enumerate() {
            if cta.warps.len() > warp_count {
                self.spare_warps.extend(cta.warps.drain(warp_count..).rev());
            }
            cta.warps
                .resize_with(warp_count, || self.spare_warps.pop().unwrap_or_default());
            self.cursors.clear();
            self.cursors.resize(warp_count, Cursor::default());
            self.shared.reset();
            let mut ctx = CtaCtx {
                global: &mut self.mem,
                shared: &mut self.shared,
                traces: &mut cta.warps,
                cursors: &mut self.cursors,
                cta_id,
                threads: launch.threads_per_cta as usize,
                banks,
                sanitizer: sanitize.then(SanitizerState::default),
            };
            kernel.execute(&mut ctx);
            let (shared_bytes, cta_races) = ctx.finish();
            races.extend(cta_races);
            changed |= cta.shared_bytes != shared_bytes || self.cursors.iter().any(|c| c.changed);
            cta.shared_bytes = shared_bytes;
        }

        // A timing replay is a pure function of the trace, the
        // configuration and `sms_used`: with all three unchanged, the
        // previous replay is this launch's, exactly. A new replay reuses
        // the stale report's buffer.
        let replayed = match replayed {
            Some(r) if !changed && r.sms_used == launch.sms_used && r.config == self.config => r,
            stale => {
                let mut timing = stale.map(|r| r.timing).unwrap_or_default();
                self.replayer
                    .replay(&self.trace, &self.config, launch.sms_used, &mut timing);
                Replayed {
                    timing,
                    config: self.config.clone(),
                    sms_used: launch.sms_used,
                }
            }
        };
        let timing = replayed.timing.clone();
        self.replayed = Some(replayed);
        let seconds = self.config.cycles_to_seconds(timing.cycles);
        let profile = crate::timing::KernelProfile::from_timing(kernel.name(), &timing);

        if let Some(rec) = &mut self.obs {
            use obs::{ArgValue, SpanCategory};
            let t0 = rec.now_ns();
            let dur_ns = (seconds * 1e9).round() as u64;
            rec.record_instant(
                SpanCategory::FunctionalExec,
                kernel.name(),
                vec![
                    ("ctas", ArgValue::U64(launch.ctas as u64)),
                    ("instructions", ArgValue::U64(timing.instructions)),
                ],
            );
            for race in &races {
                rec.record_instant(
                    SpanCategory::Race,
                    "race",
                    vec![("detail", ArgValue::Text(race.to_string()))],
                );
            }
            rec.record_complete(
                kernel.obs_category(),
                kernel.name(),
                t0,
                dur_ns,
                vec![
                    ("cycles", ArgValue::U64(timing.cycles)),
                    ("instructions", ArgValue::U64(timing.instructions)),
                ],
            );
            rec.advance_ns(dur_ns);
            let stalls = timing.stall_cycles;
            rec.record_instant(
                SpanCategory::TimingReplay,
                kernel.name(),
                crate::timing::StallClass::ALL
                    .iter()
                    .map(|c| (c.label(), ArgValue::U64(stalls[c.index()])))
                    .collect(),
            );
        }

        (
            LaunchReport {
                cycles: timing.cycles,
                seconds,
                instructions: timing.instructions,
                resident_ctas_per_sm: timing.resident_ctas_per_sm,
                timing,
                profile,
            },
            races,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel: each thread writes its global thread id into out[tid].
    struct WriteTid {
        out: BufferId<u32>,
    }

    impl CtaKernel for WriteTid {
        fn execute(&mut self, cta: &mut CtaCtx<'_>) {
            let threads = cta.threads() as u32;
            let cta_base = cta.cta_id() as u32 * threads;
            let out = self.out;
            cta.for_each_warp(|w| {
                let tids = w.thread_ids().map(|t| t + cta_base);
                w.st_global(out, &tids, &tids);
            });
        }
    }

    #[test]
    fn grid_writes_all_thread_ids() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let out = gpu.mem.alloc::<u32>(256);
        let mut k = WriteTid { out };
        let report = gpu.launch(&mut k, LaunchConfig::single_sm(2, 128));
        let v = gpu.mem.read_vec(out);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
        assert!(report.cycles > 0);
        assert!(report.instructions > 0);
    }

    /// Partial warp: 40 threads = one full warp + 8 lanes.
    #[test]
    fn partial_warps_mask_inactive_lanes() {
        let mut gpu = Gpu::new(GpuGeneration::MaxwellM40);
        let out = gpu.mem.alloc::<u32>(64);
        let mut k = WriteTid { out };
        gpu.launch(&mut k, LaunchConfig::single_sm(1, 40));
        let v = gpu.mem.read_vec(out);
        for (i, x) in v.iter().enumerate().take(40) {
            assert_eq!(*x, i as u32);
        }
        for x in v.iter().skip(40) {
            assert_eq!(*x, 0, "lanes beyond thread count must not store");
        }
    }

    /// Ballot + single-warp reduce across a barrier.
    struct BallotReduce {
        data: BufferId<u32>,
        out: BufferId<u32>,
    }

    impl CtaKernel for BallotReduce {
        fn execute(&mut self, cta: &mut CtaCtx<'_>) {
            let votes = cta.alloc_shared::<u32>(cta.warp_count());
            let data = self.data;
            let out = self.out;
            cta.for_each_warp(|w| {
                let idx = w.thread_ids();
                let (vals, tok) = w.ld_global(data, &idx);
                let vote = w.ballot_dep(Some(tok), &vals.map(|v| v % 2 == 0));
                let widx = Lanes::splat(w.warp_id() as u32);
                let vv = Lanes::splat(vote);
                w.if_lanes(&w.lane_ids().map(|l| l == 0), |w| {
                    w.st_shared(votes, &widx, &vv);
                });
            });
            cta.warp(0, |w| {
                // Clamp lanes beyond the vote count onto element 0 so the
                // gather stays in bounds (idle lanes' loads are discarded).
                let n = w.lane_ids().map(|l| if l < 4 { l } else { 0 });
                let (vs, tok) = w.ld_shared(votes, &n);
                w.charge_alu(1);
                let mut total = 0u32;
                for lane in 0..4 {
                    total += vs.get(lane).count_ones();
                }
                let _ = tok;
                w.st_global_leader(out, 0, total);
            });
        }
    }

    #[test]
    fn cross_warp_reduction_via_shared_memory() {
        let mut gpu = Gpu::new(GpuGeneration::KeplerK80);
        let data: Vec<u32> = (0..128).collect();
        let buf = gpu.mem.alloc_from(&data);
        let out = gpu.mem.alloc::<u32>(1);
        let mut k = BallotReduce { data: buf, out };
        gpu.launch(&mut k, LaunchConfig::single_sm(1, 128));
        // 64 of 0..128 are even.
        assert_eq!(gpu.mem.read(out, 0), 64);
    }

    #[test]
    #[should_panic(expected = "grid must contain at least one CTA")]
    fn zero_cta_launch_panics() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        struct Nop;
        impl CtaKernel for Nop {
            fn execute(&mut self, _cta: &mut CtaCtx<'_>) {}
        }
        gpu.launch(&mut Nop, LaunchConfig::single_sm(0, 32));
    }

    /// Nested `if_lanes` must intersect masks, and inactive-lane state
    /// must be preserved through the divergence.
    #[test]
    fn nested_divergence_intersects_masks() {
        struct Diverge {
            out: BufferId<u32>,
        }
        impl CtaKernel for Diverge {
            fn execute(&mut self, cta: &mut CtaCtx<'_>) {
                let out = self.out;
                cta.for_each_warp(|w| {
                    let lid = w.lane_ids();
                    let evens = lid.map(|l| l % 2 == 0);
                    w.if_lanes(&evens, |w| {
                        assert_eq!(w.active_mask().count(), 16);
                        let low = w.lane_ids().map(|l| l < 8);
                        w.if_lanes(&low, |w| {
                            // evens ∩ [0,8) = {0,2,4,6}
                            assert_eq!(w.active_mask().0, 0b0101_0101);
                            let idx = w.lane_ids();
                            let ones = Lanes::splat(1u32);
                            w.st_global(out, &idx, &ones);
                        });
                        assert_eq!(w.active_mask().count(), 16, "mask restored");
                    });
                    assert_eq!(w.active_mask(), LaneMask::FULL);
                });
            }
        }
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let out = gpu.mem.alloc::<u32>(32);
        gpu.launch(&mut Diverge { out }, LaunchConfig::single_sm(1, 32));
        let v = gpu.mem.read_vec(out);
        for (l, x) in v.iter().enumerate() {
            let want = (l % 2 == 0 && l < 8) as u32;
            assert_eq!(*x, want, "lane {l}");
        }
    }

    /// An `if_lanes` whose predicate is false everywhere must skip the
    /// body entirely (no trace side effects from the closure).
    #[test]
    fn empty_divergence_skips_body() {
        struct Empty {
            out: BufferId<u32>,
        }
        impl CtaKernel for Empty {
            fn execute(&mut self, cta: &mut CtaCtx<'_>) {
                let out = self.out;
                cta.for_each_warp(|w| {
                    let never = Lanes::splat(false);
                    w.if_lanes(&never, |w| {
                        let idx = w.lane_ids();
                        let ones = Lanes::splat(9u32);
                        w.st_global(out, &idx, &ones);
                    });
                });
            }
        }
        let mut gpu = Gpu::new(GpuGeneration::KeplerK80);
        let out = gpu.mem.alloc::<u32>(32);
        gpu.launch(&mut Empty { out }, LaunchConfig::single_sm(1, 32));
        assert!(gpu.mem.read_vec(out).iter().all(|&x| x == 0));
    }

    #[test]
    fn tracing_records_launch_spans_on_the_simulated_clock() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        gpu.enable_tracing(3, 64);
        let out = gpu.mem.alloc::<u32>(256);
        let r = gpu.launch(&mut WriteTid { out }, LaunchConfig::single_sm(2, 128));
        let rec = gpu.take_recorder().expect("tracing was enabled");
        assert!(rec
            .events()
            .any(|e| e.category == obs::SpanCategory::KernelLaunch && !e.instant));
        assert!(rec
            .events()
            .any(|e| e.category == obs::SpanCategory::FunctionalExec && e.instant));
        assert!(rec
            .events()
            .any(|e| e.category == obs::SpanCategory::TimingReplay && e.instant));
        let dur = (r.seconds * 1e9).round() as u64;
        assert_eq!(
            rec.now_ns(),
            dur,
            "a launch advances the shared clock by its simulated duration"
        );
        assert_eq!(r.profile.cycles, r.cycles);
        assert_eq!(r.profile.stall_cycles.iter().sum::<u64>(), r.cycles);
    }

    #[test]
    fn sanitizer_findings_surface_as_race_instants() {
        struct Racy {
            out: BufferId<u32>,
        }
        impl CtaKernel for Racy {
            fn execute(&mut self, cta: &mut CtaCtx<'_>) {
                let out = self.out;
                cta.for_each_warp(|w| {
                    let zeros = Lanes::splat(0u32);
                    let vals = Lanes::splat(w.warp_id() as u32);
                    w.st_global(out, &zeros, &vals);
                });
            }
        }
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        gpu.enable_sanitizer();
        gpu.enable_tracing(0, 64);
        let out = gpu.mem.alloc::<u32>(1);
        gpu.launch(&mut Racy { out }, LaunchConfig::single_sm(1, 64));
        assert!(
            !gpu.sanitizer_findings.as_ref().unwrap().is_empty(),
            "the kernel is racy by construction"
        );
        let rec = gpu.take_recorder().unwrap();
        let race = rec
            .events()
            .find(|e| e.category == obs::SpanCategory::Race)
            .expect("races must appear in the trace timeline");
        assert!(race.instant);
        assert!(race
            .args
            .iter()
            .any(|(k, v)| *k == "detail"
                && matches!(v, obs::ArgValue::Text(t) if t.contains("race"))));
    }

    #[test]
    fn atomics_are_lane_ordered() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let buf = gpu.mem.alloc::<u32>(1);
        struct AddK {
            buf: BufferId<u32>,
        }
        impl CtaKernel for AddK {
            fn execute(&mut self, cta: &mut CtaCtx<'_>) {
                let buf = self.buf;
                cta.for_each_warp(|w| {
                    let zeros = Lanes::splat(0u32);
                    let ones = Lanes::splat(1u32);
                    let (old, _) = w.atom_global_add(buf, &zeros, &ones);
                    // lane i must observe exactly i prior increments
                    // within this warp (warp 0 runs first).
                    if w.warp_id() == 0 {
                        for lane in 0..WARP_SIZE {
                            assert_eq!(old.get(lane), lane as u32);
                        }
                    }
                });
            }
        }
        gpu.launch(&mut AddK { buf }, LaunchConfig::single_sm(1, 64));
        assert_eq!(gpu.mem.read(buf, 0), 64);
    }

    /// 48 KB of shared memory per CTA (two resident on Pascal); CTAs
    /// whose id is in `busy` run `charge_alu(1000)` on each of 8 warps,
    /// the others record no op at all.
    struct HalfEmpty {
        busy: fn(usize) -> bool,
    }

    impl CtaKernel for HalfEmpty {
        fn execute(&mut self, cta: &mut CtaCtx<'_>) {
            cta.alloc_shared::<u32>(12 * 1024);
            if (self.busy)(cta.cta_id()) {
                cta.for_each_warp(|w| w.charge_alu(1000));
            }
        }
    }

    #[test]
    fn empty_ctas_free_their_residency_slot() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let half = gpu.launch(
            &mut HalfEmpty {
                busy: |c| c % 2 == 1,
            },
            LaunchConfig::single_sm(8, 256),
        );
        let busy = gpu.launch(
            &mut HalfEmpty { busy: |_| true },
            LaunchConfig::single_sm(4, 256),
        );
        assert_eq!(busy.resident_ctas_per_sm, 2);
        // An empty CTA that kept its residency slot would drop every CTA
        // queued behind it from the timing.
        assert_eq!(half.cycles, busy.cycles);
        assert_eq!(
            half.instructions,
            4 * 8 * 1001,
            "1000 ALU + 1 barrier per warp"
        );
        assert_eq!(half.timing.instructions, half.instructions);
        assert_eq!(busy.instructions, half.instructions);
    }

    /// The memo test's kernel: `segments` barrier-separated rounds of
    /// `ops` shared stores per warp. The store at `conflict` = (cta,
    /// warp, op index in the warp) is 32-way bank-conflicted; the warp at
    /// `panic` panics right after recording that op.
    #[derive(Debug, Clone, Copy)]
    struct Script {
        segments: usize,
        ops: usize,
        conflict: Option<(usize, usize, usize)>,
        shared_words: usize,
        registers: u32,
        panic: Option<(usize, usize, usize)>,
    }

    const SCRIPT: Script = Script {
        segments: 2,
        ops: 4,
        conflict: None,
        shared_words: 1024,
        registers: 32,
        panic: None,
    };

    impl CtaKernel for Script {
        fn registers_per_thread(&self) -> u32 {
            self.registers
        }

        fn name(&self) -> &'static str {
            "script"
        }

        fn execute(&mut self, cta: &mut CtaCtx<'_>) {
            let s = *self;
            let buf = cta.alloc_shared::<u32>(s.shared_words);
            let c = cta.cta_id();
            for segment in 0..s.segments {
                cta.for_each_warp(|w| {
                    for i in 0..s.ops {
                        // Each segment's barrier is one op of the trace.
                        let at = Some((c, w.warp_id(), segment * (s.ops + 1) + i));
                        let stride = if s.conflict == at { 32 } else { 1 };
                        let idx = w.lane_ids().map(|l| l * stride);
                        w.st_shared(buf, &idx, &Lanes::splat(i as u32));
                        assert!(s.panic != at, "scripted panic");
                    }
                });
            }
        }
    }

    /// A word-level op of [`WarpCtx`], to run against the lane-vector
    /// form it stands for.
    #[derive(Debug, Clone, Copy)]
    enum WordOp {
        /// `ballot_bits_dep` against `ballot_dep` of the same bits, with
        /// or without a dependency.
        Ballot { bits: u32, dep: bool },
        /// `st_shared_leader` against `st_shared` under `if_lanes` on
        /// `lane == 0`.
        StoreLeader { idx: u32, value: u64 },
        /// `ld_global_run` against `ld_global` of the run's lanes.
        LoadGlobalRun { base: u32, len: u32 },
        /// `ld_shared_run` against `ld_shared` of the run's lanes.
        LoadSharedRun { base: u32, len: u32 },
    }

    /// Elements of each buffer and shared region [`Twin`] uses.
    const TWIN_ELEMS: u32 = 1024;

    /// Runs one [`WordOp`] under the lanes of `narrow`, in its word-level
    /// form when `word` is set, on `u64` elements when `wide` is set.
    /// Keeps what the op returned and the sanitizer log it left.
    struct Twin {
        op: WordOp,
        word: bool,
        wide: bool,
        narrow: u32,
        g32: BufferId<u32>,
        g64: BufferId<u64>,
        seen: Vec<String>,
    }

    fn twin_op<T: DeviceScalar + std::fmt::Debug>(
        w: &mut WarpCtx<'_>,
        op: WordOp,
        word: bool,
        global: BufferId<T>,
        shared: SharedId<T>,
    ) -> String {
        // The index vector a run stands for, spelled out lane by lane.
        let run = |base: u32, len: u32| {
            Lanes::from_fn(|l| {
                if (l as u32) < len {
                    base + l as u32
                } else {
                    base
                }
            })
        };
        match op {
            WordOp::Ballot { bits, dep } => {
                let (_, tok) = w.ld_global_bcast(global, 0);
                let dep = dep.then_some(tok);
                let got = if word {
                    w.ballot_bits_dep(dep, bits)
                } else {
                    w.ballot_dep(dep, &Lanes::from_fn(|l| bits >> l & 1 == 1))
                };
                format!("{got:#x}")
            }
            WordOp::StoreLeader { idx, value } => {
                let value = T::from_word(value);
                if word {
                    w.st_shared_leader(shared, idx, value);
                } else {
                    let lane0 = w.lane_ids().map(|l| l == 0);
                    w.if_lanes(&lane0, |w| {
                        w.st_shared(shared, &Lanes::splat(idx), &Lanes::splat(value));
                    });
                }
                String::new()
            }
            WordOp::LoadGlobalRun { base, len } => format!(
                "{:?}",
                if word {
                    w.ld_global_run(global, base, len)
                } else {
                    w.ld_global(global, &run(base, len))
                }
            ),
            WordOp::LoadSharedRun { base, len } => format!(
                "{:?}",
                if word {
                    w.ld_shared_run(shared, base, len)
                } else {
                    w.ld_shared(shared, &run(base, len))
                }
            ),
        }
    }

    impl CtaKernel for Twin {
        fn execute(&mut self, cta: &mut CtaCtx<'_>) {
            let s32 = cta.alloc_shared::<u32>(TWIN_ELEMS as usize);
            let s64 = cta.alloc_shared::<u64>(TWIN_ELEMS as usize);
            for i in 0..TWIN_ELEMS {
                cta.shared.write(s32, i as usize, 0x1000 + i);
                cta.shared
                    .write(s64, i as usize, 0x2_0000_0000 + u64::from(i));
            }
            let t = &mut *self;
            cta.for_each_warp(|w| {
                let narrow = Lanes::from_fn(|l| t.narrow >> l & 1 == 1);
                w.if_lanes(&narrow, |w| {
                    let got = if t.wide {
                        twin_op(w, t.op, t.word, t.g64, s64)
                    } else {
                        twin_op(w, t.op, t.word, t.g32, s32)
                    };
                    let log = w.san_log.as_deref().cloned();
                    t.seen.push(format!("{got} {log:?}"));
                });
            });
        }
    }

    /// Everything a launch of one [`Twin`] leaves behind: the op's
    /// results and sanitizer log, the recorded trace, the launch report,
    /// the race findings, device memory and shared memory.
    fn twin_launch(
        (op, word, wide): (WordOp, bool, bool),
        narrow: u32,
        threads: u32,
        banks: u32,
        sanitize: bool,
    ) -> Vec<String> {
        let mut config = GpuGeneration::PascalGtx1080.config();
        config.sm.shared_banks = banks;
        let mut gpu = Gpu::with_config(config);
        let g32 = gpu
            .mem
            .alloc_from(&(0..TWIN_ELEMS).map(|i| 0x3000 + i).collect::<Vec<_>>());
        let g64 = gpu.mem.alloc_from(
            &(0..u64::from(TWIN_ELEMS))
                .map(|i| 0x4_0000_0000 + i)
                .collect::<Vec<_>>(),
        );
        let mut twin = Twin {
            op,
            word,
            wide,
            narrow,
            g32,
            g64,
            seen: Vec::new(),
        };
        let launch = LaunchConfig::single_sm(1, threads);
        let (report, races) = if sanitize {
            gpu.launch_sanitized(&mut twin, launch)
        } else {
            (gpu.launch(&mut twin, launch), Vec::new())
        };
        vec![
            format!("{:?}", twin.seen),
            format!("{:?}", gpu.trace),
            format!("{report:?}"),
            format!("{races:?}"),
            format!("{:?}", gpu.mem.read_vec(g32)),
            format!("{:?}", gpu.mem.read_vec(g64)),
            format!("{:?}", gpu.shared.snapshot()),
        ]
    }

    fn any_word_op() -> impl proptest::strategy::Strategy<Value = WordOp> {
        use proptest::prelude::*;
        // Bases near the ends of the buffers and of 128-byte segments.
        let base = || prop_oneof![0u32..64, 0u32..TWIN_ELEMS - 32, Just(TWIN_ELEMS - 32)];
        let len = || prop_oneof![Just(32u32), 0u32..=32, 33u32..40];
        prop_oneof![
            (any::<u32>(), any::<bool>()).prop_map(|(bits, dep)| WordOp::Ballot { bits, dep }),
            (0u32..TWIN_ELEMS, any::<u64>())
                .prop_map(|(idx, value)| WordOp::StoreLeader { idx, value }),
            (base(), len()).prop_map(|(base, len)| WordOp::LoadGlobalRun { base, len }),
            (base(), len()).prop_map(|(base, len)| WordOp::LoadSharedRun { base, len }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]
        /// Each word-level op records exactly what its lane-vector form
        /// records: the same ops and dependency tokens, results, memory
        /// effects and sanitizer accesses, on partial warps, under any
        /// active mask and bank count.
        #[test]
        fn word_level_ops_equal_their_lane_vector_forms(
            op in any_word_op(),
            wide in proptest::prelude::any::<bool>(),
            narrow in proptest::prelude::prop_oneof![
                proptest::prelude::Just(u32::MAX),
                proptest::prelude::Just(u32::MAX - 1),
                proptest::prelude::any::<u32>(),
            ],
            threads in proptest::prelude::prop_oneof![
                proptest::prelude::Just(32u32),
                1u32..=32,
                33u32..=64,
            ],
            banks in proptest::prelude::prop_oneof![
                proptest::prelude::Just(32u32),
                proptest::prelude::Just(16u32),
                1u32..=64,
            ],
            sanitize in proptest::prelude::any::<bool>(),
        ) {
            let lanes = twin_launch((op, false, wide), narrow, threads, banks, sanitize);
            let words = twin_launch((op, true, wide), narrow, threads, banks, sanitize);
            proptest::prop_assert_eq!(words, lanes);
        }
    }

    /// A replay no real launch produces: marks a memo hit.
    const HIT: u64 = u64::MAX;

    /// Launch `kernel` on `resident` and on a fresh device with the same
    /// configuration, sanitizer and tracing; both reports, their spans
    /// and their race findings must be equal. Returns whether `resident`
    /// reused its previous replay, and the report.
    fn launch_both(
        resident: &mut Gpu,
        mut kernel: Script,
        launch: LaunchConfig,
        what: &str,
    ) -> (bool, String) {
        let mut fresh = Gpu::with_config(resident.config.clone());
        if resident.sanitizer_findings.is_some() {
            fresh.enable_sanitizer();
        }
        if resident.obs.is_some() {
            resident.enable_tracing(0, 256);
            fresh.enable_tracing(0, 256);
        }
        if let Some(r) = &mut resident.replayed {
            r.timing.per_sm_cycles.push(HIT);
        }
        let mut got = resident.launch(&mut kernel, launch);
        let hit = got.timing.per_sm_cycles.last() == Some(&HIT);
        if hit {
            got.timing.per_sm_cycles.pop();
            let memo = resident.replayed.as_mut().expect("a hit keeps its replay");
            memo.timing.per_sm_cycles.pop();
        }
        let want = format!("{:?}", fresh.launch(&mut kernel, launch));
        assert_eq!(format!("{got:?}"), want, "{what}: report");
        assert_eq!(
            resident.sanitizer_findings.as_ref().map(Vec::len),
            fresh.sanitizer_findings.as_ref().map(Vec::len),
            "{what}: races"
        );
        let spans = |g: &Gpu| -> Option<Vec<obs::SpanEvent>> {
            g.obs.as_ref().map(|r| r.events().cloned().collect())
        };
        assert_eq!(spans(resident), spans(&fresh), "{what}: spans");
        (hit, want)
    }

    /// One resident device against a fresh one per launch (which cannot
    /// hit): every replay input, changed alone, must miss, and each miss
    /// must change the report, so a stale replay could not pass.
    #[test]
    fn memoised_replays_equal_fresh_devices_launch_by_launch() {
        let one = LaunchConfig::single_sm(1, 128);
        let six = LaunchConfig::single_sm(6, 128);
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let mut last = String::new();
        let mut step =
            |gpu: &mut Gpu, kernel: Script, launch: LaunchConfig, hit: bool, what: &str| {
                let (was_hit, report) = launch_both(gpu, kernel, launch, what);
                assert_eq!(was_hit, hit, "{what}: hit");
                assert!(
                    hit || report != last,
                    "{what}: a miss must change the report"
                );
                last = report;
            };
        step(&mut gpu, SCRIPT, one, false, "first launch");
        step(&mut gpu, SCRIPT, one, true, "repeat");
        gpu.reset_memory();
        step(&mut gpu, SCRIPT, one, true, "device memory");
        // In the second segment, so that one segment is a strict prefix
        // of the other traces: shorter ones only truncate, longer ones
        // only append.
        let conflict = Script {
            conflict: Some((0, 1, 6)),
            ..SCRIPT
        };
        step(&mut gpu, conflict, one, false, "one op changed");
        let shorter = Script {
            segments: 1,
            ..SCRIPT
        };
        step(&mut gpu, shorter, one, false, "shorter");
        // The arena still holds the conflicted trace's second segment past
        // the shorter one, so every op this launch records equals the op
        // at its position: only the lengths differ.
        step(
            &mut gpu,
            conflict,
            one,
            false,
            "the ops past a shorter trace",
        );
        let longer = Script {
            segments: 3,
            ..SCRIPT
        };
        step(&mut gpu, longer, one, false, "longer");
        step(&mut gpu, longer, six, false, "more CTAs");
        // Six CTAs of four warps: 16 resident, then 4 (registers), then 2
        // (shared memory).
        let greedy = Script {
            registers: 128,
            ..longer
        };
        step(&mut gpu, greedy, six, false, "registers per thread");
        let greedy = Script {
            shared_words: 12 * 1024,
            ..greedy
        };
        step(&mut gpu, greedy, six, false, "shared bytes");
        gpu.config.sm.shared_latency += 7;
        step(&mut gpu, greedy, six, false, "gpu.config");
        let four_sms = LaunchConfig { sms_used: 4, ..six };
        step(&mut gpu, greedy, four_sms, false, "sms_used");
        let three = LaunchConfig {
            ctas: 3,
            ..four_sms
        };
        step(&mut gpu, greedy, three, false, "fewer CTAs");
        let narrow = LaunchConfig {
            threads_per_cta: 96,
            ..three
        };
        step(&mut gpu, greedy, narrow, false, "fewer warps");
        // Each CTA's fourth warp comes back from the spare warps holding
        // the ops it recorded before: only the warp count differs.
        step(&mut gpu, greedy, three, false, "more warps");
        step(&mut gpu, greedy, narrow, false, "fewer warps again");
        gpu.enable_sanitizer();
        gpu.enable_tracing(0, 256);
        step(&mut gpu, greedy, narrow, true, "sanitizer and tracing");

        // A launch that panics mid-recording leaves a trace no replay
        // belongs to; relaunching exactly that trace must not hit.
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        step(&mut gpu, SCRIPT, six, false, "before the panic");
        let half = Script {
            conflict: Some((0, 0, 0)),
            panic: Some((0, 0, 0)),
            ..SCRIPT
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch(&mut { half }, six);
        }));
        assert!(panicked.is_err());
        let rest = Script {
            panic: None,
            ..half
        };
        step(&mut gpu, rest, six, false, "after the panic");
    }
}
