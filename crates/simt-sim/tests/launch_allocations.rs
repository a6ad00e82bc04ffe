//! A steady-state launch on a resident `Gpu` allocates nothing but the
//! returned report's `per_sm_cycles`: the trace arena, the CTA's shared
//! memory and the timing replay's working set are all kept between
//! launches. The counting allocator below counts only while a thread
//! asks it to, so nothing else in this binary is affected.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simt_sim::{BufferId, CtaCtx, CtaKernel, Gpu, GpuGeneration, LaunchConfig};

struct Counting;

thread_local! {
    /// Heap allocations (and reallocations) this thread made while
    /// counting; `None` while it is not counting.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let r = f();
    let n = ALLOCATIONS.with(|n| n.replace(None)).expect("counting");
    (r, n)
}

/// A gather through data-dependent indices into shared memory, a
/// barrier, and a store back: the gather's transaction counts, and so
/// the trace, depend on the keys.
struct Gather {
    keys: BufferId<u32>,
    table: BufferId<u32>,
}

impl CtaKernel for Gather {
    fn name(&self) -> &'static str {
        "gather"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let staged = cta.alloc_shared::<u32>(cta.warp_count() * 32);
        let (keys, table) = (self.keys, self.table);
        cta.for_each_warp(|w| {
            let tid = w.thread_ids();
            let (k, tok) = w.ld_global(keys, &tid);
            let (v, _) = w.ld_global_after(table, &k, Some(tok));
            w.st_shared(staged, &tid, &v);
        });
        cta.for_each_warp(|w| {
            let tid = w.thread_ids();
            let (v, _) = w.ld_shared(staged, &tid);
            w.st_global(table, &tid, &v);
        });
    }
}

#[test]
fn a_replayed_launch_allocates_only_its_report() {
    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    let threads = 256u32;
    let keys = gpu.mem.alloc::<u32>(threads as usize);
    let table = gpu.mem.alloc_from(&(0..4096u32).collect::<Vec<_>>());
    let mut kernel = Gather { keys, table };
    let launch = LaunchConfig::single_sm(4, threads);

    // Dense keys: few transactions per warp.
    let dense: Vec<u32> = (0..threads).collect();
    gpu.mem.write_slice(keys, 0, &dense);
    let first = gpu.launch(&mut kernel, launch);

    // Scattered keys: the same geometry records a different trace, so
    // the launch replays it.
    let scattered: Vec<u32> = (0..threads).map(|i| i * 97 % 4096).collect();
    gpu.mem.write_slice(keys, 0, &scattered);
    let (second, n) = allocations(|| gpu.launch(&mut kernel, launch));
    assert!(
        second.timing.global_transactions > first.timing.global_transactions,
        "the second launch must record a different trace (a memo miss)"
    );
    assert!(n <= 1, "a replayed launch made {n} heap allocations");

    // The same keys again: the launch reuses the previous replay.
    let (third, n) = allocations(|| gpu.launch(&mut kernel, launch));
    assert_eq!(third.cycles, second.cycles);
    assert!(n <= 1, "a memoised launch made {n} heap allocations");
}

#[test]
fn a_wider_launch_after_a_narrower_one_allocates_only_its_report() {
    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    let wide = 256u32;
    let keys = gpu.mem.alloc::<u32>(wide as usize);
    let table = gpu.mem.alloc_from(&(0..4096u32).collect::<Vec<_>>());
    let mut kernel = Gather { keys, table };

    let dense: Vec<u32> = (0..wide).collect();
    gpu.mem.write_slice(keys, 0, &dense);
    let first = gpu.launch(&mut kernel, LaunchConfig::single_sm(4, wide));
    // Half the warps per CTA: the other half keep their traces.
    gpu.launch(&mut kernel, LaunchConfig::single_sm(4, wide / 2));

    // Wide again, recording a trace neither earlier launch recorded.
    let scattered: Vec<u32> = (0..wide).map(|i| i * 97 % 4096).collect();
    gpu.mem.write_slice(keys, 0, &scattered);
    let (last, n) = allocations(|| gpu.launch(&mut kernel, LaunchConfig::single_sm(4, wide)));
    assert!(
        last.timing.global_transactions > first.timing.global_transactions,
        "the last launch must record a different trace from the first"
    );
    assert!(n <= 1, "a wider launch made {n} heap allocations");
}

/// A staging segment whose loads take `stride`-spaced words, then
/// `rounds` identical barrier segments over what it staged: another
/// stride records another trace, and the replay fast-forwards over the
/// repeated rounds (DESIGN.md §4 "Segment fast-forward").
struct Rounds {
    table: BufferId<u32>,
    stride: u32,
    rounds: usize,
}

impl CtaKernel for Rounds {
    fn name(&self) -> &'static str {
        "rounds"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let staged = cta.alloc_shared::<u32>(cta.warp_count() * 32);
        let (table, stride) = (self.table, self.stride);
        cta.for_each_warp(|w| {
            let tid = w.thread_ids();
            let (v, _) = w.ld_global(table, &tid.map(|t| t * stride % 4096));
            w.st_shared(staged, &tid, &v);
        });
        for _ in 0..self.rounds {
            cta.for_each_warp(|w| {
                let tid = w.thread_ids();
                let (v, tok) = w.ld_shared(staged, &tid);
                w.ballot_dep(Some(tok), &v.map(|x| x % 2 == 0));
                w.charge_alu(3);
            });
        }
    }
}

#[test]
fn a_fast_forwarded_launch_allocates_only_its_report() {
    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    let table = gpu.mem.alloc_from(&(0..4096u32).collect::<Vec<_>>());
    let launch = LaunchConfig::single_sm(1, 256);
    let mut kernel = Rounds {
        table,
        stride: 1,
        rounds: 16,
    };
    let first = gpu.launch(&mut kernel, launch);

    // Staging loads of two segments per warp: a memo miss, replayed
    // with fast-forward.
    kernel.stride = 2;
    let (second, n) = allocations(|| gpu.launch(&mut kernel, launch));
    assert!(
        second.timing.global_transactions > first.timing.global_transactions,
        "the second launch must record a different trace (a memo miss)"
    );
    assert!(n <= 1, "a fast-forwarded launch made {n} heap allocations");
}

#[test]
fn the_counter_sees_allocations() {
    let (v, n) = allocations(|| vec![0u8; 16]);
    assert_eq!((v.len(), n), (16, 1));
}
