//! Queue compaction: removing matched entries and advancing the head.
//!
//! "The last step of the matching algorithm is to compact the queues to
//! advance the head pointer and start matching on the remaining requests.
//! The compaction is composed of a prefix scan and memory move
//! operations." (Section V-A). The paper measures the compaction at about
//! 10% of the matching rate (Section VI-B) — the cost saved by the
//! *no unexpected messages* relaxation, under which every message matches
//! in one pass and nothing is left to compact.
//!
//! The kernel is the classic warp-scan stream compaction: each warp
//! computes an inclusive prefix sum of its keep-flags with `shfl_up`,
//! warp totals are combined through shared memory, and survivors scatter
//! to their compacted positions.

use simt_sim::{BufferId, CtaCtx, CtaKernel, Gpu, Lanes, LaunchConfig, LaunchReport, WARP_SIZE};

/// One move region: source range `[lo, hi)` plus its survivors as
/// `(destination, value)` pairs.
type RegionWork = (usize, usize, Vec<(u32, u64)>);

/// Compaction of a `u64` queue under a keep-mask.
pub(crate) struct CompactionKernel {
    /// Input queue.
    pub(crate) input: BufferId<u64>,
    /// Keep flags: 1 = entry survives, 0 = entry was matched/removed.
    pub(crate) keep: BufferId<u32>,
    /// Output queue (same capacity as input).
    pub(crate) output: BufferId<u64>,
    /// Number of live entries, written to element 0 by the kernel.
    pub(crate) out_count: BufferId<u32>,
    /// Queue length.
    pub(crate) len: usize,
    /// Independent move regions. A fully ordered queue (the compliant
    /// matcher) must move front-to-back as one chain (`1`). Rank
    /// partitioning gives one independent region per queue; relaxing
    /// ordering altogether lets every warp move its own slice (`32`).
    pub(crate) parallel_moves: usize,
}

impl CtaKernel for CompactionKernel {
    fn name(&self) -> &'static str {
        "queue_compact"
    }

    fn obs_category(&self) -> obs::SpanCategory {
        obs::SpanCategory::Compaction
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let warp_count = cta.warp_count();
        // Per-warp survivor totals, then an exclusive base per warp.
        let warp_totals = cta.alloc_shared::<u32>(warp_count.max(1));
        let (input, keep, output, out_count) = (self.input, self.keep, self.output, self.out_count);
        let len = self.len;

        // Tiles of one element per thread. Queue capacity is bounded by
        // one CTA in the matchers, so a single tile suffices; the loop
        // keeps the kernel general.
        let threads = cta.threads();
        let tiles = len.div_ceil(threads.max(1)).max(1);
        let mut write_base: u32 = 0;
        for tile in 0..tiles {
            let tile_base = (tile * threads) as u32;

            // Phase 1: per-warp inclusive scan of keep flags.
            let mut warp_prefix: Vec<Lanes<u32>> = vec![Lanes::default(); warp_count];
            let mut warp_vals: Vec<Lanes<u64>> = vec![Lanes::default(); warp_count];
            let mut warp_keep: Vec<Lanes<u32>> = vec![Lanes::default(); warp_count];
            cta.for_each_warp(|w| {
                let tid = w.thread_ids().map(|t| t + tile_base);
                let live = tid.map(|t| (t as usize) < len);
                let idx = tid.zip(&live, |t, l| if l { t } else { 0 });
                w.charge_alu(2);
                let (flags, ftok) = w.ld_global(keep, &idx);
                let flags = flags.zip(&live, |f, l| if l { f } else { 0 });
                let (vals, _vtok) = w.ld_global(input, &idx);
                // Inclusive warp scan via shfl_up (log2(32) = 5 steps).
                let mut scan = flags;
                let mut delta = 1usize;
                while delta < WARP_SIZE {
                    let shifted = w.shfl_up(&scan, delta);
                    w.charge_alu(1);
                    scan = Lanes::from_fn(|l| {
                        if l >= delta {
                            scan.get(l) + shifted.get(l)
                        } else {
                            scan.get(l)
                        }
                    });
                    delta <<= 1;
                }
                let _ = ftok;
                // Lane 31 publishes the warp total.
                let last = Lanes::splat(scan.get(WARP_SIZE - 1));
                let widx = Lanes::splat(w.warp_id() as u32);
                let lane_is_last = w.lane_ids().map(|l| l as usize == WARP_SIZE - 1);
                w.if_lanes(&lane_is_last, |w| {
                    w.st_shared(warp_totals, &widx, &last);
                });
                warp_prefix[w.warp_id()] = scan;
                warp_vals[w.warp_id()] = vals;
                warp_keep[w.warp_id()] = flags;
            });

            // Phase 2: exclusive scan of warp totals (single warp).
            let mut warp_bases = vec![0u32; warp_count];
            cta.warp(0, |w| {
                let idx = w
                    .lane_ids()
                    .map(|l| if (l as usize) < warp_count { l } else { 0 });
                let (totals, tok) = w.ld_shared(warp_totals, &idx);
                w.charge_alu(3);
                let _ = tok;
                let mut acc = 0u32;
                for (wid, base) in warp_bases.iter_mut().enumerate().take(warp_count) {
                    *base = acc;
                    acc += totals.get(wid);
                }
                // Scan of ≤32 values costs log2 shuffle steps.
                for _ in 0..5 {
                    w.charge_alu(1);
                }
                w.st_global_leader(out_count, 0, write_base + acc);
            });
            // Phase 3: the ordered in-place move. Compaction advances
            // the queue head, so destination ranges overlap the source;
            // the move must proceed front to back. The lead warp walks
            // the survivors in 32-element chunks, each chunk's load
            // gated on the previous chunk's store — this ordered chain
            // is what makes compaction cost ~10% of a matching pass
            // (Section VI-B), not the prefix scan.
            let base_snapshot = write_base;
            let mut survivors: Vec<(u32, u64)> = Vec::new();
            for wid in 0..warp_count {
                let scan = warp_prefix[wid];
                let flags = warp_keep[wid];
                let vals = warp_vals[wid];
                for l in 0..WARP_SIZE {
                    if flags.get(l) != 0 {
                        survivors.push((warp_bases[wid] + scan.get(l) - 1, vals.get(l)));
                    }
                }
            }
            let tile_written = survivors.len() as u32;
            let regions = self.parallel_moves.clamp(1, warp_count.max(1));
            let tile_len = (len - tile_base as usize).min(threads);
            // Split the source walk and the survivor moves into
            // `regions` independent front-to-back chains, one per warp.
            let mut region_work: Vec<RegionWork> = Vec::new();
            {
                let per = tile_len.div_ceil(regions);
                let mut surv_cursor = 0usize;
                for r in 0..regions {
                    let lo = r * per;
                    let hi = ((r + 1) * per).min(tile_len);
                    if lo >= hi {
                        region_work.push((0, 0, Vec::new()));
                        continue;
                    }
                    // Survivors whose *source* lies in [lo, hi): counted
                    // via the per-warp keep flags.
                    let mut count = 0usize;
                    for src in lo..hi {
                        let wid = src / WARP_SIZE;
                        let lane = src % WARP_SIZE;
                        if warp_keep[wid].get(lane) != 0 {
                            count += 1;
                        }
                    }
                    let slice = survivors[surv_cursor..surv_cursor + count].to_vec();
                    surv_cursor += count;
                    region_work.push((lo, hi, slice));
                }
            }
            cta.for_each_warp(|w| {
                let wid = w.warp_id();
                if wid >= region_work.len() {
                    return;
                }
                let (lo, hi, ref slice) = region_work[wid];
                if lo >= hi {
                    return;
                }
                // Ordered within the region: each chunk's load is gated
                // on the previous chunk's store because in-place ranges
                // overlap. Regions are disjoint and proceed in parallel.
                let mut prev_store: Option<simt_sim::DepToken> = None;
                let mut cursor = 0usize;
                let mut chunk_start = lo;
                while chunk_start < hi {
                    let chunk = WARP_SIZE.min(hi - chunk_start);
                    w.charge_alu(3); // cursor math + loop control
                    let live = w.lane_ids().map(|l| (l as usize) < chunk);
                    let src_idx =
                        Lanes::from_fn(|l| tile_base + (chunk_start + l.min(chunk - 1)) as u32);
                    let take = slice.len().saturating_sub(cursor).min(chunk);
                    let out_chunk = &slice[cursor..cursor + take];
                    cursor += take;
                    let mut vals = Lanes::<u64>::splat(0);
                    let mut dst = Lanes::<u32>::splat(0);
                    let out_live = w.lane_ids().map(|l| (l as usize) < take);
                    for (l, &(d, v)) in out_chunk.iter().enumerate() {
                        vals.set(l, v);
                        dst.set(l, base_snapshot + d);
                    }
                    let mut tok_out: Option<simt_sim::DepToken> = prev_store;
                    w.if_lanes(&live, |w| {
                        let (_vals_in, ld_tok) = w.ld_global_after(input, &src_idx, prev_store);
                        w.charge_alu(2); // keep-flag test + cursor update
                        tok_out = Some(ld_tok);
                        if take > 0 {
                            w.if_lanes(&out_live, |w| {
                                tok_out =
                                    Some(w.st_global_after(output, &dst, &vals, Some(ld_tok)));
                            });
                        }
                    });
                    prev_store = tok_out;
                    chunk_start += chunk;
                }
            });
            write_base = base_snapshot + tile_written;
        }
        // Final count covers all tiles.
        cta.warp(0, |w| {
            w.st_global_leader(out_count, 0, write_base);
        });
    }
}

/// Host-side driver: compact `queue` keeping entries where `keep[i] != 0`,
/// with the fully ordered single-chain move the compliant matcher needs.
/// Returns the surviving entries in order plus the kernel's timing.
pub fn compact_queue(gpu: &mut Gpu, queue: &[u64], keep: &[u32]) -> (Vec<u64>, LaunchReport) {
    compact_queue_regions(gpu, queue, keep, 1)
}

/// [`compact_queue`] with `regions` independent move chains — one per
/// partitioned queue, or one per warp under the no-ordering relaxation.
pub fn compact_queue_regions(
    gpu: &mut Gpu,
    queue: &[u64],
    keep: &[u32],
    regions: usize,
) -> (Vec<u64>, LaunchReport) {
    assert_eq!(queue.len(), keep.len());
    let n = queue.len();
    let input = gpu.mem.alloc_from(queue);
    let keep_buf = gpu.mem.alloc_from(keep);
    let output = gpu.mem.alloc::<u64>(n.max(1));
    let out_count = gpu.mem.alloc::<u32>(1);
    let threads = n.clamp(WARP_SIZE, 1024) as u32;
    let threads = threads.div_ceil(WARP_SIZE as u32) * WARP_SIZE as u32;
    let mut k = CompactionKernel {
        input,
        keep: keep_buf,
        output,
        out_count,
        len: n,
        parallel_moves: regions,
    };
    let report = gpu.launch(&mut k, LaunchConfig::single_sm(1, threads));
    let count = gpu.mem.read(out_count, 0) as usize;
    let all = gpu.mem.read_vec(output);
    (all[..count].to_vec(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simt_sim::GpuGeneration;

    fn reference_compact(queue: &[u64], keep: &[u32]) -> Vec<u64> {
        queue
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k != 0)
            .map(|(&v, _)| v)
            .collect()
    }

    #[test]
    fn keeps_all() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let q: Vec<u64> = (0..100).collect();
        let keep = vec![1u32; 100];
        let (out, _) = compact_queue(&mut gpu, &q, &keep);
        assert_eq!(out, q);
    }

    #[test]
    fn removes_all() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let q: Vec<u64> = (0..64).collect();
        let keep = vec![0u32; 64];
        let (out, _) = compact_queue(&mut gpu, &q, &keep);
        assert!(out.is_empty());
    }

    #[test]
    fn alternating_pattern_preserves_order() {
        let mut gpu = Gpu::new(GpuGeneration::MaxwellM40);
        let q: Vec<u64> = (0..257).map(|i| i * 3).collect();
        let keep: Vec<u32> = (0..257).map(|i| (i % 2) as u32).collect();
        let (out, _) = compact_queue(&mut gpu, &q, &keep);
        assert_eq!(out, reference_compact(&q, &keep));
    }

    #[test]
    fn random_patterns_across_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gpu = Gpu::new(GpuGeneration::KeplerK80);
        for n in [1usize, 31, 32, 33, 63, 64, 100, 512, 1000, 1024] {
            let q: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let keep: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let (out, _) = compact_queue(&mut gpu, &q, &keep);
            assert_eq!(out, reference_compact(&q, &keep), "size {n}");
        }
    }

    #[test]
    fn compaction_has_nonzero_cost() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let q: Vec<u64> = (0..1024).collect();
        let keep: Vec<u32> = (0..1024).map(|i| (i % 3 == 0) as u32).collect();
        let (_, report) = compact_queue(&mut gpu, &q, &keep);
        assert!(
            report.cycles > 100,
            "compaction must cost cycles, got {}",
            report.cycles
        );
    }
}
