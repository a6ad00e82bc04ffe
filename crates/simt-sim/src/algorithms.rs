//! Reusable device algorithms built on the warp primitives: reductions,
//! prefix scans and histograms.
//!
//! These are the standard cooperative building blocks of GPU runtime
//! systems — the compaction kernel's warp scan, the hash matcher's work
//! distribution and any future collective layer all reduce to them. They
//! are provided both as *warp-level helpers* (operating on a
//! [`WarpCtx`], usable inside larger kernels) and as ready-made
//! [`CtaKernel`]s with host drivers.

use crate::config::WARP_SIZE;
use crate::exec::{CtaCtx, CtaKernel, Gpu, LaunchConfig, LaunchReport, WarpCtx};
use crate::lanes::Lanes;
use crate::mem::BufferId;

/// Warp-level inclusive prefix sum via `shfl_up` (log₂ 32 = 5 steps),
/// charging one add per step. Returns the inclusive scan of `values`.
pub(crate) fn warp_inclusive_scan(w: &mut WarpCtx<'_>, values: &Lanes<u32>) -> Lanes<u32> {
    let mut scan = *values;
    let mut delta = 1usize;
    while delta < WARP_SIZE {
        let shifted = w.shfl_up(&scan, delta);
        w.charge_alu(1);
        scan = Lanes::from_fn(|l| {
            if l >= delta {
                scan.get(l).wrapping_add(shifted.get(l))
            } else {
                scan.get(l)
            }
        });
        delta <<= 1;
    }
    scan
}

/// Warp-level sum reduction via `shfl_down` butterflies; every lane ends
/// up holding the total.
pub(crate) fn warp_reduce_sum(w: &mut WarpCtx<'_>, values: &Lanes<u32>) -> u32 {
    let mut acc = *values;
    let mut delta = WARP_SIZE / 2;
    while delta >= 1 {
        let shifted = w.shfl_down(&acc, delta);
        w.charge_alu(1);
        acc = Lanes::from_fn(|l| {
            if l + delta < WARP_SIZE {
                acc.get(l).wrapping_add(shifted.get(l))
            } else {
                acc.get(l)
            }
        });
        if delta == 1 {
            break;
        }
        delta /= 2;
    }
    // Broadcast lane 0's total.
    w.shfl(&acc, 0)
}

/// Grid kernel: sum-reduce a `u32` buffer into `out[0]`.
pub(crate) struct ReduceSumKernel {
    /// Input values.
    pub(crate) input: BufferId<u32>,
    /// Single-element output.
    pub(crate) out: BufferId<u32>,
    /// Element count.
    pub(crate) len: usize,
}

impl CtaKernel for ReduceSumKernel {
    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let warp_count = cta.warp_count();
        let partials = cta.alloc_shared::<u32>(warp_count.max(1));
        let (input, out, len) = (self.input, self.out, self.len);
        let threads = cta.threads();
        let cta_base = cta.cta_id() * threads;

        // Phase 1: each warp accumulates a grid-strided slice, then
        // reduces it and publishes a partial.
        cta.for_each_warp(|w| {
            let mut acc = Lanes::splat(0u32);
            let mut item = cta_base + w.warp_id() * WARP_SIZE;
            while item < len {
                let lid = w.lane_ids();
                let live = lid.map(|l| item + (l as usize) < len);
                let idx = lid.zip(
                    &live,
                    |l, lv| if lv { (item + l as usize) as u32 } else { 0 },
                );
                w.charge_alu(2);
                let (vals, _tok) = w.ld_global(input, &idx);
                acc = Lanes::from_fn(|l| {
                    acc.get(l)
                        .wrapping_add(if live.get(l) { vals.get(l) } else { 0 })
                });
                w.charge_alu(1);
                item += threads; // stride by the CTA (one CTA per grid here)
            }
            let total = warp_reduce_sum(w, &acc);
            let widx = Lanes::splat(w.warp_id() as u32);
            let tv = Lanes::splat(total);
            let lane0 = w.lane_ids().map(|l| l == 0);
            w.if_lanes(&lane0, |w| {
                w.st_shared(partials, &widx, &tv);
            });
        });

        // Phase 2: warp 0 reduces the partials.
        cta.warp(0, |w| {
            let lid = w.lane_ids();
            let idx = lid.map(|l| if (l as usize) < warp_count { l } else { 0 });
            let (vals, _tok) = w.ld_shared(partials, &idx);
            let masked = Lanes::from_fn(|l| if l < warp_count { vals.get(l) } else { 0 });
            let total = warp_reduce_sum(w, &masked);
            w.st_global_leader(out, 0, total);
        });
    }
}

/// Host driver for `ReduceSumKernel`.
pub fn reduce_sum(gpu: &mut Gpu, data: &[u32]) -> (u32, LaunchReport) {
    let input = gpu.mem.alloc_from(data);
    let out = gpu.mem.alloc::<u32>(1);
    let mut k = ReduceSumKernel {
        input,
        out,
        len: data.len(),
    };
    let threads = data.len().clamp(WARP_SIZE, 1024);
    let threads = threads.div_ceil(WARP_SIZE) * WARP_SIZE;
    let report = gpu.launch(&mut k, LaunchConfig::single_sm(1, threads as u32));
    (gpu.mem.read(out, 0), report)
}

/// Grid kernel: exclusive prefix sum of a `u32` buffer (single CTA,
/// tiles processed left to right with a running carry).
pub(crate) struct ExclusiveScanKernel {
    /// Input values.
    pub(crate) input: BufferId<u32>,
    /// Output: `out[i] = sum(input[..i])`.
    pub(crate) out: BufferId<u32>,
    /// Element count.
    pub(crate) len: usize,
}

impl CtaKernel for ExclusiveScanKernel {
    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let warp_count = cta.warp_count();
        let warp_totals = cta.alloc_shared::<u32>(warp_count.max(1));
        let (input, out, len) = (self.input, self.out, self.len);
        let threads = cta.threads();
        let tiles = len.div_ceil(threads.max(1)).max(1);
        let mut carry = 0u32;

        for tile in 0..tiles {
            let tile_base = tile * threads;
            let mut warp_scans: Vec<Lanes<u32>> = vec![Lanes::default(); warp_count];
            cta.for_each_warp(|w| {
                let lid = w.lane_ids();
                let tid = lid.map(|l| (tile_base + w.warp_id() * WARP_SIZE) as u32 + l);
                let live = tid.map(|t| (t as usize) < len);
                let idx = tid.zip(&live, |t, lv| if lv { t } else { 0 });
                w.charge_alu(2);
                let (vals, _tok) = w.ld_global(input, &idx);
                let vals = vals.zip(&live, |v, lv| if lv { v } else { 0 });
                let scan = warp_inclusive_scan(w, &vals);
                let widx = Lanes::splat(w.warp_id() as u32);
                let last = Lanes::splat(scan.get(WARP_SIZE - 1));
                let lane_last = w.lane_ids().map(|l| l as usize == WARP_SIZE - 1);
                w.if_lanes(&lane_last, |w| {
                    w.st_shared(warp_totals, &widx, &last);
                });
                warp_scans[w.warp_id()] = scan;
            });

            // Warp bases: exclusive scan of the warp totals by warp 0.
            let mut bases = vec![0u32; warp_count];
            cta.warp(0, |w| {
                let lid = w.lane_ids();
                let idx = lid.map(|l| if (l as usize) < warp_count { l } else { 0 });
                let (totals, _tok) = w.ld_shared(warp_totals, &idx);
                let masked = Lanes::from_fn(|l| if l < warp_count { totals.get(l) } else { 0 });
                let scanned = warp_inclusive_scan(w, &masked);
                w.charge_alu(2);
                for (wid, base) in bases.iter_mut().enumerate().take(warp_count) {
                    *base = if wid == 0 { 0 } else { scanned.get(wid - 1) };
                }
            });

            let carry_in = carry;
            let mut tile_total = 0u32;
            cta.for_each_warp(|w| {
                let wid = w.warp_id();
                let scan = warp_scans[wid];
                let lid = w.lane_ids();
                let tid = lid.map(|l| (tile_base + wid * WARP_SIZE) as u32 + l);
                let live = tid.map(|t| (t as usize) < len);
                // Exclusive result: inclusive minus own value; recompute
                // from shfl_up(1) for exactness.
                let shifted = w.shfl_up(&scan, 1);
                w.charge_alu(2);
                let excl = Lanes::from_fn(|l| {
                    let base = carry_in.wrapping_add(bases[wid]);
                    if l == 0 {
                        base
                    } else {
                        base.wrapping_add(shifted.get(l))
                    }
                });
                let idx = tid.zip(&live, |t, lv| if lv { t } else { 0 });
                w.if_lanes(&live, |w| {
                    w.st_global(out, &idx, &excl);
                });
                if wid == warp_count - 1 {
                    tile_total = bases[wid].wrapping_add(scan.get(WARP_SIZE - 1));
                }
            });
            carry = carry.wrapping_add(tile_total);
        }
    }
}

/// Host driver for `ExclusiveScanKernel`.
pub fn exclusive_scan(gpu: &mut Gpu, data: &[u32]) -> (Vec<u32>, LaunchReport) {
    let input = gpu.mem.alloc_from(data);
    let out = gpu.mem.alloc::<u32>(data.len().max(1));
    let mut k = ExclusiveScanKernel {
        input,
        out,
        len: data.len(),
    };
    let threads = data.len().clamp(WARP_SIZE, 1024);
    let threads = threads.div_ceil(WARP_SIZE) * WARP_SIZE;
    let report = gpu.launch(&mut k, LaunchConfig::single_sm(1, threads as u32));
    let mut v = gpu.mem.read_vec(out);
    v.truncate(data.len());
    (v, report)
}

/// Grid kernel: histogram of `u32` keys into `bins` buckets via global
/// atomics (the access pattern of the hash matcher's insert phase).
pub(crate) struct HistogramKernel {
    /// Input keys.
    pub(crate) input: BufferId<u32>,
    /// Bucket counters (pre-zeroed), length = `bins`.
    pub(crate) counts: BufferId<u32>,
    /// Element count.
    pub(crate) len: usize,
    /// Bucket count.
    pub(crate) bins: u32,
}

impl CtaKernel for HistogramKernel {
    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let (input, counts, len, bins) = (self.input, self.counts, self.len, self.bins);
        let threads = cta.threads();
        let cta_base = cta.cta_id() * threads;
        cta.for_each_warp(|w| {
            let mut item = cta_base + w.warp_id() * WARP_SIZE;
            while item < len {
                let lid = w.lane_ids();
                let live = lid.map(|l| item + (l as usize) < len);
                let idx = lid.zip(
                    &live,
                    |l, lv| if lv { (item + l as usize) as u32 } else { 0 },
                );
                w.charge_alu(2);
                let (vals, _tok) = w.ld_global(input, &idx);
                let buckets = vals.map(|v| v % bins);
                let ones = Lanes::splat(1u32);
                w.if_lanes(&live, |w| {
                    let (_old, _tok) = w.atom_global_add(counts, &buckets, &ones);
                });
                item += threads;
            }
        });
    }
}

/// Host driver for `HistogramKernel`.
pub fn histogram(gpu: &mut Gpu, data: &[u32], bins: u32) -> (Vec<u32>, LaunchReport) {
    let input = gpu.mem.alloc_from(data);
    let counts = gpu.mem.alloc::<u32>(bins as usize);
    let mut k = HistogramKernel {
        input,
        counts,
        len: data.len(),
        bins,
    };
    let threads = data.len().clamp(WARP_SIZE, 1024);
    let threads = threads.div_ceil(WARP_SIZE) * WARP_SIZE;
    let report = gpu.launch(&mut k, LaunchConfig::single_sm(1, threads as u32));
    (gpu.mem.read_vec(counts), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuGeneration;
    use proptest::prelude::*;

    #[test]
    fn reduce_matches_iterator_sum() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        for n in [1usize, 31, 32, 33, 100, 1024, 5000] {
            let data: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let (got, _) = reduce_sum(&mut gpu, &data);
            let want: u32 = data
                .iter()
                .copied()
                .reduce(|a, b| a.wrapping_add(b))
                .unwrap();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn scan_matches_prefix_sums() {
        let mut gpu = Gpu::new(GpuGeneration::MaxwellM40);
        for n in [1usize, 32, 33, 64, 100, 1000, 1024, 3000] {
            let data: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % 11).collect();
            let (got, _) = exclusive_scan(&mut gpu, &data);
            let mut want = Vec::with_capacity(n);
            let mut acc = 0u32;
            for v in &data {
                want.push(acc);
                acc = acc.wrapping_add(*v);
            }
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn histogram_counts_everything_once() {
        let mut gpu = Gpu::new(GpuGeneration::KeplerK80);
        let data: Vec<u32> = (0..2000u32).collect();
        let (counts, _) = histogram(&mut gpu, &data, 16);
        assert_eq!(counts.iter().sum::<u32>(), 2000);
        for (b, c) in counts.iter().enumerate() {
            assert_eq!(*c, 125, "bin {b} of a uniform input");
        }
    }

    #[test]
    fn scan_cost_grows_with_input() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let small: Vec<u32> = vec![1; 128];
        let large: Vec<u32> = vec![1; 4096];
        let (_, r_small) = exclusive_scan(&mut gpu, &small);
        let (_, r_large) = exclusive_scan(&mut gpu, &large);
        assert!(r_large.cycles > r_small.cycles);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_scan_and_reduce_agree(data in proptest::collection::vec(0u32..1000, 1..300)) {
            let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
            let (scanned, _) = exclusive_scan(&mut gpu, &data);
            let (total, _) = reduce_sum(&mut gpu, &data);
            // total = last exclusive prefix + last element
            let want = scanned.last().unwrap().wrapping_add(*data.last().unwrap());
            prop_assert_eq!(total, want);
        }

        #[test]
        fn prop_histogram_is_a_partition(
            data in proptest::collection::vec(any::<u32>(), 1..500),
            bins in 1u32..64,
        ) {
            let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
            let (counts, _) = histogram(&mut gpu, &data, bins);
            prop_assert_eq!(counts.iter().sum::<u32>() as usize, data.len());
        }
    }
}
