//! Occupancy calculation: how many CTAs of a kernel can be resident on one
//! SM at once.
//!
//! This mirrors NVIDIA's occupancy calculator, which the paper invokes to
//! explain why "this algorithm allows two CTAs to run in parallel. Hence,
//! more CTAs leads to serialization" (Section VI-A). Residency is limited
//! by four resources: the SM's CTA slots, warp slots, shared memory and
//! register file.

use crate::config::{SmConfig, WARP_SIZE};

/// Which resource capped residency (for reports and ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OccupancyLimiter {
    /// The SM's maximum resident-CTA count.
    CtaSlots,
    /// The SM's maximum resident-warp count.
    WarpSlots,
    /// The SM's shared-memory capacity.
    SharedMemory,
    /// The SM's register file.
    Registers,
}

/// Result of an occupancy query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// CTAs of this kernel that fit on one SM simultaneously (≥ 1 as long
    /// as a single CTA fits at all).
    pub resident_ctas: u32,
    /// The binding resource.
    pub(crate) limiter: OccupancyLimiter,
    /// Resident warps implied by `resident_ctas`.
    pub(crate) resident_warps: u32,
}

/// Compute occupancy for a kernel with the given per-CTA footprint.
///
/// # Panics
/// Panics if a single CTA cannot fit on the SM at all (more threads than
/// warp slots, more shared memory than the SM has, or a register footprint
/// exceeding the file) — such a kernel would fail to launch on hardware.
pub fn occupancy(
    sm: &SmConfig,
    threads_per_cta: u32,
    shared_bytes_per_cta: u32,
    registers_per_thread: u32,
) -> Occupancy {
    assert!(threads_per_cta >= 1);
    let warps_per_cta = threads_per_cta.div_ceil(WARP_SIZE as u32);
    assert!(
        warps_per_cta <= sm.max_warps,
        "CTA of {threads_per_cta} threads exceeds the SM's {} warp slots",
        sm.max_warps
    );
    assert!(
        shared_bytes_per_cta <= sm.shared_mem_bytes,
        "CTA wants {shared_bytes_per_cta} B shared but the SM has {} B",
        sm.shared_mem_bytes
    );
    // Register allocation granularity: warps × 32 lanes × regs/thread.
    let regs_per_cta = warps_per_cta * WARP_SIZE as u32 * registers_per_thread;
    assert!(
        regs_per_cta <= sm.registers,
        "CTA wants {regs_per_cta} registers but the SM has {}",
        sm.registers
    );

    let by_ctas = sm.max_ctas;
    let by_warps = sm.max_warps / warps_per_cta;
    let by_shared = sm
        .shared_mem_bytes
        .checked_div(shared_bytes_per_cta)
        .unwrap_or(u32::MAX);
    let by_regs = sm.registers.checked_div(regs_per_cta).unwrap_or(u32::MAX);

    let (resident, limiter) = [
        (by_ctas, OccupancyLimiter::CtaSlots),
        (by_warps, OccupancyLimiter::WarpSlots),
        (by_shared, OccupancyLimiter::SharedMemory),
        (by_regs, OccupancyLimiter::Registers),
    ]
    .into_iter()
    .min_by_key(|&(n, _)| n)
    .expect("non-empty");

    Occupancy {
        resident_ctas: resident,
        limiter,
        resident_warps: resident * warps_per_cta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    #[test]
    fn full_cta_on_pascal_is_limited_to_two() {
        // The matrix matcher's footprint: 1024 threads, ~17.5 KiB shared,
        // 32 registers/thread. The paper reports 2 resident CTAs; at 1024
        // threads the 64-warp SM limit binds first (64/32 = 2), with the
        // register file (64K/32K = 2) tied right behind it.
        let sm = GpuConfig::pascal_gtx1080().sm;
        let occ = occupancy(&sm, 1024, 18 * 1024, 32);
        assert_eq!(occ.resident_ctas, 2);
        assert_eq!(occ.limiter, OccupancyLimiter::WarpSlots);
    }

    #[test]
    fn full_cta_on_kepler_is_limited_to_two() {
        // Kepler: 48 KiB shared / 18 KiB = 2 CTAs, same bound as the
        // 64-warp limit; either way the paper's 2 resident CTAs hold.
        let sm = GpuConfig::kepler_k80().sm;
        let occ = occupancy(&sm, 1024, 18 * 1024, 32);
        assert_eq!(occ.resident_ctas, 2);
    }

    #[test]
    fn shared_memory_can_be_the_binding_limit() {
        // 256-thread CTAs with 20 KiB shared on Kepler: warps allow 8,
        // but shared memory only fits 2.
        let sm = GpuConfig::kepler_k80().sm;
        let occ = occupancy(&sm, 256, 20 * 1024, 16);
        assert_eq!(occ.resident_ctas, 2);
        assert_eq!(occ.limiter, OccupancyLimiter::SharedMemory);
    }

    #[test]
    fn small_cta_is_cta_slot_limited() {
        let sm = GpuConfig::pascal_gtx1080().sm;
        let occ = occupancy(&sm, 32, 0, 16);
        assert_eq!(occ.resident_ctas, sm.max_ctas);
        assert_eq!(occ.limiter, OccupancyLimiter::CtaSlots);
    }

    #[test]
    fn warp_slot_limit() {
        let sm = GpuConfig::maxwell_m40().sm;
        // 512-thread CTAs, tiny shared, tiny regs: 64 warps / 16 = 4 CTAs.
        let occ = occupancy(&sm, 512, 0, 8);
        assert_eq!(occ.resident_ctas, 4);
        assert_eq!(occ.limiter, OccupancyLimiter::WarpSlots);
    }

    #[test]
    fn partial_warp_rounds_up() {
        let sm = GpuConfig::pascal_gtx1080().sm;
        let a = occupancy(&sm, 33, 0, 32);
        let b = occupancy(&sm, 64, 0, 32);
        assert_eq!(
            a.resident_ctas, b.resident_ctas,
            "33 threads occupy 2 warps"
        );
    }

    #[test]
    #[should_panic(expected = "shared")]
    fn oversized_shared_panics() {
        let sm = GpuConfig::kepler_k80().sm;
        occupancy(&sm, 256, 1024 * 1024, 32);
    }
}
