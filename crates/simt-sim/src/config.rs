//! GPU architecture configuration and per-generation presets.
//!
//! The paper evaluates three GPU generations (Table footnotes 1–3):
//! a Kepler-class Tesla K80, a Maxwell-class Tesla M40 and a Pascal-class
//! GTX 1080. The presets below capture the architectural parameters the
//! timing model consumes. Clock rates use the boost clocks, which is what
//! sustained micro-benchmarks observe on these parts.

use serde::Serialize;

/// Number of lanes in a warp. Fixed at 32 on all NVIDIA generations the
/// paper studies; the matching algorithms bake this into their bit-vector
/// layout (one `u32` ballot word per warp).
pub const WARP_SIZE: usize = 32;

/// Maximum number of warps per CTA supported by the hardware
/// (1024 threads / 32 lanes). The matrix matcher relies on this: the vote
/// matrix has at most 32 rows, so one warp can reduce a column.
pub(crate) const MAX_WARPS_PER_CTA: usize = 32;

/// The three GPU generations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GpuGeneration {
    /// Tesla K80 (single GK210 GPU of the board), CUDA 7.0 era.
    KeplerK80,
    /// Tesla M40 (GM200), CUDA 8.0 era.
    MaxwellM40,
    /// GeForce GTX 1080 (GP104), CUDA 8.0 era.
    PascalGtx1080,
}

impl GpuGeneration {
    /// All generations, in the order the paper's figures plot them.
    pub const ALL: [GpuGeneration; 3] = [
        GpuGeneration::KeplerK80,
        GpuGeneration::MaxwellM40,
        GpuGeneration::PascalGtx1080,
    ];

    /// Human-readable device name as used in the paper's figures.
    pub fn device_name(self) -> &'static str {
        match self {
            GpuGeneration::KeplerK80 => "Tesla K80 (Kepler)",
            GpuGeneration::MaxwellM40 => "Tesla M40 (Maxwell)",
            GpuGeneration::PascalGtx1080 => "GTX 1080 (Pascal)",
        }
    }

    /// Short label used in report tables.
    pub fn short_name(self) -> &'static str {
        match self {
            GpuGeneration::KeplerK80 => "K80",
            GpuGeneration::MaxwellM40 => "M40",
            GpuGeneration::PascalGtx1080 => "GTX1080",
        }
    }

    /// Architecture configuration preset for this generation.
    pub fn config(self) -> GpuConfig {
        match self {
            GpuGeneration::KeplerK80 => GpuConfig::kepler_k80(),
            GpuGeneration::MaxwellM40 => GpuConfig::maxwell_m40(),
            GpuGeneration::PascalGtx1080 => GpuConfig::pascal_gtx1080(),
        }
    }
}

/// Architectural parameters of a streaming multiprocessor (SM).
///
/// All throughputs are expressed in the timing model's quarter-cycle
/// fixed-point units via [`GpuConfig`] accessors; latencies are in cycles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SmConfig {
    /// Warp schedulers per SM. Each can issue one instruction per cycle.
    pub(crate) schedulers: u32,
    /// Issue efficiency in percent (0–100]. Captures dual-issue quality,
    /// dispatch port conflicts and register bank pressure differences
    /// between generations (Kepler's static scheduler rarely sustains the
    /// theoretical rate on dependent integer code).
    pub(crate) issue_efficiency_pct: u32,
    /// Maximum resident warps per SM.
    pub(crate) max_warps: u32,
    /// Maximum resident CTAs per SM.
    pub(crate) max_ctas: u32,
    /// Shared memory per SM in bytes.
    pub(crate) shared_mem_bytes: u32,
    /// Register file size per SM (32-bit registers).
    pub(crate) registers: u32,
    /// Shared memory banks (32 on all three generations).
    pub(crate) shared_banks: u32,
    /// Latency of a dependent ALU instruction in cycles.
    pub(crate) alu_latency: u32,
    /// Latency of warp-wide vote/shuffle instructions in cycles.
    pub(crate) vote_latency: u32,
    /// Shared memory access latency in cycles.
    pub(crate) shared_latency: u32,
    /// Global-memory access latency in cycles. The matching kernels work
    /// on small, hot data (queues, vote matrix, hash tables), so this is
    /// the *L2-hit* latency of the part, not the DRAM round trip —
    /// consistent with published micro-benchmarks of these generations.
    pub(crate) global_latency: u32,
    /// Latency of a global-memory atomic (CAS/exchange/add) in cycles.
    /// Atomic performance improved sharply across these generations:
    /// Kepler serialises RMWs far from the SM, Maxwell improved L2
    /// atomics, Pascal made them near native-load speed.
    pub(crate) global_atomic_latency: u32,
    /// Global memory transactions the SM can have serviced per cycle,
    /// expressed as transactions per 16 cycles to keep integer math.
    pub(crate) global_tx_per_16_cycles: u32,
    /// Shared-memory atomic throughput: operations per 16 cycles. Maxwell
    /// introduced native shared atomics; Kepler emulates them with
    /// lock/retry loops, which the hash matcher is sensitive to.
    pub(crate) shared_atomic_per_16_cycles: u32,
}

/// Full GPU configuration: clock, SM count and SM parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuConfig {
    /// Generation this config describes (used for reports only).
    pub(crate) generation: GpuGeneration,
    /// Core boost clock in kHz (kept integral for deterministic math).
    pub(crate) clock_khz: u64,
    /// Number of SMs on the device.
    pub(crate) sm_count: u32,
    /// Per-SM parameters.
    pub sm: SmConfig,
}

impl GpuConfig {
    /// Tesla K80 preset (GK210, one of the two GPUs on the board, as the
    /// paper uses a single GPU). 13 SMs, 875 MHz boost.
    pub(crate) fn kepler_k80() -> Self {
        GpuConfig {
            generation: GpuGeneration::KeplerK80,
            clock_khz: 875_000,
            sm_count: 13,
            sm: SmConfig {
                schedulers: 4,
                issue_efficiency_pct: 72,
                max_warps: 64,
                max_ctas: 16,
                shared_mem_bytes: 48 * 1024,
                registers: 128 * 1024,
                shared_banks: 32,
                alu_latency: 9,
                vote_latency: 9,
                shared_latency: 34,
                global_latency: 230,
                global_atomic_latency: 520,
                global_tx_per_16_cycles: 28,
                shared_atomic_per_16_cycles: 4,
            },
        }
    }

    /// Tesla M40 preset (GM200). 24 SMs, 1140 MHz boost.
    pub(crate) fn maxwell_m40() -> Self {
        GpuConfig {
            generation: GpuGeneration::MaxwellM40,
            clock_khz: 1_140_000,
            sm_count: 24,
            sm: SmConfig {
                schedulers: 4,
                issue_efficiency_pct: 62,
                max_warps: 64,
                max_ctas: 32,
                shared_mem_bytes: 96 * 1024,
                registers: 64 * 1024,
                shared_banks: 32,
                alu_latency: 6,
                vote_latency: 6,
                shared_latency: 26,
                global_latency: 222,
                global_atomic_latency: 300,
                global_tx_per_16_cycles: 32,
                shared_atomic_per_16_cycles: 16,
            },
        }
    }

    /// GeForce GTX 1080 preset (GP104). 20 SMs, 1733 MHz boost.
    pub fn pascal_gtx1080() -> Self {
        GpuConfig {
            generation: GpuGeneration::PascalGtx1080,
            clock_khz: 1_733_000,
            sm_count: 20,
            sm: SmConfig {
                schedulers: 4,
                issue_efficiency_pct: 70,
                max_warps: 64,
                max_ctas: 32,
                shared_mem_bytes: 96 * 1024,
                registers: 64 * 1024,
                shared_banks: 32,
                alu_latency: 6,
                vote_latency: 6,
                shared_latency: 24,
                global_latency: 212,
                global_atomic_latency: 180,
                global_tx_per_16_cycles: 40,
                shared_atomic_per_16_cycles: 26,
            },
        }
    }

    /// Clock in Hz as a float, for rate computations.
    pub(crate) fn clock_hz(&self) -> f64 {
        self.clock_khz as f64 * 1e3
    }

    /// Convert a simulated cycle count into seconds on this device.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_ordered_by_clock() {
        let k = GpuConfig::kepler_k80();
        let m = GpuConfig::maxwell_m40();
        let p = GpuConfig::pascal_gtx1080();
        assert!(k.clock_khz < m.clock_khz);
        assert!(m.clock_khz < p.clock_khz);
        assert_eq!(k.generation, GpuGeneration::KeplerK80);
        assert_eq!(m.generation, GpuGeneration::MaxwellM40);
        assert_eq!(p.generation, GpuGeneration::PascalGtx1080);
    }

    #[test]
    fn generation_round_trip() {
        for gen in GpuGeneration::ALL {
            assert_eq!(gen.config().generation, gen);
            assert!(!gen.device_name().is_empty());
            assert!(!gen.short_name().is_empty());
        }
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let p = GpuConfig::pascal_gtx1080();
        let s = p.cycles_to_seconds(1_733_000_000);
        assert!(
            (s - 1.0).abs() < 1e-9,
            "1.733G cycles at 1.733 GHz is one second, got {s}"
        );
    }

    #[test]
    fn warp_constants() {
        assert_eq!(WARP_SIZE, 32);
        assert_eq!(MAX_WARPS_PER_CTA, 32);
        for gen in GpuGeneration::ALL {
            let c = gen.config();
            assert!(c.sm.max_warps >= MAX_WARPS_PER_CTA as u32);
            assert_eq!(c.sm.shared_banks, 32);
        }
    }
}
