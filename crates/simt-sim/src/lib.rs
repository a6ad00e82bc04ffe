//! # simt-sim — a deterministic warp-level SIMT processor simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Relaxations for High-Performance Message Passing on Massively
//! Parallel SIMT Processors"* (Klenk et al., IPDPS 2017). The paper runs
//! its message-matching kernels on three generations of NVIDIA GPUs;
//! without that hardware, this simulator executes the same
//! warp-synchronous algorithms **bit-accurately** (ballot/ffs/shfl
//! semantics, lane masking, barrier ordering) and reports execution time
//! from a **cycle-level model** of the streaming multiprocessor (issue
//! bandwidth, operand-dependency stalls, memory-pipe throughput, barrier
//! synchronisation and occupancy-limited CTA residency), parameterised for
//! the Tesla K80 (Kepler), Tesla M40 (Maxwell) and GTX 1080 (Pascal).
//!
//! ## Programming model
//!
//! Kernels implement [`CtaKernel`] and are written warp-synchronously
//! against [`CtaCtx`] / [`WarpCtx`]:
//!
//! ```
//! use simt_sim::{CtaKernel, CtaCtx, Gpu, GpuGeneration, Lanes, LaunchConfig, BufferId};
//!
//! /// Counts even elements with a warp ballot, like the paper's scan phase.
//! struct CountEven { data: BufferId<u32>, out: BufferId<u32> }
//!
//! impl CtaKernel for CountEven {
//!     fn execute(&mut self, cta: &mut CtaCtx<'_>) {
//!         let (data, out) = (self.data, self.out);
//!         cta.for_each_warp(|w| {
//!             let idx = w.thread_ids();
//!             let (vals, tok) = w.ld_global(data, &idx);
//!             let vote = w.ballot_dep(Some(tok), &vals.map(|v| v % 2 == 0));
//!             if w.warp_id() == 0 {
//!                 w.st_global_leader(out, 0, vote.count_ones());
//!             }
//!         });
//!     }
//! }
//!
//! let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
//! let data = gpu.mem.alloc_from(&[1u32, 2, 3, 4, 5, 6, 7, 8].repeat(4));
//! let out = gpu.mem.alloc::<u32>(1);
//! let report = gpu.launch(&mut CountEven { data, out }, LaunchConfig::single_sm(1, 32));
//! assert_eq!(gpu.mem.read(out, 0), 16);
//! assert!(report.cycles > 0);
//! ```
//!
//! Functional execution records an op trace per warp; [`timing::simulate`]
//! replays it on the SM model. [`LaunchReport::seconds`] is simulated
//! device time, so an event count divided by it is the events/second the
//! paper's figures use (matches/s).

#![warn(missing_docs, unreachable_pub)]

mod config;
mod exec;
pub mod lanes;
mod mem;
mod occupancy;
mod sanitize;
pub mod timing;
pub mod trace;

pub use config::{GpuConfig, GpuGeneration, WARP_SIZE};
pub use exec::{CtaCtx, CtaKernel, Gpu, LaunchConfig, LaunchReport, WarpCtx};
pub use lanes::{LaneMask, Lanes};
pub use mem::{BufferId, DeviceMemory, SharedId};
pub use occupancy::occupancy;
pub use sanitize::{RaceReport, Space};
pub use timing::STALL_CLASSES;
pub use trace::{DepToken, GridTrace, OpClass, OpKind, WarpTrace};
