//! Experiment drivers — one module per table/figure of the paper, plus
//! the observability exporter.
//!
//! | module | paper artefact |
//! |---|---|
//! | [`traces`] | Table I, Figure 2, Figure 6(a) |
//! | [`figure4`] | Figure 4 (compliant matrix matcher sweep) |
//! | [`figure5`] | Figure 5 (rank-partitioned sweep) |
//! | [`figure6b`] | Figure 6(b) (hash matcher sweep) |
//! | [`table2`] | Table II (relaxation lattice, measured) |
//! | [`cpu_baseline`] | Section II-C CPU rates |
//! | [`unexpected`] | Section VI-B (compaction, match fraction) |
//! | [`ablations`] | pipelining, window size, long-queue order, hash design |
//! | [`profile`] | Section VII-C architectural profile |
//! | [`scaling`] | rank-0 hotspot depth scaling (related-work check) |
//! | [`obs_report`] | traced service run: span timeline, exposition, stalls |

pub mod ablations;
pub mod cpu_baseline;
pub mod figure4;
pub mod figure5;
pub mod figure6b;
pub mod obs_report;
pub mod profile;
pub mod scaling;
pub mod table2;
pub mod traces;
pub mod unexpected;
