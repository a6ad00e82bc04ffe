//! # bench-harness — regenerates every table and figure of the paper
//!
//! Each experiment is a library module under [`experiments`] (so tests
//! can assert the shapes) with a thin binary wrapper:
//!
//! ```text
//! cargo run --release -p bench-harness --bin table1
//! cargo run --release -p bench-harness --bin figure2
//! cargo run --release -p bench-harness --bin figure4
//! cargo run --release -p bench-harness --bin figure5
//! cargo run --release -p bench-harness --bin figure6a
//! cargo run --release -p bench-harness --bin figure6b
//! cargo run --release -p bench-harness --bin table2
//! cargo run --release -p bench-harness --bin cpu_baseline
//! cargo run --release -p bench-harness --bin unexpected
//! cargo run --release -p bench-harness --bin obs_report   # OBS_trace.json + expositions
//! cargo run --release -p bench-harness --bin all    # everything + CSVs
//! ```
//!
//! The paper's matches/s figures come from simulated device time and are
//! printed by the binaries above; the *native* cost of the engines and of
//! the simulator itself is measured by the standalone `bench/` package.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Report;
