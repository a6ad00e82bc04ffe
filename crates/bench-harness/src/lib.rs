//! # bench-harness — regenerates every table and figure of the paper
//!
//! Each experiment is a library module under [`experiments`] (so tests
//! can assert the shapes), and [`experiments::OUTPUTS`] names what the
//! one `repro` binary prints:
//!
//! ```text
//! cargo run --release -p bench-harness --bin repro -- table2       # one output
//! cargo run --release -p bench-harness --bin repro -- all          # every output + CSVs in results/
//! cargo run --release -p bench-harness --bin repro -- obs_report   # OBS_trace.json + expositions
//! ```
//!
//! A unit test pins every deterministic output's bytes, so a refactor
//! that moves a table or figure fails `cargo test`. The paper's matches/s
//! figures come from simulated device time; the *native* cost of the
//! engines and of the simulator itself is measured by the standalone
//! `bench/` package.

#![warn(missing_docs, unreachable_pub)]

pub mod experiments;
mod table;

pub use table::Report;
