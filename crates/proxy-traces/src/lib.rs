//! # proxy-traces — DOE exascale proxy application traces and analysis
//!
//! The paper's Section IV characterises the communication of DOE proxy
//! applications from their public dumpi traces. The original multi-GB
//! archives are not redistributable, so this crate models each
//! application's communication ([`AppModel`]) and synthesises event
//! streams ([`generate`]) whose aggregate statistics match everything the paper
//! reports: wildcard usage, communicator counts, peer counts, tag-space
//! sizes, UMQ/PRQ depth distributions (Figure 2) and {src, tag} tuple
//! uniqueness (Figure 6(a)).
//!
//! [`analyze()`] reconstructs per-rank UMQ/PRQ state from any trace —
//! synthetic or hand-built — exactly the way a dumpi-based analysis
//! restores queues at every matching attempt. The paper consumes only
//! these aggregate statistics, so traces live in memory and are never
//! serialised.
//!
//! ```
//! use proxy_traces::{analyze, generate, AppModel, GenOptions};
//!
//! let model = AppModel::by_name("LULESH").unwrap();
//! let trace = generate(&model, GenOptions { depth_scale: 0.2, ranks: Some(16), seed: 1, rank0_funnel: 0 });
//! let report = analyze(&trace);
//! assert_eq!(report.tag_wildcards, 0); // no proxy app uses MPI_ANY_TAG
//! assert!(report.tag_bits() <= 16);
//! ```

#![warn(missing_docs, unreachable_pub)]

mod analyze;
mod apps;
mod events;
mod generator;

pub use analyze::{analyze, AppAnalysis};
pub use apps::AppModel;
pub use events::{Trace, TraceEvent};
pub use generator::{generate, GenOptions};
