//! # gpu-msg — a GPU-centric message passing runtime
//!
//! The deployment model of *"Relaxations for High-Performance Message
//! Passing on Massively Parallel SIMT Processors"* (Section II-C): GPUs
//! are autonomous network peers; a global address space spans the node;
//! sends are remote writes into per-GPU message queues; a resident
//! communication kernel on one SM performs the message matching while the
//! remaining SMs run the application.
//!
//! [`Domain`] models such a node over the [`simt_sim`] device simulator,
//! with the matcher — and therefore the semantics the application gets —
//! chosen per [`msg_match::RelaxationConfig`]:
//!
//! * [`MatcherKind::Matrix`] — full MPI guarantees;
//! * [`MatcherKind::Partitioned`] — no source wildcard;
//! * [`MatcherKind::Hash`] — unordered, tags disambiguate.
//!
//! The same enum pins the engines of the [`ShardedMatchService`]
//! ([`ShardEnginePolicy::Fixed`]); each converts into the
//! [`msg_match::EngineChoice`] that states its lattice row, ordering
//! strictness and labels.
//!
//! The wire between endpoints is pluggable ([`TransportConfig`]): the
//! default [`TransportConfig::Direct`] is the ideal instantaneous GAS
//! write, while [`TransportConfig::Fabric`] routes sends through a simulated
//! interconnect ([`fabric::Fabric`]) with packetization, eager/rendezvous
//! protocols, credit-based flow control and fault injection — lossy yet,
//! thanks to selective-repeat recovery, observationally equivalent.
//!
//! Blocking receives take no round count or timeout: a rank pumps the
//! wire while it has work in flight, parks otherwise, and fails only on
//! a real deadlock (the progress contract of DESIGN.md §3a).
//! [`Domain::run_ranks`] drives one thread per rank.
//!
//! ```
//! use bytes::Bytes;
//! use gpu_msg::{Domain, MatcherKind};
//! use msg_match::{RecvRequest, RelaxationConfig};
//! use simt_sim::GpuGeneration;
//!
//! let node = Domain::full_mpi(2, GpuGeneration::PascalGtx1080);
//! node.send(0, 1, 42, 0, Bytes::from_static(b"hello GPU"));
//! let msg = node.recv_blocking(1, RecvRequest::exact(0, 42, 0)).unwrap();
//! assert_eq!(&msg.payload[..], b"hello GPU");
//!
//! // One thread per rank: a ring shift.
//! let from_left = node.run_ranks(|rank, node| {
//!     node.send(rank, 1 - rank, 7, 0, Bytes::from(vec![rank as u8]));
//!     node.recv_blocking(rank, RecvRequest::exact(1 - rank, 7, 0)).unwrap().payload[0]
//! });
//! assert_eq!(from_left, [1, 0]);
//! ```

#![warn(missing_docs, unreachable_pub)]

mod bsp;
pub mod collectives;
mod domain;
mod endpoint;
mod fault;
mod message;
mod metrics;
mod recovery;
mod reorder;
mod sched;
mod service;
mod supervisor;
mod tenancy;
mod transport;

pub use bsp::BspProgram;
pub use collectives::{barrier, broadcast, ring_allgather_u64, ring_allreduce_sum};
/// The service's name for [`MatcherKind`]; kept because the `bench/`
/// workloads spell shard engines this way.
pub use domain::MatcherKind as ServiceEngine;
pub use domain::{Domain, DomainConfig, MatcherKind};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRates};
pub use message::{Completion, EndpointStats, RecvHandle};
pub use metrics::{EngineProfile, Histogram, ServiceMetrics, ShardMetrics};
pub use recovery::RecoveryConfig;
pub use reorder::ReorderBuffer;
pub use sched::Scheduler;
pub use service::{
    FaultTolerance, ShardEnginePolicy, ShardedMatchService, ShardedServiceConfig,
    ShardedServiceReport,
};
pub use supervisor::SupervisorConfig;
pub use tenancy::{ArrivalPattern, QosClass, ReshardPolicy, TenancyConfig, TenantSpec};
pub use transport::TransportConfig;
