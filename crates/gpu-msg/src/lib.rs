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
//! The wire between endpoints is pluggable ([`TransportConfig`]): the
//! default [`DirectTransport`] is the ideal instantaneous GAS write,
//! while [`FabricTransport`] routes sends through a simulated
//! interconnect ([`fabric::Fabric`]) with packetization, eager/rendezvous
//! protocols, credit-based flow control and fault injection — lossy yet,
//! thanks to selective-repeat recovery, observationally equivalent.
//!
//! Blocking receives take no round count or timeout: a rank pumps the
//! wire while it has work in flight, parks otherwise, and fails only on
//! a real deadlock (see the [`domain`] module's progress contract).
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

#![warn(missing_docs)]

pub mod bsp;
pub mod collectives;
pub mod domain;
pub mod fault;
pub mod message;
pub mod metrics;
pub mod recovery;
pub mod reorder;
pub mod sched;
pub mod service;
pub mod supervisor;
pub mod tenancy;
pub mod transport;

pub use bsp::BspProgram;
pub use collectives::{barrier, broadcast, ring_allgather_u64, ring_allreduce_sum};
pub use domain::{Domain, DomainConfig, MatcherKind};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRates};
pub use message::{Completion, EndpointStats, Message, RecvHandle};
pub use metrics::{
    EngineProfile, Histogram, OverflowStats, SchedulerProfile, ServiceMetrics, ShardMetrics,
    ShardWallProfile, TenantMetrics,
};
pub use recovery::{RecoveryConfig, Snapshot, StreamState};
pub use reorder::ReorderBuffer;
pub use sched::Scheduler;
pub use service::{
    engine_label, FaultTolerance, ServiceEngine, ServiceReport, ShardEnginePolicy,
    ShardedMatchService, ShardedServiceConfig, ShardedServiceReport,
};
pub use supervisor::{Supervisor, SupervisorConfig};
pub use tenancy::{
    ArrivalPattern, FillLimits, QosClass, ReshardPlanner, ReshardPolicy, TenancyConfig, TenantSpec,
    TokenBucket,
};
pub use transport::{
    DirectTransport, FabricTransport, Transport, TransportConfig, TransportDelivery,
};
