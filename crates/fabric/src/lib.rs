//! # fabric — a deterministic simulated interconnect
//!
//! The paper's deployment model (Section II-C) has every send travel the
//! node fabric as a remote write into the destination GPU's message
//! queue, and the *no-ordering* relaxation exists precisely because real
//! interconnects deliver out of order. This crate models that wire
//! explicitly, so the runtime's reorder machinery and relaxation
//! trade-offs are exercised by realistic transport behaviour instead of
//! an instantaneous in-order memcpy:
//!
//! * **Packetization** — payloads fragment against a configurable MTU;
//!   every packet pays header overhead and serialization time.
//! * **Eager / rendezvous protocols** — payloads at or below the eager
//!   threshold ship immediately; larger ones negotiate an RTS/CTS
//!   handshake first (the classic MPI protocol split).
//! * **Link model** — per-directed-link serialization (bandwidth) and
//!   propagation (latency) on a simulated clock; a link is a single
//!   server, so back-to-back packets queue behind each other.
//! * **Credit-based flow control** — each `(src, dst)` channel holds a
//!   fixed number of data-packet credits modelling slots in the
//!   destination queue; senders stall when credits run out and resume
//!   as acknowledgements return slots.
//! * **Fault injection** — per-traversal drop, duplication, reordering
//!   (bounded extra skew) and payload bit-flip corruption, all driven by
//!   one seeded RNG so runs are reproducible bit-for-bit; every data
//!   packet carries a CRC32 the receiver verifies before acking, so
//!   corruption behaves as a detected loss and retransmission repairs
//!   it.
//! * **Link lifecycle faults** — [`LinkFaultConfig`] adds seeded
//!   link-down flap windows and whole-topology partitions as a pure
//!   function of `(seed, link, time)`; traversals inside a window are
//!   lost, retransmit exhaustion against a downed path *parks* the
//!   packet and counts a down episode
//!   ([`FabricStats::link_down_events`]) instead of an error, and heals
//!   resume selective repeat from the surviving unacked window.
//! * **Selective-repeat reliability** — every sequenced packet is acked
//!   individually and retransmitted on timeout with exponential
//!   backoff; the receiver suppresses duplicates, so a lossy fabric
//!   delivers *exactly* the same message set as a lossless one.
//! * **Delivery order** — [`DeliveryOrder::PerPairFifo`] re-sequences
//!   completed messages per channel (what a full-MPI domain needs);
//!   [`DeliveryOrder::Unordered`] hands messages up the moment they
//!   reassemble, surfacing real wire disorder to the relaxed runtime.
//! * **Observability** — with [`FabricConfig::trace`] on, every packet
//!   flight, retransmission, credit stall and injected fault lands on a
//!   per-link [`obs::SpanRecorder`] track, exported as Perfetto-loadable
//!   JSON by [`Fabric::trace_json`].
//!
//! ```
//! use bytes::Bytes;
//! use fabric::{Fabric, FabricConfig, FaultConfig};
//! use msg_match::Envelope;
//!
//! let mut cfg = FabricConfig::default();
//! cfg.fault = FaultConfig { drop_prob: 0.2, ..FaultConfig::NONE };
//! let mut net = Fabric::new(2, cfg);
//! net.send(0, 1, Envelope::new(0, 7, 0), Bytes::from_static(b"over the wire"));
//! net.run_until_quiescent(1_000_000_000).unwrap();
//! let got = net.take_deliveries(1);
//! assert_eq!(&got[0].payload[..], b"over the wire");
//! ```

#![warn(missing_docs, unreachable_pub)]

mod config;
mod net;
mod packet;
mod stats;

pub use config::{DeliveryOrder, FabricConfig, FaultConfig, LinkFaultConfig};
pub use net::{Delivery, Fabric, FabricError};
pub use packet::{crc32, DeadKind, DeadPacket};
pub use stats::FabricStats;
