//! Pluggable wire between a domain's endpoints.
//!
//! The original runtime modelled a send as an instantaneous in-order
//! remote write — the ideal GAS store of the paper's Section II-C. A
//! [`Transport`] makes that wire a replaceable component:
//!
//! * [`DirectTransport`] keeps the ideal semantics (and zero overhead):
//!   submitted messages are deliverable immediately, in submission
//!   order.
//! * [`FabricTransport`] routes every remote send through a
//!   [`fabric::Fabric`] — packetization, eager/rendezvous protocol
//!   selection, credit-based flow control, fault injection and
//!   selective-repeat recovery, all on a simulated clock that advances
//!   as the domain makes progress.
//!
//! Both stamp each `(src, dst)` channel's messages with a dense
//! `msg_seq`, so a user-level [`crate::ReorderBuffer`] can restore order
//! when the transport itself does not.

use std::collections::HashMap;

use bytes::Bytes;
use fabric::{Fabric, FabricConfig, FabricStats};
use msg_match::Envelope;

use crate::message::Message;

/// Which wire a [`crate::Domain`] runs over.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransportConfig {
    /// Instantaneous in-order delivery.
    #[default]
    Direct,
    /// A simulated interconnect with the given parameters.
    Fabric(FabricConfig),
}

/// A message the transport has carried to its destination.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TransportDelivery {
    /// Destination endpoint.
    pub(crate) dst: u32,
    /// Dense per-`(src, dst)` message index (the source is in the
    /// envelope).
    pub(crate) msg_seq: u64,
    /// The message itself, with the causal flow id the sender passed to
    /// [`Transport::submit_flow`].
    pub(crate) message: Message,
}

/// The wire between endpoints. Implementations own all in-flight state;
/// the domain submits on send and pumps during progress.
pub(crate) trait Transport: Send {
    /// Accept a message for delivery. `src == dst` is a local write and
    /// must always succeed without touching the wire.
    fn submit(&mut self, src: u32, dst: u32, envelope: Envelope, payload: Bytes);

    /// Like [`Transport::submit`], but carrying an optional causal flow
    /// id that the delivery echoes back ([`TransportDelivery::flow`]).
    /// The default drops the id; delivery order and content never depend
    /// on it.
    fn submit_flow(
        &mut self,
        src: u32,
        dst: u32,
        envelope: Envelope,
        payload: Bytes,
        flow: Option<u64>,
    ) {
        let _ = flow;
        self.submit(src, dst, envelope, payload);
    }

    /// Collect every message that has reached its destination. With
    /// `advance`, a time-based transport first moves its simulated clock
    /// forward one progress quantum.
    fn pump(&mut self, advance: bool) -> Vec<TransportDelivery>;

    /// True when nothing is in flight or undelivered inside the
    /// transport.
    fn quiescent(&self) -> bool;

    /// Surface unrecoverable transport failures (e.g. a packet that
    /// exhausted its retransmission budget).
    ///
    /// # Errors
    /// A description of the failed transfers.
    fn check(&self) -> Result<(), String>;

    /// Simulated wire time in nanoseconds, used to timestamp flow trace
    /// points. The instantaneous direct wire has no clock (always 0).
    fn now_ns(&self) -> u64 {
        0
    }

    /// Fabric counters, when the wire is a fabric.
    fn fabric_stats(&self) -> Option<FabricStats> {
        None
    }

    /// Per-link trace JSON, when the wire is a traced fabric.
    fn trace_json(&self) -> Option<String> {
        None
    }
}

/// Instantaneous, in-order, lossless delivery — the ideal GAS remote
/// write the runtime originally modelled.
#[derive(Debug, Default)]
pub(crate) struct DirectTransport {
    seqs: HashMap<(u32, u32), u64>,
    ready: Vec<TransportDelivery>,
}

impl DirectTransport {
    /// A fresh direct wire.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Transport for DirectTransport {
    fn submit(&mut self, src: u32, dst: u32, envelope: Envelope, payload: Bytes) {
        self.submit_flow(src, dst, envelope, payload, None);
    }

    fn submit_flow(
        &mut self,
        src: u32,
        dst: u32,
        envelope: Envelope,
        payload: Bytes,
        flow: Option<u64>,
    ) {
        let seq = self.seqs.entry((src, dst)).or_insert(0);
        let msg_seq = *seq;
        *seq += 1;
        self.ready.push(TransportDelivery {
            dst,
            msg_seq,
            message: Message {
                envelope,
                payload,
                flow,
            },
        });
    }

    fn pump(&mut self, _advance: bool) -> Vec<TransportDelivery> {
        std::mem::take(&mut self.ready)
    }

    fn quiescent(&self) -> bool {
        self.ready.is_empty()
    }

    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A wire that routes every remote send through a simulated fabric.
pub(crate) struct FabricTransport {
    net: Fabric,
    /// Simulated nanoseconds the fabric advances per progress pump.
    quantum_ns: u64,
    /// Message counters for `src == dst` local writes, which bypass the
    /// wire but still need dense sequence numbers on their channel.
    local_seqs: HashMap<u32, u64>,
    /// Local writes awaiting the next pump.
    local_ready: Vec<TransportDelivery>,
}

impl FabricTransport {
    /// Wrap a fabric of `ranks` endpoints. The progress quantum is
    /// derived from the configuration: long enough that a retransmission
    /// cycle completes within a few pumps, never shorter than one link
    /// traversal.
    pub(crate) fn new(ranks: u32, cfg: FabricConfig) -> Self {
        let quantum_ns = cfg
            .link_latency_ns
            .max(cfg.retransmit_timeout_ns / 2)
            .max(1);
        FabricTransport {
            net: Fabric::new(ranks, cfg),
            quantum_ns,
            local_seqs: HashMap::new(),
            local_ready: Vec::new(),
        }
    }
}

impl Transport for FabricTransport {
    fn submit(&mut self, src: u32, dst: u32, envelope: Envelope, payload: Bytes) {
        self.submit_flow(src, dst, envelope, payload, None);
    }

    fn submit_flow(
        &mut self,
        src: u32,
        dst: u32,
        envelope: Envelope,
        payload: Bytes,
        flow: Option<u64>,
    ) {
        if src == dst {
            let seq = self.local_seqs.entry(src).or_insert(0);
            let msg_seq = *seq;
            *seq += 1;
            self.local_ready.push(TransportDelivery {
                dst,
                msg_seq,
                message: Message {
                    envelope,
                    payload,
                    flow,
                },
            });
            return;
        }
        self.net.send_flow(src, dst, envelope, payload, flow);
    }

    fn pump(&mut self, advance: bool) -> Vec<TransportDelivery> {
        if advance {
            self.net.advance(self.quantum_ns);
        }
        let mut out = std::mem::take(&mut self.local_ready);
        for dst in 0..self.net.ranks() {
            for d in self.net.take_deliveries(dst) {
                out.push(TransportDelivery {
                    dst,
                    msg_seq: d.msg_seq,
                    message: Message {
                        envelope: d.envelope,
                        payload: d.payload,
                        flow: d.flow,
                    },
                });
            }
        }
        out
    }

    fn quiescent(&self) -> bool {
        self.local_ready.is_empty() && self.net.quiescent()
    }

    fn check(&self) -> Result<(), String> {
        let dead = self.net.dead_packets().len();
        if dead == 0 {
            Ok(())
        } else {
            Err(format!(
                "fabric lost {dead} transfer(s) permanently: {}",
                self.net.describe_dead_packets()
            ))
        }
    }

    fn now_ns(&self) -> u64 {
        self.net.now_ns()
    }

    fn fabric_stats(&self) -> Option<FabricStats> {
        Some(self.net.stats())
    }

    fn trace_json(&self) -> Option<String> {
        self.net.trace_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_n(t: &mut dyn Transport, n: u32) {
        for i in 0..n {
            t.submit(0, 1, Envelope::new(0, i, 0), Bytes::from(vec![i as u8]));
        }
    }

    #[test]
    fn direct_delivers_immediately_in_order() {
        let mut t = DirectTransport::new();
        submit_n(&mut t, 4);
        let got = t.pump(false);
        assert_eq!(got.len(), 4);
        let seqs: Vec<u64> = got.iter().map(|d| d.msg_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(t.quiescent());
        t.check().unwrap();
    }

    #[test]
    fn fabric_needs_time_to_deliver() {
        let mut t = FabricTransport::new(2, FabricConfig::default());
        submit_n(&mut t, 3);
        assert!(t.pump(false).is_empty(), "nothing lands at t=0");
        assert!(!t.quiescent());
        let mut got = Vec::new();
        for _ in 0..64 {
            got.extend(t.pump(true));
            if got.len() == 3 {
                break;
            }
        }
        assert_eq!(got.len(), 3);
        assert!(t.quiescent());
        assert!(t.fabric_stats().unwrap().packets_sent > 0);
    }

    #[test]
    fn fabric_local_write_bypasses_the_wire() {
        let mut t = FabricTransport::new(2, FabricConfig::default());
        t.submit(1, 1, Envelope::new(1, 9, 0), Bytes::from_static(b"self"));
        let got = t.pump(false);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dst, 1);
        assert_eq!(got[0].msg_seq, 0);
        assert_eq!(t.fabric_stats().unwrap().messages_sent, 0);
    }
}
