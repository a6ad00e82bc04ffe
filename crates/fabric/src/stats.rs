//! Aggregate fabric counters.

/// Counters accumulated over a fabric's lifetime. All integral, updated
/// inline as events are processed, so aggregation never iterates a map —
/// equal runs produce equal snapshots regardless of hashing order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages accepted by [`crate::Fabric::send`].
    pub messages_sent: u64,
    /// Messages fully reassembled and released to their destination.
    pub messages_delivered: u64,
    /// Messages that took the eager path.
    pub eager_messages: u64,
    /// Messages that negotiated RTS/CTS.
    pub rendezvous_messages: u64,
    /// First transmissions (all kinds; excludes retransmits).
    pub packets_sent: u64,
    /// First transmissions of data packets.
    pub data_packets: u64,
    /// First transmissions of control packets (RTS, CTS, ack).
    pub control_packets: u64,
    /// Acknowledgements transmitted by receivers.
    pub acks_sent: u64,
    /// Timeout-driven retransmissions (any sequenced kind).
    pub retransmits: u64,
    /// Packets the fault model dropped in flight.
    pub drops_injected: u64,
    /// Extra copies the fault model created.
    pub duplicates_injected: u64,
    /// Traversals given extra reordering skew.
    pub reorders_injected: u64,
    /// Duplicate sequenced packets suppressed by the receiver.
    pub duplicate_packets_dropped: u64,
    /// Duplicate messages re-delivered upward (dedup disabled).
    pub duplicate_deliveries: u64,
    /// Data packets that had to wait for a credit.
    pub credit_stalls: u64,
    /// Total nanoseconds data packets spent waiting for credits.
    pub credit_stall_ns: u64,
    /// Packets that exhausted their retransmission budget.
    pub exhausted_retries: u64,
    /// Traversals the fault model corrupted (a payload bit flipped in
    /// flight).
    pub corruptions_injected: u64,
    /// Data packets the receiver rejected on a CRC mismatch (dropped
    /// without an ack, so the retransmission repairs them).
    pub corrupt_packets_dropped: u64,
    /// Traversals lost because their link was down (flap or partition
    /// window) at departure or arrival time.
    pub link_down_drops: u64,
    /// Retransmit exhaustions that *parked* instead of dying because
    /// the link was down — each resumes when the link heals.
    pub parked_packets: u64,
    /// Link-down episodes that stranded traffic (one per link per down
    /// window).
    pub link_down_events: u64,
    /// Heals of those episodes (one per counted down episode, once the
    /// link recovered and traffic resumed).
    pub link_heal_events: u64,
    /// Bytes serialized onto links, headers and retransmissions
    /// included.
    pub wire_bytes: u64,
}

impl FabricStats {
    /// Goodput ratio: payload bytes delivered over wire bytes spent.
    /// (Callers know the payload byte count; this helper just guards
    /// the division.)
    pub fn overhead_ratio(&self, payload_bytes: u64) -> f64 {
        if payload_bytes == 0 {
            0.0
        } else {
            self.wire_bytes as f64 / payload_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ratio_guards_zero() {
        let s = FabricStats {
            wire_bytes: 100,
            ..Default::default()
        };
        assert_eq!(s.overhead_ratio(0), 0.0);
        assert_eq!(s.overhead_ratio(50), 2.0);
    }
}
