//! Message and completion types of the GPU messaging runtime.

use bytes::Bytes;
use msg_match::Envelope;

/// Handle to a posted receive, returned by
/// [`crate::domain::Domain::post_recv`] and reported back on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecvHandle(pub u64);

/// A delivered message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Matching header the message travelled with.
    pub envelope: Envelope,
    /// Payload bytes (zero-copy shared buffer).
    pub payload: Bytes,
    /// Causal flow id assigned at admission when flow tracing sampled
    /// this message (`None` otherwise). Travels with the message across
    /// the transport so delivery-side trace points chain to the sender's.
    pub(crate) flow: Option<u64>,
}

/// A completed receive: which post matched which message.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The posted receive that matched.
    pub handle: RecvHandle,
    /// The message delivered into it.
    pub message: Message,
}

/// Statistics of one endpoint's communication kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndpointStats {
    /// Simulated cycles the communication kernel has consumed.
    pub kernel_cycles: u64,
    /// Simulated seconds (at the device clock).
    pub kernel_seconds: f64,
    /// Matches completed.
    pub matches: u64,
    /// Matching kernel launches performed.
    pub launches: u64,
    /// Messages sent from this endpoint.
    pub(crate) sent: u64,
    /// Payload bytes written to remote queues (GAS traffic out).
    pub(crate) bytes_sent: u64,
    /// Payload bytes landed in this endpoint's queues (GAS traffic in).
    pub(crate) bytes_received: u64,
    /// High-water mark of the unexpected (inbox) queue.
    pub umq_high_water: usize,
    /// High-water mark of the posted-receive queue.
    pub prq_high_water: usize,
    /// Queue entries the kernel-launch pre-filter screened out of match
    /// batches (see [`msg_match::screen_batch`]).
    pub prefilter_rejections: u64,
    /// Entries probed against the pre-filter digests (messages plus
    /// requests, every kernel tick).
    pub prefilter_probes: u64,
    /// Kernel launches skipped entirely because screening emptied one
    /// side of the batch.
    pub prefilter_skipped_launches: u64,
    /// Wildcard probes the matrix engine answered by reusing the previous
    /// probe's scan ballot (see `GpuMatchReport::probe_dedups`).
    pub probe_dedups: u64,
    /// Duplicate transport sequences dropped by this endpoint's reorder
    /// stage (only populated when the domain restores order in user
    /// space over an unordered transport).
    pub reorder_duplicates: u64,
    /// High-water mark of the reorder stash (how far ahead the wire ran).
    pub reorder_high_water: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_ordering() {
        assert!(RecvHandle(1) < RecvHandle(2));
    }

    #[test]
    fn message_carries_payload() {
        let m = Message {
            envelope: Envelope::new(1, 2, 0),
            payload: Bytes::from_static(b"hello"),
            flow: None,
        };
        assert_eq!(&m.payload[..], b"hello");
    }
}
