//! User-level ordering restoration for unordered domains.
//!
//! Under the no-ordering relaxation the runtime may deliver messages from
//! the same source in any order; the paper notes "tags can be used to
//! restore ordering at the user level". [`ReorderBuffer`] packages that
//! discipline: senders stamp a per-destination sequence number into the
//! tag (or a payload header), receivers push completions as they arrive
//! and pop them in sequence — exactly a transport-layer reorder window.

use std::collections::{BTreeMap, HashMap};

use crate::message::Message;

/// Restores per-source delivery order from sequence-stamped messages.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    /// Per source: next sequence expected, and the out-of-order stash.
    streams: HashMap<u32, (u64, BTreeMap<u64, Message>)>,
    /// Total messages buffered right now.
    buffered: usize,
    /// High-water mark of the stash (how far ahead delivery ran).
    pub max_buffered: usize,
    /// Duplicate or replayed sequences dropped instead of delivered.
    pub(crate) duplicates: u64,
}

impl ReorderBuffer {
    /// Empty buffer; every source starts expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a delivered message carrying sequence `seq` from its source.
    /// Returns every message that is now in order (possibly empty if
    /// `seq` arrived early; possibly several if it filled a gap).
    ///
    /// A duplicate or replayed sequence — one already released or
    /// already stashed, as an at-least-once transport can legitimately
    /// present — is dropped (never delivered twice, never corrupting the
    /// stash accounting) and counted in `Self::duplicates`.
    pub fn push(&mut self, seq: u64, message: Message) -> Vec<Message> {
        let src = message.envelope.src;
        let (next, stash) = self.streams.entry(src).or_insert((0, BTreeMap::new()));
        if seq < *next || stash.contains_key(&seq) {
            self.duplicates += 1;
            return Vec::new();
        }
        stash.insert(seq, message);
        self.buffered += 1;
        self.max_buffered = self.max_buffered.max(self.buffered);

        let mut ready = Vec::new();
        while let Some(m) = stash.remove(next) {
            ready.push(m);
            *next += 1;
            self.buffered -= 1;
        }
        ready
    }

    #[cfg(test)]
    /// Messages currently held out of order.
    pub(crate) fn pending(&self) -> usize {
        self.buffered
    }

    /// True if no gaps are outstanding.
    pub fn is_drained(&self) -> bool {
        self.buffered == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use msg_match::Envelope;

    fn msg(src: u32, seq: u64) -> Message {
        Message {
            flow: None,
            envelope: Envelope::new(src, (seq % 1000) as u32, 0),
            payload: Bytes::from(seq.to_le_bytes().to_vec()),
        }
    }

    #[test]
    fn in_order_passes_through() {
        let mut rb = ReorderBuffer::new();
        for seq in 0..5 {
            let out = rb.push(seq, msg(1, seq));
            assert_eq!(out.len(), 1);
        }
        assert!(rb.is_drained());
        assert_eq!(rb.max_buffered, 1);
    }

    #[test]
    fn gap_fills_release_in_order() {
        let mut rb = ReorderBuffer::new();
        assert!(rb.push(2, msg(1, 2)).is_empty());
        assert!(rb.push(1, msg(1, 1)).is_empty());
        assert_eq!(rb.pending(), 2);
        let out = rb.push(0, msg(1, 0));
        assert_eq!(out.len(), 3);
        let seqs: Vec<u64> = out
            .iter()
            .map(|m| u64::from_le_bytes(m.payload[..8].try_into().unwrap()))
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(rb.is_drained());
        assert_eq!(rb.max_buffered, 3);
    }

    #[test]
    fn sources_are_independent() {
        let mut rb = ReorderBuffer::new();
        assert!(rb.push(1, msg(7, 1)).is_empty(), "src 7 waits for seq 0");
        assert_eq!(rb.push(0, msg(9, 0)).len(), 1, "src 9 is unaffected");
        assert_eq!(rb.push(0, msg(7, 0)).len(), 2);
    }

    #[test]
    fn replayed_sequence_is_dropped_not_redelivered() {
        let mut rb = ReorderBuffer::new();
        assert_eq!(rb.push(0, msg(1, 0)).len(), 1, "first copy delivers");
        assert!(rb.push(0, msg(1, 0)).is_empty(), "replay must not deliver");
        assert_eq!(rb.duplicates, 1);
        assert!(rb.is_drained(), "replay must not inflate the stash count");
        // The stream still advances normally afterwards.
        assert_eq!(rb.push(1, msg(1, 1)).len(), 1);
    }

    #[test]
    fn duplicate_of_stashed_sequence_is_dropped() {
        let mut rb = ReorderBuffer::new();
        assert!(rb.push(2, msg(1, 2)).is_empty(), "seq 2 stashes");
        assert!(rb.push(2, msg(1, 2)).is_empty(), "second copy of seq 2");
        assert_eq!(rb.duplicates, 1);
        assert_eq!(rb.pending(), 1, "the stash holds exactly one copy");
        assert!(rb.push(1, msg(1, 1)).is_empty());
        let out = rb.push(0, msg(1, 0));
        assert_eq!(out.len(), 3, "gap fill releases each sequence once");
        assert!(rb.is_drained());
    }

    #[test]
    fn full_permutation_restores_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut seqs: Vec<u64> = (0..200).collect();
        seqs.shuffle(&mut rng);
        let mut rb = ReorderBuffer::new();
        let mut delivered = Vec::new();
        for &seq in &seqs {
            delivered.extend(
                rb.push(seq, msg(0, seq))
                    .into_iter()
                    .map(|m| u64::from_le_bytes(m.payload[..8].try_into().unwrap())),
            );
        }
        assert_eq!(delivered, (0..200).collect::<Vec<u64>>());
        assert!(rb.is_drained());
    }
}
