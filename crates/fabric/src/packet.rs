//! Packet types on the simulated wire.
//!
//! Two kinds of sequence number travel in the headers:
//!
//! * `seq` — the per-`(src, dst)` **reliability** sequence. Data and
//!   RTS packets consume one each; acknowledgements name the sequence
//!   they answer. The selective-repeat layer keys its unacked map,
//!   duplicate suppression and retransmission timers on it.
//! * `msg_seq` — the per-`(src, dst)` **message** index, shared by every
//!   fragment of one payload. Reassembly and FIFO release key on it,
//!   and it is the sequence a user-level reorder buffer consumes.

use std::fmt;

use bytes::Bytes;
use msg_match::Envelope;

/// Wire overhead charged per packet (routing, sequencing, CRC — the
/// moral equivalent of an NVLink flit header plus transport header).
pub(crate) const HEADER_BYTES: usize = 32;

/// Reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table, and `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes — so eight input bytes fold into the
/// state with eight independent lookups instead of a serial chain.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `data`.
///
/// This is the integrity check carried in every data packet header and
/// every durable checkpoint: a single flipped payload bit changes the
/// digest, so corruption is always *detected* and repaired (by
/// retransmission, or by falling back to an older snapshot) instead of
/// silently replayed.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Why a packet was declared dead, in the typed dead list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadKind {
    /// A data fragment exhausted its retransmission budget.
    Data,
    /// A rendezvous request-to-send exhausted its budget.
    Rts,
}

/// A structured record of one permanently lost packet — the typed
/// counterpart of the human-readable strings in the fabric's dead list,
/// so supervisors can react to *which* transfer died instead of parsing
/// prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadPacket {
    /// Sending endpoint.
    pub(crate) src: u32,
    /// Receiving endpoint.
    pub(crate) dst: u32,
    /// Reliability sequence that exhausted its budget.
    pub(crate) seq: u64,
    /// Body class of the dead packet.
    pub(crate) kind: DeadKind,
    /// Retransmissions it spent before the timeout that killed it.
    pub(crate) retransmits: u32,
}

impl fmt::Display for DeadPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packet seq {} on link {}->{} dead after {} retransmits",
            self.seq, self.src, self.dst, self.retransmits
        )
    }
}

/// What a packet carries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PacketBody {
    /// One fragment of a message payload (eager data or post-CTS
    /// rendezvous data — the wire does not distinguish them).
    Data {
        /// Message index on this channel.
        msg_seq: u64,
        /// Fragment index within the message.
        frag: u32,
        /// Total fragments in the message.
        frags: u32,
        /// Total payload length of the message, in bytes.
        total_len: usize,
        /// Matching header, repeated on every fragment so reassembly
        /// state is self-describing.
        envelope: Envelope,
        /// CRC32 of the fragment bytes, computed at packetization. The
        /// receiver recomputes it on arrival; a mismatch (bit-flip
        /// corruption in flight) drops the packet *without* an ack, so
        /// the sender's retransmission repairs it.
        crc: u32,
        /// This fragment's bytes.
        chunk: Bytes,
    },
    /// Rendezvous request-to-send: announces `total_len` bytes for
    /// `msg_seq` and waits for a CTS grant.
    Rts {
        /// Message index being negotiated.
        msg_seq: u64,
        /// Announced payload length.
        total_len: usize,
        /// Matching header of the announced message.
        envelope: Envelope,
    },
    /// Clear-to-send: the receiver grants the rendezvous. Also serves
    /// as the acknowledgement of the RTS carrying `rts_seq`.
    Cts {
        /// Message index being granted.
        msg_seq: u64,
        /// Reliability sequence of the RTS this answers.
        rts_seq: u64,
    },
    /// Selective-repeat acknowledgement of one data packet.
    Ack {
        /// Reliability sequence being acknowledged.
        data_seq: u64,
    },
}

/// A packet in flight between two endpoints.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Packet {
    /// Sending endpoint.
    pub(crate) src: u32,
    /// Receiving endpoint.
    pub(crate) dst: u32,
    /// Reliability sequence on the `(src, dst)` channel. Meaningful for
    /// sequenced bodies (`Data`, `Rts`); echoes the answered sequence
    /// for `Cts`/`Ack`.
    pub(crate) seq: u64,
    /// Causal flow id of the message this packet carries, when the
    /// sender sampled it for flow tracing. Control answers (`Cts`,
    /// `Ack`) do not carry one; delivery and retransmission never
    /// depend on it.
    pub(crate) flow: Option<u64>,
    /// Payload or control content.
    pub(crate) body: PacketBody,
}

impl Packet {
    /// Bytes this packet occupies on the wire (header + fragment).
    pub(crate) fn wire_bytes(&self) -> usize {
        HEADER_BYTES
            + match &self.body {
                PacketBody::Data { chunk, .. } => chunk.len(),
                _ => 0,
            }
    }

    /// True for bodies that consume a reliability sequence and are
    /// retransmitted until acknowledged.
    pub(crate) fn is_sequenced(&self) -> bool {
        matches!(self.body, PacketBody::Data { .. } | PacketBody::Rts { .. })
    }

    /// True for bodies that consume a flow-control credit.
    pub(crate) fn needs_credit(&self) -> bool {
        matches!(self.body, PacketBody::Data { .. })
    }

    /// Stable label for traces and tables.
    pub(crate) fn kind_label(&self) -> &'static str {
        match self.body {
            PacketBody::Data { .. } => "data",
            PacketBody::Rts { .. } => "rts",
            PacketBody::Cts { .. } => "cts",
            PacketBody::Ack { .. } => "ack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn data_packet(chunk: &[u8]) -> Packet {
        Packet {
            src: 0,
            dst: 1,
            seq: 5,
            flow: None,
            body: PacketBody::Data {
                msg_seq: 2,
                frag: 0,
                frags: 1,
                total_len: chunk.len(),
                envelope: Envelope::new(0, 3, 0),
                crc: crc32(chunk),
                chunk: Bytes::copy_from_slice(chunk),
            },
        }
    }

    #[test]
    fn wire_bytes_charge_header_overhead() {
        assert_eq!(data_packet(&[0u8; 100]).wire_bytes(), HEADER_BYTES + 100);
        let ack = Packet {
            src: 1,
            dst: 0,
            seq: 5,
            flow: None,
            body: PacketBody::Ack { data_seq: 5 },
        };
        assert_eq!(ack.wire_bytes(), HEADER_BYTES);
    }

    #[test]
    fn sequencing_and_credit_classes() {
        let d = data_packet(b"x");
        assert!(d.is_sequenced() && d.needs_credit());
        let rts = Packet {
            src: 0,
            dst: 1,
            seq: 9,
            flow: None,
            body: PacketBody::Rts {
                msg_seq: 1,
                total_len: 4096,
                envelope: Envelope::new(0, 1, 0),
            },
        };
        assert!(rts.is_sequenced() && !rts.needs_credit());
        let cts = Packet {
            src: 1,
            dst: 0,
            seq: 9,
            flow: None,
            body: PacketBody::Cts {
                msg_seq: 1,
                rts_seq: 9,
            },
        };
        assert!(!cts.is_sequenced() && !cts.needs_credit());
        assert_eq!(cts.kind_label(), "cts");
    }

    #[test]
    fn crc32_matches_the_reference_vector_and_detects_flips() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut corrupted = b"123456789".to_vec();
        corrupted[4] ^= 0x10;
        assert_ne!(crc32(&corrupted), crc32(b"123456789"));
    }

    /// The textbook one-table, one-byte-at-a-time CRC32: the oracle the
    /// sliced implementation must agree with bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    CRC_POLY ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn crc32_equals_the_bytewise_reference(
            buf in collection::vec(any::<u8>(), 0..=307),
            start in 0usize..8,
        ) {
            // Slicing off 0..8 leading bytes moves the data across every
            // alignment of the eight-byte fold.
            let data = &buf[start.min(buf.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }
}
